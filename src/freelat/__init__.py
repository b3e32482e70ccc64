"""Free-lattice computations: term order and canonical forms, finite
lattice tooling, bounded homomorphisms, and ideal-lattice checks."""

from .bhom import (
    Hom,
    NotBoundedError,
    Tower,
    alpha,
    beta,
    compare_stages,
    is_lower_bounded,
    is_upper_bounded,
    kernel_table,
    stage_classes,
)
from .builders import (
    build_a,
    build_fd3,
    builtin_lattice,
    catalog,
    doubled_hom,
    extended_catalog,
    fd3_doubling_targets,
    pentagon_hom,
)
from .finlat import (
    FiniteLattice,
    FinitePoset,
    NotALatticeError,
    check_W,
    check_sd_join,
    check_sd_meet,
    d_rank,
    d_rank_op,
    d_relation,
    dm_completion,
    double,
    find_isomorphism,
    from_covers,
    join_irreducibles,
    minimal_join_covers,
    poset_from_covers,
    tarski_lfp,
    to_dot,
)
from .ideals import (
    ChainIdeal,
    MemberAnswer,
    ideal_member,
    join_member,
    sd_meet_failure_report,
    yz_chains,
)
from .latfile import LatticeFileError, load_latfile, load_lattice, parse_latfile
from .reporting import FAIL, INCONCLUSIVE, PASS, Report
from .terms import (
    GeneratorSet,
    ParseError,
    Term,
    dual_term,
    enumerate_terms,
    evaluate,
    gen,
    join,
    meet,
    parse_term,
    print_term,
    substitute,
    term_key,
)
from .verify import (
    check_pi3_in_f3,
    search_pi3_in_f4,
    separate_terms,
    verify_figure1,
    verify_figure2,
    verify_figure3,
)
from .whitman import (
    canonical_form,
    equal,
    generates_free,
    leq,
    ni_predicate,
)

__version__ = "0.1.0"
