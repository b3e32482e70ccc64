"""Free-lattice computations: term order and canonical forms, finite
lattice tooling, bounded homomorphisms, and ideal-lattice checks."""

from .bhom import (
    ClassEntry,
    ClassTable,
    Classification,
    CoherentSequence,
    Hom,
    NotBoundedError,
    Tower,
    alpha,
    beta,
    class_of,
    classify_element,
    coherent_sequence,
    compare_coherent,
    is_lower_bounded,
    is_upper_bounded,
    kernel_table,
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
    meet_irreducibles,
    minimal_join_covers,
    minimal_meet_covers,
    poset_from_covers,
    tarski_lfp,
    to_dot,
)
from .ideals import (
    ChainFilter,
    ChainIdeal,
    MemberAnswer,
    filter_lemma_witness_check,
    ideal_member,
    join_member,
    kappa_principal,
    meet_member,
    polar_down,
    polar_up,
    principal_ideal,
    sd_meet_failure_report,
    yz_chains,
)
from .latfile import LatticeFileError, load_latfile, load_lattice, parse_latfile
from .reporting import FAIL, INCONCLUSIVE, PASS, Report
from .terms import (
    GeneratorSet,
    ParseError,
    Term,
    complexity,
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
    Interval,
    canonical_form,
    ci_check,
    equal,
    fixed_point_search,
    generates_free,
    in_interval,
    leq,
    ni_predicate,
)

__version__ = "0.1.0"
