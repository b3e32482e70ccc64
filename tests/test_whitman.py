import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import perturb, rand_term
from freelat import terms, whitman
from freelat.terms import (
    GEN,
    JOIN,
    MEET,
    GeneratorSet,
    _node,
    dual_term,
    enumerate_terms,
    gen,
    join,
    meet,
    parse_term,
    print_term,
    term_key,
)
from freelat.whitman import (
    canonical_form,
    equal,
    generates_free,
    leq,
    ni_predicate,
    promotion,
)

G = GeneratorSet(("x", "y", "z"))
X, Y, Z = G.terms()
G4 = ("x", "y", "z", "w")

_ORACLE: dict = {}


def canonical_oracle(t):
    """The node-building canonical form: each pass builds the whole node
    to test promotions and a node of the rest for each absorption."""
    if t.kind == GEN:
        return t
    r = _ORACLE.get(t)
    if r is not None:
        return r
    kind = t.kind
    other = MEET if kind == JOIN else JOIN
    work = []
    for o in t.ops:
        c = canonical_oracle(o)
        work.extend(c.ops if c.kind == kind else (c,))
    work = sorted(set(work), key=term_key)
    while True:
        whole = _node(kind, tuple(work))
        promoted = False
        for i, o in enumerate(work):
            if o.kind != other:
                continue
            for u in o.ops:
                if leq(u, whole) if kind == JOIN else leq(whole, u):
                    del work[i]
                    work.extend(u.ops if u.kind == kind else (u,))
                    work = sorted(set(work), key=term_key)
                    promoted = True
                    break
            if promoted:
                break
        if promoted:
            continue
        dropped = False
        if len(work) >= 2:
            for i, o in enumerate(work):
                rest = _node(kind, tuple(work[:i] + work[i + 1:]))
                if leq(o, rest) if kind == JOIN else leq(rest, o):
                    del work[i]
                    dropped = True
                    break
        if not dropped:
            break
    r = _node(kind, tuple(work))
    _ORACLE[t] = r
    return r


def ni_oracle(ts):
    """ni_predicate against built joins and meets of the rest."""
    for i, t in enumerate(ts):
        rest = ts[:i] + ts[i + 1:]
        if leq(t, join(*rest)) or leq(meet(*rest), t):
            return True
    return False


def raw_terms(names):
    return st.recursive(
        st.sampled_from(names).map(gen),
        lambda kids: st.builds(lambda ctor, ops: ctor(*ops),
                               st.sampled_from((join, meet)),
                               st.lists(kids, min_size=2, max_size=3)),
        max_leaves=10)


any_raw_terms = st.sampled_from((G.names, G4)).flatmap(
    lambda names: st.tuples(st.just(names), raw_terms(names)))


def t(src):
    return parse_term(src, G)


@pytest.mark.parametrize("s,u,want", [
    ("x", "x", True),
    ("x", "y", False),
    ("x*y", "x", True),
    ("x", "x+y", True),
    ("x+y", "x", False),
    ("x", "(x+y)*(x+z)", True),
    ("x*y+x*z", "x*(y+z)", True),
    ("x*(y+z)", "x*y+x*z", False),
    ("xy+xz+yz", "(x+y)*(x+z)*(y+z)", True),
    ("(x+y)*(x+z)*(y+z)", "xy+xz+yz", False),
    ("x*(z+x*y)", "z+x*y", True),
    ("z*(x+y)", "z", True),
])
def test_leq_cases(s, u, want):
    assert leq(t(s), t(u)) is want


def test_leq_is_a_preorder(rng):
    terms = [canonical_form(rand_term(rng, G.names, rng.randrange(5)))
             for _ in range(40)]
    for a in terms:
        assert leq(a, a)
    for a, b, c in itertools.islice(itertools.permutations(terms, 3), 4000):
        if leq(a, b) and leq(b, c):
            assert leq(a, c)


def test_lattice_inequalities_hold(rng):
    for _ in range(200):
        a = rand_term(rng, G.names, rng.randrange(4))
        b = rand_term(rng, G.names, rng.randrange(4))
        assert leq(meet(a, b), a)
        assert leq(a, join(a, b))
        assert leq(meet(a, b), join(a, b))
        c = rand_term(rng, G.names, rng.randrange(3))
        if leq(a, b):
            assert leq(join(a, c), join(b, c))
            assert leq(meet(a, c), meet(b, c))


def test_equal_on_rearrangements():
    assert equal(t("x+y"), t("y+x"))
    assert equal(t("x+(y+z)"), t("(x+y)+z"))
    assert equal(t("x*(x+y)"), t("x"))
    assert not equal(t("x*(y+z)"), t("x*y+x*z"))


@pytest.mark.parametrize("src,want", [
    ("x+x", "x"),
    ("x*(x+y)", "x"),
    ("(x+y)+z", "x+y+z"),
    ("x*(y+z)*x", "x*(y+z)"),
    ("y*z+x*y*z", "y*z"),
    ("((x+y*z)*(y+z)+x*z)*(x+y)", "(y+z)*(x+y*z)"),
    ("x*y+y", "y"),
    ("(x*y)*(z*x)", "x*y*z"),
])
def test_canonical_known_forms(src, want):
    assert print_term(canonical_form(t(src))) == want


def test_canonical_idempotent_and_complete(rng):
    for _ in range(400):
        a = rand_term(rng, G.names, rng.randrange(6))
        c = canonical_form(a)
        assert canonical_form(c) is c
        assert equal(a, c)
        b = rand_term(rng, G.names, rng.randrange(6))
        assert equal(a, b) is (canonical_form(b) is c)


def test_canonical_stable_under_perturbation(rng):
    for _ in range(300):
        a = rand_term(rng, G.names, rng.randrange(5))
        b = perturb(rng, a, G.names)
        assert canonical_form(b) is canonical_form(a)


@settings(max_examples=300, deadline=None)
@given(any_raw_terms, st.randoms(use_true_random=False))
def test_canonical_form_matches_node_building_oracle(named, rnd):
    names, a = named
    c = canonical_form(a)
    assert c is canonical_oracle(a)
    b = perturb(rnd, a, names)
    assert canonical_form(b) is canonical_oracle(b) is c


@pytest.mark.parametrize("names,max_size", [(G.names, 6), (G4, 4)])
def test_canonical_form_matches_oracle_on_duals_of_enumerated_terms(names, max_size):
    # duals of canonical forms need their operands re-sorted, and some
    # need more than that
    n = 0
    for t in enumerate_terms(GeneratorSet(names), max_size):
        d = dual_term(t)
        assert canonical_form(d) is canonical_oracle(d), print_term(t)
        n += 1
    assert n == {6: 247, 4: 1640}[max_size]


@settings(max_examples=200, deadline=None)
@given(st.lists(raw_terms(G4), min_size=2, max_size=4))
def test_ni_predicate_matches_node_building_oracle(ts):
    assert ni_predicate(ts) is ni_oracle(ts)


def _subterms(t, out):
    if t not in out:
        out.add(t)
        for o in t.ops:
            _subterms(o, out)
    return out


def _reshuffle(rng, c):
    """A copy of c with each node's operands shuffled, one perhaps
    repeated, and the node perhaps nested in a same-kind node that
    repeats some of them: every node of the copy has the operands of a
    node of c once it is flattened."""
    if c.kind == GEN:
        return c
    ctor = join if c.kind == JOIN else meet
    ops = [_reshuffle(rng, o) for o in c.ops]
    rng.shuffle(ops)
    if rng.random() < 0.3:
        ops.append(ops[0])
    out = ctor(*ops)
    if rng.random() < 0.4:
        out = ctor(*ops[:rng.randrange(1, len(ops))], out)
    return out


def test_canonical_form_returns_the_canonical_node_of_its_operands(rng, monkeypatch):
    # generator names no other test uses, so the other tests' terms stay new
    names = ("f1", "f2", "f3", "f4")
    forms = [canonical_form(rand_term(rng, names, rng.randrange(1, 9))) for _ in range(300)]
    copies = [_reshuffle(rng, c) for c in forms]
    assert sum(b is not c for b, c in zip(copies, forms)) > 200

    def boom(*args):
        raise AssertionError("promotion ran")

    # canonical operands that flatten to those of a canonical node need
    # neither promotion nor absorption
    monkeypatch.setattr(whitman, "promotion", boom)
    for b, c in zip(copies, forms):
        assert canonical_form(b) is c


def test_canonical_form_skips_an_interned_node_that_is_not_canonical():
    p, q = gen("p"), gen("q")
    raw = join(p, meet(p, q))   # interned, and equal to p
    assert canonical_form(raw) is p
    assert canonical_form(join(meet(q, p), p, p)) is p
    assert canonical_form(raw) is p


def test_canonical_form_and_ni_predicate_build_no_throwaway_terms(rng):
    raw = [rand_term(rng, G4, rng.randrange(1, 9)) for _ in range(400)]
    start = len(terms._INTERN)
    for a in raw:
        canonical_form(a)
    added = set(itertools.islice(terms._INTERN.values(), start, None))
    subs = set()
    for a in raw:
        _subterms(a, subs)
    forms = {canonical_form(s) for s in subs}
    assert added and added <= forms, sorted(map(print_term, added - forms))
    tuples = [raw[i:i + rng.randrange(2, 5)] for i in range(0, 390, 4)]
    start = len(terms._INTERN)
    hits = sum(ni_predicate(ts) for ts in tuples)
    assert len(terms._INTERN) == start
    assert 0 < hits < len(tuples)


def test_ni_predicate():
    assert ni_predicate([X, t("x+y")])              # x below the join
    assert ni_predicate([t("x*y"), X, Y])           # meet above a member
    assert not ni_predicate([X, Y, Z])
    assert not ni_predicate([X, Y])
    with pytest.raises(ValueError):
        ni_predicate([X])


def test_generates_free():
    assert not generates_free([X, Y, Z, t("x+y")])
    with pytest.raises(ValueError):
        generates_free([X, Y, Z])


def test_intervals():
    def inside(s, lo, hi):
        return leq(lo, s) and leq(s, hi)

    iv = (t("x+y*z"), join(X, t("(x+y)(x+z)(y+z)")))
    assert leq(*iv)
    assert inside(t("x+y*z"), *iv)
    assert not inside(X, *iv)          # x is strictly below the low end
    assert inside(t("x+y*z*(x+z)"), *iv)
    assert not leq(t("x+y"), X)        # an empty interval


# Two generator sets interned interleaved, the second in reverse, so the
# generator bits of the term keys follow neither set's order.
KEY_SETS = (("ka", "kb", "kc", "kd"), ("ra", "rb", "rc"))
for _name in ("ka", "rc", "kb", "rb", "kc", "ra", "kd"):
    gen(_name)


def whitman_leq(s, t):
    """Oracle: Whitman's recursion for s <= t, with no memo and no key
    filter."""
    if s.kind == JOIN:
        return all(whitman_leq(o, t) for o in s.ops)
    if t.kind == MEET:
        return all(whitman_leq(s, o) for o in t.ops)
    if s.kind == GEN:
        return s is t if t.kind == GEN else any(whitman_leq(s, o) for o in t.ops)
    if t.kind == GEN:
        return any(whitman_leq(o, t) for o in s.ops)
    return (any(whitman_leq(o, t) for o in s.ops)
            or any(whitman_leq(s, o) for o in t.ops))


def under_oracle(u, kind, ops):
    """Oracle for whitman._under: u below the built join of ops (kind
    JOIN), or the built meet of ops below u, by whitman_leq."""
    return (whitman_leq(u, join(*ops)) if kind == JOIN
            else whitman_leq(meet(*ops), u))


keyed_terms = st.sampled_from(KEY_SETS).flatmap(
    lambda names: st.tuples(st.just(names), st.lists(raw_terms(names),
                                                     min_size=2, max_size=4)))


@settings(max_examples=100, deadline=None)
@given(keyed_terms)
def test_term_key_is_the_generators_below_and_above(named):
    names, ts = named
    gens = [gen(n) for n in names]
    G_named = GeneratorSet(names)
    for t in ts + [canonical_form(t) for t in ts]:
        assert t.down == sum(g.down for g in gens if whitman_leq(g, t))
        assert t.up == sum(g.up for g in gens if whitman_leq(t, g))
        # the other measures _make computes in the same pass, and the text
        assert t.size == tree_size(t)
        assert t.adepth == alternations(t)
        assert parse_term(print_term(t), G_named) is t
    assert all(g.down == g.up and g.down.bit_count() == 1 for g in gens)


def tree_size(t):
    """Oracle for Term.size: join and meet nodes of the tree, counted
    with repetition."""
    return 0 if t.kind == GEN else 1 + sum(tree_size(o) for o in t.ops)


def alternations(t, parent=None):
    """Oracle for Term.adepth: the most runs of one node kind on a
    root-to-leaf path."""
    if t.kind == GEN:
        return 0
    return (t.kind != parent) + max(alternations(o, t.kind) for o in t.ops)


@settings(max_examples=100, deadline=None)
@given(keyed_terms)
def test_leq_matches_filter_free_recursion(named):
    _, ts = named
    s, t = ts[0], ts[1]
    pairs = [(s, t), (t, s), (meet(s, t), join(*ts[1:])),
             (canonical_form(meet(*ts)), canonical_form(t))]
    pairs += itertools.permutations(ts, 2)
    for a, b in pairs:
        assert leq(a, b) is whitman_leq(a, b), (print_term(a), print_term(b))


@settings(max_examples=100, deadline=None)
@given(keyed_terms, st.sampled_from((JOIN, MEET)))
def test_promotion_matches_oracle_under(named, kind):
    _, ts = named
    # promotion's operands are gens and terms of the other kind
    ops = tuple(dual_term(t) if t.kind == kind else t for t in ts)
    want = next(((o, u) for o in ops for u in o.ops
                 if under_oracle(u, kind, ops)), None)
    assert promotion(kind, ops) == want, [print_term(o) for o in ops]
