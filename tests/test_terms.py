
import itertools

import pytest

from conftest import rand_term
from freelat import terms, whitman
from freelat.builders import pentagon
from freelat.terms import (
    JOIN,
    MEET,
    GeneratorSet,
    ParseError,
    dual_term,
    enumerate_terms,
    evaluate,
    gen,
    join,
    meet,
    parse_term,
    print_term,
    substitute,
    _levels,
    _size_combos,
    node_key,
    term_key,
)
from freelat.whitman import canonical_form, leq, promotion

G = GeneratorSet(("x", "y", "z"))
X, Y, Z = G.terms()


def test_interning_gives_identity():
    assert gen("x") is gen("x")
    assert join(X, Y) is join(X, Y)
    assert meet(X, join(Y, Z)) is meet(X, join(Y, Z))
    assert join(X, Y) is not join(Y, X)


def test_factories_validate():
    with pytest.raises(TypeError):
        join(X, "y")
    with pytest.raises(TypeError):
        meet(X, 3)
    with pytest.raises(ValueError):
        gen("1x")
    assert join(X) is X
    assert meet(X) is X


@pytest.mark.parametrize("src,printed", [
    ("x", "x"),
    ("x+y*z", "x+y*z"),
    ("xy", "x*y"),
    ("x(y+z)", "x*(y+z)"),
    ("(x+y)(x+z)", "(x+y)*(x+z)"),
    ("xyz", "x*y*z"),
    ("x + (y + z)", "x+(y+z)"),
    ("x*(y*z)", "x*(y*z)"),
    ("z y x", "z*y*x"),
])
def test_parse_print(src, printed):
    assert print_term(parse_term(src, G)) == printed


def test_parse_print_round_trip(rng):
    for _ in range(300):
        t = rand_term(rng, G.names, rng.randrange(6))
        assert parse_term(print_term(t), G) is t


def test_declared_multi_letter_generators():
    G2 = GeneratorSet(("ab", "c"))
    t = parse_term("ab*c", G2)
    assert t.ops[0].name == "ab"
    with pytest.raises(ParseError):
        parse_term("abc", G2)


def test_juxtaposition_splits_undeclared_identifiers():
    assert print_term(parse_term("zx", G)) == "z*x"
    assert print_term(parse_term("xy+yz", G)) == "x*y+y*z"


@pytest.mark.parametrize("src", ["", "x+", "(x+y", "x)", "w", "x ++ y", "x*)"])
def test_parse_errors(src):
    with pytest.raises(ParseError) as ei:
        parse_term(src, G)
    assert ei.value.pos >= 0


def test_generator_set_validation():
    with pytest.raises(ValueError):
        GeneratorSet(("x", "x"))
    with pytest.raises(ValueError):
        GeneratorSet(("x", "1bad"))
    assert GeneratorSet.from_spec(" x , y ").names == ("x", "y")
    assert "x" in G and "w" not in G


def test_measures(rng):
    def measures(src):
        t = parse_term(src, G)
        return t.size, t.adepth

    assert (X.size, X.adepth) == (0, 0)
    assert measures("x+y") == (1, 1)
    assert measures("(x+y)(x+z)") == (3, 2)
    # alternation counts only kind switches, not raw depth
    assert measures("x+(y+z)") == (2, 1)
    assert measures("x(y+z(x+y))") == (4, 4)

    def runs(u):
        # the most kind changes on a root-to-leaf path, counted path by path
        if u.kind == "gen":
            return [[]]
        return [[u.kind] + p for o in u.ops for p in runs(o)]

    def alternations(u):
        return max(sum(1 for i, k in enumerate(p) if i == 0 or k != p[i - 1])
                   for p in runs(u))

    # raw, uncanonicalised terms with same-kind operands nested inside
    for src in ("x+(y+z*(x+y))", "x*(y*(z+x*(y*z)))", "(x+(y+z))*((x+y)+z)",
                "x+(y+(z+(x*y+(y+z))))", "x*(y+(z+x*(y*(z+x))))"):
        u = parse_term(src, G)
        assert u.adepth == alternations(u), src
    for _ in range(500):
        u = rand_term(rng, G.names, rng.randrange(1, 10))
        assert u.adepth == alternations(u), print_term(u)


def test_term_key_orders_by_size_then_alternation():
    ts = [parse_term(s, G) for s in ("y", "x+y", "x", "x*y", "x+(y+z)")]
    assert [print_term(t) for t in sorted(ts, key=term_key)] == \
        ["x", "y", "x*y", "x+y", "x+(y+z)"]


def test_substitute():
    t = parse_term("x(y+z)", G)
    s = substitute(t, {"x": Y, "y": Y, "z": meet(X, Z)})
    assert print_term(s) == "y*(y+x*z)"
    with pytest.raises(ValueError, match="'y'"):
        substitute(t, {"x": Y})


def test_evaluate_on_pentagon():
    N5 = pentagon()
    amap = {"x": N5.index_of("c"), "y": N5.index_of("b"), "z": N5.index_of("a")}
    val = evaluate(parse_term("x*(y+z)", G), N5, amap)
    assert N5.labels[val] == "c"
    val = evaluate(parse_term("z*(x+y)", G), N5, amap)
    assert N5.labels[val] == "0"
    with pytest.raises(ValueError):
        evaluate(gen("w"), N5, amap)


def test_evaluate_names_the_first_missing_generator():
    N5 = pentagon()
    gens = GeneratorSet(("x", "y", "v", "w"))
    amap = {"x": N5.index_of("c"), "y": N5.index_of("b")}
    for src, name in [("w", "w"), ("x*(w+v)+v", "w"), ("(x+y)*(x*y+v)+w", "v")]:
        with pytest.raises(ValueError, match=f"^no image for generator '{name}'$"):
            evaluate(parse_term(src, gens), N5, amap)


def test_evaluate_values_a_shared_subterm_once():
    # t = (t+x)*(t+y) sixty times over: about 2^60 tree nodes, 181 distinct
    N5 = pentagon()
    amap = {"x": N5.index_of("a"), "y": N5.index_of("c"), "z": N5.index_of("b")}
    J, M = N5.joins, N5.meets
    t, v = Z, amap["z"]
    for _ in range(60):
        t = meet(join(t, X), join(t, Y))
        v = M[J[v][amap["x"]]][J[v][amap["y"]]]
    assert t.size > 2 ** 60
    assert evaluate(t, N5, amap) == v


def test_dual_term():
    t = parse_term("x+y*z", G)
    assert print_term(dual_term(t)) == "x*(y+z)"
    for s in ("x", "xy+xz+yz", "x(y+z(x+y))"):
        t = parse_term(s, G)
        assert dual_term(dual_term(t)) is t


def recursive_print(t):
    """Oracle: print_term as a plain recursion, keeping nothing."""
    if t.kind == JOIN:
        return "+".join(f"({recursive_print(o)})" if o.kind == JOIN
                        else recursive_print(o) for o in t.ops)
    if t.kind == MEET:
        return "*".join(recursive_print(o) if o.kind == "gen"
                        else f"({recursive_print(o)})" for o in t.ops)
    return t.name


def test_print_matches_recursive_printer(rng):
    for _ in range(300):
        t = rand_term(rng, G.names, rng.randrange(12))
        if rng.random() < 0.3:
            t = join(t, meet(X, Y, t), rand_term(rng, G.names, 3))
        assert print_term(t) == recursive_print(t)


def deep_term(levels):
    """(..((x+y)*z+y)*z..) with `levels` join and meet nodes."""
    t = X
    for k in range(levels):
        t = join(t, Y) if k % 2 == 0 else meet(t, Z)
    return t


def test_print_term_handles_10000_levels():
    m = 5000
    assert print_term(deep_term(2 * m)) == "(" * m + "x" + "+y)*z" * m


def test_dual_term_handles_10000_levels():
    m = 5000
    t = deep_term(2 * m)
    d = dual_term(t)
    assert (d.kind, d.size) == (JOIN, 2 * m)
    assert print_term(d) == "(" * (m - 1) + "x*y" + "+z)*y" * (m - 1) + "+z"
    assert dual_term(d) is t


def test_substitute_handles_10000_levels():
    m = 5000
    t = deep_term(2 * m)
    s = substitute(t, {"x": Y, "y": X, "z": Z})
    assert (s.kind, s.size) == (MEET, 2 * m)
    assert print_term(s) == "(" * m + "y" + "+x)*z" * m
    assert substitute(s, {"x": Y, "y": X, "z": Z}) is t
    with pytest.raises(ValueError, match="'z'"):
        substitute(t, {"x": X, "y": Y})


def test_evaluate_and_canonical_form_handle_hundreds_of_levels():
    N5 = pentagon()
    amap = {"x": N5.index_of("a"), "y": N5.index_of("c"), "z": N5.index_of("b")}
    t, v = deep_term(490), amap["x"]
    for k in range(490):
        v = N5.joins[v][amap["y"]] if k % 2 == 0 else N5.meets[v][amap["z"]]
    assert evaluate(t, N5, amap) == v
    t = deep_term(450)
    c = canonical_form(t)
    assert canonical_form(c) is c and c.size <= t.size
    assert evaluate(c, N5, amap) == evaluate(t, N5, amap)


def test_enumerate_counts_and_canonicity():
    counts = {}
    for t in enumerate_terms(G, 4):
        counts[t.size] = counts.get(t.size, 0) + 1
        assert canonical_form(t) is t
    assert counts == {0: 3, 1: 8, 2: 6, 3: 18, 4: 20}


def test_enumerate_sorted_and_complete():
    out = list(enumerate_terms(G, 2))
    keys = [term_key(t) for t in out]
    assert keys == sorted(keys)
    # independent brute force: canonicalize every raw binary tree
    def raw(budget):
        if budget == 0:
            return list(G.terms())
        out = []
        for lb in range(budget):
            for a in raw(lb):
                for b in raw(budget - 1 - lb):
                    out.extend((join(a, b), meet(a, b)))
        return out
    brute = {canonical_form(t) for b in range(3) for t in raw(b)}
    small = {t for t in brute if t.size <= 2}
    assert set(out) == small


def test_enumerate_two_generators():
    G2 = GeneratorSet(("x", "y"))
    out = [print_term(t) for t in enumerate_terms(G2, 1)]
    assert out == ["x", "y", "x*y", "x+y"]


def _filtered_enumeration(gens, max_size):
    """Build-and-canonicalise oracle for enumerate_terms: every
    _size_combos candidate is built, comparable picks included, and kept
    iff canonical_form(t) is t.  Returns the kept terms in order and
    (kind, ops, kept) for every candidate."""
    base = sorted(gens.terms(), key=term_key)
    kept, candidates = list(base), []
    pools = {JOIN: list(base), MEET: list(base)}   # operands of each kind
    for s in range(1, max_size + 1):
        fresh = []
        for kind in (JOIN, MEET):
            for ops in _size_combos(pools[kind], s - 1, [0] * len(pools[kind])):
                t = join(*ops) if kind == JOIN else meet(*ops)
                ok = canonical_form(t) is t
                candidates.append((kind, ops, ok))
                if ok:
                    fresh.append(t)
        fresh.sort(key=term_key)
        kept += fresh
        for t in fresh:
            pools[MEET if t.kind == JOIN else JOIN].append(t)
        for pool in pools.values():
            pool.sort(key=term_key)
    return kept, candidates


@pytest.mark.parametrize("names,max_size,count", [
    ("x,y,z", 6, 247), ("x1,x2,x3,x4", 4, 1640), ("x,y", 8, 4)])
def test_enumeration_matches_canonical_form_filter(names, max_size, count):
    gens = GeneratorSet.from_spec(names)
    out = list(enumerate_terms(gens, max_size))
    assert len(out) == count
    assert out == _filtered_enumeration(gens, max_size)[0]


def test_operand_test_agrees_with_canonical_form_on_every_candidate():
    _, candidates = _filtered_enumeration(G, 5)
    why = {"kept": 0, "comparable": 0, "promotable": 0}
    for kind, ops, ok in candidates:
        antichain = not any(leq(a, b) or leq(b, a)
                            for a, b in itertools.combinations(ops, 2))
        promo = promotion(kind, ops) is not None
        assert (antichain and not promo) == ok, (kind, [print_term(o) for o in ops])
        why["kept" if ok else "comparable" if not antichain else "promotable"] += 1
    # both halves of the test reject something on their own
    assert all(why.values()), why


def test_promotable_matches_leq_against_the_built_node(rng):
    # operands up to size 6, so the recursion reaches (W) inside a
    # joinand's meetand, which no candidate up to F3 size 5 needs
    pool = list(enumerate_terms(G, 6))
    hits = 0
    for _ in range(3000):
        kind = rng.choice((JOIN, MEET))
        ops = rng.sample([t for t in pool if t.kind != kind], rng.choice((2, 3)))
        whole = join(*ops) if kind == JOIN else meet(*ops)
        below = [(o, u) for o in ops for u in o.ops
                 if (leq(u, whole) if kind == JOIN else leq(whole, u))]
        # the first witness in operand order, or None
        want = below[0] if below else None
        assert promotion(kind, tuple(ops)) == want, [print_term(o) for o in ops]
        hits += bool(below)
    assert 0 < hits < 3000


def test_enumeration_interns_only_kept_terms():
    # generator names no other test uses, so every kept term is new
    gens = GeneratorSet(("m1", "m2", "m3", "m4"))
    interned, canon = len(terms._INTERN), len(whitman._CANON)
    out = list(enumerate_terms(gens, 4))
    assert len(out) == 1640
    assert len(terms._INTERN) - interned <= len(out)
    assert len(whitman._CANON) == canon


def test_levels_leave_the_last_size_unbuilt():
    # generator names no other test uses, so every built term is new
    gens = GeneratorSet(("v1", "v2", "v3", "v4"))
    interned = len(terms._INTERN)
    *built, last = _levels(gens, 4)
    assert [len(level) for level in built] == [4, 22, 44, 282]
    assert len(terms._INTERN) - interned == 352
    last = list(last)
    assert len(last) == 1640 - 352
    # running the last level's candidates builds none of them
    assert len(terms._INTERN) - interned == 352
    # enumerate_terms builds the same candidates and sorts them
    out = list(enumerate_terms(gens, 4))
    assert out[:len(out) - len(last)] == [t for level in built for t in level]
    tail = out[len(out) - len(last):]
    nodes = [join(*ops) if kind == JOIN else meet(*ops) for kind, ops in last]
    assert sorted(nodes, key=term_key) == tail
    for (kind, ops), t in zip(last, nodes):
        assert node_key(kind, ops) == (t.down, t.up)
    assert [len(level) for level in _levels(gens, 0)] == [4]
