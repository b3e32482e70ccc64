import itertools

import pytest

from conftest import rand_term
from freelat.bhom import (
    Hom,
    NotBoundedError,
    Tower,
    _beta_tables,
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
from freelat.builders import (
    build_fd3,
    catalog,
    chain,
    doubled_hom,
    m3,
    pentagon,
    pentagon_hom,
)
from freelat.finlat import d_rank, join_irreducibles, minimal_join_covers
from freelat.terms import GeneratorSet, gen, join, meet, parse_term, print_term
from freelat.whitman import canonical_form, in_interval, leq

G = GeneratorSet(("x", "y", "z"))


def t(src):
    return parse_term(src, G)


def test_hom_validation():
    N5 = pentagon()
    with pytest.raises(ValueError, match="no image"):
        Hom(G, N5, {"x": 0, "y": 1})
    with pytest.raises(ValueError, match="unknown"):
        Hom(G, N5, {"x": 0, "y": 1, "z": 2, "w": 3})
    with pytest.raises(ValueError, match="range"):
        Hom(G, N5, {"x": 0, "y": 1, "z": 9})


def test_eval_is_a_homomorphism():
    h = pentagon_hom()
    N5 = h.target
    assert h.eval(t("x*(y+z)")) == N5.index_of("c")
    assert h.eval(t("z*(x+y)")) == N5.index_of("0")
    assert h.eval(t("x+y+z")) == N5.index_of("1")
    a = h.eval(t("xy+xz+yz"))
    b = h.eval(t("(x+y)(x+z)(y+z)"))
    assert N5.labels[a] == "b" and N5.labels[b] == "c"


def memo_table_eval(h, t, memo):
    """Oracle: the recursion over the target's join and meet tables that
    Hom.eval ran before it called terms.evaluate, with one memo kept
    across all the terms evaluated under a map."""
    r = memo.get(t)
    if r is None:
        if t.kind == "gen":
            r = h.images[t.name]
        else:
            table = h.target.joins if t.kind == "join" else h.target.meets
            r = memo_table_eval(h, t.ops[0], memo)
            for o in t.ops[1:]:
                r = table[r][memo_table_eval(h, o, memo)]
        memo[t] = r
    return r


def test_eval_matches_memoised_table_recursion_on_catalog_maps(rng):
    terms = [rand_term(rng, G.names, rng.randrange(9)) for _ in range(40)]
    count = 0
    for L in catalog():
        for images in itertools.product(range(L.n), repeat=3):
            h = Hom(G, L, dict(zip(G.names, images)))
            memo = {}
            for u in terms:
                assert h.eval(u) == memo_table_eval(h, u, memo)
            count += 1
    assert count == 789


def iterated_beta_tables(h):
    """Oracle: the fixed-point iteration _beta_tables ran before it became
    one pass in D-rank order.  Every join irreducible starts at the meet
    of the generators sent above it and is met, round after round, with
    the joins of the current tables over its minimal join covers."""
    S, to_target, _ = h.image_sublattice()
    rho, rank = d_rank(S)
    if rank is None:
        raise NotBoundedError(f"hom onto {h.target.name} is not lower bounded")
    jis = join_irreducibles(S)
    covers = {q: minimal_join_covers(S, q) for q in jis}
    b0 = {}
    for q in jis:
        above = [gen(n) for n in h.gens.names
                 if h.target.leq(to_target[q], h.images[n])]
        b0[q] = meet(*above) if above else h.gens.top()
    cur = {q: canonical_form(b0[q]) for q in jis}
    for _ in range(rank + 2):
        nxt = {}
        for q in jis:
            parts = [b0[q]]
            for C in covers[q]:
                parts.append(join(*[cur[c] for c in C]))
            nxt[q] = canonical_form(meet(*parts))
        if all(nxt[q] is cur[q] for q in jis):
            return cur
        cur = nxt
    raise AssertionError(f"beta iteration did not stabilize within {rank + 2} rounds")


def test_one_pass_beta_matches_iteration_on_every_catalog_map():
    homs = [doubled_hom(), pentagon_hom()]
    for L in catalog():
        for images in itertools.product(range(L.n), repeat=3):
            homs.append(Hom(G, L, dict(zip(G.names, images))))
    bounded = unbounded = 0
    for h in homs:
        for side in (h, h.dual()):
            try:
                want = iterated_beta_tables(side)
            except NotBoundedError:
                with pytest.raises(NotBoundedError, match="lower bounded"):
                    _beta_tables(side)
                unbounded += 1
                continue
            got = _beta_tables(side)
            assert got.keys() == want.keys()
            assert all(got[q] is want[q] for q in want)
            bounded += 1
    assert (bounded, unbounded) == (1570, 12)


def test_image_sublattice():
    N5 = pentagon()
    h = Hom(G, N5, {n: N5.index_of("b") for n in G.names})
    S, to_target, to_sub = h.image_sublattice()
    assert S.n == 1
    assert to_target == [N5.index_of("b")]
    h = pentagon_hom()
    S, to_target, to_sub = h.image_sublattice()
    assert S.n == 5


def test_boundedness():
    h = pentagon_hom()
    assert is_lower_bounded(h) and is_upper_bounded(h)
    M = m3()
    bad = Hom(G, M, {"x": M.index_of("a"), "y": M.index_of("b"),
                     "z": M.index_of("c")})
    assert not is_lower_bounded(bad)
    assert not is_upper_bounded(bad)
    with pytest.raises(NotBoundedError, match="lower"):
        beta(bad, M.index_of("a"))
    with pytest.raises(NotBoundedError, match="upper"):
        alpha(bad, M.index_of("a"))


def test_beta_alpha_pentagon():
    h = pentagon_hom()
    N5 = h.target
    want = {
        "0": ("x*y*z", "z*(x+y)"),
        "a": ("z", "z"),
        "b": ("x*y", "y+z*(x+y)"),
        "c": ("x*(z+x*y)", "x+y"),
        "1": ("z+x*y", "x+y+z"),
    }
    for lbl, (lo, hi) in want.items():
        a = N5.index_of(lbl)
        assert print_term(beta(h, a)) == lo
        assert print_term(alpha(h, a)) == hi


def test_beta_alpha_are_adjoints():
    h = pentagon_hom()
    N5 = h.target
    for a in range(N5.n):
        lo, hi = beta(h, a), alpha(h, a)
        assert h.eval(lo) == a and h.eval(hi) == a
        # least preimage above a, greatest below, among a term sample
        for s in ("x", "z", "x*y", "x+y", "x*(y+z)", "z*(x+y)", "x*y*z",
                  "x+y+z", "xy+xz+yz"):
            u = t(s)
            if N5.leq(a, h.eval(u)):
                assert leq(lo, u)
            if N5.leq(h.eval(u), a):
                assert leq(u, hi)


def test_beta_rejects_non_image_elements():
    N5 = pentagon()
    h = Hom(G, N5, {n: N5.index_of("b") for n in G.names})
    with pytest.raises(ValueError, match="image sublattice"):
        beta(h, N5.index_of("a"))


def test_class_of():
    h = pentagon_hom()
    iv = class_of(h, t("x*y"))
    assert print_term(iv.lo) == "x*y"
    assert print_term(iv.hi) == "y+z*(x+y)"
    assert in_interval(t("y"), iv)


def test_kernel_table_pentagon():
    h = pentagon_hom()
    kt = kernel_table(h)
    assert len(kt.entries) == 5
    for e in kt.entries:
        assert h.eval(e.lo) == e.element == h.eval(e.hi)
        assert leq(e.lo, e.hi)
    # classes are pairwise disjoint as intervals
    for e in kt.entries:
        for f in kt.entries:
            if e is not f:
                assert not (leq(e.lo, f.hi) and leq(f.lo, e.hi))


def test_kernel_table_doubled_has_24_classes():
    kt = kernel_table(doubled_hom())
    assert len(kt.entries) == 24
    e = kt.class_of_term(t("xy+xz+yz"))
    assert print_term(e.lo) == "x*y+x*z+y*z"
    assert print_term(e.hi) == "(x+y)*(x+z)*(y+z)"
    assert e is kt.class_of_term(t("(x+y)(x+z)(y+z)"))


def test_tower_validation():
    M = m3()
    bad = Hom(G, M, {"x": M.index_of("a"), "y": M.index_of("b"),
                     "z": M.index_of("c")})
    with pytest.raises(NotBoundedError, match="stage 0"):
        Tower([bad])
    with pytest.raises(ValueError, match="at least one"):
        Tower([])
    G2 = GeneratorSet(("u", "v"))
    C2 = chain(2)
    h2 = Hom(G2, C2, {"u": 0, "v": 1})
    with pytest.raises(ValueError, match="different generators"):
        Tower([pentagon_hom(), h2])


def fd3_hom():
    F = build_fd3()
    return Hom(G, F, {n: F.index_of(n) for n in G.names})


def test_coherent_sequence_chain():
    tw = Tower([fd3_hom(), doubled_hom()])
    for s in ("x", "x*y+x*z", "xy+xz+yz", "x+y", "z*(x+y)"):
        c = coherent_sequence(tw, t(s))
        assert c.chain_ok
        assert all(c.brackets)
    c = coherent_sequence(tw, t("x*y+x*z"))
    assert print_term(c.highs[0]) == "x*(y+z)"
    assert print_term(c.highs[1]) == "x*y+x*z"


def test_compare_coherent():
    tw = Tower([fd3_hom(), doubled_hom()])
    cm = coherent_sequence(tw, t("xy+xz+yz"))
    cM = coherent_sequence(tw, t("(x+y)(x+z)(y+z)"))
    assert compare_coherent(cm, cM) == "equal"
    cx = coherent_sequence(tw, t("x"))
    ctop = coherent_sequence(tw, t("x+y+z"))
    assert compare_coherent(cx, ctop) == "leq"
    assert compare_coherent(ctop, cx) == "geq"
    cy = coherent_sequence(tw, t("y"))
    assert compare_coherent(cx, cy) == "incomparable"
    other = Tower([fd3_hom()])
    with pytest.raises(ValueError, match="different towers"):
        compare_coherent(cx, coherent_sequence(other, t("x")))


def test_classify_element():
    tw = Tower([fd3_hom(), doubled_hom()])
    c = classify_element(tw, t("x"))
    assert c.stable and "stable" in c.note
    c = classify_element(tw, t("x*y+x*z"))
    assert not c.stable and "refining" in c.note
    with pytest.raises(ValueError, match="two stages"):
        classify_element(Tower([fd3_hom()]), t("x"))
