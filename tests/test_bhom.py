import gc
import itertools
import weakref

import pytest

from conftest import rand_term
from freelat.bhom import (
    Hom,
    NotBoundedError,
    Tower,
    _beta_tables,
    alpha,
    beta,
    compare_stages,
    is_lower_bounded,
    is_upper_bounded,
    kernel_table,
    stage_classes,
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
from freelat.finlat import (
    FiniteLattice,
    d_rank,
    join_irreducibles,
    minimal_join_covers,
)
from freelat.terms import GeneratorSet, gen, join, meet, parse_term, print_term
from freelat.whitman import canonical_form, leq

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


def generation_oracle(h):
    """Oracle: the generation loop each Hom ran on its own target before
    image sublattices were shared per target and image set."""
    T = h.target
    elems = set(h.images.values())
    frontier = list(elems)
    while frontier:
        fresh = []
        for a in list(elems):
            for b in frontier:
                for c in (T.joins[a][b], T.meets[a][b]):
                    if c not in elems:
                        elems.add(c)
                        fresh.append(c)
        frontier = fresh
    to_target = sorted(elems)
    up = []
    for a in to_target:
        row = 0
        for j, b in enumerate(to_target):
            if T.leq(a, b):
                row |= 1 << j
        up.append(row)
    S = FiniteLattice(up, [T.labels[a] for a in to_target], T.name + ".im")
    return S, to_target, {a: i for i, a in enumerate(to_target)}


def catalog_homs():
    """doubled_hom, pentagon_hom and the 789 maps of x, y, z into the
    catalog, the maps on one lattice sharing its object."""
    homs = [doubled_hom(), pentagon_hom()]
    for L in catalog():
        for images in itertools.product(range(L.n), repeat=3):
            homs.append(Hom(G, L, dict(zip(G.names, images))))
    return homs


def cold(h):
    """The same map on a freshly built copy of its target, sharing nothing."""
    T = h.target
    return Hom(h.gens, FiniteLattice(T.up, T.labels, T.name), h.images)


def answer(ask, h, a):
    try:
        return ask(h, a)
    except NotBoundedError:
        return None


def test_shared_sublattices_and_answers_match_cold_maps():
    unbounded = {"beta": 0, "alpha": 0}
    for h in catalog_homs():
        for side in (h, h.dual()):
            S, to_target, to_sub = side.image_sublattice()
            W, want_to_target, want_to_sub = generation_oracle(side)
            assert (S.up, S.labels) == (W.up, W.labels)
            assert (to_target, to_sub) == (want_to_target, want_to_sub)
            # one fresh copy per question, so alpha's dual is generated cold
            for ask in (beta, alpha):
                ref = cold(side)
                got = [answer(ask, side, a) for a in to_target]
                assert all(g is answer(ask, ref, a) for g, a in zip(got, to_target))
                assert all(g is answer(ask, side, a) for g, a in zip(got, to_target))
                if side is h and None in got:
                    assert set(got) == {None}
                    unbounded[ask.__name__] += 1
    assert unbounded == {"beta": 6, "alpha": 6}


def test_maps_share_one_sublattice_per_target_and_image_set():
    N5 = pentagon()
    a, b, c = (N5.index_of(lbl) for lbl in "abc")
    h = Hom(G, N5, {"x": c, "y": b, "z": a})
    S = h.image_sublattice()[0]
    assert Hom(G, N5, {"x": a, "y": c, "z": b}).image_sublattice()[0] is S
    assert Hom(G, N5, {"x": a, "y": a, "z": b}).image_sublattice()[0] is not S
    assert h.dual().image_sublattice()[0] is S.dual() and h.dual().dual() is h
    assert Hom(G, N5, {"x": b, "y": a, "z": c}).dual().image_sublattice()[0] is S.dual()
    # a map built on the dual target itself generates its own sublattice
    assert Hom(G, N5.dual(), h.images).image_sublattice()[0] is not S.dual()
    # the dual side first: the target side reads its dual back
    M = m3()
    k = Hom(G, M, {"x": M.bottom, "y": M.index_of("a"), "z": M.index_of("b")})
    Sd = k.dual().image_sublattice()[0]
    assert k.image_sublattice()[0] is Sd.dual()
    # a separately built copy of the same lattice shares nothing
    other = Hom(G, pentagon(), h.images)
    assert other.image_sublattice()[0] is not S
    assert other.dual().image_sublattice()[0] is not S.dual()


def test_image_sets_with_one_closure_share_one_sublattice():
    N5 = pentagon()
    a, b = N5.index_of("a"), N5.index_of("b")
    S = Hom(G, N5, {"x": a, "y": b, "z": a}).image_sublattice()[0]
    # {a, b} and {a, b, 1} both generate {0, a, b, 1}
    assert S.labels == ["0", "a", "b", "1"]
    assert Hom(G, N5, {"x": a, "y": b, "z": N5.top}).image_sublattice()[0] is S
    # so do {a, b, 0}, and the dual of that map reads the dual
    k = Hom(G, N5, {"x": a, "y": b, "z": N5.bottom})
    assert k.image_sublattice()[0] is S
    assert k.dual().image_sublattice()[0] is S.dual()


class WeakTarget(FiniteLattice):
    """A FiniteLattice that accepts weak references; its dual is one too."""


def test_sublattices_and_answers_do_not_outlive_their_target():
    N5 = pentagon()
    L = WeakTarget(N5.up, N5.labels, N5.name)
    ref, ref_dual = weakref.ref(L), weakref.ref(L.dual())
    homs = [Hom(G, L, dict(zip(G.names, images)))
            for images in itertools.product(range(L.n), repeat=3)]
    asked = 0
    for h in homs:
        for a in h.image_sublattice()[1]:
            asked += answer(beta, h, a) is not None
            asked += answer(alpha, h, a) is not None
    assert asked > 0 and L._subs
    del L, N5, homs, h
    gc.collect()
    assert ref() is None and ref_dual() is None


def test_a_map_and_its_dual_are_freed_without_the_cycle_collector():
    N5 = pentagon()
    images = {"x": N5.index_of("c"), "y": N5.index_of("b"), "z": N5.index_of("a")}
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        h = Hom(G, N5, images)
        a = h.eval(parse_term("x*(y+z)", G))
        assert h.eval(alpha(h, a)) == a   # alpha reads the dual's beta
        d = h.dual()
        assert d.dual() is h
        refs = weakref.ref(h), weakref.ref(d)
        del h, d
        assert [r() for r in refs] == [None, None]
        # a dual whose map has gone makes a new map on the original target
        d = Hom(G, N5, images).dual()
        assert d.dual().target is N5 and d.dual() is d.dual()
        assert d.dual().dual() is d
    finally:
        if was_enabled:
            gc.enable()


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
    # the class of a term is the kernel-table entry of its image
    h = pentagon_hom()
    lo, hi = kernel_table(h)[h.eval(t("x*y"))]
    assert print_term(lo) == "x*y"
    assert print_term(hi) == "y+z*(x+y)"
    assert leq(lo, t("y")) and leq(t("y"), hi)


def test_kernel_table_pentagon():
    h = pentagon_hom()
    kt = kernel_table(h)
    assert list(kt) == h.image_sublattice()[1]
    assert len(kt) == 5
    for a, (lo, hi) in kt.items():
        assert h.eval(lo) == a == h.eval(hi)
        assert (lo, hi) == (beta(h, a), alpha(h, a))
        assert leq(lo, hi)
    # classes are pairwise disjoint as intervals
    for a, (lo, hi) in kt.items():
        for b, (lo2, hi2) in kt.items():
            if a != b:
                assert not (leq(lo, hi2) and leq(lo2, hi))


def test_kernel_table_doubled_has_24_classes():
    h = doubled_hom()
    kt = kernel_table(h)
    assert len(kt) == 24
    lo, hi = kt[h.eval(t("xy+xz+yz"))]
    assert print_term(lo) == "x*y+x*z+y*z"
    assert print_term(hi) == "(x+y)*(x+z)*(y+z)"
    assert h.eval(t("(x+y)(x+z)(y+z)")) == h.eval(t("xy+xz+yz"))


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


def test_stage_classes_chain():
    # through a tower the classes of a term form a chain: lows rise,
    # highs fall, and every stage brackets the term
    tw = Tower([fd3_hom(), doubled_hom()])
    for s in ("x", "x*y+x*z", "xy+xz+yz", "x+y", "z*(x+y)", "x*(y+z)"):
        u = t(s)
        classes = stage_classes(tw, u)
        assert len(classes) == 2
        (lo0, hi0), (lo1, hi1) = classes
        assert leq(lo0, lo1) and leq(hi1, hi0), s
        assert all(leq(lo, u) and leq(u, hi) for lo, hi in classes), s
    (_, hi0), (_, hi1) = stage_classes(tw, t("x*y+x*z"))
    assert print_term(hi0) == "x*(y+z)"
    assert print_term(hi1) == "x*y+x*z"


def test_compare_stages():
    tw = Tower([fd3_hom(), doubled_hom()])
    assert compare_stages(tw, t("xy+xz+yz"), t("(x+y)(x+z)(y+z)")) == "equal"
    assert compare_stages(tw, t("x"), t("x+y+z")) == "leq"
    assert compare_stages(tw, t("x+y+z"), t("x")) == "geq"
    assert compare_stages(tw, t("x"), t("y")) == "incomparable"
    # fd3 alone cannot tell x(y+z) from xy+xz; the doubled stage can
    s, u = t("x*(y+z)"), t("x*y+x*z")
    assert compare_stages(Tower([fd3_hom()]), s, u) == "equal"
    assert compare_stages(tw, s, u) == "geq"


def test_classify_element():
    # an element is stable within a tower when its last two stages agree
    # on both endpoints
    tw = Tower([fd3_hom(), doubled_hom()])
    classes = stage_classes(tw, t("x"))
    assert classes[-1] == classes[-2] == (t("x"), t("x"))
    classes = stage_classes(tw, t("x*y+x*z"))
    assert classes[-1] != classes[-2]
