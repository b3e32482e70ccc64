import gc
import itertools
import re
import weakref

import pytest

from conftest import rand_term
from freelat.bhom import (
    Hom,
    NotBoundedError,
    Tower,
    _KERNELS,
    _bound_tables,
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
from freelat.terms import (
    GeneratorSet,
    dual_term,
    gen,
    join,
    meet,
    parse_term,
    print_term,
)
from freelat.whitman import canonical_form, leq

G = GeneratorSet(("x", "y", "z"))
# names no map outside the tests below has, so kernels over them start
# cold and die with those tests' maps (test_acceptance keeps its catalog
# maps over x, y, z, and so their kernels, for the whole session)
P = GeneratorSet(("p", "q", "r"))


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
    for bad in (1.0, "1", None, True):
        with pytest.raises(ValueError, match="image of 'z' is not an integer"):
            Hom(G, N5, {"x": 0, "y": 1, "z": bad})


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
    """Oracle: the fixed-point iteration the beta tables ran before they
    became one pass in D-rank order.  Every join irreducible starts at the meet
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
    # the upper side is checked against beta iterated on the same images
    # in the dual target, dualized back
    bounded = unbounded = 0
    for h in catalog_homs():
        on_dual = Hom(h.gens, h.target.dual(), h.images)
        for upper, oracle_map in ((False, h), (True, on_dual)):
            try:
                want = iterated_beta_tables(oracle_map)
            except NotBoundedError:
                side = "upper" if upper else "lower"
                with pytest.raises(NotBoundedError, match=f"{side} bounded"):
                    _bound_tables(h, upper)
                unbounded += 1
                continue
            if upper:
                want = {q: canonical_form(dual_term(b)) for q, b in want.items()}
            got = _bound_tables(h, upper)
            assert got.keys() == want.keys()
            assert all(got[q] is want[q] for q in want)
            bounded += 1
    assert (bounded, unbounded) == (1570, 12)


def test_alpha_is_beta_on_the_dual_target_dualized():
    """Oracle: alpha as it was computed before it ran on the map itself,
    beta of the same images in the dual target, dualized back."""
    unbounded = {"beta": 0, "alpha": 0}
    for h in catalog_homs():
        on_dual = Hom(h.gens, h.target.dual(), h.images)
        elems = h.image_sublattice()[1]
        want = [answer(beta, on_dual, a) for a in elems]
        got = [answer(alpha, h, a) for a in elems]
        if None in want:
            assert set(want) == set(got) == {None}
            unbounded["alpha"] += 1
        else:
            assert all(g is canonical_form(dual_term(w)) for g, w in zip(got, want))
        unbounded["beta"] += answer(beta, h, elems[0]) is None
    assert unbounded == {"beta": 6, "alpha": 6}


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
        S, to_target, to_sub = h.image_sublattice()
        # alpha reads S.dual(): the sublattice the images generate in the
        # dual target, on the same indices
        for L, T in ((S, h.target), (S.dual(), h.target.dual())):
            W, want_to_target, want_to_sub = generation_oracle(Hom(h.gens, T, h.images))
            assert (L.up, L.labels) == (W.up, W.labels)
            assert (to_target, to_sub) == (want_to_target, want_to_sub)
        # one fresh copy per question, so each side's sublattice is generated cold
        for ask in (beta, alpha):
            ref = cold(h)
            got = [answer(ask, h, a) for a in to_target]
            assert all(g is answer(ask, ref, a) for g, a in zip(got, to_target))
            assert all(g is answer(ask, h, a) for g, a in zip(got, to_target))
            if None in got:
                assert set(got) == {None}
                unbounded[ask.__name__] += 1
    assert unbounded == {"beta": 6, "alpha": 6}


def test_maps_share_one_sublattice_per_target_and_image_set():
    N5 = pentagon()
    a, b, c = (N5.index_of(lbl) for lbl in "abc")
    h = Hom(P, N5, {"p": c, "q": b, "r": a})
    S = h.image_sublattice()[0]
    k = Hom(P, N5, {"p": a, "q": c, "r": b})
    assert k.image_sublattice()[0] is S
    assert Hom(P, N5, {"p": a, "q": a, "r": b}).image_sublattice()[0] is not S
    # alpha of both maps reads the one cached S.dual(), and nothing is
    # built on the dual target
    for m in (h, k):
        elems = m.image_sublattice()[1]
        assert [m.eval(alpha(m, e)) for e in elems] == elems
    assert S.dual()._rank is not None and S.dual().dual() is S
    assert N5._dual is None
    # a map built on the dual target itself generates its own sublattice
    assert Hom(P, N5.dual(), h.images).image_sublattice()[0] is not S.dual()
    # alpha first: beta then reads the sublattice whose dual alpha read
    M = m3()
    k = Hom(P, M, {"p": M.bottom, "q": M.index_of("a"), "r": M.index_of("b")})
    alpha(k, M.bottom)
    Sd = k.image_sublattice()[0].dual()
    beta(k, M.bottom)
    low, high = k._kernel.tables
    assert set(high) == set(join_irreducibles(Sd))
    assert set(low) == set(join_irreducibles(Sd.dual()))
    assert k.image_sublattice()[0] is Sd.dual()
    # a separately built copy of the same lattice shares no sublattice
    other = Hom(P, pentagon(), h.images)
    assert other.image_sublattice()[0] is not S
    assert other.image_sublattice()[0].dual() is not S.dual()


def test_image_sets_with_one_closure_share_one_sublattice():
    N5 = pentagon()
    a, b = N5.index_of("a"), N5.index_of("b")
    S = Hom(G, N5, {"x": a, "y": b, "z": a}).image_sublattice()[0]
    # {a, b} and {a, b, 1} both generate {0, a, b, 1}
    assert S.labels == ["0", "a", "b", "1"]
    assert Hom(G, N5, {"x": a, "y": b, "z": N5.top}).image_sublattice()[0] is S
    # so do {a, b, 0}, and alpha of that map reads the one dual
    k = Hom(G, N5, {"x": a, "y": b, "z": N5.bottom})
    assert k.image_sublattice()[0] is S
    assert print_term(alpha(k, a)) == "x+z" and k.eval(parse_term("x+z", G)) == a
    assert k.image_sublattice()[0].dual() is S.dual()


def test_sublattices_and_answers_do_not_outlive_their_target():
    L = pentagon()
    ref, ref_dual = weakref.ref(L), weakref.ref(L.dual())
    homs = [Hom(G, L, dict(zip(G.names, images)))
            for images in itertools.product(range(L.n), repeat=3)]
    asked = 0
    for h in homs:
        for a in h.image_sublattice()[1]:
            asked += answer(beta, h, a) is not None
            asked += answer(alpha, h, a) is not None
    assert asked > 0 and L._subs
    del L, homs, h
    gc.collect()
    assert ref() is None and ref_dual() is None


def test_a_map_is_freed_without_the_cycle_collector():
    N5 = pentagon()
    images = {"p": N5.index_of("c"), "q": N5.index_of("b"), "r": N5.index_of("a")}
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        h = Hom(P, N5, images)
        S, elems, to_sub = h.image_sublattice()
        for a in elems:
            assert h.eval(beta(h, a)) == a == h.eval(alpha(h, a))
        # the per-map state: the shared sublattice and the kernel, which
        # holds the two tables and one dict of answers, beta(a) at the
        # sublattice index s of a and alpha(a) at ~s
        assert Hom.__slots__ == ("gens", "target", "images", "_sub", "_kernel",
                                 "__weakref__")
        assert h._sub is N5._subs[frozenset(images.values())]
        low, high = h._kernel.tables
        assert set(low) == set(join_irreducibles(S))
        assert set(high) == set(join_irreducibles(S.dual()))
        assert h._kernel.answers == {**{to_sub[a]: beta(h, a) for a in elems},
                                     **{~to_sub[a]: alpha(h, a) for a in elems}}
        ref, kernel_ref = weakref.ref(h), weakref.ref(h._kernel)
        del h
        assert ref() is None and kernel_ref() is None
    finally:
        if was_enabled:
            gc.enable()


def test_maps_with_one_kernel_share_answers_across_targets():
    # x to the bottom, y and z to the top: on a chain2 and on m3 the
    # image sublattice is the same two-element chain
    C, M = chain(2), m3()
    h = Hom(G, C, {"x": C.bottom, "y": C.top, "z": C.top})
    k = Hom(G, M, {"x": M.bottom, "y": M.top, "z": M.top})
    for ask in (beta, alpha):
        for a, b in ((C.bottom, M.bottom), (C.top, M.top)):
            t = ask(h, a)
            assert ask(k, b) is t
            assert h.eval(t) == a and k.eval(t) == b
    assert h._kernel is k._kernel


def test_maps_over_other_generator_names_share_nothing():
    N5 = pentagon()
    H = GeneratorSet(("a", "b", "c"))
    images = [N5.index_of(lbl) for lbl in "cba"]
    h = Hom(G, N5, dict(zip(G.names, images)))
    k = Hom(H, N5, dict(zip(H.names, images)))
    rename = str.maketrans("xyz", "abc")
    for ask in (beta, alpha):
        for a in h.image_sublattice()[1]:
            s, t = ask(h, a), ask(k, a)
            assert h.eval(s) == a == k.eval(t)
            assert print_term(t) == print_term(s).translate(rename)
    assert h._kernel is not k._kernel


def test_an_unbounded_kernel_names_each_map_target():
    M = m3()
    twin = FiniteLattice(M.up, M.labels, "m3 twin")
    maps = [Hom(G, L, {n: L.index_of(lbl) for n, lbl in zip(G.names, "abc")})
            for L in (M, twin)]
    for h in maps:
        for ask, side in ((beta, "lower"), (alpha, "upper")):
            with pytest.raises(NotBoundedError,
                               match=f"^hom onto {h.target.name} is not {side} bounded$"):
                ask(h, h.target.index_of("a"))
    assert maps[0]._kernel is maps[1]._kernel


def test_catalog_maps_share_55_kernels_that_die_with_them():
    def live():
        return [k for key, k in list(_KERNELS.items()) if key[0] == P.names]

    gc.collect()
    assert live() == []
    homs = [Hom(P, L, dict(zip(P.names, images))) for L in catalog()
            for images in itertools.product(range(L.n), repeat=3)]
    for h in homs:
        for a in h.image_sublattice()[1]:
            for ask in (beta, alpha):
                t = answer(ask, h, a)
                assert t is None or h.eval(t) == a
    kernels = live()
    assert len(homs) == 789 and len(kernels) == 55
    assert {id(h._kernel) for h in homs} == {id(k) for k in kernels}
    # 6 of the 55 are unbounded each way, so 49 tables on each side
    assert [sum(k.tables[upper] is not None for k in kernels)
            for upper in (False, True)] == [49, 49]
    del kernels
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        del homs, h
        assert live() == []
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
    # alpha is kept at key ~s, which a negative element must not reach
    h = pentagon_hom()
    alpha(h, 0)
    with pytest.raises(ValueError, match="-1 is not an element of pentagon"):
        beta(h, ~0)


@pytest.mark.parametrize("a", [99, "a", -1, True, 1.0])
def test_beta_and_alpha_take_only_elements_of_the_target(a):
    # Hom's rule for an image: an int index into the target
    h = pentagon_hom()
    for ask in (beta, alpha):
        with pytest.raises(ValueError, match=f"^{re.escape(repr(a))} is not an element of pentagon$"):
            ask(h, a)


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
