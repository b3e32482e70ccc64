import gc
import itertools
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freelat import builders
from freelat.bhom import Hom
from freelat.builders import (
    build_a,
    build_fd3,
    builtin_lattice,
    catalog,
    chain,
    diamond,
    extended_catalog,
    fd3_doubling_targets,
    m3,
    pentagon,
)
from freelat.finlat import (
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
from freelat.cli import run
from freelat.terms import GeneratorSet, evaluate, parse_term


# Oracles: the exhaustive subset scan over J(L) and the cover-based rank
# that the D relation replaced.  They read nothing but the order and the
# join table, so they check d_relation and the caches as well.

def brute_join_irreducibles(L):
    uppers = [hi for _, hi in L.covers()]
    return [i for i in range(L.n) if uppers.count(i) == 1]


def brute_minimal_join_covers(L, a):
    jis = brute_join_irreducibles(L)
    cands = []
    for mask in range(1, 1 << len(jis)):
        C = [jis[i] for i in range(len(jis)) if (mask >> i) & 1]
        if any(L.leq(a, c) for c in C):
            continue
        if any(L.leq(C[i], C[j]) or L.leq(C[j], C[i])
               for i in range(len(C)) for j in range(i + 1, len(C))):
            continue
        if not L.leq(a, L.join_all(C)):
            continue
        if any(L.leq(a, L.join_all(C[:i] + C[i + 1:])) for i in range(len(C))):
            continue
        cands.append(tuple(sorted(C)))

    def refines(D, C):
        return all(any(L.leq(d, c) for c in C) for d in D)

    out = [C for C in cands if not any(D != C and refines(D, C) for D in cands)]
    return sorted(out, key=lambda C: (len(C), C))


def brute_d_rank(L):
    covers_of = [brute_minimal_join_covers(L, a) for a in range(L.n)]
    rho = [0 if not covers_of[a] else None for a in range(L.n)]
    changed = True
    while changed:
        changed = False
        for a in range(L.n):
            members = [c for C in covers_of[a] for c in C]
            if rho[a] is None and all(rho[c] is not None for c in members):
                rho[a] = 1 + max(rho[c] for c in members)
                changed = True
    jis = brute_join_irreducibles(L)
    if any(rho[j] is None for j in jis):
        return rho, None
    return rho, max((rho[j] for j in jis), default=0)


# Oracle for check_sd_meet, which runs check_sd_join on L.dual(): the
# loop over L's own meet table.

def hand_check_sd_meet(L):
    n, joins, meets = L.n, L.joins, L.meets
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if meets[a][b] == meets[a][c] != meets[a][joins[b][c]]:
                    return False, (a, b, c)
    return True, None


def assert_matches_oracle(L):
    # the oracle's dual is built afresh, not taken from L's cache
    fresh_dual = FiniteLattice(L.down, L.labels, L.name + ".op")
    assert d_rank(L) == brute_d_rank(L)
    assert d_rank_op(L) == brute_d_rank(fresh_dual)
    for a in range(L.n):
        assert minimal_join_covers(L, a) == brute_minimal_join_covers(L, a)


def assert_meet_side_matches_oracle(L):
    assert check_sd_meet(L) == hand_check_sd_meet(L)   # witness too


def test_poset_validation():
    with pytest.raises(ValueError, match="reflexive"):
        FinitePoset([0b10, 0b10])
    with pytest.raises(ValueError, match="cycle"):
        FinitePoset([0b11, 0b11])
    with pytest.raises(ValueError, match="transitive"):
        FinitePoset([0b011, 0b110, 0b100])
    with pytest.raises(ValueError, match="labels"):
        FinitePoset([0b1], ["a", "b"])
    with pytest.raises(ValueError, match="duplicate"):
        FinitePoset([0b11, 0b10], ["a", "a"])
    with pytest.raises(ValueError, match="empty"):
        FinitePoset([])


def test_not_a_lattice():
    with pytest.raises(NotALatticeError, match="'a' and 'b'"):
        from_covers("bad", 2, [], ["a", "b"])
    # two incomparable upper bounds of a pair
    with pytest.raises(NotALatticeError):
        from_covers("bad", 4, [(0, 2), (0, 3), (1, 2), (1, 3)])


def test_pentagon_tables():
    N5 = pentagon()
    a, b, c = (N5.index_of(l) for l in "abc")
    assert N5.joins[a][b] == N5.top
    assert N5.meets[a][c] == N5.bottom
    assert N5.joins[b][a] == N5.top
    assert N5.meets[b][c] == b
    assert N5.join_all([]) == N5.bottom
    assert N5.leq(b, c) and not N5.leq(c, b)


def test_covers_and_heights():
    N5 = pentagon()
    assert len(N5.covers()) == 5
    hs = N5.heights()
    assert hs[N5.bottom] == 0 and hs[N5.top] == 3
    assert N5.upper_covers(N5.index_of("b")) == [N5.index_of("c")]
    assert N5.lower_covers(N5.index_of("1")) == sorted(
        [N5.index_of("a"), N5.index_of("c")])


def test_dual():
    N5 = pentagon()
    D = N5.dual()
    assert D.leq(D.index_of("c"), D.index_of("b"))
    assert find_isomorphism(N5, D.dual()) is not None
    F = build_fd3()
    assert find_isomorphism(F, F.dual()) is not None   # self-dual order


def test_a_dual_is_its_lattice_while_it_lives():
    N5 = pentagon()
    D = N5.dual()
    assert D.dual() is N5 and N5.dual() is D
    assert D.dual().dual() is D
    # a dual whose lattice has gone rebuilds an equal one, and keeps it
    D = pentagon().dual()
    L = D.dual()
    assert L is not N5 and L.dual() is D and D.dual() is L
    assert (L.n, L.up, L.down, L.labels) == (N5.n, N5.up, N5.down, N5.labels)
    assert (L.joins, L.meets, L.bottom, L.top) == (
        N5.joins, N5.meets, N5.bottom, N5.top)


def test_lattices_and_duals_are_freed_without_the_cycle_collector():
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        lattices = catalog()
        refs = [weakref.ref(L.dual()) for L in lattices]
        del lattices
        assert [r() for r in refs] == [None] * len(refs)
        assert gc.collect() == 0
    finally:
        if was_enabled:
            gc.enable()


def test_irreducibles():
    F = build_fd3()
    # the bottom (xyz) has no lower cover, so it does not count
    ji = {F.labels[i] for i in join_irreducibles(F)}
    assert ji == {"x", "y", "z", "xy", "xz", "yz"}
    mi = {F.labels[i] for i in join_irreducibles(F.dual())}
    assert mi == {"x", "y", "z", "x+y", "x+z", "y+z"}
    N5 = pentagon()
    assert {N5.labels[i] for i in join_irreducibles(N5)} == {"a", "b", "c"}


def test_minimal_covers():
    F = build_fd3()
    mjc = minimal_join_covers(F, F.index_of("x+y"))
    assert [{F.labels[i] for i in C} for C in mjc] == [{"x", "y"}]
    # the join of any two of xy, xz, yz misses the middle element, so the
    # only minimal cover is all three; {x, yz} is a cover but refines away
    mid = F.index_of("xy+xz+yz")
    mjc = minimal_join_covers(F, mid)
    assert [{F.labels[i] for i in C} for C in mjc] == [{"xy", "xz", "yz"}]
    M = m3()
    a = M.index_of("a")
    assert [{M.labels[i] for i in C} for C in minimal_join_covers(M, a)] == \
        [{"b", "c"}]
    mmc = minimal_join_covers(F.dual(), F.index_of("xy"))
    assert [{F.labels[i] for i in C} for C in mmc] == [{"x", "y"}]


def test_d_rank():
    for k in range(1, 5):
        rho, rk = d_rank(chain(k))
        assert rk == 0
    rho, rk = d_rank(pentagon())
    assert rk == 1
    rho_op, rk_op = d_rank_op(pentagon())
    assert rk_op == 1
    assert d_rank(m3())[1] is None
    assert d_rank(build_fd3())[1] == 0
    assert d_rank(build_a())[1] == 1


def test_d_rank_values_on_pentagon():
    N5 = pentagon()
    rho, _ = d_rank(N5)
    assert rho[N5.index_of("a")] == 0
    assert rho[N5.index_of("c")] == 1


def test_d_relation_on_pentagon():
    N5 = pentagon()
    a, b, c, top = (N5.index_of(l) for l in ("a", "b", "c", "1"))
    D = d_relation(N5)
    # c <= b + a but not c <= 0 + a, and the same with a and b swapped;
    # the top's cover {a, c} refines to {a, b}, so c is not in D(top)
    assert D[c] == D[top] == (1 << a) | (1 << b)
    assert D[a] == D[b] == D[N5.bottom] == 0
    assert d_relation(N5) is D


def test_fast_covers_and_ranks_match_oracle_on_builtins():
    for L in extended_catalog() + [build_fd3(), build_a()]:
        assert_matches_oracle(L)
        assert_matches_oracle(L.dual())


def test_meet_side_checks_match_hand_written_loops():
    lattices = extended_catalog() + [build_fd3(), build_a()]
    for L in lattices + [L.dual() for L in lattices]:
        assert_meet_side_matches_oracle(L)
    # the loops find failures too, so the witnesses are compared
    assert not hand_check_sd_meet(m3())[0]


def test_fast_covers_and_ranks_match_oracle_on_catalog_images():
    G = GeneratorSet(("x", "y", "z"))
    count = 0
    for L in catalog():
        for images in itertools.product(range(L.n), repeat=3):
            S, _, _ = Hom(G, L, dict(zip("xyz", images))).image_sublattice()
            assert_matches_oracle(S)
            count += 1
    assert count == 789


@st.composite
def small_orders(draw):
    n = draw(st.integers(1, 9))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return poset_from_covers("rand", n, [p for p, keep in zip(pairs, chosen) if keep])


@settings(max_examples=100, deadline=None)
@given(small_orders())
def test_fast_covers_and_ranks_match_oracle_on_random_completions(P):
    L, _ = dm_completion(P)
    # join irreducibles of a completion are images of P, so the scan stays small
    assert len(join_irreducibles(L)) <= P.n <= 20
    assert_matches_oracle(L)
    assert_meet_side_matches_oracle(L)


def test_caches_are_kept_on_the_lattice():
    F = build_fd3()
    assert F.dual().dual() is F
    assert d_rank(F) is d_rank(F)
    assert join_irreducibles(F) is join_irreducibles(F)
    for a in range(F.n):
        assert minimal_join_covers(F, a) is minimal_join_covers(F, a)
    assert minimal_join_covers(F.dual(), F.top) is not minimal_join_covers(F, F.top)
    assert F.lower_covers(F.top) == [a for a, b in F.covers() if b == F.top]
    assert F.upper_covers(F.bottom) == [b for a, b in F.covers() if a == F.bottom]


def test_check_w_and_sd():
    for L in catalog():
        ok, w = check_W(L)
        assert ok and w is None
    okw, w = check_W(build_fd3())
    assert not okw and len(w) == 4
    okj, _ = check_sd_join(m3())
    okm, _ = check_sd_meet(m3())
    assert not okj and not okm
    assert check_sd_join(pentagon())[0]
    assert check_sd_meet(pentagon())[0]
    assert check_sd_join(build_fd3())[0] and check_sd_meet(build_fd3())[0]


def test_dm_completion_of_antichain():
    P = poset_from_covers("anti2", 2, [], ["0", "1"])
    L, emb = dm_completion(P)
    assert L.n == 4
    assert sorted(L.labels) == ["0", "1", "{0,1}", "{}"]
    for i in range(2):
        assert L.labels[emb[i]] == P.labels[i]
    assert not L.leq(emb[0], emb[1]) and not L.leq(emb[1], emb[0])


def test_dm_completion_fixes_lattices():
    for L in catalog() + [build_fd3()]:
        C, emb = dm_completion(L)
        assert C.n == L.n
        assert find_isomorphism(L, C) is not None
        assert sorted(emb) == list(range(L.n))


@settings(max_examples=100, deadline=None)
@given(small_orders())
def test_dm_completion_orders_its_cuts_by_inclusion(P):
    L, emb = dm_completion(P)
    # the cuts, as the sets of points below each element, and as every
    # intersection of principal down-sets (the empty intersection is all)
    cuts = [sum(1 << p for p in range(P.n) if L.leq(emb[p], i)) for i in range(L.n)]
    want = {(1 << P.n) - 1}
    for k in range(1, P.n + 1):
        for ps in itertools.combinations(range(P.n), k):
            m = (1 << P.n) - 1
            for p in ps:
                m &= P.down[p]
            want.add(m)
    assert len(set(cuts)) == L.n and set(cuts) == want
    for i in range(L.n):
        for j in range(L.n):
            assert L.leq(i, j) == (not cuts[i] & ~cuts[j])


def test_dm_completion_of_fence():
    # 4-element zigzag a < b > c < d completes to a proper lattice
    P = poset_from_covers("fence", 4, [(0, 1), (2, 1), (2, 3)],
                          ["a", "b", "c", "d"])
    L, emb = dm_completion(P)
    assert L.n == 6
    for i, j in [(0, 1), (2, 1), (2, 3)]:
        assert L.leq(emb[i], emb[j])
    assert not L.leq(emb[0], emb[3])


def test_double_structure():
    N5 = pentagon()
    D = double(N5, [N5.index_of("b")])
    assert D.n == 6
    b0, b1 = D.index_of("b.0"), D.index_of("b.1")
    assert D.leq(b0, b1) and not D.leq(b1, b0)
    assert D.leq(D.index_of("0"), b0)
    assert D.leq(b1, D.index_of("c"))
    # doubling the whole chain interval keeps the order inside the copies
    D2 = double(N5, [N5.index_of("b"), N5.index_of("c")])
    assert D2.n == 7
    assert D2.leq(D2.index_of("b.0"), D2.index_of("c.0"))
    assert D2.leq(D2.index_of("b.1"), D2.index_of("c.0"))
    assert D2.leq(D2.index_of("b.1"), D2.index_of("c.1"))
    assert not D2.leq(D2.index_of("c.0"), D2.index_of("b.1"))


def test_double_rejects_bad_sets():
    F = build_fd3()
    with pytest.raises(ValueError, match="convex"):
        double(F, [F.index_of("xy+xz"), F.index_of("x+yz")])
    with pytest.raises(ValueError):
        double(F, [])
    with pytest.raises(ValueError):
        double(F, [99])


def test_doubling_targets():
    F = build_fd3()
    assert sorted(F.labels[i] for i in fd3_doubling_targets(F)) == \
        ["x+yz", "xy+xz", "xy+yz", "xz+yz", "y+xz", "z+xy"]


def test_build_a_against_transcription():
    import pathlib

    from freelat.latfile import load_latfile
    fix = load_latfile(str(pathlib.Path(__file__).parent / "data" / "a24.lat"))
    A = build_a()
    iso = find_isomorphism(A, fix)
    assert iso is not None
    gens = {fix.labels[iso[A.index_of(g)]] for g in ("x", "y", "z")}
    assert gens == {"gx", "gy", "gz"}


def test_find_isomorphism():
    assert find_isomorphism(pentagon(), diamond()) is None
    assert find_isomorphism(chain(4), chain(4)) == [0, 1, 2, 3]
    assert find_isomorphism(chain(4), chain(5)) is None
    iso = find_isomorphism(m3(), m3().dual())
    assert iso is not None


def test_tarski_lfp_matches_scan():
    G = GeneratorSet(("x", "y", "v"))
    p = parse_term("x*(y+v)", G)
    for L in extended_catalog():
        for xi in range(L.n):
            for yi in range(L.n):
                amap = {"x": xi, "y": yi}
                got = tarski_lfp(L, p, "v", amap)
                fps = [w for w in range(L.n)
                       if evaluate(p, L, {**amap, "v": w}) == w]
                assert got in fps
                assert all(L.leq(got, w) for w in fps)


def test_to_dot():
    txt = to_dot(pentagon())
    assert txt.startswith("digraph")
    assert txt.count("->") == 5
    assert 'label="c"' in txt


def test_builtin_lattice_names(monkeypatch):
    assert builtin_lattice("n5").name == "pentagon"
    assert builtin_lattice("fd3").n == 18
    assert builtin_lattice("A").n == 24
    with pytest.raises(KeyError, match="no builtin lattice named 'nope'"):
        builtin_lattice("nope")
    for L in extended_catalog():
        B = builtin_lattice(L.name)
        assert (B.name, B.up, B.labels) == (L.name, L.up, L.labels)
        assert B is not builtin_lattice(L.name)
    # a lookup builds the lattice it names and nothing else
    built = []
    init = FiniteLattice.__init__
    monkeypatch.setattr(FiniteLattice, "__init__",
                        lambda self, *a, **k: built.append(init(self, *a, **k)))
    builtin_lattice("m3")
    builtin_lattice("chain5").dual()
    assert len(built) == 2
    monkeypatch.undo()
    # fd3 and A are shared, and nothing else is
    F = build_fd3()
    assert F is build_fd3() is builtin_lattice("fd3")
    A = build_a()
    assert A is build_a() is builtin_lattice("A")
    order = sorted(F.labels[i] for i in fd3_doubling_targets(F))
    B = build_a(order)
    assert B is not A and B is not build_a(order)
    assert (B.up, B.labels, B.joins) == (A.up, A.labels, A.joins)
    cat, ext = catalog(), extended_catalog()
    assert all(K is not L for K, L in zip(cat + ext, catalog() + extended_catalog()))
    assert all(K is not L for K, L in zip(cat, ext))
    # the figure commands leave the shared lattices as a fresh build has them
    for argv in FIGURES:
        run(argv)
    assert build_fd3() is F and build_a() is A
    G = builders.build_fd3.__wrapped__()
    assert (F.up, F.labels, F.joins, F.meets) == (G.up, G.labels, G.joins, G.meets)
    B = build_a(order)
    assert (A.up, A.labels, A.joins, A.meets) == (B.up, B.labels, B.joins, B.meets)


# the benchmark's figures workload, run in one process
FIGURES = [
    ["verify", "fig1", "--format", "records"],
    ["verify", "fig2", "--format", "records"],
    ["verify", "fig3", "--format", "records"],
    ["tower", "classify", "--stage", "builtin:fd3:x=x,y=y,z=z",
     "--stage", "builtin:A:x=x,y=y,z=z", "x*(y+z)"],
]


def test_figures_build_each_lattice_once(monkeypatch):
    builders.build_fd3.cache_clear()
    builders._default_a.cache_clear()
    built = []
    init = FiniteLattice.__init__

    def counting_init(self, *a, **k):
        init(self, *a, **k)
        built.append(self.name)

    monkeypatch.setattr(FiniteLattice, "__init__", counting_init)
    run(FIGURES[0])
    assert built.count("fd3") == 1
    # fd3, the five doubling steps to A, and each map's image sublattice:
    # the doubled map's (shared by fig2 and the tower's last stage), the
    # pentagon map's and the tower's first stage's
    for argv in FIGURES[1:]:
        run(argv)
    assert sorted(built) == sorted(
        ["fd3", *(f"fd3+{k}" for k in range(1, 6)), "A", "A.im",
         "pentagon", "pentagon.im", "fd3.im"])


def test_catalog_contents():
    cat = catalog()
    assert len(cat) == 10
    assert sorted(L.n for L in cat) == [1, 2, 3, 4, 4, 5, 5, 5, 5, 5]
    # the list is all small lattices: no two are isomorphic
    for i, L in enumerate(cat):
        for K in cat[i + 1:]:
            assert find_isomorphism(L, K) is None
    assert len(extended_catalog()) == 13


# Oracles for the table build: the all-pairs scan FiniteLattice ran
# before it tried the lowest (highest) index of each bound set, and the
# doubled rows built from one leq call per pair of nodes.

def scan_tables(up, labels, name):
    P = FinitePoset(up, labels, name)
    n = P.n

    def least(mask):
        return next((k for k in range(n) if (mask >> k) & 1
                     and not mask & ~P.up[k]), None)

    def greatest(mask):
        return next((k for k in range(n) if (mask >> k) & 1
                     and not mask & ~P.down[k]), None)

    joins = [[0] * n for _ in range(n)]
    meets = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            k = least(P.up[i] & P.up[j])
            if k is None:
                raise NotALatticeError(
                    f"{name}: no least upper bound of "
                    f"{P.labels[i]!r} and {P.labels[j]!r}")
            joins[i][j] = joins[j][i] = k
            k = greatest(P.down[i] & P.down[j])
            if k is None:
                raise NotALatticeError(
                    f"{name}: no greatest lower bound of "
                    f"{P.labels[i]!r} and {P.labels[j]!r}")
            meets[i][j] = meets[j][i] = k
    full = (1 << n) - 1
    return joins, meets, least(full), greatest(full)


def leq_double_rows(L, elems):
    nodes = []
    for i in range(L.n):
        nodes += [(i, 0), (i, 1)] if i in elems else [(i, None)]
    up = []
    for i, si in nodes:
        row = 0
        for l, (j, sj) in enumerate(nodes):
            if i == j:
                ok = si == sj or (si is not None and sj is not None and si <= sj)
            else:
                ok = L.leq(i, j)
            if ok:
                row |= 1 << l
        up.append(row)
    return up


def shuffled_rows(up, perm):
    """The same order with element i renamed perm[i]."""
    out = [0] * len(up)
    for i, row in enumerate(up):
        for j in range(len(up)):
            if (row >> j) & 1:
                out[perm[i]] |= 1 << perm[j]
    return out


def assert_tables_match_scan(up, labels, name):
    try:
        want = scan_tables(up, labels, name)
    except NotALatticeError as e:
        with pytest.raises(NotALatticeError) as got:
            FiniteLattice(up, labels, name)
        assert str(got.value) == str(e)
        return None
    L = FiniteLattice(up, labels, name)
    assert (L.joins, L.meets, L.bottom, L.top) == want
    D = L.dual()
    assert (D.joins, D.meets, D.bottom, D.top) == scan_tables(L.down, labels, name)
    assert D.up == L.down and D.down == L.up and D.name == name + ".op"
    assert D.dual() is L
    return L


@settings(max_examples=100, deadline=None)
@given(small_orders(), st.randoms(use_true_random=False))
def test_tables_match_the_scan_on_random_orders_in_any_index_order(P, rnd):
    L, _ = dm_completion(P)
    perm = list(range(L.n))
    rnd.shuffle(perm)
    labels = [None] * L.n
    for i, p in enumerate(perm):
        labels[p] = L.labels[i]
    assert assert_tables_match_scan(L.up, L.labels, L.name) is not None
    S = assert_tables_match_scan(shuffled_rows(L.up, perm), labels, "shuffled")
    assert S is not None and find_isomorphism(L, S) is not None
    # the orders themselves are mostly not lattices, so the errors are compared
    perm = list(range(P.n))
    rnd.shuffle(perm)
    assert_tables_match_scan(P.up, P.labels, P.name)
    assert_tables_match_scan(shuffled_rows(P.up, perm), P.labels, P.name)


def test_tables_match_the_scan_on_builtins_and_their_duals():
    for L in extended_catalog() + [build_fd3(), build_a()]:
        assert_tables_match_scan(L.up, L.labels, L.name)
        # built top-down, every candidate fails and the scan answers
        assert_tables_match_scan(L.down, L.labels, L.name)


def test_not_a_lattice_names_the_first_failing_pair():
    # 0 and 1 have the join 4 but two maximal lower bounds, 2 and 3, which
    # in turn have no least upper bound; the pair (0, 1) comes first
    up = poset_from_covers("P", 5, [(2, 0), (2, 1), (3, 0), (3, 1),
                                    (0, 4), (1, 4)]).up
    with pytest.raises(NotALatticeError, match=r"^bad: no greatest lower bound "
                                               r"of '0' and '1'$"):
        FiniteLattice(up, None, "bad")
    assert_tables_match_scan(up, None, "bad")


class Subclassed(FiniteLattice):
    pass


def test_dual_keeps_the_class_and_shares_the_tables():
    N5 = pentagon()
    L = Subclassed(N5.up, N5.labels, "sub")
    D = L.dual()
    assert type(D) is Subclassed and D.dual() is L and L.dual() is D
    assert D.joins is L.meets and D.meets is L.joins
    assert (D.bottom, D.top) == (L.top, L.bottom)
    assert D._subs == {} and D._subs is not L._subs
    D.weak = "a subclass's dual has its own __dict__"
    assert not hasattr(L, "weak")
    P = poset_from_covers("fence", 3, [(0, 1), (2, 1)])
    assert type(P.dual()) is FinitePoset and P.dual().dual() is P
    assert P.dual().up == P.down and P.dual().covers() == [(1, 0), (1, 2)]


def test_double_rows_match_leq_rows():
    count = 0
    for L in extended_catalog():
        for mask in range(1, 1 << L.n):
            C = {i for i in range(L.n) if (mask >> i) & 1}
            try:
                D = double(L, C)
            except ValueError:
                continue   # not convex
            assert D.up == leq_double_rows(L, C)
            count += 1
    assert count > 200
    F = build_fd3()
    for t in fd3_doubling_targets(F):
        assert double(F, [t]).up == leq_double_rows(F, {t})
    for lbl in sorted(F.labels[i] for i in fd3_doubling_targets(F)):
        C = {F.index_of(lbl)}
        D = double(F, C)
        assert D.up == leq_double_rows(F, C)
        F = D
    assert F.n == 24
