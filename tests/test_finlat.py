import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    is_doubly_prime_elt,
    join_irreducibles,
    meet_irreducibles,
    minimal_join_covers,
    minimal_meet_covers,
    poset_from_covers,
    tarski_lfp,
    to_dot,
)
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


def assert_matches_oracle(L):
    # the oracle's dual is built afresh, not taken from L's cache
    fresh_dual = FiniteLattice(L.down, L.labels, L.name + ".op")
    assert d_rank(L) == brute_d_rank(L)
    assert d_rank_op(L) == brute_d_rank(fresh_dual)
    for a in range(L.n):
        assert minimal_join_covers(L, a) == brute_minimal_join_covers(L, a)
        assert minimal_meet_covers(L, a) == \
            brute_minimal_join_covers(fresh_dual, a)


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
    assert N5.join_of(a, b) == N5.top
    assert N5.meet_of(a, c) == N5.bottom
    assert N5.join_of(b, a) == N5.top
    assert N5.meet_of(b, c) == b
    assert N5.join_all([]) == N5.bottom
    assert N5.meet_all([]) == N5.top
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


def test_irreducibles():
    F = build_fd3()
    # the bottom (xyz) has no lower cover, so it does not count
    ji = {F.labels[i] for i in join_irreducibles(F)}
    assert ji == {"x", "y", "z", "xy", "xz", "yz"}
    mi = {F.labels[i] for i in meet_irreducibles(F)}
    assert mi == {"x", "y", "z", "x+y", "x+z", "y+z"}
    N5 = pentagon()
    assert {N5.labels[i] for i in join_irreducibles(N5)} == {"a", "b", "c"}
    assert is_doubly_prime_elt(N5, N5.index_of("a"))
    M = m3()
    assert not is_doubly_prime_elt(M, M.index_of("a"))


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
    mmc = minimal_meet_covers(F, F.index_of("xy"))
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


def test_caches_are_kept_on_the_lattice():
    F = build_fd3()
    assert F.dual().dual() is F
    assert d_rank(F) is d_rank(F)
    assert join_irreducibles(F) is join_irreducibles(F)
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


def test_builtin_lattice_names():
    assert builtin_lattice("n5").name == "pentagon"
    assert builtin_lattice("fd3").n == 18
    assert builtin_lattice("A").n == 24
    with pytest.raises(KeyError):
        builtin_lattice("nope")


def test_catalog_contents():
    cat = catalog()
    assert len(cat) == 10
    assert sorted(L.n for L in cat) == [1, 2, 3, 4, 4, 5, 5, 5, 5, 5]
    # the list is all small lattices: no two are isomorphic
    for i, L in enumerate(cat):
        for K in cat[i + 1:]:
            assert find_isomorphism(L, K) is None
    assert len(extended_catalog()) == 13
