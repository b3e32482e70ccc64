import collections
import itertools
import random
import types

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import rand_term
from freelat import verify
from freelat.bhom import kernel_table
from freelat.builders import doubled_hom
from freelat.cli import run
from freelat.finlat import FinitePoset, _bits, dm_completion
from freelat.reporting import FAIL, INCONCLUSIVE, PASS, Report
from freelat.terms import (
    GEN,
    JOIN,
    MEET,
    GeneratorSet,
    dual_term,
    enumerate_terms,
    evaluate,
    gen,
    join,
    meet,
    parse_term,
    print_term,
    term_key,
)
from freelat.verify import (
    _G3,
    _G4,
    _cover_free_quads,
    _coverage_tables,
    _F3Search,
    _mask_keys,
    _subterms,
    _triple_verdict,
    _union_checks,
    check_pi3_in_f3,
    search_pi3_in_f4,
    separate_terms,
    verify_figure1,
    verify_figure2,
    verify_figure3,
)
from freelat.whitman import canonical_form, leq, ni_predicate

SEED = 12345


def _pool(max_size):
    return _F3Search(enumerate_terms(_G3, max_size))


def _inside(t, lo, hi):
    return leq(lo, t) and leq(t, hi)


def _c(src):
    return canonical_form(parse_term(src, _G3))


def _coverage_intervals():
    """The ten intervals of the pi3-f3 unions, endpoints written out by
    hand as in the sentence: K = [m, M], and per generator g with others
    o1, o2: I^g = [g+o1o2, g+M], J_g = [gm, g(o1+o2)], G_g = [g, g]."""
    ivs = {"K": (_c("xy+xz+yz"), _c("(x+y)(x+z)(y+z)"))}
    for g in "xyz":
        o1, o2 = [o for o in "xyz" if o != g]
        ivs[f"I^{g}"] = (_c(f"{g}+{o1}{o2}"), _c(f"{g}+(x+y)(x+z)(y+z)"))
        ivs[f"J_{g}"] = (_c(f"{g}(xy+xz+yz)"), _c(f"{g}({o1}+{o2})"))
        ivs[f"G_{g}"] = (gen(g), gen(g))
    return ivs


@pytest.mark.parametrize("max_size", [5, 6])
def test_coverage_tables_match_interval_oracle(max_size):
    # the old membership test, two leq calls per interval and term
    pool = list(enumerate_terms(_G3, max_size))
    names, member = _coverage_tables(pool)
    ivs = _coverage_intervals()
    assert sorted(names) == sorted(ivs)
    for t, bits in zip(pool, member):
        want = sum(1 << p for p, nm in enumerate(names) if _inside(t, *ivs[nm]))
        assert bits == want, print_term(t)
    assert sum(b != 0 for b in member) > len(ivs)


def test_coverage_intervals_are_doubled_map_classes():
    h = doubled_hom()
    kt = kernel_table(h)
    for nm, (lo, hi) in _coverage_intervals().items():
        assert kt[h.eval(lo)] == (lo, hi), nm


def test_figure1_report():
    rep = verify_figure1()
    assert rep.status == PASS
    assert rep.data["fd3_size"] == 18
    assert rep.data["a_size"] == 24
    assert rep.data["a_covers"] == 36
    assert len(rep.data["targets"]) == 6
    assert rep.data["a_rank_lower"] == 1
    assert rep.data["a_rank_upper"] == 1
    assert rep.data["fd3_rank_lower"] == 0
    assert rep.data["fd3_rank_upper"] == 0


def test_figure2_report():
    rep = verify_figure2()
    assert rep.status == PASS
    assert rep.data["classes"] == 24
    assert rep.data["expected_classes"] == 24
    assert rep.data["matched"] is True
    assert print_term(rep.data["middle_class_lo"]) == print_term(
        canonical_form(parse_term("xy+xz+yz", _G3)))
    assert print_term(rep.data["middle_class_hi"]) == print_term(
        canonical_form(parse_term("(x+y)(x+z)(y+z)", _G3)))
    assert rep.data["x_class"] == ("x", "x")
    assert len(rep.lines) == 24


def test_figure3_report():
    rep = verify_figure3()
    assert rep.status == PASS
    assert rep.data["classes"] == 5
    assert rep.data["n5_rank_lower"] == 1
    assert all(ln["matched"] for ln in rep.lines)


def test_below_matrix_agrees_with_leq():
    S = _pool(4)
    for i in range(S.n):
        for k in range(S.n):
            got = bool((S.below[i] >> k) & 1)
            assert got == leq(S.pool[k], S.pool[i]), (
                print_term(S.pool[k]), print_term(S.pool[i]))
            assert bool((S.dual.below[k] >> i) & 1) == got
    # the dual search is built once, at the same indices
    assert S.dual.dual is S
    assert S.dual.pool == [dual_term(t) for t in S.pool]
    assert S.dual.ops == S.ops


def test_join_meet_columns_agree_with_leq():
    # join_row(a)[b] has bit c iff pool[b] <= pool[a] + pool[c]; on the
    # dual search, iff pool[a] * pool[c] <= pool[b]
    S = _pool(4)
    rng = random.Random(SEED)
    for a in rng.sample(range(S.n), 12):
        up, down = S.join_row(a), S.dual.join_row(a)
        for b in range(S.n):
            for c in range(S.n):
                tj = join(S.pool[a], S.pool[c])
                tm = meet(S.pool[a], S.pool[c])
                assert bool((up[b] >> c) & 1) == leq(S.pool[b], tj)
                assert bool((down[b] >> c) & 1) == leq(tm, S.pool[b])


def _compatible(S):
    """Oracle for the compat half of pair_tables: pairs of incomparable
    terms whose generator keys do not join to the top or meet to the
    bottom."""
    gens = GeneratorSet(tuple(t.name for t in S.pool if t.kind == GEN))
    every = (1 << gens.rank) - 1
    keys = [key for _, key in _mask_keys(gens, S.pool)]
    compat = [0] * S.n
    for i, j in itertools.combinations(range(S.n), 2):
        if ((S.below[i] | S.dual.below[i]) >> j) & 1:
            continue
        if keys[i][0] | keys[j][0] == every or keys[i][1] | keys[j][1] == every:
            continue
        compat[i] |= 1 << j
        compat[j] |= 1 << i
    return compat


@pytest.mark.parametrize("max_size", [1, 3, 5])
def test_pair_tables_match_rows_and_key_oracle(max_size):
    S = _pool(max_size)
    compat, bounded = S.pair_tables()
    assert compat == _compatible(S)
    for a in range(S.n):
        assert bounded[a] == [x | y for x, y in zip(S.join_row(a), S.dual.join_row(a))]
    if max_size == 5:
        assert sum(c.bit_count() for c in compat) // 2 == 3108


def test_leq_join_bits_agree_with_leq():
    S = _pool(4)
    rng = random.Random(SEED)
    for _ in range(200):
        a = rng.randrange(S.n)
        members = rng.sample(range(S.n), rng.randint(1, 2))
        mask = sum(1 << m for m in members)
        ts = [S.pool[m] for m in members]
        up, down = S.leq_join_bits(a, mask), S.dual.leq_join_bits(a, mask)
        for c in range(S.n):
            assert bool((up >> c) & 1) == leq(S.pool[a], join(S.pool[c], *ts))
            assert bool((down >> c) & 1) == leq(meet(S.pool[c], *ts), S.pool[a])


def _leq_join(S, a, mask):
    """Oracle: pool[a] <= the join of the members in mask, by Whitman's
    recursion with a truth value: below a member, or a join with all
    operands below, or a meet with one operand below."""
    if S.dual.below[a] & mask:
        return True
    if S.kind[a] == JOIN:
        return all(_leq_join(S, o, mask) for o in S.ops[a])
    if S.kind[a] == MEET:
        return any(_leq_join(S, o, mask) for o in S.ops[a])
    return False


def test_leq_join_and_dual_leq_join_agree_with_leq():
    S = _pool(4)
    rng = random.Random(SEED)
    for _ in range(3000):
        a = rng.randrange(S.n)
        members = rng.sample(range(S.n), rng.randint(1, 3))
        mask = sum(1 << m for m in members)
        ts = [S.pool[m] for m in members]
        up, down = leq(S.pool[a], join(*ts)), leq(meet(*ts), S.pool[a])
        assert (_leq_join(S, a, mask), _leq_join(S.dual, a, mask)) == (up, down)
        # the kernel's form: a member c of mask adds nothing to the join
        assert bool(S.leq_join_bits(a, mask) & mask) == up
        assert bool(S.dual.leq_join_bits(a, mask) & mask) == down


def _is_free(S, members):
    """Oracle: the distinct pool terms in members are independent, none
    below the join or above the meet of the others."""
    mask = sum(1 << q for q in members)
    return not any(_leq_join(S, q, mask ^ (1 << q))
                   or _leq_join(S.dual, q, mask ^ (1 << q)) for q in members)


def _oracle_quads(S):
    """Oracle: the per-quad search the join tables replaced.  Quads i < j
    < k < l of pairwise compatible terms where no member lies below the
    join or above the meet of two earlier ones, in (i, j, k, l) order,
    each pair's join and meet closed by Whitman's recursion."""
    compat = _compatible(S)
    memo = {}

    def below_join(T, i, j):
        key = (T is S, min(i, j), max(i, j))
        if key not in memo:
            memo[key] = T._down(T.below[i] | T.below[j])
        return memo[key]

    def pair(i, j):
        return below_join(S, i, j) | below_join(S.dual, i, j)

    for i in range(S.n):
        ci = compat[i] >> (i + 1) << (i + 1)
        for j in _bits(ci):
            cij = ci & compat[j] & ~pair(i, j)
            cij = cij >> (j + 1) << (j + 1)
            for k in _bits(cij):
                cijk = cij & compat[k] & ~pair(i, k) & ~pair(j, k)
                for l in _bits(cijk >> (k + 1) << (k + 1)):
                    yield i, j, k, l


def _oracle_report(S):
    """The coverage report as the per-quad search wrote it: every quad
    of _oracle_quads confirmed by _is_free, logged in the order found."""
    rep = Report("pi3-coverage-in-f3")
    rep.set("terms", S.n)
    names, member = _coverage_tables(S.pool)
    unions = _union_checks(names)
    rep.set("compatible_pairs", sum(c.bit_count() for c in _compatible(S)) // 2)
    hist = {nm: 0 for nm, _ in unions}
    first, uncovered, checked, free = [], [], 0, 0
    for quad in _oracle_quads(S):
        checked += 1
        if _is_free(S, quad):
            free += 1
            hit = next((nm for nm, umask in unions
                        if all(member[q] & umask for q in quad)), None)
            if hit is None:
                uncovered.append(quad)
            else:
                hist[hit] += 1
            if free <= 200:
                first.append((quad, hit))
    rep.set("tuples_surviving_pair_filters", checked)
    rep.set("free_tuples", free)
    for quad, hit in first if free <= 200 else [(q, None) for q in uncovered]:
        rep.add_line(tuple=[print_term(S.pool[q]) for q in quad],
                     covered_by=hit or "none")
    for nm in hist:
        rep.set(f"covered_by_{nm}", hist[nm])
    rep.set("uncovered", len(uncovered))
    rep.set("vacuous", not free)
    rep.status = FAIL if uncovered else PASS
    return rep


def _kernel_report(S):
    rep = Report("pi3-coverage-in-f3")
    _cover_free_quads(rep, S.pool, 0.0, None)
    return rep


@pytest.mark.parametrize("max_size", [1, 2, 3, 4, 5])
def test_cover_kernel_matches_per_quad_oracle(max_size):
    S = _pool(max_size)
    got, want = _kernel_report(S), _oracle_report(S)
    for key in ("tuples_surviving_pair_filters", "free_tuples", "uncovered"):
        assert got.data[key] == want.data[key], key
    assert got.records() == want.records()
    if max_size == 5:
        assert (got.data["tuples_surviving_pair_filters"],
                got.data["free_tuples"]) == (44589, 1023)


_POOL5 = list(enumerate_terms(_G3, 5))


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.sets(st.integers(3, len(_POOL5) - 1), min_size=40, max_size=70))
def test_cover_kernel_matches_oracle_on_operand_closed_sub_pools(picks):
    # the generators, the picked terms and every operand below them, in
    # the size-5 pool's order
    keep = set(_POOL5[:3])
    stack = [_POOL5[p] for p in picks]
    while stack:
        t = stack.pop()
        if t not in keep:
            keep.add(t)
            stack.extend(t.ops)
    S = _F3Search(t for t in _POOL5 if t in keep)
    got, want = _kernel_report(S), _oracle_report(S)
    if want.data["free_tuples"] <= 200:
        # every free quad is logged, so the lines are compared in order
        assert len(want.lines) == want.data["free_tuples"]
    assert got.records() == want.records()


def test_is_free_agrees_with_ni_predicate_on_size_five_survivors():
    S = _pool(5)
    checked = free = 0
    for quad in _oracle_quads(S):
        got = _is_free(S, quad)
        assert got == (not ni_predicate([S.pool[q] for q in quad])), quad
        checked += 1
        free += got
    assert (checked, free) == (44589, 1023)


def test_is_free_agrees_with_ni_predicate_on_random_quads():
    S = _pool(4)
    rng = random.Random(SEED)
    comparable = 0
    for n in range(2000):
        quad = rng.sample(range(S.n), 4)
        if n % 2:
            # swap in a term comparable to the first member
            near = (S.below[quad[0]] | S.dual.below[quad[0]]) & ~sum(1 << q for q in quad)
            if near:
                quad[3] = rng.choice([k for k in range(S.n) if (near >> k) & 1])
                comparable += 1
        assert _is_free(S, tuple(quad)) == (
            not ni_predicate([S.pool[q] for q in quad])), quad
    assert comparable > 500


def test_coverage_tables_names_and_unions():
    S = _pool(2)
    names, member = _coverage_tables(S.pool)
    assert names[0] == "K"
    assert set(names) == {"K"} | {f"I^{g}" for g in "xyz"} \
        | {f"J_{g}" for g in "xyz"} | {f"G_{g}" for g in "xyz"}
    assert len(member) == S.n
    # spot checks: a bare generator sits in its singleton interval and
    # nothing else
    x = gen("x")
    px = S.pool.index(x)
    assert member[px] == 1 << names.index("G_x")
    lo = canonical_form(parse_term("x+yz", _G3))
    assert member[S.pool.index(lo)] & (1 << names.index("I^x"))
    unions = _union_checks(names)
    assert len(unions) == 9
    assert {nm for nm, _ in unions} == (
        {f"I^{a}|J_{b}|K" for a in "xyz" for b in "xyz" if a != b}
        | {f"G_{g}|K" for g in "xyz"})


def test_f3_vacuous_below_size_five():
    rep = check_pi3_in_f3(4)
    assert rep.status == PASS
    assert rep.data["free_tuples"] == 0
    assert rep.data["vacuous"] is True
    assert rep.data["uncovered"] == 0


def test_f3_budget_stops_early():
    rep = check_pi3_in_f3(5, budget_seconds=0.0)
    assert rep.status == INCONCLUSIVE
    assert rep.data["stopped"] == "during table build at term 0 of 121"
    assert "compatible_pairs" not in rep.data
    assert rep.data["tuples_surviving_pair_filters"] == 0
    # stopped before it looked at a tuple, the search has not shown that
    # no tuple is free
    assert rep.data["vacuous"] is False


def fake_clock(monkeypatch, in_time):
    """Replace verify's clock by one that reads 0 for its first in_time
    reads and then far past any budget; returns the read counter."""
    reads = itertools.count()
    fake = types.SimpleNamespace(
        monotonic=lambda: 0.0 if next(reads) < in_time else 1e9)
    monkeypatch.setattr(verify, "time", fake)
    return reads


def test_f3_budget_is_read_between_table_rows(monkeypatch):
    # the start read and the reads before rows 0 to 49 are in time
    fake_clock(monkeypatch, 1 + 50)
    rep = check_pi3_in_f3(5, budget_seconds=5.0)
    assert rep.status == INCONCLUSIVE
    assert rep.data["stopped"] == "during table build at term 50 of 121"
    assert rep.data["vacuous"] is False


def test_f3_budget_is_read_inside_the_search_build(monkeypatch):
    # size 7 has 567 terms, so each pass of the search build reads the
    # clock at terms 256 and 512; the start read is in time and the read
    # at term 256 of the first pass is not
    assert verify._TERMS_PER_READ == 256
    reads = fake_clock(monkeypatch, 1)
    rep = check_pi3_in_f3(7, budget_seconds=5.0)
    assert next(reads) == 2
    assert rep.status == INCONCLUSIVE
    assert rep.data["terms"] == 567
    assert rep.data["stopped"] == "during search build at term 256 of 567"
    assert "compatible_pairs" not in rep.data
    assert rep.data["tuples_surviving_pair_filters"] == 0
    assert rep.data["vacuous"] is False


def test_f3_search_build_reads_the_clock_twice_per_pass(monkeypatch):
    # the same size-7 search with the clock running out only after the
    # start read and both passes' reads at terms 256 and 512: it stops
    # before the first term's table rows
    reads = fake_clock(monkeypatch, 1 + 4)
    rep = check_pi3_in_f3(7, budget_seconds=5.0)
    assert next(reads) == 6
    assert rep.data["stopped"] == "during table build at term 0 of 567"


def test_f3_clock_is_read_only_with_a_budget(monkeypatch):
    reads = fake_clock(monkeypatch, 10**9)
    assert check_pi3_in_f3(4).status == PASS
    assert next(reads) == 1   # the start time only


def test_f3_budget_is_read_inside_a_first_member(monkeypatch):
    # a fake clock that runs out after the start read, one read before
    # each of the 121 terms' table rows, and the search's reads at the
    # start of term 0 and after its first 256 (i, k, l) triples: the
    # next read, after 512 triples, stops the search with 127 of term
    # 0's 827 surviving tuples counted
    assert verify._TRIPLES_PER_READ == 256
    fake_clock(monkeypatch, 3 + 121)
    rep = check_pi3_in_f3(5, budget_seconds=5.0)
    assert rep.status == INCONCLUSIVE
    assert rep.data["stopped"] == "during tuple search at term 0 of 121"
    assert rep.data["tuples_surviving_pair_filters"] == 127


def test_f3_size_five_counts():
    rep = check_pi3_in_f3(5)
    assert rep.status == PASS
    assert rep.data["terms"] == 121
    assert rep.data["compatible_pairs"] == 3108
    assert rep.data["tuples_surviving_pair_filters"] == 44589
    assert rep.data["free_tuples"] == 1023
    assert rep.data["uncovered"] == 0
    assert rep.data["vacuous"] is False
    covered = sum(v for k, v in rep.data.items()
                  if isinstance(k, str) and k.startswith("covered_by_"))
    assert covered == 1023


def _mask_key(t, gens4):
    """Oracle for verify._mask_keys: the generators below and above t,
    found with leq."""
    dn = sum(1 << k for k, g in enumerate(gens4) if leq(g, t))
    up = sum(1 << k for k, g in enumerate(gens4) if leq(t, g))
    return dn, up


def test_operand_built_mask_keys_match_leq_oracle():
    g4 = _G4.terms()
    n = 0
    for t, key in _mask_keys(_G4, enumerate_terms(_G4, 4)):
        assert key == _mask_key(t, g4), print_term(t)
        n += 1
    assert n == 1640


def test_shared_mask_keys_match_f3_below_above_bits():
    # the generator bits the coverage search read off below/above before
    # it shared _mask_keys
    S = _pool(5)
    above = S.dual.below
    gens = [i for i in range(S.n) if S.kind[i] == GEN]
    gens_below = [sum(1 << p for p, g in enumerate(gens)
                      if (S.below[i] >> g) & 1) for i in range(S.n)]
    gens_above = [sum(1 << p for p, g in enumerate(gens)
                      if (above[i] >> g) & 1) for i in range(S.n)]
    keys = [key for _, key in _mask_keys(_G3, S.pool)]
    assert keys == list(zip(gens_below, gens_above))
    assert len(keys) == 121


def test_key_closure_matches_enumerated_keys():
    # the keys realised in F4: generator keys closed under the join and
    # meet key operations, round by round
    keys = {(1 << k, 1 << k) for k in range(4)}
    sizes = [len(keys)]
    while len(sizes) < 2 or sizes[-1] != sizes[-2]:
        keys |= {op for (d1, u1), (d2, u2) in itertools.product(keys, repeat=2)
                 for op in ((d1 | d2, u1 & u2), (d1 & d2, u1 | u2))}
        sizes.append(len(keys))
    assert sizes == [4, 16, 35, 35]
    for max_size in (4, 5):
        assert {key for _, key in _mask_keys(_G4, enumerate_terms(_G4, max_size))} == keys


def test_mask_key_basics():
    g4 = _G4.terms()
    x1, x2, x3, x4 = g4
    assert _mask_key(x1, g4) == (1, 1)
    assert _mask_key(canonical_form(join(x1, x2)), g4) == (3, 0)
    assert _mask_key(canonical_form(meet(x3, x4)), g4) == (0, 12)
    t = canonical_form(parse_term("x1*(x2+x3)", _G4))
    assert _mask_key(t, g4) == (0, 1)


def _term_triple_verdict(z):
    """Independent rendering of the triple conditions on concrete terms."""
    g4 = _G4.terms()
    z1, z2, z3 = z
    top = canonical_form(join(join(z1, z2), z3))
    bot = canonical_form(meet(meet(z1, z2), z3))
    if not all(leq(g, top) for g in g4):
        return False, set(), set()
    if not all(leq(bot, g) for g in g4):
        return False, set(), set()
    mz = canonical_form(join(join(meet(z1, z2), meet(z1, z3)), meet(z2, z3)))
    Mz = canonical_form(meet(meet(join(z1, z2), join(z1, z3)), join(z2, z3)))
    K = (mz, Mz)
    case1 = set()
    for i, j in itertools.permutations(range(3), 2):
        l = 3 - i - j
        I = (canonical_form(join(z[i], meet(z[j], z[l]))),
             canonical_form(join(z[i], Mz)))
        J = (canonical_form(meet(z[j], mz)),
             canonical_form(meet(z[j], join(z[i], z[l]))))
        if all(_inside(g, *I) or _inside(g, *J) or _inside(g, *K)
               for g in g4):
            case1.add((i, j))
    case2 = set()
    for i in range(3):
        if all(_inside(g, z[i], z[i]) or _inside(g, *K) for g in g4):
            case2.add(i)
    return True, case1, case2


def test_triple_verdict_matches_term_level_check():
    g4 = _G4.terms()
    reps = {}
    for t in enumerate_terms(_G4, 2):
        reps.setdefault(_mask_key(t, g4), t)
    assert len(reps) == 34
    keys = sorted(reps)
    n_valid = 0
    for kt in itertools.combinations_with_replacement(keys, 3):
        ok, c1, c2 = _triple_verdict(kt)
        z = tuple(reps[k] for k in kt)
        tok, tc1, tc2 = _term_triple_verdict(z)
        assert ok == tok, kt
        if not ok:
            continue
        n_valid += 1
        # the mask scan reports the first covering pair or None; the
        # term-level check returns the full set
        if c1 is None:
            assert not tc1, kt
        else:
            i, j = int(c1[3]) - 1, int(c1[7]) - 1
            assert (i, j) in tc1, kt
        if c2 is None:
            assert not tc2, kt
        else:
            assert int(c2[2]) - 1 in tc2, kt
    assert n_valid == 96


def test_f4_class_counts_small_sizes():
    rep1 = search_pi3_in_f4(1)
    assert rep1.status == PASS
    assert rep1.data["mask_classes"] == 26
    assert rep1.data["valid_triples_by_class"] == 80
    rep3 = search_pi3_in_f4(3)
    assert rep3.status == PASS
    assert rep3.data["mask_classes"] == 35
    assert rep3.data["valid_triples_by_class"] == 97
    for sub in rep3.subs:
        assert sub.status == PASS
        assert sub.data["covering_triples"] == 0


def test_f4_full_size_four():
    rep = search_pi3_in_f4(4)
    assert rep.status == PASS
    assert rep.data["terms"] == 1640
    assert rep.data["mask_classes"] == 35
    assert rep.data["valid_triples_by_class"] == 97
    assert rep.data["triples_represented"] == 736502680
    assert [s.claim for s in rep.subs] == [
        "case1-interval-form", "case2-singleton-form"]
    assert all(s.data["covering_triples"] == 0 for s in rep.subs)


def test_f4_budget_stops_early():
    rep = search_pi3_in_f4(4, budget_seconds=0.0)
    assert rep.status == INCONCLUSIVE
    assert "stopped" in rep.data


def _every_valid_triple_covers(monkeypatch):
    real = verify._triple_verdict

    def covering(keys):
        ok, _, c2 = real(keys)
        return ok, "I^z1|J_z2|K" if ok else None, c2

    monkeypatch.setattr(verify, "_triple_verdict", covering)


def test_f4_covering_triple_fails_report_and_cli(monkeypatch, capsys):
    _every_valid_triple_covers(monkeypatch)
    rep = search_pi3_in_f4(1)
    assert rep.status == FAIL
    assert [s.status for s in rep.subs] == [FAIL, PASS]
    assert rep.subs[0].data["covering_triples"] == 80
    assert run(["verify", "pi3-f4", "--max-size", "1", "--format", "records"]) == 1
    assert capsys.readouterr().out.startswith(
        "claim=pi3-search-in-f4 status=fail\n")


def _oracle_f4_keys(max_size):
    """Oracle for verify._f4_keys: every term built by enumerate_terms,
    keyed by _mask_keys."""
    for _, key in _mask_keys(_G4, enumerate_terms(_G4, max_size)):
        yield key


@pytest.mark.parametrize("max_size", range(6))
def test_f4_keys_match_the_build_every_term_oracle(max_size):
    counts = collections.Counter(verify._f4_keys(max_size))
    want = collections.Counter(_oracle_f4_keys(max_size))
    assert counts == want
    # up to size 3, some classes are first seen at the last size, so
    # their witnesses are terms _f4_keys never builds
    reps = verify._f4_witnesses(max_size)
    assert reps.keys() == want.keys()
    assert any(t.size == max_size for t in reps.values()) == (max_size <= 3)
    rep = search_pi3_in_f4(max_size)
    assert rep.data["terms"] == sum(want.values())
    assert rep.data["mask_classes"] == len(want)


@pytest.mark.parametrize("max_size", [1, 2])
def test_f4_covering_report_matches_the_oracle_path(monkeypatch, max_size):
    # every valid class triple reported as covering, so the records list
    # a witness for each, among them classes first seen at the last size
    _every_valid_triple_covers(monkeypatch)
    got = search_pi3_in_f4(max_size).records()
    monkeypatch.setattr(verify, "_f4_keys", _oracle_f4_keys)
    want = search_pi3_in_f4(max_size).records()
    assert got == want
    assert sum(r.startswith("sub0 line ") for r in got) == (80, 96)[max_size - 1]


def test_f4_pass_builds_no_witness(monkeypatch):
    def no_witnesses(max_size):
        raise AssertionError("witnesses built for a search with no hit")

    monkeypatch.setattr(verify, "_f4_witnesses", no_witnesses)
    rep = search_pi3_in_f4(5)
    assert rep.status == PASS
    assert rep.data["valid_triples_by_class"] == 97


def test_f4_cases_cut_short_are_inconclusive(monkeypatch):
    # the clock runs out on the read after the third valid triple, once
    # all 70 terms of size <= 2 are keyed; no triple covers by then
    reads = itertools.count()
    fake = types.SimpleNamespace(
        monotonic=lambda: 0.0 if next(reads) < 1 + 70 + 2 else 1e9)
    monkeypatch.setattr(verify, "time", fake)
    rep = search_pi3_in_f4(2, budget_seconds=5.0)
    assert rep.status == INCONCLUSIVE
    assert rep.data["stopped"] == "during triple scan"
    assert rep.data["valid_triples_by_class"] == 3
    for sub in rep.subs:
        assert sub.status == INCONCLUSIVE
        assert sub.data["covering_triples"] == 0


def test_f4_budget_is_read_inside_the_last_size(monkeypatch):
    # the clock runs out on the read after the fifth term of size 2, the
    # last size, which is never built
    below = len(list(enumerate_terms(_G4, 1)))
    reads = itertools.count()
    fake = types.SimpleNamespace(
        monotonic=lambda: 0.0 if next(reads) < below + 5 else 1e9)
    monkeypatch.setattr(verify, "time", fake)
    rep = search_pi3_in_f4(2, budget_seconds=5.0)
    assert rep.status == INCONCLUSIVE
    assert rep.data["stopped"] == "during term enumeration"
    assert rep.data["terms_seen"] == below + 5


def test_separate_generators_by_their_principal_cuts():
    rep = separate_terms(gen("x"), gen("y"))
    assert rep.status == PASS
    # x and y are incomparable: each goes to its own principal cut
    assert rep.data["subterm_forms"] == 2
    assert "lattice_size" not in rep.data and "images" not in rep.data
    assert (rep.data["s_value"], rep.data["t_value"]) == ("x", "y")


def test_separate_medians():
    m = canonical_form(parse_term("xy+xz+yz", _G3))
    M = canonical_form(parse_term("(x+y)(x+z)(y+z)", _G3))
    rep = separate_terms(m, M)
    assert rep.status == PASS
    # each term goes to the principal cut of its canonical form
    assert (rep.data["s_value"], rep.data["t_value"]) == (print_term(m), print_term(M))


def test_separate_other_generator_names():
    G = GeneratorSet(("a", "b"))
    s = canonical_form(parse_term("a", G))
    t = canonical_form(parse_term("a+b", G))
    rep = separate_terms(s, t)
    assert rep.status == PASS
    assert (rep.data["s_value"], rep.data["t_value"]) == ("a", "a+b")


def subterm_order(s, t, key):
    """The canonical forms of s's and t's subterms sorted by key, and
    the up rows of their order: bit j of up[i] iff form i <= form j."""
    forms = sorted({canonical_form(u) for u in _subterms(s, t)}, key=key)
    return forms, [sum(1 << j for j, v in enumerate(forms) if leq(u, v)) for u in forms]


def assert_separated(s, t, rng):
    """Check the report against the completion of the subterm order,
    built here with the forms in print order and each generator sent to
    its principal cut."""
    rep = separate_terms(s, t)
    assert rep.status == PASS
    forms, up = subterm_order(s, t, print_term)
    L, emb = dm_completion(FinitePoset(up, [print_term(u) for u in forms]))
    images = {u.name: emb[i] for i, u in enumerate(forms) if u.kind == GEN}
    sv, tv = evaluate(s, L, images), evaluate(t, L, images)
    assert sv != tv
    assert (L.labels[sv], L.labels[tv]) == (rep.data["s_value"], rep.data["t_value"])
    # the map is an order embedding on the subterms, each sent to the
    # principal cut of its form
    subs = sorted(_subterms(s, t), key=print_term)
    for _ in range(8):
        u, v = rng.choice(subs), rng.choice(subs)
        hu, hv = evaluate(u, L, images), evaluate(v, L, images)
        assert hu == emb[forms.index(canonical_form(u))]
        assert L.leq(hu, hv) == leq(u, v)


def test_separate_is_exact_on_seeded_pairs():
    rng = random.Random(SEED)
    # over x, y, z: comparable and arbitrary pairs of canonical terms up
    # to size 6
    pool = list(enumerate_terms(_G3, 6))
    comparable = [(s, t) for s in pool for t in pool if s is not t and leq(s, t)]
    pairs = rng.sample(comparable, 150)
    while len(pairs) < 300:
        s, t = rng.sample(pool, 2)
        pairs.append((s, t))
    # over four generators: terms as built, not canonical, and their
    # joins and meets, so half the pairs are comparable
    names = ["x1", "x2", "x3", "x4"]
    while len(pairs) < 600:
        s, t = (rand_term(rng, names, rng.randint(0, 5)) for _ in range(2))
        s, t = rng.choice([(s, t), (s, join(s, t)), (meet(s, t), s)])
        if not leq(s, t) or not leq(t, s):
            pairs.append((s, t))
    for s, t in pairs:
        assert_separated(s, t, rng)


@pytest.mark.parametrize("s, t", [("x*(y+z*(y+x*(y+z)))", "x*(y+z*(x+y))"),
                                  ("z+y*(x+y*(z+x*y))", "z+y*(x+y*z)")])
def test_separate_pairs_no_catalog_map_told_apart(s, t, capsys):
    assert run(["verify", "separate", s, t, "--format", "records"]) == 0
    out = capsys.readouterr().out
    assert "status=pass" in out and "subterm_forms=13" in out


def test_separate_past_the_completion_cap():
    # random four-generator terms of size 400 whose subterm order has a
    # completion of over 4096 elements, too many for dm_completion
    rng = random.Random(10)
    s, t = (rand_term(rng, ["x1", "x2", "x3", "x4"], 400) for _ in range(2))
    forms, up = subterm_order(s, t, term_key)
    with pytest.raises(ValueError, match="exceeds 4096"):
        dm_completion(FinitePoset(up))
    rep = separate_terms(s, t)
    assert rep.status == PASS
    assert rep.data["subterm_forms"] == len(forms)
    # each term goes to the principal cut of its canonical form, and
    # those cuts differ
    fs, ft = canonical_form(s), canonical_form(t)
    assert (rep.data["s_value"], rep.data["t_value"]) == (print_term(fs), print_term(ft))
    i, j = forms.index(fs), forms.index(ft)
    assert [r >> i & 1 for r in up] != [r >> j & 1 for r in up]


def test_separate_equal_terms_rejected():
    s = canonical_form(parse_term("x(y+z)", _G3))
    t = canonical_form(parse_term("x(z+y)", _G3))
    with pytest.raises(ValueError, match="equal"):
        separate_terms(s, t)


def test_below_matrix_standalone():
    # any pool that lists operands before their terms, here in the order
    # a depth-first walk from random size-4 terms reaches them
    rng = random.Random(SEED)
    pool, seen = [], set()

    def emit(t):
        if t not in seen:
            for o in t.ops:
                emit(o)
            seen.add(t)
            pool.append(t)

    for t in rng.sample(list(enumerate_terms(_G3, 4)), 20):
        emit(t)
    S = _F3Search(pool)
    assert S.pool == pool
    for i in range(len(pool)):
        assert (S.below[i] >> i) & 1
        for k in range(len(pool)):
            assert bool((S.below[i] >> k) & 1) == leq(pool[k], pool[i])
            assert bool((S.dual.below[i] >> k) & 1) == leq(pool[i], pool[k])


def test_subterms_handles_10000_levels():
    t = gen("x")
    for k in range(10000):
        t = join(t, gen("y")) if k % 2 == 0 else meet(t, gen("z"))
    subs = _subterms(t)
    assert sorted(u.name for u in subs if u.kind == GEN) == ["x", "y", "z"]
    assert len(subs) == 10000 + 3

def test_separate_handles_10000_levels():
    # (..((x+y)*z+y)*z..) is z*(x+y); forms found in size order find
    # each operand's form first, so canonical_form never goes deep
    t = gen("x")
    for k in range(10000):
        t = join(t, gen("y")) if k % 2 == 0 else meet(t, gen("z"))
    rep = separate_terms(t, gen("x"))
    assert rep.status == PASS
    assert (rep.data["s_value"], rep.data["t_value"]) == ("z*(x+y)", "x")
