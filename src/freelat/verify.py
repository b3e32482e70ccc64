"""End-to-end reproductions of the concrete structure facts, plus the
two desk-scale searches around the sentence pi3.

The searches certify bounded fragments only: coverage of all free
4-tuples of 3-generator terms up to a size budget, and absence of
covering z-triples among 4-generator terms up to a size budget.  Both
avoid brute enumeration where an exact factorization exists; the
docstrings of the helpers say why the shortcuts do not change any
verdict.
"""

from __future__ import annotations

import functools
import itertools
import operator
import time
from math import comb
from typing import Callable, Iterable, Iterator

from .bhom import kernel_table
from .builders import (
    build_a,
    build_fd3,
    doubled_hom,
    fd3_doubling_targets,
    pentagon_hom,
)
from .finlat import _bits, d_rank, d_rank_op
from .reporting import FAIL, INCONCLUSIVE, PASS, Report
from .terms import (
    GEN,
    JOIN,
    MEET,
    GeneratorSet,
    Term,
    _levels,
    dual_term,
    enumerate_terms,
    gen,
    node_key,
    parse_term,
    print_term,
    substitute,
    term_key,
)
from .whitman import canonical_form, equal, leq

_G3 = GeneratorSet(("x", "y", "z"))


def _canon_str(src: str, perm: dict[str, Term] | None = None) -> str:
    t = parse_term(src, _G3)
    if perm:
        t = substitute(t, perm)
    return print_term(canonical_form(t))


def verify_figure1() -> Report:
    """fd3 has 18 elements; doubling its six atom-join/coatom-meet
    elements gives a 24-element lattice bounded in both directions."""
    rep = Report("fd3-and-its-doubling")
    F = build_fd3()
    rep.set("fd3_size", F.n)
    targets = fd3_doubling_targets(F)
    rep.set("targets", sorted(F.labels[i] for i in targets))
    A = build_a()
    rep.set("a_size", A.n)
    rep.set("a_covers", len(A.covers()))
    _, rk = d_rank(A)
    _, rko = d_rank_op(A)
    rep.set("a_rank_lower", rk)
    rep.set("a_rank_upper", rko)
    _, frk = d_rank(F)
    _, frko = d_rank_op(F)
    rep.set("fd3_rank_lower", frk)
    rep.set("fd3_rank_upper", frko)
    ok = (F.n == 18 and len(targets) == 6 and A.n == 24
          and rk is not None and rko is not None)
    rep.status = PASS if ok else FAIL
    return rep


# interval shapes of the doubled map's kernel classes, one per class
# orbit under permuting x, y, z
_A_CLASS_SHAPES = (
    ("(x+y)(x+z)", "(x+y)(x+z)"),
    ("x+y", "x+y"),
    ("x+z", "x+z"),
    ("x+y+z", "x+y+z"),
    ("x+yz", "x+(x+y)(x+z)(y+z)"),
    ("x", "x"),
    ("x(xy+xz+yz)", "x(y+z)"),
    ("xy+xz", "xy+xz"),
    ("xy", "xy"),
    ("xz", "xz"),
    ("xyz", "xyz"),
    ("xy+xz+yz", "(x+y)(x+z)(y+z)"),
)


def verify_figure2() -> Report:
    """The kernel classes of the generator map onto the doubled lattice
    are exactly the 24 expected intervals, including [m, M] for the
    middle element."""
    rep = Report("kernel-classes-of-doubled-map")
    h = doubled_hom()
    kt = kernel_table(h)
    rep.set("classes", len(kt))
    expected = set()
    for perm in itertools.permutations("xyz"):
        sub = {g: gen(p) for g, p in zip("xyz", perm)}
        for lo_s, hi_s in _A_CLASS_SHAPES:
            expected.add((_canon_str(lo_s, sub), _canon_str(hi_s, sub)))
    rep.set("expected_classes", len(expected))
    got = set()
    for a, (lo, hi) in kt.items():
        shape = (print_term(lo), print_term(hi))
        got.add(shape)
        rep.add_line(element=h.target.labels[a], lo=lo, hi=hi,
                     expected=shape in expected)
    matched = got == expected
    rep.set("matched", matched)
    m_lo, m_hi = kt[h.eval(parse_term("xy+xz+yz", _G3))]
    rep.set("middle_class_lo", m_lo)
    rep.set("middle_class_hi", m_hi)
    x_lo, x_hi = kt[h.eval(gen("x"))]
    rep.set("x_class", (print_term(x_lo), print_term(x_hi)))
    ok = (matched and len(kt) == 24
          and print_term(m_lo) == _canon_str("xy+xz+yz")
          and print_term(m_hi) == _canon_str("(x+y)(x+z)(y+z)")
          and x_lo is gen("x") and x_hi is gen("x"))
    rep.status = PASS if ok else FAIL
    return rep


_N5_CLASSES = (
    ("0", "xyz", "z(x+y)"),
    ("a", "z", "z"),
    ("b", "xy", "y+z(x+y)"),
    ("c", "x(z+xy)", "x+y"),
    ("1", "z+xy", "x+y+z"),
)


def verify_figure3() -> Report:
    """The five kernel classes of the pentagon map, with the class of the
    top generator reaching down to w = x(z+xy), and the pentagon's rank."""
    rep = Report("kernel-classes-of-pentagon-map")
    h = pentagon_hom()
    N5 = h.target
    kt = kernel_table(h)
    rep.set("classes", len(kt))
    ok = len(kt) == 5
    for lbl, lo_s, hi_s in _N5_CLASSES:
        lo, hi = kt[N5.index_of(lbl)]
        want = (_canon_str(lo_s), _canon_str(hi_s))
        got = (print_term(lo), print_term(hi))
        rep.add_line(element=lbl, lo=lo, hi=hi, matched=got == want)
        ok = ok and got == want
    _, rk = d_rank(N5)
    _, rko = d_rank_op(N5)
    rep.set("n5_rank_lower", rk)
    rep.set("n5_rank_upper", rko)
    ok = ok and rk == 1
    rep.status = PASS if ok else FAIL
    return rep


def _key_remap(gens: GeneratorSet) -> Callable[[int], int]:
    """A map from a generator bitmask in interning order (the order of a
    term's key, see terms) to the same generators as bits in gens order;
    bits of generators outside gens are dropped."""
    bits = [(g.down, 1 << k) for k, g in enumerate(gens.terms())]
    local: dict[int, int] = {}

    def remap(m: int) -> int:
        r = local.get(m)
        if r is None:
            r = local[m] = sum(b for g, b in bits if m & g)
        return r

    return remap


def _mask_keys(gens: GeneratorSet,
               terms: Iterable[Term]) -> Iterator[tuple[Term, tuple[int, int]]]:
    """Each term over gens with its key (D, U), the generators below and
    above it as bits in gens order: the key each term carries (see
    terms), moved to gens order by _key_remap."""
    remap = _key_remap(gens)
    for t in terms:
        yield t, (remap(t.down), remap(t.up))


class _F3Search:
    """A pool of terms with every order question of the coverage search
    answered on pool indices and bitmasks, without building a term.

    The pool must list every operand of a term before the term, as
    enumerate_terms does (sizes never decrease); Whitman's recursion is
    exact on any such pool.  below[i] has bit k set iff pool[k] <=
    pool[i], and opmask[i] is the set of pool[i]'s operands.

    Meet-side questions are the join-side ones asked of dual: the same
    search over dual_term of each pool term, at the same indices and with
    the same operand order.  So dual.below[i] has bit k set iff pool[i]
    <= pool[k], and dual.dual is this search.

    out_of_time is asked at every _TERMS_PER_READ-th term of the rows
    here and on dual.  The build stops at the first term it answers true
    for, and then built is false and no question may be asked.
    """

    def __init__(self, pool: Iterable[Term],
                 out_of_time: Callable[[int], bool] = lambda i: False,
                 dual: _F3Search | None = None):
        self.pool = list(pool)
        idx = {t: i for i, t in enumerate(self.pool)}
        self.n = n = len(self.pool)
        self.every = (1 << n) - 1
        self.kind = [t.kind for t in self.pool]
        self.ops = [tuple(idx[o] for o in t.ops) for t in self.pool]
        self.opmask = [sum(1 << o for o in ops) for ops in self.ops]
        # (bit, operand mask, is a join) of each compound term, in order
        self._shapes = [(1 << k, self.opmask[k], self.kind[k] == JOIN)
                        for k in range(n) if self.kind[k] != GEN]
        self.below: list[int] = []
        for i, (kind, ops) in enumerate(zip(self.kind, self.ops)):
            if i and not i % _TERMS_PER_READ and out_of_time(i):
                break
            bit = 1 << i
            down = [self.below[o] for o in ops]
            # below a meet iff below every meetand
            self.below.append(
                bit | functools.reduce(operator.and_, down) if kind == MEET
                else self._down(bit | functools.reduce(operator.or_, down, 0)))
        # the dual search is passed in only when it builds this one, and
        # built only once every row here is
        if dual is None and len(self.below) == n:
            dual = _F3Search((dual_term(t) for t in self.pool), out_of_time, self)
        self.dual = dual
        self.built = dual is not None and len(self.below) == len(dual.below) == n

    def _down(self, col: int) -> int:
        """The pool terms below a generator or a formal join e, given in
        col the terms below e's joinands (or e itself): add, in pool
        order, each join whose operands are all in col and each meet with
        an operand in col.  By Whitman's recursion nothing else lies
        below e, and every operand is settled before its term."""
        for bit, om, is_join in self._shapes:
            if (not om & ~col) if is_join else om & col:
                col |= bit
        return col

    def leq_join_bits(self, a: int, mask: int) -> int:
        """Bit c set iff pool[a] <= pool[c] + the join of the members in
        mask, for every c at once.

        All bits are set if pool[a] lies below a member, and bit c is
        set if pool[a] lies below pool[c].  Otherwise a join is below iff
        all its operands are, a meet iff one of its operands is, and a
        generator is not.  This is exact by Whitman's condition (W):
        every joinand of a member lies below that member, so testing
        whole members is enough."""
        above = self.dual.below[a]
        if above & mask:
            return self.every
        kind = self.kind[a]
        if kind == JOIN:
            col = self.every
            for o in self.ops[a]:
                col &= self.leq_join_bits(o, mask)
            return col | above
        if kind == MEET:
            for o in self.ops[a]:
                above |= self.leq_join_bits(o, mask)
        return above

    def join_row(self, a: int) -> list[int]:
        """Entry b has bit c set iff pool[b] <= pool[a] + pool[c]:
        leq_join_bits(b, 1 << a) for every b at once, built in pool order
        from the entries of b's operands, one step per entry."""
        every, down = self.every, self.below[a]
        row: list[int] = []
        rows = zip(self.kind, self.ops, self.dual.below)
        for b, (kind, ops, col) in enumerate(rows):
            if down >> b & 1:
                col = every
            elif kind == JOIN:
                more = every
                for o in ops:
                    more &= row[o]
                col |= more
            elif kind == MEET:
                for o in ops:
                    col |= row[o]
            row.append(col)
        return row

    def pair_tables(self, out_of_time: Callable[[int], bool] = lambda a: False
                    ) -> tuple[list[int], list[list[int]]]:
        """(compat, bounded), from each term's join_row here and on dual.

        compat[a] has bit b set iff pool[a] and pool[b] may sit in one
        free tuple of four: they are incomparable, and their join is not
        the top nor their meet the bottom (the other members would lie
        below or above it).  A join is the top iff every generator lies
        below it.

        bounded[a][b] has bit c set iff pool[b] lies under pool[a] +
        pool[c] or over pool[a] * pool[c], so no free tuple holds all
        three.

        out_of_time is asked before each term's rows, and the tables stop
        short at the first term it answers true for."""
        gens = [g for g in range(self.n) if self.kind[g] == GEN]
        every, compat, bounded = self.every, [], []
        for a, (down, up) in enumerate(zip(self.below, self.dual.below)):
            if out_of_time(a):
                break
            q, qd = self.join_row(a), self.dual.join_row(a)
            top = functools.reduce(operator.and_, (q[g] for g in gens), every)
            bottom = functools.reduce(operator.and_, (qd[g] for g in gens), every)
            compat.append(every & ~(down | up | top | bottom))
            # over half the entries are all ones: share that one object
            bounded.append([every if (z := x | y) == every else z
                            for x, y in zip(q, qd)])
        return compat, bounded


def _coverage_tables(pool: list[Term]) -> tuple[list[str], list[int]]:
    """Per-term membership bits in the ten intervals the sentence uses:
    K, and I^g, J_g and the singleton G_g per generator.

    Each interval is a whole kernel class [beta(a), alpha(a)] of the
    doubled map onto A (verify_figure2 checks all 24), and classes
    partition F3, so a term lies in the interval iff the map sends it to
    a, the image of the interval's low end."""
    h = doubled_hom()
    lows = {"K": "xy+xz+yz"}
    for g in "xyz":
        o1, o2 = [o for o in "xyz" if o != g]
        lows[f"I^{g}"] = f"{g}+{o1}{o2}"
        lows[f"J_{g}"] = f"{g}(xy+xz+yz)"
        lows[f"G_{g}"] = g
    bit = {h.eval(parse_term(lo, _G3)): 1 << p for p, lo in enumerate(lows.values())}
    return list(lows), [bit.get(h.eval(t), 0) for t in pool]


def _union_checks(names: list[str]) -> list[tuple[str, int]]:
    """The nine permissible unions as masks over the interval list."""
    pos = {nm: p for p, nm in enumerate(names)}
    out = []
    for gi in "xyz":
        for gj in "xyz":
            if gi != gj:
                out.append((f"I^{gi}|J_{gj}|K",
                            (1 << pos[f"I^{gi}"]) | (1 << pos[f"J_{gj}"])
                            | (1 << pos["K"])))
    for gi in "xyz":
        out.append((f"G_{gi}|K", (1 << pos[f"G_{gi}"]) | (1 << pos["K"])))
    return out


def _check_budget(budget_seconds: float | None) -> None:
    # every comparison with NaN is false, so a NaN budget never runs out
    if budget_seconds is not None and not budget_seconds >= 0:
        raise ValueError(f"budget must be >= 0 seconds, got {budget_seconds}")


def check_pi3_in_f3(max_size: int = 6,
                    budget_seconds: float | None = None) -> Report:
    """Every 4-tuple of canonical 3-generator terms (size <= max_size)
    that freely generates is covered by one of the nine interval unions.
    The search itself is _cover_free_quads.  A NaN or negative budget
    raises ValueError."""
    _check_budget(budget_seconds)
    t0 = time.monotonic()
    rep = Report("pi3-coverage-in-f3")
    rep.set("max_size", max_size)
    _cover_free_quads(rep, enumerate_terms(_G3, max_size), t0, budget_seconds)
    return rep


# budget clock reads per (i, k, l) triple of the tuple search, and per
# pool term of each pass of the search build
_TRIPLES_PER_READ = 256
_TERMS_PER_READ = 256


def _cover_free_quads(rep: Report, pool: Iterable[Term], t0: float,
                      budget_seconds: float | None) -> None:
    """Find the free quads i < j < k < l of the pool, classify each by
    the first interval union covering it, and report into rep.

    The search runs over triples (i, k, l) and takes the second member j
    as a bit set.  Members of a free quad are pairwise compatible, and
    none is bounded by two others (under their join or over their
    meet), so the tables of S.pair_tables clear whole sets of j.  The
    ordered pair filters (k not bounded by i and j, l by no two of i, j
    and k) leave tuples_surviving_pair_filters.  The other pairwise
    conditions, then leq_join_bits against the other three members,
    clear the rest, so exactly the free quads are kept.

    With a budget the clock is read at every _TERMS_PER_READ-th term of
    each pass of the _F3Search build, before each term's table rows, at
    each first member and every _TRIPLES_PER_READ triples; a search cut
    short is inconclusive unless a free quad it found is uncovered."""
    pool = list(pool)
    n = len(pool)
    rep.set("terms", n)
    names, member = _coverage_tables(pool)
    unions = _union_checks(names)
    # bit u of covers[p] is set iff pool[p] lies in union u, so the first
    # union covering a quad is the lowest set bit of the AND of its four
    # members' masks
    covers = [sum(1 << u for u, (_, umask) in enumerate(unions) if m & umask)
              for m in member]

    def out_of_time(i: int, phase: str = "tuple search") -> bool:
        if budget_seconds is None or time.monotonic() - t0 <= budget_seconds:
            return False
        rep.set("stopped", f"during {phase} at term {i} of {n}")
        return True

    # the search and its tables stop short if the clock runs out while
    # they are built
    S = _F3Search(pool, lambda a: out_of_time(a, "search build"))
    compat, bounded = (S.pair_tables(lambda a: out_of_time(a, "table build"))
                       if S.built else ([], []))
    stopped = len(compat) < n
    if not stopped:
        rep.set("compatible_pairs", sum(c.bit_count() for c in compat) // 2)
    D = S.dual

    # free quads are classified as they are found and not kept: every
    # one is logged only when there are at most 200, else the uncovered
    union_hist = {nm: 0 for nm, _ in unions}
    first: list[tuple[tuple[int, ...], str | None]] = []
    uncovered = []
    checked = free = triples = 0
    for i in range(n):
        if stopped or (stopped := out_of_time(i)):
            break
        Pi = bounded[i]
        ci = compat[i] >> (i + 1) << (i + 1)
        for k in _bits(ci >> (i + 2) << (i + 2)):
            Pk, cik = bounded[k], ci & compat[k]
            # i < j < k, and k neither under i+j nor over i*j
            js_k = cik & ~Pi[k] & ((1 << k) - 1)
            if not js_k:
                continue
            # i under k+c or over k*c, or k under i+c or over i*c
            not_ik = Pk[i] | Pi[k]
            for l in _bits(cik >> (k + 1) << (k + 1)):
                triples += 1
                if not triples % _TRIPLES_PER_READ and (stopped := out_of_time(i)):
                    break
                if Pi[l] >> k & 1:
                    continue
                js = js_k & compat[l] & ~(Pi[l] | Pk[l])
                if not js:
                    continue
                checked += js.bit_count()
                if not_ik >> l & 1:
                    continue
                Pl = bounded[l]
                js &= ~(not_ik | Pl[i] | Pl[k])
                # j under or over the join or meet of two of i, k, l
                kl = 1 << k | 1 << l
                for j in _bits(js):
                    if Pi[j] & kl or Pk[j] >> l & 1:
                        js ^= 1 << j
                if not js:
                    continue
                il, ik = 1 << i | 1 << l, 1 << i | 1 << k
                js &= ~(S.leq_join_bits(i, kl) | D.leq_join_bits(i, kl)
                        | S.leq_join_bits(k, il) | D.leq_join_bits(k, il)
                        | S.leq_join_bits(l, ik) | D.leq_join_bits(l, ik))
                ikl = ik | 1 << l
                cikl = covers[i] & covers[k] & covers[l]
                for j in _bits(js):
                    if (S.leq_join_bits(j, ikl) | D.leq_join_bits(j, ikl)) & ikl:
                        continue
                    quad = (i, j, k, l)
                    free += 1
                    c = cikl & covers[j]
                    if c:
                        hit = unions[(c & -c).bit_length() - 1][0]
                        union_hist[hit] += 1
                    else:
                        hit = None
                        uncovered.append(quad)
                    if free <= 200:
                        first.append((quad, hit))
            if stopped:
                break
        if stopped:
            break
    rep.set("tuples_surviving_pair_filters", checked)
    rep.set("free_tuples", free)
    # quads are found in (i, k, l, j) order; log them in (i, j, k, l) order
    logged = first if free <= 200 else [(q, None) for q in uncovered]
    for quad, hit in sorted(logged):
        rep.add_line(tuple=[print_term(S.pool[q]) for q in quad],
                     covered_by=hit or "none")
    for nm in union_hist:
        rep.set(f"covered_by_{nm}", union_hist[nm])
    rep.set("uncovered", len(uncovered))
    # a search cut short has not shown that no quad is free
    rep.set("vacuous", not (free or stopped))
    rep.status = FAIL if uncovered else INCONCLUSIVE if stopped else PASS


_G4 = GeneratorSet(("x1", "x2", "x3", "x4"))


def _triple_verdict(keys: tuple[tuple[int, int], ...]) -> tuple[bool, str | None, str | None]:
    """(valid, case1 witness, case2 witness) for a z-triple known only by
    its comparison masks against the four generators.

    Each D[i] records which generators sit below z_i and U[i] which sit
    above.  Every condition in the sentence unfolds through the order
    recursion into a formula over those bits alone (joins of generators
    against a term split componentwise, and the interval endpoints are
    joins/meets of the z's and their pairwise combinations), so the
    verdict for any concrete triple depends only on its key."""
    D = [k[0] for k in keys]
    U = [k[1] for k in keys]
    if (D[0] | D[1] | D[2]) != 15:    # join of the triple is not the top
        return False, None, None
    if (U[0] | U[1] | U[2]) != 15:    # meet is not the bottom
        return False, None, None
    mb = (U[0] | U[1]) & (U[0] | U[2]) & (U[1] | U[2])
    Mb = (D[0] | D[1]) & (D[0] | D[2]) & (D[1] | D[2])
    kbit = mb & Mb
    case1 = None
    for i, j in itertools.permutations(range(3), 2):
        l = 3 - i - j
        ibit = (U[i] & (U[j] | U[l])) & (D[i] | Mb)
        jbit = (U[j] | mb) & (D[j] & (D[i] | D[l]))
        if (ibit | jbit | kbit) == 15:
            case1 = f"I^z{i + 1}|J_z{j + 1}|K"
            break
    case2 = None
    for i in range(3):
        if ((U[i] & D[i]) | kbit) == 15:
            case2 = f"[z{i + 1}]|K"
            break
    return True, case1, case2


def _f4_keys(max_size: int) -> Iterator[tuple[int, int]]:
    """The mask key (D, U), the generators below and above in _G4 order,
    of each canonical 4-generator term of size <= max_size, in
    enumeration order.

    The terms come level by level from terms._levels.  A built term's
    key is the one it carries; a candidate of the last size is never
    built, and its key is node_key of its operands.  Both are moved to
    _G4 order by _key_remap, as _mask_keys does."""
    remap = _key_remap(_G4)
    for s, level in enumerate(_levels(_G4, max_size)):
        last = s == max_size > 0
        for c in level:
            d, u = node_key(*c) if last else (c.down, c.up)
            yield remap(d), remap(u)


def _f4_witnesses(max_size: int) -> dict[tuple[int, int], Term]:
    """Each mask class of terms of size <= max_size with its least term by
    term_key, the first of the class that enumerate_terms yields.  It
    builds every term, so it runs only when a triple covers."""
    reps: dict[tuple[int, int], Term] = {}
    for t, key in _mask_keys(_G4, enumerate_terms(_G4, max_size)):
        reps.setdefault(key, t)
    return reps


def search_pi3_in_f4(max_size: int = 4,
                     budget_seconds: float | None = None) -> Report:
    """Look for a triple z1, z2, z3 of 4-generator terms joining to the
    top and meeting to the bottom whose intervals cover the generators.
    None should exist at any size; this certifies sizes <= max_size.

    Runs over comparison-mask classes instead of raw triples: the
    verdict is a function of the masks (see _triple_verdict), every
    mask class in the scan is realized by a term in the pool, and every
    pool triple falls in a scanned class, so the class scan and the full
    scan return identical verdicts.

    The class key of each term comes from _f4_keys, and the witness
    terms of a covering triple from _f4_witnesses.  A case whose scan
    was cut short by the budget with no hit is inconclusive.  A NaN or
    negative budget raises ValueError."""
    _check_budget(budget_seconds)
    t0 = time.monotonic()
    rep = Report("pi3-search-in-f4")
    rep.set("max_size", max_size)
    classes: dict[tuple[int, int], int] = {}
    nterms = 0
    for key in _f4_keys(max_size):
        nterms += 1
        classes[key] = classes.get(key, 0) + 1
        if budget_seconds is not None and time.monotonic() - t0 > budget_seconds:
            rep.set("terms_seen", nterms)
            rep.status = INCONCLUSIVE
            rep.set("stopped", "during term enumeration")
            return rep
    rep.set("terms", nterms)
    rep.set("mask_classes", len(classes))
    rep.set("triples_represented", comb(nterms + 2, 3))

    cases = (Report("case1-interval-form"), Report("case2-singleton-form"))
    reps: dict[tuple[int, int], Term] = {}
    valid = 0
    stopped = False
    for key_triple in itertools.combinations_with_replacement(sorted(classes), 3):
        ok, *conditions = _triple_verdict(key_triple)
        if not ok:
            continue
        valid += 1
        for case, c in zip(cases, conditions):
            if c is not None:
                reps = reps or _f4_witnesses(max_size)
                case.add_line(keys=repr(key_triple), condition=c,
                              witness=[print_term(reps[k]) for k in key_triple])
        if budget_seconds is not None and time.monotonic() - t0 > budget_seconds:
            rep.status = INCONCLUSIVE
            rep.set("stopped", "during triple scan")
            stopped = True
            break
    rep.set("valid_triples_by_class", valid)
    for case in cases:
        case.set("covering_triples", len(case.lines))
        case.status = FAIL if case.lines else INCONCLUSIVE if stopped else PASS
        rep.add_sub(case)
    return rep


def _subterms(*terms: Term) -> set[Term]:
    """Every subterm of terms, found with an explicit stack at any depth."""
    seen: set[Term] = set()
    stack = list(terms)
    while stack:
        u = stack.pop()
        if u not in seen:
            seen.add(u)
            stack.extend(u.ops)
    return seen


def separate_terms(s: Term, t: Term) -> Report:
    """Tell two inequivalent terms apart in the completion by cuts of the
    order P of their subterms' canonical forms, never built.  A cut is a
    bitmask over P: a generator goes to its principal cut, a meet to the
    AND of its operands' cuts, a join to the lower bounds of the upper
    bounds of their OR.  Each subterm's form is the join or meet in P of
    its operands' forms, which the completion keeps (Davey and Priestley,
    Introduction to Lattices and Order, ch. 7), so each subterm goes to
    the principal cut of its form.  Operands are smaller than their
    terms, so one loop in size order reaches them first."""
    if equal(s, t):
        raise ValueError("terms are equal; nothing separates them")
    rep = Report("separate-terms")
    rep.set("s", s)
    rep.set("t", t)
    subs = sorted(_subterms(s, t), key=operator.attrgetter("size"))
    forms = sorted({canonical_form(u) for u in subs}, key=term_key)
    rep.set("subterm_forms", len(forms))
    up = [sum(1 << j for j, v in enumerate(forms) if leq(u, v)) for u in forms]
    down = [sum(1 << j for j, r in enumerate(up) if r >> i & 1) for i in range(len(up))]
    full = (1 << len(forms)) - 1

    def bound(rows: list[int], m: int) -> int:
        return functools.reduce(operator.and_, (rows[p] for p in _bits(m)), full)

    cut = {u: down[forms.index(u)] for u in subs if u.kind == GEN}
    for u in subs[len(cut):]:   # the generators, of size 0, come first
        c = [cut[o] for o in u.ops]
        cut[u] = (functools.reduce(operator.and_, c) if u.kind == MEET
                  else bound(down, bound(up, functools.reduce(operator.or_, c))))
    rep.set("s_value", print_term(forms[down.index(cut[s])]))
    rep.set("t_value", print_term(forms[down.index(cut[t])]))
    rep.status = PASS if cut[s] != cut[t] else FAIL
    return rep
