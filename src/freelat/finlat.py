"""Finite posets and lattices on integer element indices.

The order is stored as bitmask rows: up[i] is the set of j with i <= j
and down[i] the set of j with j <= i, both including i.  A FiniteLattice
additionally carries full join and meet tables and is validated at
construction: if some pair lacks a least upper bound or a greatest lower
bound, NotALatticeError names the offending pair.  The join of i and j
is taken to be the lowest index in up[i] & up[j] and the meet the
highest index in down[i] & down[j], each confirmed by one mask test;
only when the test fails is the set scanned for its least (greatest)
element.  When indices run along a linear extension, as they do for
from_covers, double, generated_sublattice and dm_completion, the test
never fails.  The dual is made once, from this object's rows and tables
swapped (up with down, joins with meets, bottom with top), so it shares
them and is not checked again; it links back to this object weakly, so
the two form no reference cycle.

Join covers and the dependency rank rest on Day's D relation (A. Day,
Canad. J. Math. 31, 1979): a join irreducible q != a lies in D(a) iff
some x has a <= q+x but not a <= q_*+x, where q_* is the lower cover of
q.  These q are exactly the members of the minimal nontrivial join
covers of a.  Covers, irreducibles, D, the minimal join covers, the
ranks, the dual and the sublattice generated by each set of elements
asked about are computed once per lattice object and kept on it, so the
lists handed out are shared and must not be changed; no size is capped.
"""

from __future__ import annotations

import weakref
from typing import Iterable, Iterator, Sequence


def _bits(mask: int) -> Iterator[int]:
    while mask:
        b = mask & -mask
        yield b.bit_length() - 1
        mask ^= b


class NotALatticeError(ValueError):
    pass


class FinitePoset:
    __slots__ = ("n", "up", "down", "labels", "name", "_covers", "_lower",
                 "_upper", "_dual", "__weakref__")

    def __init__(self, up: Sequence[int], labels: Sequence[str] | None = None,
                 name: str = "P"):
        n = len(up)
        if n == 0:
            raise ValueError("empty poset")
        self.n = n
        self.up = list(up)
        for i, row in enumerate(self.up):
            if row >> n:
                raise ValueError(f"up[{i}] mentions elements out of range")
            if not (row >> i) & 1:
                raise ValueError(f"order not reflexive at element {i}")
        for i in range(n):
            for j in _bits(self.up[i]):
                if i != j and (self.up[j] >> i) & 1:
                    raise ValueError(f"order cycle between elements {i} and {j}")
                if self.up[j] & ~self.up[i]:
                    raise ValueError(f"order not transitive at {i} <= {j}")
        down = [0] * n
        for i in range(n):
            for j in _bits(self.up[i]):
                down[j] |= 1 << i
        self.down = down
        self.labels = list(labels) if labels is not None else [str(i) for i in range(n)]
        if len(self.labels) != n:
            raise ValueError(f"{len(self.labels)} labels for {n} elements")
        if len(set(self.labels)) != n:
            raise ValueError("duplicate labels")
        self.name = name
        self._reset()

    def _reset(self) -> None:
        """Empty the caches; the dual starts from here too."""
        self._covers = self._lower = self._upper = self._dual = None

    def leq(self, i: int, j: int) -> bool:
        return bool((self.up[i] >> j) & 1)

    def covers(self) -> list[tuple[int, int]]:
        """All pairs (lo, hi) with hi an upper cover of lo, sorted."""
        if self._covers is None:
            cs = []
            for i in range(self.n):
                for j in _bits(self.up[i] & ~(1 << i)):
                    if not (self.up[i] & self.down[j] & ~(1 << i) & ~(1 << j)):
                        cs.append((i, j))
            self._covers = sorted(cs)
            self._lower = [[] for _ in range(self.n)]
            self._upper = [[] for _ in range(self.n)]
            for a, b in self._covers:
                self._lower[b].append(a)
                self._upper[a].append(b)
        return self._covers

    def lower_covers(self, i: int) -> list[int]:
        self.covers()
        return self._lower[i]

    def upper_covers(self, i: int) -> list[int]:
        self.covers()
        return self._upper[i]

    def heights(self) -> list[int]:
        """Length of the longest chain up to each element from a minimal one."""
        h = [0] * self.n
        for i in sorted(range(self.n), key=lambda k: self.down[k].bit_count()):
            lc = self.lower_covers(i)
            h[i] = 1 + max(h[a] for a in lc) if lc else 0
        return h

    def index_of(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise KeyError(f"no element labeled {label!r} in {self.name}") from None

    def dual(self):
        """The order turned upside down, of the same class; made once from
        this object's swapped rows.  Its own dual is this object while it
        lives: the dual links back by a weak reference, so the two form no
        reference cycle and a dropped lattice is freed at once."""
        d = self._dual
        if type(d) is weakref.ref:
            d = d()
        if d is None:
            d = self._dual = type(self).__new__(type(self))
            self._swap_into(d)
            d._reset()
            d._dual = weakref.ref(self)
        return d

    def _swap_into(self, d) -> None:
        d.n, d.up, d.down, d.labels = self.n, self.down, self.up, self.labels
        d.name = self.name + ".op"

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name} n={self.n}>"


class FiniteLattice(FinitePoset):
    __slots__ = ("joins", "meets", "bottom", "top", "_jis", "_D", "_covs",
                 "_rank", "_subs")

    def __init__(self, up: Sequence[int], labels: Sequence[str] | None = None,
                 name: str = "L"):
        super().__init__(up, labels, name)
        n, up, down = self.n, self.up, self.down
        joins = [[0] * n for _ in range(n)]
        meets = [[0] * n for _ in range(n)]
        for i in range(n):
            ui, di, ji, mi = up[i], down[i], joins[i], meets[i]
            for j in range(i, n):
                m = ui & up[j]
                k = (m & -m).bit_length() - 1
                if not m or m & ~up[k]:
                    k = self._least(m)
                    if k is None:
                        raise NotALatticeError(
                            f"{name}: no least upper bound of "
                            f"{self.labels[i]!r} and {self.labels[j]!r}")
                ji[j] = joins[j][i] = k
                m = di & down[j]
                k = m.bit_length() - 1
                if not m or m & ~down[k]:
                    k = self._greatest(m)
                    if k is None:
                        raise NotALatticeError(
                            f"{name}: no greatest lower bound of "
                            f"{self.labels[i]!r} and {self.labels[j]!r}")
                mi[j] = meets[j][i] = k
        self.joins = joins
        self.meets = meets
        full = (1 << n) - 1
        self.bottom = self._least(full)
        self.top = self._greatest(full)

    def _reset(self) -> None:
        super()._reset()
        self._jis = self._D = self._rank = None
        self._covs = {}
        self._subs = {}

    def _swap_into(self, d) -> None:
        super()._swap_into(d)
        d.joins, d.meets = self.meets, self.joins
        d.bottom, d.top = self.top, self.bottom

    def _least(self, mask: int) -> int | None:
        for k in _bits(mask):
            if not mask & ~self.up[k]:
                return k
        return None

    def _greatest(self, mask: int) -> int | None:
        for k in _bits(mask):
            if not mask & ~self.down[k]:
                return k
        return None

    def join_all(self, elems: Iterable[int]) -> int:
        r = self.bottom
        for e in elems:
            r = self.joins[r][e]
        return r


def _transitive_rows(n: int, covers: Iterable[tuple[int, int]]) -> list[int]:
    up = [1 << i for i in range(n)]
    for lo, hi in covers:
        if not (0 <= lo < n and 0 <= hi < n):
            raise ValueError(f"cover ({lo}, {hi}) out of range for {n} elements")
        if lo == hi:
            raise ValueError(f"cover ({lo}, {hi}) relates an element to itself")
        up[lo] |= 1 << hi
    changed = True
    while changed:
        changed = False
        for i in range(n):
            acc = up[i]
            for j in _bits(up[i]):
                acc |= up[j]
            if acc != up[i]:
                up[i] = acc
                changed = True
    return up


def poset_from_covers(name: str, n: int, covers: Iterable[tuple[int, int]],
                      labels: Sequence[str] | None = None) -> FinitePoset:
    return FinitePoset(_transitive_rows(n, covers), labels, name)


def from_covers(name: str, n: int, covers: Iterable[tuple[int, int]],
                labels: Sequence[str] | None = None) -> FiniteLattice:
    return FiniteLattice(_transitive_rows(n, covers), labels, name)


def join_irreducibles(L: FiniteLattice) -> list[int]:
    """Elements with exactly one lower cover; the bottom never qualifies."""
    if L._jis is None:
        L._jis = [i for i in range(L.n) if len(L.lower_covers(i)) == 1]
    return L._jis


def generated_sublattice(L: FiniteLattice, elems: Iterable[int]
                         ) -> tuple[FiniteLattice, list[int], dict[int, int]]:
    """The sublattice generated by elems, its elements listed as indices
    of L in increasing order, and the reverse index map.

    Kept on L per generating set and per generated set, so generating
    sets with the same closure share one answer."""
    key = frozenset(elems)
    sub = L._subs.get(key)
    if sub is None:
        gen = set(key)
        frontier = list(gen)
        while frontier:
            fresh = []
            for a in list(gen):
                for b in frontier:
                    for c in (L.joins[a][b], L.meets[a][b]):
                        if c not in gen:
                            gen.add(c)
                            fresh.append(c)
            frontier = fresh
        closed = frozenset(gen)
        sub = L._subs.get(closed)
        if sub is None:
            to_L = sorted(gen)
            up = [sum(1 << j for j, b in enumerate(to_L) if L.leq(a, b)) for a in to_L]
            S = FiniteLattice(up, [L.labels[a] for a in to_L], L.name + ".im")
            sub = L._subs[closed] = (S, to_L, {a: i for i, a in enumerate(to_L)})
        L._subs[key] = sub
    return sub


def check_W(L: FiniteLattice) -> tuple[bool, tuple[int, int, int, int] | None]:
    """Does every comparison a*b <= c+d resolve through one of the four
    one-sided comparisons?  Returns the first failing quadruple if not."""
    n, up, joins, meets = L.n, L.up, L.joins, L.meets
    for a in range(n):
        for b in range(n):
            m = meets[a][b]
            for c in range(n):
                for d in range(n):
                    j = joins[c][d]
                    if (up[m] >> j) & 1 and not (
                        (up[a] >> j) & 1 or (up[b] >> j) & 1
                        or (up[m] >> c) & 1 or (up[m] >> d) & 1
                    ):
                        return False, (a, b, c, d)
    return True, None


def check_sd_join(L: FiniteLattice) -> tuple[bool, tuple[int, int, int] | None]:
    """a+b = a+c must force a+b = a+(b*c); first failing triple otherwise."""
    n, joins, meets = L.n, L.joins, L.meets
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if joins[a][b] == joins[a][c] != joins[a][meets[b][c]]:
                    return False, (a, b, c)
    return True, None


def check_sd_meet(L: FiniteLattice) -> tuple[bool, tuple[int, int, int] | None]:
    return check_sd_join(L.dual())


def d_relation(L: FiniteLattice) -> list[int]:
    """D(a) for every element a, as a bitmask of join irreducibles.

    q is in D(a) iff q != a and some x has a <= q+x but not a <= q_*+x.
    For each q the elements a with such an x are one union over x of
    down(q+x) minus down(q_*+x).
    """
    if L._D is None:
        D = [0] * L.n
        for q in join_irreducibles(L):
            jq, js = L.joins[q], L.joins[L.lower_covers(q)[0]]
            hit = 0
            for x in range(L.n):
                hit |= L.down[jq[x]] & ~L.down[js[x]]
            for a in _bits(hit & ~(1 << q)):
                D[a] |= 1 << q
        L._D = D
    return L._D


def minimal_join_covers(L: FiniteLattice, a: int) -> list[tuple[int, ...]]:
    """Minimal nontrivial join covers of a, as sorted index tuples.

    A cover is a set C with a <= join(C) but a below no single member;
    C refines D when every element of C is below some element of D, and
    the covers returned are the minimal ones in that order.  Every member
    of a minimal cover lies in D(a), so the search backtracks over
    antichains inside D(a) and stops growing a set once it covers a.
    Computed once per lattice and element.
    """
    out = L._covs.get(a)
    if out is None:
        out = L._covs[a] = _minimal_join_covers(L, a)
    return out


def _minimal_join_covers(L: FiniteLattice, a: int) -> list[tuple[int, ...]]:
    ds = list(_bits(d_relation(L)[a]))
    up, joins = L.up, L.joins
    cands: list[tuple[int, ...]] = []

    def grow(C: list[int], top: int, start: int) -> None:
        for k in range(start, len(ds)):
            c = ds[k]
            if any((up[c] >> d) & 1 or (up[d] >> c) & 1 for d in C):
                continue
            C2, j = C + [c], joins[top][c]
            if not (up[a] >> j) & 1:
                grow(C2, j, k + 1)
            elif not any(L.leq(a, L.join_all(C2[:i] + C2[i + 1:]))
                         for i in range(len(C2))):
                cands.append(tuple(C2))   # no redundant member

    grow([], L.bottom, 0)

    def refines(D: tuple[int, ...], C: tuple[int, ...]) -> bool:
        return all(any(L.leq(d, c) for c in C) for d in D)

    out = [C for C in cands
           if not any(D != C and refines(D, C) for D in cands)]
    return sorted(out, key=lambda C: (len(C), C))


def d_rank(L: FiniteLattice) -> tuple[list[int | None], int | None]:
    """Length of the longest D-path from each element, and the lattice's rank.

    rho[a] = 0 when D(a) is empty (a has no nontrivial join cover), and
    otherwise 1 + the largest rho over D(a); a stays None when it reaches
    a D-cycle.  The second component is the maximum over join
    irreducibles, or None if one of them is unranked: D is then cyclic
    and the lattice is not lower bounded.  Computed once per lattice.
    """
    if L._rank is None:
        D = d_relation(L)
        rho: list[int | None] = [None if D[a] else 0 for a in range(L.n)]
        changed = True
        while changed:
            changed = False
            for a in range(L.n):
                if rho[a] is None:
                    below = [rho[q] for q in _bits(D[a])]
                    if None not in below:
                        rho[a] = 1 + max(below)
                        changed = True
        ranks = [rho[j] for j in join_irreducibles(L)]
        L._rank = rho, None if None in ranks else max(ranks, default=0)
    return L._rank


def d_rank_op(L: FiniteLattice) -> tuple[list[int | None], int | None]:
    return d_rank(L.dual())


def dm_completion(P: FinitePoset) -> tuple[FiniteLattice, list[int]]:
    """Completion by cuts: the lattice of all intersections of principal
    down-sets (the sets closed under lower-then-upper bounds), ordered by
    inclusion, plus the embedding sending p to its principal down-set.

    A completion of more than 4096 elements is refused with ValueError:
    FiniteLattice builds n x n join and meet tables, and the cost grows
    about fourfold per doubling of n (on a 2-vCPU Xeon VM the crowns'
    512-, 1,024- and 2,048-element completions take about 0.13, 0.7 and
    3 s CPU, the last at ~160 MiB peak RSS)."""
    n = P.n
    full = (1 << n) - 1
    closed = {full}
    frontier = [full]
    while frontier:
        fresh = []
        for m in frontier:
            for p in range(n):
                c = m & P.down[p]
                if c not in closed:
                    closed.add(c)
                    fresh.append(c)
        frontier = fresh
        if len(closed) > 4096:
            raise ValueError(f"{P.name}: completion exceeds 4096 elements")
    masks = sorted(closed, key=lambda m: (m.bit_count(), m))
    principal = {P.down[p]: p for p in range(n)}
    labels = []
    for m in masks:
        p = principal.get(m)
        if p is not None:
            labels.append(P.labels[p])
        else:
            maxima = [q for q in _bits(m) if not (P.up[q] & m & ~(1 << q))]
            labels.append("{" + ",".join(sorted(P.labels[q] for q in maxima)) + "}")
    within = [0] * n   # within[p]: the cuts holding p
    for j, m in enumerate(masks):
        for p in _bits(m):
            within[p] |= 1 << j
    up = []
    for m in masks:   # the cuts holding m: those holding each point of m
        row = (1 << len(masks)) - 1
        for p in _bits(m):
            row &= within[p]
        up.append(row)
    L = FiniteLattice(up, labels, P.name + ".dm")
    index = {m: i for i, m in enumerate(masks)}
    embedding = [index[P.down[p]] for p in range(n)]
    return L, embedding


def double(L: FiniteLattice, elems: Iterable[int],
           name: str | None = None) -> FiniteLattice:
    """Replace each element of a convex set by a two-element chain."""
    C = sorted(set(elems))
    for c in C:
        if not 0 <= c < L.n:
            raise ValueError(f"element {c} out of range")
    if not C:
        raise ValueError("nothing to double")
    cset = set(C)
    for a in C:
        for c in C:
            for b in _bits(L.up[a] & L.down[c]):
                if b not in cset:
                    raise ValueError(
                        f"not convex: {L.labels[b]!r} lies between "
                        f"{L.labels[a]!r} and {L.labels[c]!r}")
    # element i becomes the nodes in bits[i]: one, or the chain i.0 < i.1
    bits, labels, k = [], [], 0
    for i in range(L.n):
        if i in cset:
            bits.append(0b11 << k)
            labels += [f"{L.labels[i]}.0", f"{L.labels[i]}.1"]
            k += 2
        else:
            bits.append(1 << k)
            labels.append(L.labels[i])
            k += 1
    up = []
    for i in range(L.n):
        row = 0
        for j in _bits(L.up[i]):
            row |= bits[j]
        up.append(row)
        if i in cset:   # i.1 is above everything i is below, but not i.0
            up.append(row & ~(bits[i] & -bits[i]))
    return FiniteLattice(up, labels, name or L.name + "+")


def tarski_lfp(L: FiniteLattice, p, var: str, assignment: dict[str, int]) -> int:
    """Least fixed point of v -> p(v) over L, by iteration from the bottom.

    The polynomial must be monotone in var under the given assignment of
    the other generators; that is checked exhaustively first.
    """
    from .terms import evaluate

    def f(v: int) -> int:
        amap = dict(assignment)
        amap[var] = v
        return evaluate(p, L, amap)

    vals = [f(v) for v in range(L.n)]
    for a in range(L.n):
        for b in range(L.n):
            if L.leq(a, b) and not L.leq(vals[a], vals[b]):
                raise ValueError(
                    f"not monotone in {var!r}: {L.labels[a]!r} <= {L.labels[b]!r} "
                    f"but images compare the other way")
    v = L.bottom
    for _ in range(L.n + 1):
        nv = vals[v]
        if nv == v:
            return v
        v = nv
    raise AssertionError("iteration failed to stabilize")  # unreachable


def to_dot(P: FinitePoset) -> str:
    """Graphviz source for the cover diagram, bottom-up, one rank per height."""
    out = [f'digraph "{P.name}" {{', "  rankdir=BT;",
           '  node [shape=plaintext, fontsize=11];']
    h = P.heights()
    for i in range(P.n):
        lbl = P.labels[i].replace('"', '\\"')
        out.append(f'  n{i} [label="{lbl}"];')
    for level in range(max(h) + 1):
        grp = [f"n{i};" for i in range(P.n) if h[i] == level]
        if grp:
            out.append("  { rank=same; " + " ".join(grp) + " }")
    for lo, hi in P.covers():
        out.append(f"  n{lo} -> n{hi};")
    out.append("}")
    return "\n".join(out) + "\n"


def find_isomorphism(A: FinitePoset, B: FinitePoset) -> list[int] | None:
    """An order isomorphism A -> B as an index map, or None."""
    if A.n != B.n:
        return None

    def sigs(P: FinitePoset) -> list:
        s = [(P.up[i].bit_count(), P.down[i].bit_count(),
              len(P.lower_covers(i)), len(P.upper_covers(i)))
             for i in range(P.n)]
        for _ in range(P.n):
            nxt = []
            for i in range(P.n):
                above = tuple(sorted(s[j] for j in _bits(P.up[i])))
                below = tuple(sorted(s[j] for j in _bits(P.down[i])))
                nxt.append((s[i], above, below))
            if len(set(nxt)) == len(set(s)):
                s = nxt
                break
            s = nxt
        return s

    sa, sb = sigs(A), sigs(B)
    if sorted(sa) != sorted(sb):
        return None
    cands = [[j for j in range(B.n) if sb[j] == sa[i]] for i in range(A.n)]
    order = sorted(range(A.n), key=lambda i: len(cands[i]))
    image: list[int | None] = [None] * A.n
    used = [False] * B.n

    def extend(k: int) -> bool:
        if k == A.n:
            return True
        i = order[k]
        for j in cands[i]:
            if used[j]:
                continue
            ok = True
            for i2 in order[:k]:
                j2 = image[i2]
                if A.leq(i, i2) != B.leq(j, j2) or A.leq(i2, i) != B.leq(j2, j):
                    ok = False
                    break
            if ok:
                image[i] = j
                used[j] = True
                if extend(k + 1):
                    return True
                image[i] = None
                used[j] = False
        return False

    return image if extend(0) else None  # type: ignore[return-value]
