"""Homomorphisms from a finitely generated free lattice to a finite
lattice, and the interval structure of their kernels.

A Hom is fixed by generator images.  When the image sublattice has
finite join-cover rank, every element a of it has a least preimage
beta(a).  For a join irreducible q, beta(q) is the meet of the
generators sent above q with the join of beta over each minimal join
cover of q.  Every cover member lies in D(q) and so has a lower D-rank
(Day 1979; Freese, Ježek and Nation, Free Lattices, ch. II), so one
pass over the join irreducibles in rank order computes them all.  beta
of any other element is the join of beta over the join irreducibles
below it.  alpha is the greatest preimage, obtained by running beta in
the dual.  The kernel class of a is then the interval [beta(a),
alpha(a)]; classes partition the free lattice when both sides exist.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .finlat import FiniteLattice, d_rank, join_irreducibles, minimal_join_covers
from .terms import GeneratorSet, Term, dual_term, evaluate, gen, join, meet
from .whitman import Interval, canonical_form, leq


class NotBoundedError(ValueError):
    pass


class Hom:
    __slots__ = ("gens", "target", "images", "_sub", "_betas", "_dualh")

    def __init__(self, gens: GeneratorSet, target: FiniteLattice,
                 images: dict[str, int]):
        missing = [n for n in gens.names if n not in images]
        if missing:
            raise ValueError(f"no image for generators {missing}")
        extra = [n for n in images if n not in gens.names]
        if extra:
            raise ValueError(f"images for unknown generators {extra}")
        for n, v in images.items():
            if not 0 <= v < target.n:
                raise ValueError(f"image of {n!r} out of range: {v}")
        self.gens = gens
        self.target = target
        self.images = dict(images)
        self._sub = None
        self._betas = None
        self._dualh = None

    def __repr__(self) -> str:
        ims = ", ".join(f"{n}={self.target.labels[self.images[n]]}"
                        for n in self.gens.names)
        return f"<Hom onto {self.target.name}: {ims}>"

    def eval(self, t: Term) -> int:
        return evaluate(t, self.target, self.images)

    def image_sublattice(self) -> tuple[FiniteLattice, list[int], dict[int, int]]:
        """The sublattice generated by the images, its elements listed as
        target indices, and the reverse index map."""
        if self._sub is None:
            T = self.target
            elems = set(self.images.values())
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
            self._sub = (S, to_target, {a: i for i, a in enumerate(to_target)})
        return self._sub

    def dual(self) -> "Hom":
        if self._dualh is None:
            self._dualh = Hom(self.gens, self.target.dual(), self.images)
        return self._dualh


def is_lower_bounded(h: Hom) -> bool:
    """Does every image-sublattice element have a least preimage?"""
    S, _, _ = h.image_sublattice()
    return d_rank(S)[1] is not None


def is_upper_bounded(h: Hom) -> bool:
    return is_lower_bounded(h.dual())


def _beta_tables(h: Hom) -> dict[int, Term]:
    """beta of each join irreducible of the image sublattice, filled in
    one pass in D-rank order (see the module docstring)."""
    if h._betas is None:
        S, to_target, _ = h.image_sublattice()
        rho, rank = d_rank(S)
        if rank is None:
            raise NotBoundedError(f"hom onto {h.target.name} is not lower bounded")
        tab: dict[int, Term] = {}
        for q in sorted(join_irreducibles(S), key=rho.__getitem__):
            above = [gen(n) for n in h.gens.names
                     if h.target.leq(to_target[q], h.images[n])]
            parts = [meet(*above) if above else h.gens.top()]
            for C in minimal_join_covers(S, q):
                parts.append(join(*[tab[c] for c in C]))
            tab[q] = canonical_form(meet(*parts))
        h._betas = tab
    return h._betas


def beta(h: Hom, a: int) -> Term:
    """Least term mapping to a, canonical; a must lie in the image sublattice."""
    S, _, to_sub = h.image_sublattice()
    if a not in to_sub:
        raise ValueError(
            f"{h.target.labels[a]!r} is not in the image sublattice of the hom")
    tab = _beta_tables(h)
    s = to_sub[a]
    parts = [tab[q] for q in sorted(tab) if S.leq(q, s)]
    if not parts:
        return h.gens.bottom()
    return canonical_form(join(*parts))


def alpha(h: Hom, a: int) -> Term:
    """Greatest term mapping to a: beta of the dual, dualized back."""
    try:
        bd = beta(h.dual(), a)
    except NotBoundedError:
        raise NotBoundedError(f"hom onto {h.target.name} is not upper bounded") from None
    return canonical_form(dual_term(bd))


def class_of(h: Hom, t: Term) -> Interval:
    """The kernel class of t: all terms with the same image."""
    a = h.eval(t)
    return Interval(beta(h, a), alpha(h, a))


@dataclass(frozen=True)
class ClassEntry:
    element: int
    label: str
    lo: Term
    hi: Term


@dataclass
class ClassTable:
    hom: Hom
    entries: list[ClassEntry]

    def entry_for(self, a: int) -> ClassEntry:
        for e in self.entries:
            if e.element == a:
                return e
        raise KeyError(f"element {a} has no kernel class entry")

    def class_of_term(self, t: Term) -> ClassEntry:
        return self.entry_for(self.hom.eval(t))


def kernel_table(h: Hom) -> ClassTable:
    """One interval per image-sublattice element.  Sanity of the adjoints
    is asserted: endpoints map back to their element and distinct classes
    do not overlap."""
    S, to_target, _ = h.image_sublattice()
    entries = []
    for s in range(S.n):
        a = to_target[s]
        lo = beta(h, a)
        hi = alpha(h, a)
        assert leq(lo, hi)
        assert h.eval(lo) == a == h.eval(hi)
        entries.append(ClassEntry(a, h.target.labels[a], lo, hi))
    for i, e in enumerate(entries):
        for e2 in entries[i + 1:]:
            # intervals meet iff each low end sits under the other's high end
            assert not (leq(e.lo, e2.hi) and leq(e2.lo, e.hi)), \
                f"classes of {e.label} and {e2.label} overlap"
    return ClassTable(h, entries)


@dataclass
class Tower:
    stages: list[Hom]

    def __post_init__(self) -> None:
        if not self.stages:
            raise ValueError("tower needs at least one stage")
        g = self.stages[0].gens
        for j, h in enumerate(self.stages):
            if h.gens.names != g.names:
                raise ValueError(f"stage {j} uses different generators")
            if not is_lower_bounded(h):
                raise NotBoundedError(f"stage {j} ({h.target.name}) is not lower bounded")
            if not is_upper_bounded(h):
                raise NotBoundedError(f"stage {j} ({h.target.name}) is not upper bounded")


@dataclass
class CoherentSequence:
    term: Term
    lows: list[Term]
    highs: list[Term]
    rising: list[bool]
    falling: list[bool]
    brackets: list[bool]
    chain_ok: bool
    tower: Tower = field(repr=False, compare=False)


def coherent_sequence(tower: Tower, t: Term) -> CoherentSequence:
    """Per-stage kernel-class endpoints of t, with the chain checks:
    lows may only rise, highs may only fall, and every stage brackets t."""
    lows, highs = [], []
    for h in tower.stages:
        a = h.eval(t)
        lows.append(beta(h, a))
        highs.append(alpha(h, a))
    rising = [leq(lows[j], lows[j + 1]) for j in range(len(lows) - 1)]
    falling = [leq(highs[j + 1], highs[j]) for j in range(len(highs) - 1)]
    brackets = [leq(lows[j], t) and leq(t, highs[j]) for j in range(len(lows))]
    ok = all(rising) and all(falling) and all(brackets)
    return CoherentSequence(t, lows, highs, rising, falling, brackets, ok, tower)


def compare_coherent(c1: CoherentSequence, c2: CoherentSequence) -> str:
    """Stage-wise comparison of two elements through the same tower:
    'equal', 'leq', 'geq', or 'incomparable'."""
    if c1.tower is not c2.tower:
        raise ValueError("sequences come from different towers")
    below = above = True
    for h in c1.tower.stages:
        x, y = h.eval(c1.term), h.eval(c2.term)
        below = below and h.target.leq(x, y)
        above = above and h.target.leq(y, x)
    if below and above:
        return "equal"
    if below:
        return "leq"
    if above:
        return "geq"
    return "incomparable"


@dataclass
class Classification:
    sequence: CoherentSequence
    stable: bool
    note: str


def classify_element(tower: Tower, t: Term) -> Classification:
    """Is the class of t already stable within this tower?  Stable means
    the last two stages agree on both endpoints."""
    if len(tower.stages) < 2:
        raise ValueError("need at least two stages to judge stability")
    seq = coherent_sequence(tower, t)
    stable = seq.lows[-1] is seq.lows[-2] and seq.highs[-1] is seq.highs[-2]
    note = "stable within tower" if stable else "still refining at the last stage"
    return Classification(seq, stable, note)
