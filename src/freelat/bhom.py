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

Maps on one target object with the same set of images share one image
sublattice, kept on the target (finlat.generated_sublattice); a map's
dual is handed the dual of that sublattice instead of generating it
again on the dual target.  Each map keeps its beta and alpha answers,
at most one of each per image element.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

from .finlat import (
    FiniteLattice,
    d_rank,
    generated_sublattice,
    join_irreducibles,
    minimal_join_covers,
)
from .terms import GeneratorSet, Term, dual_term, evaluate, gen, join, meet
from .whitman import canonical_form, leq


class NotBoundedError(ValueError):
    pass


class Hom:
    __slots__ = ("gens", "target", "images", "_sub", "_betas", "_dualh",
                 "_lo", "_hi", "__weakref__")

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
        self._lo: dict[int, Term] = {}   # beta and alpha answers by element
        self._hi: dict[int, Term] = {}

    def __repr__(self) -> str:
        ims = ", ".join(f"{n}={self.target.labels[self.images[n]]}"
                        for n in self.gens.names)
        return f"<Hom onto {self.target.name}: {ims}>"

    def eval(self, t: Term) -> int:
        return evaluate(t, self.target, self.images)

    def image_sublattice(self) -> tuple[FiniteLattice, list[int], dict[int, int]]:
        """The sublattice generated by the images, its elements listed as
        target indices, and the reverse index map; shared by every map on
        the same target object with the same set of images."""
        if self._sub is None:
            self._sub = generated_sublattice(self.target, self.images.values())
        return self._sub

    def dual(self) -> "Hom":
        """The same images on the dual target.  Its image sublattice is the
        dual of this map's, and its own dual is this map while this map
        lives: the dual links back by a weak reference, so the two form
        no reference cycle and a dropped map is freed at once."""
        d = self._dualh
        if type(d) is weakref.ref:
            d = d()
        if d is None:
            d = self._dualh = Hom(self.gens, self.target.dual(), self.images)
            S, to_target, to_sub = self.image_sublattice()
            d._sub, d._dualh = (S.dual(), to_target, to_sub), weakref.ref(self)
        return d


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
    lo = h._lo.get(a)
    if lo is None:
        S, _, to_sub = h.image_sublattice()
        if a not in to_sub:
            raise ValueError(
                f"{h.target.labels[a]!r} is not in the image sublattice of the hom")
        tab = _beta_tables(h)
        s = to_sub[a]
        parts = [tab[q] for q in sorted(tab) if S.leq(q, s)]
        lo = canonical_form(join(*parts)) if parts else h.gens.bottom()
        h._lo[a] = lo
    return lo


def alpha(h: Hom, a: int) -> Term:
    """Greatest term mapping to a: beta of the dual, dualized back."""
    hi = h._hi.get(a)
    if hi is None:
        try:
            bd = beta(h.dual(), a)
        except NotBoundedError:
            raise NotBoundedError(
                f"hom onto {h.target.name} is not upper bounded") from None
        hi = h._hi[a] = canonical_form(dual_term(bd))
    return hi


def kernel_table(h: Hom) -> dict[int, tuple[Term, Term]]:
    """The kernel class (beta(a), alpha(a)) of each image-sublattice
    element a, keyed by target index in sublattice order.  Sanity of the
    adjoints is asserted: endpoints map back to their element and
    distinct classes do not overlap."""
    table = {}
    for a in h.image_sublattice()[1]:
        lo = beta(h, a)
        hi = alpha(h, a)
        assert leq(lo, hi)
        assert h.eval(lo) == a == h.eval(hi)
        table[a] = lo, hi
    classes = list(table.items())
    for i, (a, (lo, hi)) in enumerate(classes):
        for a2, (lo2, hi2) in classes[i + 1:]:
            # intervals meet iff each low end sits under the other's high end
            assert not (leq(lo, hi2) and leq(lo2, hi)), \
                f"classes of {h.target.labels[a]} and {h.target.labels[a2]} overlap"
    return table


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
        for j, h in enumerate(self.stages):
            if not is_lower_bounded(h):
                raise NotBoundedError(f"stage {j} ({h.target.name}) is not lower bounded")
            if not is_upper_bounded(h):
                raise NotBoundedError(f"stage {j} ({h.target.name}) is not upper bounded")


def stage_classes(tower: Tower, t: Term) -> list[tuple[Term, Term]]:
    """The kernel class (beta, alpha) of t at each stage."""
    out = []
    for h in tower.stages:
        a = h.eval(t)
        out.append((beta(h, a), alpha(h, a)))
    return out


def compare_stages(tower: Tower, s: Term, t: Term) -> str:
    """Stage-wise comparison of two terms' images through the tower:
    'equal', 'leq', 'geq', or 'incomparable'."""
    below = above = True
    for h in tower.stages:
        x, y = h.eval(s), h.eval(t)
        below = below and h.target.leq(x, y)
        above = above and h.target.leq(y, x)
    if below and above:
        return "equal"
    if below:
        return "leq"
    if above:
        return "geq"
    return "incomparable"
