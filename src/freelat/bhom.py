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
below it.  alpha, the greatest preimage, is the order dual: the same
pass over the dual of the image sublattice, with joins and meets
swapped, builds it directly.  The kernel class of a is then the
interval [beta(a), alpha(a)]; classes partition the free lattice when
both sides exist.

Maps on one target object with the same set of images share one image
sublattice, kept on the target (finlat.generated_sublattice), and its
cached dual.  beta and alpha depend only on the map onto its image, so
maps with the same generator names, generators' places in the image
sublattice and sublattice order share one kernel, alive while they are:
the two tables and at most one beta and one alpha per sublattice element.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

from .finlat import (
    FiniteLattice,
    _bits,
    d_rank,
    generated_sublattice,
    join_irreducibles,
    minimal_join_covers,
)
from .terms import GeneratorSet, Term, evaluate, gen, join, meet
from .whitman import canonical_form, leq


class NotBoundedError(ValueError):
    pass


class _Kernel:
    __slots__ = ("tables", "answers", "__weakref__")

    def __init__(self):
        self.tables = [None, None]   # beta's and alpha's, indexed by upper
        self.answers = {}   # beta at sublattice index s, alpha at ~s


_KERNELS: weakref.WeakValueDictionary[tuple, _Kernel] = weakref.WeakValueDictionary()


class Hom:
    __slots__ = ("gens", "target", "images", "_sub", "_kernel", "__weakref__")

    def __init__(self, gens: GeneratorSet, target: FiniteLattice,
                 images: dict[str, int]):
        missing = [n for n in gens.names if n not in images]
        if missing:
            raise ValueError(f"no image for generators {missing}")
        extra = [n for n in images if n not in gens.names]
        if extra:
            raise ValueError(f"images for unknown generators {extra}")
        for n, v in images.items():
            if type(v) is not int:
                raise ValueError(f"image of {n!r} is not an integer: {v!r}")
            if not 0 <= v < target.n:
                raise ValueError(f"image of {n!r} out of range: {v}")
        self.gens = gens
        self.target = target
        self.images = dict(images)
        self._sub = self._kernel = None

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


def is_lower_bounded(h: Hom) -> bool:
    """Does every image-sublattice element have a least preimage?"""
    return d_rank(h.image_sublattice()[0])[1] is not None


def is_upper_bounded(h: Hom) -> bool:
    return d_rank(h.image_sublattice()[0].dual())[1] is not None


def _kernel(h: Hom) -> _Kernel:
    """The kernel h shares with every live map of the same generator
    names, their indices in the image sublattice and its order."""
    if h._kernel is None:
        S, _, to_sub = h.image_sublattice()
        key = h.gens.names, tuple(to_sub[h.images[n]] for n in h.gens.names), tuple(S.up)
        h._kernel = _KERNELS.setdefault(key, _Kernel())
    return h._kernel


def _bound_tables(h: Hom, upper: bool) -> dict[int, Term]:
    """beta of each join irreducible of the image sublattice, filled in
    one pass in D-rank order (see the module docstring); with upper,
    alpha of each meet irreducible, by the same pass over the dual."""
    tables = _kernel(h).tables
    tab = tables[upper]
    if tab is None:
        S, _, to_sub = h.image_sublattice()
        L = S.dual() if upper else S
        rho, rank = d_rank(L)
        if rank is None:
            side = "upper" if upper else "lower"
            raise NotBoundedError(f"hom onto {h.target.name} is not {side} bounded")
        cup, cap = (meet, join) if upper else (join, meet)
        none_above = h.gens.bottom() if upper else h.gens.top()
        gens = [(gen(n), to_sub[h.images[n]]) for n in h.gens.names]
        tab = {}
        for q in sorted(join_irreducibles(L), key=rho.__getitem__):
            above = [g for g, v in gens if L.up[q] >> v & 1]
            parts = [cap(*above) if above else none_above]
            for C in minimal_join_covers(L, q):
                parts.append(cup(*[tab[c] for c in C]))
            tab[q] = canonical_form(cap(*parts))
        tables[upper] = tab
    return tab


def _bound(h: Hom, a: int, upper: bool) -> Term:
    """beta(a), or with upper alpha(a): the join (meet) of the table
    entries at or below a in the image sublattice (its dual)."""
    if type(a) is not int or not 0 <= a < h.target.n:
        raise ValueError(f"{a!r} is not an element of {h.target.name}")
    S, _, to_sub = h.image_sublattice()
    if a not in to_sub:
        raise ValueError(
            f"{h.target.labels[a]!r} is not in the image sublattice of the hom")
    key = ~to_sub[a] if upper else to_sub[a]
    answers = _kernel(h).answers
    t = answers.get(key)
    if t is None:
        tab = _bound_tables(h, upper)
        below = (S.up if upper else S.down)[to_sub[a]]
        parts = [tab[q] for q in _bits(below) if q in tab]
        if parts:
            t = canonical_form((meet if upper else join)(*parts))
        else:
            t = h.gens.top() if upper else h.gens.bottom()
        answers[key] = t
    return t


def beta(h: Hom, a: int) -> Term:
    """Least term mapping to a, canonical; a must lie in the image sublattice."""
    return _bound(h, a, False)


def alpha(h: Hom, a: int) -> Term:
    """Greatest term mapping to a, canonical; a must lie in the image sublattice."""
    return _bound(h, a, True)


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
