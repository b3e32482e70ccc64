"""Stock finite lattices.

The catalog covers every lattice with at most five elements up to
isomorphism (ten of them); the extended catalog adds a few mid-size
shapes that are cheap to check exhaustively.  build_fd3 constructs the
free distributive lattice on x, y, z without constants, as the 18
nonconstant monotone Boolean functions; build_a doubles its six
join-of-atoms / meet-of-coatoms elements one at a time.

fd3 and A (build_fd3() and build_a() in its default order) are built
once per process and shared by every caller: the figure reports, the
doubled map and the builtin:fd3 and builtin:A lattices of the command
line.  A shared lattice is read-only, and the caches finlat keeps on it
(covers, ranks, its dual, its generated sublattices) live as long as it
does; the cache_clear of build_fd3 and _default_a drops both.  Every
other builder, catalog() and extended_catalog() included, and build_a
with an explicit order, makes a new object on each call.
"""

from __future__ import annotations

import functools

from .finlat import FiniteLattice, double, from_covers
from .terms import GeneratorSet


def chain(k: int) -> FiniteLattice:
    if k < 1:
        raise ValueError("chain needs at least one element")
    return from_covers(f"chain{k}", k, [(i, i + 1) for i in range(k - 1)])


def diamond() -> FiniteLattice:
    return from_covers("diamond", 4, [(0, 1), (0, 2), (1, 3), (2, 3)],
                       ["0", "a", "b", "1"])


def diamond_top() -> FiniteLattice:
    return from_covers("diamond_top", 5,
                       [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)],
                       ["0", "a", "b", "m", "1"])


def diamond_bot() -> FiniteLattice:
    return from_covers("diamond_bot", 5,
                       [(0, 1), (1, 2), (1, 3), (2, 4), (3, 4)],
                       ["0", "m", "a", "b", "1"])


def pentagon() -> FiniteLattice:
    """N5: 0 < a < 1 on one side, 0 < b < c < 1 on the other."""
    return from_covers("pentagon", 5,
                       [(0, 1), (1, 4), (0, 2), (2, 3), (3, 4)],
                       ["0", "a", "b", "c", "1"])


def m3() -> FiniteLattice:
    return from_covers("m3", 5, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)],
                       ["0", "a", "b", "c", "1"])


def cube() -> FiniteLattice:
    covers = []
    for i in range(8):
        for b in (1, 2, 4):
            if not i & b:
                covers.append((i, i | b))
    return from_covers("cube", 8, covers, [f"{i:03b}" for i in range(8)])


def hexagon() -> FiniteLattice:
    return from_covers("hexagon", 6,
                       [(0, 1), (1, 2), (2, 5), (0, 3), (3, 4), (4, 5)],
                       ["0", "a", "b", "c", "d", "1"])


def grid2x3() -> FiniteLattice:
    # product of a 2-chain and a 3-chain; element i*3+j is (i, j)
    covers = []
    for i in range(2):
        for j in range(3):
            if j < 2:
                covers.append((i * 3 + j, i * 3 + j + 1))
            if i < 1:
                covers.append((i * 3 + j, (i + 1) * 3 + j))
    return from_covers("grid2x3", 6, covers,
                       [f"{i}{j}" for i in range(2) for j in range(3)])


def _monotone_tables() -> list[int]:
    tables = []
    for t in range(1, 255):  # skip the two constants
        if all(not (t >> k) & 1 or (t >> (k | b)) & 1
               for k in range(8) for b in (1, 2, 4)):
            tables.append(t)
    return sorted(tables, key=lambda t: (t.bit_count(), t))


def _dnf_label(table: int) -> str:
    points = [k for k in range(8) if (table >> k) & 1]
    minimal = [k for k in points
               if not any(p != k and k | p == k for p in points)]
    prods = ["".join(n for n, b in zip("xyz", (4, 2, 1)) if k & b)
             for k in minimal]
    return "+".join(sorted(prods, key=lambda p: (len(p), p)))


@functools.cache   # shared and read-only, see the module docstring
def build_fd3() -> FiniteLattice:
    """Free distributive lattice on x, y, z (no constants): the eighteen
    nonconstant monotone Boolean functions, ordered pointwise.  Labels
    are minimal disjunctive normal forms and parse as terms."""
    tables = _monotone_tables()
    assert len(tables) == 18
    up = []
    for t in tables:
        row = 0
        for j, u in enumerate(tables):
            if not t & ~u:
                row |= 1 << j
        up.append(row)
    return FiniteLattice(up, [_dnf_label(t) for t in tables], "fd3")


def fd3_doubling_targets(L: FiniteLattice) -> list[int]:
    """Joins of two distinct atoms and meets of two distinct coatoms."""
    atoms = L.upper_covers(L.bottom)
    coatoms = L.lower_covers(L.top)
    out = set()
    for i, a in enumerate(atoms):
        for b in atoms[i + 1:]:
            out.add(L.joins[a][b])
        for c in coatoms[i + 1:]:
            out.add(L.meets[coatoms[i]][c])
    return sorted(out)


def build_a(order: list[str] | None = None) -> FiniteLattice:
    """The 24-element lattice from doubling fd3 at its six atom-join /
    coatom-meet elements, one singleton at a time.  The result does not
    depend on the doubling order; pass one (as labels) to check that.
    With no order this is the shared A, otherwise a new lattice."""
    if order is None:
        return _default_a()
    L = build_fd3()
    for k, lbl in enumerate(order):
        last = k == len(order) - 1
        L = double(L, [L.index_of(lbl)], name="A" if last else f"fd3+{k + 1}")
    return L


@functools.cache   # shared and read-only, see the module docstring
def _default_a() -> FiniteLattice:
    F = build_fd3()
    return build_a(sorted(F.labels[i] for i in fd3_doubling_targets(F)))


def catalog() -> list[FiniteLattice]:
    """Every lattice with at most five elements, up to isomorphism."""
    return [chain(1), chain(2), chain(3), chain(4), chain(5),
            diamond(), diamond_top(), diamond_bot(), pentagon(), m3()]


def extended_catalog() -> list[FiniteLattice]:
    return catalog() + [cube(), hexagon(), grid2x3()]


# the extended catalog by name, plus n5, fd3 and A; the last two shared
_BUILTINS = {
    **{f"chain{k}": functools.partial(chain, k) for k in range(1, 6)},
    "diamond": diamond, "diamond_top": diamond_top, "diamond_bot": diamond_bot,
    "pentagon": pentagon, "n5": pentagon, "m3": m3, "cube": cube,
    "hexagon": hexagon, "grid2x3": grid2x3, "fd3": build_fd3, "A": build_a,
}


def builtin_lattice(name: str) -> FiniteLattice:
    """The named builtin; only that one is built.  fd3 and A are the
    shared, read-only lattices of build_fd3() and build_a(), made on the
    first call and kept for the life of the process with their derived
    caches; every other name gives a new lattice on each call."""
    try:
        make = _BUILTINS[name]
    except KeyError:
        raise KeyError(f"no builtin lattice named {name!r}") from None
    return make()


def pentagon_hom():
    """x, y, z onto the pentagon: x to c, y to b, z to a."""
    from .bhom import Hom

    L = pentagon()
    g = GeneratorSet(("x", "y", "z"))
    return Hom(g, L, {"x": L.index_of("c"), "y": L.index_of("b"),
                      "z": L.index_of("a")})


def doubled_hom():
    """x, y, z onto the 24-element doubled lattice, generator to generator."""
    from .bhom import Hom

    L = build_a()
    g = GeneratorSet(("x", "y", "z"))
    return Hom(g, L, {n: L.index_of(n) for n in g.names})
