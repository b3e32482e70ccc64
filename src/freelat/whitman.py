"""Order, equality, and canonical forms in free lattices.

leq decides s <= t in the free lattice by Whitman's recursion: a join is
below t iff every joinand is; s is below a meet iff it is below every
meetand; a generator is below a join iff it is below some joinand, and
dually; and a meet is below a join iff some meetand is below the whole
join or the whole meet is below some joinand.  Generators are below each
other only if identical.  Results are memoized for the process lifetime,
keyed on interned term identity.

canonical_form rewrites a term to the shortest join-of-meets/meet-of-joins
normal form: operands canonicalized first, same-kind nesting flattened,
operands absorbed by the rest dropped, and a meetand u of a joinand with
u below the whole join promoted in its place (dually inside meets).  Two
terms denote the same free-lattice element iff their canonical forms are
the identical object.

promotable is the half of the canonical-form test (Whitman; Freese,
Ježek and Nation, Free Lattices, Thm 1.18) that enumerate_terms cannot
check pair by pair: given operands that are canonical, key-sorted,
distinct and none of the node's own kind, the node is canonical iff
they form an antichain and no operand's operand lies below the whole
join (dually, above the whole meet).  It runs Whitman's recursion
against the operand tuple, so the candidate node is never built.
"""

from __future__ import annotations

from typing import Sequence

from .terms import (
    GEN,
    JOIN,
    MEET,
    GeneratorSet,
    Term,
    _node,
    enumerate_terms,
    gen,
    join,
    meet,
    substitute,
    term_key,
)

_LEQ: dict[tuple[Term, Term], bool] = {}


def leq(s: Term, t: Term) -> bool:
    if s is t:
        return True
    key = (s, t)
    r = _LEQ.get(key)
    if r is None:
        if s.kind == JOIN:
            r = all(leq(o, t) for o in s.ops)
        elif t.kind == MEET:
            r = all(leq(s, o) for o in t.ops)
        elif s.kind == GEN:
            # t is a generator or a join here
            r = s is t if t.kind == GEN else any(leq(s, o) for o in t.ops)
        elif t.kind == GEN:
            r = any(leq(o, t) for o in s.ops)
        else:
            # meet vs join: Whitman's condition (W)
            r = any(leq(o, t) for o in s.ops) or any(leq(s, o) for o in t.ops)
        _LEQ[key] = r
    return r


def equal(s: Term, t: Term) -> bool:
    return s is t or (leq(s, t) and leq(t, s))


_CANON: dict[Term, Term] = {}


def canonical_form(t: Term) -> Term:
    if t.kind == GEN:
        return t
    r = _CANON.get(t)
    if r is not None:
        return r
    kind = t.kind
    other = MEET if kind == JOIN else JOIN
    work: list[Term] = []
    for o in t.ops:
        c = canonical_form(o)
        work.extend(c.ops if c.kind == kind else (c,))
    work = sorted(set(work), key=term_key)
    while True:
        whole = _node(kind, tuple(work))
        promoted = False
        for i, o in enumerate(work):
            if o.kind != other:
                continue
            for u in o.ops:
                # u covers the whole operand: joins absorb such a meetand's
                # meet upward, meets dually
                if leq(u, whole) if kind == JOIN else leq(whole, u):
                    del work[i]
                    work.extend(u.ops if u.kind == kind else (u,))
                    work = sorted(set(work), key=term_key)
                    promoted = True
                    break
            if promoted:
                break
        if promoted:
            continue
        dropped = False
        if len(work) >= 2:
            for i, o in enumerate(work):
                rest = _node(kind, tuple(work[:i] + work[i + 1:]))
                if leq(o, rest) if kind == JOIN else leq(rest, o):
                    del work[i]
                    dropped = True
                    break
        if not dropped:
            break
    r = _node(kind, tuple(work))
    _CANON[t] = r
    if r is not t:
        _CANON[r] = r
    return r


def _under(u: Term, kind: str, ops: tuple[Term, ...]) -> bool:
    # u <= join(*ops) for kind JOIN, meet(*ops) <= u for kind MEET
    if u.kind == kind:
        return all(_under(o, kind, ops) for o in u.ops)
    if any(leq(u, o) if kind == JOIN else leq(o, u) for o in ops):
        return True
    # (W) for a meet below a join, dually
    return u.kind != GEN and any(_under(o, kind, ops) for o in u.ops)


def promotable(kind: str, ops: tuple[Term, ...]) -> bool:
    """Some operand of an operand of kind(*ops) lies below the whole join
    (above the whole meet), so canonical_form would promote it.  The ops
    are gens and terms of the other kind."""
    return any(_under(u, kind, ops) for o in ops if o.kind != GEN for u in o.ops)


def ni_predicate(terms: Sequence[Term]) -> bool:
    """Some term is below the join of the others, or above their meet."""
    ts = list(terms)
    if len(ts) < 2:
        raise ValueError("need at least two terms")
    for i, t in enumerate(ts):
        rest = ts[:i] + ts[i + 1:]
        if leq(t, join(*rest)) or leq(meet(*rest), t):
            return True
    return False


def generates_free(terms: Sequence[Term]) -> bool:
    """Do these four elements generate a free sublattice on four generators?"""
    ts = list(terms)
    if len(ts) != 4:
        raise ValueError(f"need exactly four terms, got {len(ts)}")
    return not ni_predicate(ts)


def fixed_point_search(p: Term, var: str, gens: GeneratorSet,
                       max_size: int) -> Term | None:
    """First canonical term w with p[var := w] equal to w, in enumeration
    order over terms of size <= max_size; None if there is none that small.

    Kept on purpose, though nothing else in the package calls it: it is
    the F_n side of the fixed-point contrast behind the
    universal-existential sentence separating F_n from its completion
    H_n = DM(F_n).  A complete lattice gives every monotone polynomial a
    least fixed point (Tarski; finlat.tarski_lfp, acceptance check c10);
    in F_n a fixed point has to be a term, and this looks for one up to a
    size bound."""
    base = {n: gen(n) for n in gens.names}
    for w in enumerate_terms(gens, max_size):
        amap = dict(base)
        amap[var] = w
        if equal(substitute(p, amap), w):
            return w
    return None
