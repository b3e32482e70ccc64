"""Order, equality, and canonical forms in free lattices.

leq decides s <= t in the free lattice by Whitman's recursion: a join is
below t iff every joinand is; s is below a meet iff it is below every
meetand; a generator is below a join iff it is below some joinand, and
dually; and a meet is below a join iff some meetand is below the whole
join or the whole meet is below some joinand.  Generators are below each
other only if identical.  Results are memoized for the process lifetime,
keyed on interned term identity.

canonical_form rewrites a term to the shortest join-of-meets/meet-of-joins
normal form (Whitman; Freese, Ježek and Nation, Free Lattices, Thm 1.18):
operands canonicalized first and same-kind nesting flattened; then,
while some meetand u of a joinand lies below the whole join, u replaces
that joinand (dually inside meets); then the operands below another
operand (dually, above one) are dropped.  Only the result node is
built.  Two terms denote the same free-lattice element iff their
canonical forms are the identical object.

promotion finds the next such (operand, u) pair.  It runs Whitman's
recursion against the operand tuple, so the node is never built.
enumerate_terms uses it as the half of the canonical-form test it
cannot check pair by pair: given operands that are canonical,
key-sorted, distinct and none of the node's own kind, the node is
canonical iff they form an antichain and promotion finds nothing.
ni_predicate likewise compares each term with the tuple of the others.
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


def _flat(kind: str, ts) -> dict[Term, None]:
    # ts with same-kind nodes opened up, duplicates dropped; a dict keeps
    # the work order fixed from run to run, as a set of terms would not
    out: dict[Term, None] = {}
    for c in ts:
        out.update(dict.fromkeys(c.ops if c.kind == kind else (c,)))
    return out


def canonical_form(t: Term) -> Term:
    if t.kind == GEN:
        return t
    r = _CANON.get(t)
    if r is not None:
        return r
    kind = t.kind
    work = _flat(kind, map(canonical_form, t.ops))
    # promote: the value of the whole never changes, since o <= u <= whole
    while (hit := promotion(kind, tuple(work))) is not None:
        o, u = hit
        del work[o]
        work.update(_flat(kind, (u,)))
    # absorb: with nothing promotable, an operand below the join of the
    # rest is below one other operand (join-prime gens, (W) for meets)
    keep = [o for o in work
            if not any(p is not o and (leq(o, p) if kind == JOIN else leq(p, o))
                       for p in work)]
    r = _node(kind, tuple(sorted(keep, key=term_key)))
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


def promotion(kind: str, ops: tuple[Term, ...]) -> tuple[Term, Term] | None:
    """First (o, u) with o in ops and u an operand of o lying below the
    whole join (above the whole meet) of ops, else None.  The ops are
    gens and terms of the other kind."""
    for o in ops:
        for u in o.ops:
            if _under(u, kind, ops):
                return o, u
    return None


def ni_predicate(terms: Sequence[Term]) -> bool:
    """Some term is below the join of the others, or above their meet."""
    ts = tuple(terms)
    if len(ts) < 2:
        raise ValueError("need at least two terms")
    for i, t in enumerate(ts):
        rest = ts[:i] + ts[i + 1:]
        if _under(t, JOIN, rest) or _under(t, MEET, rest):
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
