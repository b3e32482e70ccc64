"""Order, equality, and canonical forms in free lattices.

leq decides s <= t in the free lattice by Whitman's recursion: a join is
below t iff every joinand is; s is below a meet iff it is below every
meetand; and a meet is below a join iff some meetand is below the whole
join or the whole meet is below some joinand (W).  Results are memoized
for the process lifetime, keyed on interned term identity.

Before the memo is consulted, leq reads the generator keys the terms
carry (terms: down, the generators below a term, and up, those above).
In a free lattice every generator is join- and meet-prime, so the key of
a term is exactly the set of generators below and above it.  So s <= t
forces s.down within t.down and t.up within s.up, and a pair that fails
this is not in the order; and when s or t is a generator, the key alone
is the answer.  Neither changes an answer; they only shrink the
recursion and the memo, which holds no pair with a generator.  In (W)
the generator operands go first, so a deep operand is entered only when
no generator settles the pair.  _under (and so promotion and
ni_predicate) applies the same filter to each operand it tests, against
the key of the whole join or meet, computed once per call by node_key.
Every "all operands" or "some operand" test in leq, _under and the
absorb step is a plain loop that returns or breaks at the first operand
that decides it, in the order given above.

canonical_form rewrites a term to the shortest join-of-meets/meet-of-joins
normal form (Whitman; Freese, Ježek and Nation, Free Lattices, Thm 1.18):
operands canonicalized first and same-kind nesting flattened; then,
while some meetand u of a joinand lies below the whole join, u replaces
that joinand (dually inside meets); then the operands below another
operand (dually, above one) are dropped.  Only the result node is
built.  Two terms denote the same free-lattice element iff their
canonical forms are the identical object.  The canonical form is
unique, so when the flattened operands, sorted by term_key, are exactly
the operands of an interned node that is its own canonical form, that
node is the answer and promotion and absorption are skipped; the lookup
is one probe of the kind's intern table, which is keyed by operand
tuple.  A node that is interned but not canonical, such as a raw
x+x*y, is not used.

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

from .terms import _INTERN, GEN, JOIN, MEET, Term, _node, node_key, term_key

_LEQ: dict[tuple[Term, Term], bool] = {}


def leq(s: Term, t: Term) -> bool:
    if s is t:
        return True
    if s.down & ~t.down or t.up & ~s.up:
        return False
    if s.kind == GEN or t.kind == GEN:
        return True   # the key decides a generator on either side
    key = (s, t)
    r = _LEQ.get(key)
    if r is None:
        r = _LEQ[key] = _whitman(s, t)
    return r


def _whitman(s: Term, t: Term) -> bool:
    """s <= t for s and t not generators, one step of the recursion."""
    if s.kind == JOIN:
        for o in s.ops:
            if not leq(o, t):
                return False
        return True
    if t.kind == MEET:
        for o in t.ops:
            if not leq(s, o):
                return False
        return True
    # meet vs join: Whitman's condition (W), the operands the key decides
    # first, so a generator answers before any deep operand is entered
    for o in s.ops:
        if o.kind == GEN and leq(o, t):
            return True
    for o in t.ops:
        if o.kind == GEN and leq(s, o):
            return True
    for o in s.ops:
        if o.kind != GEN and leq(o, t):
            return True
    for o in t.ops:
        if o.kind != GEN and leq(s, o):
            return True
    return False


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
    # the operands canonical, same-kind ones opened up, duplicates dropped;
    # a dict keeps the work order fixed from run to run, as a set would not
    work: dict[Term, None] = {}
    for o in map(canonical_form, t.ops):
        if o.kind == kind:
            work.update(dict.fromkeys(o.ops))
        else:
            work[o] = None
    # the canonical form is unique, so a canonical node with exactly these
    # operands is the answer; a raw node may be interned, hence the check
    r = _INTERN[kind].get(tuple(sorted(work, key=term_key)))
    if r is None or _CANON.get(r) is not r:
        # promote: the value of the whole never changes, since o <= u <= whole
        while (hit := promotion(kind, tuple(work))) is not None:
            o, u = hit
            del work[o]
            work.update(dict.fromkeys(u.ops if u.kind == kind else (u,)))
        # absorb: with nothing promotable, an operand below the join of the
        # rest is below one other operand (join-prime gens, (W) for meets)
        keep = []
        for o in work:
            for p in work:
                if p is not o and (leq(o, p) if kind == JOIN else leq(p, o)):
                    break
            else:
                keep.append(o)
        r = _node(kind, tuple(sorted(keep, key=term_key)))
    _CANON[t] = r
    if r is not t:
        _CANON[r] = r
    return r


def _under(u: Term, kind: str, ops: tuple[Term, ...], down: int, up: int) -> bool:
    """u <= join(*ops) for kind JOIN, meet(*ops) <= u for kind MEET, where
    (down, up) is the key of that whole join or meet, by Whitman's
    recursion on the tuple.  The keys rule a pair out before any
    recursion, and decide it outright when u is a generator."""
    if (u.down & ~down or up & ~u.up) if kind == JOIN else (down & ~u.down or u.up & ~up):
        return False
    if u.kind == GEN:
        return True
    if u.kind == kind:
        for o in u.ops:
            if not _under(o, kind, ops, down, up):
                return False
        return True
    if kind == JOIN:
        for o in ops:
            if leq(u, o):
                return True
    else:
        for o in ops:
            if leq(o, u):
                return True
    # (W) for a meet below a join, dually
    for o in u.ops:
        if _under(o, kind, ops, down, up):
            return True
    return False


def promotion(kind: str, ops: tuple[Term, ...]) -> tuple[Term, Term] | None:
    """First (o, u) with o in ops and u an operand of o lying below the
    whole join (above the whole meet) of ops, else None.  The ops are
    gens and terms of the other kind."""
    down, up = node_key(kind, ops)
    for o in ops:
        for u in o.ops:
            if _under(u, kind, ops, down, up):
                return o, u
    return None


def ni_predicate(terms: Sequence[Term]) -> bool:
    """Some term is below the join of the others, or above their meet."""
    ts = tuple(terms)
    if len(ts) < 2:
        raise ValueError("need at least two terms")
    for i, t in enumerate(ts):
        rest = ts[:i] + ts[i + 1:]
        if (_under(t, JOIN, rest, *node_key(JOIN, rest))
                or _under(t, MEET, rest, *node_key(MEET, rest))):
            return True
    return False


def generates_free(terms: Sequence[Term]) -> bool:
    """Do these four elements generate a free sublattice on four generators?"""
    ts = list(terms)
    if len(ts) != 4:
        raise ValueError(f"need exactly four terms, got {len(ts)}")
    return not ni_predicate(ts)

