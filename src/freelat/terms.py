"""Lattice terms over a named generator set.

A term is a generator, a join, or a meet; join and meet nodes are n-ary
(at least two operands) and keep their operands in construction order.
Terms are interned: building the same tree twice yields the same object,
so identity doubles as structural equality and dict keys are cheap.

Each term carries precomputed structural measures:

  size    number of join/meet nodes
  adepth  maximum number of join/meet alternations on a root-to-leaf path
  down    the generators below the term in the free lattice, as a bitmask
  up      the generators above it, likewise

Each generator gets its own bit, the next free one, when it is first
interned, so the bit order is interning order, not the order of any
GeneratorSet.  Generators of a free lattice are join- and meet-prime
(Whitman), so the key (down, up) is compositional: a join has the OR of
its operands' down and the AND of their up, a meet the AND of down and
the OR of up.  s <= t forces s.down within t.down and t.up within s.up;
whitman.leq uses that as an exact filter.

The concrete syntax is `+` for join and `*` for meet, with `*` binding
tighter and juxtaposition of single-letter generators meaning meet, so
"xy+xz+yz" parses as the join of three two-element meets.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

GEN = "gen"
JOIN = "join"
MEET = "meet"

_IDENT = re.compile(r"[A-Za-z][A-Za-z0-9]*")


class Term:
    __slots__ = ("kind", "name", "ops", "size", "adepth", "down", "up", "_printed")

    kind: str
    name: str | None
    ops: tuple["Term", ...]

    def __repr__(self) -> str:
        return f"Term({print_term(self)!r})"

    def __str__(self) -> str:
        return print_term(self)


_INTERN: dict[tuple, Term] = {}
_GEN_BITS = itertools.count()   # bit index of the next new generator


def _make(kind: str, name: str | None, ops: tuple[Term, ...]) -> Term:
    key = (kind, name) if kind == GEN else (kind, ops)
    t = _INTERN.get(key)
    if t is not None:
        return t
    t = Term.__new__(Term)
    t.kind = kind
    t.name = name
    t.ops = ops
    if kind == GEN:
        t.size = 0
        t.adepth = 0
        t.down = t.up = 1 << next(_GEN_BITS)
    else:
        # size, adepth and the key (see node_key) in one pass; a same-kind
        # operand continues this node's run, so it adds no alternation
        size, depth = 1, 0
        d, u = ops[0].down, ops[0].up
        is_join = kind == JOIN
        for o in ops:
            size += o.size
            a = o.adepth - (o.kind == kind)
            if a > depth:
                depth = a
            if is_join:
                d |= o.down
                u &= o.up
            else:
                d &= o.down
                u |= o.up
        t.size = size
        t.adepth = 1 + depth
        t.down = d
        t.up = u
    t._printed = None
    _INTERN[key] = t
    return t


def node_key(kind: str, ops: tuple[Term, ...]) -> tuple[int, int]:
    """The key (down, up) of the join (kind JOIN) or meet of ops, which
    need not be built: OR over a join's down and a meet's up, AND over
    the other."""
    d, u = ops[0].down, ops[0].up
    if kind == JOIN:
        for o in ops:
            d |= o.down
            u &= o.up
    else:
        for o in ops:
            d &= o.down
            u |= o.up
    return d, u


def gen(name: str) -> Term:
    t = _INTERN.get((GEN, name))
    if t is not None:
        return t
    if not _IDENT.fullmatch(name):
        raise ValueError(f"bad generator name: {name!r}")
    return _make(GEN, name, ())


def _node(kind: str, ops: tuple[Term, ...]) -> Term:
    if not ops:
        raise ValueError(f"{kind} needs at least one operand")
    for o in ops:
        if not isinstance(o, Term):
            raise TypeError(f"operand is not a Term: {o!r}")
    if len(ops) == 1:
        return ops[0]
    return _make(kind, None, ops)


def join(*ops: Term) -> Term:
    return _node(JOIN, ops)


def meet(*ops: Term) -> Term:
    return _node(MEET, ops)


@dataclass(frozen=True)
class GeneratorSet:
    names: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.names:
            raise ValueError("generator set is empty")
        if len(set(self.names)) != len(self.names):
            raise ValueError(f"duplicate generator names: {self.names}")
        for n in self.names:
            if not _IDENT.fullmatch(n):
                raise ValueError(f"bad generator name: {n!r}")

    @classmethod
    def from_spec(cls, spec: str) -> "GeneratorSet":
        return cls(tuple(n.strip() for n in spec.split(",") if n.strip()))

    @property
    def rank(self) -> int:
        return len(self.names)

    def terms(self) -> tuple[Term, ...]:
        return tuple(gen(n) for n in self.names)

    def top(self) -> Term:
        return join(*self.terms())

    def bottom(self) -> Term:
        return meet(*self.terms())

    def __contains__(self, name: str) -> bool:
        return name in self.names


class ParseError(ValueError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class _Parser:
    def __init__(self, text: str, gens: GeneratorSet):
        self.text = text
        self.gens = gens
        self.pos = 0

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def parse(self) -> Term:
        t = self.sum()
        self.skip_ws()
        if self.pos != len(self.text):
            raise ParseError(f"unexpected {self.text[self.pos]!r}", self.pos)
        return t

    def sum(self) -> Term:
        parts = [self.prod()]
        while self.peek() == "+":
            self.pos += 1
            parts.append(self.prod())
        return join(*parts)

    def prod(self) -> Term:
        factors, flags = self.atom()
        while True:
            c = self.peek()
            if c == "*":
                self.pos += 1
                nxt, nflags = self.atom()
            elif c == "(" or c.isalpha():
                # juxtaposition: both neighbours must be groups or single letters
                at = self.pos
                nxt, nflags = self.atom()
                if not (flags[-1] and nflags[0]):
                    raise ParseError("juxtaposition needs single-letter generators or groups", at)
            else:
                break
            factors.extend(nxt)
            flags.extend(nflags)
        return meet(*factors)

    def atom(self) -> tuple[list[Term], list[bool]]:
        self.skip_ws()
        if self.pos >= len(self.text):
            raise ParseError("unexpected end of input", self.pos)
        c = self.text[self.pos]
        if c == "(":
            self.pos += 1
            t = self.sum()
            if self.peek() != ")":
                raise ParseError("expected ')'", self.pos)
            self.pos += 1
            return [t], [True]
        m = _IDENT.match(self.text, self.pos)
        if not m:
            raise ParseError(f"unexpected {c!r}", self.pos)
        word = m.group()
        self.pos = m.end()
        if word in self.gens:
            return [gen(word)], [len(word) == 1]
        if all(ch in self.gens for ch in word):
            return [gen(ch) for ch in word], [True] * len(word)
        raise ParseError(f"unknown generator {word!r}", m.start())


def parse_term(text: str, gens: GeneratorSet) -> Term:
    return _Parser(text, gens).parse()


def _bare(kind: str, o: Term) -> bool:
    # a join's operand needs brackets when it is a join, a meet's when it
    # is not a generator
    return o.kind != JOIN if kind == JOIN else o.kind == GEN


def print_term(t: Term) -> str:
    """The concrete syntax of t, kept on t.  When every operand is a
    generator or printed already, their texts are joined directly.
    Otherwise the walk keeps an explicit stack, so nesting depth is not
    bounded by Python's recursion limit; it reuses the text kept on
    subterms printed before, and keeps only t's own, so a deep term costs
    memory linear in its text."""
    s = t._printed
    if s is not None:
        return s
    if t.kind == GEN:
        s = t._printed = t.name
        return s
    texts = [o._printed or o.name for o in t.ops]
    if None not in texts:
        s = t._printed = ("+" if t.kind == JOIN else "*").join(
            x if _bare(t.kind, o) else f"({x})" for o, x in zip(t.ops, texts))
        return s
    out: list[str] = []
    stack: list[Term | str] = [t]
    while stack:
        u = stack.pop()
        if isinstance(u, str):
            out.append(u)
        elif u._printed is not None:
            out.append(u._printed)
        elif u.kind == GEN:
            out.append(u.name)
        else:
            sep = "+" if u.kind == JOIN else "*"
            items: list[Term | str] = []
            for o in u.ops:
                items += (sep, o) if _bare(u.kind, o) else (sep, "(", o, ")")
            stack.extend(reversed(items[1:]))
    s = t._printed = "".join(out)
    return s


def term_key(t: Term) -> tuple[int, int, str]:
    return (t.size, t.adepth, print_term(t))


def _rebuild(t: Term, leaf: Callable[[Term], Term], kinds: dict[str, str]) -> Term:
    """t rebuilt from the bottom up: each generator g as leaf(g), each
    join or meet as a node of kind kinds[its kind] over its rebuilt
    operands.  The walk keeps an explicit stack, so any nesting depth is
    handled; it visits operands left to right."""
    memo: dict[Term, Term] = {}
    stack = [t]
    while stack:
        u = stack[-1]
        if u in memo:
            stack.pop()
        elif u.kind == GEN:
            memo[stack.pop()] = leaf(u)
        else:
            todo = [o for o in u.ops if o not in memo]
            if todo:
                stack.extend(reversed(todo))
            else:
                stack.pop()
                memo[u] = _node(kinds[u.kind], tuple(memo[o] for o in u.ops))
    return memo[t]


def _no_image(g: Term) -> ValueError:
    return ValueError(f"no image for generator {g.name!r}")


def substitute(t: Term, assignment: dict[str, Term]) -> Term:
    """t with each generator replaced by its image in assignment, by
    _rebuild, so the first generator without an image, left to right,
    is the one named in the error."""
    def image(g: Term) -> Term:
        r = assignment.get(g.name)
        if r is None:
            raise _no_image(g)
        return r

    return _rebuild(t, image, {JOIN: JOIN, MEET: MEET})


def evaluate(t: Term, lattice, assignment: dict[str, int]) -> int:
    """Value of t in a finite lattice under a generator assignment.  The
    walk is _value, one module-level recursion that reads generator
    leaves inline.  Its memo, one per call, values a shared subterm once,
    so the cost follows the distinct subterms, not the tree size.  The
    first generator without an image, left to right, is the one named
    in the error."""
    if t.kind != GEN:
        return _value(t, lattice.joins, lattice.meets, assignment, {})
    if t.name not in assignment:
        raise _no_image(t)
    return assignment[t.name]


def _value(u: Term, joins: list[list[int]], meets: list[list[int]],
           assignment: dict[str, int], memo: dict[Term, int]) -> int:
    # the value of the join or meet u, operands left to right
    table = joins if u.kind == JOIN else meets
    r = -1
    for o in u.ops:
        if o.kind == GEN:
            if o.name not in assignment:
                raise _no_image(o)
            v = assignment[o.name]
        else:
            v = memo.get(o)
            if v is None:
                v = memo[o] = _value(o, joins, meets, assignment, memo)
        r = v if r < 0 else table[r][v]
    return r


def dual_term(t: Term) -> Term:
    """Swap joins and meets, by _rebuild.  The dual of a canonical form
    may need its operands re-sorted; run it through canonical_form when
    that matters."""
    return _rebuild(t, lambda g: g, {JOIN: MEET, MEET: JOIN})


def enumerate_terms(gens: GeneratorSet, max_size: int) -> Iterator[Term]:
    """All canonical-form terms of size <= max_size, each exactly once,
    ordered by (size, adepth, printed form): the levels of _levels, with
    the last size's candidates built and sorted here."""
    for s, level in enumerate(_levels(gens, max_size)):
        if s == max_size > 0:
            level = sorted((_make(kind, None, ops) for kind, ops in level),
                           key=term_key)
        yield from level


def _levels(gens: GeneratorSet, max_size: int) -> Iterator[Iterable]:
    """The canonical-form terms level by level: a list of the generators,
    then for each size 1..max_size-1 a list of the built terms of that
    size, both sorted by term_key, and last, when max_size > 0, an
    iterator over the canonical candidates (kind, ops) of size max_size,
    none of them built.  Each candidate is one canonical term, so
    consumers that need only counts or keys (node_key) of the last size
    build nothing there.

    Canonicity is decided on the operands, by Whitman's canonical-form
    theorem (Freese, Ježek and Nation, Free Lattices, Thm 1.18).  The
    candidates are joins of distinct, key-sorted canonical gens and
    meets, and dually; such a join is canonical iff its operands form an
    antichain and no meetand of an operand lies below the whole join.
    _size_combos skips comparable picks as it goes, and whitman.promotion
    checks the second condition against the operand tuple.

    Each operand pool stays sorted by term_key with no re-sort: the
    fresh terms of a size are sorted, and each size is larger than every
    term already pooled.  Beside pool[i], comp[i] has bit j set iff j < i
    and pool[j] is comparable with pool[i].  It is computed once, when
    pool[i] joins the pool, and only against pool terms small enough to
    share a candidate with it; no larger chosen operand can occur beside
    pool[i], so the antichain test of a pick is comp[i] & chosen.  The
    last size joins no pool."""
    # imported here because whitman imports this module
    from .whitman import leq, promotion
    if max_size < 0:
        raise ValueError("max_size must be >= 0")
    base = sorted(gens.terms(), key=term_key)
    yield base
    # node kind -> (pool, comp) of its possible operands: gens and meets
    # for a join, gens and joins for a meet
    feeds: dict[str, tuple[list[Term], list[int]]] = {JOIN: ([], []), MEET: ([], [])}

    def grow(pool: list[Term], comp: list[int], t: Term) -> None:
        limit = max_size - 1 - t.size
        mask = 0
        for j, o in enumerate(pool):
            if o.size > limit:
                break
            if leq(o, t) or leq(t, o):
                mask |= 1 << j
        pool.append(t)
        comp.append(mask)

    for t in base:
        for pool, comp in feeds.values():
            grow(pool, comp, t)
    for s in range(1, max_size + 1):
        cands = ((kind, ops) for kind, (pool, comp) in feeds.items()
                 for ops in _size_combos(pool, s - 1, comp)
                 if promotion(kind, ops) is None)
        if s == max_size:
            yield cands
            return
        fresh = sorted((_make(kind, None, ops) for kind, ops in cands), key=term_key)
        yield fresh
        for t in fresh:
            grow(*feeds[MEET if t.kind == JOIN else JOIN], t)


def _size_combos(pool: list[Term], budget: int,
                 comp: list[int]) -> Iterator[tuple[Term, ...]]:
    # strictly increasing picks from a key-sorted pool, sizes summing to
    # budget, no pick whose comp mask meets the picks already chosen
    out: list[Term] = []

    def rec(start: int, left: int, chosen: int) -> Iterator[tuple[Term, ...]]:
        for i in range(start, len(pool)):
            t = pool[i]
            if t.size > left:
                break  # pool is size-sorted
            if comp[i] & chosen:
                continue
            out.append(t)
            rest = left - t.size
            if rest == 0 and len(out) >= 2:
                yield tuple(out)
            yield from rec(i + 1, rest, chosen | 1 << i)
            out.pop()

    yield from rec(0, budget, 0)
