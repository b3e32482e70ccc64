"""Lattice terms over a named generator set.

A term is a generator, a join, or a meet; join and meet nodes are n-ary
(at least two operands) and keep their operands in construction order.
Terms are interned: building the same tree twice yields the same object,
so identity doubles as structural equality and dict keys are cheap.

Each term carries precomputed structural measures:

  size    number of join/meet nodes
  adepth  maximum number of join/meet alternations on a root-to-leaf path

The concrete syntax is `+` for join and `*` for meet, with `*` binding
tighter and juxtaposition of single-letter generators meaning meet, so
"xy+xz+yz" parses as the join of three two-element meets.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterator

GEN = "gen"
JOIN = "join"
MEET = "meet"

_IDENT = re.compile(r"[A-Za-z][A-Za-z0-9]*")


class Term:
    __slots__ = ("kind", "name", "ops", "size", "adepth", "_printed")

    kind: str
    name: str | None
    ops: tuple["Term", ...]

    def __repr__(self) -> str:
        return f"Term({print_term(self)!r})"

    def __str__(self) -> str:
        return print_term(self)


_INTERN: dict[tuple, Term] = {}


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
    else:
        t.size = 1 + sum(o.size for o in ops)
        # a same-kind operand continues this node's run: no new alternation
        t.adepth = 1 + max(o.adepth - (o.kind == kind) for o in ops)
    t._printed = None
    _INTERN[key] = t
    return t


def gen(name: str) -> Term:
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


def print_term(t: Term) -> str:
    s = t._printed
    if s is not None:
        return s
    if t.kind == GEN:
        s = t.name
    elif t.kind == JOIN:
        s = "+".join(
            f"({print_term(o)})" if o.kind == JOIN else print_term(o) for o in t.ops
        )
    else:
        s = "*".join(
            print_term(o) if o.kind == GEN else f"({print_term(o)})" for o in t.ops
        )
    t._printed = s
    return s


def term_key(t: Term) -> tuple[int, int, str]:
    return (t.size, t.adepth, print_term(t))


def substitute(t: Term, assignment: dict[str, Term]) -> Term:
    memo: dict[Term, Term] = {}

    def go(u: Term) -> Term:
        r = memo.get(u)
        if r is None:
            if u.kind == GEN:
                r = assignment.get(u.name)
                if r is None:
                    raise ValueError(f"no image for generator {u.name!r}")
            else:
                r = _node(u.kind, tuple(go(o) for o in u.ops))
            memo[u] = r
        return r

    return go(t)


def evaluate(t: Term, lattice, assignment: dict[str, int]) -> int:
    """Value of t in a finite lattice under a generator assignment."""
    memo: dict[Term, int] = {}

    def go(u: Term) -> int:
        if u.kind == GEN:
            if u.name not in assignment:
                raise ValueError(f"no image for generator {u.name!r}")
            return assignment[u.name]
        r = memo.get(u)
        if r is None:
            table = lattice.joins if u.kind == JOIN else lattice.meets
            r = go(u.ops[0])
            for o in u.ops[1:]:
                r = table[r][go(o)]
            memo[u] = r
        return r

    return go(t)


def dual_term(t: Term) -> Term:
    """Swap joins and meets.  The dual of a canonical form may need its
    operands re-sorted; run it through canonical_form when that matters."""
    memo: dict[Term, Term] = {}

    def go(u: Term) -> Term:
        r = memo.get(u)
        if r is None:
            if u.kind == GEN:
                r = u
            else:
                r = _node(MEET if u.kind == JOIN else JOIN, tuple(go(o) for o in u.ops))
            memo[u] = r
        return r

    return go(t)


def enumerate_terms(gens: GeneratorSet, max_size: int) -> Iterator[Term]:
    """All canonical-form terms of size <= max_size, each exactly once,
    ordered by (size, adepth, printed form).

    Canonicity is decided on the operands, by Whitman's canonical-form
    theorem (Freese, Ježek and Nation, Free Lattices, Thm 1.18).  The
    candidates are joins of distinct, key-sorted canonical gens and
    meets, and dually; such a join is canonical iff its operands form an
    antichain and no meetand of an operand lies below the whole join.
    _size_combos skips comparable picks as it goes, whitman.promotion
    checks the second condition against the operand tuple, and only the
    kept terms are built."""
    # imported here because whitman imports this module
    from .whitman import leq, promotion
    if max_size < 0:
        raise ValueError("max_size must be >= 0")
    base = sorted(gens.terms(), key=term_key)
    yield from base
    # operands of a canonical join are canonical gens and meets, and dually
    join_pool: list[Term] = list(base)   # usable inside meets
    meet_pool: list[Term] = list(base)   # usable inside joins
    for s in range(1, max_size + 1):
        fresh: list[Term] = []
        for kind, pool in ((JOIN, meet_pool), (MEET, join_pool)):
            for ops in _size_combos(pool, s - 1, leq):
                if promotion(kind, ops) is None:
                    fresh.append(_make(kind, None, ops))
        fresh.sort(key=term_key)
        yield from fresh
        for t in fresh:
            (join_pool if t.kind == JOIN else meet_pool).append(t)
        join_pool.sort(key=term_key)
        meet_pool.sort(key=term_key)


def _size_combos(pool: list[Term], budget: int, leq) -> Iterator[tuple[Term, ...]]:
    # strictly increasing picks from a key-sorted pool, sizes summing to
    # budget, no pick comparable under leq to one already chosen
    out: list[Term] = []

    def rec(start: int, left: int) -> Iterator[tuple[Term, ...]]:
        for i in range(start, len(pool)):
            t = pool[i]
            if t.size > left:
                break  # pool is size-sorted
            if any(leq(o, t) or leq(t, o) for o in out):
                continue
            out.append(t)
            rest = left - t.size
            if rest == 0 and len(out) >= 2:
                yield tuple(out)
            yield from rec(i + 1, rest)
            out.pop()

    yield from rec(0, budget)
