"""Ideals of the free lattice presented by generator chains.

The ideal lattice of a free lattice is where semidistributivity breaks:
with the chains y[k+1] = y + x*z[k] and z[k+1] = z + x*y[k], the ideals
X = down(x), Y = union of down(y[k]), Z = union of down(z[k]) satisfy
X meet Y = X meet Z while x*(y+z) lies in X meet (Y join Z) and, as far
as any finite budget can see, in neither X meet Y nor X meet Z.  Ideal
membership along a chain is only semidecidable, so answers here are a
yes with a witness index or an explicit no-up-to-budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .reporting import FAIL, PASS, Report
from .terms import Term, gen, join, meet
from .whitman import leq

YES = "yes"
NO_UP_TO = "no-up-to-budget"


@dataclass(frozen=True)
class MemberAnswer:
    verdict: str
    witness: tuple[int, ...] | None

    def __bool__(self) -> bool:
        return self.verdict == YES


class ChainIdeal:
    """Union of the principal ideals of an increasing term chain, given
    as a list and cut after index budget; the chain is checked to be
    increasing.
    """

    def __init__(self, name: str, terms: Sequence[Term], budget: int):
        if budget < 0:
            raise ValueError("budget must be >= 0")
        self.name = name
        self._terms = list(terms)[:budget + 1]
        if not self._terms:
            raise ValueError(f"ideal {name}: no chain terms")
        for k in range(len(self._terms) - 1):
            if not leq(self._terms[k], self._terms[k + 1]):
                raise ValueError(f"ideal {name}: chain decreases at index {k}")

    def term_at(self, k: int) -> Term:
        return self._terms[min(k, len(self._terms) - 1)]

    @property
    def depth(self) -> int:
        return len(self._terms) - 1

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name} depth={self.depth}>"


def ideal_member(I: ChainIdeal, w: Term) -> MemberAnswer:
    """Is w in the chain's union, with the first index that holds it?"""
    for k in range(I.depth + 1):
        if leq(w, I.term_at(k)):
            return MemberAnswer(YES, (k,))
    return MemberAnswer(NO_UP_TO, None)


def join_member(I: ChainIdeal, J: ChainIdeal, w: Term) -> MemberAnswer:
    """Is w in the ideal join of I and J, i.e. under some i + j?
    Pairs are scanned shallow-first, so the witness is minimal in
    (max(i,j), i, j) order."""
    depth = max(I.depth, J.depth)
    pairs = sorted(((i, j) for i in range(depth + 1) for j in range(depth + 1)),
                   key=lambda p: (max(p), p))
    for i, j in pairs:
        if leq(w, join(I.term_at(i), J.term_at(j))):
            return MemberAnswer(YES, (i, j))
    return MemberAnswer(NO_UP_TO, None)


def yz_chains(k: int) -> tuple[Term, Term]:
    """The k-th stage of the interleaved chains: y[0] = y, z[0] = z,
    y[i+1] = y + x*z[i], z[i+1] = z + x*y[i].  Already canonical."""
    if k < 0:
        raise ValueError("k must be >= 0")
    x, y, z = (gen(n) for n in "xyz")
    yk, zk = y, z
    for _ in range(k):
        yk, zk = join(y, meet(x, zk)), join(z, meet(x, yk))
    return yk, zk


def sd_meet_failure_report(budget: int = 4) -> Report:
    """How meet semidistributivity fails among ideals of the free lattice.

    Checks, with X = down(x), Y and Z the chain ideals:
      a. X meet Y and X meet Z coincide: each x*y[k] is under z[k+1] and
         each x*z[k] is under y[k+1], so the intersections swallow each
         other level by level.
      b. x*(y+z) lies in X meet (Y join Z).
      c. x*(y+z) is in neither X meet Y nor X meet Z up to the budget.
    Every order query made is logged as a line.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    x = gen("x")
    w = meet(x, join(gen("y"), gen("z")))
    rep = Report("ideal-sd-meet-failure")
    rep.set("budget", budget)
    rep.set("witness", w)
    ys, zs = zip(*map(yz_chains, range(budget + 1)))
    X = ChainIdeal("X", [x], budget)
    Y = ChainIdeal("Y", ys, budget)
    Z = ChainIdeal("Z", zs, budget)
    ok = True
    for k in range(budget):
        r1 = leq(meet(x, ys[k]), zs[k + 1])
        r2 = leq(meet(x, zs[k]), ys[k + 1])
        rep.add_line(check="meets-interleave", k=k, xy_below_znext=r1,
                     xz_below_ynext=r2)
        ok = ok and r1 and r2
    rep.set("meet_xy_equals_meet_xz", ok)

    in_x = ideal_member(X, w)
    in_yz = join_member(Y, Z, w)
    rep.add_line(check="witness-in-X", verdict=in_x.verdict, witness=in_x.witness)
    rep.add_line(check="witness-in-Y-join-Z", verdict=in_yz.verdict,
                 witness=in_yz.witness)
    rep.set("witness_in_meet_x_yz", bool(in_x) and bool(in_yz))

    esc_y = ideal_member(Y, w)
    esc_z = ideal_member(Z, w)
    rep.add_line(check="witness-in-Y", verdict=esc_y.verdict, witness=esc_y.witness)
    rep.add_line(check="witness-in-Z", verdict=esc_z.verdict, witness=esc_z.witness)
    rep.set("witness_outside_meets_up_to_budget",
            esc_y.verdict == NO_UP_TO and esc_z.verdict == NO_UP_TO)

    good = (ok and bool(in_x) and bool(in_yz)
            and esc_y.verdict == NO_UP_TO and esc_z.verdict == NO_UP_TO)
    rep.status = PASS if good else FAIL
    return rep
