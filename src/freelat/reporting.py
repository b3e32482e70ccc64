"""Structured results for the checks that answer more than yes or no.

A Report carries a claim, a status ("pass", "fail", or
"inconclusive-budget" when a bounded search ran out of room), a flat
data dict, and optional per-item lines.  records() renders all of it as
stable key=value lines with no spaces inside values, so reruns diff
clean; wall-clock time is deliberately kept out of reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .terms import Term, print_term

PASS = "pass"
FAIL = "fail"
INCONCLUSIVE = "inconclusive-budget"


def _fmt(v: object) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if v is None:
        return "none"
    if isinstance(v, Term):
        return print_term(v)
    if isinstance(v, float):
        return f"{v:.6g}"
    if isinstance(v, (list, tuple)):
        return ",".join(_fmt(x) for x in v)
    return str(v).replace(" ", "_")


@dataclass
class Report:
    claim: str
    status: str = PASS
    data: dict[str, object] = field(default_factory=dict)
    lines: list[dict[str, object]] = field(default_factory=list)
    subs: list["Report"] = field(default_factory=list)

    def set(self, key: str, value: object) -> None:
        self.data[key] = value

    def add_line(self, **kv: object) -> None:
        self.lines.append(dict(kv))

    def add_sub(self, sub: "Report") -> None:
        self.subs.append(sub)
        if sub.status == FAIL:
            self.status = FAIL
        elif sub.status == INCONCLUSIVE and self.status == PASS:
            self.status = INCONCLUSIVE

    def records(self) -> list[str]:
        out = [f"claim={_fmt(self.claim)} status={self.status}"]
        for k in self.data:
            out.append(f"data {k}={_fmt(self.data[k])}")
        for ln in self.lines:
            out.append("line " + " ".join(f"{k}={_fmt(v)}" for k, v in ln.items()))
        for i, sub in enumerate(self.subs):
            for rec in sub.records():
                out.append(f"sub{i} {rec}")
        return out

    def text(self) -> str:
        out = [f"{self.claim}: {self.status}"]
        for k, v in self.data.items():
            out.append(f"  {k} = {_fmt(v)}")
        for ln in self.lines:
            out.append("  " + "  ".join(f"{k}={_fmt(v)}" for k, v in ln.items()))
        for sub in self.subs:
            out.extend("  " + line for line in sub.text().splitlines())
        return "\n".join(out)
