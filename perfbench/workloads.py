"""The four workloads: what each runs, its inputs, and how its answers are
checked.

Three are batch workloads: fixed CLI commands, run in process through
freelat.cli.run, whose exit code and stdout must match, byte for byte, the
output of ``python -m freelat`` captured in expected/ (capture.py writes
it).  They are deterministic and ignore the seed.

catalog-queries is a closed loop with one client: a seeded list of
queries, each sent when the previous one has returned.  Its answers are
checked after the loop, untimed, against oracles that do not use the call
under test.
"""

from __future__ import annotations

import importlib
import itertools
import operator
import random
import time
from dataclasses import dataclass
from pathlib import Path

EXPECTED = Path(__file__).resolve().parent / "expected"

NAMES = ("x", "y", "z")
# queries per child process: enough that the 99th percentile has 100
# samples beyond it
QUERIES = 10000
QUERY_KINDS = ("leq", "canon", "beta", "alpha")
# maps whose image lattice is not lower (upper) bounded, among the 789
UNBOUNDED_EACH_WAY = 6


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]
    exit_code: int
    expected: str   # file under expected/


F3 = Command(("verify", "pi3-f3", "--max-size", "5", "--format", "records"), 0,
             "f3-coverage.out")
F4 = Command(("verify", "pi3-f4", "--max-size", "5", "--format", "records"), 0,
             "f4-triples.out")
FIGURES = (
    Command(("verify", "fig1", "--format", "records"), 0, "fig1.out"),
    Command(("verify", "fig2", "--format", "records"), 0, "fig2.out"),
    Command(("verify", "fig3", "--format", "records"), 0, "fig3.out"),
    # the tower has not stabilised at its last stage, so this exits 1
    Command(("tower", "classify", "--stage", "builtin:fd3:x=x,y=y,z=z",
             "--stage", "builtin:A:x=x,y=y,z=z", "x*(y+z)"), 1,
            "tower-classify.out"),
)

BATCH = {
    "f3-coverage": (F3,),
    "f4-triples": (F4,),
    "figures": FIGURES,
}
WORKLOADS = ("f3-coverage", "f4-triples", "figures", "catalog-queries")


def planned_ops(workload: str) -> int:
    """Checked operations one child makes: commands, or queries plus the
    bounded-map count."""
    return len(BATCH[workload]) if workload in BATCH else QUERIES + 1


# ---------------------------------------------------------------- batch

def run_batch(commands) -> list[dict]:
    import contextlib
    import io

    cli = importlib.import_module("freelat.cli")
    out = []
    for cmd in commands:
        buf, err = io.StringIO(), io.StringIO()
        t0 = time.thread_time()
        try:
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
                code = cli.run(list(cmd.argv))
            error = None
        except Exception as e:  # a raise is a failed operation, not a crash
            code, error = None, f"{type(e).__name__}: {e}"
        out.append({"latency_s": time.thread_time() - t0, "exit": code,
                    "stdout": buf.getvalue(), "error": error})
    return out


def check_batch(commands, results: list[dict]) -> list[str]:
    failures = []
    for cmd, res in zip(commands, results):
        name = " ".join(cmd.argv[:2])
        if res["error"] is not None:
            failures.append(f"{name}: raised {res['error']}")
        elif res["exit"] != cmd.exit_code:
            failures.append(f"{name}: exit {res['exit']}, expected {cmd.exit_code}")
        elif res["stdout"].encode() != (EXPECTED / cmd.expected).read_bytes():
            failures.append(f"{name}: stdout differs from expected/{cmd.expected}")
        elif "status=inconclusive-budget" in res["stdout"]:
            failures.append(f"{name}: inconclusive-budget")
    return failures


def report_data(stdout: str) -> dict[str, str]:
    """The ``data key=value`` lines of a records report."""
    out = {}
    for line in stdout.splitlines():
        if line.startswith("data "):
            k, _, v = line[5:].partition("=")
            out[k] = v
    return out


# ------------------------------------------------------- catalog-queries

def _rand_term(rng: random.Random, terms, budget: int):
    """Random raw term over x, y, z with exactly `budget` operation nodes."""
    if budget == 0:
        return terms.gen(rng.choice(NAMES))
    lb = rng.randrange(budget)
    left = _rand_term(rng, terms, lb)
    right = _rand_term(rng, terms, budget - 1 - lb)
    return (terms.join if rng.random() < 0.5 else terms.meet)(left, right)


def _perturb(rng: random.Random, terms, t):
    """A structurally different term equal to t in every lattice:
    operands shuffled, duplicated and re-associated, and absorption pads."""
    if t.kind == terms.GEN:
        if rng.random() < 0.15:
            return terms.meet(t, terms.join(t, terms.gen(rng.choice(NAMES))))
        return t
    ops = [_perturb(rng, terms, o) for o in t.ops]
    rng.shuffle(ops)
    ctor = terms.join if t.kind == terms.JOIN else terms.meet
    if rng.random() < 0.25:
        ops.append(ops[0])
    if len(ops) >= 3 and rng.random() < 0.4:
        k = rng.randrange(1, len(ops) - 1)
        out = ctor(ctor(*ops[:k + 1]), *ops[k + 1:])
    else:
        out = ctor(*ops)
    if rng.random() < 0.1:
        pad, inner = (terms.join, terms.meet) if t.kind == terms.MEET else (terms.meet, terms.join)
        return pad(out, inner(out, terms.gen(rng.choice(NAMES))))
    return out


def _catalog_maps(builders, bhom, terms) -> list:
    G = terms.GeneratorSet(NAMES)
    return [bhom.Hom(G, L, dict(zip(NAMES, images)))
            for L in builders.catalog()
            for images in itertools.product(range(L.n), repeat=len(NAMES))]


@dataclass
class CatalogInputs:
    maps: list            # the 789 maps under test, all cold
    queries: list         # (kind, ...) tuples
    unbounded: tuple[int, int]


def prepare_catalog(seed: int) -> CatalogInputs:
    terms = importlib.import_module("freelat.terms")
    builders = importlib.import_module("freelat.builders")
    bhom = importlib.import_module("freelat.bhom")
    maps = _catalog_maps(builders, bhom, terms)
    # Which maps beta and alpha can be asked about is settled on separate
    # copies, built from fresh lattices, so the maps under test stay cold.
    probe = _catalog_maps(builders, bhom, terms)
    lower = [i for i, h in enumerate(probe) if bhom.is_lower_bounded(h)]
    upper = [i for i, h in enumerate(probe) if bhom.is_upper_bounded(h)]
    rng = random.Random(seed)

    def term():
        return _rand_term(rng, terms, rng.randint(0, 6))

    queries = []
    for _ in range(QUERIES):
        kind = rng.choice(QUERY_KINDS)
        if kind == "leq":
            s = term()
            if rng.random() < 0.5:
                queries.append(("leq", s, term(), False))
            else:   # s <= t by construction
                queries.append(("leq", s, terms.join(_perturb(rng, terms, s), term()), True))
        elif kind == "canon":
            t = term()
            queries.append(("canon", t, _perturb(rng, terms, t)))
        else:
            pool = lower if kind == "beta" else upper
            queries.append((kind, rng.choice(pool), term()))
    return CatalogInputs(maps, queries,
                         (len(maps) - len(lower), len(maps) - len(upper)))


def run_catalog(inp: CatalogInputs) -> tuple[list[float], list]:
    whitman = importlib.import_module("freelat.whitman")
    bhom = importlib.import_module("freelat.bhom")
    leq, canon, beta, alpha = whitman.leq, whitman.canonical_form, bhom.beta, bhom.alpha
    maps = inp.maps
    clock = time.thread_time
    latencies, answers = [], []
    for q in inp.queries:
        t0 = clock()
        try:
            kind = q[0]
            if kind == "leq":
                ans = leq(q[1], q[2])
            elif kind == "canon":
                ans = (canon(q[1]), canon(q[2]))
            else:
                h = maps[q[1]]
                a = h.eval(q[2])
                ans = (a, beta(h, a) if kind == "beta" else alpha(h, a))
        except Exception as e:  # a raise is a failed query
            ans = e
        latencies.append(clock() - t0)
        answers.append(ans)
    return latencies, answers


class _Values:
    """Values of a term under every catalog map at once, computed from the
    lattices' join and meet tables: one list per lattice, in map order."""

    def __init__(self, maps) -> None:
        self.blocks = []
        for L, group in itertools.groupby(maps, key=lambda h: h.target):
            group = list(group)
            gens = {n: [h.images[n] for h in group] for n in NAMES}
            self.blocks.append((L, gens))

    def leq_everywhere(self, s, t) -> bool:
        for L, gens in self.blocks:
            vs, vt = _eval(s, L, gens), _eval(t, L, gens)
            up = L.up
            if not all((up[a] >> b) & 1 for a, b in zip(vs, vt)):
                return False
        return True


def _eval(t, L, gens: dict[str, list]) -> list:
    if t.kind == "gen":
        return gens[t.name]
    row = (L.joins if t.kind == "join" else L.meets).__getitem__
    vals = _eval(t.ops[0], L, gens)
    for o in t.ops[1:]:
        vals = list(map(operator.getitem, map(row, vals), _eval(o, L, gens)))
    return vals


def check_catalog(inp: CatalogInputs, answers: list) -> list[str]:
    """Oracles: a true leq holds under all 789 maps and a constructed one
    is true; a perturbed copy canonicalises to the identical object;
    beta and alpha map back to the element they were asked for and bracket
    the term it came from; exactly six maps are unbounded each way."""
    whitman = importlib.import_module("freelat.whitman")
    values = _Values(inp.maps)
    failures = []
    for n, (q, ans) in enumerate(zip(inp.queries, answers)):
        kind = q[0]
        if isinstance(ans, Exception):
            failures.append(f"query {n} ({kind}): raised {type(ans).__name__}: {ans}")
            continue
        if kind == "leq":
            # a constructed pair holds in every lattice by construction,
            # so only a true answer on a random pair needs the maps
            _, s, t, constructed = q
            if constructed:
                ok = ans is True
            else:
                ok = ans is False or (ans is True and values.leq_everywhere(s, t))
        elif kind == "canon":
            ok = ans[0] is ans[1]
        else:
            h, t = inp.maps[q[1]], q[2]
            a, bound = ans
            L, gens = h.target, {g: [h.images[g]] for g in NAMES}
            ok = (_eval(bound, L, gens)[0] == a and _eval(t, L, gens)[0] == a
                  and (whitman.leq(bound, t) if kind == "beta" else whitman.leq(t, bound)))
        if not ok:
            failures.append(f"query {n} ({kind}): wrong answer")
    if inp.unbounded != (UNBOUNDED_EACH_WAY, UNBOUNDED_EACH_WAY):
        failures.append(f"maps not lower/upper bounded: {inp.unbounded}, "
                        f"expected {UNBOUNDED_EACH_WAY} each")
    return failures
