"""The freelat benchmark: one workload, measured in fresh child processes.

    python3 perfbench/run.py --workload f3-coverage --seed 1 --seconds 32 --trace 0

Run from the repository root; the package is imported from src/.  Each
measured run is a child interpreter (child.py) started cold, and children
run one at a time.  New children start while they are expected to end
within --seconds.  Set-up is timed in every untraced child and in a few
extra children that stop at the first measured call.

--trace 0 prints the end-to-end metrics, medians over the untraced
children.  --trace 1 alternates untraced and traced children and prints
the per-layer metrics, medians over the traced children, plus the ratio
of traced to untraced CPU time.  Every child's answers are checked;
the last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import selectors
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads as W  # noqa: E402

# A run never lasts longer: a child still running then is killed and its
# operations count as failed (verify pi3-f3 has no budget of its own).
GUARD_S = 150.0
# Children that stop at the first measured call, run before the measured
# ones, so that setup_s is a median over several set-ups even when few
# measured children fit.  They also warm the file and bytecode caches.
SETUP_MIN = 5
CHILD_ENV = dict(os.environ, PYTHONHASHSEED="0")

# freelat runs one thread and does no I/O, so its wall time is its CPU
# time plus whatever the machine takes away.  On a shared 2-vCPU Xeon
# virtual machine, hypervisor steal stretched the wall time of whole runs
# by up to 55% while their CPU time moved under 4%.  The timed metrics
# are therefore CPU times; wall times are printed beside them.
END_TO_END = (("cpu_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MiB"),
              ("queries_per_s", "1/s"), ("query_p50_ms", "ms"),
              ("query_p99_ms", "ms"))
PER_LAYER = (
    ("whitman.self_s", "s"), ("whitman.ni_predicate_calls", "count"),
    ("whitman.leq_memo_entries", "count"), ("whitman.canonical_form_calls", "count"),
    ("verify.self_s", "s"), ("verify.quads_checked", "count"), ("verify.free_ratio", "ratio"),
    ("terms.self_s", "s"), ("terms.enum_keep_ratio", "ratio"), ("terms.live_terms", "count"),
    ("finlat.self_s", "s"), ("finlat.minimal_join_covers_calls", "count"),
    ("finlat.d_rank_calls", "count"), ("finlat.lattices_built", "count"),
    ("builders.self_s", "s"),
    ("bhom.self_s", "s"), ("bhom.beta_calls", "count"), ("bhom.alpha_calls", "count"),
    ("bhom.kernel_table_calls", "count"), ("bhom.eval_calls", "count"),
    ("cli.self_s", "s"), ("reporting.self_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)


class Child:
    """One finished (or killed) child process and what it reported."""

    def __init__(self, kind: str, argv: list[str], deadline: float) -> None:
        self.kind = kind
        started = time.monotonic()
        proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), *argv],
                                stdout=subprocess.PIPE, cwd=ROOT, env=CHILD_ENV)
        out = bytearray()
        self.killed = False
        with selectors.DefaultSelector() as sel:
            sel.register(proc.stdout, selectors.EVENT_READ)
            while True:
                left = deadline - time.monotonic()
                if left <= 0:
                    proc.kill()
                    self.killed = True
                    break
                if sel.select(left):
                    chunk = os.read(proc.stdout.fileno(), 1 << 16)
                    if not chunk:
                        break
                    out += chunk
        proc.stdout.close()
        # wait4 gives this child's own resource use; RUSAGE_CHILDREN would
        # fold in every child waited for so far
        _, status, self.rusage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.duration = time.monotonic() - started
        self.result = None
        if not self.killed and proc.returncode == 0 and out.strip():
            self.result = json.loads(out.decode().strip().splitlines()[-1])
            self.setup_wall_s = self.result["first_call"] - started
        self.returncode = proc.returncode


def median(values, pick=statistics.median):
    values = list(values)
    if any(v is None for v in values):
        return None
    return pick(values)


def environment() -> dict:
    sha = dirty = None
    if (ROOT / ".git").exists():
        git = ["git", "-C", str(ROOT)]
        rev = subprocess.run([*git, "rev-parse", "HEAD"], capture_output=True, text=True)
        st = subprocess.run([*git, "status", "--porcelain", "--untracked-files=no"],
                            capture_output=True, text=True)
        if rev.returncode == 0:
            sha = rev.stdout.strip()
            dirty = bool(st.stdout.strip())
    return {"python": platform.python_version(), "git_sha": sha, "dirty": dirty,
            "nproc": os.cpu_count()}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=W.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True,
                    help="input seed; only catalog-queries has seeded inputs")
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if not (ROOT / "src" / "freelat" / "__init__.py").is_file():
        print(f"perfbench: no freelat sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    start = time.monotonic()
    guard = start + GUARD_S
    base = ["--workload", args.workload, "--seed", str(args.seed)]
    children: list[Child] = []

    def spawn(kind: str) -> Child:
        extra = {"setup": ["--setup-only"], "plain": [], "traced": ["--trace", "1"]}[kind]
        c = Child(kind, base + extra, guard)
        children.append(c)
        return c

    def fits(kind: str) -> bool:
        done = [c.duration for c in children if c.kind == kind]
        return not done or time.monotonic() + max(done) <= end

    def healthy() -> bool:
        return not children or children[-1].result is not None

    end = start + args.seconds
    for _ in range(SETUP_MIN):
        if healthy():
            spawn("setup")
    kinds = ("plain", "traced") if args.trace else ("plain",)
    turn = 0
    while healthy():
        kind = kinds[turn % len(kinds)]
        ran_all = all(any(c.kind == k for c in children) for k in kinds)
        if ran_all and not fits(kind):
            break
        spawn(kind)
        turn += 1
    while healthy() and fits("setup"):   # the time left goes to more set-ups
        spawn("setup")

    measured = [c for c in children if c.kind != "setup"]
    attempted = failed = 0
    failures: list[str] = []
    for c in measured:
        planned = W.planned_ops(args.workload)
        attempted += c.result["ops"] if c.result else planned
        if c.result:
            failed += len(c.result["failures"])
            failures += c.result["failures"]
        else:
            failed += planned
            failures.append(f"{c.kind} child {'killed by the guard' if c.killed else 'exited %d' % c.returncode}")
    if any(c.result is None for c in children):
        failed = max(failed, 1)
    plain = [c.result for c in children if c.kind == "plain" and c.result]
    traced = [c.result for c in children if c.kind == "traced" and c.result]
    setups = [c for c in children if c.kind in ("setup", "plain") and c.result]

    print(f"# workload {args.workload}, seed {args.seed}"
          + ("" if args.workload == "catalog-queries" else " (deterministic: seed unused)")
          + f", {len(plain)} untraced and {len(traced)} traced children,"
          f" {len(setups)} set-ups, {time.monotonic() - start:.1f}s")
    print("# env " + json.dumps(environment()))
    for c in measured:
        r = c.result or {}
        print(f"#   {c.kind:6s} child: exit {c.returncode}, {c.duration:.3f}s,"
              f" wall {r.get('wall_s', float('nan')):.3f}s,"
              f" cpu {r.get('cpu_s', float('nan')):.3f}s,"
              f" rss {c.rusage.ru_maxrss / 1024:.1f}MiB (wait4),"
              f" {len(r.get('failures', []))} failed of {r.get('ops', 0)}")
    for f in failures[:10]:
        print(f"# FAILED {f}")
    print(f"# fail_ratio {failed}/{attempted} = {failed / max(attempted, 1):.4g}")

    if args.trace:
        values = _per_layer(plain, traced)
        units = dict(PER_LAYER)
        if traced:
            _print_trace(traced[0])
    else:
        values = _end_to_end(plain, setups)
        units = dict(END_TO_END)
    for name, v in values.items():
        print(f"# {name:34s} {v!s:>22} {units[name]}")
    if plain and not args.trace:
        print(f"# query percentiles per child over {plain[0]['queries']} samples,"
              f" median over {len(plain)} children; setup_s over {len(setups)} set-ups")
        print(f"# wall clock, not gated: wall_s {median(r['wall_s'] for r in plain)} s,"
              f" setup {median(c.setup_wall_s for c in setups)} s")
    ok = failed == 0 and bool(plain) and (bool(traced) or not args.trace)
    print(json.dumps({
        "correct": ok, "attempted": max(attempted, 1), "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }))
    return 0


def _end_to_end(plain: list[dict], setups: list[Child]) -> dict:
    if not plain:
        return {name: None for name, _ in END_TO_END}
    return {
        "cpu_s": median(r["cpu_s"] for r in plain),
        "setup_s": median(c.result["setup_cpu_s"] for c in setups),
        "peak_rss_mb": median(r["peak_rss_kb"] / 1024 for r in plain),
        "queries_per_s": median(r["queries"] / r["cpu_s"] for r in plain),
        "query_p50_ms": median(r["query_p50_s"] * 1e3 for r in plain),
        "query_p99_ms": median(r["query_p99_s"] * 1e3 for r in plain),
    }


def _per_layer(plain: list[dict], traced: list[dict]) -> dict:
    out = {}
    for name, unit in PER_LAYER:
        if name == "trace.overhead_ratio":
            ok = plain and traced
            out[name] = (median(r["cpu_s"] for r in traced)
                         / median(r["cpu_s"] for r in plain)) if ok else None
        else:
            # counts repeat exactly from run to run; keep them whole
            pick = statistics.median_low if unit == "count" else statistics.median
            out[name] = median((r["layer"][name] for r in traced), pick) if traced else None
    return out


def _print_trace(r: dict) -> None:
    total = r["layer"]["traced_self_s"]
    shares = {k[:-7]: v / total for k, v in r["layer"].items()
              if k.endswith(".self_s") and total}
    print("# self-time shares (first traced child): "
          + ", ".join(f"{k} {v:.1%}" for k, v in sorted(shares.items(), key=lambda kv: -kv[1])))
    print("# top boundary edges by self time: parent -> span, calls, total s, self s")
    for parent, name, calls, total_s, self_s in sorted(r["edges"], key=lambda e: -e[4])[:12]:
        print(f"#   {parent} -> {name}: {calls}, {total_s:.4f}, {self_s:.4f}")


if __name__ == "__main__":
    sys.exit(main())
