"""One measured run of one workload, in a fresh interpreter.

Started by run.py, never imported.  The run is cold: freelat's memo
tables (_INTERN, _LEQ, _CANON, the per-Hom memos) live for the whole
process and never shrink, so a second run in the same process would time
memo lookups instead of the work.

Prints one JSON object on stdout.  Everything the package prints goes to
buffers instead.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import freelat  # noqa: E402,F401  (set-up cost: part of what setup_s measures)

import workloads as W  # noqa: E402


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def nearest_rank(sorted_values: list[float], q: float) -> float:
    k = max(1, -(-len(sorted_values) * q // 1))   # ceil(n * q), at least 1
    return sorted_values[int(k) - 1]


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=W.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    batch = W.BATCH.get(args.workload)
    if batch:
        import freelat.cli  # noqa: F401
    inputs = None if batch else W.prepare_catalog(args.seed)
    tracer = None
    if args.trace:
        import tracer as T
        tracer = T.Tracer()
        T.install(tracer)
    first_call = time.monotonic()
    setup_cpu = _cpu_s()
    if args.setup_only:
        print(json.dumps({"first_call": first_call, "setup_cpu_s": setup_cpu}))
        return

    cpu0 = _cpu_s()
    t0 = time.perf_counter()
    if tracer:
        tracer.on = True
    if batch:
        results = W.run_batch(batch)
        latencies = [r["latency_s"] for r in results]
    else:
        latencies, answers = W.run_catalog(inputs)
    if tracer:
        tracer.on = False
    wall = time.perf_counter() - t0
    cpu = _cpu_s() - cpu0
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    layer = _layer_metrics(tracer, batch, results if batch else None) if tracer else None
    failures = W.check_batch(batch, results) if batch else W.check_catalog(inputs, answers)
    lat = sorted(latencies)
    print(json.dumps({
        "first_call": first_call,
        "setup_cpu_s": setup_cpu,
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_kb": peak_kb,
        "ops": len(lat) + (0 if batch else 1),
        "queries": len(lat),
        "query_p50_s": statistics.median(lat),
        "query_p99_s": nearest_rank(lat, 0.99),
        "failures": failures,
        "layer": layer,
        "edges": ([[p, n, *v] for (p, n), v in tracer.edges.items()]
                  if tracer else None),
    }))


def _layer_metrics(tracer, batch, results) -> dict:
    """Per-layer numbers of one traced run, read right after the measured
    phase and before any checking."""
    self_s = tracer.layer_self_s()
    counts = tracer.counts
    whitman_mod = tracer.modules["whitman"]
    memo = getattr(whitman_mod, "_LEQ", None)
    gc.collect()
    term_cls = tracer.modules["terms"].Term
    live_terms = sum(1 for o in gc.get_objects() if type(o) is term_cls)
    checks = tracer.edge_calls("terms.enumerate_terms", "whitman.canonical_form")
    yielded = tracer.yields.get("terms.enumerate_terms", 0)
    quads = free = 0
    for r in results or ():
        data = W.report_data(r["stdout"])
        if "tuples_surviving_pair_filters" in data:
            quads = int(data["tuples_surviving_pair_filters"])
            free = int(data["free_tuples"])
    out = {f"{layer}.self_s": self_s[layer]
           for layer in ("terms", "whitman", "finlat", "builders", "bhom",
                         "reporting", "verify", "cli")}
    out.update({
        "whitman.ni_predicate_calls": counts.get("whitman.ni_predicate", 0),
        "whitman.canonical_form_calls": counts.get("whitman.canonical_form", 0),
        "whitman.leq_memo_entries": len(memo) if isinstance(memo, dict) else None,
        "verify.quads_checked": quads,
        "verify.free_ratio": free / quads if quads else 0.0,
        "terms.enum_keep_ratio": yielded / checks if checks else 0.0,
        "terms.live_terms": live_terms,
        "finlat.minimal_join_covers_calls": counts.get("finlat.minimal_join_covers", 0),
        "finlat.d_rank_calls": counts.get("finlat.d_rank", 0),
        "finlat.lattices_built": counts.get("finlat.FiniteLattice", 0),
        "bhom.beta_calls": counts.get("bhom.beta", 0),
        "bhom.alpha_calls": counts.get("bhom.alpha", 0),
        "bhom.kernel_table_calls": counts.get("bhom.kernel_table", 0),
        "bhom.eval_calls": counts.get("bhom.Hom.eval", 0),
        "traced_self_s": sum(self_s.values()),
    })
    return out


if __name__ == "__main__":
    main()
