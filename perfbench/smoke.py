#!/usr/bin/env python3
"""Smoke test of the benchmark itself: run every workload once at tiny
sizes, untraced and traced, and check that the run passed, that every
metric the workload owns was printed with its unit, and that every
correctness check ran.

    python3 perfbench/smoke.py            # all workloads, about a minute
    python3 perfbench/smoke.py ingest     # one workload
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# End-to-end metrics each workload prints (error_rate and peak_rss_mb
# come from run.py for all of them).
E2E = {
    "reproduce": ["setup_s", "wall_s"],
    "ingest": ["setup_s", "wall_s", "warm_s"],
    "serve_hot": ["setup_s", "wall_s", "capacity_rps", "p50_ms", "p99_ms", "loadgen.samples"],
    "serve_swap": ["setup_s", "wall_s", "capacity_rps", "p50_ms", "p99_ms", "loadgen.samples",
                   "swap_visible_s"],
}
COMMON = ["peak_rss_mb", "error_rate"]

# Per-layer metrics each workload's traced run measures itself.
LAYERS = {
    "reproduce": ["corpus.generate_s", "corpus.occurrences_s", "graph.build_s",
                  "graph.components_s", "graph.robustness_s", "graph.ifub_s",
                  "graph.ifub_bfs_runs", "coverage.spread_s", "demand.traffic_s",
                  "demand.tail_value_s", "core.family_spread_s", "core.family_tail_value_s",
                  "core.family_connectivity_s", "reproduce.unattributed_s", "trace.wall_s",
                  "trace.overhead_s"],
    "ingest": ["corpus.store_s", "corpus.extcache_s", "corpus.shards", "corpus.store_bytes",
               "extract.busy_s", "extract.merge_s", "extract.pages", "graph.accumulate_s",
               "coverage.accumulate_s", "core.extcache_hit_ratio", "core.epoch_mutate_s",
               "core.epoch_digest_s", "ingest.unattributed_s", "trace.wall_s",
               "trace.overhead_s"],
    "serve_hot": ["serve.parse_ns", "serve.cache_lookup_ns", "serve.write_ns", "serve.route_ns",
                  "serve.cache_build_s", "serve.cache_hit_rate", "serve.cache_hits",
                  "serve.cache_misses", "client.busy_s", "loadgen.lag_ms", "serve.transport_us"],
    "serve_swap": ["serve.parse_ns", "serve.cache_lookup_ns", "serve.write_ns", "serve.route_ns",
                   "serve.cache_build_s", "serve.cache_hit_rate", "serve.swaps",
                   "serve.swap_rejected", "core.epoch_swap_s", "client.busy_s",
                   "loadgen.lag_ms", "serve.transport_us"],
}

# Correctness checks each run must report (prefix match).
CHECKS = {
    ("reproduce", 0): ["reproduce.run0", "reproduce.rerun", "reproduce.digest_repeats"],
    ("reproduce", 1): ["reproduce", "reproduce.single", "reproduce.replica_digest"],
    ("ingest", 0): ["ingest.repeats", "ingest.warm_is_incremental", "ingest.warm_equals_cold"],
    ("ingest", 1): ["ingest.replica_digest", "ingest.replica_hits"],
    ("serve_hot", 0): ["serve_hot.open_loop_samples", "serve_hot.responses",
                       "serve_hot.stats_consistent", "serve_hot.digest_workers_and_cache"],
    ("serve_hot", 1): ["serve_hot.responses", "serve_hot.stats_consistent"],
    ("serve_swap", 0): ["serve_swap.open_loop_samples", "serve_swap.responses",
                        "serve_swap.swaps_visible", "serve_swap.etag_slices",
                        "serve_swap.stats_consistent"],
    ("serve_swap", 1): ["serve_swap.responses", "serve_swap.etag_slices",
                        "serve_swap.stats_consistent"],
}


def run(workload, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1",
           "--seconds", "2", "--trace", str(trace), "--tiny"]
    r = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=600)
    lines = r.stdout.strip().splitlines()
    problems = []
    if r.returncode != 0:
        problems.append(f"exit {r.returncode}: {r.stderr[-2000:]}")
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return [f"no result line: {r.stderr[-2000:]}"]
    if not result.get("correct"):
        problems.append("result not correct")
    printed = {}
    checks = {}
    for line in lines:
        parts = line.split()
        if parts[0] == "metric" and len(parts) == 4:
            printed[parts[1]] = parts[3]
        elif parts[0] == "check":
            checks[parts[1]] = parts[2]
    wanted = (E2E[workload] + COMMON) if trace == 0 else LAYERS[workload]
    for name in wanted:
        if not printed.get(name):
            problems.append(f"metric {name} not printed with a unit")
    for name in CHECKS[(workload, trace)]:
        if name not in checks:
            problems.append(f"check {name} did not run")
    problems += [f"check {n} {v}" for n, v in checks.items() if v != "ok"]
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    spec = bench["per_layer"] if trace else bench["end_to_end"]
    if sorted(result.get("metrics", {})) != sorted(m["name"] for m in spec):
        problems.append("result metrics differ from BENCHMARK.json")
    return problems


def main():
    workloads = sys.argv[1:] or list(E2E)
    failed = False
    for w in workloads:
        for trace in (0, 1):
            problems = run(w, trace)
            print(f"{w} trace {trace}: {'ok' if not problems else 'FAILED'}")
            for p in problems:
                print(f"  {p}")
            failed |= bool(problems)
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
