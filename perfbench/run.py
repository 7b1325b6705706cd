#!/usr/bin/env python3
"""Repository benchmark: build perfbench, run one workload in a fresh
child process, check it, and print every metric by name with its unit.

    python3 perfbench/run.py --workload reproduce --seed 1 --seconds 10 --trace 0

Workloads: reproduce, ingest, serve_hot, serve_swap (see perfbench/README.md).
With --trace 0 the result carries the end-to-end metrics of
BENCHMARK.json; with --trace 1 the per-layer ones. The last line of
standard output is the result object; everything before it is the
human-readable ledger. The exit code is 0 only when every correctness
check passed.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import threading
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def load_json(path):
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}")


def build():
    """Build the workload binary; cargo's output goes to stderr."""
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(HERE / "Cargo.toml")]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        fail("build failed")
    target = Path(os.environ.get("CARGO_TARGET_DIR", HERE / "target"))
    return target.resolve() / "release" / "perfbench"


def run_worker(binary, argv):
    """Run the workload process; return (exit status, result, peak RSS MB).
    The workload process sets its own thread count."""
    env = dict(os.environ)
    env.pop("WEBSTRUCT_TRACE", None)
    proc = subprocess.Popen([str(binary)] + argv, stdout=subprocess.PIPE, env=env)
    timer = threading.Timer(WORKER_TIMEOUT_S, proc.send_signal, [signal.SIGKILL])
    timer.start()
    try:
        out = proc.stdout.read().decode()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    lines = [l for l in out.splitlines() if l.strip()]
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    # ru_maxrss is in KiB on Linux.
    return proc.returncode, result, usage.ru_maxrss / 1024.0


def compare_facts(facts, reference, checks, flags):
    """Digests must match the recorded reference; counts that drift are
    flagged, since a legitimate algorithm change may move them."""
    for name, want in sorted(reference.items()):
        got = facts.get(name)
        if got is None:
            continue
        if name.endswith("digest"):
            checks.append({"name": f"reference.{name}", "ok": got == want,
                           "detail": f"{got[:16]} vs recorded {want[:16]}"})
        elif got != want:
            flags.append(f"{name} drifted: {got} (recorded {want})")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="smoke-test sizes from config.json (not for measurement)")
    args = ap.parse_args()

    bench = load_json(ROOT / "BENCHMARK.json")
    config = load_json(HERE / "config.json")
    if args.workload not in config["workloads"]:
        fail(f"unknown workload {args.workload}")
    binary = build()

    settings = dict(config["workloads"][args.workload])
    if args.tiny:
        settings.update(config["tiny"].get(args.workload, {}))
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    argv = [args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--work-dir", str(work)]
    for key, value in settings.items():
        argv += [f"--{key}", str(value)]
    try:
        code, result, peak_rss_mb = run_worker(binary, argv)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
        # Commit the deletes now, so their discards are not charged to
        # whatever runs next.
        os.sync()
    if code != 0 or result is None:
        fail(f"workload process exited with {code}")

    metrics = dict(result["metrics"])
    metrics["peak_rss_mb"] = {"value": peak_rss_mb, "unit": "MB"}
    attempted, failed = result["attempted"], result["failed"]
    metrics["error_rate"] = {"value": failed / max(attempted, 1), "unit": "ratio"}
    checks = list(result["checks"])
    flags = []
    # References are recorded at the measured sizes, not the tiny ones.
    if not args.tiny:
        reference = config["references"].get(str(args.seed), {}).get(args.workload, {})
        compare_facts(result["facts"], reference, checks, flags)

    print(f"workload {args.workload} seed {args.seed} trace {args.trace} "
          f"hardware_threads {os.cpu_count()}")
    for name, m in metrics.items():
        print(f"metric {name} {m['value']:.6g} {m['unit']}")
    for name, value in sorted(result["facts"].items()):
        print(f"fact {name} {value}")
    for c in checks:
        print(f"check {c['name']} {'ok' if c['ok'] else 'FAILED'} {c['detail'][:200]}")
    for f in flags:
        print(f"flag {f}")

    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    out = {}
    for spec in wanted:
        m = metrics.get(spec["name"])
        if m is None and args.trace:
            # The layer does no work on this workload.
            m = {"value": 0.0, "unit": spec["unit"]}
        if m is None:
            fail(f"workload did not report {spec['name']}")
        out[spec["name"]] = {"value": m["value"], "unit": spec["unit"]}
    correct = all(c["ok"] for c in checks)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": out}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
