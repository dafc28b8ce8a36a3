"""robustlrs benchmark: one workload run, end-to-end or per-layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from `src/`.
Every workload runs in a fresh interpreter (`worker.py`) as a closed loop
with one client and one op in flight.

Timings are reported at reference speed: each op's wall time is scaled by
the speed of the core measured with a fixed pure-Python loop just before
and just after the op (see worker.py), so that a shared machine's speed
swings, which reach 1.5x within seconds, do not read as changes of the
program.  The unscaled figures are printed on the `#` lines.

--trace 0  runs the workload's ops in one fresh interpreter and prints the
           end-to-end metrics.  Set-up (interpreter start to the first
           timed op) is measured in it and in SETUP_REPEATS set-up-only
           interpreters, and reported as the median.
--trace 1  runs the first half of the ops untraced, then the same ops in a
           traced interpreter, both without reference samples, and prints
           the per-layer metrics with the tracing overhead (traced wall
           time / untraced wall time - 1, unscaled).

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  With --record, the sha256 of every op's
report is stored in digests.json for this workload and seed; later runs of
that seed fail any op whose report bytes differ.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

from layers import PER_LAYER
from worker import REF_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 2
DEADLINE_S = 175.0
SLACK_S = 15.0              # set-up, checks and reporting after a loop
WORKLOADS = ("decide-random", "decide-torus", "decide-prefix",
             "lab-diophantine")

# (metric, unit); see BENCHMARK.json for the bounds.
END_TO_END = (("wall_s", "s"), ("latency_p50_s", "s"),
              ("latency_tail_s", "s"), ("completed_share", "ratio"),
              ("decided_share", "ratio"), ("peak_rss_mb", "MB"),
              ("setup_s", "s"))


class RunError(Exception):
    pass


def _worker(args, deadline, *extra, share=1):
    """Run worker.py to completion (killed at the deadline) and return its
    JSON document with its set-up time.  `share` is the fraction of the
    time left that this worker's timed loop may use."""
    spawned = time.monotonic()
    cap = max(1.0, (deadline - spawned - SLACK_S) * share)
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--cap-s", f"{cap:.1f}", *extra]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - spawned))
    except subprocess.TimeoutExpired:
        raise RunError("worker did not finish before the run deadline")
    if proc.returncode != 0:
        raise RunError(f"worker exited with {proc.returncode}: "
                       f"{proc.stderr.strip()[-2000:]}")
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    if "setup_speed" in doc:        # not traced
        doc["setup_raw_s"] = doc["ready"] - spawned - doc["setup_samples_s"]
        doc["setup_s"] = doc["setup_raw_s"] * doc["setup_speed"]
    return doc


def tail_latency(latencies):
    """Latency at the highest percentile with at least ten ops beyond it,
    and that percentile; the maximum when there are ten ops or fewer."""
    xs = sorted(latencies)
    if len(xs) <= 10:
        return xs[-1], 100.0
    rank = len(xs) - 10
    return xs[rank - 1], 100.0 * rank / len(xs)


def _summary(doc):
    ops = doc["ops"]
    lat = [o["scaled_s"] for o in ops]
    failed = sum(o["error"] is not None for o in ops)
    unknown = sum(o["error"] is None and o["verdict"] == "UNKNOWN"
                  for o in ops)
    return ops, lat, failed, unknown


def machine() -> str:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    versions = []
    for pkg in ("sympy", "numpy"):
        try:
            versions.append(f"{pkg} {metadata.version(pkg)}")
        except metadata.PackageNotFoundError:
            versions.append(f"{pkg} missing")
    return (f"nproc {len(os.sched_getaffinity(0))}; cpu {cpu}; "
            f"python {platform.python_version()}; {'; '.join(versions)}; "
            f"commit {git_commit()}")


def git_commit() -> str:
    # the ceiling keeps git from taking up a repository above the checkout
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def run_end_to_end(args, deadline):
    setups = [_worker(args, deadline, "--seconds", str(args.seconds),
                      "--setup-only")
              for _ in range(SETUP_REPEATS)]
    doc = _worker(args, deadline, "--seconds", str(args.seconds))
    setups.append(doc)
    ops, lat, failed, unknown = _summary(doc)
    tail, pct = tail_latency(lat)
    metrics = {
        "wall_s": sum(lat),
        "latency_p50_s": statistics.median(lat),
        "latency_tail_s": tail,
        "completed_share": (len(ops) - failed) / len(ops),
        "decided_share": (len(ops) - failed - unknown) / len(ops),
        "peak_rss_mb": doc["peak_rss_mb"],
        "setup_s": statistics.median(d["setup_s"] for d in setups),
    }
    raw = sorted(o["latency_s"] for o in ops)
    print(f"# {args.workload} seed {args.seed}: {len(ops)} ops, closed loop, "
          f"1 client, 1 op in flight")
    print(f"# latency_tail_s is p{pct:.1f} of {len(lat)} ops; "
          f"failed_share {failed / len(ops):.4f}; "
          f"unknown_share {unknown / len(ops):.4f}")
    setup_raw = ", ".join(f"{d['setup_raw_s']:.3f}" for d in setups)
    print(f"# unscaled: wall {sum(raw):.3f} s, "
          f"p50 {statistics.median(raw):.4f} s; set-up runs {setup_raw} s; "
          f"reference loop {min(doc['ref_samples']):.4f}-"
          f"{max(doc['ref_samples']):.4f} s against {REF_S} s")
    _print_labels(ops)
    return doc, metrics


def _print_labels(ops):
    by = {}
    for o in ops:
        key = (o["label"], o["question"])
        by.setdefault(key, []).append(o)
    for (label, question), group in by.items():
        lat = [o["scaled_s"] for o in group]
        verdicts = {}
        for o in group:
            v = o["verdict"] if o["error"] is None else "FAILED"
            verdicts[v] = verdicts.get(v, 0) + 1
        print(f"#   {label:20s} {question or '-':26s} n={len(group):3d} "
              f"mean {statistics.fmean(lat):8.4f} s  {verdicts}")
    for i, o in enumerate(ops):
        if o["error"] is not None:
            print(f"#   op {i} failed: {o['error']}")


def run_traced(args, deadline):
    half = str(args.seconds / 2)
    plain = _worker(args, deadline, "--seconds", half, share=1 / 2)
    doc = _worker(args, deadline, "--seconds", half, "--trace")
    metrics = dict(doc["per_layer"])
    traced, untraced = (sum(o["scaled_s"] for o in d["ops"])
                        for d in (doc, plain))
    metrics["trace.overhead_share"] = traced / untraced - 1
    ops = doc["ops"]
    for a, b in zip(plain["ops"], ops):
        if b["error"] is None and a.get("digest") != b.get("digest"):
            b["error"] = "traced report differs from untraced"
            b["wrong"] = True
    print(f"# {args.workload} seed {args.seed}: {len(ops)} ops traced, "
          f"wall {traced:.3f} s against {untraced:.3f} s untraced, both "
          f"unscaled (overhead {metrics['trace.overhead_share']:+.2%})")
    _print_labels(ops)
    return doc, metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true",
                    help="store the report digests of this seed")
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    print(f"# machine: {machine()}")
    try:
        if args.trace:
            doc, metrics = run_traced(args, deadline)
        else:
            doc, metrics = run_end_to_end(args, deadline)
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    ops = doc["ops"]
    failed = sum(o["error"] is not None for o in ops)
    correct = not any(o["wrong"] for o in ops)
    units = ({name: unit for name, unit, _ in PER_LAYER} if args.trace
             else dict(END_TO_END))
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    if args.record and correct and not args.trace:
        record(args.workload, args.seed, ops)
    print(json.dumps({
        "correct": correct, "attempted": len(ops), "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}))
    return 0


def record(workload, seed, ops):
    path = HERE / "digests.json"
    doc = json.loads(path.read_text()) if path.exists() else {}
    doc.setdefault(workload, {})[str(seed)] = {
        str(i): o["digest"] for i, o in enumerate(ops) if "digest" in o}
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    sys.exit(main())
