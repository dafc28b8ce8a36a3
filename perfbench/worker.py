"""One workload run in a fresh interpreter: set up, then a closed loop with
one client and one op in flight.  Prints one JSON document on stdout.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S
                                [--trace] [--setup-only]

The op count is fixed by the seed-independent rate of the workload at the
defining commit (`Workload.round_s`), so a faster program finishes the same
ops sooner.  Each op has a wall-time budget enforced with SIGALRM in this
thread; an op over budget, or still queued when the loop has used up
--cap-s, counts as failed and the loop goes on.

Unless traced, the worker times a fixed pure-Python loop of about 5 ms
(`reference_s`) after every SAMPLE_EVERY_S of CPU time, from a SIGPROF
handler, so also inside an op: the speed of this core at that moment,
measured outside the program.  An op's latency leaves out the samples
taken inside it, and is also reported scaled to a core that runs the loop
in `REF_S` seconds, by the mean of the samples inside the op and the
nearest one on either side.  Set-up time is scaled the same way.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

REF_LOOPS = 62_500
REF_S = 0.005               # the reference loop's time on the scaled core
SAMPLE_EVERY_S = 0.1        # CPU time between two reference samples


def reference_s() -> float:
    """Wall time of a fixed pure-Python loop of about 5 ms."""
    t0 = time.perf_counter()
    s = 0
    for i in range(REF_LOOPS):
        s += i * i % 7
    return time.perf_counter() - t0


class Speedometer:
    """Reference samples (start, duration), one every SAMPLE_EVERY_S of CPU
    time from a SIGPROF handler, which runs between two bytecodes of
    whatever the interpreter is running and leaves its state alone."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []

    def _sample(self, signum=None, frame=None):
        t0 = time.perf_counter()
        self.samples.append((t0, reference_s()))

    def start(self):
        signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        self._sample()

    def stop(self):
        signal.setitimer(signal.ITIMER_PROF, 0)
        self._sample()

    def measure(self, t0, t1) -> tuple[float, float]:
        """Wall time in [t0, t1] less the samples inside it, and the
        scaling factor from the samples inside it and the nearest one on
        either side."""
        inside = [d for t, d in self.samples if t0 <= t < t1]
        before = [d for t, d in self.samples if t < t0][-1:]
        after = [d for t, d in self.samples if t >= t1][:1]
        speeds = before + inside + after
        return t1 - t0 - sum(inside), REF_S / statistics.fmean(speeds)


class OverBudget(BaseException):
    """Not an Exception, so no handler inside the program can swallow it."""


def _alarm(signum, frame):
    raise OverBudget()


def _import_program():
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    try:
        import robustlrs
    except ImportError as exc:
        sys.exit(f"robustlrs is not importable from {ROOT / 'src'}: {exc}")
    if Path(robustlrs.__file__).resolve().parent != ROOT / "src" / "robustlrs":
        sys.exit(f"robustlrs imported from {robustlrs.__file__}, "
                 f"not from this checkout")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--cap-s", type=float, default=140.0,
                    help="wall time after which queued ops count as failed")
    args = ap.parse_args(argv)
    meter = Speedometer()
    if not args.trace:
        meter.start()
    start = time.perf_counter()

    _import_program()
    import workloads
    import layers
    from tracer import Tracer

    wl = workloads.WORKLOADS[args.workload]
    per_round = len(workloads.generate(args.workload, args.seed, 1))
    n_ops = max(1, round(args.seconds / wl.round_s * per_round))
    ops = workloads.generate(args.workload, args.seed,
                             math.ceil(n_ops / per_round))[:n_ops]
    for op in wl.warmup:
        if workloads.check(op, workloads.execute(op)) is not None:
            sys.exit("a warm-up op failed its check")
    recorded = _recorded_digests(args.workload, args.seed)

    tracer = None
    if args.trace:
        tracer = Tracer()
        layers.install(tracer)
    caches_before = layers.cache_counts()
    ready = time.monotonic()
    setup = {"ready": ready}
    if not args.trace:
        # set-up time leaves out the samples taken so far
        setup["setup_samples_s"] = sum(d for _, d in meter.samples)
        setup["setup_speed"] = meter.measure(start, time.perf_counter())[1]
    if args.setup_only:
        meter.stop()
        print(json.dumps(setup))
        return 0

    signal.signal(signal.SIGALRM, _alarm)
    results = []
    wall = 0.0
    spans = []
    for i, op in enumerate(ops):
        res = {"label": op.label, "question": op.question, "verdict": None,
               "latency_s": None, "error": None, "wrong": False}
        results.append(res)
        left = args.cap_s - wall
        if left <= 0:
            res["error"] = "not started: run cap reached"
            res["latency_s"] = res["scaled_s"] = op.budget_s
            continue
        limit = min(op.budget_s, left)
        signal.setitimer(signal.ITIMER_REAL, limit)
        t0 = time.perf_counter()
        try:
            out = workloads.execute(op)
        except OverBudget:
            out = None
            res["error"] = f"over its {limit:.3g} s budget"
        except Exception as exc:        # a failed op; the loop goes on
            out = None
            res["error"] = f"{type(exc).__name__}: {exc}"
            res["wrong"] = True
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            t1 = time.perf_counter()
        spans.append((res, t0, t1))
        wall += t1 - t0
        if out is None:
            continue
        res["verdict"] = out.verdict
        res["digest"] = workloads.digest(out.text)
        reason = workloads.check(op, out)
        if reason is None and str(i) in recorded \
                and recorded[str(i)] != res["digest"]:
            reason = "report bytes differ from the recorded digest"
        if reason is not None:
            res["error"], res["wrong"] = reason, True

    if args.trace:
        for res, t0, t1 in spans:
            res["latency_s"] = res["scaled_s"] = t1 - t0
    else:
        meter.stop()
        for res, t0, t1 in spans:
            res["latency_s"], speed = meter.measure(t0, t1)
            res["scaled_s"] = res["latency_s"] * speed
    doc = {**setup, "wall_s": wall, "ops": results,
           "ref_samples": [d for _, d in meter.samples],
           "peak_rss_mb": resource.getrusage(
               resource.RUSAGE_SELF).ru_maxrss / 1024}
    if tracer is not None:
        doc["per_layer"] = layers.per_layer_values(
            tracer, caches_before, layers.cache_counts())
        doc["span_calls"] = {name: st.calls
                             for name, st in tracer.stats.items()}
    print(json.dumps(doc))
    return 0


def _recorded_digests(workload, seed) -> dict:
    path = HERE / "digests.json"
    if not path.exists():
        return {}
    with open(path, encoding="utf-8") as fh:
        return json.load(fh).get(workload, {}).get(str(seed), {})


if __name__ == "__main__":
    sys.exit(main())
