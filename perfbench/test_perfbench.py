"""The benchmark's own tests.  Run from the repository root:

    python3 -m pytest perfbench -q

They run every workload in its tiny mode, check that every traced function
records calls on the workload that must reach it, and that the benchmark
refuses to produce a result without the program next to it.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in BENCH["workloads"]] == list(run.WORKLOADS)
    assert list(workloads.WORKLOADS) == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in BENCH["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in BENCH["per_layer"]] \
        == list(layers.PER_LAYER)


def test_generation_is_seeded_and_prefix_stable():
    for name in run.WORKLOADS:
        two = workloads.generate(name, 3, 2)
        assert workloads.generate(name, 3, 2) == two
        assert workloads.generate(name, 3, 1) == two[:len(two) // 2]
        assert workloads.generate(name, 4, 2) != two


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_tiny_run(name):
    proc = _run("perfbench/run.py", "--workload", name, "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] and doc["failed"] == 0 and doc["attempted"] >= 1
    assert list(doc["metrics"]) == [m["name"] for m in BENCH["end_to_end"]]
    assert all(m["value"] > 0 for m in doc["metrics"].values())


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_spans_reached(name):
    """One round traced: every span whose table row names this workload
    records a call, so no wrapper sits on a name that no caller uses."""
    wl = workloads.WORKLOADS[name]
    proc = _run("perfbench/worker.py", "--workload", name, "--seed", "1",
                "--seconds", str(wl.round_s), "--trace")
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    assert not any(op["error"] for op in doc["ops"])
    idle = [span for span, *_, where in layers.SPANS
            if where == name and not doc["span_calls"][span]]
    assert not idle
    names = {m for m, _, _ in layers.PER_LAYER} - {"trace.overhead_share"}
    assert set(doc["per_layer"]) == names


def test_refuses_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("perfbench/run.py", "--workload", "decide-random", "--seed",
                "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip().endswith("}")


def test_tail_latency():
    assert run.tail_latency([3, 1, 2]) == (3, 100.0)
    xs = list(range(1, 41))
    assert run.tail_latency(xs) == (30, 75.0)


def test_zero_coset_filter_is_narrow():
    """Only starts with a zero term in the root-of-unity pair's part are
    redrawn; the pair itself and its other starts stay in the draws."""
    Q = workloads.Q
    quad = [Q(4, 3), Q(-2), Q(1)]           # coeffs -4/3, 2: angle pi/6
    assert workloads._zero_coset(quad, quad, [Q(-5, 2), Q(0)])
    assert not workloads._zero_coset(quad, quad, [Q(-5, 2), Q(1)])
    r = Q(1, 2)
    cubic = workloads.pmul([-r, Q(1)], quad)
    pair = [Q(-5, 2), Q(0), Q(10, 3)]       # the pair's part, zero at n = 1
    init = [3 * r ** n + pair[n] for n in range(3)]
    assert workloads._zero_coset(cubic, quad, init)
    ops = workloads.generate("decide-random", 1, 1)
    assert any(op.label == "order2-rou-pair" for op in ops)
