"""Tests of the benchmark itself, on reduced sizes.

    python3 -m pytest perfbench
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def smoke(workload, trace, seed=5, seconds=1):
    """Run one reduced workload; return (last-line result, detail file)."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
         "--smoke"], capture_output=True, text=True, timeout=300, check=False)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    path = os.path.join(ROOT, ".perfbench_out",
                        f"{workload}-seed{seed}-trace{trace}.json")
    with open(path, encoding="utf-8") as fh:
        return result, json.load(fh)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_emitted_and_every_answer_checked(workload, trace):
    result, detail = smoke(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in listed}
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], float), name
        if not trace:
            assert m["value"] > 0, name
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert 0 <= result["failed"] <= result["attempted"]
    assert detail["unchecked"] == 0


def test_counts_repeat_for_the_same_seed():
    counts = [m["name"] for m in SPEC["per_layer"]
              if m["unit"] in ("count", "MB")]
    (a, _), (b, _) = smoke("small-mixed", 1, 9), smoke("small-mixed", 1, 9)
    assert (a["attempted"], a["failed"]) == (b["attempted"], b["failed"])
    assert {n: a["metrics"][n]["value"] for n in counts} == {
        n: b["metrics"][n]["value"] for n in counts}


def test_operation_counts_do_not_depend_on_run_length():
    """Each operation counts once, so a longer run revisits, not adds."""
    (short, _), (long, _) = (smoke("small-mixed", 0, 9, seconds=1),
                             smoke("small-mixed", 0, 9, seconds=4))
    assert (short["attempted"], short["failed"]) == (
        long["attempted"], long["failed"])
    assert short["failed"] > 0      # the known route disagreement shows


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0],
         "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=tmp_path,
        capture_output=True, text=True, timeout=180, check=False)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_tracer_rebinds_every_import_and_restores():
    import framec
    from framec import direct, linalg, product

    from tracing import Tracer

    original = linalg.solve_min_norm
    tracer = Tracer()
    with tracer.active("test"):
        assert direct.solve_min_norm is linalg.solve_min_norm
        assert product.solve_min_norm is linalg.solve_min_norm
        assert linalg.solve_min_norm is not original
        fr = framec.make_frame([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])
        framec.complete_direct(fr, framec.PartialDual([[1.0], [0.0]], (0,)))
    assert direct.solve_min_norm is original
    totals = tracer.totals()
    solve = totals["linalg.solve_min_norm"]
    assert solve["calls"] == 1
    assert 0 < solve["self_ms"] < solve["ms"]
    assert totals["numpy.linalg.svd"]["calls"] >= 2
    assert tracer.calls["test", "_complete.unpermute"] >= 1


def test_tail_leaves_ten_samples_beyond():
    from bench import tail
    value, pct = tail(list(range(100)))
    assert value == 89 and pct == 90.0
    assert tail([3.0, 1.0]) == (3.0, 100.0)
