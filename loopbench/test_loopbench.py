"""Tests of the benchmark itself: tiny runs of every workload, traced and
untraced, checked against the metric names in BENCHMARK.json."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
ITEMS = 4  # items per workload in a smoke run
_runs: dict = {}


def run(workload: str, trace: int, again: bool = False) -> tuple[dict, dict]:
    """(run record, result) of a one-round run on the first few items."""
    key = (workload, trace, again)
    if key not in _runs:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
             "--seconds", "0", "--trace", str(trace), "--items", str(ITEMS)],
            cwd=ROOT, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.strip().splitlines()
        _runs[key] = json.loads(lines[-2])["run_record"], json.loads(lines[-1])
    return _runs[key]


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_emits_every_named_metric(workload, trace):
    record, result = run(workload, trace)
    names = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == names
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= ITEMS
    assert record["problems"] == []
    assert record["trace"] == trace


def test_counts_repeat_across_runs_of_one_seed():
    (first_record, first), (second_record, second) = run("tri-torus", 1), run("tri-torus", 1, again=True)
    counts = {
        name for name, m in first["metrics"].items()
        if m["unit"] in ("count", "ratio") and name != "trace.overhead_frac"
    }
    assert "closed.normalize.calls" in counts and "words.canonical.letters" in counts
    assert first["metrics"]["closed.normalize.calls"]["value"] > 0
    assert {n: first["metrics"][n] for n in counts} == {n: second["metrics"][n] for n in counts}
    assert first["attempted"] == second["attempted"]
    assert first_record["input_digest"] == second_record["input_digest"]
    assert first_record["trace_extras"] == second_record["trace_extras"]


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_traced_and_untraced_runs_give_the_same_outputs(workload):
    plain, traced = run(workload, 0)[0], run(workload, 1)[0]
    assert plain["input_digest"] == traced["input_digest"]
    assert plain["output_digest"] == traced["output_digest"]
    assert traced["trace_restored"]


def test_trace_rebinds_and_restores_every_name():
    ns = workloads.import_loopcalc(fresh=False)
    holders = [ns.loops, ns.stars, ns.closed]
    originals = [h.require_valid_loop for h in holders]
    add = ns.algebra.FormalSum.__add__
    items = (
        workloads.build_items(ns, "tri-torus", 1)[:1]
        + workloads.closed_g2_items(ns, 1)[:1]
        + workloads.build_items(ns, "fuzz-oracle", 1)[:1]
    )
    tracer = layers.Tracer()
    tracer.install()
    try:
        wrapped = {h.require_valid_loop for h in holders}
        assert len(wrapped) == 1 and hasattr(wrapped.pop(), "loopbench_layer")
        assert hasattr(ns.algebra.FormalSum.__add__, "loopbench_layer")
        for item in items:
            assert not workloads.run_item(ns, item, keep_digest=False).problems
    finally:
        tracer.uninstall()
    assert [h.require_valid_loop for h in holders] == originals
    assert ns.algebra.FormalSum.__add__ is add
    assert layers.leftover_wrappers() == []
    metrics = tracer.metrics()
    assert metrics["loops.validate.calls"] > 0 and metrics["closed.normalize.calls"] > 0
    assert metrics["fuzz.oracle.calls"] == workloads.FUZZ_BLOCK and metrics["gates.omega.calls"] > 0


def test_run_fails_without_package_source(tmp_path):
    bench = tmp_path / "loopbench"
    bench.mkdir()
    for name in ("run.py", "workloads.py", "layers.py"):
        (bench / name).write_text((HERE / name).read_text())
    proc = subprocess.run(
        [sys.executable, "loopbench/run.py", "--workload", "tri-torus", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
