"""Smoke test of the benchmark: tiny sizes, every workload, both modes.

Run from the repository root (under a minute on two cores)::

    python3 -m pytest bench/test_smoke.py -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SEED = 7


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_emits_every_metric_with_its_unit(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == {m["name"]: m["unit"] for m in declared}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_traced_layers_match_each_workload():
    layers = {}
    for workload in WORKLOADS:
        path = BENCH / "_out" / "results" / f"{workload}-seed{SEED}-trace1-smoke.json"
        if not path.is_file():
            assert run_bench(ROOT, workload, 1).returncode == 0
        layers[workload] = json.loads(path.read_text())
    sweep = layers["solve_sweep"]["metrics"]
    assert sweep["runtime.interpolate_many.calls"]["value"] == 0
    assert sweep["optimizer.backward_induction_s"]["value"] > 0
    table = layers["eval_table"]
    assert table["largest_self_time"][0][0] == "runtime.interpolate_many"
    assert table["metrics"]["encounters.unique_per_build"]["value"] < 1
    rare = layers["rare_event_tcas"]["metrics"]
    assert rare["runtime.interpolate_many.calls"]["value"] == 0
    assert rare["tcas.tracker_step.calls"]["value"] > 0
    assert rare["bayesnet.fit_cpts.calls"]["value"] > 0
    assert rare["evaluation.is_ess_frac"]["value"] > 0


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("_out", "__pycache__"))
    proc = run_bench(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert proc.stdout == ""
