"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q

Smoke runs of every workload at tiny sizes must print every metric of
BENCHMARK.json with its unit; corrupted outputs must count as failed
operations; and the benchmark must refuse to run without the sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from mfkrig.cokriging import MultiFidelityModel  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload, trace, cwd=ROOT, timeout=300):
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"),
           "--workload", workload, "--seed", "3", "--seconds", "1",
           "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=timeout, check=False)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_prints_every_metric_with_its_unit(workload, trace):
    done = run_bench(workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted}
    for name, entry in result["metrics"].items():
        assert np.isfinite(entry["value"]), name


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for rel in SPEC["paths"]:
        shutil.copytree(ROOT / rel, tmp_path / rel,
                        ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench("fit", 0, cwd=tmp_path, timeout=60)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def smoke_workload(cls, tmp_path):
    wl = cls(3, "smoke", str(tmp_path))
    wl.setup()
    return wl


def test_perturbed_prediction_fails_the_fit_check(tmp_path, monkeypatch):
    wl = smoke_workload(workloads.FitWorkload, tmp_path)
    clean = workloads.measured_pass(wl)
    wl.check(clean)
    assert clean.failed_ops == 0, clean.failures

    original = MultiFidelityModel.predict

    def perturbed(self, x):
        out = original(self, x)
        out.means[-1] += 1e-6
        return out

    monkeypatch.setattr(MultiFidelityModel, "predict", perturbed)
    corrupted = workloads.measured_pass(wl)
    wl.check(corrupted)
    assert corrupted.failed_ops == len(wl.instances)
    assert any("misses the data" in f for f in corrupted.failures)


def test_truncated_predictions_fail_the_cli_check(tmp_path):
    wl = smoke_workload(workloads.CliWorkload, tmp_path)
    result = workloads.measured_pass(wl)
    wl.check(result)
    assert result.failed_ops == 0, result.failures

    case = wl.cases[0]
    path = Path(wl.case_dir(case, "predict", "predictions.csv"))
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:-1]))
    result.failures.clear()
    wl.check(result)
    assert result.failed_ops == 1
    assert any("predictions.csv" in f for f in result.failures)


def test_loop_check_rejects_a_rising_imse(tmp_path):
    wl = smoke_workload(workloads.LoopWorkload, tmp_path)
    result = workloads.measured_pass(wl)
    wl.check(result)
    assert result.failed_ops == 0, result.failures

    trace = result.outputs[1]
    for entry in trace.entries:
        entry.imse_after = entry.imse_before * 2.0
    wl.check(result)
    assert result.failed_ops == len(result.op_times)
