"""Smoke tests of the benchmark itself, on tiny configs.

Run from the repository root:

    python3 -m pytest nlsbench -q
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


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "nlsbench/run.py", "--workload", workload, "--seed", "3",
           "--seconds", "0.5", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_printed_with_its_unit(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    for name, unit in expected.items():
        assert any(line.startswith(f"{name} = ") and line.endswith(f" {unit}")
                   for line in lines), name


def test_spectral_makes_no_lambda_passes_or_classifier_calls():
    proc = run_bench(ROOT, "spectral", 1)
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    assert metrics["energies.lambda_passes"]["value"] == 0
    assert metrics["classify.tuples"]["value"] == 0
    assert metrics["dynamics.steps"]["value"] > 0


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "nlsbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = run_bench(tmp_path, "identity-1d", 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def _track_csv(path: Path, residual_scale: float) -> None:
    t = [0.01 * i for i in range(9)]
    rows = ["t,mass,energy,e_i1,correction,e_i2,lambda_mbar_n,lambda_mbar_n4,residual"]
    for i, ti in enumerate(t):
        y = 1e-3 * ti
        rows.append(f"{ti},1.0,{2.0 + 1e-9 * i},{1.0 + y},0,{1.0 + y},{y},0,"
                    f"{residual_scale * (-1) ** i}")
    path.write_text("\n".join(rows) + "\n")


def test_identity_check_can_fail(tmp_path):
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH))
    import jobs

    _track_csv(tmp_path / "energy_track.csv", 1e-9)
    problems, facts = jobs.check_energy_track(tmp_path, 0)
    assert problems == [] and facts["residual_max"] == 1e-9
    _track_csv(tmp_path / "energy_track.csv", 1e-6)
    problems, _ = jobs.check_energy_track(tmp_path, 0)
    assert problems and "exceeds tolerance" in problems[0]
