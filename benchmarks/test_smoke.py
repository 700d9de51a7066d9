"""Smoke test of the benchmark harness itself, at tiny sizes.

    python3 -m pytest benchmarks/test_smoke.py -q

Every workload runs in both modes at scale 0.02 (the reference is checked
at full size only); the checks below cover the result line, the gates and
the compare verdicts.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "benchmarks"))


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "benchmarks/run.py", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_result_line(workload, trace):
    proc = run_bench("--workload", workload, "--seconds", "0.5",
                     "--trace", str(trace), "--scale", "0.02")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    want = SPEC["end_to_end" if trace == 0 else "per_layer"]
    assert ({name: m["unit"] for name, m in result["metrics"].items()}
            == {m["name"]: m["unit"] for m in want})
    if trace == 0:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "benchmarks", tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "bound_grid", "--seed", "1", "--seconds",
                     "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_reference_gate_catches_a_changed_value(tmp_path):
    import workloads
    wl = workloads.BoundGrid(workloads.BoundGrid.default_seed, 1.0, tmp_path)
    out = wl.run_pass(1)
    assert wl.check_rows(out) == []
    assert wl.compare(out, wl.reference()) == []
    out[1]["raw"] *= 1.0 + 1e-9
    assert len(wl.compare(out, wl.reference())) == 1


def test_compare_verdicts():
    from suite import judge
    spec = {"unit": "s", "better": "lower", "bound": 0.1}
    base = [1.0, 1.01, 0.99, 1.02, 0.98, 1.0, 1.01, 0.99, 1.0, 1.0]
    assert judge("wall_s", base, base, spec).endswith("within bound")
    assert judge("wall_s", base, [x * 1.2 for x in base],
                 spec).endswith("regressed")
    assert judge("wall_s", base, [x * 0.8 for x in base],
                 spec).endswith("improved")
    noisy = [x * (1.5 if i % 2 else 0.7) for i, x in enumerate(base)]
    assert judge("wall_s", base, noisy, spec).endswith("unresolved")
