"""Smoke test: every workload, untraced and traced, at a tiny scale.

Runs the benchmark command as the benchmark's users run it and checks the
result line against ``BENCHMARK.json``. Run from the repository root::

    python3 -m pytest perfbench/test_smoke.py -q -p no:cacheprovider
"""
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args: str) -> tuple[dict, str]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=ROOT,
        capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-4000:]
    return (json.loads(proc.stdout.strip().splitlines()[-1]),
            proc.stdout + proc.stderr[-4000:])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_workload_runs_and_checks(workload, trace):
    result, output = _run("--workload", workload, "--seed", "3",
                          "--seconds", "1", "--trace", str(trace),
                          "--groups", "120")
    assert result["correct"], output
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: m["unit"] for k, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected}
    if trace:
        m = result["metrics"]
        assert result["attempted"] == 1
        assert m["cc.calls"]["value"] >= 2
        assert 0.5 < m["trace.coverage"]["value"] <= 1.0
    else:
        for name in ("match_s", "setup_s", "spark_jobs", "post_precision"):
            assert result["metrics"][name]["value"] > 0


def test_exits_nonzero_without_sources(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in (ROOT / "perfbench").glob("*.py"):
        (tmp_path / "perfbench" / f.name).write_text(f.read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload",
         SPEC["workloads"][0]["name"], "--seed", "1", "--seconds", "1",
         "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
        timeout=120)
    assert proc.returncode != 0 and proc.stdout == ""


def test_reference_mismatch_fails(tmp_path, monkeypatch):
    sys.path.insert(0, str(ROOT / "perfbench"))
    import check
    monkeypatch.setattr(check, "REFERENCE", tmp_path / "reference.json")
    values = {"digest": "0123456789abcdef", "spark_jobs": 200,
              "pairwise_f1": 0.8, "pre_precision": 0.5,
              "post_precision": 0.9, "post_f1": 0.85, "post_purity": 0.95}
    assert check.reference_problems("w", values) == []
    check.record_reference("w", values)
    assert check.reference_problems("w", values) == []
    assert check.reference_problems("v", dict(values, spark_jobs=1)) == []
    changed = dict(values, spark_jobs=201, post_f1=0.84)
    assert len(check.reference_problems("w", changed)) == 2
