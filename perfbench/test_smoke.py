"""Smoke test of the benchmark itself: every workload at tiny size.

Run from the root of the repository:

    python3 -m pytest -q perfbench/test_smoke.py

For each workload and trace setting it checks that the last line of output
names every metric of ``BENCHMARK.json`` with its unit, that the
correctness checks ran and passed, and that the known baseline defects
show. It also checks that the benchmark refuses to run without the sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run(workload, trace, root=ROOT, seed=5):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=root, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_prints_every_metric(workload, trace):
    got = run(workload, trace)
    assert got.returncode == 0, got.stderr
    result = json.loads(got.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, got.stdout
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    values = {name: m["value"] for name, m in result["metrics"].items()}
    if trace == 0:
        assert all(v > 0 for v in values.values()), values
    elif workload == "session-d3":
        # the d=4 probe is refused and most envelopes fail the schema
        assert values["fail_share"] > 0 and values["envelope_invalid_share"] > 0
        assert values["domain_check.calls"] > 0 and values["domain_check.self_s.d4"] > 0
    elif workload == "fit-d10":
        assert values["unconverged_share"] > 0     # nu = 0.1 stops at max_iter
        assert values["domain_check.calls"] == 0
    else:
        assert values["simlab.replicates"] > 0 and values["scatter.calls"] > 0


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    got = run(SPEC["workloads"][0]["name"], 0, root=tmp_path)
    assert got.returncode != 0
    assert got.stdout.strip() == ""
