"""Smoke test of the benchmark itself, at a tiny size (1 repeat x 2 folds on a
12-per-class cohort). Not part of the program's test suite; run it with

    python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402

SEED = 3


def bench(tmp_path, workload: str, trace: int, digests: dict | None = None, script=None,
          extra=()):
    path = tmp_path / "digests.json"
    path.write_text(json.dumps(digests or {}))
    cmd = [sys.executable, str(script or BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", "0.2", "--trace", str(trace),
           "--scale", "tiny", "--digests", str(path), *extra]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc, result


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_prints_with_its_unit(tmp_path, workload, trace):
    proc, result = bench(tmp_path, workload, trace)
    assert proc.returncode == 0, proc.stderr
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = run.PER_LAYER if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    for name, unit in want.items():
        assert any(line.split()[:1] == [name] and line.split()[-1] == unit
                   for line in proc.stdout.splitlines()), name


def test_metric_names_match_benchmark_json():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_every_cli_files_seed_has_recorded_files():
    digests = json.loads(run.DEFAULT_DIGESTS.read_text())
    for seed in (0, 7, 13, 1009):
        args = argparse.Namespace(workload="cli-files", scale="full", cli_model="dt", seed=seed)
        assert set(digests[run.digest_key(args)]["files"]) == set(run.CLI_FILES)


@pytest.mark.parametrize("workload, digests", [
    ("cv-clean", {"folds": {"0.1": "0" * 64}}),
    ("cv-noisy", {"tasks": {"0.1.0": {"score": -1}}}),
    ("learn-pinned", {"tasks": {"0.1.0": {"hypothesis_sha256": "0" * 64}}}),
    ("cli-files", {"files": {"hypothesis.json": "0" * 64}}),
])
def test_wrong_digest_is_a_failed_operation(tmp_path, workload, digests):
    key = f"{workload}/tiny" + (f"/seed{SEED}" if workload == "cli-files" else "")
    proc, result = bench(tmp_path, workload, 0, {key: digests})
    assert proc.returncode == 1
    assert result["failed"] >= 1 and not result["correct"]
    assert "FAILED" in proc.stdout


def test_forest_walkthrough_lists_its_learner_tasks(tmp_path):
    proc, result = bench(tmp_path, "cli-files", 0, extra=["--cli-model", "rf"])
    assert proc.returncode == 0 and result["correct"], proc.stdout
    assert any(line.split()[:1] == ["budget_failures"] and line.endswith("of 3 learner tasks")
               for line in proc.stdout.splitlines())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    proc, result = bench(tmp_path, "cv-clean", 0, script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0 and result is None
