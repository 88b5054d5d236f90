"""The command's contract: last line JSON, planted faults counted, no
sources means a non-zero exit without a result."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

from perfbench import spec

ROOT = Path(__file__).resolve().parents[2]


def test_fault_flag_counts_failures_and_still_reports():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "conv3d", "--seed", "5",
         "--seconds", "0.1", "--trace", "0", "--fault", "nonseparable_kernel"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=170,
    )
    assert proc.returncode == 0
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is False and result["failed"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in spec()["end_to_end"]}


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ef_train", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
