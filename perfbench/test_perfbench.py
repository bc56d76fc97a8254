"""Tests of the benchmark itself; run with ``python -m pytest perfbench``."""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")


def _result(cwd, *args):
    proc = subprocess.run(
        [sys.executable, RUN, *args], cwd=cwd, capture_output=True, text=True, timeout=180
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_smoke_runs_every_workload_with_every_named_metric():
    proc = subprocess.run(
        [sys.executable, RUN, "--smoke"], cwd=ROOT, capture_output=True, text=True, timeout=900
    )
    assert proc.returncode == 0, proc.stderr


def test_traced_counts_repeat_exactly():
    args = ("--workload", "train-micro", "--seed", "3", "--seconds", "1", "--trace", "1")
    first, second = _result(ROOT, *args), _result(ROOT, *args)
    for name, metric in first["metrics"].items():
        if name.endswith((".calls", ".retained_bytes", ".macs")):
            assert metric == second["metrics"][name], name


def test_fails_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train-micro", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
