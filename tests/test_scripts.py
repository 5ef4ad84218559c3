"""The scripts under scripts/ run end to end on a small input."""

import csv
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_decay_study_writes_noop_rows_and_one_trace_per_tau_and_seed(tmp_path):
    out = tmp_path / "decay"
    argv = [
        sys.executable, str(ROOT / "scripts" / "run_decay_study.py"),
        "--out", str(out), "--seeds", "0", "--taus", "3", "--dimension", "4",
    ]
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run(argv, env=env, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    with open(out / "results.csv", newline="") as fh:
        assert [row["method"] for row in csv.DictReader(fh)] == ["noop"]
    assert (out / "trace_tau3_seed0.csv").is_file()
