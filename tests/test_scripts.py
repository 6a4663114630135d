"""The runnable scripts in scripts/, run as a user runs them: a fresh
interpreter with the package on PYTHONPATH."""

import csv
import io
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name: str, *args: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [
        str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        env=env, capture_output=True, text=True, timeout=300,
    )


def test_determinant_scan_matches_the_closed_form():
    proc = run_script("determinant_scan.py")
    assert proc.returncode == 0, proc.stderr
    rows = list(csv.DictReader(io.StringIO(proc.stdout)))
    assert len(rows) == 13
    assert max(float(row["rel_diff"]) for row in rows) <= 1e-13


def test_run_identities_csv_passes():
    proc = run_script("run_identities.py", "--format", "csv")
    assert proc.returncode == 0, proc.stderr
    rows = list(csv.DictReader(io.StringIO(proc.stdout)))
    assert rows and all(row["pass"] == "true" for row in rows)
