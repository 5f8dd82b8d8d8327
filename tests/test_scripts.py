"""Smoke runs of the study scripts, so an API change cannot break them unseen."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, (proc.returncode, proc.stderr, proc.stdout[:400])
    return proc.stdout


def test_jacobiator_scan_finds_pinned_witness():
    out = run_script("jacobiator_scan.py", "--count", "1", "--top", "2")
    assert "-0.78724026" in out


def test_energy_drift_study_runs():
    out = run_script(
        "energy_drift_study.py", "--systems", "nonholonomic_particle",
        "--t1", "0.2", "--dts", "0.02", "0.01",
    )
    assert "nonholonomic_particle" in out
