"""Smoke runs of the study scripts, so an API change cannot break them unseen."""

import importlib.util
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


def test_energy_drift_study_main_records_the_residual_on_every_system(capsys):
    # at dt 0.08 the sleigh's unprojected residual passes the default on-M
    # bound 1e-8 near t = 0.56; the study measures that drift, not stops at it
    spec = importlib.util.spec_from_file_location("energy_drift_study", ROOT / "scripts" / "energy_drift_study.py")
    study = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(study)
    study.main(["--t1", "0.6"])
    blocks = capsys.readouterr().out.strip().split("\n\n")
    assert [block.split()[0] for block in blocks] == list(study.STARTS)
    for block in blocks:
        rows = [line.split() for line in block.splitlines()[2:]]
        assert [float(row[0]) for row in rows] == [0.08, 0.04, 0.02, 0.01]
        assert all(0.0 <= float(row[2]) < 1e-7 for row in rows), block
    assert float(blocks[1].splitlines()[2].split()[2]) > 1e-8
