"""The example and measurement scripts run end to end as separate processes."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name, *args):
    return subprocess.run([sys.executable, str(SCRIPTS / name), *args],
                          capture_output=True, text=True, timeout=120)


def test_run_experiment_writes_report(tmp_path):
    workdir = tmp_path / "exp"
    proc = run_script("run_experiment.py", "--workdir", str(workdir), "--utterances", "4")
    assert proc.returncode == 0, proc.stderr
    doc = json.loads((workdir / "report.json").read_text())
    assert [entry["order"] for entry in doc["orders"]] == [2, 4, 6]


@pytest.mark.parametrize("frames, reason", [
    ("abc", "frames must be 'N' or 'LO:HI', got 'abc'"),
    ("12:", "frames must be 'N' or 'LO:HI', got '12:'"),
    ("5:2", "frames range must satisfy 1 <= lo <= hi, got (5, 2)"),
    ("0", "frames range must satisfy 1 <= lo <= hi, got (0, 0)"),
], ids=["abc", "12:", "5:2", "0"])
def test_run_experiment_refuses_malformed_frames(tmp_path, frames, reason):
    workdir = tmp_path / "exp"
    proc = run_script("run_experiment.py", "--workdir", str(workdir), "--frames", frames)
    assert proc.returncode == 2
    assert f"argument --frames: {reason}" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not workdir.exists()


def test_make_figures_writes_svgs(tmp_path):
    out = tmp_path / "figures"
    proc = run_script("make_figures.py", "--out-dir", str(out), "--grid-points", "21")
    assert proc.returncode == 0, proc.stderr
    for order in (4, 6):
        assert (out / f"correspondence_order{order}.svg").read_text().startswith("<svg")
        assert (out / f"correspondence_order{order}.txt").exists()


def test_forward_sweep_times_both_passes():
    # K=65 is past --scalar-max, so only the array pass runs and is checked there.
    proc = run_script("forward_sweep.py", "--states", "3,11,65", "--rounds", "1", "--calls", "2")
    assert proc.returncode == 0, proc.stderr
    header, *lines = proc.stdout.splitlines()
    assert "SCALAR_MAX_STATES=" in header
    assert [line.split()[0] for line in lines] == ["K=3", "K=11", "K=65"]
    assert ["array/scalar" in line for line in lines] == [True, True, False]


def test_format_sweep_checks_and_times_both_routes():
    proc = run_script("format_sweep.py", "--entries", "60,600", "--rounds", "1", "--calls", "2")
    assert proc.returncode == 0, proc.stderr
    header, *lines = proc.stdout.splitlines()
    assert "FORMAT_MIN_ENTRIES=" in header
    assert [line.split()[0] for line in lines] == ["entries=60", "entries=600"]
    assert all("digits/template" in line for line in lines)
