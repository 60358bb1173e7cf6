"""The two example scripts run end to end as separate processes."""

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


@pytest.mark.parametrize("frames", ["abc", "12:"])
def test_run_experiment_refuses_malformed_frames(tmp_path, frames):
    workdir = tmp_path / "exp"
    proc = run_script("run_experiment.py", "--workdir", str(workdir), "--frames", frames)
    assert proc.returncode == 2
    assert f"argument --frames: frames must be 'N' or 'LO:HI', got {frames!r}" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not workdir.exists()


def test_make_figures_writes_svgs(tmp_path):
    out = tmp_path / "figures"
    proc = run_script("make_figures.py", "--out-dir", str(out), "--grid-points", "21")
    assert proc.returncode == 0, proc.stderr
    for order in (4, 6):
        assert (out / f"correspondence_order{order}.svg").read_text().startswith("<svg")
        assert (out / f"correspondence_order{order}.txt").exists()
