"""The demos run as scripts and print what their docstrings promise."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import fracvar

DEMOS = Path(__file__).resolve().parent.parent / "demos"


def _run(demo: str, cwd) -> subprocess.CompletedProcess:
    """Run one demo from cwd (a demo may write files there)."""
    src = str(Path(fracvar.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    return subprocess.run([sys.executable, str(DEMOS / demo)], cwd=cwd,
                          env=env, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("demo", sorted(p.name for p in DEMOS.glob("*.py")))
def test_demo_runs_cleanly(tmp_path, demo):
    proc = _run(demo, tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""


def test_two_solutions_demo_finds_both_and_rejects_the_control(tmp_path):
    proc = _run("05_two_solutions.py", tmp_path)
    assert proc.returncode == 0, proc.stderr
    lines = [line.strip() for line in proc.stdout.splitlines()]
    passes = [line for line in lines if line.startswith("mountain pass:")]
    assert len(passes) == 2
    assert all(line.split()[2] == "mountain-pass" for line in passes)
    distinct = [line for line in lines if line.startswith("distinct")]
    assert len(distinct) == 2
    assert all(line.split()[2] == "True" for line in distinct)
    assert "second solution claimed = False" in proc.stdout
