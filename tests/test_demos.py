"""The demos run as scripts and print what their docstrings promise."""

import os
import subprocess
import sys
from pathlib import Path

import fracvar

DEMOS = Path(__file__).resolve().parent.parent / "demos"


def test_two_solutions_demo_finds_both_and_rejects_the_control(tmp_path):
    src = str(Path(fracvar.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run([sys.executable, str(DEMOS / "05_two_solutions.py")], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = [line.strip() for line in proc.stdout.splitlines()]
    passes = [line for line in lines if line.startswith("mountain pass:")]
    assert len(passes) == 2
    assert all(line.split()[2] == "mountain-pass" for line in passes)
    distinct = [line for line in lines if line.startswith("distinct")]
    assert len(distinct) == 2
    assert all(line.split()[2] == "True" for line in distinct)
    assert "second solution claimed = False" in proc.stdout
