"""Smoke test for the experiment script under ``scripts/``."""

import os
import subprocess
import sys

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_script(name, *args):
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", name), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )


def test_run_forcing_family_smoke():
    # at h = 1/16 the fitted beta of the second member is NaN
    proc = run_script("run_forcing_family.py", "--members", "2", "--h-grid", "0.03125")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].split()[:5] == ["k", "sigma", "sup|f|", "L2(f)", "beta"]
    rows = [line.split() for line in lines[1:]]
    assert [row[0] for row in rows] == ["0", "1"]
    assert all(np.isfinite(float(row[4])) for row in rows)
