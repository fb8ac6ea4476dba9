"""Smoke tests for the experiment scripts under ``scripts/``."""

import os
import subprocess
import sys

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


def test_run_localization_smoke():
    proc = run_script("run_localization.py", "--h-grid", "0.03125")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    header = next(i for i, line in enumerate(lines) if line.split()[:2] == ["h", "tau"])
    rows = lines[header + 1 : header + 5]
    assert len(rows) == 4
    assert not any("skipped" in row for row in rows)
    assert lines[header + 5].startswith("sliding fit")
