"""The benchmark's per-layer tracer still finds every function it times."""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

_PROBE = """
import json, sys
sys.path.insert(0, sys.argv[1])
import amce.cli
from tracing import Tracer

tracer = Tracer()
tracer.install()
print(json.dumps({"missing": tracer.missing, "unbound": tracer.unbound,
                  "bindings": tracer.bindings}))
"""


def test_tracer_finds_every_target_and_binding():
    # a fresh process, as in a benchmark operation: install() wraps the
    # bindings of the amce modules loaded at that point
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, os.path.join(ROOT, "perfbench")],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    found = json.loads(proc.stdout)
    assert found["missing"] == []
    assert found["unbound"] == []
    # the coupled Newton step's factorization is timed with the others
    assert "amce.coupled.splu" in found["bindings"]["lu.factor"]
