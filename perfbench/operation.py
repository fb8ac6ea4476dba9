"""Run one benchmark operation in a fresh process, as a user would.

Usage: ``python3 perfbench/operation.py SPEC.json SPAWN_TIME``

Set-up runs from process start until ``amce.cli`` is imported and the
config is loaded; then ``amce.cli.main(argv)`` runs, optionally with every
layer traced, and the outputs are checked.  A spec without ``argv`` is a
set-up probe: it stops after set-up.  The result (set-up and ``main``
times, exit code, peak RSS, check verdict and spans) is written as JSON to
the spec's ``result`` path.

Times are CPU times of this process (``time.process_time``).  The package
runs single-threaded here, so CPU time is the wall time of an idle
machine; on a shared virtual machine it leaves out the time the host gave
the CPU to other guests.  The speed of that CPU still drifts by up to
1.7x over seconds to minutes, so :class:`SpeedSampler` records the
machine's speed during ``main`` and the parent rescales to a reference
speed.  Wall times (``*_wall_s``, ``SPAWN_TIME`` being the parent's
``time.time()`` just before it started this process) are recorded too.
The sampler's own time is taken out of ``main_s`` and ``main_wall_s``.
"""

import json
import os
import signal
import sys
import time

# CPU seconds of the operation between two speed samples
SAMPLE_INTERVAL_S = 0.02


def _load(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _field_csv(path):
    import numpy as np

    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


# ---------------------------------------------------------------------------
# output checks: each returns (passed, detail) for an operation that exited 0
# ---------------------------------------------------------------------------


def check_solve(out, p):
    """Sup error of u.csv and w.csv against the fixture's exact solution."""
    import numpy as np
    from amce.fixtures import get_fixture

    res = _load(os.path.join(out, "report.json"))["results"]
    rows = res["n_nodes"] + res["n_hits"]
    exact = get_fixture(p["fixture"], p["theta"])
    errs = {}
    for name in ("u", "w"):
        d = _field_csv(os.path.join(out, f"{name}.csv"))
        if len(d) != rows:
            return False, f"{name}.csv has {len(d)} rows, expected {rows}"
        ref = np.asarray(getattr(exact, name)(d[:, :2]), float)
        errs[name] = float(np.max(np.abs(d[:, 2] - ref)))
    ok = errs["u"] <= p["u_tol"] and errs["w"] <= p["w_tol"]
    return ok, (
        f"err_u={errs['u']:.3e} (tol {p['u_tol']:.3e}), "
        f"err_w={errs['w']:.3e} (tol {p['w_tol']:.3e})"
    )


def check_sections(out, p):
    """tau and volume ratio of every boundary row; normalized determinants."""
    rows = _field_csv(os.path.join(out, "sections.csv"))
    if len(rows) != p["n_heights"]:
        return False, f"{len(rows)} kept rows, expected {p['n_heights']}"
    taus, vols = rows[:, 1], rows[:, 2]
    tau_err = float(abs(taus - p["tau"]).max())
    vol_err = float(abs(vols / p["vol_ratio"] - 1.0).max())
    res = _load(os.path.join(out, "report.json"))["results"]
    dets = []
    for entry in res["interior_points"]:
        norm = entry["normalized"]
        dets += norm["det_range_original"] + norm["det_range_normalized"]
    det_err = max(abs(d - 1.0) for d in dets)
    ok = tau_err <= p["tau_tol"] and vol_err <= p["vol_tol"] and det_err <= p["det_tol"]
    return ok, (
        f"max|tau-{p['tau']}|={tau_err:.2e}, max|vol/{p['vol_ratio']}-1|={vol_err:.2e}, "
        f"max|det-1|={det_err:.2e}"
    )


def check_verify(out, p):
    """No check of the verify battery reports ``fail``."""
    checks = _load(os.path.join(out, "verify.json"))["checks"]
    failed = [c["name"] for c in checks if c["status"] == "fail"]
    statuses = ",".join(f"{c['name']}={c['status']}" for c in checks)
    return not failed and bool(checks), statuses


def check_fixture(out, p):
    """The forcing's closed form and finite-difference route agree."""
    res = _load(os.path.join(out, "report.json"))["results"]
    gap = res["fixture"]["forcing_route_gap"]
    missing = [f for f in res["outputs"] if not os.path.isfile(os.path.join(out, f))]
    return gap <= p["route_gap_tol"] and not missing and len(res["outputs"]) == 3, (
        f"forcing_route_gap={gap:.3e} (tol {p['route_gap_tol']:.0e}), "
        f"outputs={res['outputs']}"
    )


def check_lma(out, p):
    """The linear solve's componentwise backward error is within lma_tol."""
    report = _load(os.path.join(out, "report.json"))
    err = report["results"]["backward_error"]
    tol = report["config"]["solver"]["lma_tol"]
    ok = err <= tol and os.path.isfile(os.path.join(out, "v.csv"))
    return ok, f"backward_error={err:.3e} (lma_tol {tol:.0e})"


CHECKS = {
    "solve": check_solve,
    "sections": check_sections,
    "verify": check_verify,
    "fixture": check_fixture,
    "lma": check_lma,
}


def _versions():
    import platform

    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


class SpeedSampler:
    """Sample the machine's speed while the operation runs.

    Every ``SAMPLE_INTERVAL_S`` of CPU time (``SIGPROF``) a fixed kernel of
    small-array NumPy arithmetic runs and its wall time is recorded.  The
    handler runs between bytecodes of the operation, so it shares the
    operation's CPU and its slow and fast spells.
    """

    def __init__(self):
        import numpy as np

        self.ones = np.ones(3)
        self.samples = []

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        v = self.ones
        for _ in range(60):
            v = v * 1.0 + 0.5
        self.samples.append(time.perf_counter() - t0)

    def __enter__(self):
        signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)
        return False


def _operation(spec, cli):
    import resource
    import traceback

    tracer = None
    if spec["trace"]:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    sampler = SpeedSampler()
    t0 = time.perf_counter()
    c0 = time.process_time()
    try:
        with sampler:
            if tracer is None:
                code = cli.main(spec["argv"])
            else:
                with tracer.root("cli.main"):
                    code = cli.main(spec["argv"])
    except Exception:
        # the package promises exit codes 0/2/3 and no traceback
        traceback.print_exc()
        code = 1
    out = {
        "exit": code,
        "main_s": time.process_time() - c0 - sum(sampler.samples),
        "main_wall_s": time.perf_counter() - t0 - sum(sampler.samples),
        "speed_samples": sampler.samples,
        "rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        tracer.enabled = False
        out.update(spans=tracer.spans, bindings=tracer.bindings)
        out.update(missing=tracer.missing, unbound=tracer.unbound)
    if code == 0:
        check = spec["check"]
        try:
            out["ok"], out["detail"] = CHECKS[check["kind"]](spec["out"], check)
        except (OSError, KeyError, ValueError, TypeError, IndexError) as exc:
            out["ok"], out["detail"] = False, f"unreadable output: {exc!r}"
    else:
        out["ok"], out["detail"] = False, f"exit {code}"
    return out


def main():
    spec_path, t_spawn = sys.argv[1], float(sys.argv[2])
    spec = _load(spec_path)
    import amce.cli as cli
    from amce.config import load_config

    load_config(spec["config"])
    # process_time counts this process's CPU time since it started
    result = {"setup_s": time.process_time(), "setup_wall_s": time.time() - t_spawn}

    src = os.path.realpath(spec["src"])
    if not os.path.realpath(cli.__file__).startswith(src + os.sep):
        raise SystemExit(f"amce was imported from {cli.__file__}, not from {src}")
    if spec["argv"]:
        result.update(_operation(spec, cli))
    else:
        result["versions"] = _versions()
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
