"""amce benchmark: drive the ``amce`` CLI the way users do.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every operation is one ``amce`` command in a fresh process
(``perfbench/operation.py``), run against this checkout's ``src``, one
process at a time, with every BLAS/OpenMP thread variable set to 1 and no
``--threads`` flag.  A workload is a list of operations built from the
seed; the run repeats that list ("a round") until ``--seconds`` would be
exceeded by one more round, and always runs at least one round.  Each
operation gets a fresh output directory and is judged by its exit code
first, then by a check of its outputs.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones (``ok_runs_per_min``, ``ok_ratio``,
``peak_rss_mib``, ``setup_s``); with ``--trace 1`` the per-layer metrics of
``tracing.py``.  ``ok_runs_per_min`` counts CPU time of the operation
processes at a reference machine speed (see ``operation.py`` and
``speed``); the CPU-time and wall-clock figures it is derived from are
printed too.  The lines before the JSON give the environment, every
operation's verdict, and every metric with its unit; the same record, with
the spans of a traced run, is written to ``perfbench/_work/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "_work"

# A run must end within 180 s; no operation is started or left running
# past this point.
DEADLINE_S = 170.0
SETUP_PROBES = 3

# Time of operation.py's speed-sampling kernel at the reference speed; the
# kernel takes 0.18-0.22 ms on an unloaded 2-vCPU Xeon guest.
REF_SAMPLE_S = 2.0e-4

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

H64 = 1.0 / 64.0
H128 = 1.0 / 128.0
DISK = {"kind": "disk", "params": {"radius": 1.0}}
THETA = 0.25  # the CLI's default fixture exponent


def _config(h, **blocks):
    return {"domain": dict(DISK, h_grid=h), **blocks}


# ---------------------------------------------------------------------------
# workloads: (seed, output dirs) -> operations (command, config, check)
# Solver options stay at their defaults in every config.
# ---------------------------------------------------------------------------


def solve_quartic_64(seed, outs):
    # Sign-changing forcing: 49 outer sweeps, 96 Newton steps, 148 LU
    # factorizations; the coupled/ma/lma/lu path with no ellipse fit.
    # Tolerances are the seed's sup errors (1.32e-4, 3.40e-4) plus 10%.
    fixture = "radial_quartic"
    return [
        (
            "solve",
            _config(H64, fixture={"name": fixture}),
            {"kind": "solve", "fixture": fixture, "theta": THETA,
             "u_tol": 1.45e-4, "w_tol": 3.75e-4},
        )
    ]


def sections_sheared_64(seed, outs):
    # One outer sweep, then four pinned and one free Frank-Wolfe ellipse
    # fits.  For the sheared quadratic tau = 0.5 and vol/(pi h) = 2 exactly,
    # and the Hessian determinant is 1 everywhere.  The seed picks the angle
    # of the interior point on |y| = 1/2 among 0 and pi: the two points are
    # mirror images under u(-x) = u(x), so every seed does the same work.
    # Other angles change the free fit's cost 2.4-fold (6.9-16.8 s), more
    # than the bound on ok_runs_per_min.
    point = [0.5 * (-1) ** seed, 0.0]
    sections = {"boundary_point": [0.0, -1.0], "interior_points": [point],
                "normalize": True}
    return [
        (
            "sections",
            _config(H64, fixture={"name": "sheared_half"}, sections=sections),
            {"kind": "sections", "n_heights": 4, "tau": 0.5, "tau_tol": 0.01,
             "vol_ratio": 2.0, "vol_tol": 0.01, "det_tol": 1e-6},
        )
    ]


def verify_128(seed, outs):
    # The verify battery at 51 429 nodes: boundary_holder_check dominates
    # time and peak memory.  paraboloid_r2 exits 2 at the parent commit
    # ("line search stalled"): newton_tol = 1e-10 sits below the round-off
    # floor at h = 1/128.  The defect is measured, not configured away.
    return [
        ("verify", _config(H128, fixture={"name": name}), {"kind": "verify"})
        for name in ("paraboloid", "paraboloid_r2")
    ]


def io_128(seed, outs):
    # fixture writes three CSVs; lma reads u_exact.csv back onto the grid.
    return [
        ("fixture", _config(H128, fixture={"name": "sheared_half"}),
         {"kind": "fixture", "route_gap_tol": 1e-8}),
        ("lma", _config(H128, lma={"u_csv": str(outs[0] / "u_exact.csv"),
                                   "g": {"const": -1.0}, "psi": {"const": 1.0}}),
         {"kind": "lma"}),
    ]


WORKLOADS = {
    "solve-quartic-64": solve_quartic_64,
    "sections-sheared-64": sections_sheared_64,
    "verify-128": verify_128,
    "io-128": io_128,
}


def operations(workload, seed, round_dir):
    """Operations of one round, each with its own fresh output directory."""
    outs = [round_dir / f"op{k}" / "out" for k in range(2)]
    ops = WORKLOADS[workload](seed, outs)
    return [(cmd, cfg, check, outs[k]) for k, (cmd, cfg, check) in enumerate(ops)]


# ---------------------------------------------------------------------------
# running
# ---------------------------------------------------------------------------


def child_env():
    env = dict(os.environ)
    env.update({v: "1" for v in THREAD_VARS})
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


class BenchError(RuntimeError):
    """The benchmark itself could not run (not an operation failure)."""


def spawn(spec, spec_path, env, timeout):
    """Run operation.py on ``spec`` and return the result it wrote.

    If it wrote none, return a failed result: ``exit`` is None when the
    process was killed at ``timeout``, else the process's exit code.
    Without a result the CPU time is unknown, so ``main_s`` is wall time.
    """
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    t0 = time.time()
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "operation.py"), str(spec_path), repr(t0)],
            cwd=ROOT,
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        code, detail = None, f"killed after {timeout:.0f} s"
    else:
        tail = (proc.stderr.strip().splitlines() or [""])[-1]
        if proc.returncode == 0 and os.path.isfile(spec["result"]):
            with open(spec["result"], encoding="utf-8") as fh:
                result = json.load(fh)
            if result.get("exit", 0) != 0 and tail:
                result["detail"] += f": {tail}"
            return result
        code, detail = proc.returncode, f"operation.py exited {proc.returncode}: {tail}"
    wall = time.time() - t0
    return {"exit": code, "main_s": wall, "main_wall_s": wall, "ok": False, "detail": detail}


def probe(config_path, run_dir, env, k):
    spec = {"argv": [], "config": str(config_path), "src": str(SRC),
            "result": str(run_dir / f"probe{k}.json"), "trace": False}
    result = spawn(spec, run_dir / f"probe{k}.spec.json", env, 60)
    if "setup_s" not in result:
        raise BenchError(f"set-up probe failed: {result['detail']}")
    return result


def run_round(workload, seed, trace, run_dir, env, t_start):
    round_dir = Path(tempfile.mkdtemp(prefix="round", dir=run_dir))
    results = []
    for cmd, cfg, check, out in operations(workload, seed, round_dir):
        out.parent.mkdir(parents=True)
        cfg_path = out.parent / "config.json"
        with open(cfg_path, "w", encoding="utf-8") as fh:
            json.dump(dict(cfg, output_dir=str(out)), fh)
        spec = {
            "argv": [cmd, "--config", str(cfg_path), "--seed", str(seed)],
            "config": str(cfg_path),
            "src": str(SRC),
            "out": str(out),
            "check": check,
            "trace": trace,
            "result": str(out.parent / "result.json"),
        }
        timeout = max(1.0, DEADLINE_S - (time.monotonic() - t_start))
        result = spawn(spec, out.parent / "spec.json", env, timeout)
        result["label"] = f"{cmd} {cfg.get('fixture', {}).get('name', '-')}"
        results.append(result)
    return results


def environment(versions):
    with open("/proc/meminfo", encoding="utf-8") as fh:
        mem_kib = next(int(line.split()[1]) for line in fh if line.startswith("MemTotal"))
    return dict(nproc=os.cpu_count(), mem_total_mib=mem_kib // 1024,
                threads={v: "1" for v in THREAD_VARS}, **versions)


def measure(workload, seed, seconds, trace, run_dir):
    t_start = time.monotonic()
    env = child_env()
    probe_dir = run_dir / "probe"
    probe_dir.mkdir()
    first = operations(workload, seed, probe_dir)[0]
    probe_cfg = probe_dir / "config.json"
    with open(probe_cfg, "w", encoding="utf-8") as fh:
        json.dump(dict(first[1], output_dir=str(probe_dir / "out")), fh)
    # the median over these and the operations' own set-ups discounts the
    # first process of a checkout, which also compiles the bytecode
    probes = [probe(probe_cfg, run_dir, env, k) for k in range(SETUP_PROBES)]
    versions = probes[0].pop("versions")

    rounds = []
    t_loop = time.monotonic()
    while True:
        t_round = time.monotonic()
        rounds.append(run_round(workload, seed, trace, run_dir, env, t_start))
        now = time.monotonic()
        if any(r["exit"] is None for r in rounds[-1]):
            break
        if (now - t_loop) + (now - t_round) > seconds:
            break
        if (now - t_start) + (now - t_round) > DEADLINE_S:
            break
    return environment(versions), probes, rounds


def speed(ops):
    """Machine slowness during the run: kernel time over its reference.

    The mean of the middle 80% of the pooled samples leaves out samples
    hit by an interrupt or by the host taking the CPU away.
    """
    samples = sorted(x for r in ops for x in r.get("speed_samples", []))
    k = len(samples) // 10
    middle = samples[k : len(samples) - k]
    return statistics.fmean(middle) / REF_SAMPLE_S if middle else 1.0


def metrics_of(probes, rounds, trace):
    """(end-to-end or per-layer metrics, unnormalized counterparts) of a run."""
    ops = [r for rnd in rounds for r in rnd]
    ok = sum(r["ok"] for r in ops)
    cpu_per_min = 60.0 * ok / sum(r["main_s"] for r in ops)
    # runs per minute of CPU time at the reference speed
    per_min = cpu_per_min * speed(ops)
    # operations that died before set-up ended carry no set-up time
    setups = [r for r in probes + ops if "setup_s" in r]
    wall = {
        "ok_runs_per_cpu_min": (cpu_per_min, "1/min"),
        "ok_runs_per_wall_min": (60.0 * ok / sum(r["main_wall_s"] for r in ops), "1/min"),
        "setup_wall_s": (statistics.median(r["setup_wall_s"] for r in setups), "s"),
        "speed_ratio": (speed(ops), "ratio"),
    }
    if trace:
        missing = {m for r in ops for m in r.get("missing", [])}
        per_layer = tracing.layer_metrics(
            [[r.get("spans", []) for r in rnd] for rnd in rounds], missing
        )
        out = {n: (v, tracing.PER_LAYER[n][0]) for n, v in per_layer.items()}
        out["trace.ok_runs_per_min"] = (per_min, "1/min")
        return out, wall
    return {
        "ok_runs_per_min": (per_min, "1/min"),
        "ok_ratio": (ok / len(ops), "ratio"),
        "peak_rss_mib": (max(r.get("rss_mib", 0.0) for r in ops), "MiB"),
        "setup_s": (statistics.median(r["setup_s"] for r in setups), "s"),
    }, wall


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (SRC / "amce" / "cli.py").is_file():
        print(f"error: no amce package under {SRC}", file=sys.stderr)
        return 2

    WORK.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        env, probes, rounds = measure(
            args.workload, args.seed, args.seconds, bool(args.trace), run_dir
        )
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    ops = [r for rnd in rounds for r in rnd]
    metrics, wall = metrics_of(probes, rounds, bool(args.trace))
    # an exit code outside the package's 0/2/3 contract, or an exit 0 whose
    # outputs fail their check, is a wrong result; exits 2 and 3 and a kill
    # at the deadline (exit None) are failures
    correct = all(r["ok"] or r["exit"] in (2, 3, None) for r in ops)

    print("env: " + json.dumps(env, sort_keys=True))
    for i, rnd in enumerate(rounds, 1):
        for k, r in enumerate(rnd, 1):
            verdict = "PASS" if r["ok"] else "FAIL"
            rss = f"{r['rss_mib']:.0f} MiB" if "rss_mib" in r else "-"
            print(f"op {i}.{k} {r['label']}: {verdict} exit={r['exit']} "
                  f"main={r['main_s']:.2f} s cpu rss={rss} | {r['detail']}")
    missing = sorted({m for r in ops for m in r.get("missing", [])})
    unbound = sorted({m for r in ops for m in r.get("unbound", [])})
    if missing:
        print("missing targets (metrics omitted): " + ", ".join(missing))
    if unbound:
        print("expected bindings not found: " + ", ".join(unbound))
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit}")
    for name, (value, unit) in wall.items():
        print(f"detail {name} = {value:.6g} {unit}")

    as_json = {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()}
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "env": env, "setup_probes": probes, "rounds": rounds, "metrics": as_json}
    with open(WORK / f"{args.workload}.seed{args.seed}.trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump(record, fh)

    print(json.dumps({
        "correct": correct,
        "attempted": len(ops),
        "failed": len(ops) - sum(r["ok"] for r in ops),
        "metrics": as_json,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
