"""Run every workload untraced and traced; print metrics and layer self times.

Usage (from the root of a checkout)::

    python3 perfbench/report.py [--seed 0] [--seconds 20] [--workload NAME ...]

For each workload this runs ``perfbench/run.py`` twice, with ``--trace 0``
and ``--trace 1``, passing their output through (operation verdicts and
every metric with its unit).  From the traced run's spans it then prints
each layer's self time and call count per round, and the tracing
overhead: the relative drop of ``ok_runs_per_min`` from the untraced run
to the traced one, and the time the wrappers add (spans times the
measured cost of one wrapped call).  The closing table is the per-layer
baseline.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time

import run
import tracing

LAYERS = ["grid", "operators", "lu", "ma", "lma", "coupled", "sections", "regularity", "cli"]


def _run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(run.BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=run.ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    print("\n".join(lines[:-1]))
    if proc.returncode != 0:
        raise SystemExit(f"{workload}: run.py exited {proc.returncode}")
    path = run.WORK / f"{workload}.seed{seed}.trace{trace}.json"
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def span_cost_s(n=200_000):
    """Time a wrapper adds to one call: a traced minus a plain no-op call."""

    def noop():
        return None

    traced = tracing.Tracer().wrap("noop", noop)
    t0 = time.perf_counter()
    for _ in range(n):
        noop()
    t1 = time.perf_counter()
    for _ in range(n):
        traced()
    t2 = time.perf_counter()
    return ((t2 - t1) - (t1 - t0)) / n


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--workload", action="append", choices=sorted(run.WORKLOADS))
    args = parser.parse_args(argv)

    per_span = span_cost_s()
    rows = []
    for workload in args.workload or list(run.WORKLOADS):
        print(f"## {workload} (seed {args.seed})")
        plain = _run(workload, args.seed, args.seconds, 0)
        traced = _run(workload, args.seed, args.seconds, 1)
        rounds = traced["rounds"]
        selfs = tracing.self_times([op.get("spans", []) for rnd in rounds for op in rnd])
        print(f"{'layer':<12}{'self s/round':>14}{'calls/round':>13}")
        for layer in LAYERS:
            s, n = selfs.get(layer, (0.0, 0))
            print(f"{layer:<12}{s / len(rounds):>14.3f}{n / len(rounds):>13.1f}")
        base = plain["metrics"]["ok_runs_per_min"]["value"]
        with_trace = traced["metrics"]["trace.ok_runs_per_min"]["value"]
        overhead = 1.0 - with_trace / base if base else float("nan")
        n_spans = sum(n for _, n in selfs.values())
        main_s = sum(op["main_s"] for rnd in rounds for op in rnd)
        print(f"tracing overhead: {100 * overhead:.1f}% of ok_runs_per_min "
              f"({base:.4g} untraced, {with_trace:.4g} traced; one pair of runs, "
              f"within their run-to-run spread); wrappers: {n_spans} spans x "
              f"{1e6 * per_span:.2f} us = {100 * n_spans * per_span / main_s:.3f}% "
              f"of main time\n")
        rows.append((workload, plain["metrics"], selfs, len(rounds), overhead))

    print("| workload | ok_runs_per_min | ok_ratio | peak_rss_mib | setup_s "
          "| tracing overhead | largest self times (s/round) |")
    print("|---|---|---|---|---|---|---|")
    for workload, m, selfs, n_rounds, overhead in rows:
        top = sorted(selfs.items(), key=lambda kv: -kv[1][0])[:3]
        tops = ", ".join(f"{k} {v[0] / n_rounds:.2f}" for k, v in top)
        print(f"| {workload} | {m['ok_runs_per_min']['value']:.3g} "
              f"| {m['ok_ratio']['value']:.2f} | {m['peak_rss_mib']['value']:.0f} "
              f"| {m['setup_s']['value']:.2f} | {100 * overhead:.1f}% | {tops} |")


if __name__ == "__main__":
    main()
