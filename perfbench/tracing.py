"""Per-layer tracing of the amce package from outside it.

The package is left untouched: :func:`install` replaces module attributes
with timing wrappers.  A function that several modules import under their
own names (``splu`` in ``ma``, ``lma`` and ``operators``; ``build_grid``
and ``verify`` in ``cli``; ...) has one binding per importing module, and
every binding is wrapped, because a caller looks the name up in its own
module.  A target that no longer exists is reported as missing, so a
refactor that removes a function never makes its layer look free.

Each wrapped call records a span ``[name, start, end, parent, extra]``;
spans stay in memory and are written out when the operation ends.
:func:`layer_metrics` turns the spans of one round of operations into the
per-layer metrics, and :func:`self_times` into each layer's self time.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import resource
import statistics
import sys
import time

# metric prefix -> (module, attribute) of the function it times
TARGETS = {
    "grid.build_grid": ("amce.grid", "build_grid"),
    "operators.grid_operators": ("amce.operators", "grid_operators"),
    "operators.local_quadratic_fit": ("amce.operators", "local_quadratic_fit"),
    "operators.discrete_hessian": ("amce.operators", "discrete_hessian"),
    "operators.solve_poisson": ("amce.operators", "solve_poisson"),
    "lu.factor": ("scipy.sparse.linalg", "splu"),
    "ma.solve_ma": ("amce.ma", "solve_ma"),
    "lma.solve_lma": ("amce.lma", "solve_lma"),
    "coupled.solve_system": ("amce.coupled", "solve_system"),
    "sections.mvee": ("amce.sections", "mvee"),
    "sections.localization_scan": ("amce.sections", "localization_scan"),
    "sections.extract_section": ("amce.sections", "extract_section"),
    "sections.maximal_height": ("amce.sections", "maximal_height"),
    "sections.normalize_section": ("amce.sections", "normalize_section"),
    "sections.quadratic_separation": ("amce.sections", "quadratic_separation"),
    "regularity.verify": ("amce.regularity", "verify"),
    "regularity.min_principle_check": ("amce.regularity", "min_principle_check"),
    "regularity.abp_chain_report": ("amce.regularity", "abp_chain_report"),
    "regularity.fit_holder_exponent": ("amce.regularity", "fit_holder_exponent"),
    "regularity.boundary_holder_check": ("amce.regularity", "boundary_holder_check"),
    "cli.write_field_csv": ("amce.cli", "write_field_csv"),
    "cli.read_field_csv": ("amce.cli", "read_field_csv"),
}

# Bindings timed under their own name: the separation audit run by the
# verify battery is a regularity cost, the one run by a section scan a
# sections cost.
BINDING_NAMES = {("amce.regularity", "quadratic_separation"): "regularity.quadratic_separation"}

# Bindings that must be found wrapped; a miss is listed, not hidden.
EXPECTED_BINDINGS = [
    ("amce.operators", "local_quadratic_fit"),
    ("amce.sections", "local_quadratic_fit"),
    ("amce.coupled", "local_quadratic_fit"),
    ("amce.sections", "quadratic_separation"),
    ("amce.regularity", "quadratic_separation"),
    ("amce.ma", "splu"),
    ("amce.lma", "splu"),
    ("amce.operators", "splu"),
    ("amce.cli", "build_grid"),
    ("amce.cli", "solve_system"),
    ("amce.cli", "verify"),
]

RSS_TARGETS = {"regularity.fit_holder_exponent", "regularity.boundary_holder_check"}


def _rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class _TracedLU:
    """Proxy for a SuperLU factorization whose ``solve`` calls are spans."""

    def __init__(self, lu, tracer: "Tracer"):
        self._lu = lu
        self.solve = tracer.wrap("lu.solve", lu.solve)

    def __getattr__(self, name):
        return getattr(self._lu, name)


def _extract_key(args, kwargs):
    x = kwargs.get("x", args[1] if len(args) > 1 else None)
    h = kwargs.get("h", args[2] if len(args) > 2 else None)
    return [float(v) for v in x] + [float(h)]


class Tracer:
    """Span recorder for one operation process (single-threaded callers)."""

    def __init__(self):
        self.spans: list[list] = []
        self.bindings: dict[str, list[str]] = {}
        self.missing: list[str] = []
        self.unbound: list[str] = []
        self.enabled = True
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, {}])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            idx = self._open(name)
            extra = self.spans[idx][4]
            if name in RSS_TARGETS:
                rss0 = _rss_mib()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self._close(idx)
                extra["error"] = type(exc).__name__
                history = getattr(exc, "history", None)
                if history is not None:
                    extra["history_len"] = len(history)
                raise
            self._close(idx)
            if name in RSS_TARGETS:
                extra["rss_rise_mib"] = _rss_mib() - rss0
            return _record_result(self, name, extra, args, kwargs, result)

        return traced

    @contextlib.contextmanager
    def root(self, name: str):
        """Span around code that is not a wrapped call, such as ``main``."""
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def install(self) -> None:
        """Wrap every binding of every target in the loaded amce modules."""
        modules = [
            m
            for n, m in list(sys.modules.items())
            if m is not None and (n == "amce" or n.startswith("amce."))
        ]
        for name, (mod_name, attr) in TARGETS.items():
            try:
                original = getattr(importlib.import_module(mod_name), attr)
            except (ImportError, AttributeError):
                self.missing.append(name)
                continue
            holders = list(modules)
            if not mod_name.startswith("amce"):
                holders.append(sys.modules[mod_name])
            for mod in holders:
                for binding, value in list(vars(mod).items()):
                    if value is not original:
                        continue
                    span_name = BINDING_NAMES.get((mod.__name__, binding), name)
                    setattr(mod, binding, self.wrap(span_name, original))
                    self.bindings.setdefault(span_name, []).append(
                        f"{mod.__name__}.{binding}"
                    )
        wrapped = {b for names in self.bindings.values() for b in names}
        for mod_name, attr in EXPECTED_BINDINGS:
            if f"{mod_name}.{attr}" not in wrapped:
                self.unbound.append(f"{mod_name}.{attr}")


def _record_result(tracer: Tracer, name: str, extra: dict, args, kwargs, result):
    if name == "lu.factor":
        # SuperLU's own count of stored factor entries; building L and U to
        # count them would copy both factors on every factorization
        extra["fill_nnz"] = int(result.nnz)
        return _TracedLU(result, tracer)
    if name == "ma.solve_ma":
        report = result[1]
        extra["steps"] = int(report.iterations)
        extra["backtracks"] = int(report.backtracks)
    elif name == "coupled.solve_system":
        extra["sweeps"] = int(result[2].outer_iterations)
    elif name == "sections.mvee":
        extra["iters"] = int(result[2])
    elif name == "sections.extract_section":
        extra["key"] = _extract_key(args, kwargs)
    elif name == "cli.write_field_csv":
        extra["bytes"] = os.path.getsize(kwargs.get("path", args[0]))
    elif name == "cli.read_field_csv":
        extra["rows"] = int(result.values.size) + (
            0 if result.hit_values is None else int(result.hit_values.size)
        )
    return result


# ---------------------------------------------------------------------------
# aggregation (pure Python; runs in the benchmark's parent process)
# ---------------------------------------------------------------------------

_TIMED = [
    "lu.factor",
    "lu.solve",
    "ma.solve_ma",
    "lma.solve_lma",
    "sections.mvee",
    "sections.extract_section",
    "grid.build_grid",
    "operators.local_quadratic_fit",
    "operators.discrete_hessian",
    "operators.solve_poisson",
]
_TIME_ONLY = [
    "coupled.solve_system",
    "sections.localization_scan",
    "sections.maximal_height",
    "sections.normalize_section",
    "sections.quadratic_separation",
    "regularity.verify",
    "regularity.min_principle_check",
    "regularity.abp_chain_report",
    "regularity.fit_holder_exponent",
    "regularity.boundary_holder_check",
    "regularity.quadratic_separation",
    "operators.grid_operators",
    "cli.write_field_csv",
    "cli.read_field_csv",
]

# metric -> (unit, spans it is computed from)
PER_LAYER = {}
for _n in _TIMED:
    # solves are counted on the factorizations the lu.factor wrapper returns
    _t = "lu.factor" if _n == "lu.solve" else _n
    PER_LAYER[f"{_n}.calls"] = ("count", _t)
    PER_LAYER[f"{_n}.s"] = ("s", _t)
for _n in _TIME_ONLY:
    PER_LAYER[f"{_n}.s"] = ("s", _n)
PER_LAYER.update(
    {
        "lu.fill_nnz": ("count", "lu.factor"),
        "ma.newton_steps": ("count", "ma.solve_ma"),
        "ma.backtracks": ("count", "ma.solve_ma"),
        "ma.step_accept_ratio": ("ratio", "ma.solve_ma"),
        "ma.failures": ("count", "ma.solve_ma"),
        "coupled.outer_sweeps": ("count", "coupled.solve_system"),
        "coupled.factor_per_sweep": ("ratio", "coupled.solve_system"),
        "sections.mvee.iters": ("count", "sections.mvee"),
        "sections.extract_reuse_ratio": ("ratio", "sections.extract_section"),
        "regularity.boundary_holder_check.rss_rise_mib": (
            "MiB",
            "regularity.boundary_holder_check",
        ),
        "regularity.fit_holder_exponent.rss_rise_mib": (
            "MiB",
            "regularity.fit_holder_exponent",
        ),
        "cli.write_field_csv.bytes": ("bytes", "cli.write_field_csv"),
        "cli.read_field_csv.rows": ("count", "cli.read_field_csv"),
    }
)


def _ratio(num: float, den: float) -> float:
    # a ratio whose denominator never occurred in the round reads 0
    return num / den if den else 0.0


def round_metrics(op_spans: list[list[list]]) -> dict[str, float]:
    """Per-layer metrics of one round: the spans of each operation in it."""
    spans = [s for ops in op_spans for s in ops]
    calls: dict[str, int] = {}
    secs: dict[str, float] = {}
    for name, t0, t1, _, _ in spans:
        calls[name] = calls.get(name, 0) + 1
        secs[name] = secs.get(name, 0.0) + (t1 - t0)

    def extras(name, key):
        return [s[4][key] for s in spans if s[0] == name and key in s[4]]

    out = {}
    for n in _TIMED:
        out[f"{n}.calls"] = calls.get(n, 0)
    for n in _TIMED + _TIME_ONLY:
        out[f"{n}.s"] = secs.get(n, 0.0)

    failures = [
        s
        for s in spans
        if s[0] == "ma.solve_ma" and s[4].get("error") == "NonConvergenceError"
    ]
    # a failed solve reports the accepted steps in its residual history;
    # its backtracks are not reported by the package
    steps = sum(extras("ma.solve_ma", "steps")) + sum(
        s[4]["history_len"] - 1 for s in failures if "history_len" in s[4]
    )
    backtracks = sum(extras("ma.solve_ma", "backtracks"))
    sweeps = sum(extras("coupled.solve_system", "sweeps"))
    keys = {tuple(k) for k in extras("sections.extract_section", "key")}
    out.update(
        {
            "lu.fill_nnz": sum(extras("lu.factor", "fill_nnz")),
            "ma.newton_steps": steps,
            "ma.backtracks": backtracks,
            "ma.step_accept_ratio": _ratio(steps, steps + backtracks),
            "ma.failures": len(failures),
            "coupled.outer_sweeps": sweeps,
            "coupled.factor_per_sweep": _ratio(calls.get("lu.factor", 0), sweeps),
            "sections.mvee.iters": sum(extras("sections.mvee", "iters")),
            "sections.extract_reuse_ratio": _ratio(
                len(keys), calls.get("sections.extract_section", 0)
            ),
            "regularity.boundary_holder_check.rss_rise_mib": max(
                extras("regularity.boundary_holder_check", "rss_rise_mib"), default=0.0
            ),
            "regularity.fit_holder_exponent.rss_rise_mib": max(
                extras("regularity.fit_holder_exponent", "rss_rise_mib"), default=0.0
            ),
            "cli.write_field_csv.bytes": sum(extras("cli.write_field_csv", "bytes")),
            "cli.read_field_csv.rows": sum(extras("cli.read_field_csv", "rows")),
        }
    )
    return out


def layer_metrics(rounds: list[list[list[list]]], missing: set[str]) -> dict[str, float]:
    """Median over rounds of each per-layer metric; missing targets omitted."""
    per_round = [round_metrics(r) for r in rounds]
    return {
        name: statistics.median(m[name] for m in per_round)
        for name, (_, target) in PER_LAYER.items()
        if target not in missing
    }


def self_times(op_spans: list[list[list]]) -> dict[str, tuple[float, int]]:
    """Per layer (span-name prefix): (self seconds, calls) over the operations.

    A span's self time is its duration minus that of its direct children.
    """
    out: dict[str, list] = {}
    for spans in op_spans:
        child = [0.0] * len(spans)
        for name, t0, t1, parent, _ in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        for k, (name, t0, t1, _, _) in enumerate(spans):
            layer = name.split(".")[0]
            acc = out.setdefault(layer, [0.0, 0])
            acc[0] += (t1 - t0) - child[k]
            acc[1] += 1
    return {k: (v[0], v[1]) for k, v in out.items()}
