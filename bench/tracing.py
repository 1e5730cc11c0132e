"""Span recorder that times calls into the package's modules from outside.

``Tracer`` replaces the bindings that callers inside ``unravel`` actually
look up (a module attribute, or a spec class's ``resolve`` method) with
wrappers that record a span per call: name, start, end and the enclosing
span.  Spans stay in memory until the run ends.  ``restore`` puts every
original object back, so untraced code runs the original functions.  A
binding missing from the package is listed in ``absent`` instead of failing.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np

# (module, attribute, span name).  Several bindings may share a span name:
# cli and fluorescence each hold their own reference to run_ensemble.
BINDINGS = (
    ("unravel.cli", "main", "cli.main"),
    ("unravel.cli", "run_ensemble", "trajectory.run_ensemble"),
    ("unravel.cli", "integrate_master", "oracle.integrate_master"),
    ("unravel.cli", "ensemble_summary", "oracle.ensemble_summary"),
    ("unravel.cli", "write_figure_csvs", "fluorescence.write_figure_csvs"),
    ("unravel.fluorescence", "run_ensemble", "trajectory.run_ensemble"),
    ("unravel.fluorescence", "bloch", "fluorescence.bloch"),
    ("unravel.trajectory", "run_trajectory", "trajectory.run_trajectory"),
    ("unravel.trajectory", "step_linear", "trajectory.step_linear"),
    ("unravel.trajectory", "sample_increments", "unravelings.sample_increments"),
    ("unravel.trajectory", "validate_u", "unravelings.validate_u"),
    ("unravel.trajectory", "check_pure_state", "operators.check_pure_state"),
    ("unravel.oracle", "liouvillian_apply", "operators.liouvillian_apply"),
)
# Every class in this module that defines ``resolve`` is a spec class.
SPEC_MODULE = "unravel.unravelings"
RESOLVE_SPAN = "unravelings.resolve"


class Tracer:
    """Records nested call spans and per-call counters at wrapped bindings."""

    def __init__(self, clock=perf_counter):
        self.clock = clock
        self.spans: list[list] = []  # [name, parent index or -1, start, end]
        self.counters: dict[str, float] = defaultdict(float)
        self.absent: list[str] = []
        self.hook_errors: list[str] = []
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def wrap(self, name: str, fn, hook=None):
        """Return a wrapper of ``fn`` that records a span named ``name``.

        ``hook(tracer, arguments, result)`` runs after the call, with the
        arguments bound to ``fn``'s parameter names.
        """
        spans, stack, clock = self.spans, self._stack, self.clock
        signature = inspect.signature(fn) if hook is not None else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [name, stack[-1] if stack else -1, 0.0, 0.0]
            spans.append(span)
            stack.append(index)
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if hook is not None:
                try:
                    hook(self, signature.bind(*args, **kwargs).arguments, result)
                except Exception as exc:  # a changed signature must not stop the run
                    self.hook_errors.append(f"{name}: {exc!r}")
            return result

        return wrapper

    def patch(self, owner, attr: str, name: str, hook=None) -> None:
        original = vars(owner)[attr]
        setattr(owner, attr, self.wrap(name, original, hook))
        self._patched.append((owner, attr, original))

    def install(self) -> "Tracer":
        """Wrap every binding in ``BINDINGS`` and every spec ``resolve``."""
        for module_name, attr, name in BINDINGS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                module = None
            if module is None or not callable(getattr(module, attr, None)):
                self.absent.append(f"{module_name}.{attr}")
                continue
            self.patch(module, attr, name, HOOKS.get(name))
        specs = importlib.import_module(SPEC_MODULE)
        classes = [
            c for c in vars(specs).values()
            if isinstance(c, type) and c.__module__ == SPEC_MODULE and "resolve" in vars(c)
        ]
        if not classes:
            self.absent.append(f"{SPEC_MODULE}.*.resolve")
        for cls in classes:
            self.patch(cls, "resolve", RESOLVE_SPAN)
        return self

    def restore(self) -> None:
        """Put back every original object, last patched first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.restore()


def span_totals(spans) -> dict[str, dict]:
    """Per span name: call count, inclusive time and self time.

    A span's self time is its duration minus the durations of its direct
    children; spans of one thread nest, so children never overlap.
    """
    child_time = [0.0] * len(spans)
    for _, parent, start, end in spans:
        if parent >= 0:
            child_time[parent] += end - start
    totals: dict[str, dict] = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    for (name, _, start, end), inner in zip(spans, child_time):
        entry = totals[name]
        entry["calls"] += 1
        entry["total_s"] += end - start
        entry["self_s"] += end - start - inner
    return dict(totals)


# ---------------------------------------------------- counters at wrappers


def _count_ensemble(tracer, args, run):
    tracer.counters["trajectory.traj_steps"] += int(args["n_traj"]) * int(args["steps"])


def _count_master(tracer, args, solution):
    tracer.counters["oracle.integrate_master.steps"] += int(args["steps"])
    tracer.counters["oracle.reference_bytes"] += np.asarray(solution).nbytes
    tracer.counters["oracle.reference_rows"] += len(solution)


def _count_summary(tracer, args, summary):
    tracer.counters["oracle.useful_rows"] += len(args["reference"])
    dist = np.asarray(getattr(summary, "trace_distances", []), dtype=float)
    err = np.asarray(getattr(summary, "standard_errors", []), dtype=float)
    ratio = dist / np.maximum(3.0 * err, 1e-300)
    ratio[(err == 0) & (dist <= 1e-12)] = 0.0
    if ratio.size:
        key = "oracle.gate_ratio_max"
        tracer.counters[key] = max(tracer.counters[key], float(ratio.max()))
        tracer.counters["oracle.gate_failures"] += int(not summary.passed())


def _count_figures(tracer, args, manifest):
    tracer.counters["fluorescence.csv_bytes"] += csv_bytes(Path(args["output_dir"]))


HOOKS = {
    "trajectory.run_ensemble": _count_ensemble,
    "oracle.integrate_master": _count_master,
    "oracle.ensemble_summary": _count_summary,
    "fluorescence.write_figure_csvs": _count_figures,
}


def csv_bytes(directory: Path) -> int:
    return sum(p.stat().st_size for p in Path(directory).glob("*.csv"))


def layer_parts(tracer: Tracer, out_dir: Path) -> dict[str, float]:
    """Per-layer quantities of one traced invocation whose files are in
    ``out_dir``.  All add up over invocations except ``oracle.gate_ratio_max``;
    ``layer_metrics`` forms the ratios."""
    totals = span_totals(tracer.spans)
    c = tracer.counters

    def get(name, field):
        return float(totals.get(name, {}).get(field, 0))

    parts = {
        f"{name}.{field}": get(name, field)
        for name in (
            "trajectory.run_ensemble", "trajectory.run_trajectory", "trajectory.step_linear",
            RESOLVE_SPAN, "unravelings.validate_u", "unravelings.sample_increments",
            "operators.liouvillian_apply", "operators.check_pure_state", "fluorescence.bloch",
        )
        for field in ("calls", "self_s")
    }
    for name in ("cli.main", "oracle.integrate_master", "oracle.ensemble_summary",
                 "fluorescence.write_figure_csvs"):
        parts[f"{name}.self_s"] = get(name, "self_s")
    parts["trajectory.run_ensemble.total_s"] = get("trajectory.run_ensemble", "total_s")
    for key in ("trajectory.traj_steps", "oracle.integrate_master.steps",
                "oracle.reference_bytes", "oracle.reference_rows", "oracle.useful_rows",
                "oracle.gate_ratio_max", "oracle.gate_failures", "fluorescence.csv_bytes"):
        parts[key] = float(c[key])
    parts["cli.csv_bytes"] = float(csv_bytes(out_dir) - c["fluorescence.csv_bytes"])
    return parts


def layer_metrics(invocations: list[dict[str, float]]) -> dict[str, float]:
    """Per-layer metrics of a round of invocations, from their ``layer_parts``."""
    total: dict[str, float] = defaultdict(float)
    for parts in invocations:
        for key, value in parts.items():
            if key == "oracle.gate_ratio_max":
                total[key] = max(total[key], value)
            else:
                total[key] += value
    steps = total["trajectory.traj_steps"]
    ensemble_s = total.pop("trajectory.run_ensemble.total_s")
    total["trajectory.us_per_traj_step"] = 1e6 * ensemble_s / steps if steps else 0.0
    rows, useful = total.pop("oracle.reference_rows"), total.pop("oracle.useful_rows")
    total["oracle.reference_useful_fraction"] = useful / rows if rows else 0.0
    return dict(total)
