"""Per-layer tracing of the solver, taken from outside the package.

The package modules import their collaborators by name (``from .linalg import
sparse_solve``), so each caller looks the name up in its own module's globals
at call time.  Replacing those module-level names with timing wrappers records
a span around every call a layer makes into another, without touching the
package source.  ``Tracer`` installs the wrappers on entry and restores the
original objects on exit.

Spans are kept in memory as flat arrays (name id, start, end, parent) and
written out once at the end.  A span's self time is its duration minus the
part of it its child spans cover; spans nest strictly because the solver runs
on one thread.
"""

from __future__ import annotations

import importlib
import os
import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np

# (module, attribute, span name).  The attribute is the name the caller looks
# up, so ``hjb.sparse_solve`` and ``fpk.sparse_solve`` give separate spans for
# the HJB and FPK linear solves.
SITES = (
    ("coupler", "solve_with_continuation", "coupler.continuation"),
    ("coupler", "solve_mfg", "coupler.solve_mfg"),
    ("coupler", "check_structure", "model.check_structure"),
    ("coupler", "gaussian_smooth", "grid.smooth"),
    ("coupler", "solve_hjb_backward", "hjb.sweep"),
    ("coupler", "solve_fpk_forward", "fpk.sweep"),
    ("coupler", "drift_field", "hjb.drift"),
    ("hjb", "hjb_step", "hjb.step"),
    ("hjb", "transport_jacobian", "hjb.jacobian"),
    ("hjb", "hamiltonian_values", "hjb.residual"),
    ("hjb", "drift_field", "hjb.drift"),
    ("hjb", "gaussian_smooth", "grid.smooth"),
    ("hjb", "sparse_solve", "linalg.hjb_solve"),
    ("fpk", "fpk_step", "fpk.step"),
    ("fpk", "sparse_solve", "linalg.fpk_solve"),
    ("linalg", "splu", "linalg.splu"),
    ("linalg", "bicgstab", "linalg.bicgstab"),
    ("bundles", "save_solution", "bundles.save"),
    ("bundles", "load_solution", "bundles.load"),
    ("bundles", "write_field_csv", "grid.csv_write"),
    ("bundles", "read_field_csv", "grid.csv_read"),
    ("diagnostics", "apriori_report", "diagnostics.report"),
    ("diagnostics", "crossed_energy_gap", "diagnostics.crossed_gap"),
)

# hjb_step tries at most this many line-search candidates per Newton iteration.
LINESEARCH_CANDIDATES = 30

# Per-layer time metrics: metric name -> span names whose self times it sums.
SELF_TIME_METRICS = {
    "hjb.jacobian_s": ("hjb.jacobian",),
    "hjb.residual_s": ("hjb.residual",),
    "hjb.step_self_s": ("hjb.step",),
    "hjb.sweep_self_s": ("hjb.sweep",),
    "hjb.drift_s": ("hjb.drift",),
    "fpk.step_self_s": ("fpk.step",),
    "fpk.sweep_self_s": ("fpk.sweep",),
    "linalg.splu_s": ("linalg.splu",),
    "linalg.hjb_solve_s": ("linalg.hjb_solve",),
    "linalg.fpk_solve_s": ("linalg.fpk_solve",),
    "linalg.bicgstab_s": ("linalg.bicgstab",),
    "coupler.self_s": ("coupler.solve_mfg", "coupler.continuation"),
    "grid.smooth_s": ("grid.smooth",),
    "grid.csv_write_s": ("grid.csv_write",),
    "grid.csv_read_s": ("grid.csv_read",),
    "bundles.save_self_s": ("bundles.save",),
    "bundles.load_self_s": ("bundles.load",),
    "diagnostics.crossed_gap_s": ("diagnostics.crossed_gap",),
    "diagnostics.report_self_s": ("diagnostics.report",),
    "model.check_structure_s": ("model.check_structure",),
}

# Per-layer call counts: metric name -> span name.
CALL_COUNT_METRICS = {
    "hjb.jacobian_calls": "hjb.jacobian",
    "hjb.residual_calls": "hjb.residual",
    "linalg.splu_calls": "linalg.splu",
    "linalg.bicgstab_calls": "linalg.bicgstab",
    "grid.smooth_calls": "grid.smooth",
}

# Counts the wrappers accumulate from call arguments and results; the
# stored entries of the systems handed to the solver are computed, not
# measured traffic.
TALLY_UNITS = {
    "linalg.bicgstab_iters": "count",
    "linalg.system_nnz": "nnz-computed",
    "grid.csv_write_bytes": "bytes",
    "grid.csv_read_bytes": "bytes",
}

DERIVED_COUNT_METRICS = (
    "coupler.outer_iters",
    "hjb.newton_iters",
    "hjb.linesearch_halvings",
    "hjb.linesearch_exhausted",
)


def metric_units() -> dict:
    """Every per-layer metric of a traced run, with its unit."""
    units = dict.fromkeys(SELF_TIME_METRICS, "s")
    units.update(dict.fromkeys(CALL_COUNT_METRICS, "count"))
    units.update(TALLY_UNITS)
    units.update(dict.fromkeys(DERIVED_COUNT_METRICS, "count"))
    units["trace.overhead_s"] = "s"
    return units


def _module(mod_name: str):
    return importlib.import_module(f"congestion_mfg.{mod_name}")


def site_objects() -> dict:
    """The object each site name currently refers to."""
    return {(mod, attr): getattr(_module(mod), attr, None) for mod, attr, _ in SITES}


class Tracer:
    """Context manager that wraps the package's SITES and records spans."""

    def __init__(self):
        self.span_names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.names = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self._stack = [-1]
        self.tallies = dict.fromkeys(TALLY_UNITS, 0)
        self._saved: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.span_names)
            self.span_names.append(name)
        return self._name_ids[name]

    def _open(self, name_id: int) -> int:
        idx = len(self.names)
        self.names.append(name_id)
        self.parents.append(self._stack[-1])
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, around a call into a layer."""
        idx = self._open(self._name_id(name))
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, fn, name: str, after=None):
        name_id = self._name_id(name)
        open_, close = self._open, self._close

        def traced(*args, **kwargs):
            idx = open_(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(idx)
            if after is not None:
                after(args, result)
            return result

        return traced

    def _wrap_bicgstab(self, fn, name: str):
        tallies = self.tallies

        def counted(A, b, *args, callback=None, **kwargs):
            def step(xk):
                tallies["linalg.bicgstab_iters"] += 1
                if callback is not None:
                    callback(xk)

            return fn(A, b, *args, callback=step, **kwargs)

        return self._wrap(counted, name)

    def _after(self, attr: str):
        tallies = self.tallies
        if attr == "sparse_solve":

            def count_nnz(args, result):
                tallies["linalg.system_nnz"] += int(args[1].nnz)

            return count_nnz
        if attr in ("write_field_csv", "read_field_csv"):
            key = "grid.csv_write_bytes" if attr == "write_field_csv" else "grid.csv_read_bytes"

            def count_bytes(args, result):
                tallies[key] += os.path.getsize(args[0])

            return count_bytes
        return None

    def __enter__(self) -> "Tracer":
        missing = []
        try:
            for mod_name, attr, span_name in SITES:
                module = _module(mod_name)
                original = getattr(module, attr, None)
                if original is None:
                    missing.append(f"{mod_name}.{attr}")
                    continue
                if attr == "bicgstab":
                    wrapper = self._wrap_bicgstab(original, span_name)
                else:
                    wrapper = self._wrap(original, span_name, self._after(attr))
                self._saved.append((module, attr, original))
                setattr(module, attr, wrapper)
        except BaseException:
            self.restore()
            raise
        if missing:
            print(f"tracer: sites not found: {', '.join(missing)}", file=sys.stderr)
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def restore(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def arrays(self):
        """(names, parents, starts, ends) as numpy arrays."""
        return (
            np.frombuffer(self.names, dtype=np.intc).astype(np.int64),
            np.frombuffer(self.parents, dtype=np.intc).astype(np.int64),
            np.frombuffer(self.starts, dtype=float).copy(),
            np.frombuffer(self.ends, dtype=float).copy(),
        )

    def write_csv(self, path, run_id: int = 0, mode: str = "w") -> None:
        """Write (or append) the spans as ``run,id,name,start,end,parent`` rows."""
        with open(path, mode, encoding="utf-8") as fh:
            if mode == "w":
                fh.write("run,id,name,start,end,parent\n")
            rows = zip(self.names, self.starts, self.ends, self.parents)
            for i, (name, start, end, parent) in enumerate(rows):
                fh.write(f"{run_id},{i},{self.span_names[name]},{start!r},{end!r},{parent}\n")


def self_times(parents: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Duration of each span minus the time its direct children cover."""
    dur = ends - starts
    cover = np.zeros_like(dur)
    child = parents >= 0
    np.add.at(cover, parents[child], dur[child])
    return dur - cover


def newton_counts(step_events, candidates: int = LINESEARCH_CANDIDATES) -> dict:
    """Newton and line-search counts from the calls each hjb_step made.

    ``step_events`` holds, per HJB step, the sequence of its residual ("R")
    and Jacobian ("J") evaluations in call order.  A step evaluates the
    residual once, then per Newton iteration assembles one Jacobian and
    evaluates one residual per line-search candidate, and finally assembles
    the Jacobian once more at the converged state.  Hence
    newton = J - steps and halvings = R - steps - newton; an iteration whose
    Jacobian is followed by ``candidates`` residuals used the whole line
    search.
    """
    steps = jac = res = exhausted = 0
    for events in step_events:
        steps += 1
        run = None
        for ev in events:
            if ev == "J":
                jac += 1
                if run is not None and run >= candidates:
                    exhausted += 1
                run = 0
            elif ev == "R":
                res += 1
                if run is not None:
                    run += 1
    newton = jac - steps
    return {
        "hjb.steps": steps,
        "hjb.newton_iters": newton,
        "hjb.linesearch_halvings": res - steps - newton,
        "hjb.linesearch_exhausted": exhausted,
    }


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer self times, call counts and derived counts of one traced run."""
    names, parents, starts, ends = tracer.arrays()
    ids = {name: i for i, name in enumerate(tracer.span_names)}
    nspan = len(tracer.span_names)
    selfs = np.bincount(names, weights=self_times(parents, starts, ends), minlength=nspan)
    calls = np.bincount(names, minlength=nspan)

    def by_name(table, name):
        return table[ids[name]] if name in ids else 0

    out = {}
    for metric, span_names in SELF_TIME_METRICS.items():
        out[metric] = float(sum(by_name(selfs, n) for n in span_names))
    for metric, span_name in CALL_COUNT_METRICS.items():
        out[metric] = int(by_name(calls, span_name))
    out.update(tracer.tallies)

    # one FPK sweep per Picard iteration; the final HJB sweep has none
    outer = (names == ids.get("fpk.sweep", -1)) & (parents >= 0)
    outer[outer] = names[parents[outer]] == ids.get("coupler.solve_mfg", -1)
    out["coupler.outer_iters"] = int(np.count_nonzero(outer))

    step_id = ids.get("hjb.step", -1)
    marks = {ids.get("hjb.residual", -2): "R", ids.get("hjb.jacobian", -2): "J"}
    per_step: dict[int, list[str]] = {int(i): [] for i in np.flatnonzero(names == step_id)}
    for i in np.flatnonzero(np.isin(names, list(marks))):
        events = per_step.get(int(parents[i]))
        if events is not None:
            events.append(marks[int(names[i])])
    counts = newton_counts(per_step.values())
    for metric in DERIVED_COUNT_METRICS[1:]:
        out[metric] = counts[metric]
    return out


def root_time(tracer: Tracer) -> float:
    """Wall time covered by the outermost spans."""
    _, parents, starts, ends = tracer.arrays()
    root = parents < 0
    return float((ends[root] - starts[root]).sum())
