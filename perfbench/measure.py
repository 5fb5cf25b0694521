"""Measurement loops of the benchmark: untraced end-to-end runs and traced runs.

Imported by ``run.py`` once the package source has been put on ``sys.path``.
"""

from __future__ import annotations

import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

import numpy as np
import scipy

import hostspeed
import tracing
import workloads
from congestion_mfg import bundles, diagnostics

BENCH_DIR = Path(__file__).resolve().parent
OUT = BENCH_DIR / "out"

SETUP_REPEATS = 5
# numpy is imported first: the canary needs it, and it is the benchmark's
# own prerequisite; the package's imports (scipy.sparse and its own modules)
# fall inside the timed window
SETUP_PROBE = """
import sys, time
sys.path[:0] = sys.argv[1:3]
import hostspeed
with hostspeed.Sampler() as sampler:
    t0 = time.perf_counter()
    import congestion_mfg
    import workloads
    workloads.WORKLOADS[sys.argv[3]].inputs(int(sys.argv[4]))
    work = time.perf_counter() - t0 - sampler.spent
print(repr(work * sampler.scale()))
"""

END_TO_END_UNITS = {
    "setup_s": "s",
    "solve_s": "s",
    "save_s": "s",
    "load_s": "s",
    "diagnose_s": "s",
    "peak_rss_mb": "MB",
}


class _Unscaled:
    """Stands in for a Sampler where times are reported as raw wall time."""

    durations: list = []
    spent = 0.0

    def scale(self, first: int = 0) -> float:
        return 1.0


class Recorder:
    """Timed operations of one run: samples per metric, attempts and failures.

    Each operation's time is its wall time minus the canary time inside it,
    rescaled by the sampler's speed over the window the operation belongs to
    (see ``hostspeed``).  The solve is one window and the bundle round trips
    after it another.  Raw wall times are kept alongside.
    """

    def __init__(self, sampler=None):
        self.sampler = sampler or _Unscaled()
        self.attempted = 0
        self.failed = 0
        self.samples: dict[str, list[float]] = {}
        self.wall: dict[str, list[float]] = {}
        self.problems: list[str] = []
        self._pending: list[tuple[str, float]] = []
        self._first_tick = 0

    def op(self, metric, span, fn, *args):
        """Time one operation; its result, or None when it raised."""
        self.attempted += 1
        spent = self.sampler.spent
        start = time.perf_counter()
        try:
            with span:
                result = fn(*args)
        except Exception as exc:  # noqa: BLE001 - a failed operation is data
            self.fail([f"{metric}: {exc!r}"])
            return None
        wall = time.perf_counter() - start
        self.wall.setdefault(metric, []).append(wall)
        self._pending.append((metric, wall - (self.sampler.spent - spent)))
        return result

    def end_window(self) -> None:
        scale = self.sampler.scale(self._first_tick)
        for metric, work in self._pending:
            self.samples.setdefault(metric, []).append(work * scale)
        self._pending.clear()
        self._first_tick = len(self.sampler.durations)

    def fail(self, problems) -> None:
        self.failed += 1
        self.problems.extend(problems)

    def check(self, problems) -> bool:
        """Count the last operation as failed when its checks found problems."""
        if problems:
            self.fail(problems)
        return not problems

    def median(self, metric) -> float:
        values = self.samples.get(metric)
        return statistics.median(values) if values else float("nan")


def iteration(w, m0, bundle_dir, rec, prefix="", tracer=None):
    """One solve and the bundle round trips on its final solution.

    Returns the solutions, or None when the solve failed.  Checks that re-run
    solver sweeps are left to the caller, outside any tracer.
    """

    def span(name):
        return tracer.span(name) if tracer is not None else nullcontext()

    with tracer if tracer is not None else nullcontext():
        sols = rec.op(prefix + "solve_s", span("bench.solve"), w.solve, m0)
        rec.end_window()
        if sols is None:
            return None
        final = sols[-1]
        for _ in range(w.io_rounds):
            rec.op(prefix + "save_s", span("bench.save"), bundles.save_solution, final, bundle_dir)
            back = rec.op(prefix + "load_s", span("bench.load"), bundles.load_solution, bundle_dir)
            if back is None or not rec.check(workloads.check_round_trip(final, back)):
                continue
            report = rec.op(prefix + "diagnose_s", span("bench.diagnose"), diagnostics.apriori_report, back)
            if report is not None:
                rec.check(workloads.check_report(report))
    rec.end_window()
    return sols


def check_solve(w, sols, rec) -> None:
    rec.check([p for sol in sols for p in workloads.check_solution(sol, w.fp_opts.fp_tol)])


def measure_setup(name, seed, src) -> list[float]:
    """Import the package and build the inputs in fresh interpreters."""
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, str(src), str(BENCH_DIR), name, str(seed)],
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def run_untraced(w, seed, seconds, bundle_dir, src) -> tuple[Recorder, dict]:
    setup = measure_setup(w.name, seed, src)
    with hostspeed.Sampler() as sampler:
        rec = Recorder(sampler)
        start = time.perf_counter()
        for index in itertools.count():
            sols = iteration(w, w.inputs(seed, index), bundle_dir, rec)
            if sols is None:
                break
            check_solve(w, sols, rec)
            print(json.dumps({"outer_iters": [s.meta["outer_iters"] for s in sols]}))
            if time.perf_counter() - start >= seconds:
                break
    rec.samples["setup_s"] = setup
    print(json.dumps({
        "wall_s": {k: statistics.median(v) for k, v in rec.wall.items()},
        "canary_ms": 1e3 * statistics.fmean(sampler.durations) if sampler.durations else None,
    }))
    metrics = {name: rec.median(name) for name in END_TO_END_UNITS}
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return rec, metrics


def run_traced(w, seed, seconds, bundle_dir) -> tuple[Recorder, dict]:
    """Alternate untraced and traced iterations; per-layer medians of the traced.

    Every iteration solves the seed's first input, so the counts of each
    traced iteration must repeat exactly.
    """
    rec = Recorder()
    originals = tracing.site_objects()
    layers, tracers = [], []
    spans_path = OUT / f"spans-{w.name}-seed{seed}.csv"
    m0 = w.inputs(seed)
    start = time.perf_counter()
    while True:
        plain = iteration(w, m0, bundle_dir, rec)
        if plain is None:
            break
        check_solve(w, plain, rec)
        tracer = tracing.Tracer()
        tracers.append(tracer)
        traced = iteration(w, m0, bundle_dir, rec, "traced.", tracer)
        if traced is None:
            break
        check_solve(w, traced, rec)
        layer = tracing.layer_metrics(tracer)
        rec.check(trace_problems(plain, traced, layer, tracer, originals, layers))
        layers.append(layer)
        if time.perf_counter() - start >= seconds:
            break
    for run_id, tracer in enumerate(tracers):
        tracer.write_csv(spans_path, run_id, mode="a" if run_id else "w")
    metrics = {
        name: statistics.median(layer[name] for layer in layers) if layers else float("nan")
        for name in tracing.metric_units()
        if name != "trace.overhead_s"
    }
    metrics["trace.overhead_s"] = rec.median("traced.solve_s") - rec.median("solve_s")
    return rec, metrics


def trace_problems(plain, traced, layer, tracer, originals, earlier) -> list[str]:
    """The traced iteration must do the untraced one's work, and restore every name."""
    problems = []
    if tracing.site_objects() != originals:
        problems.append("wrapped names not restored")
    outer = sum(s.meta["outer_iters"] for s in plain)
    if layer["coupler.outer_iters"] != outer:
        problems.append(f"traced outer iterations {layer['coupler.outer_iters']} != {outer}")
    same = len(plain) == len(traced) and all(
        np.array_equal(a.u, b.u) and np.array_equal(a.m, b.m) for a, b in zip(plain, traced)
    )
    if not same:
        problems.append("traced solution differs from the untraced one")
    for key in ("coupler.outer_iters", "hjb.newton_iters"):
        if any(prev[key] != layer[key] for prev in earlier):
            problems.append(f"{key} differs between traced iterations")
    self_total = sum(layer[m] for m in tracing.SELF_TIME_METRICS)
    if self_total > tracing.root_time(tracer):
        problems.append(f"self times {self_total:.6f} s exceed the traced wall time")
    return problems


def environment() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "cores": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "threads": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
        "canary_reference_ms": 1e3 * hostspeed.REFERENCE_S,
    }


def execute(w, seed: int, seconds: float, trace: bool, src: Path) -> dict:
    """Run one workload and return the result object of the last output line."""
    OUT.mkdir(exist_ok=True)
    bundle_dir = OUT / f"bundle-{w.name}-{os.getpid()}"
    print(json.dumps({"env": environment(), "workload": w.name, "seed": seed}))
    try:
        if trace:
            rec, metrics = run_traced(w, seed, seconds, bundle_dir)
            units = tracing.metric_units()
        else:
            rec, metrics = run_untraced(w, seed, seconds, bundle_dir, src)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(bundle_dir, ignore_errors=True)
    print(json.dumps({"samples": {k: len(v) for k, v in rec.samples.items()}}))
    for problem in rec.problems[:20]:
        print(f"perfbench: {problem}", file=sys.stderr)
    return {
        "correct": rec.failed == 0,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
