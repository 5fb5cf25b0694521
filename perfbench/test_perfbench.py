"""Tests of the benchmark's own helpers: span self times, derived counts, gate."""

import signal
import statistics
import sys
import time
from contextlib import nullcontext
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import hostspeed  # noqa: E402
import measure  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from congestion_mfg import coupler  # noqa: E402
from congestion_mfg.coupler import FixedPointOptions  # noqa: E402
from congestion_mfg.grid import GridSpec  # noqa: E402
from congestion_mfg.model import CouplingSpec  # noqa: E402


def test_self_times_subtract_direct_children():
    # root [0, 10] > a [1, 4] > a1 [1.5, 2];  root > b [5, 6]
    parents = np.array([-1, 0, 1, 0])
    starts = np.array([0.0, 1.0, 1.5, 5.0])
    ends = np.array([10.0, 4.0, 2.0, 6.0])
    np.testing.assert_allclose(
        tracing.self_times(parents, starts, ends), [6.0, 2.5, 0.5, 1.0]
    )


def test_newton_counts_from_call_sequences():
    converged_at_once = ["R", "J", "R", "J", "R", "R", "J"]
    exhausted_then_ok = ["R", "J"] + ["R"] * 30 + ["J", "R", "J"]
    counts = tracing.newton_counts([converged_at_once, exhausted_then_ok])
    assert counts == {
        "hjb.steps": 2,
        "hjb.newton_iters": 4,
        "hjb.linesearch_halvings": 30,
        "hjb.linesearch_exhausted": 1,
    }


def _constant_solve():
    grid = GridSpec(dim=1, n=8, nt=4, horizon=1.0)
    return coupler.solve_mfg(
        grid, workloads.REFERENCE, CouplingSpec(), FixedPointOptions(), m0=np.ones(8)
    )


def test_traced_counts_on_constant_equilibrium():
    # Uniform density: the first Picard iteration already converges, and each
    # HJB step takes one full Newton step from u_next (Du = 0, linear system).
    # Two backward sweeps of nt = 4 steps: 8 steps, 8 Newton iterations.
    plain = _constant_solve()
    originals = tracing.site_objects()
    tracer = tracing.Tracer()
    with tracer:
        traced = _constant_solve()
    assert tracing.site_objects() == originals
    layer = tracing.layer_metrics(tracer)
    assert plain.meta["outer_iters"] == traced.meta["outer_iters"] == 1
    assert np.array_equal(plain.m, traced.m) and np.array_equal(plain.u, traced.u)
    assert layer["coupler.outer_iters"] == 1
    assert layer["hjb.newton_iters"] == 8
    assert layer["hjb.jacobian_calls"] == 16
    assert layer["hjb.residual_calls"] == 16
    assert layer["hjb.linesearch_halvings"] == 0
    assert layer["hjb.linesearch_exhausted"] == 0
    assert layer["linalg.splu_calls"] == 8 + 4
    assert layer["model.check_structure_s"] > 0.0
    self_total = sum(layer[m] for m in tracing.SELF_TIME_METRICS)
    assert self_total <= tracing.root_time(tracer)


def test_tracer_restores_names_when_the_call_raises():
    originals = tracing.site_objects()
    with pytest.raises(RuntimeError):
        with tracing.Tracer():
            assert tracing.site_objects() != originals
            raise RuntimeError("boom")
    assert tracing.site_objects() == originals


def test_seeded_inputs_repeat_and_stay_small():
    grid = workloads.WORKLOADS["ref1d"].grid
    a, b = workloads.seeded_bump(grid, 7), workloads.seeded_bump(grid, 7)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, workloads.seeded_bump(grid, 8))
    assert np.abs(a - workloads.c09_bump(grid)).max() <= 0.1


def test_gate_accepts_a_solution_and_flags_lost_mass():
    sol = _constant_solve()
    assert workloads.check_solution(sol, 1e-8) == []
    sol.m[2] *= 1.001
    problems = workloads.check_solution(sol, 1e-8)
    assert any("mass drift" in p for p in problems)


def test_sampler_runs_the_canary_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    with hostspeed.Sampler() as sampler:
        deadline = time.perf_counter() + 0.2
        while time.perf_counter() < deadline:
            pass
    assert signal.getsignal(signal.SIGALRM) is before
    assert len(sampler.durations) >= 3
    assert sampler.spent == pytest.approx(sum(sampler.durations))
    assert sampler.scale() == pytest.approx(
        hostspeed.REFERENCE_S / statistics.fmean(sampler.durations)
    )


class _FixedSpeed:
    durations: list = []
    spent = 0.0

    def scale(self, first=0):
        return 2.0


def test_recorder_subtracts_canary_time_and_rescales():
    sampler = _FixedSpeed()
    rec = measure.Recorder(sampler)

    def op():
        time.sleep(0.15)
        sampler.spent += 0.1  # as if the canary ran for 0.1 s inside the call

    rec.op("solve_s", nullcontext(), op)
    rec.end_window()
    assert rec.wall["solve_s"][0] >= 0.15
    assert rec.samples["solve_s"][0] == pytest.approx(2.0 * (rec.wall["solve_s"][0] - 0.1))
    assert (rec.attempted, rec.failed) == (1, 0)
    assert rec.op("solve_s", nullcontext(), lambda: 1 / 0) is None
    assert (rec.attempted, rec.failed) == (2, 1)
