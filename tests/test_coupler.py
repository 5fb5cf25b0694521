"""Fixed-point iteration, mollifier, solution invariants, continuation."""

from dataclasses import replace

import numpy as np
import pytest

from congestion_mfg import (
    ContinuationSchedule,
    CouplingSpec,
    FixedPointOptions,
    GridSpec,
    ModelParams,
    coupler,
    solve_mfg,
    solve_with_continuation,
)
from congestion_mfg.coupler import _normalized
from congestion_mfg.diagnostics import uniqueness_gap
from congestion_mfg.errors import ConfigError
from congestion_mfg.fpk import solve_fpk_forward
from congestion_mfg.grid import gaussian_smooth, integrate, l1_space_time, restrict_traj
from congestion_mfg.grid import upwind_parts
from congestion_mfg.hjb import drift_field, solve_hjb_backward
from congestion_mfg.model import congestion_denominator

from conftest import cosine_density, reference_params, start_trajectory


class TestMollify:
    def test_identity_at_zero(self):
        grid = GridSpec(dim=1, n=32, nt=4, horizon=1.0)
        f = np.random.default_rng(0).random(grid.shape)
        assert np.array_equal(gaussian_smooth(grid, f, 0.0), f)

    def test_constant_invariant(self):
        grid = GridSpec(dim=2, n=8, nt=4, horizon=1.0)
        f = np.full(grid.shape, 2.5)
        assert np.allclose(gaussian_smooth(grid, f, 0.1), f, atol=1e-13)

    def test_mass_and_sign(self):
        grid = GridSpec(dim=1, n=64, nt=4, horizon=1.0)
        f = np.zeros(grid.shape)
        f[5] = 64.0
        out = gaussian_smooth(grid, f, 0.02)
        assert abs(integrate(grid, out) - 1.0) < 1e-13
        assert out.min() >= 0.0


class TestSolveMFG:
    def test_constant_equilibrium_exact(self):
        grid = GridSpec(dim=1, n=32, nt=32, horizon=1.0)
        sol = solve_mfg(grid, reference_params(), CouplingSpec())
        assert sol.meta["outer_iters"] <= 2
        assert np.abs(sol.m - 1.0).max() <= 1e-10
        expected_u = 1.0 + (1.0 - grid.times())[:, None]
        assert np.abs(sol.u - expected_u).max() <= 1e-10

    def test_constant_equilibrium_2d(self):
        grid = GridSpec(dim=2, n=8, nt=8, horizon=1.0)
        sol = solve_mfg(grid, reference_params(), CouplingSpec())
        assert sol.meta["outer_iters"] <= 2
        assert np.abs(sol.m - 1.0).max() <= 1e-10
        expected_u = 1.0 + (1.0 - grid.times())[:, None, None]
        assert np.abs(sol.u - expected_u).max() <= 1e-10

    def test_decoupled_heat_flow(self):
        grid = GridSpec(dim=1, n=32, nt=32, horizon=1.0)
        zero = CouplingSpec(cf=0.0, offset_f=0.0, cg=0.0, offset_g=0.0)
        sol = solve_mfg(
            grid,
            reference_params(),
            zero,
            FixedPointOptions(damping=1.0),
            m0=cosine_density(grid),
        )
        assert np.abs(sol.u).max() <= 1e-12
        assert sol.meta["outer_iters"] <= 3
        # m is the discrete heat flow: recompute it directly
        heat = solve_fpk_forward(
            grid,
            solve_hjb_backward(grid, sol.m, sol.params, zero).transports,
            sol.m[0],
            sol.params,
        )
        assert np.abs(sol.m - heat).max() < 1e-12

    @pytest.mark.parametrize("dim,n", [(1, 16), (2, 8)])
    def test_policy_is_drift_of_returned_solution(self, dim, n):
        grid = GridSpec(dim=dim, n=n, nt=n, horizon=1.0)
        params = ModelParams(nu=0.5, beta=1.5, alpha=1.0, mu=1.0, horizon=1.0)
        eps = 0.05
        m0 = np.zeros(grid.shape)
        m0[(n // 2,) * dim] = 1.0
        sol = solve_mfg(
            grid, replace(params, epsilon=eps), CouplingSpec(),
            FixedPointOptions(fp_tol=1e-6), m0=m0,
        )
        assert sol.converged and sol.epsilon == eps
        assert sol.policy.shape == (grid.nt + 1, grid.dim, *grid.shape)
        for k in range(grid.nt + 1):
            parts = upwind_parts(grid, sol.u[k])
            congestion = congestion_denominator(
                sol.m[k], replace(sol.params, epsilon=eps)
            )
            drift = drift_field(grid, parts, congestion, sol.params)
            assert np.array_equal(sol.policy[k], drift)
        if dim == 2:
            # the mollified point mass exceeds the cap 1/eps, so a drift
            # built without the truncation would differ at level 0
            assert sol.m[0].max() > 1.0 / eps
            parts = upwind_parts(grid, sol.u[0])
            congestion = congestion_denominator(
                sol.m[0], replace(sol.params, epsilon=0.0)
            )
            uncapped = drift_field(grid, parts, congestion, sol.params)
            assert not np.array_equal(sol.policy[0], uncapped)

    def test_solution_invariants(self, ref32):
        grid = ref32.grid
        masses = grid.cell_volume * ref32.m.sum(axis=1)
        assert np.abs(masses - 1.0).max() <= 1e-10
        assert ref32.m.min() >= -1e-12
        assert np.array_equal(ref32.u[grid.nt], ref32.coupling.g(ref32.m[grid.nt]))

    def test_reference_convergence_record(self, ref64):
        inc = ref64.meta["increments"]
        assert ref64.converged
        assert len(inc) <= 200
        assert inc[-1] <= 1e-8
        assert all(inc[i + 1] < inc[i] for i in range(3, len(inc) - 1))

    def test_fixed_point_residual_small(self, ref32):
        # one undamped best-response sweep moves the converged m by <= 10 tol
        sol = ref32
        backward = solve_hjb_backward(sol.grid, sol.m, sol.params, sol.coupling)
        m_br = solve_fpk_forward(sol.grid, backward.transports, sol.m[0], sol.params)
        assert l1_space_time(sol.grid, m_br - sol.m) <= 10.0 * 1e-8

    def test_damping_invariance_of_limit(self):
        grid = GridSpec(dim=1, n=32, nt=32, horizon=1.0)
        m0 = cosine_density(grid)
        sols = [
            solve_mfg(
                grid,
                reference_params(),
                CouplingSpec(),
                FixedPointOptions(damping=d),
                m0=m0,
            )
            for d in (0.3, 0.7)
        ]
        assert l1_space_time(grid, sols[0].m - sols[1].m) <= 1e-6

    @pytest.mark.parametrize("dim", [1, 2], ids=["1d", "2d"])
    def test_contracting_cells_take_full_steps(self, dim):
        """The beta = 2 reference at n = nt = 16 contracts monotonically, so
        its cells leave the damping cap for full steps: at most 12 outer
        iterations at the default damping (10 in 1D and 8 in 2D; a cap held
        at 0.5 took 21 and 20).  The limit is the undamped solve's: both
        iterates have best-response residual r <= fp_tol, so for a map with
        Lipschitz constant L < 1 in L1(Q_T), ||m_a - m_b|| <= (r_a + r_b) /
        (1 - L).  L is estimated by the largest ratio of successive residuals
        of the undamped iteration, whose iterates are the map's own images."""
        grid = GridSpec(dim=dim, n=16, nt=16, horizon=1.0)
        damped, full = (
            solve_mfg(
                grid, reference_params(), CouplingSpec(),
                FixedPointOptions(fp_tol=1e-8, damping=d), m0=cosine_density(grid),
            )
            for d in (0.5, 1.0)
        )
        assert damped.converged and full.converged
        assert damped.meta["outer_iters"] <= 12
        residuals = full.meta["residuals"]
        lipschitz = max(b / a for a, b in zip(residuals, residuals[1:]))
        assert lipschitz < 0.6
        bound = (damped.meta["residual"] + full.meta["residual"]) / (1.0 - lipschitz)
        assert l1_space_time(grid, damped.m - full.m) <= bound

    def test_initialization_invariance(self):
        grid = GridSpec(dim=1, n=32, nt=32, horizon=1.0)
        m0 = cosine_density(grid)
        uniform = solve_mfg(
            grid, reference_params(), CouplingSpec(), FixedPointOptions(), m0=m0
        )
        bump = solve_mfg(
            grid,
            reference_params(),
            CouplingSpec(),
            m0=m0,
            init_traj=start_trajectory(grid, cosine_density(grid, 0.3)),
        )
        assert l1_space_time(grid, uniform.m - bump.m) <= 1e-6

    def test_initialization_invariance_at_a_long_horizon(self):
        """c06's two starts and bounds at T = 4, nt = 128 (dt = 1/32): the
        paper's uniqueness holds with no restriction on the horizon."""
        grid = GridSpec(dim=1, n=32, nt=128, horizon=4.0)
        m0 = cosine_density(grid)
        uniform, bump = (
            solve_mfg(grid, reference_params(4.0), CouplingSpec(), m0=m0, init_traj=init)
            for init in (None, start_trajectory(grid, cosine_density(grid, 0.3)))
        )
        assert uniform.converged and bump.converged
        assert l1_space_time(grid, uniform.m - bump.m) <= 1e-6
        assert uniqueness_gap(uniform, bump).gap <= 1e-8

    @pytest.mark.parametrize(
        "dim, sizes", [(1, (32, 64, 128, 256)), (2, (8, 16, 32, 64))], ids=["1d", "2d"]
    )
    def test_equilibrium_converges_at_first_order(self, dim, sizes):
        """The reference equilibrium at n = nt = ``sizes``: the L1(Q_T)
        gaps of m and of u against the next level, restricted, fall with
        ratios in c05's window [1.5, 3.0].  The scheme is first-order
        consistent in h and dt, so halving both about halves the error."""
        sols = []
        for n in sizes:
            grid = GridSpec(dim=dim, n=n, nt=n, horizon=1.0)
            opts = FixedPointOptions(fp_tol=1e-8)
            sol = solve_mfg(
                grid, reference_params(), CouplingSpec(), opts, m0=cosine_density(grid)
            )
            assert sol.converged
            sols.append(sol)
        for field in ("m", "u"):
            gaps = []
            for coarse, fine in zip(sols, sols[1:]):
                gap = getattr(coarse, field) - restrict_traj(fine.grid, getattr(fine, field), 2)
                gaps.append(l1_space_time(coarse.grid, gap))
            ratios = [a / b for a, b in zip(gaps, gaps[1:])]
            assert all(1.5 <= r <= 3.0 for r in ratios), (field, gaps)

    def test_budget_exhaustion_flagged(self):
        grid = GridSpec(dim=1, n=32, nt=32, horizon=1.0)
        sol = solve_mfg(
            grid,
            reference_params(),
            CouplingSpec(),
            FixedPointOptions(max_outer_iter=1),
            m0=cosine_density(grid),
        )
        assert not sol.converged
        assert sol.meta["outer_iters"] == 1

    @staticmethod
    def _count_sweeps(monkeypatch):
        calls = {"solve_hjb_backward": 0, "solve_fpk_forward": 0}

        def counting(name):
            original = getattr(coupler, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(coupler, name, counted)

        for name in calls:
            counting(name)
        return calls

    @pytest.mark.parametrize("budget", [None, 1], ids=["converged", "last-is-best"])
    def test_sweeps_per_solve(self, budget, monkeypatch):
        # a converged solve re-runs the HJB sweep once; an overrun whose last
        # iterate is its best measures that iterate with one more FPK sweep
        calls = self._count_sweeps(monkeypatch)
        grid = GridSpec(dim=1, n=16, nt=16, horizon=1.0)
        fp_opts = FixedPointOptions(max_outer_iter=budget or 500)
        sol = solve_mfg(
            grid, reference_params(), CouplingSpec(), fp_opts, m0=cosine_density(grid)
        )
        iters, residuals = sol.meta["outer_iters"], sol.meta["residuals"]
        assert sol.converged is (budget is None)
        extra = 0 if sol.converged else 1
        assert len(residuals) == iters + extra
        assert sol.meta["residual"] == residuals[-1] == min(residuals)
        assert calls == {
            "solve_hjb_backward": iters + 1, "solve_fpk_forward": iters + extra
        }

    def test_budget_overrun_returns_the_best_iterate(self, monkeypatch):
        # c09 rung 0: the Picard tail is not monotone, and at a budget of 100
        # the best measured iterate (iteration 90) beats the last one
        grid = GridSpec(dim=1, n=32, nt=32, horizon=1.0)
        params = ModelParams(
            nu=0.5, beta=1.5, alpha=0.6, mu=1.0, horizon=1.0, epsilon=0.05
        )
        coupling = CouplingSpec(cf=0.5, cg=0.5)
        calls = self._count_sweeps(monkeypatch)
        sol = solve_mfg(
            grid, params, coupling,
            FixedPointOptions(fp_tol=1e-6, max_outer_iter=100), m0=cosine_density(grid),
        )
        residuals = sol.meta["residuals"]
        assert not sol.converged and sol.meta["outer_iters"] == 100
        assert len(residuals) == 101
        assert sol.meta["residual"] == min(residuals) < residuals[-1]
        # the last iterate is measured, then the winner's HJB sweep re-run
        assert calls == {"solve_hjb_backward": 102, "solve_fpk_forward": 101}
        monkeypatch.undo()
        backward = solve_hjb_backward(grid, sol.m, params, coupling)
        m_br = solve_fpk_forward(grid, backward.transports, sol.m[0], params)
        assert l1_space_time(grid, m_br - sol.m) == sol.meta["residual"]
        assert np.array_equal(backward.u, sol.u)

    def test_singular_cold_start_rejected(self):
        grid = GridSpec(dim=1, n=16, nt=4, horizon=1.0)
        params = ModelParams(nu=0.5, beta=1.5, alpha=0.5, mu=0.0, horizon=1.0)
        with pytest.raises(ConfigError):
            solve_mfg(grid, params, CouplingSpec())

    def test_invalid_ranges_rejected(self):
        grid = GridSpec(dim=1, n=16, nt=4, horizon=1.0)
        params = ModelParams(nu=0.5, beta=2.5, alpha=1.0, mu=1.0, horizon=1.0)
        with pytest.raises(ConfigError):
            solve_mfg(grid, params, CouplingSpec())

    @pytest.mark.parametrize("budget", [0, -1, 2.5, np.float64(3.0)])
    def test_empty_picard_budget_rejected(self, budget):
        # a zero budget ran no iteration and reported a finished solve; a
        # float one was accepted and failed the solve with a TypeError
        message = "at least 1" if isinstance(budget, int) else "an integer"
        with pytest.raises(ValueError, match=f"max_outer_iter must be {message}"):
            FixedPointOptions(max_outer_iter=budget)

    def test_second_horizon_rejected(self):
        """The solve runs on the grid's horizon, so a model horizon that
        differs would be saved with a solution it did not describe."""
        grid = GridSpec(dim=1, n=8, nt=8, horizon=2.0)
        with pytest.raises(ConfigError, match="horizon"):
            solve_mfg(grid, reference_params(horizon=1.0), CouplingSpec())

    @pytest.mark.parametrize("eps", [0.0, 0.05])
    def test_signed_initial_density_rejected(self, eps):
        grid = GridSpec(dim=1, n=16, nt=4, horizon=1.0)
        m0 = cosine_density(grid)
        m0[3] = -0.2
        with pytest.raises(ConfigError, match="nonnegative"):
            solve_mfg(grid, replace(reference_params(), epsilon=eps), CouplingSpec(), m0=m0)

    @staticmethod
    def bad_density_inputs(grid, where, entry):
        """``solve_mfg`` keywords putting ``entry`` in one cell of ``m0`` or
        of the last level of a warm start."""
        bad = cosine_density(grid)
        bad[3] = entry
        if where == "m0":
            return dict(m0=bad)
        return dict(init_traj=np.stack([cosine_density(grid)] * grid.nt + [bad]))

    @pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["m0", "init_traj"])
    def test_non_finite_density_input_rejected(self, where, entry):
        """A NaN or an infinity in ``m0`` or a warm start raised
        ``NonFiniteState`` from the first HJB step, and an infinite ``m0``
        warned in the normalization first."""
        grid = GridSpec(dim=1, n=16, nt=4, horizon=1.0)
        inputs = self.bad_density_inputs(grid, where, entry)
        with pytest.raises(ConfigError, match="must be finite"):
            solve_mfg(grid, reference_params(), CouplingSpec(), **inputs)

    @pytest.mark.parametrize("where", ["m0", "init_traj"])
    def test_negative_density_input_rejected(self, where):
        """A negative warm-start entry raised ``ValueError`` from the HJB
        sweep, which a ladder would have recorded as a failed rung."""
        grid = GridSpec(dim=1, n=16, nt=4, horizon=1.0)
        inputs = self.bad_density_inputs(grid, where, -0.5)
        with pytest.raises(ConfigError, match="must be nonnegative"):
            solve_mfg(grid, reference_params(), CouplingSpec(), **inputs)

    def test_warm_start_roundoff_counts_as_zero(self):
        grid = GridSpec(dim=1, n=16, nt=8, horizon=1.0)
        start = np.array(start_trajectory(grid, cosine_density(grid)))
        start[2, 3] = 0.0
        clean = solve_mfg(grid, reference_params(), CouplingSpec(), init_traj=start)
        start[2, 3] = -1e-15
        rough = solve_mfg(grid, reference_params(), CouplingSpec(), init_traj=start)
        for name in ("u", "m", "policy"):
            assert np.array_equal(getattr(rough, name), getattr(clean, name)), name

    def test_initial_density_roundoff_counts_as_zero(self):
        grid = GridSpec(dim=1, n=16, nt=8, horizon=1.0)
        m0 = cosine_density(grid)
        m0[3] = 0.0
        clean = solve_mfg(grid, reference_params(), CouplingSpec(), m0=m0)
        m0[3] = -1e-15
        rough = solve_mfg(grid, reference_params(), CouplingSpec(), m0=m0)
        assert rough.converged
        assert rough.meta["outer_iters"] == clean.meta["outer_iters"]
        for name in ("u", "m", "policy"):
            got, ref = getattr(rough, name), getattr(clean, name)
            assert np.array_equal(got.view(np.int64), ref.view(np.int64)), name

    def test_mollified_initial_density(self):
        grid = GridSpec(dim=1, n=32, nt=8, horizon=0.25)
        m0 = cosine_density(grid)
        sol = solve_mfg(
            grid, replace(reference_params(0.25), epsilon=0.1), CouplingSpec(), m0=m0
        )
        expected = _normalized(grid, gaussian_smooth(grid, _normalized(grid, m0), 0.1))
        assert np.allclose(sol.m[0], expected, atol=1e-14)
        assert sol.epsilon == 0.1


class TestContinuation:
    def test_single_rung_equals_solve(self):
        grid = GridSpec(dim=1, n=32, nt=16, horizon=0.5)
        m0 = cosine_density(grid)
        schedule = ContinuationSchedule(epsilons=(0.05,), mus=None)
        res = solve_with_continuation(
            grid, reference_params(0.5), CouplingSpec(), schedule=schedule, m0=m0
        )
        direct = solve_mfg(
            grid, replace(reference_params(0.5), epsilon=0.05), CouplingSpec(), m0=m0
        )
        assert res.ok and len(res.solutions) == 1
        assert np.array_equal(res.solutions[0].m, direct.m)
        assert np.array_equal(res.solutions[0].u, direct.u)

    def test_epsilon_ladder_cauchy_decreases(self):
        grid = GridSpec(dim=1, n=32, nt=32, horizon=1.0)
        m0 = cosine_density(grid)
        schedule = ContinuationSchedule(epsilons=(0.1, 0.05, 0.025))
        res = solve_with_continuation(
            grid, reference_params(), CouplingSpec(), schedule=schedule, m0=m0
        )
        assert res.ok
        gaps = [row["m_gap"] for row in res.cauchy_table]
        assert len(gaps) == 2
        assert gaps[1] < gaps[0]

    def test_schedule_validation(self):
        with pytest.raises(ValueError):
            ContinuationSchedule(epsilons=(0.1, 0.2))
        with pytest.raises(ValueError):
            ContinuationSchedule(epsilons=(0.1,), mus=(0.5, 0.7))
        with pytest.raises(ValueError):
            ContinuationSchedule(epsilons=())

    def test_mu_zero_needs_warm_start(self):
        params = ModelParams(nu=0.5, beta=1.5, alpha=0.5, mu=1.0, horizon=1.0)
        schedule = ContinuationSchedule(
            epsilons=(0.05,), mus=(1.0, 0.0), warm_start=False
        )
        with pytest.raises(ConfigError):
            schedule.rungs(params)
        schedule = ContinuationSchedule(epsilons=(0.05,), mus=(1.0, 0.0))
        rungs = schedule.rungs(params)
        assert rungs == [(0.05, 1.0), (0.05, 0.0)]

    def test_unconverged_rung_fails_the_ladder(self):
        """c09's parameters on a 3-iteration budget: no rung converges, none
        raises, and the ladder is not ``ok``."""
        grid = GridSpec(dim=1, n=16, nt=16, horizon=1.0)
        params = ModelParams(nu=0.5, beta=1.5, alpha=0.6, mu=1.0, horizon=1.0)
        schedule = ContinuationSchedule(epsilons=(0.05,), mus=(1.0, 0.5, 0.0))
        res = solve_with_continuation(
            grid, params, CouplingSpec(cf=0.5, cg=0.5),
            FixedPointOptions(fp_tol=1e-6, max_outer_iter=3), schedule,
            m0=cosine_density(grid),
        )
        assert res.failed_rung is None and len(res.solutions) == 3
        assert not any(s.converged for s in res.solutions)
        assert not res.ok

    def test_signed_initial_density_is_no_rung_failure(self):
        grid = GridSpec(dim=1, n=16, nt=4, horizon=1.0)
        m0 = cosine_density(grid)
        m0[3] = -0.2
        schedule = ContinuationSchedule(epsilons=(0.1,))
        with pytest.raises(ConfigError, match="nonnegative"):
            solve_with_continuation(
                grid, reference_params(), CouplingSpec(), schedule=schedule, m0=m0
            )

    def test_conflicting_model_epsilon_is_no_rung_failure(self):
        """A ``params.epsilon`` other than 0 or the first rung's width is not
        dropped by the ladder: its ``ConfigError`` propagates instead of being
        recorded as a failed rung."""
        grid = GridSpec(dim=1, n=16, nt=4, horizon=1.0)
        schedule = ContinuationSchedule(epsilons=(0.1, 0.05))
        with pytest.raises(ConfigError, match="first of epsilons"):
            solve_with_continuation(
                grid, replace(reference_params(), epsilon=0.3), CouplingSpec(),
                schedule=schedule, m0=cosine_density(grid),
            )
        runs = [
            solve_with_continuation(
                grid, replace(reference_params(), epsilon=eps), CouplingSpec(),
                schedule=schedule, m0=cosine_density(grid),
            )
            for eps in (0.0, 0.1)
        ]
        for zero, first in zip(*(run.solutions for run in runs)):
            assert np.array_equal(zero.m, first.m) and np.array_equal(zero.u, first.u)

    def test_failed_rung_returns_partial(self):
        grid = GridSpec(dim=1, n=16, nt=8, horizon=0.5)
        params = ModelParams(nu=0.5, beta=2.0, alpha=2.0, mu=0.0, horizon=0.5)
        # beta = 2, alpha = 2, mu -> 0 violates the singular window
        schedule = ContinuationSchedule(epsilons=(0.05,), mus=(0.5, 0.0))
        with pytest.raises(ConfigError):
            solve_with_continuation(
                grid, params, CouplingSpec(), schedule=schedule, m0=cosine_density(grid)
            )
