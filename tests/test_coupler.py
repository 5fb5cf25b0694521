"""Fixed-point iteration, mollifier, solution invariants, continuation."""

import numpy as np
import pytest

from congestion_mfg import (
    ContinuationSchedule,
    CouplingSpec,
    FixedPointOptions,
    GridSpec,
    ModelParams,
    solve_mfg,
    solve_with_continuation,
)
from congestion_mfg.coupler import _normalized
from congestion_mfg.errors import ConfigError
from congestion_mfg.fpk import solve_fpk_forward
from congestion_mfg.grid import gaussian_smooth, integrate, l1_space_time, upwind_parts
from congestion_mfg.hjb import HJBOptions, drift_field, solve_hjb_backward
from congestion_mfg.model import congestion_denominator

from conftest import cosine_density, reference_params


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
            solve_hjb_backward(grid, sol.m, sol.params, zero, HJBOptions()).transports,
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
            grid, params, CouplingSpec(), FixedPointOptions(fp_tol=1e-6), eps=eps, m0=m0
        )
        assert sol.converged and sol.epsilon == eps
        assert sol.policy.shape == (grid.nt + 1, grid.dim, *grid.shape)
        for k in range(grid.nt + 1):
            parts = upwind_parts(grid, sol.u[k])
            congestion = congestion_denominator(sol.m[k], sol.params, eps)
            drift = drift_field(grid, parts, congestion, sol.params)
            assert np.array_equal(sol.policy[k], drift)
        if dim == 2:
            # the mollified point mass exceeds the cap 1/eps, so a drift
            # built without the truncation would differ at level 0
            assert sol.m[0].max() > 1.0 / eps
            parts = upwind_parts(grid, sol.u[0])
            congestion = congestion_denominator(sol.m[0], sol.params, 0.0)
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
        backward = solve_hjb_backward(
            sol.grid, sol.m, sol.params, sol.coupling, HJBOptions()
        )
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
            FixedPointOptions(init_m=cosine_density(grid, 0.3)),
            m0=m0,
        )
        assert l1_space_time(grid, uniform.m - bump.m) <= 1e-6

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

    @pytest.mark.parametrize("eps", [0.0, 0.05])
    def test_signed_initial_density_rejected(self, eps):
        grid = GridSpec(dim=1, n=16, nt=4, horizon=1.0)
        m0 = cosine_density(grid)
        m0[3] = -0.2
        with pytest.raises(ConfigError, match="nonnegative"):
            solve_mfg(grid, reference_params(), CouplingSpec(), m0=m0, eps=eps)

    @pytest.mark.parametrize("eps", [0.0, 0.05])
    def test_conflicting_hjb_epsilon_rejected(self, eps):
        """A width in ``HJBOptions`` other than the rung's ``eps`` is an error,
        not silently replaced by ``eps``."""
        grid = GridSpec(dim=1, n=16, nt=4, horizon=1.0)
        with pytest.raises(ConfigError, match="HJBOptions.epsilon"):
            solve_mfg(
                grid, reference_params(), CouplingSpec(), eps=eps,
                hjb_opts=HJBOptions(epsilon=0.1),
            )

    def test_matching_hjb_epsilon_accepted(self):
        grid = GridSpec(dim=1, n=16, nt=8, horizon=1.0)
        m0 = cosine_density(grid)
        plain = solve_mfg(grid, reference_params(), CouplingSpec(), eps=0.05, m0=m0)
        for opts in (HJBOptions(), HJBOptions(epsilon=0.05)):
            sol = solve_mfg(
                grid, reference_params(), CouplingSpec(), eps=0.05, m0=m0,
                hjb_opts=opts,
            )
            assert sol.epsilon == 0.05
            assert np.array_equal(sol.m, plain.m) and np.array_equal(sol.u, plain.u)

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
        sol = solve_mfg(grid, reference_params(0.25), CouplingSpec(), m0=m0, eps=0.1)
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
            grid, reference_params(0.5), CouplingSpec(), eps=0.05, m0=m0
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

    def test_signed_initial_density_is_no_rung_failure(self):
        grid = GridSpec(dim=1, n=16, nt=4, horizon=1.0)
        m0 = cosine_density(grid)
        m0[3] = -0.2
        schedule = ContinuationSchedule(epsilons=(0.1,))
        with pytest.raises(ConfigError, match="nonnegative"):
            solve_with_continuation(
                grid, reference_params(), CouplingSpec(), schedule=schedule, m0=m0
            )

    def test_conflicting_hjb_epsilon_is_no_rung_failure(self):
        """The first rung matches ``HJBOptions.epsilon``; the second does not,
        and its ``ConfigError`` propagates instead of being recorded as a
        failed rung."""
        grid = GridSpec(dim=1, n=16, nt=4, horizon=1.0)
        schedule = ContinuationSchedule(epsilons=(0.1, 0.05))
        with pytest.raises(ConfigError, match="HJBOptions.epsilon"):
            solve_with_continuation(
                grid, reference_params(), CouplingSpec(), schedule=schedule,
                m0=cosine_density(grid), hjb_opts=HJBOptions(epsilon=0.1),
            )

    def test_failed_rung_returns_partial(self):
        grid = GridSpec(dim=1, n=16, nt=8, horizon=0.5)
        params = ModelParams(nu=0.5, beta=2.0, alpha=2.0, mu=0.0, horizon=0.5)
        # beta = 2, alpha = 2, mu -> 0 violates the singular window
        schedule = ContinuationSchedule(epsilons=(0.05,), mus=(0.5, 0.0))
        with pytest.raises(ConfigError):
            solve_with_continuation(
                grid, params, CouplingSpec(), schedule=schedule, m0=cosine_density(grid)
            )
