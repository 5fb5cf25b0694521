"""Backward HJB stepper: exactness, comparison, consistency, transport data."""

import itertools

import numpy as np
import pytest

from congestion_mfg import hjb
from congestion_mfg.errors import NewtonDiverged, NonFiniteState
from congestion_mfg.grid import GridSpec, restrict_traj
from congestion_mfg.hjb import (
    HJBOptions,
    hjb_step,
    solve_hjb_backward,
    transport_jacobian,
)
from congestion_mfg.model import CouplingSpec, ModelParams

PARAMS = ModelParams(nu=0.5, beta=2.0, alpha=1.0, mu=1.0, horizon=1.0)
COUPLING = CouplingSpec()  # F(m) = m, G(m) = m


def uniform_traj(grid, value=1.0):
    return np.full((grid.nt + 1, *grid.shape), value)


class TestHJBStep:
    def test_constant_transport(self):
        # F = 1, constant terminal data: u = c + dt exactly
        grid = GridSpec(dim=1, n=16, nt=8, horizon=1.0)
        coupling = CouplingSpec(cf=0.0, offset_f=1.0, cg=0.0, offset_g=0.0)
        u_next = np.full(grid.shape, 3.0)
        m = np.full(grid.shape, 0.7)
        u, _, res = hjb_step(grid, u_next, m, PARAMS, coupling.f(m), HJBOptions())
        assert np.abs(u - (3.0 + grid.dt)).max() < 1e-13
        assert res <= 1e-10

    def test_terminal_condition_is_assignment(self):
        grid = GridSpec(dim=1, n=16, nt=4, horizon=1.0)
        rng = np.random.default_rng(1)
        m_traj = np.abs(rng.random((grid.nt + 1, grid.n))) + 0.1
        result = solve_hjb_backward(grid, m_traj, PARAMS, COUPLING, HJBOptions())
        assert np.array_equal(result.u[grid.nt], COUPLING.g(m_traj[grid.nt]))

    def test_newton_budget_raises(self):
        grid = GridSpec(dim=1, n=16, nt=4, horizon=1.0)
        rng = np.random.default_rng(2)
        u_next = rng.normal(size=grid.shape) * 5.0
        m = np.abs(rng.random(grid.shape))
        with pytest.raises(NewtonDiverged):
            hjb_step(
                grid, u_next, m, PARAMS, COUPLING.f(m),
                HJBOptions(newton_tol=1e-14, newton_max_iter=1),
            )

    @pytest.mark.parametrize("dim,n", [(1, 16), (1, 64), (2, 8)])
    def test_newton_from_rough_starts_is_monotone(self, monkeypatch, dim, n):
        # a level is a convex M-function, so full Newton steps converge from
        # any start and every correction after the first is nonnegative: the
        # iterates decrease onto the solution (up to roundoff in u)
        corrections = []
        solve = hjb.sparse_solve

        def recording_solve(grid, mat, rhs, tol=1e-12):
            corrections.append(solve(grid, mat, rhs, tol=tol))
            return corrections[-1]

        monkeypatch.setattr(hjb, "sparse_solve", recording_solve)
        grid = GridSpec(dim=dim, n=n, nt=n, horizon=1.0)
        betas, mus, epsilons = (1.05, 1.2, 1.5, 2.0), (1.0, 0.1, 0.0), (0.0, 0.1)
        for beta, mu, eps, seed in itertools.product(betas, mus, epsilons, range(2)):
            params = ModelParams(nu=0.5, beta=beta, alpha=0.8, mu=mu, horizon=1.0)
            rng = np.random.default_rng([seed, dim, n])
            u_next = 5.0 * rng.normal(size=grid.shape)
            m = rng.random(grid.shape) + 0.05
            corrections.clear()
            f_level = hjb.effective_cost(grid, m, COUPLING.f, eps)
            u, _, res = hjb_step(grid, u_next, m, params, f_level, HJBOptions(epsilon=eps))
            assert res <= HJBOptions().newton_tol
            assert 1 <= len(corrections) <= 20
            roundoff = 16 * np.finfo(float).eps * np.abs(u).max()
            for delta in corrections[1:]:
                assert delta.min() >= -roundoff

    def test_lower_bound_c4(self):
        # F, G >= c4 = 0 propagates to u >= 0 by discrete comparison
        grid = GridSpec(dim=1, n=32, nt=32, horizon=1.0)
        x = grid.axis_centers()
        m_traj = np.tile(1.0 + 0.5 * np.cos(2 * np.pi * x), (grid.nt + 1, 1))
        result = solve_hjb_backward(grid, m_traj, PARAMS, COUPLING, HJBOptions())
        assert COUPLING.c4 == 0.0
        assert result.u.min() >= COUPLING.c4 - 1e-12


class TestOptions:
    @pytest.mark.parametrize(
        "bad",
        [
            {"newton_tol": 0.0},
            {"newton_max_iter": 0},
            {"newton_max_iter": -3},
            {"epsilon": -0.1},
            {"linear_tol": 0.0},
            {"linear_tol": -1.0},
        ],
        ids=lambda bad: "-".join(f"{k}={v}" for k, v in bad.items()),
    )
    def test_invalid_options_rejected(self, bad):
        with pytest.raises(ValueError):
            HJBOptions(**bad)


TABULATED = CouplingSpec(
    family="tabulated",
    table_s=(0.0, 1.0, 2.0, 4.0),
    table_f=(0.0, 1.0, 1.5, 2.0),
    table_g=(0.0, 0.5, 1.0, 3.0),
)
COST_CASES = list(
    itertools.product(
        [(1, 16), (2, 6)],
        [0.0, 0.05],
        [COUPLING, CouplingSpec(cf=0.5, qf=1.5, cg=2.0, qg=0.5), TABULATED],
    )
)


def random_traj(grid, seed):
    return np.random.default_rng(seed).random((grid.nt + 1, *grid.shape)) * 2.0 + 0.01


def assert_bits_equal(a, b):
    assert a.shape == b.shape
    assert np.array_equal(np.asarray(a).view(np.int64), np.asarray(b).view(np.int64))


class TestMollifiedCosts:
    @pytest.mark.parametrize("grid_args, eps, coupling", COST_CASES)
    def test_trajectory_equals_per_level_calls(self, grid_args, eps, coupling):
        dim, n = grid_args
        grid = GridSpec(dim=dim, n=n, nt=6, horizon=1.0)
        m_traj = random_traj(grid, n)
        for cost in (coupling.f, coupling.g):
            per_level = [hjb.effective_cost(grid, frame, cost, eps) for frame in m_traj]
            assert_bits_equal(hjb.effective_cost(grid, m_traj, cost, eps), np.stack(per_level))
        level_costs = hjb.effective_cost(grid, m_traj, coupling.level_costs, eps)
        for k in range(grid.nt):
            assert_bits_equal(level_costs[k], hjb.effective_cost(grid, m_traj[k], coupling.f, eps))
        assert_bits_equal(level_costs[-1], hjb.effective_cost(grid, m_traj[-1], coupling.g, eps))

    @pytest.mark.parametrize("grid_args, eps, coupling", COST_CASES)
    def test_sweep_equals_per_level_reference(self, grid_args, eps, coupling):
        dim, n = grid_args
        grid = GridSpec(dim=dim, n=n, nt=6, horizon=1.0)
        m_traj = random_traj(grid, 2 * n)
        opts = HJBOptions(epsilon=eps)
        result = solve_hjb_backward(grid, m_traj, PARAMS, coupling, opts)
        # the sweep as it was: each level smooths its own frame's costs
        u = grid.zeros_traj()
        u[grid.nt] = hjb.effective_cost(grid, m_traj[grid.nt], coupling.g, eps)
        for k in range(grid.nt - 1, -1, -1):
            f_level = hjb.effective_cost(grid, m_traj[k], coupling.f, eps)
            u[k], transport, _ = hjb_step(grid, u[k + 1], m_traj[k], PARAMS, f_level, opts)
            assert_bits_equal(result.transports[k].data, transport.data)
        assert_bits_equal(result.u, u)

    @pytest.mark.parametrize("eps, calls", [(0.0, 0), (0.05, 2)])
    def test_sweep_smooths_all_levels_at_once(self, monkeypatch, eps, calls):
        smoothed = []
        smooth = hjb.gaussian_smooth

        def counting_smooth(grid, f, eps):
            smoothed.append(np.shape(f))
            return smooth(grid, f, eps)

        monkeypatch.setattr(hjb, "gaussian_smooth", counting_smooth)
        grid = GridSpec(dim=1, n=16, nt=8, horizon=1.0)
        solve_hjb_backward(grid, random_traj(grid, 1), PARAMS, COUPLING, HJBOptions(epsilon=eps))
        assert smoothed == [(grid.nt + 1, grid.n)] * calls


class TestBackwardSolve:
    def test_uniform_density_linear_value(self):
        # m = 1, F(m) = G(m) = m: u(t) = 1 + (T - t) for any nu
        grid = GridSpec(dim=1, n=16, nt=10, horizon=1.0)
        result = solve_hjb_backward(grid, uniform_traj(grid), PARAMS, COUPLING, HJBOptions())
        expected = 1.0 + (1.0 - grid.times())[:, None]
        assert np.abs(result.u - expected).max() < 1e-12

    def test_zero_couplings_zero_value(self):
        grid = GridSpec(dim=1, n=16, nt=10, horizon=1.0)
        zero = CouplingSpec(cf=0.0, offset_f=0.0, cg=0.0, offset_g=0.0)
        result = solve_hjb_backward(grid, uniform_traj(grid), PARAMS, zero, HJBOptions())
        assert np.abs(result.u).max() == 0.0

    def test_comparison_raised_couplings(self):
        grid = GridSpec(dim=1, n=16, nt=8, horizon=1.0)
        rng = np.random.default_rng(5)
        for _ in range(5):
            m_traj = np.abs(rng.random((grid.nt + 1, grid.n))) + 0.05
            lo = CouplingSpec(cf=1.0, offset_f=0.0, cg=1.0, offset_g=0.0)
            hi = CouplingSpec(cf=1.0, offset_f=0.4, cg=1.0, offset_g=0.9)
            u_lo = solve_hjb_backward(grid, m_traj, PARAMS, lo, HJBOptions()).u
            u_hi = solve_hjb_backward(grid, m_traj, PARAMS, hi, HJBOptions()).u
            assert (u_hi - u_lo).min() >= -1e-10

    def test_first_order_consistency(self):
        # frozen m = 1, smooth terminal data via G acting on smooth density
        params = ModelParams(nu=0.2, beta=2.0, alpha=1.0, mu=1.0, horizon=0.5)

        def solve_at(n):
            grid = GridSpec(dim=1, n=n, nt=n, horizon=0.5)
            x = grid.axis_centers()
            m_traj = np.tile(1.0 + 0.3 * np.sin(2 * np.pi * x), (grid.nt + 1, 1))
            res = solve_hjb_backward(grid, m_traj, params, COUPLING, HJBOptions())
            return grid, res.u

        fine_grid, fine_u = solve_at(256)
        errors = []
        for n in (32, 64, 128):
            grid, u = solve_at(n)
            ref = restrict_traj(fine_grid, fine_u, 256 // n)
            errors.append(np.abs(u - ref).max())
        assert errors[0] > errors[1] > errors[2]
        assert 1.4 < errors[0] / errors[1] < 3.5
        assert 1.4 < errors[1] / errors[2] < 3.5

    def test_regularized_gradient_integral_stable(self):
        # int int |Du|^beta/(T m + mu)^alpha finite and stable under nt doubling
        params = ModelParams(nu=0.5, beta=1.5, alpha=0.8, mu=0.5, horizon=1.0)

        def integral(nt):
            grid = GridSpec(dim=1, n=64, nt=nt, horizon=1.0)
            x = grid.axis_centers()
            m_traj = np.tile(1.0 + 0.5 * np.cos(2 * np.pi * x), (grid.nt + 1, 1))
            res = solve_hjb_backward(grid, m_traj, params, COUPLING, HJBOptions(epsilon=0.1))
            from congestion_mfg.hjb import hamiltonian_values

            total = 0.0
            for k in range(grid.nt):
                h_vals = hamiltonian_values(grid, res.u[k], m_traj[k], params, 0.1)
                total += grid.dt * grid.h * float((params.beta * h_vals).sum())
            return total

        coarse, fine = integral(64), integral(128)
        assert np.isfinite(coarse) and coarse > 0
        assert abs(fine - coarse) <= 0.10 * abs(coarse)


class TestTransport:
    def test_jacobian_row_sums_and_signs(self):
        rng = np.random.default_rng(3)
        for grid in (GridSpec(dim=1, n=16, nt=2, horizon=1.0), GridSpec(dim=2, n=8, nt=2, horizon=1.0)):
            u = rng.normal(size=grid.shape)
            m = np.abs(rng.random(grid.shape))
            jac = transport_jacobian(grid, u, m, PARAMS, 0.0)
            assert np.abs(jac @ np.ones(grid.ncells)).max() < 1e-11
            assert jac.diagonal().min() >= 0.0
            off = jac - __import__("scipy.sparse", fromlist=["diags"]).diags(jac.diagonal())
            assert off.max() <= 1e-14

    def test_euler_identity_jacobian_vs_hamiltonian(self):
        # A u = beta * g exactly for the beta-homogeneous numerical Hamiltonian
        from congestion_mfg.hjb import hamiltonian_values

        rng = np.random.default_rng(4)
        for beta in (1.5, 1.8, 2.0):
            params = ModelParams(nu=0.5, beta=beta, alpha=0.7, mu=0.4, horizon=1.0)
            grid = GridSpec(dim=1, n=32, nt=2, horizon=1.0)
            u = rng.normal(size=grid.shape)
            m = np.abs(rng.random(grid.shape)) + 0.1
            jac = transport_jacobian(grid, u, m, params, 0.0)
            g = hamiltonian_values(grid, u, m, params, 0.0)
            lhs = jac @ u.ravel()
            assert np.allclose(lhs, beta * g.ravel(), rtol=1e-11, atol=1e-11)

    def test_truncation_enters_denominator(self):
        grid = GridSpec(dim=1, n=16, nt=2, horizon=1.0)
        rng = np.random.default_rng(6)
        u = rng.normal(size=grid.shape)
        m = np.full(grid.shape, 50.0)  # above the cap 1/eps = 10
        from congestion_mfg.hjb import hamiltonian_values

        capped = hamiltonian_values(grid, u, m, PARAMS, 0.1)
        manual = hamiltonian_values(grid, u, np.full(grid.shape, 10.0), PARAMS, 0.0)
        assert np.allclose(capped, manual, rtol=1e-14)


class TestNonFiniteGuard:
    def test_nan_terminal_data_rejected(self):
        grid = GridSpec(dim=1, n=16, nt=4, horizon=1.0)
        u_next = np.full(grid.shape, np.nan)
        m = np.ones(grid.shape)
        with pytest.raises(NonFiniteState):
            hjb_step(grid, u_next, m, PARAMS, COUPLING.f(m), HJBOptions())
