"""Forward Kolmogorov stepper: duality, conservation, positivity, heat flow."""

import numpy as np
import pytest
import scipy.sparse as sp

from congestion_mfg.coupler import FixedPointOptions, solve_mfg
from congestion_mfg.errors import NegativeDensity
from congestion_mfg.fpk import fpk_step, solve_fpk_forward
from congestion_mfg.grid import GridSpec, integrate, upwind_parts
from congestion_mfg.hjb import transport_jacobian
from congestion_mfg.model import CouplingSpec, ModelParams, congestion_denominator

from conftest import from_csr

PARAMS = ModelParams(nu=0.5, beta=2.0, alpha=1.0, mu=1.0, horizon=1.0)


def transport_from_field(grid, u, m, params=PARAMS):
    congestion = congestion_denominator(m, params)
    return transport_jacobian(grid, upwind_parts(grid, u), congestion, params)


def zero_transport(grid):
    return from_csr(grid, sp.csr_matrix((grid.ncells, grid.ncells)))


class TestFPKStep:
    def test_heat_fixes_constants(self):
        grid = GridSpec(dim=1, n=32, nt=8, horizon=1.0)
        m = fpk_step(grid, np.ones(grid.shape), zero_transport(grid), PARAMS)
        assert np.abs(m - 1.0).max() < 1e-13

    @pytest.mark.parametrize("dim,n", [(1, 32), (2, 8)])
    def test_mass_conserved_random_drift(self, dim, n):
        grid = GridSpec(dim=dim, n=n, nt=4, horizon=1.0)
        rng = np.random.default_rng(0)
        for _ in range(20):
            u = rng.normal(size=grid.shape)
            m_arg = np.abs(rng.random(grid.shape)) + 0.05
            m_prev = np.abs(rng.random(grid.shape))
            m = fpk_step(grid, m_prev, transport_from_field(grid, u, m_arg), PARAMS)
            rel = abs(m.sum() - m_prev.sum()) / m_prev.sum()
            assert rel < 1e-13

    def test_nonnegativity_hundred_trials(self):
        grid = GridSpec(dim=1, n=32, nt=4, horizon=1.0)
        rng = np.random.default_rng(1)
        worst = 0.0
        for _ in range(100):
            u = rng.normal(size=grid.shape) * rng.uniform(0.1, 5.0)
            m_arg = np.abs(rng.random(grid.shape)) + 0.01
            m_prev = np.abs(rng.random(grid.shape))
            m = fpk_step(grid, m_prev, transport_from_field(grid, u, m_arg), PARAMS)
            worst = min(worst, float(m.min()))
        assert worst >= 0.0

    def test_negative_density_check(self):
        grid = GridSpec(dim=1, n=16, nt=4, horizon=1.0)
        bad = from_csr(grid, sp.identity(grid.ncells, format="csr") * -40.0)
        with pytest.raises(NegativeDensity):
            fpk_step(grid, np.abs(np.random.default_rng(2).random(grid.shape)), bad, PARAMS)
        # the sweep raises the typed error at the frame that dips, not an
        # untyped one at the next step: -3 on the diagonal, +3 on the upper
        # neighbour is no M-matrix
        grid = GridSpec(dim=1, n=8, nt=4, horizon=1.0)
        params = ModelParams(nu=0.01, beta=2.0, alpha=1.0, mu=1.0, horizon=1.0)
        cells = np.arange(grid.ncells)
        upper = sp.csr_matrix(
            (np.full(grid.ncells, 3.0), (cells, (cells + 1) % grid.ncells)),
            shape=(grid.ncells, grid.ncells),
        )
        bad = from_csr(grid, upper - 3.0 * sp.identity(grid.ncells, format="csr"))
        m0 = np.abs(np.random.default_rng(2).random(grid.shape))
        with pytest.raises(NegativeDensity):
            solve_fpk_forward(grid, [bad] * grid.nt, m0, params)

    def test_input_check_allows_the_output_roundoff(self):
        grid = GridSpec(dim=1, n=16, nt=4, horizon=1.0)
        m_prev = np.ones(grid.shape)
        m_prev[3] = -1e-17
        m = fpk_step(grid, m_prev, zero_transport(grid), PARAMS)
        assert m.min() >= -1e-12
        m_prev[3] = -1e-11
        with pytest.raises(ValueError, match="nonnegative"):
            fpk_step(grid, m_prev, zero_transport(grid), PARAMS)

    @pytest.mark.parametrize("dim,n", [(1, 16), (2, 8)])
    def test_input_check_rejects_nan(self, dim, n):
        # a NaN frame passed the check and failed in the linear solve instead
        grid = GridSpec(dim=dim, n=n, nt=4, horizon=1.0)
        m_prev = np.ones(grid.shape)
        m_prev.flat[3] = np.nan
        with pytest.raises(ValueError, match="^previous density frame must be nonnegative$"):
            fpk_step(grid, m_prev, zero_transport(grid), PARAMS)

    def test_forward_sweep_guards_its_initial_density(self):
        grid = GridSpec(dim=1, n=16, nt=4, horizon=1.0)
        transports = [zero_transport(grid)] * grid.nt
        m0 = np.ones(grid.shape)
        m0[3] = 0.0
        clean = solve_fpk_forward(grid, transports, m0, PARAMS)
        m0[3] = -1e-15  # roundoff counts as 0
        rough = solve_fpk_forward(grid, transports, m0, PARAMS)
        assert np.array_equal(rough.view(np.int64), clean.view(np.int64))
        m0[3] = -0.2
        with pytest.raises(ValueError, match="nonnegative"):
            solve_fpk_forward(grid, transports, m0, PARAMS)

    @pytest.mark.parametrize("dim,n", [(1, 16), (2, 8)])
    def test_forward_sweep_is_the_chain_of_steps(self, dim, n):
        # the sweep skips each later frame's entry check, not its arithmetic
        grid = GridSpec(dim=dim, n=n, nt=4, horizon=1.0)
        rng = np.random.default_rng(4)
        transports = [
            transport_from_field(
                grid, rng.normal(size=grid.shape), rng.random(grid.shape) + 0.05
            )
            for _ in range(grid.nt)
        ]
        m0 = rng.random(grid.shape)
        chain = [m0]
        for transport in transports:
            chain.append(fpk_step(grid, chain[-1], transport, PARAMS))
        sweep = solve_fpk_forward(grid, transports, m0, PARAMS)
        assert np.array_equal(sweep.view(np.int64), np.array(chain).view(np.int64))

    def test_forward_sweep_accepts_its_own_frames(self):
        # 2D, nearly inviscid, indicator start: the first step returned a
        # frame with min -7.8e-18 that the next step rejected as negative,
        # an untyped ValueError out of solve_mfg
        grid = GridSpec(dim=2, n=32, nt=32, horizon=1.0)
        params = ModelParams(nu=0.001, beta=2.0, alpha=1.0, mu=1.0, horizon=1.0)
        x, y = grid.coords()
        m0 = (np.hypot(x - 0.5, y - 0.5) < 0.1).astype(float)
        sol = solve_mfg(
            grid, params, CouplingSpec(), FixedPointOptions(max_outer_iter=1), m0=m0
        )
        assert sol.meta["outer_iters"] == 1
        assert sol.m.min() >= 0.0


class TestComparison:
    def test_step_preserves_ordering(self):
        # the implicit M-matrix step is monotone: bigger data, bigger result
        grid = GridSpec(dim=1, n=32, nt=4, horizon=1.0)
        rng = np.random.default_rng(3)
        for _ in range(20):
            u = rng.normal(size=grid.shape) * 2.0
            m_arg = np.abs(rng.random(grid.shape)) + 0.1
            transport = transport_from_field(grid, u, m_arg)
            lo = np.abs(rng.random(grid.shape))
            hi = lo + np.abs(rng.random(grid.shape))
            step_lo = fpk_step(grid, lo, transport, PARAMS)
            step_hi = fpk_step(grid, hi, transport, PARAMS)
            assert (step_hi - step_lo).min() >= -1e-13


class TestDuality:
    @pytest.mark.parametrize("dim,n", [(1, 32), (2, 8)])
    def test_adjoint_pairing_exact(self, dim, n):
        grid = GridSpec(dim=dim, n=n, nt=4, horizon=1.0)
        rng = np.random.default_rng(7)
        u = rng.normal(size=grid.shape)
        m_arg = np.abs(rng.random(grid.shape)) + 0.1
        jac = transport_from_field(grid, u, m_arg)
        jac_t = jac.T
        for _ in range(100):
            v = rng.normal(size=grid.ncells)
            w = rng.normal(size=grid.ncells)
            lhs = float(jac.dot(v) @ w)
            rhs = float(v @ jac_t.dot(w))
            scale = max(abs(lhs), abs(rhs), 1e-30)
            assert abs(lhs - rhs) / scale < 1e-13


class TestForwardSolve:
    def test_constant_all_levels(self):
        grid = GridSpec(dim=1, n=32, nt=16, horizon=1.0)
        transports = [zero_transport(grid)] * grid.nt
        m = solve_fpk_forward(grid, transports, np.ones(grid.shape), PARAMS)
        assert np.abs(m - 1.0).max() < 1e-12

    def test_initial_frame_kept(self):
        grid = GridSpec(dim=1, n=32, nt=8, horizon=1.0)
        rng = np.random.default_rng(4)
        m0 = np.abs(rng.random(grid.shape))
        m = solve_fpk_forward(grid, [zero_transport(grid)] * grid.nt, m0, PARAMS)
        assert np.array_equal(m[0], m0)

    def test_heat_flow_matches_spectral_reference(self):
        # zero drift: implicit heat flow vs the exact Fourier solution of the
        # continuous equation; the gap is dominated by the O(dt) Euler error.
        nu = 0.25
        params = ModelParams(nu=nu, beta=2.0, alpha=1.0, mu=1.0, horizon=1.0)
        grid = GridSpec(dim=1, n=64, nt=256, horizon=1.0)
        x = grid.axis_centers()
        m0 = 1.0 + 0.8 * np.cos(2 * np.pi * x)
        m = solve_fpk_forward(grid, [zero_transport(grid)] * grid.nt, m0, params)
        t = grid.times()
        lam = nu * (2 * np.pi) ** 2
        exact = 1.0 + 0.8 * np.outer(np.exp(-lam * t), np.cos(2 * np.pi * x))
        gap = np.abs(m - exact).max()
        # implicit Euler on the slowest mode: max error ~ e^{-1} amp lam dt / 2
        bound = 1.5 * np.exp(-1.0) * 0.8 * lam * grid.dt / 2.0
        assert gap < bound

    def test_bump_variance_grows(self):
        grid = GridSpec(dim=1, n=64, nt=64, horizon=1.0)
        x = grid.axis_centers()
        m0 = np.exp(-((x - 0.5) ** 2) / (2 * 0.05**2))
        m0 /= integrate(grid, m0)
        m = solve_fpk_forward(grid, [zero_transport(grid)] * grid.nt, m0, PARAMS)
        variances = [integrate(grid, frame * (x - 0.5) ** 2) for frame in m]
        diffs = np.diff(variances)
        assert np.all(diffs > -1e-14)
        assert variances[-1] > variances[0]

    def test_nonneg_all_frames(self):
        grid = GridSpec(dim=1, n=32, nt=16, horizon=1.0)
        rng = np.random.default_rng(8)
        u = rng.normal(size=grid.shape) * 2.0
        m_arg = np.abs(rng.random(grid.shape)) + 0.1
        transports = [transport_from_field(grid, u, m_arg)] * grid.nt
        m0 = np.abs(rng.random(grid.shape))
        m = solve_fpk_forward(grid, transports, m0, PARAMS)
        assert m.min() >= 0.0
