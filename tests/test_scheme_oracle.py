"""Loop-based re-implementation of the discrete equations as an oracle.

Every check here recomputes the scheme from the raw formulas with explicit
index arithmetic (no shared helpers beyond the solvers under test), so an
assembly bug common to the vectorized kernels and their own residuals would
still be caught.
"""

import numpy as np
import pytest

from congestion_mfg.fpk import fpk_step
from congestion_mfg.grid import GridSpec, upwind_parts
from congestion_mfg.hjb import hjb_step, transport_jacobian
from congestion_mfg.model import CouplingSpec, ModelParams, congestion_denominator

from conftest import as_csr


def naive_upwind_q_1d(u, h):
    n = len(u)
    q = np.zeros(n)
    for j in range(n):
        dm = (u[j] - u[(j - 1) % n]) / h
        dp = (u[(j + 1) % n] - u[j]) / h
        q[j] = max(dm, 0.0) ** 2 + min(dp, 0.0) ** 2
    return q


def naive_hjb_residual_1d(grid, u, u_next, m, params, f_vals):
    h, dt = grid.h, grid.dt
    n = grid.n
    q = naive_upwind_q_1d(u, h)
    res = np.zeros(n)
    for j in range(n):
        lap = (u[(j + 1) % n] - 2.0 * u[j] + u[(j - 1) % n]) / h**2
        ham = 0.0
        if q[j] > 0.0:
            ham = q[j] ** (params.beta / 2.0) / (
                params.beta * (m[j] + params.mu) ** params.alpha
            )
        res[j] = (u[j] - u_next[j]) / dt - params.nu * lap + ham - f_vals[j]
    return res


def naive_jacobian_1d(grid, u, m, params):
    h = grid.h
    n = grid.n
    q = naive_upwind_q_1d(u, h)
    jac = np.zeros((n, n))
    for j in range(n):
        if q[j] <= 0.0:
            continue
        den = (m[j] + params.mu) ** params.alpha
        phi = q[j] ** (params.beta / 2.0 - 1.0)
        dm = (u[j] - u[(j - 1) % n]) / h
        dp = (u[(j + 1) % n] - u[j]) / h
        a_minus = phi * max(dm, 0.0) / den
        a_plus = phi * min(dp, 0.0) / den
        jac[j, (j - 1) % n] += -a_minus / h
        jac[j, j] += (a_minus - a_plus) / h
        jac[j, (j + 1) % n] += a_plus / h
    return jac


PARAMS = ModelParams(nu=0.4, beta=1.6, alpha=0.9, mu=0.7, horizon=1.0)
COUPLING = CouplingSpec(cf=1.3, qf=1.0, offset_f=0.2, cg=0.8, qg=2.0, offset_g=0.0)


class TestAgainstNaiveFormulas:
    def test_hjb_step_satisfies_raw_equation(self):
        grid = GridSpec(dim=1, n=24, nt=8, horizon=1.0)
        rng = np.random.default_rng(12)
        u_next = rng.normal(size=grid.shape)
        m = np.abs(rng.random(grid.shape)) + 0.2
        u, _, _ = hjb_step(grid, u_next, m, PARAMS, COUPLING.f(m))
        res = naive_hjb_residual_1d(grid, u, u_next, m, PARAMS, COUPLING.f(m))
        assert np.abs(res).max() <= 1e-9

    def test_jacobian_matches_naive_matrix(self):
        grid = GridSpec(dim=1, n=16, nt=4, horizon=1.0)
        rng = np.random.default_rng(13)
        u = rng.normal(size=grid.shape)
        m = np.abs(rng.random(grid.shape)) + 0.2
        congestion = congestion_denominator(m, PARAMS)
        jac = transport_jacobian(grid, upwind_parts(grid, u), congestion, PARAMS)
        fast = as_csr(jac).toarray()
        slow = naive_jacobian_1d(grid, u, m, PARAMS)
        assert np.allclose(fast, slow, rtol=1e-13, atol=1e-13)

    def test_jacobian_is_directional_derivative(self):
        # finite differences of the numerical Hamiltonian recover the matrix
        from congestion_mfg.hjb import hamiltonian_values

        grid = GridSpec(dim=1, n=16, nt=4, horizon=1.0)
        rng = np.random.default_rng(14)
        u = rng.normal(size=grid.shape)
        m = np.abs(rng.random(grid.shape)) + 0.2
        congestion = congestion_denominator(m, PARAMS)
        jac = transport_jacobian(grid, upwind_parts(grid, u), congestion, PARAMS)
        for _ in range(5):
            direction = rng.normal(size=grid.shape)
            step = 1e-7
            plus = hamiltonian_values(
                grid, upwind_parts(grid, u + step * direction), congestion, PARAMS
            )
            minus = hamiltonian_values(
                grid, upwind_parts(grid, u - step * direction), congestion, PARAMS
            )
            fd = (plus - minus) / (2.0 * step)
            analytic = jac.dot(direction.ravel()).reshape(grid.shape)
            assert np.abs(fd - analytic).max() <= 1e-5 * (1.0 + np.abs(fd).max())

    def test_fpk_step_satisfies_adjoint_equation(self):
        grid = GridSpec(dim=1, n=24, nt=8, horizon=1.0)
        rng = np.random.default_rng(15)
        u_next = rng.normal(size=grid.shape)
        m_arg = np.abs(rng.random(grid.shape)) + 0.2
        _, transport, _ = hjb_step(grid, u_next, m_arg, PARAMS, COUPLING.f(m_arg))
        m_prev = np.abs(rng.random(grid.shape)) + 0.1
        m = fpk_step(grid, m_prev, transport, PARAMS)
        # naive adjoint residual: (m - m_prev)/dt - nu lap m + J^T m = 0
        jac_dense = as_csr(transport).toarray()
        n, h, dt = grid.n, grid.h, grid.dt
        res = np.zeros(n)
        for j in range(n):
            lap = (m[(j + 1) % n] - 2.0 * m[j] + m[(j - 1) % n]) / h**2
            advect = sum(jac_dense[i, j] * m[i] for i in range(n))
            res[j] = (m[j] - m_prev[j]) / dt - PARAMS.nu * lap + advect
        assert np.abs(res).max() <= 1e-9

    @pytest.mark.parametrize("shift", [1, 3])
    def test_translation_equivariance_of_step(self, shift):
        # shifting all data shifts the solution: no hidden grid anchoring
        grid = GridSpec(dim=1, n=16, nt=4, horizon=1.0)
        rng = np.random.default_rng(16)
        u_next = rng.normal(size=grid.shape)
        m = np.abs(rng.random(grid.shape)) + 0.2
        u, _, _ = hjb_step(grid, u_next, m, PARAMS, COUPLING.f(m))
        u_s, _, _ = hjb_step(
            grid,
            np.roll(u_next, shift),
            np.roll(m, shift),
            PARAMS,
            COUPLING.f(np.roll(m, shift)),
        )
        assert np.abs(np.roll(u, shift) - u_s).max() <= 1e-11
