"""2D linear solves: the averaged-stencil preconditioner and BiCGStab around it."""

import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import LinearOperator, bicgstab

from congestion_mfg import (
    CouplingSpec,
    FixedPointOptions,
    GridSpec,
    ModelParams,
    fpk,
    hjb,
    linalg,
    solve_mfg,
)
from congestion_mfg.errors import LinearSolveFailed
from congestion_mfg.fpk import solve_fpk_forward
from congestion_mfg.grid import implicit_heat_data, stencil_pattern
from congestion_mfg.hjb import HJBOptions, solve_hjb_backward

REFERENCE = ModelParams(nu=0.5, beta=2.0, alpha=1.0, mu=1.0, horizon=1.0)


def c09_bump(grid):
    x, y = grid.coords()
    return 1.0 + 0.5 * np.cos(2 * np.pi * x) * np.cos(2 * np.pi * y)


def upwind_data(grid, speeds_lower, speeds_upper):
    """CSR slot data of a constant upwind advection: ``sum_ax a (u_i - u_{i-e})
    + b (u_i - u_{i+e})`` per axis, with ``h``-scaled speeds."""
    pattern = stencil_pattern(grid)
    data = np.zeros(len(pattern.indices))
    for ax, (a, b) in enumerate(zip(speeds_lower, speeds_upper)):
        data[pattern.lower[ax]] = -a / grid.h
        data[pattern.upper[ax]] = -b / grid.h
        data[pattern.center] += (a + b) / grid.h
    return data


def constant_systems(grid):
    """Heat alone and heat plus a nonsymmetric advection, each as CSC and as
    its transpose (both on the stencil pattern)."""
    pattern = stencil_pattern(grid)
    heat = implicit_heat_data(grid, 0.3)
    advected = heat + upwind_data(grid, (1.5, 0.0), (0.25, 2.5))
    for data in (heat, advected):
        yield pattern.csc(data)
        yield pattern.csc(data[pattern.transpose])


@pytest.mark.parametrize("n", [4, 5, 6, 32])
def test_preconditioner_inverts_constant_stencils(n):
    grid = GridSpec(dim=2, n=n, nt=8, horizon=1.0)
    x = np.random.default_rng(n).normal(size=grid.ncells)
    for mat in constant_systems(grid):
        apply = linalg.averaged_stencil_inverse(grid, mat)
        scale = np.abs(x).max()
        assert np.abs(apply(mat @ x) - x).max() <= 1e-12 * scale
        b = mat @ x
        assert np.abs(mat @ apply(b) - b).max() <= 1e-12 * np.abs(b).max()


@pytest.mark.parametrize("n", [4, 5, 6, 32])
def test_preconditioner_passes_equal_rfftn_reference(n):
    grid = GridSpec(dim=2, n=n, nt=8, horizon=1.0)
    x = np.random.default_rng(n).normal(size=grid.ncells)
    for mat in constant_systems(grid):
        symbol = linalg.averaged_symbol(grid, mat)
        spectrum = np.fft.rfftn(x.reshape(grid.shape), axes=(0, 1)) / symbol
        ref = np.fft.irfftn(spectrum, s=grid.shape, axes=(0, 1)).ravel()
        got = linalg.averaged_stencil_inverse(grid, mat)(x)
        assert np.array_equal(got.view(np.int64), ref.view(np.int64))


@pytest.mark.parametrize("n", [4, 6])
def test_symbol_of_a_matrix_off_the_pattern(n):
    """A matrix not built on the pattern is read through its entries."""
    grid = GridSpec(dim=2, n=n, nt=8, horizon=1.0)
    for mat in constant_systems(grid):
        assert np.allclose(
            linalg.averaged_symbol(grid, sp.csr_matrix(mat.toarray())),
            linalg.averaged_symbol(grid, mat),
            rtol=1e-14,
            atol=0.0,
        )


@pytest.fixture(scope="module")
def captured():
    """(grid, system, rhs, tol) of every solve in one 2D HJB + FPK sweep."""
    grid = GridSpec(dim=2, n=32, nt=4, horizon=1.0)
    seen = []

    def recorder(grid, mat, rhs, tol=1e-12):
        seen.append((grid, mat, rhs, tol))
        return linalg.sparse_solve(grid, mat, rhs, tol)

    m = np.broadcast_to(c09_bump(grid), (grid.nt + 1, *grid.shape)).copy()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hjb, "sparse_solve", recorder)
        mp.setattr(fpk, "sparse_solve", recorder)
        back = solve_hjb_backward(grid, m, REFERENCE, CouplingSpec(), HJBOptions())
        n_hjb = len(seen)
        solve_fpk_forward(grid, back.transports, m[0], REFERENCE)
    assert 0 < n_hjb < len(seen)
    return seen


def test_captured_systems_meet_tolerance(captured):
    for grid, mat, rhs, tol in captured:
        x = linalg.sparse_solve(grid, mat, rhs, tol)
        assert np.linalg.norm(mat @ x - rhs) <= tol * (np.linalg.norm(rhs) + 1.0)


def test_symbol_real_part_at_least_one_over_dt(captured):
    for grid, mat, _, _ in captured:
        symbol = linalg.averaged_symbol(grid, mat)
        assert symbol.real.min() >= (1 / grid.dt) * (1 - 1e-12)


def test_lean_operators_match_default_wrapping(captured, monkeypatch):
    calls = []

    def spy(A, b, **kwargs):
        calls.append(kwargs)
        return bicgstab(A, b, **kwargs)

    monkeypatch.setattr(linalg, "bicgstab", spy)
    for grid, mat, rhs, tol in captured:
        x = linalg.sparse_solve(grid, mat, rhs, tol)
        kwargs = dict(calls[-1])
        kwargs["M"] = LinearOperator(mat.shape, matvec=kwargs["M"].matvec)
        ref, info = bicgstab(mat, rhs, **kwargs)
        assert info == 0
        assert np.array_equal(x.view(np.int64), ref.view(np.int64))


@pytest.mark.parametrize("entry", [None, np.nan, np.inf])
def test_singular_averaged_stencil_raises(entry):
    """``I/dt - nu L - I/dt`` has lambda(0) = 0; a NaN or infinite entry makes
    lambda non-finite."""
    grid = GridSpec(dim=2, n=8, nt=8, horizon=1.0)
    pattern = stencil_pattern(grid)
    data = np.array(implicit_heat_data(grid, 0.5))
    if entry is None:
        data[pattern.center] -= 1 / grid.dt
    else:
        data[pattern.center[3]] = entry
    mat = pattern.csc(data)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(LinearSolveFailed, match="singular"):
            linalg.sparse_solve(grid, mat, np.ones(grid.ncells))


def assert_structure(sol):
    grid = sol.grid
    assert sol.converged
    masses = grid.cell_volume * sol.m.sum(axis=(1, 2))
    assert np.abs(masses - masses[0]).max() <= 1e-10
    assert sol.m.min() >= -1e-12


class TestBreakdownReproducers:
    """2D solves on which Jacobi-preconditioned BiCGStab broke down (info -10)."""

    def test_reference_n64(self):
        grid = GridSpec(dim=2, n=64, nt=32, horizon=1.0)
        sol = solve_mfg(
            grid, REFERENCE, CouplingSpec(), FixedPointOptions(fp_tol=1e-8),
            m0=c09_bump(grid),
        )
        assert_structure(sol)

    def test_seeded_bump_n32(self):
        grid = GridSpec(dim=2, n=32, nt=32, horizon=1.0)
        m0 = c09_bump(grid)
        rng = np.random.default_rng([1, 0])
        for k in (2, 3):
            amplitude, phase = rng.uniform(0.0, 0.05, 2)
            wave = np.ones(grid.shape)
            for x in grid.coords():
                wave = wave * np.cos(2 * np.pi * k * x + phase)
            m0 = m0 + amplitude * wave
        sol = solve_mfg(
            grid, REFERENCE, CouplingSpec(), FixedPointOptions(fp_tol=1e-8), m0=m0
        )
        assert_structure(sol)
