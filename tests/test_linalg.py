"""2D linear solves: the heat-operator preconditioner and the BiCGStab loop;
the 1D periodic tridiagonal LU, whose LAPACK module loads on the first
factorization."""

import inspect
import itertools
import json
import os
import re
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.sparse.linalg import LinearOperator
from scipy.sparse.linalg import bicgstab as scipy_bicgstab

import congestion_mfg
from congestion_mfg import (
    ContinuationSchedule,
    CouplingSpec,
    FixedPointOptions,
    GridSpec,
    ModelParams,
    fpk,
    hjb,
    linalg,
    solve_mfg,
    solve_with_continuation,
)
from congestion_mfg.errors import LinearSolveFailed
from congestion_mfg.fpk import solve_fpk_forward
from congestion_mfg.grid import StencilOperator, implicit_heat_data, stencil_pattern
from congestion_mfg.grid import upwind_parts
from congestion_mfg.hjb import solve_hjb_backward
from congestion_mfg.model import congestion_denominator

from conftest import as_csr

REFERENCE = ModelParams(nu=0.5, beta=2.0, alpha=1.0, mu=1.0, horizon=1.0)
# low viscosity: the transport is no longer small against the heat operator,
# so BiCGStab takes several iterations per solve
LOW_VISCOSITY = ModelParams(nu=0.02, beta=2.0, alpha=1.0, mu=1.0, horizon=1.0)


def c09_bump(grid):
    x, y = grid.coords()
    return 1.0 + 0.5 * np.cos(2 * np.pi * x) * np.cos(2 * np.pi * y)


def heat_system(grid, nu):
    return StencilOperator(stencil_pattern(grid), implicit_heat_data(grid, nu))


@pytest.mark.parametrize("n", [4, 5, 6, 32, 64])
def test_preconditioner_inverts_constant_stencils(n):
    """The heat inverse undoes ``I/dt - nu L``, on either side."""
    grid = GridSpec(dim=2, n=n, nt=8, horizon=1.0)
    x = np.random.default_rng(n).normal(size=grid.ncells)
    for nu in (0.001, 0.3, 2.0):
        mat, apply = heat_system(grid, nu), linalg.heat_inverse(grid, nu)
        scale = np.abs(x).max()
        assert np.abs(apply(mat.dot(x)) - x).max() <= 1e-12 * scale
        b = mat.dot(x)
        assert np.abs(mat.dot(apply(b)) - b).max() <= 1e-12 * np.abs(b).max()


@pytest.mark.parametrize("n", [4, 5, 6, 32, 64])
def test_fourier_basis_is_orthonormal(n):
    basis, freqs = linalg.fourier_basis(n)
    assert basis.shape == (n, n) and freqs.shape == (n,)
    assert np.abs(basis.T @ basis - np.eye(n)).max() <= 1e-14
    # each column is an eigenvector of the periodic second difference
    second = 2 * basis - np.roll(basis, 1, axis=0) - np.roll(basis, -1, axis=0)
    eigen = 4 * np.sin(np.pi * freqs / n) ** 2
    assert np.abs(second - basis * eigen).max() <= 1e-13


def test_symbol_real_part_at_least_one_over_dt():
    for n, nt in itertools.product((4, 5, 32), (2, 8, 1000)):
        grid = GridSpec(dim=2, n=n, nt=nt, horizon=1.0)
        for nu in (0.0, 1e-3, 0.5, 1e3):
            symbol = linalg.heat_symbol(grid, nu)
            assert symbol.dtype == np.float64
            assert symbol.shape == (n, n)
            assert symbol.min() >= 1 / grid.dt
            assert symbol[0, 0] == 1 / grid.dt


def test_heat_inverse_cached_per_grid_and_nu():
    grid = GridSpec(dim=2, n=8, nt=8, horizon=1.0)
    apply = linalg.heat_inverse(grid, 0.5)
    assert linalg.heat_inverse(grid, 0.5) is apply
    assert linalg.heat_inverse(GridSpec(dim=2, n=8, nt=8, horizon=1.0), 0.5) is apply
    assert linalg.heat_inverse(grid, 0.25) is not apply


@pytest.fixture(scope="module")
def captured():
    """(grid, system, rhs, nu) of every solve in one 2D HJB + FPK sweep,
    at the reference and at a low viscosity."""
    grid = GridSpec(dim=2, n=32, nt=4, horizon=1.0)
    seen = []

    def recorder(grid, mat, rhs, nu):
        seen.append((grid, mat, rhs, nu))
        return linalg.sparse_solve(grid, mat, rhs, nu)

    m = np.broadcast_to(c09_bump(grid), (grid.nt + 1, *grid.shape)).copy()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hjb, "sparse_solve", recorder)
        mp.setattr(fpk, "sparse_solve", recorder)
        for params in (REFERENCE, LOW_VISCOSITY):
            start = len(seen)
            back = solve_hjb_backward(grid, m, params, CouplingSpec())
            n_hjb = len(seen)
            solve_fpk_forward(grid, back.transports, m[0], params)
            assert start < n_hjb < len(seen)
    return seen


def test_captured_systems_meet_tolerance(captured):
    for grid, mat, rhs, nu in captured:
        x = linalg.sparse_solve(grid, mat, rhs, nu)
        bound = linalg.LINEAR_TOL * (np.linalg.norm(rhs) + 1.0)
        assert np.linalg.norm(mat.dot(x) - rhs) <= bound


def test_captured_products_match_scipy(captured):
    """The HJB systems and the transposed Kolmogorov ones of a 2D sweep: each
    product is scipy's CSR product on the same entries, bit for bit."""
    rng = np.random.default_rng(7)
    kinds = set()
    for grid, mat, rhs, nu in captured:
        ref = as_csr(mat)
        for x in (rhs, rng.normal(size=grid.ncells), linalg.heat_inverse(grid, nu)(rhs)):
            assert np.array_equal(mat.dot(x).view(np.int64), ref.dot(x).view(np.int64))
        kinds.add(np.array_equal(mat.T.data, mat.data))
    assert kinds == {False}


def test_lean_operators_match_default_wrapping(captured, monkeypatch):
    """``linalg.bicgstab`` is scipy's BiCGStab without its operator wrapping:
    bitwise the same solution, info and callback count."""
    calls, loop = [], linalg.bicgstab

    def spy(A, b, **kwargs):
        calls.append(kwargs)
        return loop(A, b, **kwargs)

    monkeypatch.setattr(linalg, "bicgstab", spy)
    iterations = []
    for grid, mat, rhs, nu in captured:
        x = linalg.sparse_solve(grid, mat, rhs, nu)
        kwargs = dict(calls[-1])
        assert kwargs["M"] is linalg.heat_inverse(grid, nu)
        ours, scipys = [], []
        got, info = loop(mat, rhs, **kwargs, callback=ours.append)
        kwargs["M"] = LinearOperator((grid.ncells,) * 2, matvec=kwargs["M"])
        ref, ref_info = scipy_bicgstab(as_csr(mat), rhs, **kwargs, callback=scipys.append)
        assert info == ref_info == 0
        assert len(ours) == len(scipys)
        for a in (x, got):
            assert np.array_equal(a.view(np.int64), ref.view(np.int64))
        iterations.append(len(ours))
    # both regimes are covered: one-iteration solves and longer ones
    assert min(iterations) <= 1 and max(iterations) >= 4


@pytest.mark.parametrize("entry", [None, np.nan, np.inf])
def test_singular_averaged_stencil_raises(entry):
    """``I/dt - nu L - I/dt = -nu L`` is a singular constant stencil; a NaN or
    infinite entry makes the system non-finite.  Each raises at once, without
    a warning: the plain loop runs a NaN system to ``maxiter`` and warns on an
    infinite one."""
    grid = GridSpec(dim=2, n=8, nt=8, horizon=1.0)
    pattern = stencil_pattern(grid)
    data = np.array(implicit_heat_data(grid, 0.5))
    if entry is None:
        data[0] -= 1 / grid.dt
    else:
        data[0, 3] = entry
    mat = StencilOperator(pattern, data)
    rhs = np.ones(grid.ncells)
    steps = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(LinearSolveFailed):
            linalg.sparse_solve(grid, mat, rhs, 0.5)
        if entry is None:
            # ones is orthogonal to the range of -nu L, so no x solves it: the
            # loop breaks down, or stops on a recursive residual the true one
            # misses, or at an x too large for any system the steppers build,
            # whose computed residual is rounding alone; sparse_solve's
            # residual check catches the second, its solution bound the third
            x, info = linalg.bicgstab(mat, rhs, M=linalg.heat_inverse(grid, 0.5))
            resid = np.linalg.norm(rhs - mat.dot(x))
            bound = grid.dt * np.sqrt(grid.ncells) * np.linalg.norm(rhs)
            assert (
                info < 0 or resid > 1e-12 * (np.linalg.norm(rhs) + 1.0)
                or np.linalg.norm(x) > 1e6 * bound
            )
        else:
            with pytest.raises(LinearSolveFailed, match="non-finite"):
                linalg.bicgstab(mat, rhs, callback=steps.append)
    assert steps == []


@pytest.mark.parametrize("n", [8, 32])
def test_singular_system_raises(n):
    """``-nu L`` (the heat data less ``1/dt`` on the diagonal) is singular and
    ``1 + N(0, 1)`` is not in its range.  BiCGStab's recursive residual still
    reaches the tolerance on it: trusting that, the solve returned
    ``|x| ~ 1e16`` with a true residual of 600 at n = 8, and 1.7e17 at
    n = 32."""
    grid = GridSpec(dim=2, n=n, nt=8, horizon=1.0)
    pattern = stencil_pattern(grid)
    data = np.array(implicit_heat_data(grid, 0.5))
    data[0] -= 1 / grid.dt
    rhs = 1 + np.random.default_rng(0).normal(size=grid.ncells)
    with pytest.raises(LinearSolveFailed):
        linalg.sparse_solve(grid, StencilOperator(pattern, data), rhs, 0.5)


@pytest.mark.parametrize("entry", [None, np.nan, np.inf])
@pytest.mark.parametrize("n", [8, 32])
def test_singular_1d_system_raises(n, entry):
    """The 1D counterpart, with a NaN or infinite diagonal entry as well.
    scipy's sparse LU returned ``|x| ~ 5e14`` at n = 8 and 4e13 at n = 32 on
    ``-nu L``, raised a bare ``RuntimeError`` on the NaN and returned a
    finite ``x`` on the infinite entry."""
    grid = GridSpec(dim=1, n=n, nt=8, horizon=1.0)
    pattern = stencil_pattern(grid)
    data = np.array(implicit_heat_data(grid, 0.5))
    if entry is None:
        data[0] -= 1 / grid.dt
    else:
        data[0, 3] = entry
    rhs = 1 + np.random.default_rng(0).normal(size=grid.ncells)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(LinearSolveFailed):
            linalg.sparse_solve(grid, StencilOperator(pattern, data), rhs, 0.5)


def test_1d_system_off_the_pattern_or_zero_raises():
    grid = GridSpec(dim=1, n=8, nt=8, horizon=1.0)
    rhs = np.ones(grid.ncells)
    other = stencil_pattern(GridSpec(dim=1, n=9, nt=8, horizon=1.0))
    with pytest.raises(ValueError, match="stencil pattern"):
        linalg.sparse_solve(grid, StencilOperator(other, np.ones((3, 9))), rhs, 0.5)
    pattern = stencil_pattern(grid)
    zero = StencilOperator(pattern, np.zeros(pattern.cols.shape))
    with pytest.raises(LinearSolveFailed, match="dgtsv"):
        linalg.sparse_solve(grid, zero, rhs, 0.5)


def test_a_1d_factorization_solves_once():
    """LAPACK factors the bands in place in the first solve, so a second
    solve on them raises instead of returning a wrong solution."""
    grid = GridSpec(dim=1, n=8, nt=8, horizon=1.0)
    lu = linalg.splu(grid, heat_system(grid, 0.5))
    lu.solve(np.ones(grid.ncells))
    with pytest.raises(RuntimeError, match="earlier solve"):
        lu.solve(np.ones(grid.ncells))


@pytest.mark.parametrize("n", [4, 5, 16, 64, 256])
def test_1d_solves_match_superlu(n):
    """Each 1D system the steppers build is periodic tridiagonal and strictly
    diagonally dominant: the HJB ``I/dt - nu L + A`` by rows, the Kolmogorov
    ``I/dt - nu L + A^T`` by columns.  On seeded frames (the reference,
    ``mu = 0`` with empty cells, and transport-dominated at ``nu = 1e-3``)
    its solve agrees with scipy's general sparse LU to 1e-12 relative."""
    from scipy.sparse.linalg import splu as superlu

    grid = GridSpec(dim=1, n=n, nt=n, horizon=1.0)
    pattern = stencil_pattern(grid)
    rng = np.random.default_rng(n)
    singular = ModelParams(nu=0.3, beta=1.5, alpha=0.6, mu=0.0, horizon=1.0)
    for params in (REFERENCE, singular, replace(REFERENCE, nu=1e-3)):
        u, m = rng.normal(size=n), rng.random(n) + 0.1
        if params.mu == 0.0:
            m[::3] = 0.0
        congestion = congestion_denominator(m, params)
        jac = hjb.transport_jacobian(grid, upwind_parts(grid, u), congestion, params)
        if params.mu == 0.0:
            assert np.array_equal(np.isinf(congestion), m == 0.0)
        if params.nu < 0.01:
            assert np.abs(jac.data).max() > params.nu / grid.h**2
        heat = implicit_heat_data(grid, params.nu)
        system = StencilOperator(pattern, heat + jac.data)
        for mat in (system, system.T):
            rhs = rng.normal(size=n)
            assert linalg.splu(grid, mat).dominant
            x = linalg.sparse_solve(grid, mat, rhs, params.nu)
            ref = superlu(as_csr(mat).tocsc()).solve(rhs)
            assert np.abs(x - ref).max() <= 1e-12 * np.abs(ref).max()


class ReferencePeriodicLU:
    """The factorization as first written: both margin sets reduced at once,
    rows and columns alike, and the scalars as numpy 0-d values; ``dgttrf``
    factors ``T`` once and each solve is one ``dgttrs``."""

    def __init__(self, bands):
        from scipy.linalg.lapack import dgttrf, dgttrs

        diag, upper_corner, lower_corner = bands[0], bands[1, 0], bands[3, -1]
        size = np.abs(bands)
        margins = size[0] - size[1:3] - size[3:]
        self.dominant = margins.min(axis=1).max() > 0 and margins.max() < np.inf
        if not (self.dominant or np.isfinite(bands).all()):
            raise LinearSolveFailed("non-finite entry in the 1D system")
        gamma = -diag[0] if diag[0] else -1.0
        diag[0] -= gamma
        diag[-1] -= lower_corner * upper_corner / gamma
        self._dgttrs = dgttrs
        *self._factors, info = dgttrf(bands[4, :-1], diag, bands[3, :-1], 1, 1, 1)
        if info != 0:
            # dgtsv meets the zero pivot dgttrf meets, and is named for it
            raise LinearSolveFailed(f"dgtsv returned info={info}")
        w = np.zeros(len(diag))
        w[0], w[-1] = gamma, lower_corner
        z, _ = self._dgttrs(*self._factors, w, overwrite_b=1)
        self._ratio = float(upper_corner / gamma)
        denominator = 1.0 + z[0] + self._ratio * z[-1]
        if denominator == 0:
            raise LinearSolveFailed("singular periodic tridiagonal system")
        z /= denominator
        self._correction = z

    def solve(self, rhs):
        y, _ = self._dgttrs(*self._factors, rhs)
        y -= (y[0] + self._ratio * y[-1]) * self._correction
        return y


def periodic_rows(lower, diag, upper):
    """The ``(3, n)`` stencil data, in offset order, of the periodic
    tridiagonal with ``B[i,i-1] = lower[i]``, ``B[i,i] = diag[i]`` and
    ``B[i,i+1] = upper[i]``."""
    return np.stack([diag, lower, upper])


def five_bands(rows):
    """The reference's ``(5, n)`` bands ``B[i,i]``, ``B[i,i-1]``,
    ``B[i-1,i]``, ``B[i,i+1]`` and ``B[i+1,i]`` of the stencil data ``rows``."""
    diag, lower, upper = rows
    return np.stack([diag, lower, np.roll(upper, 1), upper, np.roll(lower, -1)])


def certificate_cases(n):
    """Named seeded stencil data: dominant by rows only, by columns only and by
    neither; non-finite entries on and off the diagonal; margins that
    overflow, exact ties, zero rows, signed zeros; and unrelated bands."""
    rng = np.random.default_rng(n)
    lower, upper = -rng.random(n) - 0.5, -rng.random(n) - 0.5
    lower[0] = -4.0  # B[0,n-1]: row 0 carries it, column n-1 cannot
    rows = lower + upper
    cols = np.roll(lower, -1) + np.roll(upper, 1)
    cases = {
        "rows": periodic_rows(lower, 0.25 - rows, upper),
        "columns": periodic_rows(np.roll(upper, 1), 0.25 - rows, np.roll(lower, -1)),
        "neither": periodic_rows(lower, 0.5 * (-rows - cols), upper),
        "tie": periodic_rows(-np.ones(n), np.full(n, 2.0), -np.ones(n)),
        # (1 - 0.7) - 0.3 > 0 while 1 - (0.7 + 0.3) == 0: the subtraction order
        # counts; row 0's larger margin keeps the matrix nonsingular
        "rounding_tie": periodic_rows(
            np.full(n, -0.7), np.ones(n), np.where(np.arange(n) == 0, -0.1, -0.3)
        ),
        "zero_row": periodic_rows(lower, 0.25 - rows, upper),
        "signed_zeros": periodic_rows(np.full(n, -0.0), np.full(n, 1.0), np.zeros(n)),
        "negative_zero_corner": periodic_rows(np.full(n, -0.0), np.full(n, -0.0), upper),
        "overflow": periodic_rows(np.full(n, -1.5e308), np.full(n, 1e308), np.full(n, -1.5e308)),
        "huge_dominant": periodic_rows(lower, np.full(n, 1.7e308), upper),
        "unrelated": rng.normal(size=(3, n)),
        "unrelated_heavy_diagonal": rng.normal(size=(3, n)) + [[2.0 * n], [0], [0]],
    }
    # row and column 0: B[0,0], B[0,n-1], B[0,1], then B[n-1,0] and B[1,0]
    cases["zero_row"][:, 0] = 0.0
    cases["zero_row"][2, -1] = cases["zero_row"][1, 1] = 0.0
    dominant = cases["rows"]
    for name, zero in (("zero_first_diagonal", 0.0), ("negative_zero_first_diagonal", -0.0)):
        cases[name] = dominant.copy()
        cases[name][0, 0] = zero  # the corner correction's gamma falls back to -1
    for entry in (np.nan, np.inf, -np.inf):
        for row, col, where in ((0, 2, "diagonal"), (1, 2, "lower"), (2, n - 1, "corner")):
            bands = dominant.copy()
            bands[row, col] = entry
            cases[f"{entry}_{where}"] = bands
        # an infinite diagonal entry beside an infinite neighbour: inf - inf
        bands = dominant.copy()
        bands[0, 1] = bands[1, 1] = entry
        cases[f"{entry}_diagonal_and_lower"] = bands
    return cases


def outcome(kind, bands, rhs):
    """``(dominant, solution bits)`` of a factorization and solve, or the
    error they raise, with numpy's floating-point warnings off for both."""
    with np.errstate(all="ignore"):
        try:
            lu = kind(bands.copy())
            return lu.dominant, lu.solve(rhs.copy()).view(np.int64).tolist()
        except LinearSolveFailed as exc:
            return str(exc)


@pytest.mark.parametrize("n", [4, 5, 16, 64])
def test_certificate_matches_the_reference_margins(n):
    """Rows first, then columns: on every case the dominance flag and the
    raise or solve are those of the formula that reduced both margin sets."""
    cases = certificate_cases(n)
    for name, by_rows_by_columns in [
        ("rows", [True, False]), ("columns", [False, True]), ("neither", [False, False])
    ]:
        size = np.abs(five_bands(cases[name]))
        margins = size[0] - size[1:3] - size[3:]
        assert list(margins.min(axis=1) > 0) == by_rows_by_columns
    rhs = np.random.default_rng(n + 1).normal(size=n)
    got = {}
    for name, rows in cases.items():
        got[name] = outcome(linalg.PeriodicTridiagonalLU, rows, rhs)
        assert got[name] == outcome(ReferencePeriodicLU, five_bands(rows), rhs), name
    assert got["rows"][0] and got["columns"][0] and not got["neither"][0]
    assert got["huge_dominant"][0] and got["rounding_tie"][0] and not got["overflow"][0]
    assert got["nan_lower"] == got["inf_diagonal"] == "non-finite entry in the 1D system"


def test_true_residual_is_checked(monkeypatch):
    """A loop that reports success with a wrong or NaN ``x`` is caught."""
    grid = GridSpec(dim=2, n=8, nt=8, horizon=1.0)
    mat, rhs = heat_system(grid, 0.5), np.ones(grid.ncells)
    for wrong in (np.zeros(grid.ncells), np.full(grid.ncells, np.nan)):
        monkeypatch.setattr(linalg, "bicgstab", lambda A, b, **kwargs: (wrong, 0))
        with pytest.raises(LinearSolveFailed, match="residual"):
            linalg.sparse_solve(grid, mat, rhs, 0.5)


def test_solution_above_the_inverse_bound_raises(monkeypatch):
    """A solution whose computed residual is 0 still raises when it exceeds
    ``dt sqrt(ncells) (|rhs| + atol)``, which bounds the solution of every
    system the steppers build: the rounding of ``mat x`` hid the residual."""

    class RoundsToRhs:
        """A system whose every product rounds to the right-hand side."""

        def dot(self, x):
            return rhs.copy()

    grid = GridSpec(dim=2, n=8, nt=8, horizon=1.0)
    rhs = np.ones(grid.ncells)
    bound = grid.dt * np.sqrt(grid.ncells) * (np.linalg.norm(rhs) + 1e-12 * 9.0)
    for scale in (0.99, 1.01):
        x = np.full(grid.ncells, scale * bound / np.sqrt(grid.ncells))
        monkeypatch.setattr(linalg, "bicgstab", lambda A, b, **kwargs: (x, 0))
        if scale < 1:
            assert linalg.sparse_solve(grid, RoundsToRhs(), rhs, 0.5) is x
        else:
            with pytest.raises(LinearSolveFailed, match="solution norm"):
                linalg.sparse_solve(grid, RoundsToRhs(), rhs, 0.5)


def test_a_missed_true_residual_gets_one_refinement_round(monkeypatch):
    """BiCGStab stops on its recursive residual; when the true one misses
    the tolerance, one more solve on the true residual corrects ``x``."""
    grid = GridSpec(dim=2, n=8, nt=8, horizon=1.0)
    mat = heat_system(grid, 0.5)
    rhs = np.random.default_rng(5).normal(size=grid.ncells)
    exact = linalg.sparse_solve(grid, mat, rhs, 0.5)
    calls, loop = [], linalg.bicgstab

    def drifting(A, b, **kwargs):
        x, info = loop(A, b, **kwargs)
        calls.append(b)
        # the first solve reports success off the true solution by 1e-9
        return (x + 1e-9 if len(calls) == 1 else x), info

    monkeypatch.setattr(linalg, "bicgstab", drifting)
    x = linalg.sparse_solve(grid, mat, rhs, 0.5)
    assert len(calls) == 2 and calls[0] is rhs
    assert np.linalg.norm(rhs - mat.dot(x)) <= 1e-12 * (np.linalg.norm(rhs) + 1.0)
    assert np.abs(x - exact).max() <= 1e-12
    # a solve that meets the tolerance takes one BiCGStab call
    calls.clear()
    calls.append(None)
    assert np.array_equal(linalg.sparse_solve(grid, mat, rhs, 0.5), exact)
    assert len(calls) == 2


C09_2D = dict(nu=0.5, beta=1.5, alpha=0.6, mu=1.0, horizon=1.0, epsilon=0.05)


@pytest.mark.parametrize("beta,alpha,budget", [(1.5, 0.6, 400), (1.25, 0.3, 150)])
def test_2d_c09_solve_survives_rounding_of_the_true_residual(beta, alpha, budget):
    """c09's rung 0 at 2D n = nt = 8 raised ``LinearSolveFailed('linear solve
    residual 6.503e-11 above 6.500e-11')`` in the FPK step of outer iteration
    36, and at beta = 1.25, alpha = 0.3 with ``5.018e-12 above 5.017e-12`` in
    the HJB sweep of iteration 141: BiCGStab's recursive residual met the
    tolerance and the true one missed it by rounding."""
    grid = GridSpec(dim=2, n=8, nt=8, horizon=1.0)
    params = ModelParams(**{**C09_2D, "beta": beta, "alpha": alpha})
    sol = solve_mfg(
        grid, params, CouplingSpec(cf=0.5, cg=0.5),
        FixedPointOptions(fp_tol=1e-6, max_outer_iter=budget), m0=c09_bump(grid),
    )
    if beta == 1.5:
        assert_structure(sol)
    else:
        assert sol.meta["outer_iters"] == budget


@pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf])
def test_non_finite_right_hand_side_raises(entry):
    """A NaN or infinite entry of ``rhs``, first, interior or last, raises
    :class:`LinearSolveFailed` without a warning in either dimension.  The
    1D LU returned an all-NaN ``x`` on the heat system; on a diagonal system
    a NaN stays in its own entry of ``x``."""
    for dim, system in ((1, "heat"), (1, "diagonal"), (2, "heat")):
        grid = GridSpec(dim=dim, n=8, nt=8, horizon=1.0)
        mat = heat_system(grid, 0.5)
        if system == "diagonal":
            data = np.zeros(mat.data.shape)
            data[0] = 1 / grid.dt
            mat = StencilOperator(stencil_pattern(grid), data)
        for where in (0, 5, grid.ncells - 1):
            rhs = np.ones(grid.ncells)
            rhs[where] = entry
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(LinearSolveFailed, match="non-finite"):
                    linalg.sparse_solve(grid, mat, rhs, 0.5)


def test_loop_defaults_follow_scipy():
    """No preconditioner, default tolerances and ``maxiter``: still scipy's
    iterates; a zero right-hand side returns itself."""
    grid = GridSpec(dim=2, n=8, nt=8, horizon=1.0)
    mat = heat_system(grid, 0.5)
    b = np.random.default_rng(3).normal(size=grid.ncells)
    got, info = linalg.bicgstab(mat, b)
    ref, ref_info = scipy_bicgstab(as_csr(mat), b)
    assert info == ref_info == 0
    assert np.array_equal(got.view(np.int64), ref.view(np.int64))
    zero = np.zeros(grid.ncells)
    x, info = linalg.bicgstab(mat, zero)
    assert x is zero and info == 0


def fft_heat_inverse(grid, nu):
    """The FFT apply of the heat inverse that the real Fourier basis
    replaced: the same symbol on the ``rfftn`` half spectrum."""
    half = (grid.n, grid.n // 2 + 1)
    squares = np.sin((np.pi / grid.n) * np.indices(half)) ** 2
    symbol = 1 / grid.dt + (4 * nu / grid.h**2) * squares.sum(axis=0)

    def apply(r):
        spectrum = np.fft.rfftn(r.reshape(grid.shape), axes=(0, 1)) / symbol
        return np.fft.irfftn(spectrum, s=grid.shape, axes=(0, 1)).ravel()

    return apply


def test_fft_preconditioner_gives_the_same_solve(monkeypatch):
    """The 2D n = 32 reference solve, preconditioned by the basis apply and by
    the FFT apply: the same outer iterations and the same solution."""
    grid = GridSpec(dim=2, n=32, nt=32, horizon=1.0)

    def solve():
        return solve_mfg(
            grid, REFERENCE, CouplingSpec(), FixedPointOptions(fp_tol=1e-8),
            m0=c09_bump(grid),
        )

    ours = solve()
    monkeypatch.setattr(linalg, "heat_inverse", fft_heat_inverse)
    ref = solve()
    assert ours.meta["outer_iters"] == ref.meta["outer_iters"] == 8
    assert np.abs(ours.u - ref.u).max() <= 1e-10
    assert np.abs(ours.m - ref.m).max() <= 1e-10


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


def test_c09_ladder_2d_converges_in_budget():
    """The c09 (eps, mu) ladder of the 1D benchmark, on the 2D n = nt = 16 grid.

    The tail of each rung is chaotic under perturbations at the linear
    solver's tolerance, so a change of the 2D solve moves its outer-iteration
    counts; every rung must still converge within the ladder's budget."""
    grid = GridSpec(dim=2, n=16, nt=16, horizon=1.0)
    result = solve_with_continuation(
        grid,
        ModelParams(nu=0.5, beta=1.5, alpha=0.6, mu=1.0, horizon=1.0),
        CouplingSpec(cf=0.5, cg=0.5),
        FixedPointOptions(fp_tol=1e-6, max_outer_iter=400),
        ContinuationSchedule(
            epsilons=(0.05,), mus=(1.0, 0.5, 0.25, 0.1, 0.05), warm_start=True
        ),
        m0=c09_bump(grid),
    )
    assert result.ok and len(result.solutions) == 5
    for sol in result.solutions:
        assert sol.meta["outer_iters"] <= 400
        assert_structure(sol)


# Run in a fresh interpreter: the test process has scipy's solvers loaded.
IMPORT_TRAFFIC = """
import json, os, sys
import numpy as np
from congestion_mfg import CouplingSpec, GridSpec, ModelParams, apriori_report
from congestion_mfg import fpk, hjb, linalg, load_solution, save_solution, solve_mfg
from congestion_mfg.cli import main

WATCHED = {"scipy.linalg", "scipy.sparse", "scipy.sparse.linalg", "numpy.f2py", "scipy._lib._util"}
loaded = lambda: sorted(WATCHED & set(sys.modules))
out, tmp = {"import": loaded()}, sys.argv[1]
params = ModelParams(nu=0.5, beta=2.0, alpha=1.0, mu=1.0, horizon=1.0)
grid = GridSpec(dim=2, n=8, nt=8, horizon=1.0)
x, y = grid.coords()
m0 = 1.0 + 0.5 * np.cos(2 * np.pi * x) * np.cos(2 * np.pi * y)
sol = solve_mfg(grid, params, CouplingSpec(), m0=m0)
out["solve_2d"] = loaded()
bundle = os.path.join(tmp, "bundle2d")
save_solution(sol, bundle)
apriori_report(load_solution(bundle))
out["bundle_2d"] = loaded()
config = os.path.join(tmp, "small.cfg")
with open(config, "w") as fh:
    fh.write("n = 8\\nnt = 8\\n")
out["check"] = [main(["check", config]), loaded()]
out["diagnose"] = [main(["diagnose", bundle]), loaded()]

counts = {"splu": 0, "solves": 0}
def counting(module, name, key):
    original = getattr(module, name)
    def counted(*args, **kwargs):
        counts[key] += 1
        return original(*args, **kwargs)
    setattr(module, name, counted)
    return counted
wrapper = counting(linalg, "splu", "splu")
counting(hjb, "sparse_solve", "solves")
counting(fpk, "sparse_solve", "solves")
solve_mfg(GridSpec(dim=1, n=8, nt=8, horizon=1.0), params, CouplingSpec())
out.update(counts, solve_1d=loaded(), wrapper_kept=linalg.splu is wrapper)
info = linalg._lapack.cache_info()
out["lapack_loads"] = [info.currsize, info.misses]
print(json.dumps(out))
"""


def run_fresh(script, *args):
    """The last stdout line, as JSON, of ``script`` run in a fresh
    interpreter that imports this package from its source."""
    src = str(Path(congestion_mfg.__file__).resolve().parents[1])
    paths = [src, os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    proc = subprocess.run(
        [sys.executable, "-c", script, *args],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_a_1d_solve_loads_lapack_once_and_no_scipy_package(tmp_path):
    out = run_fresh(IMPORT_TRAFFIC, str(tmp_path))
    # none of scipy.sparse, scipy.linalg or the f2py and array-API layers the
    # scipy.linalg package brings; the CLI commands exit 0
    assert [out[key] for key in ("import", "solve_2d", "bundle_2d")] == [[]] * 3
    assert out["check"] == out["diagnose"] == [0, []]
    # one factorization per 1D linear solve, through the traceable name; the
    # 1D solve loads LAPACK's extension once, and no scipy package
    assert out["solve_1d"] == [] and out["wrapper_kept"]
    assert out["lapack_loads"] == [1, 1]
    assert out["splu"] == out["solves"] > 0


def dgtsv_bits(dgtsv):
    """Every output of ``dgtsv``, the arrays as int64 bits, on a seeded
    system that pivots (small diagonal) and on a dominant one that does not,
    and whether each pivoted (a nonzero second superdiagonal of ``U``)."""
    rng = np.random.default_rng(24)
    (dl, du), b = rng.uniform(-1.0, -0.5, (2, 6)), rng.normal(size=(7, 2))
    outs, pivoted = [], []
    for diag in (0.1, 4.0):
        du2, *rest, info = dgtsv(dl, diag + rng.uniform(0, 0.1, 7), du, b)
        outs.append([a.view(np.int64).ravel().tolist() for a in (du2, *rest)] + [info])
        pivoted.append(bool(du2[:-1].any()))
    return outs, pivoted


# Run in a fresh interpreter: a 1D solve loads LAPACK before scipy.linalg is
# imported; dgtsv_bits is prepended to it.
LAPACK_BEFORE_SCIPY = """
import json, sys
import numpy as np
from congestion_mfg import CouplingSpec, GridSpec, ModelParams, linalg, solve_mfg

params = ModelParams(nu=0.5, beta=2.0, alpha=1.0, mu=1.0, horizon=1.0)
solve_mfg(GridSpec(dim=1, n=8, nt=8, horizon=1.0), params, CouplingSpec())
out = {"before": "scipy.linalg" in sys.modules}
import scipy.linalg

ours, pivoted = dgtsv_bits(linalg._lapack())
x = scipy.linalg.solve(np.array([[2.0, 1.0], [1.0, 3.0]]), np.array([3.0, 4.0]))
out.update(
    same_bits=ours == dgtsv_bits(scipy.linalg.lapack.dgtsv)[0],
    pivoted=pivoted,
    solve=x.tolist(),
)
print(json.dumps(out))
"""


def test_lapack_loaded_before_scipy_linalg_is_scipys():
    """The loaded ``dgtsv`` is scipy's when a 1D solve loads it before
    ``scipy.linalg`` is imported, and that import still works."""
    out = run_fresh(inspect.getsource(dgtsv_bits) + LAPACK_BEFORE_SCIPY)
    assert out["before"] is False and out["same_bits"] is True
    assert out["pivoted"] == [True, False]
    assert np.allclose(out["solve"], [1.0, 1.0], rtol=0, atol=1e-15)


def test_lapack_loaded_after_scipy_linalg_is_scipys():
    """In a process that has imported ``scipy.linalg`` the loader hands back
    scipy's own ``dgtsv`` and leaves scipy's module in place."""
    import scipy.linalg

    flapack = sys.modules["scipy.linalg._flapack"]
    linalg._lapack.cache_clear()
    ours, pivoted = dgtsv_bits(linalg._lapack())
    assert pivoted == [True, False]
    assert ours == dgtsv_bits(scipy.linalg.lapack.dgtsv)[0]
    assert sys.modules["scipy.linalg._flapack"] is scipy.linalg._flapack is flapack


def test_missing_lapack_extension_is_named(tmp_path, monkeypatch):
    """Without scipy, or without its LAPACK extension file, the first 1D
    solve raises ImportError, naming the file it looked for."""
    from importlib.machinery import ModuleSpec

    fake = ModuleSpec("scipy", None, is_package=True)
    fake.submodule_search_locations = [str(tmp_path)]
    grid = GridSpec(dim=1, n=8, nt=8, horizon=1.0)
    try:
        for spec, match in ((None, "scipy is not installed"), (fake, re.escape(str(tmp_path / "linalg")))):
            monkeypatch.setattr("importlib.util.find_spec", lambda name: spec)
            linalg._lapack.cache_clear()
            with pytest.raises(ImportError, match=match):
                linalg.sparse_solve(grid, heat_system(grid, 0.5), np.ones(8), 0.5)
    finally:
        monkeypatch.undo()
        linalg._lapack.cache_clear()
