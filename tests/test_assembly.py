"""Fixed-pattern assembly: the systems match the sparse-sum construction exactly,
and the stencil operator matches scipy's CSR matrix as an oracle."""

import re
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp

from congestion_mfg import fpk, grid as grid_mod, hjb, linalg
from congestion_mfg.coupler import FixedPointOptions, solve_mfg
from congestion_mfg.fpk import fpk_step
from congestion_mfg.grid import (
    GridSpec,
    StencilOperator,
    gaussian_smooth,
    implicit_heat_data,
    stencil_pattern,
    upwind_parts,
)
from congestion_mfg.hjb import hjb_step, transport_jacobian
from congestion_mfg.model import CouplingSpec, ModelParams, congestion_denominator

from conftest import as_csr, from_csr

GRIDS = [(1, 4), (1, 64), (2, 4), (2, 8)]
REGULAR = ModelParams(nu=0.5, beta=2.0, alpha=1.0, mu=1.0, horizon=1.0)
# mu = 0 with empty cells: their infinite congestion factor zeroes those rows of A
SINGULAR = ModelParams(nu=0.3, beta=1.5, alpha=0.6, mu=0.0, horizon=1.0)


def coo_laplacian(grid):
    """The Laplacian assembled from COO triplets, the reference construction."""
    idx = np.arange(grid.ncells).reshape(grid.shape)
    rows, cols, vals = [], [], []
    for ax in range(grid.dim):
        for shift in (-1, 1):
            rows.append(idx.ravel())
            cols.append(np.roll(idx, shift, axis=ax).ravel())
            vals.append(np.full(grid.ncells, 1.0))
    rows.append(idx.ravel())
    cols.append(idx.ravel())
    vals.append(np.full(grid.ncells, -2.0 * grid.dim))
    mat = sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(grid.ncells, grid.ncells),
    )
    return (mat / grid.h**2).tocsr()


def sparse_sum_system(grid, params, adv):
    identity = sp.identity(grid.ncells, format="csr")
    return identity / grid.dt - params.nu * coo_laplacian(grid) + adv


class _Captured(Exception):
    pass


def first_system(monkeypatch, module, call):
    """The matrix ``call`` hands to ``module.sparse_solve`` first."""
    seen = []

    def capture(grid, mat, rhs, nu, tol=1e-12):
        seen.append(mat)
        raise _Captured

    monkeypatch.setattr(module, "sparse_solve", capture)
    with pytest.raises(_Captured):
        call()
    return seen[0]


def frame(grid, params, seed):
    rng = np.random.default_rng(seed)
    u = rng.normal(size=grid.shape)
    m = np.abs(rng.random(grid.shape)) + 0.1
    if params.mu == 0.0:
        m.ravel()[::3] = 0.0
    return u, m


def assert_same(a, b):
    a, b = (as_csr(x) if isinstance(x, StencilOperator) else x for x in (a, b))
    assert a.shape == b.shape
    assert np.array_equal(a.toarray(), b.toarray())


@pytest.mark.parametrize("dim,n", GRIDS)
def test_laplacian_unchanged(dim, n):
    grid = GridSpec(dim=dim, n=n, nt=4, horizon=1.0)
    pattern = stencil_pattern(grid)
    lap, ref = StencilOperator(pattern, pattern.laplacian), coo_laplacian(grid)
    assert lap.nnz == ref.nnz
    assert_same(lap, ref)


@pytest.mark.parametrize("params", [REGULAR, SINGULAR], ids=["mu1", "mu0"])
@pytest.mark.parametrize("dim,n", GRIDS)
def test_hjb_system_equals_sparse_sum(monkeypatch, dim, n, params):
    grid = GridSpec(dim=dim, n=n, nt=4, horizon=1.0)
    u_next, m = frame(grid, params, seed=n)
    system = first_system(
        monkeypatch,
        hjb,
        lambda: hjb_step(grid, u_next, m, params, CouplingSpec().f(m)),
    )
    jac = as_csr(
        transport_jacobian(
            grid, upwind_parts(grid, u_next), congestion_denominator(m, params), params
        )
    )
    if params.mu == 0.0:
        assert np.abs(jac.toarray()[m.ravel() == 0.0]).max() == 0.0
    assert isinstance(system, StencilOperator)
    assert_same(system, sparse_sum_system(grid, params, jac))


@pytest.mark.parametrize("params", [REGULAR, SINGULAR], ids=["mu1", "mu0"])
@pytest.mark.parametrize("dim,n", GRIDS)
def test_fpk_system_equals_sparse_sum(monkeypatch, dim, n, params):
    grid = GridSpec(dim=dim, n=n, nt=4, horizon=1.0)
    u, m = frame(grid, params, seed=n + 1)
    m_prev = np.ones(grid.shape)
    for mat in (
        transport_jacobian(
            grid, upwind_parts(grid, u), congestion_denominator(m, params), params
        ),
        from_csr(grid, sp.csr_matrix((grid.ncells, grid.ncells))),
        from_csr(grid, sp.identity(grid.ncells, format="csr") * -40.0),
    ):
        system = first_system(
            monkeypatch,
            fpk,
            lambda: fpk_step(grid, m_prev, mat, params),
        )
        assert isinstance(system, StencilOperator)
        assert_same(system, sparse_sum_system(grid, params, as_csr(mat).T.tocsr()))


@pytest.mark.parametrize(
    "dim,entry",
    [(1, (0, 2)), (2, (0, 9))],
    ids=["1d-second-neighbour", "2d-diagonal-neighbour"],
)
def test_off_stencil_transport_raises(dim, entry):
    """A transport is stencil data: a scipy matrix, here one with an entry
    off the stencil, is rejected rather than scattered or dropped."""
    grid = GridSpec(dim=dim, n=8, nt=4, horizon=1.0)
    mat = sp.csr_matrix(([-1.0], ([entry[0]], [entry[1]])), shape=(grid.ncells,) * 2)
    with pytest.raises(ValueError, match="expected transport data of shape"):
        fpk_step(grid, np.ones(grid.shape), mat, REGULAR)


def test_wrong_size_transport_raises():
    grid = GridSpec(dim=1, n=8, nt=4, horizon=1.0)
    other = stencil_pattern(GridSpec(dim=1, n=9, nt=4, horizon=1.0))
    bad = StencilOperator(other, np.ones(other.cols.shape))
    with pytest.raises(ValueError, match=re.escape("data of shape (3, 8), got (3, 9)")):
        fpk_step(grid, np.ones(grid.shape), bad, REGULAR)


ORACLE_GRIDS = [(dim, n) for dim in (1, 2) for n in (4, 6, 12, 32, 64)]


def extreme_data(rng, shape):
    """Signed values with magnitudes from 1e-8 to 1e4, and some exact zeros."""
    data = rng.normal(size=shape) * 10.0 ** rng.uniform(-8.0, 4.0, size=shape)
    data[rng.random(shape) < 0.1] = 0.0
    return data


@pytest.mark.parametrize("dim,n", ORACLE_GRIDS)
def test_operator_matches_scipy_csr(dim, n):
    """The operator against scipy's validated CSR on the same entries: its
    product bit for bit, its transpose and its entry count."""
    grid = GridSpec(dim=dim, n=n, nt=4, horizon=1.0)
    pattern = stencil_pattern(grid)
    rng = np.random.default_rng([dim, n])
    for _ in range(5):
        op = StencilOperator(pattern, extreme_data(rng, pattern.cols.shape))
        ref = as_csr(op)
        ref.check_format(full_check=True)
        assert op.nnz == ref.nnz
        x = extreme_data(rng, grid.ncells)
        assert np.array_equal(op.dot(x).view(np.int64), ref.dot(x).view(np.int64))
        assert_same(op.T, ref.T)
        assert np.array_equal(op.T.T.data, op.data)


@pytest.mark.parametrize("n", [4, 6, 12, 32, 64])
def test_1d_bands_match_scipy(monkeypatch, n):
    """``splu`` hands the LU a copy of ``B[i,i]``, ``B[i,i-1]`` and
    ``B[i,i+1]`` (indices mod n), the operator's data, which the LU
    overwrites."""
    grid = GridSpec(dim=1, n=n, nt=4, horizon=1.0)
    pattern = stencil_pattern(grid)
    rng = np.random.default_rng(n)
    monkeypatch.setattr(linalg, "PeriodicTridiagonalLU", lambda bands: bands)
    for _ in range(2):
        op = StencilOperator(pattern, extreme_data(rng, pattern.cols.shape))
        for mat in (op, op.T):
            dense, i = as_csr(mat).toarray(), np.arange(n)
            up, down = (i + 1) % n, (i - 1) % n
            bands = np.stack([dense[i, i], dense[i, down], dense[i, up]])
            got = linalg.splu(grid, mat)
            assert np.array_equal(got.view(np.int64), bands.view(np.int64))
            assert not np.shares_memory(got, mat.data)


def test_shell_matrices_share_no_data():
    """Two operators share no data, and a transpose is a copy."""
    grid = GridSpec(dim=1, n=8, nt=4, horizon=1.0)
    pattern = stencil_pattern(grid)
    ones, twos = np.ones(pattern.cols.shape), np.full(pattern.cols.shape, 2.0)
    a, b = StencilOperator(pattern, ones), StencilOperator(pattern, twos)
    for other in (b, b.T):
        assert not np.shares_memory(a.data, other.data)
    a.data[0, 0] = 5.0
    assert b.data[0, 0] == 2.0 and b.T.data[0, 0] == 2.0


def test_shell_rejects_wrong_data_length():
    pattern = stencil_pattern(GridSpec(dim=1, n=8, nt=4, horizon=1.0))
    for shape in ((3, 7), (24,), (8, 3)):
        with pytest.raises(ValueError, match="stencil data of shape"):
            StencilOperator(pattern, np.ones(shape))


@pytest.mark.parametrize("dim,n", GRIDS)
def test_shared_structure_is_read_only(dim, n):
    """Every operator shares its pattern's arrays, so writing one raises
    instead of corrupting the pattern for all."""
    grid = GridSpec(dim=dim, n=n, nt=4, horizon=1.0)
    pattern = stencil_pattern(grid)
    op = StencilOperator(pattern, np.ones(pattern.cols.shape))
    shared = (pattern.cols, pattern.transpose, pattern.laplacian)
    for arr in (*shared, implicit_heat_data(grid, 0.5)):
        with pytest.raises(ValueError, match="read-only"):
            arr.flat[0] = arr.flat[1]
    assert op.pattern is stencil_pattern(grid) and op.T.pattern is pattern


def test_cached_heat_data_and_spectrum_are_read_only():
    grid = GridSpec(dim=1, n=16, nt=8, horizon=1.0)
    params = ModelParams(nu=0.5, beta=1.5, alpha=0.6, mu=0.5, horizon=1.0)
    heat = implicit_heat_data(grid, params.nu)
    gaussian_smooth(grid, np.ones(grid.shape), 0.05)
    spectrum = grid_mod._kernel_spectrum(grid.n, grid.h, 0.05)
    before = heat.copy(), spectrum.copy()
    for arr in (heat, spectrum):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0.0
    m0 = 1.0 + 0.5 * np.cos(2 * np.pi * grid.axis_centers())
    sol = solve_mfg(
        grid, replace(params, epsilon=0.05), CouplingSpec(),
        FixedPointOptions(fp_tol=1e-6), m0=m0,
    )
    assert sol.converged
    assert implicit_heat_data(grid, params.nu) is heat
    assert grid_mod._kernel_spectrum(grid.n, grid.h, 0.05) is spectrum
    assert np.array_equal(heat, before[0]) and np.array_equal(spectrum, before[1])
