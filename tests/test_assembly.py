"""Fixed-pattern assembly: the systems match the sparse-sum construction exactly."""

import numpy as np
import pytest
import scipy.sparse as sp

from congestion_mfg import fpk, grid as grid_mod, hjb
from congestion_mfg.coupler import FixedPointOptions, solve_mfg
from congestion_mfg.fpk import fpk_step
from congestion_mfg.grid import (
    GridSpec,
    gaussian_smooth,
    implicit_heat_data,
    laplacian_matrix,
    stencil_data,
    stencil_pattern,
)
from congestion_mfg.hjb import HJBOptions, UpwindTransport, hjb_step, transport_jacobian
from congestion_mfg.model import CouplingSpec, ModelParams

GRIDS = [(1, 4), (1, 64), (2, 4), (2, 8)]
REGULAR = ModelParams(nu=0.5, beta=2.0, alpha=1.0, mu=1.0, horizon=1.0)
# mu = 0 with empty cells: the active mask zeroes those rows of A
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

    def capture(grid, mat, rhs, tol=1e-12):
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
    assert a.shape == b.shape
    assert np.array_equal(a.toarray(), b.toarray())


@pytest.mark.parametrize("dim,n", GRIDS)
def test_laplacian_unchanged(dim, n):
    grid = GridSpec(dim=dim, n=n, nt=4, horizon=1.0)
    lap, ref = laplacian_matrix(grid), coo_laplacian(grid)
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
        lambda: hjb_step(grid, u_next, m, 0.0, params, CouplingSpec(), HJBOptions()),
    )
    jac = transport_jacobian(grid, u_next, m, params, 0.0)
    if params.mu == 0.0:
        assert np.abs(jac.toarray()[m.ravel() == 0.0]).max() == 0.0
    assert system.format == "csc"
    assert_same(system, sparse_sum_system(grid, params, jac))


@pytest.mark.parametrize("params", [REGULAR, SINGULAR], ids=["mu1", "mu0"])
@pytest.mark.parametrize("dim,n", GRIDS)
def test_fpk_system_equals_sparse_sum(monkeypatch, dim, n, params):
    grid = GridSpec(dim=dim, n=n, nt=4, horizon=1.0)
    u, m = frame(grid, params, seed=n + 1)
    drift = np.zeros((grid.dim, *grid.shape))
    m_prev = np.ones(grid.shape)
    for mat in (
        transport_jacobian(grid, u, m, params, 0.0),
        sp.csr_matrix((grid.ncells, grid.ncells)),
        sp.identity(grid.ncells, format="csr") * -40.0,
    ):
        system = first_system(
            monkeypatch,
            fpk,
            lambda: fpk_step(grid, m_prev, UpwindTransport(mat, drift), params),
        )
        assert system.format == "csc"
        assert_same(system, sparse_sum_system(grid, params, mat.T.tocsr()))


@pytest.mark.parametrize(
    "dim,entry",
    [(1, (0, 2)), (2, (0, 9))],
    ids=["1d-second-neighbour", "2d-diagonal-neighbour"],
)
def test_off_stencil_transport_raises(dim, entry):
    grid = GridSpec(dim=dim, n=8, nt=4, horizon=1.0)
    mat = sp.csr_matrix(([-1.0], ([entry[0]], [entry[1]])), shape=(grid.ncells,) * 2)
    bad = UpwindTransport(matrix=mat, drift=np.zeros((dim, *grid.shape)))
    with pytest.raises(ValueError, match="off the grid's stencil"):
        fpk_step(grid, np.ones(grid.shape), bad, REGULAR)


def test_wrong_size_transport_raises():
    grid = GridSpec(dim=1, n=8, nt=4, horizon=1.0)
    bad = UpwindTransport(
        matrix=sp.identity(grid.ncells + 1, format="csr"), drift=np.zeros((1, grid.n))
    )
    with pytest.raises(ValueError, match="expected a 8x8 matrix"):
        fpk_step(grid, np.ones(grid.shape), bad, REGULAR)


def validated(kind, pattern, data):
    """The matrix scipy's checking constructor builds on the pattern's arrays."""
    n = len(pattern.indptr) - 1
    return kind((data, pattern.indices.copy(), pattern.indptr.copy()), shape=(n, n))


@pytest.mark.parametrize("dim,n", GRIDS)
def test_shells_equal_validated_construction(dim, n):
    grid = GridSpec(dim=dim, n=n, nt=4, horizon=1.0)
    pattern = stencil_pattern(grid)
    data = np.random.default_rng(n).normal(size=len(pattern.indices))
    for build, kind in ((pattern.csr, sp.csr_matrix), (pattern.csc, sp.csc_matrix)):
        got, ref = build(data), validated(kind, pattern, data)
        assert type(got) is type(ref) and got.format == ref.format
        assert got.shape == ref.shape and got.dtype == ref.dtype
        assert np.array_equal(got.indices, ref.indices)
        assert np.array_equal(got.indptr, ref.indptr)
        assert got.data is data
        assert_same(got, ref)
    # the identity fast path of the off-stencil guard still recognises them
    assert stencil_data(grid, pattern.csr(data)) is data


def test_shell_matrices_share_no_data():
    grid = GridSpec(dim=1, n=8, nt=4, horizon=1.0)
    pattern = stencil_pattern(grid)
    ones, twos = np.ones(len(pattern.indices)), np.full(len(pattern.indices), 2.0)
    for build in (pattern.csr, pattern.csc):
        a, b = build(ones), build(twos)
        assert not np.shares_memory(a.data, b.data)
        a.data[0] = 5.0
        assert b.data[0] == 2.0 and build(twos).data[0] == 2.0


@pytest.mark.parametrize(
    "mutate",
    [
        lambda mat: mat.indices.__setitem__(0, 1),
        lambda mat: mat.indptr.__setitem__(1, 0),
        lambda mat: mat.eliminate_zeros(),
    ],
    ids=["indices", "indptr", "eliminate_zeros"],
)
@pytest.mark.parametrize("fmt", ["csr", "csc"])
def test_shell_structure_is_read_only(fmt, mutate):
    grid = GridSpec(dim=2, n=4, nt=4, horizon=1.0)
    pattern = stencil_pattern(grid)
    build = getattr(pattern, fmt)
    data = np.arange(len(pattern.indices), dtype=float)  # slot 0 holds a zero
    with pytest.raises(ValueError):
        mutate(build(data.copy()))
    kind = sp.csr_matrix if fmt == "csr" else sp.csc_matrix
    fresh = build(data.copy())
    assert fresh.nnz == len(pattern.indices)
    assert_same(fresh, validated(kind, pattern, data))


def test_shell_rejects_wrong_data_length():
    pattern = stencil_pattern(GridSpec(dim=1, n=8, nt=4, horizon=1.0))
    with pytest.raises(ValueError, match="stencil entries"):
        pattern.csr(np.ones(len(pattern.indices) - 1))


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
        grid, params, CouplingSpec(), FixedPointOptions(fp_tol=1e-6), eps=0.05, m0=m0
    )
    assert sol.converged
    assert implicit_heat_data(grid, params.nu) is heat
    assert grid_mod._kernel_spectrum(grid.n, grid.h, 0.05) is spectrum
    assert np.array_equal(heat, before[0]) and np.array_equal(spectrum, before[1])
