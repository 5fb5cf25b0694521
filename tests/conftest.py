"""Shared fixtures: the reference congestion instance at desk scales."""

import numpy as np
import pytest
import scipy.sparse as sp

from congestion_mfg import (
    CouplingSpec,
    FixedPointOptions,
    GridSpec,
    ModelParams,
    solve_mfg,
)
from congestion_mfg.grid import StencilOperator, stencil_pattern


def reference_params(horizon=1.0):
    return ModelParams(nu=0.5, beta=2.0, alpha=1.0, mu=1.0, horizon=horizon)


def cosine_density(grid, amplitude=0.5):
    coords = grid.coords()
    wave = np.ones(grid.shape)
    for x in coords:
        wave = wave * np.cos(2.0 * np.pi * x)
    return 1.0 + amplitude * wave


def as_csr(op):
    """The scipy CSR matrix of a ``StencilOperator``: the oracle's copy, with
    each row's columns sorted as the operator stores them."""
    width, ncells = op.data.shape
    indptr = np.arange(0, width * ncells + 1, width)
    return sp.csr_matrix(
        (op.data.T.ravel(), op.pattern.cols.T.ravel(), indptr), shape=(ncells, ncells)
    )


def from_csr(grid, mat):
    """The ``StencilOperator`` of a scipy matrix whose entries lie on ``grid``'s
    stencil; an entry off it fails the test."""
    pattern = stencil_pattern(grid)
    coo = sp.coo_matrix(mat)
    hits = pattern.cols[:, coo.row] == coo.col
    assert hits.any(axis=0).all(), "entry off the stencil"
    data = np.zeros(pattern.cols.shape)
    np.add.at(data, (hits.argmax(axis=0), coo.row), coo.data)
    return StencilOperator(pattern, data)


def y_major_rows(path, n):
    """Rewrite a 2D field CSV with each frame's rows in y-major order (y slowest)."""
    header, *rows = path.read_text().splitlines(keepends=True)
    frames = np.array(rows, dtype=object).reshape(-1, n, n).transpose(0, 2, 1)
    path.write_text(header + "".join(frames.ravel()))


@pytest.fixture(scope="session")
def ref32():
    """Converged reference instance on the 32 x 32 space-time grid."""
    grid = GridSpec(dim=1, n=32, nt=32, horizon=1.0)
    sol = solve_mfg(
        grid,
        reference_params(),
        CouplingSpec(),
        FixedPointOptions(),
        m0=cosine_density(grid),
    )
    assert sol.converged
    return sol


@pytest.fixture(scope="session")
def ref64():
    """Converged reference instance on the 64 x 64 grid (regression fixture)."""
    grid = GridSpec(dim=1, n=64, nt=64, horizon=1.0)
    sol = solve_mfg(
        grid,
        reference_params(),
        CouplingSpec(),
        FixedPointOptions(),
        m0=cosine_density(grid),
    )
    assert sol.converged
    return sol
