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
from congestion_mfg.grid import StencilOperator, integrate, stencil_pattern
from congestion_mfg.model import congestion_lagrangian

# search box of the reference conjugate: half-width, grid points per axis,
# golden-section steps along the ray
CONJUGATE_RADIUS = 16.0
CONJUGATE_POINTS = 41
CONJUGATE_STEPS = 200


def reference_params(horizon=1.0):
    return ModelParams(nu=0.5, beta=2.0, alpha=1.0, mu=1.0, horizon=horizon)


def start_trajectory(grid, g):
    """A Picard start for ``solve_mfg(init_traj=...)``: the density ``g`` at
    unit mass on each of the grid's ``nt + 1`` levels."""
    return np.broadcast_to(g / integrate(grid, g), (grid.nt + 1, *grid.shape))


def cosine_density(grid, amplitude=0.5):
    coords = grid.coords()
    wave = np.ones(grid.shape)
    for x in coords:
        wave = wave * np.cos(2.0 * np.pi * x)
    return 1.0 + amplitude * wave


def as_csr(op):
    """The scipy CSR matrix of a ``StencilOperator``: the oracle's copy, each
    row's entries stored in the operator's slot order (cell, lower, upper
    neighbours), which is the order scipy's product sums them in."""
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


def reference_conjugate(m, p, params):
    """sup_w(-p.w - L(m, w)) of the package's ``congestion_lagrangian`` at
    one density ``m`` and gradient ``p``, located numerically: a full grid
    search over the box, sharpened by golden-section steps along the ray -p.
    A grid maximizer on the box edge fails the test."""
    p = np.atleast_1d(np.asarray(p, dtype=float))
    axis = np.linspace(-CONJUGATE_RADIUS, CONJUGATE_RADIUS, CONJUGATE_POINTS)
    grids = np.meshgrid(*([axis] * p.size), indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=-1)
    vals = -(pts @ p) - congestion_lagrangian(m, pts.T, params)
    best_idx = int(np.argmax(vals))
    best_pt, best_val = pts[best_idx], vals[best_idx]
    assert not np.any(np.abs(np.abs(best_pt) - CONJUGATE_RADIUS) < 1e-12), (
        f"conjugate maximizer on the edge of the box of radius {CONJUGATE_RADIUS}"
    )

    pnorm = float(np.linalg.norm(p))
    if pnorm > 0.0:
        # maximize s |p| - L(m, s) over s in [0, radius]
        lo, hi = 0.0, CONJUGATE_RADIUS
        invphi = (np.sqrt(5.0) - 1.0) / 2.0

        def ray(s):
            return s * pnorm - congestion_lagrangian(m, s, params)

        a, b = hi - invphi * (hi - lo), lo + invphi * (hi - lo)
        fa, fb = ray(a), ray(b)
        for _ in range(CONJUGATE_STEPS):
            if fa < fb:
                lo, a, fa = a, b, fb
                b = lo + invphi * (hi - lo)
                fb = ray(b)
            else:
                hi, b, fb = b, a, fa
                a = hi - invphi * (hi - lo)
                fa = ray(a)
        best_val = max(best_val, ray(0.5 * (lo + hi)))
    return best_val


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
