"""Forward Kolmogorov stepper, the exact discrete adjoint of the HJB transport.

Each implicit Euler step solves

    (m - m_prev)/dt - nu L m + A^T m = 0

where ``A`` is the upwind advection generator emitted by the HJB step.
Because ``A`` has zero row sums, nonnegative diagonal and nonpositive
off-diagonal entries, the system matrix is an M-matrix with column sums
``1/dt``: total mass is conserved to roundoff and nonnegative data stays
nonnegative.  Transposing the assembled matrix (rather than discretizing the
divergence independently) is what makes ``<A u, m> = <u, A^T m>`` exact,
the discrete counterpart of testing each equation against the other
solution in the energy and uniqueness arguments.

The system is built as CSC on the grid's cached stencil pattern, with data
``heat + A.data``.  The pattern is symmetric, so ``A``'s data in CSR slot
order, read as CSC, is exactly ``A^T``: the transpose costs nothing, and
``I/dt - nu L`` is symmetric, so its data serves both orders.  A transport
matrix not built on the pattern is scattered onto it, and one with an entry
off the stencil is rejected with ``ValueError``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import LinearSolveFailed, NegativeDensity
from .grid import GridSpec, implicit_heat_data, stencil_data, stencil_pattern
from .hjb import UpwindTransport
from .linalg import sparse_solve
from .model import ModelParams

__all__ = ["FPKOptions", "fpk_step", "solve_fpk_forward"]


@dataclass(frozen=True)
class FPKOptions:
    linear_tol: float = 1e-12
    enforce_nonneg_check: bool = True

    def __post_init__(self):
        if self.linear_tol <= 0:
            raise ValueError("linear_tol must be positive")


def fpk_step(
    grid: GridSpec,
    m_prev: np.ndarray,
    transport: UpwindTransport,
    params: ModelParams,
    opts: FPKOptions = FPKOptions(),
) -> np.ndarray:
    """Advance the density one level with the transposed upwind transport."""
    if np.any(m_prev < 0):
        raise ValueError("previous density frame must be nonnegative")
    # A's data in CSR slot order, read as CSC, is A^T; the heat part is symmetric
    system = stencil_pattern(grid).csc(
        implicit_heat_data(grid, params.nu) + stencil_data(grid, transport.matrix)
    )
    m_vec = sparse_solve(grid, system, m_prev.ravel() / grid.dt, tol=opts.linear_tol)
    m = m_vec.reshape(grid.shape)
    if not np.all(np.isfinite(m)):
        raise LinearSolveFailed("non-finite density after the implicit step")
    if opts.enforce_nonneg_check and float(m.min()) < -1e-12:
        raise NegativeDensity(f"min density {m.min():.3e} below tolerance")
    return m


def solve_fpk_forward(
    grid: GridSpec,
    transports: list[UpwindTransport],
    m0: np.ndarray,
    params: ModelParams,
    opts: FPKOptions = FPKOptions(),
) -> np.ndarray:
    """March the density from m0 through all levels; frame k+1 uses transport k."""
    if len(transports) != grid.nt:
        raise ValueError(f"need {grid.nt} transport levels, got {len(transports)}")
    if np.any(m0 < 0):
        raise ValueError("initial density must be nonnegative")
    m = grid.zeros_traj()
    m[0] = np.asarray(m0, dtype=float)
    for k in range(grid.nt):
        m[k + 1] = fpk_step(grid, m[k], transports[k], params, opts)
    return m
