"""Forward Kolmogorov stepper, the exact discrete adjoint of the HJB transport.

Each implicit Euler step solves

    (m - m_prev)/dt - nu L m + A^T m = 0

where ``A`` is the upwind advection generator emitted by the HJB step,
handed to each step as the :class:`~congestion_mfg.grid.StencilOperator`
itself (``transport``).  Because ``A`` has zero row sums, nonnegative
diagonal and nonpositive off-diagonal entries, the system matrix is an
M-matrix with column sums ``1/dt``: total mass is conserved to roundoff and
nonnegative data stays nonnegative.  Transposing the assembled matrix
(rather than discretizing the divergence independently) is what makes
``<A u, m> = <u, A^T m>`` exact, the discrete counterpart of testing each
equation against the other solution in the energy and uniqueness arguments.

The system is ``heat + A`` on the grid's cached stencil pattern, transposed
by one gather of its data through the pattern's ``transpose``, which swaps
each row's lower slot along an axis with the upper slot of its lower
neighbour.  A transport whose data is not shaped like the pattern's raises
``ValueError``.  Each system is solved to
:data:`~congestion_mfg.linalg.LINEAR_TOL`, as the HJB step's Newton systems
are: one linear tolerance for both sweeps.  A previous frame below
``-NEGATIVE_TOL`` or holding a NaN raises ``ValueError`` before the solve;
a sweep checks only ``m0``, since each step's output check covers the next
step's input.
A computed frame below ``-NEGATIVE_TOL`` means the system was no M-matrix;
it always raises :class:`NegativeDensity`, a check no option switches off.
A non-finite frame never comes back: :func:`sparse_solve` raises
:class:`~congestion_mfg.errors.LinearSolveFailed` on one, in 1D and 2D.
"""

from __future__ import annotations

import numpy as np

from .errors import NegativeDensity
from .grid import NEGATIVE_TOL, GridSpec, StencilOperator, _nonnegative
from .grid import implicit_heat_data, stencil_pattern
from .linalg import sparse_solve
from .model import ModelParams

__all__ = ["fpk_step", "solve_fpk_forward"]


def fpk_step(
    grid: GridSpec,
    m_prev: np.ndarray,
    transport: StencilOperator,
    params: ModelParams,
) -> np.ndarray:
    """Advance the density one level with the transposed generator ``transport``."""
    if not float(m_prev.min()) >= -NEGATIVE_TOL:  # a NaN fails the comparison
        raise ValueError("previous density frame must be nonnegative")
    return _step(grid, m_prev, transport, params)


def _step(
    grid: GridSpec, m_prev: np.ndarray, transport: StencilOperator, params: ModelParams
) -> np.ndarray:
    """:func:`fpk_step` on a frame that has passed its entry check."""
    heat = implicit_heat_data(grid, params.nu)
    if np.shape(transport.data) != heat.shape:
        raise ValueError(
            f"expected transport data of shape {heat.shape}, got {np.shape(transport.data)}"
        )
    system = StencilOperator(stencil_pattern(grid), heat + transport.data).T
    m_vec = sparse_solve(grid, system, m_prev.ravel() / grid.dt, params.nu)
    m = m_vec.reshape(grid.shape)
    if float(m.min()) < -NEGATIVE_TOL:
        raise NegativeDensity(f"min density {m.min():.3e} below tolerance")
    return m


def solve_fpk_forward(
    grid: GridSpec,
    transports: list[StencilOperator],
    m0: np.ndarray,
    params: ModelParams,
) -> np.ndarray:
    """March the density from m0 through all levels; frame k+1 uses generator k."""
    if len(transports) != grid.nt:
        raise ValueError(f"need {grid.nt} transport levels, got {len(transports)}")
    m = grid.zeros_traj()
    m[0] = _nonnegative(np.asarray(m0, dtype=float), "initial density")
    for k in range(grid.nt):
        # frame k passed m0's guard or the previous step's output check
        m[k + 1] = _step(grid, m[k], transports[k], params)
    return m
