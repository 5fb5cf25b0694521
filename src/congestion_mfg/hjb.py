"""Backward implicit solver for the viscous HJB equation with congestion.

Each time level solves, by Newton iteration on the monotone upwind
discretization,

    (u - u_next)/dt - nu L u + g(T_{1/eps} m, D u) = F_eff(m)

where ``g`` is the Godunov numerical Hamiltonian: the congestion power law,
whose one home is :mod:`congestion_mfg.model` (``_congestion_h`` gives ``g``,
``_congestion_weight`` the factor of ``H_p``), evaluated at the composite
upwind ``q`` of :func:`congestion_mfg.grid.upwind_parts`.  The density inside the
Hamiltonian is capped at ``1/eps``, eps = ``params.epsilon`` (0: no cap), and ``F_eff``
is the running cost smoothed on both sides by the periodic Gaussian mollifier
when eps > 0 (the cap is never applied inside F).  ``F_eff`` and the terminal
``G_eff`` depend only on the frozen density trajectory, so
:func:`solve_hjb_backward` builds them for every level at once, with two
batched :func:`~congestion_mfg.grid.gaussian_smooth` calls per sweep, and
:func:`hjb_step` takes its level's ``F_eff`` as the argument ``f_level``.

Newton takes full steps; there is no line search.  At a fixed density frame
a level is ``F(u) = (I/dt - nu L) u + g(u) - b = 0`` with ``F`` a convex
M-function:

* ``g`` is convex in ``u``: ``sqrt(q)`` is the Euclidean norm of the
  nonnegative convex parts ``max(D- u, 0)`` and ``max(-D+ u, 0)``, its power
  ``beta >= 1`` stays convex, and the density factor is fixed within a level;
* every Newton matrix ``I/dt - nu L + A(u)`` is an M-matrix, as ``A = dg/du``
  has zero row sums, a nonnegative diagonal and nonpositive off-diagonal
  entries, so its inverse is entrywise nonnegative.

With ``J_k`` the Newton matrix at ``u_k`` (a subgradient of ``F`` where
``g`` has a kink), convexity gives ``F(u_{k+1}) >= F(u_k) + J_k (u_{k+1} -
u_k) = 0`` after any full step.  So every correction after the first,
``J^{-1} F``, is nonnegative: the iterates decrease monotonically onto the
solution from any start (Ortega & Rheinboldt, *Iterative Solution of Nonlinear Equations*,
§13.3; Bokanowski, Maroso & Zidani, SIAM J. Numer. Anal. 47, 2009).  A
backtracking search has nothing to guard against.  A level converges when
its residual reaches ``NEWTON_TOL`` in max norm; exceeding
``NEWTON_MAX_ITER`` iterations raises
:class:`~congestion_mfg.errors.NewtonDiverged`, the one way a level fails to
converge.  Each Newton system is solved to
:data:`~congestion_mfg.linalg.LINEAR_TOL`.

Within a level the density frame is frozen, so :func:`hjb_step` evaluates
the congestion factor ``congestion_denominator(m_frame, params)`` once
per level and ``upwind_parts(grid, u)`` once per Newton iterate.  The
kernels :func:`hamiltonian_values`, :func:`transport_jacobian` and
:func:`drift_field` all take these as ``(grid, parts, congestion, params)``,
for one frame or for a stack of frames with the frame axis first: the
solver calls them one level at a time, while a solution's drift and the
diagnostics pass a whole trajectory in one call, and every frame of a
stacked result has the bits of the single-frame call.
The generator ``A`` at the converged state, built from the final residual's
parts, is all the step emits of the linearization: the forward Kolmogorov
stepper consumes its exact transpose, which closes the diagnostics' discrete
energy identities up to solver tolerances, and ``MFGSolution.policy``
derives the drift ``-H_p`` from (u, m) on first use, all levels in one call.
``A`` is a :class:`~congestion_mfg.grid.StencilOperator` on the grid's
cached stencil pattern, filled as one ``(2*dim + 1, *shape)`` block (one per
frame of a stack) in the pattern's offset order, which is its data as it
stands; each Newton system ``I/dt - nu L + A`` is one block add.  ``L u`` is
the pattern's row sums, summed in slot order as scipy's CSR product sums a
row stored in that order.  Density entries in
``[-NEGATIVE_TOL, 0)`` (FPK roundoff) count as 0; lower ones, and NaN,
raise ``ValueError``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NewtonDiverged, NonFiniteState
from .grid import (
    _NEW_COMPONENT,
    GridSpec,
    StencilOperator,
    _nonnegative,
    _on_components,
    gaussian_smooth,
    implicit_heat_data,
    stencil_pattern,
    upwind_parts,
)
from .linalg import sparse_solve
from .model import CouplingSpec, ModelParams, congestion_denominator
from .model import _congestion_h, _congestion_weight

# indices on the offset axis of stencil data, per dim: the first (the cell's
# offset, or a vector field's first component), the lower and the upper
# neighbours' offsets, and every neighbour's
_OFFSETS = {
    dim: tuple(
        _on_components(dim, key)
        for key in (0, slice(1, 1 + dim), slice(1 + dim, None), slice(1, None))
    )
    for dim in (1, 2)
}

# Newton stops at this max-norm residual, and fails after this many iterations.
NEWTON_TOL = 1e-10
NEWTON_MAX_ITER = 50

__all__ = [
    "HJBOptions",
    "hjb_step",
    "solve_hjb_backward",
    "HJBBackwardResult",
    "hamiltonian_values",
    "transport_jacobian",
    "drift_field",
    "effective_cost",
]


@dataclass(frozen=True)
class HJBOptions:
    """Only repeats the width, ``epsilon``, of ``ModelParams.epsilon``.

    :func:`hjb_step` rejects an ``epsilon`` here that is neither 0 nor the
    model's.  ``perfbench/workloads.py`` alone sets it; the class goes once
    that passes no options.
    """

    epsilon: float = 0.0

    def __post_init__(self):
        if not 0 <= self.epsilon < np.inf:
            raise ValueError("epsilon must be nonnegative and finite")


def hamiltonian_values(
    grid: GridSpec, parts, congestion, params: ModelParams
) -> np.ndarray:
    """Per-cell numerical Hamiltonian (1/beta) q^{beta/2}/(T m + mu)^alpha.

    ``parts = upwind_parts(grid, u)`` and ``congestion =
    congestion_denominator(m, params)``, as for every kernel here; the
    parts and congestion of a stack of frames give the values of each frame.
    """
    return _congestion_h(parts[2], congestion, params)


def transport_jacobian(
    grid: GridSpec, parts, congestion, params: ModelParams
) -> StencilOperator:
    """dg/du of the numerical Hamiltonian at (u, m), on the stencil pattern.

    Row sums vanish (g depends on differences only), the diagonal is
    nonnegative and off-diagonal entries are nonpositive, and by Euler's
    identity for the beta-homogeneous g one has  A u = beta * g  exactly.
    The parts and congestion of a stack of frames give the stack of
    generators, one per frame.
    """
    dm, dp, q = parts
    dim, h = grid.dim, grid.h
    w = _congestion_weight(q, congestion, params)[_NEW_COMPONENT[dim]]
    first, lower, upper, neighbours = _OFFSETS[dim]
    # one field per offset, in the pattern's order: cell, lower, upper; the
    # offset axis sits where ``dm`` has its component axis, after the frames
    block = np.empty(q.shape[:-dim] + (2 * dim + 1,) + q.shape[-dim:])
    am = np.multiply(w, dm, out=block[lower])
    ap = np.multiply(w, dp, out=block[upper])
    # the cell's entry sums the axes' (am - ap)/h in axis order: one in 1D
    cell = np.subtract(am[first], ap[first], out=block[first])
    cell /= h
    for ax in range(1, dim):
        cell += (am[..., ax, :, :] - ap[..., ax, :, :]) / h
    np.negative(am, out=am)
    block[neighbours] /= h
    data = block.reshape(q.shape[:-dim] + (2 * dim + 1, grid.ncells))
    return StencilOperator(stencil_pattern(grid), data)


def drift_field(
    grid: GridSpec, parts, congestion, params: ModelParams
) -> np.ndarray:
    """Upwind drift -H_p(T m, Du), one component per dimension (after the
    frame axis, for a stack)."""
    dm, dp, q = parts
    drift = dm + dp
    drift *= -_congestion_weight(q, congestion, params)[_NEW_COMPONENT[grid.dim]]
    return drift


def effective_cost(grid: GridSpec, m: np.ndarray, cost, epsilon: float) -> np.ndarray:
    """Coupling ``cost`` seen by the scheme, on a density frame or a stack of them.

    ``cost`` is ``coupling.f``, ``coupling.g`` or, for a whole trajectory,
    ``coupling.level_costs``.  The plain cost at eps = 0, else the doubly
    mollified composition; each smoothing is one batched call over all
    frames, bit-identical frame by frame to per-frame calls.
    """
    if epsilon <= 0.0:
        return np.asarray(cost(m), dtype=float)
    smoothed = gaussian_smooth(grid, m, epsilon)
    return gaussian_smooth(grid, np.asarray(cost(smoothed)), epsilon)


def hjb_step(
    grid: GridSpec,
    u_next: np.ndarray,
    m_frame: np.ndarray,
    params: ModelParams,
    f_level: np.ndarray,
    opts: HJBOptions = HJBOptions(),
) -> tuple[np.ndarray, StencilOperator, float]:
    """One backward implicit Euler step; returns (u, A, residual).

    ``f_level`` is the level's effective running cost ``F_eff``, as
    :func:`effective_cost` gives it for ``m_frame`` with ``params.epsilon``.
    ``u`` satisfies the per-cell Newton system to ``NEWTON_TOL`` in max
    norm; the generator ``A`` is assembled at the converged state, from
    the final residual's upwind parts, so the Kolmogorov stepper and any
    later recomputation see identical data.
    """
    if opts.epsilon not in (0.0, params.epsilon):
        raise ConfigError(f"HJBOptions.epsilon {opts.epsilon} is not {params.epsilon}")
    m_frame = _nonnegative(m_frame, "density frame")
    dt, nu, pattern = grid.dt, params.nu, stencil_pattern(grid)
    laplacian = pattern.laplacian_rows
    f_src = np.asarray(f_level, dtype=float).ravel()
    u_next_vec = np.asarray(u_next, dtype=float).ravel()
    congestion = congestion_denominator(m_frame, params)

    def residual(uvec):
        parts = upwind_parts(grid, uvec.reshape(grid.shape))
        g = hamiltonian_values(grid, parts, congestion, params).ravel()
        return parts, (uvec - u_next_vec) / dt - nu * laplacian(uvec) + g - f_src

    uvec = u_next_vec.copy()
    parts, res = residual(uvec)
    res_norm = float(np.abs(res).max())
    if not math.isfinite(res_norm):
        raise NonFiniteState("non-finite HJB residual at the initial iterate")
    heat = implicit_heat_data(grid, nu)
    iterations = 0
    while res_norm > NEWTON_TOL:
        if iterations >= NEWTON_MAX_ITER:
            raise NewtonDiverged(
                f"residual {res_norm:.3e} > tol {NEWTON_TOL:.1e} "
                f"after {NEWTON_MAX_ITER} iterations"
            )
        iterations += 1
        jac = transport_jacobian(grid, parts, congestion, params)
        system = StencilOperator(pattern, heat + jac.data)
        uvec = uvec - sparse_solve(grid, system, res, nu)
        parts, res = residual(uvec)
        # a non-finite entry of uvec makes its residual entry non-finite too
        res_norm = float(np.abs(res).max())
        if not math.isfinite(res_norm):
            raise NonFiniteState("HJB Newton iterate became non-finite")

    u = uvec.reshape(grid.shape)
    return u, transport_jacobian(grid, parts, congestion, params), res_norm


@dataclass
class HJBBackwardResult:
    u: np.ndarray  # (nt+1, *shape)
    transports: list  # generator A per level 0..nt-1, a StencilOperator
    max_newton_residual: float


def solve_hjb_backward(
    grid: GridSpec,
    m_traj: np.ndarray,
    params: ModelParams,
    coupling: CouplingSpec,
    opts: HJBOptions = HJBOptions(),
) -> HJBBackwardResult:
    """Backward sweep over all time levels for a frozen density trajectory.

    The costs depend only on the frozen trajectory, so they are built once
    per sweep by one :func:`effective_cost` call over all levels: two
    batched smoothings when eps > 0.  The terminal frame is the (mollified)
    terminal cost of the final density; level k is produced by
    :func:`hjb_step` against the density frame and running cost of the same
    level, whose generator then drives the forward step k -> k+1.
    """
    if m_traj.shape != (grid.nt + 1, *grid.shape):
        raise ValueError("density trajectory shape does not match the grid")
    m_traj = _nonnegative(m_traj, "density trajectory")
    costs = effective_cost(grid, m_traj, coupling.level_costs, params.epsilon)
    u = grid.zeros_traj()
    u[grid.nt] = costs[grid.nt]
    transports: list[StencilOperator | None] = [None] * grid.nt
    worst = 0.0
    for k in range(grid.nt - 1, -1, -1):
        u[k], transports[k], res = hjb_step(
            grid, u[k + 1], m_traj[k], params, costs[k], opts
        )
        worst = max(worst, res)
    return HJBBackwardResult(u=u, transports=transports, max_newton_residual=worst)
