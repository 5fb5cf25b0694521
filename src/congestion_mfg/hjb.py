"""Backward implicit solver for the viscous HJB equation with congestion.

Each time level solves, by Newton iteration on the monotone upwind
discretization,

    (u - u_next)/dt - nu L u + g(T_{1/eps} m, D u) = F_eff(m)

where ``g`` is the Godunov numerical Hamiltonian built from
:func:`congestion_mfg.grid.numerical_gradient_sq`, the density inside the
Hamiltonian is capped at ``1/eps`` (eps = 0 disables the cap), and ``F_eff``
is the running cost smoothed on both sides by the periodic Gaussian mollifier
when eps > 0 (the cap is never applied inside F).

The step also emits the transport data of the linearized equation: the
sparse advection generator ``A = dg/du`` (zero row sums, nonnegative
diagonal) and the upwind drift ``-H_p``.  The forward Kolmogorov stepper
consumes the exact transpose of ``A``, which is what makes the discrete
energy identities of the diagnostics module close up to solver tolerances.

``A`` lives on the grid's cached stencil pattern (see
:func:`congestion_mfg.grid.stencil_pattern`): the Hamiltonian, ``A`` and the
drift come from one upwind kernel, and ``A`` is a data vector filled on the
pattern.  Each Newton system ``I/dt - nu L + A`` is one vector add on that
pattern, built directly as CSC for the sparse solver.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import NewtonDiverged, NonFiniteState
from .grid import (
    GridSpec,
    gaussian_smooth,
    implicit_heat_data,
    laplacian_matrix,
    one_sided_diffs,
    stencil_data,
    stencil_pattern,
)
from .linalg import sparse_solve
from .model import CouplingSpec, ModelParams, congestion_denominator

__all__ = [
    "HJBOptions",
    "UpwindTransport",
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
    newton_tol: float = 1e-10
    newton_max_iter: int = 50
    epsilon: float = 0.0
    linear_tol: float = 1e-12

    def __post_init__(self):
        if self.newton_tol <= 0:
            raise ValueError("newton_tol must be positive")
        if self.epsilon < 0:
            raise ValueError("epsilon must be nonnegative")


@dataclass(frozen=True)
class UpwindTransport:
    """Advection data of one HJB level: generator matrix and drift -H_p."""

    matrix: sp.csr_matrix
    drift: np.ndarray  # shape (dim, *grid.shape)


def _upwind_parts(grid: GridSpec, u: np.ndarray):
    """Upwind parts ``max(D-, 0)``, ``min(D+, 0)`` per axis and their squared sum q."""
    dplus, dminus = one_sided_diffs(grid, u)
    dm, dp = np.maximum(dminus, 0.0), np.minimum(dplus, 0.0)
    return dm, dp, (dm**2).sum(axis=0) + (dp**2).sum(axis=0)


def _upwind_weight(q, m, params: ModelParams, epsilon: float):
    """q^{beta/2-1}/(T m + mu)^alpha with the singular floor and indicator."""
    den, active = congestion_denominator(m, params, epsilon)
    phi = np.zeros_like(q)
    mask = q > 0.0
    phi[mask] = q[mask] ** (params.beta / 2.0 - 1.0)
    w = phi / den
    return w * active if active is not None else w


def hamiltonian_values(
    grid: GridSpec, u: np.ndarray, m: np.ndarray, params: ModelParams, epsilon: float
) -> np.ndarray:
    """Per-cell numerical Hamiltonian (1/beta) q^{beta/2}/(T m + mu)^alpha."""
    _, _, q = _upwind_parts(grid, u)
    den, active = congestion_denominator(m, params, epsilon)
    out = np.zeros_like(q)
    mask = q > 0.0
    den_b = np.broadcast_to(den, q.shape)
    out[mask] = q[mask] ** (params.beta / 2.0) / (params.beta * den_b[mask])
    return out * active if active is not None else out


def transport_jacobian(
    grid: GridSpec, u: np.ndarray, m: np.ndarray, params: ModelParams, epsilon: float
) -> sp.csr_matrix:
    """Sparse dg/du of the numerical Hamiltonian at (u, m), on the stencil pattern.

    Row sums vanish (g depends on differences only), the diagonal is
    nonnegative and off-diagonal entries are nonpositive, and by Euler's
    identity for the beta-homogeneous g one has  A u = beta * g  exactly.
    """
    dm, dp, q = _upwind_parts(grid, u)
    w = _upwind_weight(q, m, params, epsilon)
    am, ap = w * dm, w * dp
    pattern = stencil_pattern(grid)
    data = np.empty(len(pattern.indices))
    data[pattern.lower] = (-am / grid.h).reshape(grid.dim, -1)
    data[pattern.upper] = (ap / grid.h).reshape(grid.dim, -1)
    data[pattern.center] = sum(
        ((am[ax] - ap[ax]) / grid.h).ravel() for ax in range(grid.dim)
    )
    return pattern.csr(data)


def drift_field(
    grid: GridSpec, u: np.ndarray, m: np.ndarray, params: ModelParams, epsilon: float
) -> np.ndarray:
    """Upwind drift -H_p(T m, Du), one component per dimension."""
    dm, dp, q = _upwind_parts(grid, u)
    return -_upwind_weight(q, m, params, epsilon) * (dm + dp)


def effective_cost(grid: GridSpec, m: np.ndarray, cost, epsilon: float) -> np.ndarray:
    """Coupling ``cost`` (``coupling.f`` or ``coupling.g``) seen by the scheme.

    The plain cost at eps = 0, else the doubly mollified composition.
    """
    if epsilon <= 0.0:
        return np.asarray(cost(m), dtype=float)
    smoothed = gaussian_smooth(grid, m, epsilon)
    return gaussian_smooth(grid, np.asarray(cost(smoothed)), epsilon)


def hjb_step(
    grid: GridSpec,
    u_next: np.ndarray,
    m_frame: np.ndarray,
    t: float,
    params: ModelParams,
    coupling: CouplingSpec,
    opts: HJBOptions,
) -> tuple[np.ndarray, UpwindTransport, float]:
    """One backward implicit Euler step; returns (u, transport, residual).

    ``u`` satisfies the per-cell Newton system to ``opts.newton_tol`` in
    max norm; the transport is re-assembled at the converged state so the
    Kolmogorov stepper and any later recomputation see identical data.
    """
    del t  # couplings are space-time homogeneous in this model family
    if np.any(m_frame < 0):
        raise ValueError("density frame must be nonnegative")
    dt = grid.dt
    lap = laplacian_matrix(grid)
    f_src = effective_cost(grid, m_frame, coupling.f, opts.epsilon).ravel()
    u_next_vec = np.asarray(u_next, dtype=float).ravel()

    def residual(uvec):
        h_vals = hamiltonian_values(
            grid, uvec.reshape(grid.shape), m_frame, params, opts.epsilon
        )
        return (
            (uvec - u_next_vec) / dt
            - params.nu * (lap @ uvec)
            + h_vals.ravel()
            - f_src
        )

    uvec = u_next_vec.copy()
    res = residual(uvec)
    res_norm = float(np.abs(res).max())
    if not np.isfinite(res_norm):
        raise NonFiniteState("non-finite HJB residual at the initial iterate")
    pattern = stencil_pattern(grid)
    heat = implicit_heat_data(grid, params.nu)
    iterations = 0
    while res_norm > opts.newton_tol:
        if iterations >= opts.newton_max_iter:
            raise NewtonDiverged(
                f"residual {res_norm:.3e} > tol {opts.newton_tol:.1e} "
                f"after {opts.newton_max_iter} iterations"
            )
        iterations += 1
        jac = transport_jacobian(
            grid, uvec.reshape(grid.shape), m_frame, params, opts.epsilon
        )
        # I/dt - nu L + A as CSC: heat data is symmetric, A's is read mirrored
        system = pattern.csc(heat + stencil_data(grid, jac)[pattern.transpose])
        delta = sparse_solve(grid, system, res, tol=opts.linear_tol)
        step = 1.0
        for _ in range(30):
            cand = uvec - step * delta
            cand_res = residual(cand)
            cand_norm = float(np.abs(cand_res).max())
            if cand_norm < res_norm:
                break
            step *= 0.5
        uvec, res, res_norm = cand, cand_res, cand_norm
        if not (np.all(np.isfinite(uvec)) and np.isfinite(res_norm)):
            raise NonFiniteState("HJB Newton iterate became non-finite")

    u = uvec.reshape(grid.shape)
    transport = UpwindTransport(
        matrix=transport_jacobian(grid, u, m_frame, params, opts.epsilon),
        drift=drift_field(grid, u, m_frame, params, opts.epsilon),
    )
    return u, transport, res_norm


@dataclass
class HJBBackwardResult:
    u: np.ndarray  # (nt+1, *shape)
    transports: list  # UpwindTransport per level 0..nt-1
    max_newton_residual: float


def solve_hjb_backward(
    grid: GridSpec,
    m_traj: np.ndarray,
    params: ModelParams,
    coupling: CouplingSpec,
    opts: HJBOptions,
) -> HJBBackwardResult:
    """Backward sweep over all time levels for a frozen density trajectory.

    The terminal frame is the (mollified) terminal cost of the final density;
    level k is produced by :func:`hjb_step` against the density frame of the
    same level, whose transport then drives the forward step k -> k+1.
    """
    if m_traj.shape != (grid.nt + 1, *grid.shape):
        raise ValueError("density trajectory shape does not match the grid")
    if np.any(m_traj < 0):
        raise ValueError("density trajectory must be nonnegative")
    u = grid.zeros_traj()
    u[grid.nt] = effective_cost(grid, m_traj[grid.nt], coupling.g, opts.epsilon)
    transports: list[UpwindTransport | None] = [None] * grid.nt
    worst = 0.0
    for k in range(grid.nt - 1, -1, -1):
        u[k], transports[k], res = hjb_step(
            grid, u[k + 1], m_traj[k], k * grid.dt, params, coupling, opts
        )
        worst = max(worst, res)
    return HJBBackwardResult(u=u, transports=transports, max_newton_residual=worst)
