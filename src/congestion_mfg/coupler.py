"""The MFG fixed point: damped Picard alternation of the two PDE sweeps.

One outer iteration relaxes a density trajectory m toward its best response

    m  <-  m + omega * (FPK(HJB(m)) - m),

where the backward HJB sweep runs against the frozen m and the forward
Kolmogorov sweep is driven by the resulting generator matrices.  The
Newton and linear tolerances of both sweeps are constants of
:mod:`~congestion_mfg.hjb` and :mod:`~congestion_mfg.linalg`, and the forward
sweep's positivity check cannot be switched off.  The relaxation factor omega
starts at the configured damping and is adapted per cell: halved where the
update flips sign, and free to reach full steps where the update keeps its
sign and shrinks (see FixedPointOptions).  Iteration stops when the
undamped best-response residual drops below tolerance in L1(Q_T).  On top
of the plain fixed point sit the regularization ladder (truncation and
:func:`congestion_mfg.grid.gaussian_smooth` mollification width eps) and
the vanishing congestion-offset ladder (mu), run with warm starts so the
singular regime is only ever approached by continuation.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigError
from .fpk import solve_fpk_forward
from .grid import GridSpec, _density_input, gaussian_smooth, integrate, l1_space_time
from .grid import upwind_parts
from .hjb import drift_field, solve_hjb_backward
from .model import CouplingSpec, ModelParams, check_structure, congestion_denominator

__all__ = [
    "FixedPointOptions",
    "ContinuationSchedule",
    "ContinuationResult",
    "MFGSolution",
    "solve_mfg",
    "solve_with_continuation",
]


# Floor and recovery rate of the per-cell relaxation factor.
OMEGA_MIN = 1e-5
OMEGA_GROWTH = 1.4

# the singular problem is reached only by continuation, never by a cold start
COLD_START_AT_MU0 = "cold-start solve at mu = 0 rejected; use continuation with warm starts"


@dataclass(frozen=True)
class FixedPointOptions:
    """Damped Picard controls.

    ``damping`` is the starting relaxation factor.  The factor is tracked
    per cell and level: wherever the best-response update flips sign
    between outer iterations the local factor is halved (down to
    ``OMEGA_MIN``), where it persists it recovers geometrically (by
    ``OMEGA_GROWTH``).  Its cap is 1 (a full step) where the update keeps
    shrinking in magnitude and ``damping`` wherever it does not.  Halving
    arrests the local relaxation oscillation the sub-quadratic drift
    (beta < 2) excites near critical points of u, since a period-2
    oscillation flips sign every iteration; where the iteration contracts
    monotonically, as at beta = 2, the cells take full steps.  At
    ``damping = 1`` both caps are 1.
    The stopping test is the undamped best-response residual
    ||Phi(m) - m|| <= fp_tol in L1(Q_T), which dominates the recorded
    increments.  ``max_outer_iter`` is an integer, as ``GridSpec``'s counts are.
    """

    damping: float = 0.5
    fp_tol: float = 1e-8
    max_outer_iter: int = 500

    def __post_init__(self):
        if not 0.0 < self.damping <= 1.0:
            raise ValueError("damping must lie in (0, 1]")
        if not 0 < self.fp_tol < np.inf:
            raise ValueError("fp_tol must be positive and finite")
        if not isinstance(self.max_outer_iter, (int, np.integer)):
            raise ValueError(f"max_outer_iter must be an integer, got {self.max_outer_iter}")
        if self.max_outer_iter < 1:
            raise ValueError("max_outer_iter must be at least 1")
        if self.damping < OMEGA_MIN:
            raise ValueError(f"damping must be at least {OMEGA_MIN:g}")


@dataclass(frozen=True, eq=False)
class ContinuationSchedule:
    """Decreasing ladders for the regularization width and congestion offset.

    Rungs run the eps ladder first (at mus[0]), then the mu ladder at the
    final eps, so ``params.epsilon`` must be 0 or the first width.  The
    first rung's mu, which no earlier rung warm-starts, must be positive.  A
    terminal mu of 0 is only accepted with warm starts and within the
    singular well-posedness window (beta < 2, or beta = 2 with alpha < 2).
    """

    epsilons: tuple[float, ...] = (0.1, 0.05, 0.025, 0.0125)
    mus: tuple[float, ...] | None = None
    warm_start: bool = True

    def __post_init__(self):
        eps = tuple(float(e) for e in self.epsilons)
        object.__setattr__(self, "epsilons", eps)
        if len(eps) == 0 or not all(0 < e < np.inf for e in eps):
            raise ValueError("epsilons must be a nonempty finite positive sequence")
        if len(eps) > 1 and np.any(np.diff(eps) >= 0):
            raise ValueError("epsilons must be strictly decreasing")
        if self.mus is not None:
            mus = tuple(float(m) for m in self.mus)
            object.__setattr__(self, "mus", mus)
            if len(mus) == 0 or not all(0 <= m < np.inf for m in mus):
                raise ValueError("mus must be a nonempty finite nonnegative sequence")
            if len(mus) > 1 and np.any(np.diff(mus) >= 0):
                raise ValueError("mus must be strictly decreasing")

    def rungs(self, params: ModelParams) -> list[tuple[float, float]]:
        if params.epsilon not in (0.0, self.epsilons[0]):
            raise ConfigError(f"epsilon {params.epsilon} is not the first of epsilons")
        mus = self.mus if self.mus is not None else (params.mu,)
        if mus[0] == 0.0:  # the first rung has no warm start
            raise ConfigError(COLD_START_AT_MU0)
        out = [(e, mus[0]) for e in self.epsilons]
        out += [(self.epsilons[-1], m) for m in mus[1:]]
        if mus[-1] == 0.0:
            if not self.warm_start:
                raise ConfigError("mu = 0 rung requires warm starts")
            if params.beta == 2.0 and params.alpha >= 2.0:
                raise ConfigError(
                    "singular endpoint needs alpha < 2 when beta = 2"
                )
        return out


@dataclass(eq=False)
class MFGSolution:
    """Converged (u, m) pair with the upwind drift and solver metadata."""

    grid: GridSpec
    params: ModelParams
    coupling: CouplingSpec
    u: np.ndarray  # (nt+1, *shape)
    m: np.ndarray  # (nt+1, *shape)
    policy: np.ndarray  # (nt+1, dim, *shape)
    meta: dict = field(default_factory=dict)

    @property
    def epsilon(self) -> float:
        return self.params.epsilon

    @property
    def converged(self) -> bool:
        return bool(self.meta.get("converged", True))


def _normalized(grid: GridSpec, f: np.ndarray) -> np.ndarray:
    total = integrate(grid, f)
    if total <= 0:
        raise ConfigError("initial density must have positive mass")
    return f / total


def _initial_trajectory(
    grid: GridSpec, m0_eps: np.ndarray, init_traj: np.ndarray | None
) -> np.ndarray:
    traj = grid.zeros_traj()
    traj[0] = m0_eps
    if init_traj is None:
        traj[1:] = 1.0
    elif np.shape(init_traj) != traj.shape:
        raise ConfigError("warm-start trajectory shape does not match grid")
    else:
        traj[1:] = _density_input(init_traj[1:], "warm-start trajectory", ConfigError)
    return traj


def solve_mfg(
    grid: GridSpec,
    params: ModelParams,
    coupling: CouplingSpec,
    fp_opts: FixedPointOptions | None = None,
    m0: np.ndarray | None = None,
    init_traj: np.ndarray | None = None,
) -> MFGSolution:
    """Damped Picard iteration for the coupled system at one (eps, mu) rung.

    Both widths come from ``params``, whose ``horizon`` must be the grid's
    (else :class:`ConfigError`).  ``m0`` is the initial density (uniform
    when omitted; a negative entry beyond roundoff, a NaN or an infinity
    raises :class:`ConfigError`); it is mollified with the same width
    ``params.epsilon`` that caps the density inside the Hamiltonian and
    smooths the couplings.  The iteration starts from ``init_traj``, a
    density trajectory on the grid's ``nt + 1`` levels whose level 0 is
    ignored, else from uniform levels; it is required when ``mu`` is 0: the
    singular problem is reached only by continuation.  A negative entry
    beyond roundoff, a NaN or an infinity in the levels it supplies raises
    :class:`ConfigError` too.  A budget overrun is
    not an exception: it returns the iterate with the lowest measured
    residual, the last one measured by one more FPK sweep, with
    ``meta['converged'] = False``.
    ``meta['residual']`` is the returned iterate's residual.
    """
    fp_opts = fp_opts or FixedPointOptions()
    report = check_structure(params)
    if not report.valid_ranges:
        raise ConfigError("; ".join(report.violations))
    if params.horizon != grid.horizon:
        raise ConfigError(
            f"model horizon {params.horizon} differs from the grid's {grid.horizon}"
        )
    if params.is_singular and init_traj is None:
        raise ConfigError(COLD_START_AT_MU0)

    start = time.perf_counter()
    if m0 is None:
        m0 = np.ones(grid.shape)
    m0 = _density_input(m0, "initial density m0", ConfigError)
    m0_eps = gaussian_smooth(grid, _normalized(grid, m0), params.epsilon)
    m0_eps = _normalized(grid, m0_eps)

    m_cur = _initial_trajectory(grid, m0_eps, init_traj)
    spatial_axes = tuple(range(1, m_cur.ndim))
    increments: list[float] = []
    residuals: list[float] = []
    worst_newton = 0.0
    converged = False
    # the iterate with the lowest measured residual; no iterate is mutated
    # once it is m_cur, so a reference is enough
    best_resid, best_m = math.inf, m_cur
    omega = np.full_like(m_cur, fp_opts.damping)
    prev_update = None
    for _ in range(fp_opts.max_outer_iter):
        backward = solve_hjb_backward(grid, m_cur, params, coupling)
        worst_newton = max(worst_newton, backward.max_newton_residual)
        m_br = solve_fpk_forward(grid, backward.transports, m0_eps, params)
        del backward  # its u and generators, before the next sweep builds its own
        update = m_br - m_cur
        resid = l1_space_time(grid, update)
        residuals.append(resid)
        if resid <= fp_opts.fp_tol:
            increments.append(resid)
            converged = True
            break
        if resid < best_resid:
            best_resid, best_m = resid, m_cur
        if prev_update is not None:
            flipped = update * prev_update < 0.0
            omega = np.where(flipped, omega * 0.5, omega * OMEGA_GROWTH)
            contracting = np.abs(update) < np.abs(prev_update)
            omega = np.clip(
                omega, OMEGA_MIN, np.where(contracting, 1.0, fp_opts.damping)
            )
        prev_update = update
        step = omega * update
        # keep every level's mass exact: project the step to zero mean
        step -= step.mean(axis=spatial_axes, keepdims=True)
        m_next = np.maximum(m_cur + step, 0.0)
        levels = m_next.sum(axis=spatial_axes, keepdims=True) * grid.cell_volume
        m_next /= levels
        m_next[0] = m0_eps
        increments.append(l1_space_time(grid, m_next - m_cur))
        m_cur = m_next

    backward = solve_hjb_backward(grid, m_cur, params, coupling)
    worst_newton = max(worst_newton, backward.max_newton_residual)
    if not converged:
        # the last iterate is unmeasured: one FPK sweep measures it
        m_br = solve_fpk_forward(grid, backward.transports, m0_eps, params)
        resid = l1_space_time(grid, m_br - m_cur)
        residuals.append(resid)
        if best_resid < resid:
            resid, m_cur = best_resid, best_m
            backward = solve_hjb_backward(grid, m_cur, params, coupling)
            worst_newton = max(worst_newton, backward.max_newton_residual)
    # the last sweep's generators go before the policy's stacked kernels run
    u = backward.u
    del backward
    policy = drift_field(
        grid, upwind_parts(grid, u), congestion_denominator(m_cur, params), params
    )

    meta = {
        "epsilon": float(params.epsilon),
        "mu": float(params.mu),
        "outer_iters": len(increments),
        "increments": increments,
        "residuals": residuals,
        "residual": resid,
        "newton_residual_max": worst_newton,
        "wall_time_seconds": time.perf_counter() - start,
        "converged": converged,
    }
    return MFGSolution(
        grid=grid,
        params=params,
        coupling=coupling,
        u=u,
        m=m_cur,
        policy=policy,
        meta=meta,
    )


@dataclass(eq=False)
class ContinuationResult:
    solutions: list[MFGSolution]
    cauchy_table: list[dict]
    rungs: list[tuple[float, float]]
    failed_rung: int | None = None
    error: Exception | None = None

    @property
    def ok(self) -> bool:
        """No rung raised and every rung converged."""
        return self.failed_rung is None and all(s.converged for s in self.solutions)


def solve_with_continuation(
    grid: GridSpec,
    params: ModelParams,
    coupling: CouplingSpec,
    fp_opts: FixedPointOptions | None = None,
    schedule: ContinuationSchedule | None = None,
    m0: np.ndarray | None = None,
) -> ContinuationResult:
    """Run the (eps, mu) ladder, one converged solution per rung.

    With warm starts each rung initializes at the previous density
    trajectory.  The cauchy_table rows hold the L1(Q_T) gaps between
    consecutive rung solutions; decreasing gaps are the numerical shadow of
    the compactness of the regularized family.  A failing rung aborts the
    ladder; completed solutions are still returned.  Rung j runs on
    ``replace(params, mu=mu_j, epsilon=eps_j)``.  A :class:`ConfigError` is
    not a rung failure: it rejects the run's inputs and propagates.
    """
    schedule = schedule or ContinuationSchedule()
    rungs = schedule.rungs(params)
    solutions: list[MFGSolution] = []
    table: list[dict] = []
    failed, error = None, None
    init_traj = None
    for j, (eps_j, mu_j) in enumerate(rungs):
        try:
            sol = solve_mfg(
                grid,
                replace(params, mu=mu_j, epsilon=eps_j),
                coupling,
                fp_opts=fp_opts,
                m0=m0,
                init_traj=init_traj if schedule.warm_start else None,
            )
        except ConfigError:
            raise
        except Exception as exc:  # noqa: BLE001 - rung failures are data
            failed, error = j, exc
            break
        solutions.append(sol)
        if len(solutions) >= 2:
            prev = solutions[-2]
            table.append(
                {
                    "eps": eps_j,
                    "mu": mu_j,
                    "m_gap": l1_space_time(grid, sol.m - prev.m),
                    "u_gap": l1_space_time(grid, sol.u - prev.u),
                }
            )
        if schedule.warm_start:
            init_traj = sol.m
    return ContinuationResult(
        solutions=solutions,
        cauchy_table=table,
        rungs=rungs,
        failed_rung=failed,
        error=error,
    )
