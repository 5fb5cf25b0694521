"""The MFG fixed point: damped Picard alternation of the two PDE sweeps.

One outer iteration relaxes a density trajectory m toward its best response

    m  <-  m + omega * (FPK(HJB(m)) - m),

where the backward HJB sweep runs against the frozen m and the forward
Kolmogorov sweep is driven by the resulting generator matrices; one linear
tolerance, ``HJBOptions.linear_tol``, serves both, and the forward sweep's
positivity check cannot be switched off.  The relaxation factor omega is
capped at the configured damping and adapted per cell (see
FixedPointOptions).  Iteration stops when the undamped best-response
residual drops below tolerance in L1(Q_T).  On top of the plain fixed point
sit the regularization ladder (truncation and
:func:`congestion_mfg.grid.gaussian_smooth` mollification width eps) and
the vanishing congestion-offset ladder (mu), run with warm starts so the
singular regime is only ever approached by continuation.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigError
from .fpk import solve_fpk_forward
from .grid import GridSpec, _nonnegative, gaussian_smooth, integrate, l1_space_time
from .grid import upwind_parts
from .hjb import HJBOptions, drift_field, solve_hjb_backward
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


@dataclass(frozen=True, eq=False)
class FixedPointOptions:
    """Damped Picard controls.

    ``damping`` is the relaxation factor (and its cap).  The factor is
    tracked per cell and level: wherever the best-response direction flips
    sign between outer iterations the local factor is halved (down to
    ``OMEGA_MIN``), where it persists it recovers geometrically (by
    ``OMEGA_GROWTH``) up to ``damping``.  This arrests the local relaxation
    oscillation the sub-quadratic drift (beta < 2) excites near critical
    points of u, while leaving smooth modes at full speed; for instances
    where plain damping converges the adaptive factor just sits at the cap.
    The stopping test is the undamped best-response residual
    ||Phi(m) - m|| <= fp_tol in L1(Q_T), which dominates the recorded
    increments.
    """

    damping: float = 0.5
    fp_tol: float = 1e-8
    max_outer_iter: int = 500
    init_m: np.ndarray | str = "uniform"

    def __post_init__(self):
        if not 0.0 < self.damping <= 1.0:
            raise ValueError("damping must lie in (0, 1]")
        if self.fp_tol <= 0:
            raise ValueError("fp_tol must be positive")
        if self.damping < OMEGA_MIN:
            raise ValueError(f"damping must be at least {OMEGA_MIN:g}")
        if isinstance(self.init_m, str) and self.init_m != "uniform":
            raise ValueError("init_m is 'uniform' or a supplied density field")


@dataclass(frozen=True, eq=False)
class ContinuationSchedule:
    """Decreasing ladders for the regularization width and congestion offset.

    Rungs run the eps ladder first (at mus[0]), then the mu ladder at the
    final eps.  A terminal mu of 0 is only accepted with warm starts and
    within the singular well-posedness window (beta < 2, or beta = 2 with
    alpha < 2).
    """

    epsilons: tuple[float, ...] = (0.1, 0.05, 0.025, 0.0125)
    mus: tuple[float, ...] | None = None
    warm_start: bool = True

    def __post_init__(self):
        eps = tuple(float(e) for e in self.epsilons)
        object.__setattr__(self, "epsilons", eps)
        if len(eps) == 0 or min(eps) <= 0:
            raise ValueError("epsilons must be a nonempty positive sequence")
        if len(eps) > 1 and np.any(np.diff(eps) >= 0):
            raise ValueError("epsilons must be strictly decreasing")
        if self.mus is not None:
            mus = tuple(float(m) for m in self.mus)
            object.__setattr__(self, "mus", mus)
            if len(mus) == 0 or min(mus) < 0:
                raise ValueError("mus must be a nonempty nonnegative sequence")
            if len(mus) > 1 and np.any(np.diff(mus) >= 0):
                raise ValueError("mus must be strictly decreasing")

    def rungs(self, params: ModelParams) -> list[tuple[float, float]]:
        mus = self.mus if self.mus is not None else (params.mu,)
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
        return float(self.meta.get("epsilon", 0.0))

    @property
    def converged(self) -> bool:
        return bool(self.meta.get("converged", True))


def _normalized(grid: GridSpec, f: np.ndarray) -> np.ndarray:
    total = integrate(grid, f)
    if total <= 0:
        raise ConfigError("initial density must have positive mass")
    return f / total


def _initial_trajectory(
    grid: GridSpec,
    m0_eps: np.ndarray,
    fp_opts: FixedPointOptions,
    init_traj: np.ndarray | None,
) -> np.ndarray:
    traj = grid.zeros_traj()
    traj[0] = m0_eps
    if init_traj is not None:
        if init_traj.shape != traj.shape:
            raise ConfigError("warm-start trajectory shape does not match grid")
        traj[1:] = init_traj[1:]
    elif isinstance(fp_opts.init_m, str):
        traj[1:] = 1.0
    else:
        guess = np.asarray(fp_opts.init_m, dtype=float)
        if guess.shape != grid.shape:
            raise ConfigError("supplied init_m field shape does not match grid")
        guess = _nonnegative(guess, "supplied init_m field", ConfigError)
        traj[1:] = _normalized(grid, guess)
    return traj


def solve_mfg(
    grid: GridSpec,
    params: ModelParams,
    coupling: CouplingSpec,
    fp_opts: FixedPointOptions | None = None,
    eps: float = 0.0,
    m0: np.ndarray | None = None,
    init_traj: np.ndarray | None = None,
    hjb_opts: HJBOptions | None = None,
) -> MFGSolution:
    """Damped Picard iteration for the coupled system at one (eps, mu) rung.

    ``m0`` is the initial density (uniform when omitted; a negative entry
    beyond roundoff raises :class:`ConfigError`); it is mollified with the
    same width eps that caps the density inside the Hamiltonian and smooths
    the couplings.  ``init_traj`` warm-starts the iteration, and is required
    when ``mu`` is 0: the singular problem is reached only by continuation.
    ``hjb_opts.epsilon`` must be 0 or equal to ``eps``; any other width
    raises :class:`ConfigError` rather than being replaced.  A budget
    overrun is not an exception; the best iterate is returned with
    ``meta['converged'] = False``.
    """
    fp_opts = fp_opts or FixedPointOptions()
    report = check_structure(params)
    if not report.valid_ranges:
        raise ConfigError("; ".join(report.violations))
    if params.is_singular and init_traj is None:
        raise ConfigError(
            "cold-start solve at mu = 0 rejected; use continuation with warm starts"
        )
    hjb_opts = hjb_opts or HJBOptions()
    if hjb_opts.epsilon not in (0.0, eps):
        raise ConfigError(
            f"HJBOptions.epsilon = {hjb_opts.epsilon} differs from eps = {eps}; "
            "the rung's width is the eps argument"
        )
    hjb_opts = replace(hjb_opts, epsilon=float(eps))

    start = time.perf_counter()
    if m0 is None:
        m0 = np.ones(grid.shape)
    m0 = _nonnegative(np.asarray(m0, float), "initial density m0", ConfigError)
    m0_eps = _normalized(grid, gaussian_smooth(grid, _normalized(grid, m0), eps))

    m_cur = _initial_trajectory(grid, m0_eps, fp_opts, init_traj)
    spatial_axes = tuple(range(1, m_cur.ndim))
    increments: list[float] = []
    residuals: list[float] = []
    worst_newton = 0.0
    converged = False
    omega = np.full_like(m_cur, fp_opts.damping)
    prev_update = None
    for _ in range(fp_opts.max_outer_iter):
        backward = solve_hjb_backward(grid, m_cur, params, coupling, hjb_opts)
        worst_newton = max(worst_newton, backward.max_newton_residual)
        m_br = solve_fpk_forward(
            grid, backward.transports, m0_eps, params, hjb_opts.linear_tol
        )
        update = m_br - m_cur
        resid = l1_space_time(grid, update)
        residuals.append(resid)
        if resid <= fp_opts.fp_tol:
            increments.append(resid)
            converged = True
            break
        if prev_update is not None:
            flipped = update * prev_update < 0.0
            omega = np.where(flipped, omega * 0.5, omega * OMEGA_GROWTH)
            omega = np.clip(omega, OMEGA_MIN, fp_opts.damping)
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

    backward = solve_hjb_backward(grid, m_cur, params, coupling, hjb_opts)
    worst_newton = max(worst_newton, backward.max_newton_residual)
    congestion = [congestion_denominator(m_k, params, eps) for m_k in m_cur]
    policy = np.stack(
        [
            drift_field(grid, upwind_parts(grid, u_k), congestion_k, params)
            for u_k, congestion_k in zip(backward.u, congestion)
        ]
    )

    meta = {
        "epsilon": float(eps),
        "mu": float(params.mu),
        "outer_iters": len(increments),
        "increments": increments,
        "residuals": residuals,
        "newton_residual_max": worst_newton,
        "wall_time_seconds": time.perf_counter() - start,
        "converged": converged,
    }
    return MFGSolution(
        grid=grid,
        params=params,
        coupling=coupling,
        u=backward.u,
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
        return self.failed_rung is None


def solve_with_continuation(
    grid: GridSpec,
    params: ModelParams,
    coupling: CouplingSpec,
    fp_opts: FixedPointOptions | None = None,
    schedule: ContinuationSchedule | None = None,
    m0: np.ndarray | None = None,
    hjb_opts: HJBOptions | None = None,
) -> ContinuationResult:
    """Run the (eps, mu) ladder, one converged solution per rung.

    With warm starts each rung initializes at the previous density
    trajectory.  The cauchy_table rows hold the L1(Q_T) gaps between
    consecutive rung solutions; decreasing gaps are the numerical shadow of
    the compactness of the regularized family.  A failing rung aborts the
    ladder; completed solutions are still returned.  A :class:`ConfigError`
    is not a rung failure: it rejects the run's inputs and propagates.
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
                replace(params, mu=mu_j),
                coupling,
                fp_opts=fp_opts,
                eps=eps_j,
                m0=m0,
                init_traj=init_traj if schedule.warm_start else None,
                hjb_opts=hjb_opts,
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
