"""The benchmark's workloads: seeded inputs, the solve each times, and its checks.

Every workload starts from the c09 bump ``1 + 0.5 * prod_i cos(2 pi x_i)``.
In 1D the seed adds cosine modes 2 and 3 with amplitudes and phases drawn
from [0, 0.05]; the package only ever sees the resulting ``m0`` array.  A run
draws a fresh input for each solve from (seed, solve index): the ladder's
outer-iteration count moves by up to 10% with the input, and a run's median
over several inputs keeps that out of the run-to-run spread.  The
2D workload keeps the plain bump: with the seeded modes, Jacobi-BiCGStab
breaks down (``LinearSolveFailed``, info -10/-11) on about half the seeds
at n = 32, the defect ROADMAP item 4 is about, and a workload on which
operations fail measures nothing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from congestion_mfg import coupler
from congestion_mfg.coupler import ContinuationSchedule, FixedPointOptions
from congestion_mfg.fpk import solve_fpk_forward
from congestion_mfg.grid import GridSpec, l1_space_time
from congestion_mfg.hjb import HJBOptions, solve_hjb_backward
from congestion_mfg.model import CouplingSpec, ModelParams

MASS_TOL = 1e-10
MIN_DENSITY = -1e-12
# a re-solved HJB sweep reproduces u to Newton tolerance (1e-10 per level)
VALUE_TOL = 1e-8


def c09_bump(grid: GridSpec) -> np.ndarray:
    return 1.0 + 0.5 * _mode(grid, 1, 0.0)


def seeded_bump(grid: GridSpec, seed: int, index: int = 0) -> np.ndarray:
    rng = np.random.default_rng([seed, index])
    m0 = c09_bump(grid)
    for k in (2, 3):
        amplitude, phase = rng.uniform(0.0, 0.05, size=2)
        m0 += amplitude * _mode(grid, k, phase)
    return m0


def _mode(grid: GridSpec, k: int, phase: float) -> np.ndarray:
    wave = np.ones(grid.shape)
    for x in grid.coords():
        wave = wave * np.cos(2.0 * np.pi * k * x + phase)
    return wave


@dataclass(frozen=True)
class Workload:
    name: str
    grid: GridSpec
    params: ModelParams
    coupling: CouplingSpec
    fp_opts: FixedPointOptions
    schedule: ContinuationSchedule | None = None
    seeded: bool = True
    # save/load/diagnose round trips per solve; small bundles repeat so
    # their medians rest on enough samples
    io_rounds: int = 1

    def inputs(self, seed: int, index: int = 0) -> np.ndarray:
        """Initial density of the ``index``-th solve of a run with this seed."""
        return seeded_bump(self.grid, seed, index) if self.seeded else c09_bump(self.grid)

    def solve(self, m0: np.ndarray) -> list:
        """One converged solve; a continuation ladder counts as one solve."""
        if self.schedule is None:
            sol = coupler.solve_mfg(
                self.grid, self.params, self.coupling, self.fp_opts, m0=m0
            )
            return [sol]
        result = coupler.solve_with_continuation(
            self.grid, self.params, self.coupling, self.fp_opts, self.schedule, m0=m0
        )
        if not result.ok:
            raise RuntimeError(f"rung {result.failed_rung} failed: {result.error!r}")
        return result.solutions


REFERENCE = ModelParams(nu=0.5, beta=2.0, alpha=1.0, mu=1.0, horizon=1.0)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="ref1d",
            grid=GridSpec(dim=1, n=64, nt=64, horizon=1.0),
            params=REFERENCE,
            coupling=CouplingSpec(),
            fp_opts=FixedPointOptions(fp_tol=1e-8),
            io_rounds=10,
        ),
        Workload(
            name="ladder1d",
            grid=GridSpec(dim=1, n=16, nt=16, horizon=1.0),
            params=ModelParams(nu=0.5, beta=1.5, alpha=0.6, mu=1.0, horizon=1.0),
            coupling=CouplingSpec(cf=0.5, cg=0.5),
            fp_opts=FixedPointOptions(fp_tol=1e-6, max_outer_iter=400),
            schedule=ContinuationSchedule(
                epsilons=(0.05,), mus=(1.0, 0.5, 0.25, 0.1, 0.05), warm_start=True
            ),
            io_rounds=80,
        ),
        Workload(
            name="ref2d_io",
            grid=GridSpec(dim=2, n=32, nt=32, horizon=1.0),
            params=REFERENCE,
            coupling=CouplingSpec(),
            fp_opts=FixedPointOptions(fp_tol=1e-8),
            seeded=False,
            io_rounds=3,
        ),
    )
}


def check_solution(sol, fp_tol: float) -> list[str]:
    """Problems with one converged solution; empty when it passes the gate.

    Beyond the solver's own flags, one HJB sweep and one FPK sweep are re-run
    from outside on the returned density: the best response must stay within
    ``fp_tol`` of it and the value function must be reproduced.
    """
    grid = sol.grid
    problems = []
    if not sol.converged:
        problems.append("not converged")
    masses = grid.cell_volume * sol.m.sum(axis=tuple(range(1, sol.m.ndim)))
    drift = float(np.abs(masses - 1.0).max())
    if drift > MASS_TOL:
        problems.append(f"mass drift {drift:.3e}")
    if float(sol.m.min()) < MIN_DENSITY:
        problems.append(f"min density {sol.m.min():.3e}")
    backward = solve_hjb_backward(
        grid, sol.m, sol.params, sol.coupling, HJBOptions(epsilon=sol.epsilon)
    )
    u_err = float(np.abs(backward.u - sol.u).max())
    if u_err > VALUE_TOL:
        problems.append(f"value function off by {u_err:.3e}")
    best = solve_fpk_forward(grid, backward.transports, sol.m[0], sol.params)
    resid = l1_space_time(grid, best - sol.m)
    if resid > fp_tol:
        problems.append(f"best-response residual {resid:.3e} > {fp_tol:.1e}")
    return problems


def check_round_trip(sol, back) -> list[str]:
    problems = []
    for name in ("u", "m", "policy"):
        if not np.array_equal(getattr(sol, name), getattr(back, name)):
            problems.append(f"reloaded {name} differs")
    return problems


def check_report(report) -> list[str]:
    return [] if report.ok_mass and report.ok_min_m else ["a-priori report flags"]

