"""Integral identities, a-priori bounds and uniqueness functionals on solutions.

Three graded consistency checks are available for a computed equilibrium:

* ``energy_identity_residual`` evaluates the energy balance

      <u(0), m0> = int G m(T) + int int F(m) m + int int m (H_p.Du - H)

  with the natural same-level rectangle quadrature.  The bilinear transport
  terms cancel by construction (the Kolmogorov operator is the exact
  transpose of the HJB linearization), so what remains is the first-order
  time-pairing error: the residual decays like O(h + dt) under refinement.

* ``crossed_energy_gap`` evaluates the one-sided crossed balance of two
  solutions using the duality pairing the discrete scheme satisfies exactly
  (value level k against density level k+1, advection of one solution
  applied to the value of the other), so its self-gap sits at solver
  tolerance rather than discretization order.

* ``uniqueness_gap`` assembles the symmetric monotonicity sum: the G and F
  monotonicity terms plus the two convexity brackets, all quadratic in the
  difference of the two solutions; each addend is nonnegative (up to
  tolerance) exactly in the uniqueness regime.

All integrals use the grid's rectangle rule; gradients use the solver's own
upwind differences; in the singular regime (mu = 0) every Hamiltonian
integrand carries the ``m > m_floor`` indicator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coupler import MFGSolution
from .errors import GridMismatch
from .grid import GridSpec, integrate, numerical_gradient_sq, upwind_gradient
from .hjb import (
    effective_cost,
    hamiltonian_values,
    transport_jacobian,
)
from .model import (
    CouplingSpec,
    ModelParams,
    congestion_denominator,
    uniqueness_integrand,
)

__all__ = [
    "DiagnosticsReport",
    "UniquenessGapResult",
    "energy_identity_residual",
    "crossed_energy_gap",
    "uniqueness_gap",
    "apriori_report",
    "low_density_gradient_mass",
]


def _inner(grid: GridSpec, a: np.ndarray, b: np.ndarray) -> float:
    return float(grid.cell_volume * np.sum(a * b))


def _check_same_grid(a: MFGSolution, b: MFGSolution) -> None:
    ga, gb = a.grid, b.grid
    if (ga.dim, ga.n, ga.nt) != (gb.dim, gb.n, gb.nt) or not np.isclose(
        ga.horizon, gb.horizon
    ):
        raise GridMismatch(f"grids differ: {ga} vs {gb}")


def _gradient_sq_parts(grid, u_frame):
    d = upwind_gradient(grid, u_frame)
    return numerical_gradient_sq(grid, u_frame), d


def _energy_terms(sol: MFGSolution, params: ModelParams, coupling: CouplingSpec):
    """(bracket, f_term, g_term, initial) of the energy identity."""
    grid, eps = sol.grid, sol.epsilon
    bracket = 0.0
    f_term = 0.0
    for k in range(grid.nt):
        h_vals = hamiltonian_values(grid, sol.u[k], sol.m[k], params, eps)
        # H_p.Du - H = (beta - 1) H for the power family, exactly
        bracket += grid.dt * _inner(grid, sol.m[k], (params.beta - 1.0) * h_vals)
        f_eff = effective_cost(grid, sol.m[k], coupling.f, eps)
        f_term += grid.dt * _inner(grid, f_eff, sol.m[k])
    g_eff = effective_cost(grid, sol.m[grid.nt], coupling.g, eps)
    g_term = _inner(grid, g_eff, sol.m[grid.nt])
    initial = _inner(grid, sol.u[0], sol.m[0])
    return bracket, f_term, g_term, initial


def energy_identity_residual(
    sol: MFGSolution,
    params: ModelParams | None = None,
    coupling: CouplingSpec | None = None,
) -> float:
    """|LHS - RHS| of the energy identity, natural same-level quadrature."""
    params = params or sol.params
    coupling = coupling or sol.coupling
    bracket, f_term, g_term, initial = _energy_terms(sol, params, coupling)
    return abs(bracket + f_term + g_term - initial)


def crossed_energy_gap(
    sol_a: MFGSolution,
    sol_b: MFGSolution,
    params: ModelParams | None = None,
    coupling: CouplingSpec | None = None,
) -> float:
    """RHS - LHS of the crossed energy inequality, duality-exact pairing.

    The value-side data (Hamiltonian, couplings, initial pairing) come from
    solution A, the transported density and advection generator from
    solution B; for exact discrete solutions the gap vanishes to solver
    slack, and it stays one-sidedly small for independent converged pairs.
    """
    _check_same_grid(sol_a, sol_b)
    params = params or sol_a.params
    coupling = coupling or sol_a.coupling
    grid = sol_a.grid
    eps_a, eps_b = sol_a.epsilon, sol_b.epsilon
    params_b = sol_b.params

    total = 0.0
    for k in range(grid.nt):
        g_a = hamiltonian_values(grid, sol_a.u[k], sol_a.m[k], params, eps_a)
        jac_b = transport_jacobian(grid, sol_b.u[k], sol_b.m[k], params_b, eps_b)
        advected = (jac_b @ sol_a.u[k].ravel()).reshape(grid.shape)
        f_eff = effective_cost(grid, sol_a.m[k], coupling.f, eps_a)
        total += grid.dt * _inner(grid, advected - g_a + f_eff, sol_b.m[k + 1])
    g_eff = effective_cost(grid, sol_a.m[grid.nt], coupling.g, eps_a)
    total += _inner(grid, g_eff, sol_b.m[grid.nt])
    total -= _inner(grid, sol_a.u[0], sol_b.m[0])
    return total


@dataclass(frozen=True)
class UniquenessGapResult:
    gap: float
    e_min_sampled: float
    g_term: float
    f_term: float
    bracket_ab: float
    bracket_ba: float
    exclusive_a: float = 0.0
    exclusive_b: float = 0.0


def uniqueness_gap(
    sol_a: MFGSolution,
    sol_b: MFGSolution,
    params: ModelParams | None = None,
    coupling: CouplingSpec | None = None,
) -> UniquenessGapResult:
    """Symmetric monotonicity sum of two solutions.

    gap = int (G(m_A) - G(m_B))(m_A - m_B) |_{t=T}
        + int int (F(m_A) - F(m_B))(m_A - m_B)
        + int int m_B [H_A - H_B - H_pB.(Du_A - Du_B)]
        + int int m_A [H_B - H_A - H_pA.(Du_B - Du_A)]

    (plus the exclusive-support brackets in the singular regime).  Every
    addend is quadratic in the difference of the solutions and nonnegative
    under the uniqueness condition; the whole expression is symmetric in
    (A, B).  ``e_min_sampled`` is the cellwise minimum of the pointwise
    uniqueness bracket over all time levels.
    """
    _check_same_grid(sol_a, sol_b)
    params = params or sol_a.params
    coupling = coupling or sol_a.coupling
    grid = sol_a.grid
    singular = params.is_singular

    g_term = _inner(
        grid,
        np.asarray(coupling.g(sol_a.m[-1])) - np.asarray(coupling.g(sol_b.m[-1])),
        sol_a.m[-1] - sol_b.m[-1],
    )

    f_term = 0.0
    bracket_ab = 0.0
    bracket_ba = 0.0
    excl_a = 0.0
    excl_b = 0.0
    e_min = np.inf
    for k in range(grid.nt + 1):
        ma, mb = sol_a.m[k], sol_b.m[k]
        da = upwind_gradient(grid, sol_a.u[k])
        db = upwind_gradient(grid, sol_b.u[k])
        ha, hpa = _h_hp_frames(grid, ma, da, params)
        hb, hpb = _h_hp_frames(grid, mb, db, params)
        e_vals = uniqueness_integrand(ma, da, mb, db, params, coupling)
        e_min = min(e_min, float(e_vals.min()))
        if k == grid.nt:
            break
        weight = grid.dt
        f_term += weight * _inner(
            grid,
            np.asarray(coupling.f(ma)) - np.asarray(coupling.f(mb)),
            ma - mb,
        )
        both = 1.0
        if singular:
            both = ((ma > params.m_floor) & (mb > params.m_floor)).astype(float)
            only_a = ((ma > params.m_floor) & (mb <= params.m_floor)).astype(float)
            only_b = ((mb > params.m_floor) & (ma <= params.m_floor)).astype(float)
            excl_a += weight * _inner(
                grid, only_a * ma, ((hpa * da).sum(axis=0) - ha)
            )
            excl_b += weight * _inner(
                grid, only_b * mb, ((hpb * db).sum(axis=0) - hb)
            )
        bracket_ba += weight * _inner(
            grid,
            both * mb,
            ha - hb - (hpb * (da - db)).sum(axis=0),
        )
        bracket_ab += weight * _inner(
            grid,
            both * ma,
            hb - ha - (hpa * (db - da)).sum(axis=0),
        )
    gap = g_term + f_term + bracket_ab + bracket_ba + excl_a + excl_b
    return UniquenessGapResult(
        gap=gap,
        e_min_sampled=e_min,
        g_term=g_term,
        f_term=f_term,
        bracket_ab=bracket_ab,
        bracket_ba=bracket_ba,
        exclusive_a=excl_a,
        exclusive_b=excl_b,
    )


def _h_hp_frames(grid, m, d, params):
    """Guarded (H, H_p) of a frame from its combined upwind gradient."""
    pnorm2 = (d**2).sum(axis=0)
    den, active = congestion_denominator(m, params)
    h = np.zeros(pnorm2.shape)
    factor = np.zeros(pnorm2.shape)
    mask = pnorm2 > 0.0
    den_b = np.broadcast_to(den, pnorm2.shape)
    h[mask] = pnorm2[mask] ** (params.beta / 2.0) / (params.beta * den_b[mask])
    factor[mask] = pnorm2[mask] ** ((params.beta - 2.0) / 2.0) / den_b[mask]
    if active is not None:
        h = h * active
        factor = factor * active
    return h, factor * d


@dataclass(frozen=True)
class DiagnosticsReport:
    """Named residuals of the a-priori estimates and conservation laws."""

    energy_residual: float
    crossed_gap: float
    mass_drift: float
    min_m: float
    u_lower_slack: float
    integ_HpDu_minus_H: float
    integ_DuBeta: float
    integ_mDuBeta: float
    norm_m_power: float
    integ_Fm: float
    integ_Gm: float
    ok_min_m: bool
    ok_mass: bool
    ok_u_lower: bool

    def to_flat_dict(self) -> dict[str, float]:
        out = {}
        for name in (
            "energy_residual",
            "crossed_gap",
            "mass_drift",
            "min_m",
            "u_lower_slack",
            "integ_HpDu_minus_H",
            "integ_DuBeta",
            "integ_mDuBeta",
            "norm_m_power",
            "integ_Fm",
            "integ_Gm",
        ):
            out[name] = float(getattr(self, name))
        for name in ("ok_min_m", "ok_mass", "ok_u_lower"):
            out[name] = float(getattr(self, name))
        return out


def apriori_report(
    sol: MFGSolution,
    params: ModelParams | None = None,
    coupling: CouplingSpec | None = None,
) -> DiagnosticsReport:
    """Fill every report entry by rectangle-rule quadrature and flag violations."""
    params = params or sol.params
    coupling = coupling or sol.coupling
    grid, eps = sol.grid, sol.epsilon

    bracket, f_term, g_term, initial = _energy_terms(sol, params, coupling)
    energy_residual = abs(bracket + f_term + g_term - initial)
    crossed = crossed_energy_gap(sol, sol, params, coupling)

    masses = grid.cell_volume * sol.m.sum(axis=tuple(range(1, sol.m.ndim)))
    mass_drift = float(np.abs(masses - 1.0).max())
    min_m = float(sol.m.min())
    u_lower_slack = float(sol.u.min() - coupling.c4)

    integ_du = 0.0
    integ_mdu = 0.0
    power = 0.0
    r_exp = (grid.dim + 2.0) / grid.dim
    for k in range(grid.nt):
        h_vals = hamiltonian_values(grid, sol.u[k], sol.m[k], params, eps)
        integ_du += grid.dt * integrate(grid, params.beta * h_vals)
        integ_mdu += grid.dt * integrate(grid, params.beta * h_vals * sol.m[k])
        power += grid.dt * integrate(
            grid, np.maximum(sol.m[k], 0.0) ** ((params.gamma + 1.0) * r_exp)
        )
    norm_m_power = power ** (1.0 / r_exp)

    return DiagnosticsReport(
        energy_residual=energy_residual,
        crossed_gap=crossed,
        mass_drift=mass_drift,
        min_m=min_m,
        u_lower_slack=u_lower_slack,
        integ_HpDu_minus_H=bracket,
        integ_DuBeta=integ_du,
        integ_mDuBeta=integ_mdu,
        norm_m_power=norm_m_power,
        integ_Fm=f_term,
        integ_Gm=g_term,
        ok_min_m=min_m >= -1e-10,
        ok_mass=mass_drift <= 1e-9,
        ok_u_lower=u_lower_slack >= -1e-8,
    )


def low_density_gradient_mass(sol: MFGSolution, threshold: float = 1e-3) -> float:
    """int int |Du| over the low-density set {m < threshold}.

    Discrete stand-in for the vanishing-gradient constraint of the singular
    regime: along a mu -> 0 continuation this functional should not grow.
    """
    grid = sol.grid
    total = 0.0
    for k in range(grid.nt):
        q, _ = _gradient_sq_parts(grid, sol.u[k])
        total += grid.dt * integrate(
            grid, np.sqrt(q) * (sol.m[k] < threshold).astype(float)
        )
    return total
