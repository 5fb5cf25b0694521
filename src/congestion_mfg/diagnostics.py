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

All integrals use the grid's rectangle rule; gradients come from the
solver's own upwind kernel, :func:`congestion_mfg.grid.upwind_parts`, and H,
H_p from the model's guarded power law; in the singular regime (mu = 0)
every Hamiltonian integrand carries the ``m > m_floor`` indicator.  Model
parameters, the regularization width among them, and couplings are read
from each solution's ``params`` and ``coupling``.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .coupler import MFGSolution
from .errors import GridMismatch
from .grid import integrate, upwind_parts
from .hjb import (
    effective_cost,
    hamiltonian_values,
    transport_jacobian,
)
from .model import _uniqueness_bracket, congestion_denominator

__all__ = [
    "DiagnosticsReport",
    "UniquenessGapResult",
    "energy_identity_residual",
    "crossed_energy_gap",
    "uniqueness_gap",
    "apriori_report",
    "low_density_gradient_mass",
]


def _check_same_grid(a: MFGSolution, b: MFGSolution) -> None:
    ga, gb = a.grid, b.grid
    if (ga.dim, ga.n, ga.nt) != (gb.dim, gb.n, gb.nt) or not np.isclose(
        ga.horizon, gb.horizon
    ):
        raise GridMismatch(f"grids differ: {ga} vs {gb}")


def _kernel_inputs(sol: MFGSolution, k: int):
    """(upwind parts, congestion factor) of level ``k``, as the HJB step has them."""
    return (
        upwind_parts(sol.grid, sol.u[k]),
        congestion_denominator(sol.m[k], sol.params),
    )


def _value_terms(sol: MFGSolution):
    """(costs, kernel inputs per level, H per level) of the value side."""
    grid = sol.grid
    costs = effective_cost(grid, sol.m, sol.coupling.level_costs, sol.params.epsilon)
    inputs = [_kernel_inputs(sol, k) for k in range(grid.nt)]
    hamiltonians = [hamiltonian_values(grid, *parts, sol.params) for parts in inputs]
    return costs, inputs, hamiltonians


def _energy_terms(sol: MFGSolution):
    """(bracket, f_term, g_term, initial, value terms) of the energy identity."""
    grid, params = sol.grid, sol.params
    costs, _, hamiltonians = terms = _value_terms(sol)
    bracket = f_term = 0.0
    for k, h_vals in enumerate(hamiltonians):
        # H_p.Du - H = (beta - 1) H for the power family, exactly
        bracket += grid.dt * integrate(grid, sol.m[k] * ((params.beta - 1.0) * h_vals))
        f_term += grid.dt * integrate(grid, costs[k] * sol.m[k])
    g_term = integrate(grid, costs[grid.nt] * sol.m[grid.nt])
    initial = integrate(grid, sol.u[0] * sol.m[0])
    return bracket, f_term, g_term, initial, terms


def energy_identity_residual(sol: MFGSolution) -> float:
    """|LHS - RHS| of the energy identity, natural same-level quadrature."""
    bracket, f_term, g_term, initial, _ = _energy_terms(sol)
    return abs(bracket + f_term + g_term - initial)


def crossed_energy_gap(
    sol_a: MFGSolution, sol_b: MFGSolution, *, value_terms=None
) -> float:
    """RHS - LHS of the crossed energy inequality, duality-exact pairing.

    The value-side data (Hamiltonian, couplings, initial pairing) come from
    solution A, the transported density and advection generator from
    solution B; for exact discrete solutions the gap vanishes to solver
    slack, and it stays one-sidedly small for independent converged pairs.
    ``value_terms`` are A's costs, kernel inputs and Hamiltonians when the
    caller has built them already; B reuses A's kernel inputs when it is A.
    """
    _check_same_grid(sol_a, sol_b)
    grid = sol_a.grid
    costs_a, inputs_a, h_a = value_terms or _value_terms(sol_a)
    total = 0.0
    for k in range(grid.nt):
        inputs_b = inputs_a[k] if sol_b is sol_a else _kernel_inputs(sol_b, k)
        jac_b = transport_jacobian(grid, *inputs_b, sol_b.params)
        advected = jac_b.dot(sol_a.u[k].ravel()).reshape(grid.shape)
        total += grid.dt * integrate(
            grid, (advected - h_a[k] + costs_a[k]) * sol_b.m[k + 1]
        )
    total += integrate(grid, costs_a[grid.nt] * sol_b.m[grid.nt])
    total -= integrate(grid, sol_a.u[0] * sol_b.m[0])
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


def uniqueness_gap(sol_a: MFGSolution, sol_b: MFGSolution) -> UniquenessGapResult:
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
    grid, params, coupling = sol_a.grid, sol_a.params, sol_a.coupling
    singular = params.is_singular

    f_term = 0.0
    bracket_ab = 0.0
    bracket_ba = 0.0
    excl_a = 0.0
    excl_b = 0.0
    e_min = np.inf
    for k in range(grid.nt + 1):
        ma, mb = sol_a.m[k], sol_b.m[k]
        dm, dp, _ = upwind_parts(grid, sol_a.u[k])
        da = dm + dp
        dm, dp, _ = upwind_parts(grid, sol_b.u[k])
        db = dm + dp
        e_vals, f_vals, (ha, hpa), (hb, hpb) = _uniqueness_bracket(
            ma, da, mb, db, params, coupling
        )
        e_min = min(e_min, float(e_vals.min()))
        if k == grid.nt:
            g_term = integrate(grid, (coupling.g(ma) - coupling.g(mb)) * (ma - mb))
            break
        weight = grid.dt
        f_term += weight * integrate(grid, f_vals)
        both = 1.0
        if singular:
            both = ((ma > params.m_floor) & (mb > params.m_floor)).astype(float)
            only_a = ((ma > params.m_floor) & (mb <= params.m_floor)).astype(float)
            only_b = ((mb > params.m_floor) & (ma <= params.m_floor)).astype(float)
            excl_a += weight * integrate(
                grid, only_a * ma * ((hpa * da).sum(axis=0) - ha)
            )
            excl_b += weight * integrate(
                grid, only_b * mb * ((hpb * db).sum(axis=0) - hb)
            )
        bracket_ba += weight * integrate(
            grid, both * mb * (ha - hb - (hpb * (da - db)).sum(axis=0))
        )
        bracket_ab += weight * integrate(
            grid, both * ma * (hb - ha - (hpa * (db - da)).sum(axis=0))
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
        return {f.name: float(getattr(self, f.name)) for f in fields(self)}


def apriori_report(sol: MFGSolution) -> DiagnosticsReport:
    """Fill every report entry by rectangle-rule quadrature and flag violations."""
    grid, params = sol.grid, sol.params

    bracket, f_term, g_term, initial, terms = _energy_terms(sol)
    energy_residual = abs(bracket + f_term + g_term - initial)
    crossed = crossed_energy_gap(sol, sol, value_terms=terms)

    masses = grid.cell_volume * sol.m.sum(axis=tuple(range(1, sol.m.ndim)))
    mass_drift = float(np.abs(masses - 1.0).max())
    min_m = float(sol.m.min())
    u_lower_slack = float(sol.u.min() - sol.coupling.c4)

    integ_du = 0.0
    integ_mdu = 0.0
    power = 0.0
    r_exp = (grid.dim + 2.0) / grid.dim
    for k, h_vals in enumerate(terms[2]):
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
        _, _, q = upwind_parts(grid, sol.u[k])
        total += grid.dt * integrate(
            grid, np.sqrt(q) * (sol.m[k] < threshold).astype(float)
        )
    return total
