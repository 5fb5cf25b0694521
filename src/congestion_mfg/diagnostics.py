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

The two-solution functionals raise ``GridMismatch`` unless both grids are
equal, horizon included: one time step serves both solutions.

All integrals use the grid's rectangle rule; gradients come from the
solver's own upwind kernel, :func:`congestion_mfg.grid.upwind_parts`, and H,
H_p from the model's guarded power law; in the singular regime (mu = 0)
every Hamiltonian integrand vanishes on the empty cells ``m <= M_FLOOR``.  Model
parameters, the regularization width among them, and couplings are read
from each solution's ``params`` and ``coupling``.

The kernels take a whole trajectory: one ``upwind_parts``,
``congestion_denominator``, ``hamiltonian_values`` and ``transport_jacobian``
call each evaluates every time level, as a stack with the level axis first,
and a level's generator acts on its value through one stacked
``StencilOperator.dot``.  Each per-level integral is one row of a single
reduction over the spatial axes (:func:`congestion_mfg.grid.integrate` on a
stack).  Only the sum over levels is a Python loop, in level order, so every
entry keeps the bits of a level-by-level evaluation.  One call per kernel
saves the per-call overhead of some 40 numpy calls per level.
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
from .model import M_FLOOR, _uniqueness_bracket, congestion_denominator

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
    if a.grid != b.grid:
        raise GridMismatch(f"grids differ: {a.grid} vs {b.grid}")


def _kernel_inputs(sol: MFGSolution):
    """(upwind parts, congestion factors) of levels 0..nt-1, as the HJB
    steps have them, every level in one call each."""
    return (
        upwind_parts(sol.grid, sol.u[:-1]),
        congestion_denominator(sol.m[:-1], sol.params),
    )


def _value_terms(sol: MFGSolution):
    """(costs, kernel inputs, H) of the value side, on all levels at once."""
    grid = sol.grid
    costs = effective_cost(grid, sol.m, sol.coupling.level_costs, sol.params.epsilon)
    inputs = _kernel_inputs(sol)
    return costs, inputs, hamiltonian_values(grid, *inputs, sol.params)


def _level_sum(grid, integrands: np.ndarray) -> float:
    """``sum_k dt * int integrands[k]``: the levels' integrals in one
    reduction, then added in level order, as a loop over levels adds them."""
    total = 0.0
    for value in (grid.dt * integrate(grid, integrands)).tolist():
        total += value
    return total


def _energy_terms(sol: MFGSolution):
    """(bracket, f_term, g_term, initial, value terms) of the energy identity."""
    grid, params = sol.grid, sol.params
    costs, _, h_vals = terms = _value_terms(sol)
    running = sol.m[:-1]
    # H_p.Du - H = (beta - 1) H for the power family, exactly
    bracket = _level_sum(grid, running * ((params.beta - 1.0) * h_vals))
    f_term = _level_sum(grid, costs[:-1] * running)
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
    inputs_b = inputs_a if sol_b is sol_a else _kernel_inputs(sol_b)
    # B's generators, one per level, each applied to A's value at its level
    values = sol_a.u[:-1]
    jac_b = transport_jacobian(grid, *inputs_b, sol_b.params)
    integrand = jac_b.dot(values.reshape(grid.nt, -1)).reshape(values.shape)
    integrand -= h_a
    integrand += costs_a[:-1]
    integrand *= sol_b.m[1:]
    total = _level_sum(grid, integrand)
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


def _upwind_gradient(grid, u: np.ndarray) -> np.ndarray:
    """``dm + dp`` of every level, the component axis first as the model's
    evaluations take it: ``(dim, levels, *grid.shape)``."""
    dm, dp, _ = upwind_parts(grid, u)
    return np.moveaxis(dm + dp, -1 - grid.dim, 0)


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
    nt = grid.nt
    ma, mb = sol_a.m, sol_b.m
    da, db = (_upwind_gradient(grid, sol.u) for sol in (sol_a, sol_b))
    e_vals, f_vals, (ha, hpa), (hb, hpb) = _uniqueness_bracket(
        ma, da, mb, db, params, coupling
    )
    # each level's minimum, then the least of them in level order
    e_min = min(e_vals.reshape(nt + 1, -1).min(axis=1).tolist())
    g_term = integrate(grid, (coupling.g(ma[nt]) - coupling.g(mb[nt])) * (ma[nt] - mb[nt]))
    # the running terms integrate levels 0..nt-1
    f_term = _level_sum(grid, f_vals[:nt])
    both = 1.0
    excl_a = excl_b = 0.0
    if params.is_singular:
        both = ((ma > M_FLOOR) & (mb > M_FLOOR)).astype(float)
        only_a = ((ma > M_FLOOR) & (mb <= M_FLOOR)).astype(float)
        only_b = ((mb > M_FLOOR) & (ma <= M_FLOOR)).astype(float)
        excl_a = _level_sum(grid, (only_a * ma * ((hpa * da).sum(axis=0) - ha))[:nt])
        excl_b = _level_sum(grid, (only_b * mb * ((hpb * db).sum(axis=0) - hb))[:nt])
    bracket_ba = _level_sum(
        grid, (both * mb * (ha - hb - (hpb * (da - db)).sum(axis=0)))[:nt]
    )
    bracket_ab = _level_sum(
        grid, (both * ma * (hb - ha - (hpa * (db - da)).sum(axis=0)))[:nt]
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

    masses = integrate(grid, sol.m)
    mass_drift = float(np.abs(masses - 1.0).max())
    min_m = float(sol.m.min())
    u_lower_slack = float(sol.u.min() - sol.coupling.c4)

    running = sol.m[:-1]
    beta_h = params.beta * terms[2]
    integ_du = _level_sum(grid, beta_h)
    integ_mdu = _level_sum(grid, beta_h * running)
    r_exp = (grid.dim + 2.0) / grid.dim
    power = _level_sum(grid, np.maximum(running, 0.0) ** ((params.gamma + 1.0) * r_exp))
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
    _, _, q = upwind_parts(grid, sol.u[:-1])
    return _level_sum(grid, np.sqrt(q) * (sol.m[:-1] < threshold).astype(float))
