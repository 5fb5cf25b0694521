"""Energy identity, crossed inequality, uniqueness functionals, a-priori report."""

from dataclasses import fields, replace

import numpy as np
import pytest

from congestion_mfg import (
    CouplingSpec,
    FixedPointOptions,
    GridSpec,
    ModelParams,
    apriori_report,
    crossed_energy_gap,
    diagnostics,
    energy_identity_residual,
    model,
    solve_mfg,
    uniqueness_gap,
    uniqueness_integrand,
)
from congestion_mfg.coupler import MFGSolution
from congestion_mfg.diagnostics import low_density_gradient_mass
from congestion_mfg.errors import GridMismatch
from congestion_mfg.grid import integrate, upwind_parts
from congestion_mfg.hjb import effective_cost, hamiltonian_values, transport_jacobian
from congestion_mfg.model import M_FLOOR, _guarded_h_hp, congestion_denominator

from conftest import cosine_density, reference_params, start_trajectory


@pytest.fixture(scope="module")
def constant_sol():
    grid = GridSpec(dim=1, n=32, nt=32, horizon=1.0)
    return solve_mfg(grid, reference_params(), CouplingSpec())


class TestEnergyIdentity:
    def test_constant_equilibrium_bookkeeping(self, constant_sol):
        # bracket 0, int G m(T) = 1, int int F m = T, <u(0), m0> = 1 + T
        report = apriori_report(constant_sol)
        assert report.integ_HpDu_minus_H == pytest.approx(0.0, abs=1e-14)
        assert report.integ_Gm == pytest.approx(1.0, abs=1e-12)
        assert report.integ_Fm == pytest.approx(1.0, abs=1e-12)
        assert energy_identity_residual(constant_sol) <= 1e-10

    def test_corrupted_value_function_detected(self, ref64):
        clean = energy_identity_residual(ref64)
        rng = np.random.default_rng(5)
        noisy = type(ref64)(
            grid=ref64.grid,
            params=ref64.params,
            coupling=ref64.coupling,
            u=ref64.u + 1e-2 * rng.choice([-1.0, 1.0], size=ref64.u.shape),
            m=ref64.m,
            policy=ref64.policy,
            meta=ref64.meta,
        )
        assert energy_identity_residual(noisy) >= 10.0 * clean

    def test_refinement_decreases(self, ref32, ref64):
        assert energy_identity_residual(ref64) < energy_identity_residual(ref32)

    def test_regularized_system_identity(self):
        # with eps > 0 the diagnostics evaluate the mollified/truncated
        # system's own balance, which still closes at first order
        grid = GridSpec(dim=1, n=32, nt=32, horizon=1.0)
        sol = solve_mfg(
            grid,
            replace(reference_params(), epsilon=0.1),
            CouplingSpec(),
            m0=cosine_density(grid),
        )
        res = energy_identity_residual(sol)
        assert np.isfinite(res)
        assert res < 5e-2
        assert abs(crossed_energy_gap(sol, sol)) <= 1e-6


class TestCrossedGap:
    def test_self_gap_is_solver_slack(self, ref32):
        gap = crossed_energy_gap(ref32, ref32)
        assert abs(gap) <= 1e-6

    def test_identity_case_constant(self, constant_sol):
        assert crossed_energy_gap(constant_sol, constant_sol) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_two_independent_solves(self, ref32):
        grid = ref32.grid
        other = solve_mfg(
            grid,
            reference_params(),
            CouplingSpec(),
            FixedPointOptions(damping=0.4),
            m0=cosine_density(grid),
            init_traj=start_trajectory(grid, cosine_density(grid, 0.3)),
        )
        assert crossed_energy_gap(ref32, other) >= -1e-6
        assert crossed_energy_gap(other, ref32) >= -1e-6

    def test_heat_pair_finite(self, ref32):
        grid = ref32.grid
        zero = CouplingSpec(cf=0.0, offset_f=0.0, cg=0.0, offset_g=0.0)
        heat = solve_mfg(
            grid,
            reference_params(),
            zero,
            FixedPointOptions(damping=1.0),
            m0=cosine_density(grid),
        )
        gap = crossed_energy_gap(ref32, heat)
        assert np.isfinite(gap)

    def test_grid_mismatch(self, ref32, ref64):
        with pytest.raises(GridMismatch):
            crossed_energy_gap(ref32, ref64)

    def test_horizon_mismatch(self, ref32):
        """Horizons 1e-9 apart passed an ``np.isclose`` check, and the gap
        used A's time step for both solutions."""
        grid = replace(ref32.grid, horizon=ref32.grid.horizon + 1e-9)
        other = replace(ref32, grid=grid, params=replace(ref32.params, horizon=grid.horizon))
        for functional in (crossed_energy_gap, uniqueness_gap):
            with pytest.raises(GridMismatch):
                functional(ref32, other)


def _reference_value_terms(sol):
    """Costs, per-level kernel inputs and per-level H, one level per call."""
    grid = sol.grid
    costs = effective_cost(grid, sol.m, sol.coupling.level_costs, sol.params.epsilon)
    inputs = [
        (upwind_parts(grid, sol.u[k]), congestion_denominator(sol.m[k], sol.params))
        for k in range(grid.nt)
    ]
    hamiltonians = [hamiltonian_values(grid, *parts, sol.params) for parts in inputs]
    return costs, inputs, hamiltonians


def _reference_crossed_gap(sol_a, sol_b):
    """Reference ``crossed_energy_gap``: a loop over levels, one generator,
    one product and one integral per level."""
    grid = sol_a.grid
    costs_a, inputs_a, h_a = _reference_value_terms(sol_a)
    _, inputs_b, _ = _reference_value_terms(sol_b)
    total = 0.0
    for k in range(grid.nt):
        jac_b = transport_jacobian(grid, *inputs_b[k], sol_b.params)
        advected = jac_b.dot(sol_a.u[k].ravel()).reshape(grid.shape)
        total += grid.dt * integrate(
            grid, (advected - h_a[k] + costs_a[k]) * sol_b.m[k + 1]
        )
    total += integrate(grid, costs_a[grid.nt] * sol_b.m[grid.nt])
    total -= integrate(grid, sol_a.u[0] * sol_b.m[0])
    return total


def _reference_report(sol):
    """Reference ``apriori_report(sol).to_flat_dict()``: every integral over
    space-time as a loop over levels."""
    grid, params = sol.grid, sol.params
    costs, _, hamiltonians = _reference_value_terms(sol)
    bracket = f_term = integ_du = integ_mdu = power = 0.0
    r_exp = (grid.dim + 2.0) / grid.dim
    for k, h_vals in enumerate(hamiltonians):
        bracket += grid.dt * integrate(grid, sol.m[k] * ((params.beta - 1.0) * h_vals))
        f_term += grid.dt * integrate(grid, costs[k] * sol.m[k])
        integ_du += grid.dt * integrate(grid, params.beta * h_vals)
        integ_mdu += grid.dt * integrate(grid, params.beta * h_vals * sol.m[k])
        power += grid.dt * integrate(
            grid, np.maximum(sol.m[k], 0.0) ** ((params.gamma + 1.0) * r_exp)
        )
    g_term = integrate(grid, costs[grid.nt] * sol.m[grid.nt])
    initial = integrate(grid, sol.u[0] * sol.m[0])
    masses = grid.cell_volume * sol.m.sum(axis=tuple(range(1, sol.m.ndim)))
    mass_drift = float(np.abs(masses - 1.0).max())
    min_m = float(sol.m.min())
    u_lower_slack = float(sol.u.min() - sol.coupling.c4)
    return dict(
        energy_residual=abs(bracket + f_term + g_term - initial),
        crossed_gap=_reference_crossed_gap(sol, sol),
        mass_drift=mass_drift,
        min_m=min_m,
        u_lower_slack=u_lower_slack,
        integ_HpDu_minus_H=bracket,
        integ_DuBeta=integ_du,
        integ_mDuBeta=integ_mdu,
        norm_m_power=power ** (1.0 / r_exp),
        integ_Fm=f_term,
        integ_Gm=g_term,
        ok_min_m=float(min_m >= -1e-10),
        ok_mass=float(mass_drift <= 1e-9),
        ok_u_lower=float(u_lower_slack >= -1e-8),
    )


def _reference_low_density_gradient_mass(sol, threshold):
    grid = sol.grid
    total = 0.0
    for k in range(grid.nt):
        _, _, q = upwind_parts(grid, sol.u[k])
        total += grid.dt * integrate(grid, np.sqrt(q) * (sol.m[k] < threshold).astype(float))
    return total


def _reference_uniqueness_gap(sol_a, sol_b):
    """Reference ``uniqueness_gap``: the guarded H and H_p of each side are
    evaluated on their own, and the pointwise bracket is spelled out."""
    grid, params, coupling = sol_a.grid, sol_a.params, sol_a.coupling
    singular = params.is_singular

    g_term = integrate(
        grid,
        (coupling.g(sol_a.m[-1]) - coupling.g(sol_b.m[-1])) * (sol_a.m[-1] - sol_b.m[-1]),
    )
    f_term = bracket_ab = bracket_ba = excl_a = excl_b = 0.0
    e_min = np.inf
    for k in range(grid.nt + 1):
        ma, mb = sol_a.m[k], sol_b.m[k]
        dm, dp, _ = upwind_parts(grid, sol_a.u[k])
        da = dm + dp
        dm, dp, _ = upwind_parts(grid, sol_b.u[k])
        db = dm + dp
        ha, hpa = _guarded_h_hp(ma, da, params)
        hb, hpb = _guarded_h_hp(mb, db, params)
        e_vals = (
            -(ha - hb) * (ma - mb)
            + ((ma * hpa - mb * hpb) * (da - db)).sum(axis=0)
            + (coupling.f(ma) - coupling.f(mb)) * (ma - mb)
        )
        e_min = min(e_min, float(e_vals.min()))
        if k == grid.nt:
            break
        weight = grid.dt
        f_term += weight * integrate(grid, (coupling.f(ma) - coupling.f(mb)) * (ma - mb))
        both = 1.0
        if singular:
            both = ((ma > M_FLOOR) & (mb > M_FLOOR)).astype(float)
            only_a = ((ma > M_FLOOR) & (mb <= M_FLOOR)).astype(float)
            only_b = ((mb > M_FLOOR) & (ma <= M_FLOOR)).astype(float)
            excl_a += weight * integrate(grid, only_a * ma * ((hpa * da).sum(axis=0) - ha))
            excl_b += weight * integrate(grid, only_b * mb * ((hpb * db).sum(axis=0) - hb))
        bracket_ba += weight * integrate(
            grid, both * mb * (ha - hb - (hpb * (da - db)).sum(axis=0))
        )
        bracket_ab += weight * integrate(
            grid, both * ma * (hb - ha - (hpa * (db - da)).sum(axis=0))
        )
    gap = g_term + f_term + bracket_ab + bracket_ba + excl_a + excl_b
    return diagnostics.UniquenessGapResult(
        gap, e_min, g_term, f_term, bracket_ab, bracket_ba, excl_a, excl_b
    )


def _singular_pair():
    """Two mu = 0 states on an n = nt = 8 grid whose densities vanish on
    different cells, so both exclusive-support brackets are nonzero."""
    grid = GridSpec(dim=1, n=8, nt=8, horizon=1.0)
    params = ModelParams(nu=0.5, beta=1.5, alpha=0.6, mu=0.0, horizon=1.0)
    rng = np.random.default_rng(11)
    pair = []
    for zero_cells in (slice(0, None, 3), slice(1, None, 4)):
        m = rng.uniform(0.5, 1.5, (grid.nt + 1, grid.n))
        m[:, zero_cells] = 0.0
        pair.append(
            MFGSolution(
                grid, params, CouplingSpec(cf=0.5, cg=0.5),
                u=rng.normal(size=m.shape), m=m, policy=np.zeros((grid.nt + 1, 1, grid.n)),
            )
        )
    return pair


@pytest.fixture(scope="module")
def gap_pairs(ref32):
    bump = solve_mfg(
        ref32.grid, reference_params(), CouplingSpec(), m0=cosine_density(ref32.grid, 0.8)
    )
    grid2 = GridSpec(dim=2, n=8, nt=8, horizon=1.0)
    flat2, bump2 = (
        solve_mfg(grid2, reference_params(), CouplingSpec(), m0=m0)
        for m0 in (None, cosine_density(grid2))
    )
    eps_pair = tuple(
        solve_mfg(
            ref32.grid, replace(reference_params(), epsilon=0.05), CouplingSpec(),
            m0=cosine_density(ref32.grid, amplitude),
        )
        for amplitude in (0.5, 0.8)
    )
    return {
        "1d": (ref32, bump), "2d": (flat2, bump2), "singular": _singular_pair(),
        "eps": eps_pair,
    }


def _bits(result):
    return np.array([getattr(result, f.name) for f in fields(result)]).view(np.int64)


def _float_bits(value):
    return np.array(value, dtype=float).view(np.int64).tolist()


PAIRS = ["1d", "2d", "singular", "eps"]


class TestAgainstTheLevelLoop:
    """Every level in one kernel call, each entry with the level loop's bits."""

    @pytest.mark.parametrize("pair", PAIRS)
    def test_report(self, gap_pairs, pair):
        for sol in gap_pairs[pair]:
            got = apriori_report(sol).to_flat_dict()
            assert {k: _float_bits(v) for k, v in got.items()} == {
                k: _float_bits(v) for k, v in _reference_report(sol).items()
            }

    @pytest.mark.parametrize("pair", PAIRS)
    def test_crossed_gap_of_two_solutions(self, gap_pairs, pair):
        sol_a, sol_b = gap_pairs[pair]
        for a, b in ((sol_a, sol_b), (sol_b, sol_a)):
            got = crossed_energy_gap(a, b)
            assert _float_bits(got) == _float_bits(_reference_crossed_gap(a, b))

    @pytest.mark.parametrize("pair", PAIRS)
    def test_low_density_gradient_mass(self, gap_pairs, pair):
        for sol in gap_pairs[pair]:
            for threshold in (1e-3, 0.9, 1.1, 1e3):
                got = low_density_gradient_mass(sol, threshold)
                ref = _reference_low_density_gradient_mass(sol, threshold)
                assert _float_bits(got) == _float_bits(ref)


class TestUniquenessGap:
    @pytest.mark.parametrize("pair", PAIRS)
    def test_matches_the_reference_bit_for_bit(self, gap_pairs, pair):
        sol_a, sol_b = gap_pairs[pair]
        for a, b in ((sol_a, sol_b), (sol_b, sol_a)):
            got = uniqueness_gap(a, b)
            assert _bits(got).tolist() == _bits(_reference_uniqueness_gap(a, b)).tolist()
            if pair == "singular":
                assert got.exclusive_a > 0.0 and got.exclusive_b > 0.0

    def test_two_guarded_evaluations_for_all_levels(self, gap_pairs, monkeypatch):
        # a guarded (H, H_p) makes two power-law calls; the bracket and the
        # two convexity brackets share one evaluation per solution, on all
        # levels at once, and the bracket's coupling term is the F addend of
        # the gap: one F evaluation per solution, and one G at T
        sol_a, sol_b = gap_pairs["singular"]
        calls = {"_power_law": 0, "_cost": 0}

        def counting(owner, name):
            original = getattr(owner, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, name, counted)

        counting(model, "_power_law")
        counting(model.CouplingSpec, "_cost")
        uniqueness_gap(sol_a, sol_b)
        assert calls == {"_power_law": 4, "_cost": 4}

    def test_zero_on_identical(self, ref32):
        res = uniqueness_gap(ref32, ref32)
        assert abs(res.gap) <= 1e-12
        assert res.e_min_sampled == 0.0

    def test_symmetry(self, ref32):
        grid = ref32.grid
        other = solve_mfg(
            grid,
            reference_params(),
            CouplingSpec(),
            m0=cosine_density(grid),
            init_traj=start_trajectory(grid, cosine_density(grid, 0.2)),
        )
        ab = uniqueness_gap(ref32, other)
        ba = uniqueness_gap(other, ref32)
        assert ab.gap == pytest.approx(ba.gap, abs=1e-12)

    def test_sampled_sign_in_regime(self):
        rng = np.random.default_rng(42)
        params = ModelParams(nu=0.5, beta=1.5, alpha=1.0, mu=1.0, horizon=1.0)
        coupling = CouplingSpec()
        n = 10_000
        m1 = 10 ** rng.uniform(-2, 2, n)
        m2 = np.abs(m1 * (1.0 + 0.05 * rng.normal(size=n)))
        p1 = np.stack([10 ** rng.uniform(-2, 1.5, n) * rng.choice([-1, 1], n)])
        p2 = p1 * (1.0 + 0.05 * rng.normal(size=(1, n))) + 0.01 * rng.normal(size=(1, n))
        vals = uniqueness_integrand(m1, p1, m2, p2, params, coupling)
        assert vals.min() >= -1e-10

    def test_negative_witness_above_threshold(self):
        rng = np.random.default_rng(7)
        params = ModelParams(nu=0.5, beta=2.0, alpha=3.0, mu=1.0, horizon=1.0)
        coupling = CouplingSpec()
        found = None
        for _ in range(10_000):
            m1 = rng.uniform(2.5, 20.0)
            z = rng.choice([-1.0, 1.0]) * 0.02 * m1
            p1 = np.array([rng.choice([-1.0, 1.0]) * 10 ** rng.uniform(1.5, 3.0)])
            ratio = 1.5 * abs(p1[0]) / (m1 + 1.0) * 10 ** rng.uniform(-0.3, 0.3)
            p2 = p1 + ratio * z * np.sign(p1)
            val = uniqueness_integrand(m1, p1, m1 + z, p2, params, coupling)
            if val < 0:
                found = (m1, z, p1[0], p2[0], float(val))
                break
        assert found is not None


class TestAprioriReport:
    @pytest.mark.parametrize("eps", [0.0, 0.05])
    @pytest.mark.parametrize("dim, n", [(1, 16), (2, 8)])
    def test_crossed_gap_shares_the_energy_terms(self, dim, n, eps, monkeypatch):
        # the report hands its costs, kernel inputs and Hamiltonians to the
        # crossed gap: the standalone self-gap's bits, from one build of each,
        # every level in one call
        grid = GridSpec(dim=dim, n=n, nt=n, horizon=1.0)
        sol = solve_mfg(
            grid, replace(reference_params(), epsilon=eps), CouplingSpec(),
            m0=cosine_density(grid),
        )
        gap = crossed_energy_gap(sol, sol)
        calls = {"effective_cost": 0, "hamiltonian_values": 0, "upwind_parts": 0}
        for name in calls:
            original = getattr(diagnostics, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(diagnostics, name, counted)
        report = apriori_report(sol)
        assert report.crossed_gap.hex() == gap.hex()
        assert calls == {"effective_cost": 1, "hamiltonian_values": 1, "upwind_parts": 1}

    def test_constant_equilibrium_fields(self, constant_sol):
        report = apriori_report(constant_sol)
        assert report.mass_drift <= 1e-13
        assert report.min_m == pytest.approx(1.0)
        assert report.u_lower_slack == pytest.approx(1.0)
        assert report.ok_min_m and report.ok_mass and report.ok_u_lower

    def test_reference_flags_clean(self, ref64):
        report = apriori_report(ref64)
        assert report.ok_min_m and report.ok_mass and report.ok_u_lower
        assert report.integ_HpDu_minus_H >= -1e-10

    def test_refinement_stability(self, ref32, ref64):
        # entries of order one stay within 15%; near-zero entries (the flat
        # reference equilibrium has tiny gradient integrals) get an absolute
        # floor since their own magnitude sits at discretization scale
        r32 = apriori_report(ref32)
        r64 = apriori_report(ref64)
        for field in (
            "integ_HpDu_minus_H",
            "integ_DuBeta",
            "integ_mDuBeta",
            "norm_m_power",
            "integ_Fm",
            "integ_Gm",
        ):
            a, b = getattr(r32, field), getattr(r64, field)
            assert abs(b - a) <= 0.15 * max(abs(a), 1e-2)

    def test_flat_dict_numeric(self, constant_sol):
        flat = apriori_report(constant_sol).to_flat_dict()
        assert all(isinstance(v, float) for v in flat.values())
        assert set(flat) >= {
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
        }


class TestLowDensityGradient:
    def test_zero_when_density_high(self, ref32):
        assert low_density_gradient_mass(ref32, 1e-3) == 0.0

    def test_positive_when_threshold_above_density(self, ref32):
        val = low_density_gradient_mass(ref32, 1e3)
        q_total = 0.0
        grid = ref32.grid
        from congestion_mfg.grid import upwind_parts

        for k in range(grid.nt):
            q_total += grid.dt * integrate(
                grid, np.sqrt(upwind_parts(grid, ref32.u[k])[2])
            )
        assert val == pytest.approx(q_total)
