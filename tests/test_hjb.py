"""Backward HJB stepper: exactness, comparison, consistency, transport data."""

import itertools
from dataclasses import replace

import numpy as np
import pytest

from congestion_mfg import fpk, hjb, model
from congestion_mfg.errors import ConfigError, NewtonDiverged, NonFiniteState
from congestion_mfg.fpk import NEGATIVE_TOL, solve_fpk_forward
from congestion_mfg.grid import (
    GridSpec,
    StencilOperator,
    implicit_heat_data,
    restrict_traj,
    stencil_pattern,
    upwind_parts,
)
from congestion_mfg.hjb import (
    HJBOptions,
    hjb_step,
    solve_hjb_backward,
    transport_jacobian,
)
from congestion_mfg.linalg import sparse_solve
from congestion_mfg.model import (
    M_FLOOR,
    CouplingSpec,
    ModelParams,
    _power_law,
    congestion_denominator,
)

from conftest import as_csr

PARAMS = ModelParams(nu=0.5, beta=2.0, alpha=1.0, mu=1.0, horizon=1.0)
COUPLING = CouplingSpec()  # F(m) = m, G(m) = m


def uniform_traj(grid, value=1.0):
    return np.full((grid.nt + 1, *grid.shape), value)


class TestHJBStep:
    def test_constant_transport(self):
        # F = 1, constant terminal data: u = c + dt exactly
        grid = GridSpec(dim=1, n=16, nt=8, horizon=1.0)
        coupling = CouplingSpec(cf=0.0, offset_f=1.0, cg=0.0, offset_g=0.0)
        u_next = np.full(grid.shape, 3.0)
        m = np.full(grid.shape, 0.7)
        u, _, res = hjb_step(grid, u_next, m, PARAMS, coupling.f(m))
        assert np.abs(u - (3.0 + grid.dt)).max() < 1e-13
        assert res <= 1e-10

    def test_terminal_condition_is_assignment(self):
        grid = GridSpec(dim=1, n=16, nt=4, horizon=1.0)
        rng = np.random.default_rng(1)
        m_traj = np.abs(rng.random((grid.nt + 1, grid.n))) + 0.1
        result = solve_hjb_backward(grid, m_traj, PARAMS, COUPLING)
        assert np.array_equal(result.u[grid.nt], COUPLING.g(m_traj[grid.nt]))

    def test_newton_budget_raises(self, monkeypatch):
        grid = GridSpec(dim=1, n=16, nt=4, horizon=1.0)
        rng = np.random.default_rng(2)
        u_next = rng.normal(size=grid.shape) * 5.0
        m = np.abs(rng.random(grid.shape))
        monkeypatch.setattr(hjb, "NEWTON_MAX_ITER", 1)
        with pytest.raises(NewtonDiverged):
            hjb_step(grid, u_next, m, PARAMS, COUPLING.f(m))

    @pytest.mark.parametrize("dim,n", [(1, 16), (1, 64), (2, 8)])
    def test_newton_from_rough_starts_is_monotone(self, monkeypatch, dim, n):
        # a level is a convex M-function, so full Newton steps converge from
        # any start and every correction after the first is nonnegative: the
        # iterates decrease onto the solution (up to roundoff in u)
        corrections = []
        solve = hjb.sparse_solve

        def recording_solve(grid, mat, rhs, nu):
            corrections.append(solve(grid, mat, rhs, nu))
            return corrections[-1]

        monkeypatch.setattr(hjb, "sparse_solve", recording_solve)
        grid = GridSpec(dim=dim, n=n, nt=n, horizon=1.0)
        betas, mus, epsilons = (1.05, 1.2, 1.5, 2.0), (1.0, 0.1, 0.0), (0.0, 0.1)
        for beta, mu, eps, seed in itertools.product(betas, mus, epsilons, range(2)):
            params = ModelParams(
                nu=0.5, beta=beta, alpha=0.8, mu=mu, horizon=1.0, epsilon=eps
            )
            rng = np.random.default_rng([seed, dim, n])
            u_next = 5.0 * rng.normal(size=grid.shape)
            m = rng.random(grid.shape) + 0.05
            corrections.clear()
            f_level = hjb.effective_cost(grid, m, COUPLING.f, eps)
            u, _, res = hjb_step(grid, u_next, m, params, f_level)
            assert res <= hjb.NEWTON_TOL
            assert 1 <= len(corrections) <= 20
            roundoff = 16 * np.finfo(float).eps * np.abs(u).max()
            for delta in corrections[1:]:
                assert delta.min() >= -roundoff

    def test_lower_bound_c4(self):
        # F, G >= c4 = 0 propagates to u >= 0 by discrete comparison
        grid = GridSpec(dim=1, n=32, nt=32, horizon=1.0)
        x = grid.axis_centers()
        m_traj = np.tile(1.0 + 0.5 * np.cos(2 * np.pi * x), (grid.nt + 1, 1))
        result = solve_hjb_backward(grid, m_traj, PARAMS, COUPLING)
        assert COUPLING.c4 == 0.0
        assert result.u.min() >= COUPLING.c4 - 1e-12


class TestOptions:
    @pytest.mark.parametrize(
        "bad",
        [{"epsilon": -0.1}],
        ids=lambda bad: "-".join(f"{k}={v}" for k, v in bad.items()),
    )
    def test_invalid_options_rejected(self, bad):
        with pytest.raises(ValueError):
            HJBOptions(**bad)

    @pytest.mark.parametrize("eps", [0.0, 0.05])
    def test_conflicting_hjb_epsilon_rejected(self, eps):
        """A width in ``HJBOptions`` other than the model's ``epsilon`` is an
        input error, from the step and from the sweep, not silently replaced
        by it."""
        grid = GridSpec(dim=1, n=8, nt=4, horizon=1.0)
        m_traj = uniform_traj(grid)
        params = replace(PARAMS, epsilon=eps)
        with pytest.raises(ConfigError, match="HJBOptions.epsilon"):
            solve_hjb_backward(grid, m_traj, params, COUPLING, HJBOptions(epsilon=0.1))
        with pytest.raises(ConfigError, match="HJBOptions.epsilon"):
            hjb_step(grid, m_traj[1], m_traj[0], params, m_traj[0], HJBOptions(epsilon=0.1))

    def test_matching_hjb_epsilon_accepted(self):
        """``HJBOptions.epsilon`` 0 or the model's width gives the bits of the
        default options."""
        grid = GridSpec(dim=1, n=8, nt=4, horizon=1.0)
        m_traj = random_traj(grid, 4)
        params = replace(PARAMS, epsilon=0.05)
        plain = solve_hjb_backward(grid, m_traj, params, COUPLING)
        for opts in (HJBOptions(), HJBOptions(epsilon=0.05)):
            result = solve_hjb_backward(grid, m_traj, params, COUPLING, opts)
            assert_bits_equal(result.u, plain.u)


# the third coupling has offsets and a constant G (qg = 0)
OFFSET = CouplingSpec(cf=0.25, qf=2.0, offset_f=-1.0, cg=0.0, qg=0.0, offset_g=0.5)
COST_CASES = list(
    itertools.product(
        [(1, 16), (2, 6)],
        [0.0, 0.05],
        [COUPLING, CouplingSpec(cf=0.5, qf=1.5, cg=2.0, qg=0.5), OFFSET],
    )
)


def random_traj(grid, seed):
    return np.random.default_rng(seed).random((grid.nt + 1, *grid.shape)) * 2.0 + 0.01


def assert_bits_equal(a, b):
    assert a.shape == b.shape
    assert np.array_equal(np.asarray(a).view(np.int64), np.asarray(b).view(np.int64))


class TestMollifiedCosts:
    @pytest.mark.parametrize("grid_args, eps, coupling", COST_CASES)
    def test_trajectory_equals_per_level_calls(self, grid_args, eps, coupling):
        dim, n = grid_args
        grid = GridSpec(dim=dim, n=n, nt=6, horizon=1.0)
        m_traj = random_traj(grid, n)
        for cost in (coupling.f, coupling.g):
            per_level = [hjb.effective_cost(grid, frame, cost, eps) for frame in m_traj]
            assert_bits_equal(hjb.effective_cost(grid, m_traj, cost, eps), np.stack(per_level))
        level_costs = hjb.effective_cost(grid, m_traj, coupling.level_costs, eps)
        for k in range(grid.nt):
            assert_bits_equal(level_costs[k], hjb.effective_cost(grid, m_traj[k], coupling.f, eps))
        assert_bits_equal(level_costs[-1], hjb.effective_cost(grid, m_traj[-1], coupling.g, eps))

    @pytest.mark.parametrize("grid_args, eps, coupling", COST_CASES)
    def test_sweep_equals_per_level_reference(self, grid_args, eps, coupling):
        dim, n = grid_args
        grid = GridSpec(dim=dim, n=n, nt=6, horizon=1.0)
        m_traj = random_traj(grid, 2 * n)
        params = replace(PARAMS, epsilon=eps)
        result = solve_hjb_backward(grid, m_traj, params, coupling)
        # the sweep as it was: each level smooths its own frame's costs
        u = grid.zeros_traj()
        u[grid.nt] = hjb.effective_cost(grid, m_traj[grid.nt], coupling.g, eps)
        for k in range(grid.nt - 1, -1, -1):
            f_level = hjb.effective_cost(grid, m_traj[k], coupling.f, eps)
            u[k], transport, _ = hjb_step(grid, u[k + 1], m_traj[k], params, f_level)
            assert_bits_equal(result.transports[k].data, transport.data)
        assert_bits_equal(result.u, u)

    @pytest.mark.parametrize("eps, calls", [(0.0, 0), (0.05, 2)])
    def test_sweep_smooths_all_levels_at_once(self, monkeypatch, eps, calls):
        smoothed = []
        smooth = hjb.gaussian_smooth

        def counting_smooth(grid, f, eps):
            smoothed.append(np.shape(f))
            return smooth(grid, f, eps)

        monkeypatch.setattr(hjb, "gaussian_smooth", counting_smooth)
        grid = GridSpec(dim=1, n=16, nt=8, horizon=1.0)
        params = replace(PARAMS, epsilon=eps)
        solve_hjb_backward(grid, random_traj(grid, 1), params, COUPLING)
        assert smoothed == [(grid.nt + 1, grid.n)] * calls


def reference_congestion(m, params, eps):
    """The congestion factor as a ``(den, active)`` pair, built here rather
    than by ``congestion_denominator``: ``den = (min(m, 1/eps) + mu)^alpha``,
    and at mu = 0 the floored ``max(., M_FLOOR)^alpha`` with ``active`` the
    indicator of ``m > M_FLOOR`` (None at mu > 0)."""
    tm = np.minimum(m, 1.0 / eps) if eps > 0.0 else m
    if params.mu > 0.0:
        return (tm + params.mu) ** params.alpha, None
    floored = np.maximum(tm, M_FLOOR) ** params.alpha
    return floored, (m > M_FLOOR).astype(float)


def reference_hamiltonian(grid, u, m, params, eps):
    _, _, q = upwind_parts(grid, u)
    den, active = reference_congestion(m, params, eps)
    out = _power_law(q, den, params.beta / 2.0, params.beta)
    return out * active if active is not None else out


def reference_jacobian(grid, u, m, params, eps):
    dm, dp, q = upwind_parts(grid, u)
    den, active = reference_congestion(m, params, eps)
    w = _power_law(q, den, params.beta / 2.0 - 1.0)
    w = w * active if active is not None else w
    am, ap = w * dm, w * dp
    pattern = stencil_pattern(grid)
    data = np.empty(pattern.cols.shape)
    data[1 : 1 + grid.dim] = (-am / grid.h).reshape(grid.dim, -1)
    data[1 + grid.dim :] = (ap / grid.h).reshape(grid.dim, -1)
    data[0] = sum(((am[ax] - ap[ax]) / grid.h).ravel() for ax in range(grid.dim))
    return StencilOperator(pattern, data)


def reference_step(grid, u_next, m_frame, params, f_level):
    """hjb_step with per-call kernels: every residual and Jacobian evaluation
    recomputes the upwind parts of u and the congestion factor of m."""
    pattern = stencil_pattern(grid)
    lap = as_csr(StencilOperator(pattern, pattern.laplacian))
    f_src = np.asarray(f_level, dtype=float).ravel()
    u_next_vec = np.asarray(u_next, dtype=float).ravel()

    def residual(uvec):
        h_vals = reference_hamiltonian(
            grid, uvec.reshape(grid.shape), m_frame, params, params.epsilon
        )
        return (
            (uvec - u_next_vec) / grid.dt
            - params.nu * (lap @ uvec)
            + h_vals.ravel()
            - f_src
        )

    uvec = u_next_vec.copy()
    res = residual(uvec)
    res_norm = float(np.abs(res).max())
    heat = implicit_heat_data(grid, params.nu)
    for _ in range(hjb.NEWTON_MAX_ITER):
        if res_norm <= hjb.NEWTON_TOL:
            break
        jac = reference_jacobian(
            grid, uvec.reshape(grid.shape), m_frame, params, params.epsilon
        )
        system = StencilOperator(pattern, heat + jac.data)
        uvec = uvec - sparse_solve(grid, system, res, params.nu)
        res = residual(uvec)
        res_norm = float(np.abs(res).max())
    u = uvec.reshape(grid.shape)
    return u, reference_jacobian(grid, u, m_frame, params, params.epsilon), res_norm


def capped_frame(grid, seed):
    """A density above the cap 1/0.05 in one cell and below M_FLOOR in others."""
    rng = np.random.default_rng(seed)
    m = 30.0 * rng.random(grid.shape)
    m[rng.random(grid.shape) < 0.25] = 0.0
    m.flat[:3] = (30.0, 0.0, 1e-12)
    return m


class TestSharedKernelInputs:
    @pytest.mark.parametrize("mu", [1.0, 0.0])
    @pytest.mark.parametrize("eps", [0.0, 0.05])
    @pytest.mark.parametrize("dim,n", [(1, 5), (1, 16), (1, 64), (2, 5), (2, 8)])
    def test_step_equals_per_call_reference(self, dim, n, eps, mu):
        grid = GridSpec(dim=dim, n=n, nt=n, horizon=1.0)
        params = ModelParams(
            nu=0.3, beta=1.5, alpha=0.6, mu=mu, horizon=1.0, epsilon=eps
        )
        m = capped_frame(grid, [dim, n])
        assert m.max() > 1.0 / 0.05 and (m <= M_FLOOR).any()
        u_next = 3.0 * np.random.default_rng([dim, n, 1]).normal(size=grid.shape)
        f_level = hjb.effective_cost(grid, m, COUPLING.f, eps)
        u, transport, res = hjb_step(grid, u_next, m, params, f_level)
        u_ref, transport_ref, res_ref = reference_step(grid, u_next, m, params, f_level)
        assert_bits_equal(u, u_ref)
        assert_bits_equal(transport.data, transport_ref.data)
        assert transport.pattern is transport_ref.pattern
        assert res == res_ref

    @pytest.mark.parametrize("mu", [1.0, 0.0])
    @pytest.mark.parametrize("eps", [0.0, 0.05])
    @pytest.mark.parametrize(
        "dim,n", [(1, 5), (1, 16), (1, 64), (2, 5), (2, 8), (2, 32)]
    )
    def test_jacobian_equals_three_scatter_reference(self, dim, n, eps, mu):
        grid = GridSpec(dim=dim, n=n, nt=n, horizon=1.0)
        params = ModelParams(nu=0.3, beta=1.5, alpha=0.6, mu=mu, horizon=1.0)
        m = capped_frame(grid, [dim, n])
        congestion = congestion_denominator(m, replace(params, epsilon=eps))
        rng = np.random.default_rng([dim, n, 2])
        fields = {
            "normal": 3.0 * rng.normal(size=grid.shape),
            "ties": rng.integers(-2, 3, size=grid.shape).astype(float),
            "signed_zeros": np.where(rng.random(grid.shape) < 0.5, 0.0, -0.0),
        }
        for name, u in fields.items():
            got = transport_jacobian(grid, upwind_parts(grid, u), congestion, params)
            ref = reference_jacobian(grid, u, m, params, eps)
            assert np.array_equal(got.data.view(np.int64), ref.data.view(np.int64)), name

    @pytest.mark.parametrize("mu", [1.0, 0.0])
    @pytest.mark.parametrize("eps", [0.0, 0.05])
    @pytest.mark.parametrize("dim,n", [(1, 5), (1, 16), (2, 5), (2, 8)])
    def test_a_stack_of_frames_has_each_frame_s_bits(self, dim, n, eps, mu):
        # frames with q = 0 cells (flat patches) and, at mu = 0, empty cells
        grid = GridSpec(dim=dim, n=n, nt=n, horizon=1.0)
        params = ModelParams(nu=0.3, beta=1.5, alpha=0.6, mu=mu, horizon=1.0, epsilon=eps)
        rng = np.random.default_rng([dim, n, 3])
        u = 3.0 * rng.normal(size=(4, *grid.shape))
        u[1] = 0.0
        u[2].flat[::2] = 1.0
        m = np.stack([capped_frame(grid, [dim, n, k]) for k in range(4)])
        parts = upwind_parts(grid, u)
        congestion = congestion_denominator(m, params)
        jac = transport_jacobian(grid, parts, congestion, params)
        x = rng.normal(size=(4, grid.ncells))
        stacked = {
            "jacobian": jac.data,
            "transpose": jac.T.data,
            "product": jac.dot(x),
            "hamiltonian": hjb.hamiltonian_values(grid, parts, congestion, params),
            "drift": hjb.drift_field(grid, parts, congestion, params),
        }
        for k in range(len(u)):
            parts_k = upwind_parts(grid, u[k])
            congestion_k = congestion_denominator(m[k], params)
            jac_k = transport_jacobian(grid, parts_k, congestion_k, params)
            per_frame = {
                "jacobian": jac_k.data,
                "transpose": jac_k.T.data,
                "product": jac_k.dot(x[k]),
                "hamiltonian": hjb.hamiltonian_values(grid, parts_k, congestion_k, params),
                "drift": hjb.drift_field(grid, parts_k, congestion_k, params),
            }
            for name, ref in per_frame.items():
                assert np.array_equal(stacked[name][k].view(np.int64), ref.view(np.int64)), name

    def test_one_congestion_factor_per_level_one_gradient_per_iterate(
        self, monkeypatch
    ):
        counts = {"upwind_parts": 0, "congestion_denominator": 0, "sparse_solve": 0}
        for name in counts:
            original = getattr(hjb, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                counts[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(hjb, name, counted)
        per_step = []
        step = hjb.hjb_step

        def recording_step(*args, **kwargs):
            counts.update(dict.fromkeys(counts, 0))
            out = step(*args, **kwargs)
            per_step.append(dict(counts))
            return out

        monkeypatch.setattr(hjb, "hjb_step", recording_step)
        grid = GridSpec(dim=1, n=16, nt=8, horizon=1.0)
        params = ModelParams(nu=0.3, beta=1.5, alpha=0.6, mu=0.5, horizon=1.0, epsilon=0.05)
        solve_hjb_backward(grid, random_traj(grid, 3), params, COUPLING)
        assert len(per_step) == grid.nt
        for calls in per_step:
            assert calls["sparse_solve"] >= 1
            assert calls["upwind_parts"] == calls["sparse_solve"] + 1
            assert calls["congestion_denominator"] == 1

    @pytest.mark.parametrize("mu", [1.0, 0.0])
    @pytest.mark.parametrize("dim,n", [(1, 16), (2, 8)])
    def test_one_power_law_call_per_kernel(self, monkeypatch, dim, n, mu):
        # the congestion power law has one home, in ``model``: each kernel
        # evaluates the one thing it uses, H or the factor of H_p
        calls = {"_power_law": 0}
        original = model._power_law

        def counted(*args, **kwargs):
            calls["_power_law"] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(model, "_power_law", counted)
        grid = GridSpec(dim=dim, n=n, nt=n, horizon=1.0)
        params = ModelParams(nu=0.3, beta=1.5, alpha=0.6, mu=mu, horizon=1.0)
        congestion = congestion_denominator(capped_frame(grid, [dim, n]), params)
        u = np.random.default_rng([dim, n, 3]).normal(size=grid.shape)
        parts = upwind_parts(grid, u)
        for kernel in (hjb.hamiltonian_values, hjb.transport_jacobian, hjb.drift_field):
            calls["_power_law"] = 0
            kernel(grid, parts, congestion, params)
            assert calls == {"_power_law": 1}, kernel.__name__


def parent_transport_data(grid, parts, congestion, params):
    """``transport_jacobian``'s data as first written: a ``(dim, n)`` flux,
    summed into the cell's entry from 0 by ``add.reduce``, which turns a
    ``-0.0`` into ``+0.0``."""
    dm, dp, q = parts
    w = model._congestion_weight(q, congestion, params)
    dim, h = grid.dim, grid.h
    block = np.empty((2 * dim + 1, grid.ncells))
    am = np.multiply(w, dm, out=block[1 : 1 + dim].reshape(dm.shape))
    ap = np.multiply(w, dp, out=block[1 + dim :].reshape(dp.shape))
    flux = am - ap
    flux /= h
    np.add.reduce(flux, axis=0, initial=0.0, out=block[0].reshape(grid.shape))
    np.negative(am, out=am)
    block[1:] /= h
    return block


def reference_systems(grid, data, nu):
    """The data of the Newton system ``I/dt - nu L + A`` and of the
    Kolmogorov system, its transpose, for the generator data ``data``;
    the Kolmogorov one transposes ``A`` alone, as the heat part is symmetric."""
    heat = implicit_heat_data(grid, nu)
    return heat + data, heat + data.take(stencil_pattern(grid).transpose)


class TestAssemblyParity:
    """The Newton system reads the generator's data as it stands, and the
    generator's cell entry is its axes' differences without a sum from 0:
    the systems equal the reference assembly of the generator as
    first written, bit for bit, and the generator equals it as values."""

    @pytest.mark.parametrize("mu", [1.0, 0.0])
    @pytest.mark.parametrize("dim,n", [(1, 5), (1, 16), (1, 64), (2, 5), (2, 8)])
    def test_systems_equal_the_reference_assembly(self, monkeypatch, dim, n, mu):
        grid = GridSpec(dim=dim, n=n, nt=n, horizon=1.0)
        params = ModelParams(nu=0.3, beta=1.5, alpha=0.6, mu=mu, horizon=1.0)
        rng = np.random.default_rng([dim, n, 5])
        m = capped_frame(grid, [dim, n, 5])
        u_next = rng.normal(size=grid.shape)
        u_next[rng.random(grid.shape) < 0.4] = -0.0
        if mu == 0.0:
            assert (m == 0.0).any()
        generators, solves = [], {"hjb": [], "fpk": []}
        jacobian = hjb.transport_jacobian

        def recording_jacobian(*args):
            generators.append((args, jacobian(*args)))
            return generators[-1][1]

        monkeypatch.setattr(hjb, "transport_jacobian", recording_jacobian)
        for name, module in (("hjb", hjb), ("fpk", fpk)):
            def recording_solve(grid, mat, rhs, nu, _solves=solves[name]):
                _solves.append(mat)
                return sparse_solve(grid, mat, rhs, nu)

            monkeypatch.setattr(module, "sparse_solve", recording_solve)
        f_level = COUPLING.f(m)
        _, transport, _ = hjb_step(grid, u_next, m, params, f_level)
        fpk.fpk_step(grid, m, transport, params)
        # one generator per Newton system, and one at the converged state
        assert len(generators) == len(solves["hjb"]) + 1 >= 2
        for (args, jac), newton in zip(generators, solves["hjb"] + [None]):
            parent = parent_transport_data(*args)
            assert np.array_equal(jac.data, parent)
            ref_newton, ref_kolmogorov = reference_systems(grid, parent, params.nu)
            if newton is None:
                [newton] = solves["fpk"]
                ref_newton = ref_kolmogorov
            assert_bits_equal(newton.data, ref_newton)

    @pytest.mark.parametrize("dim,n", [(1, 16), (2, 8)])
    def test_signed_zero_parts_give_equal_values(self, dim, n):
        """Hand-made parts with ``-0.0`` differences: the cell entry keeps
        the sign a direct difference gives, equal as a value, and the
        systems built on it are those of the sum from 0, bit for bit."""
        grid = GridSpec(dim=dim, n=n, nt=n, horizon=1.0)
        params = ModelParams(nu=0.3, beta=1.5, alpha=0.6, mu=1.0, horizon=1.0)
        rng = np.random.default_rng([dim, n, 6])
        shape = (dim, *grid.shape)
        dm = np.where(rng.random(shape) < 0.5, -0.0, rng.random(shape))
        dp = np.where(rng.random(shape) < 0.5, 0.0, -rng.random(shape))
        parts = (dm, dp, (dm**2 + dp**2).sum(axis=0))
        congestion = congestion_denominator(1.0 + rng.random(grid.shape), params)
        got = transport_jacobian(grid, parts, congestion, params).data
        parent = parent_transport_data(grid, parts, congestion, params)
        assert np.array_equal(got, parent)
        assert (np.signbit(got) != np.signbit(parent)).any()
        for system, ref in zip(
            reference_systems(grid, got, params.nu),
            reference_systems(grid, parent, params.nu),
        ):
            assert_bits_equal(system, ref)


class TestDensityGuard:
    def roundoff_trajectory(self):
        # a BiCGStab-solved FPK sweep from an indicator density at nu = 1e-5
        # returns entries in (-1e-12, 0) where the density is ~1e-22: the
        # solve's relative tolerance, not a sign defect of the scheme
        grid = GridSpec(dim=2, n=16, nt=16, horizon=1.0)
        params = ModelParams(nu=1e-5, beta=2.0, alpha=1.0, mu=1.0, horizon=1.0)
        m0 = np.zeros(grid.shape)
        m0[4:8, 4:8] = 1.0
        m0 /= m0.sum() * grid.cell_volume
        m_frozen = np.broadcast_to(m0, (grid.nt + 1, *grid.shape)).copy()
        sweep = solve_hjb_backward(grid, m_frozen, params, COUPLING)
        m_traj = solve_fpk_forward(grid, sweep.transports, m0, params)
        return grid, params, m_traj

    def test_sweep_accepts_fpk_roundoff(self):
        grid, params, m_traj = self.roundoff_trajectory()
        assert -NEGATIVE_TOL <= m_traj.min() < 0.0
        coupling = CouplingSpec(qf=0.5, qg=0.5)  # m**0.5 is NaN below zero
        result = solve_hjb_backward(grid, m_traj, params, coupling)
        assert np.all(np.isfinite(result.u))
        clipped = solve_hjb_backward(
            grid, np.maximum(m_traj, 0.0), params, coupling, HJBOptions()
        )
        assert_bits_equal(result.u, clipped.u)

    def test_negative_density_beyond_roundoff_rejected(self):
        grid = GridSpec(dim=1, n=16, nt=4, horizon=1.0)
        m_traj = uniform_traj(grid)
        m_traj[2, 3] = -10 * NEGATIVE_TOL
        with pytest.raises(ValueError, match="nonnegative"):
            solve_hjb_backward(grid, m_traj, PARAMS, COUPLING)
        with pytest.raises(ValueError, match="nonnegative"):
            hjb_step(grid, m_traj[0], m_traj[2], PARAMS, m_traj[2])

    def test_nonnegative_density_is_not_copied(self):
        m = uniform_traj(GridSpec(dim=1, n=16, nt=4, horizon=1.0))
        assert hjb._nonnegative(m, "density") is m


class TestBackwardSolve:
    def test_uniform_density_linear_value(self):
        # m = 1, F(m) = G(m) = m: u(t) = 1 + (T - t) for any nu
        grid = GridSpec(dim=1, n=16, nt=10, horizon=1.0)
        result = solve_hjb_backward(grid, uniform_traj(grid), PARAMS, COUPLING)
        expected = 1.0 + (1.0 - grid.times())[:, None]
        assert np.abs(result.u - expected).max() < 1e-12

    def test_zero_couplings_zero_value(self):
        grid = GridSpec(dim=1, n=16, nt=10, horizon=1.0)
        zero = CouplingSpec(cf=0.0, offset_f=0.0, cg=0.0, offset_g=0.0)
        result = solve_hjb_backward(grid, uniform_traj(grid), PARAMS, zero)
        assert np.abs(result.u).max() == 0.0

    def test_comparison_raised_couplings(self):
        grid = GridSpec(dim=1, n=16, nt=8, horizon=1.0)
        rng = np.random.default_rng(5)
        for _ in range(5):
            m_traj = np.abs(rng.random((grid.nt + 1, grid.n))) + 0.05
            lo = CouplingSpec(cf=1.0, offset_f=0.0, cg=1.0, offset_g=0.0)
            hi = CouplingSpec(cf=1.0, offset_f=0.4, cg=1.0, offset_g=0.9)
            u_lo = solve_hjb_backward(grid, m_traj, PARAMS, lo).u
            u_hi = solve_hjb_backward(grid, m_traj, PARAMS, hi).u
            assert (u_hi - u_lo).min() >= -1e-10

    def test_first_order_consistency(self):
        # frozen m = 1, smooth terminal data via G acting on smooth density
        params = ModelParams(nu=0.2, beta=2.0, alpha=1.0, mu=1.0, horizon=0.5)

        def solve_at(n):
            grid = GridSpec(dim=1, n=n, nt=n, horizon=0.5)
            x = grid.axis_centers()
            m_traj = np.tile(1.0 + 0.3 * np.sin(2 * np.pi * x), (grid.nt + 1, 1))
            res = solve_hjb_backward(grid, m_traj, params, COUPLING)
            return grid, res.u

        fine_grid, fine_u = solve_at(256)
        errors = []
        for n in (32, 64, 128):
            grid, u = solve_at(n)
            ref = restrict_traj(fine_grid, fine_u, 256 // n)
            errors.append(np.abs(u - ref).max())
        assert errors[0] > errors[1] > errors[2]
        assert 1.4 < errors[0] / errors[1] < 3.5
        assert 1.4 < errors[1] / errors[2] < 3.5

    def test_regularized_gradient_integral_stable(self):
        # int int |Du|^beta/(T m + mu)^alpha finite and stable under nt doubling
        params = ModelParams(nu=0.5, beta=1.5, alpha=0.8, mu=0.5, horizon=1.0)

        def integral(nt):
            grid = GridSpec(dim=1, n=64, nt=nt, horizon=1.0)
            x = grid.axis_centers()
            m_traj = np.tile(1.0 + 0.5 * np.cos(2 * np.pi * x), (grid.nt + 1, 1))
            res = solve_hjb_backward(
                grid, m_traj, replace(params, epsilon=0.1), COUPLING, HJBOptions()
            )
            from congestion_mfg.hjb import hamiltonian_values

            total = 0.0
            for k in range(grid.nt):
                parts = upwind_parts(grid, res.u[k])
                congestion = congestion_denominator(
                    m_traj[k], replace(params, epsilon=0.1)
                )
                h_vals = hamiltonian_values(grid, parts, congestion, params)
                total += grid.dt * grid.h * float((params.beta * h_vals).sum())
            return total

        coarse, fine = integral(64), integral(128)
        assert np.isfinite(coarse) and coarse > 0
        assert abs(fine - coarse) <= 0.10 * abs(coarse)


class TestTransport:
    def test_jacobian_row_sums_and_signs(self):
        rng = np.random.default_rng(3)
        for grid in (GridSpec(dim=1, n=16, nt=2, horizon=1.0), GridSpec(dim=2, n=8, nt=2, horizon=1.0)):
            u = rng.normal(size=grid.shape)
            m = np.abs(rng.random(grid.shape))
            congestion = congestion_denominator(m, PARAMS)
            jac = as_csr(transport_jacobian(grid, upwind_parts(grid, u), congestion, PARAMS))
            assert np.abs(jac @ np.ones(grid.ncells)).max() < 1e-11
            assert jac.diagonal().min() >= 0.0
            off = jac - __import__("scipy.sparse", fromlist=["diags"]).diags(jac.diagonal())
            assert off.max() <= 1e-14

    def test_euler_identity_jacobian_vs_hamiltonian(self):
        # A u = beta * g exactly for the beta-homogeneous numerical Hamiltonian
        from congestion_mfg.hjb import hamiltonian_values

        rng = np.random.default_rng(4)
        for beta in (1.5, 1.8, 2.0):
            params = ModelParams(nu=0.5, beta=beta, alpha=0.7, mu=0.4, horizon=1.0)
            grid = GridSpec(dim=1, n=32, nt=2, horizon=1.0)
            u = rng.normal(size=grid.shape)
            m = np.abs(rng.random(grid.shape)) + 0.1
            parts, congestion = upwind_parts(grid, u), congestion_denominator(m, params)
            jac = transport_jacobian(grid, parts, congestion, params)
            g = hamiltonian_values(grid, parts, congestion, params)
            lhs = jac.dot(u.ravel())
            assert np.allclose(lhs, beta * g.ravel(), rtol=1e-11, atol=1e-11)

    def test_truncation_enters_denominator(self):
        grid = GridSpec(dim=1, n=16, nt=2, horizon=1.0)
        rng = np.random.default_rng(6)
        u = rng.normal(size=grid.shape)
        m = np.full(grid.shape, 50.0)  # above the cap 1/eps = 10
        from congestion_mfg.hjb import hamiltonian_values

        parts = upwind_parts(grid, u)
        capped = hamiltonian_values(
            grid, parts, congestion_denominator(m, replace(PARAMS, epsilon=0.1)), PARAMS
        )
        manual = hamiltonian_values(
            grid, parts, congestion_denominator(np.full(grid.shape, 10.0), PARAMS), PARAMS
        )
        assert np.allclose(capped, manual, rtol=1e-14)


class TestNonFiniteGuard:
    def test_nan_terminal_data_rejected(self):
        grid = GridSpec(dim=1, n=16, nt=4, horizon=1.0)
        u_next = np.full(grid.shape, np.nan)
        m = np.ones(grid.shape)
        with pytest.raises(NonFiniteState):
            hjb_step(grid, u_next, m, PARAMS, COUPLING.f(m))
