"""Hamiltonian family, structural checkers, Legendre and monotonicity probes."""

import mpmath
import numpy as np
import pytest

from congestion_mfg.errors import (
    DegenerateDirection,
    SearchBoxTooSmall,
    SingularEvaluation,
)
from congestion_mfg.model import (
    CouplingSpec,
    GridSearchSpec,
    ModelParams,
    _power_law,
    check_structure,
    eval_H,
    eval_Hp,
    h_monotone_probe,
    legendre_residual,
    uniqueness_integrand,
)


def make_params(beta=2.0, alpha=1.0, mu=1.0, nu=0.5, horizon=1.0):
    return ModelParams(nu=nu, beta=beta, alpha=alpha, mu=mu, horizon=horizon)


class TestDerivedConstants:
    def test_lagrangian_normalization(self):
        p = make_params(beta=1.5, alpha=0.75)
        assert p.beta_prime == 3.0
        assert p.gamma == 1.5
        assert p.c_beta == pytest.approx((1.5 - 1.0) / 1.5)
        assert p.c_beta == pytest.approx(1.0 / p.beta_prime)

    def test_sharp_growth_constants(self):
        p = make_params(beta=1.8, alpha=0.5)
        assert p.c0 == pytest.approx(1.0 / 1.8)
        assert p.c1 == 0.0 and p.c3 == 0.0
        assert p.c2 == 1.0
        assert p.sigma == pytest.approx(0.8)

    def test_constructor_rejects_junk(self):
        with pytest.raises(ValueError):
            make_params(nu=0.0)
        with pytest.raises(ValueError):
            make_params(beta=1.0)
        with pytest.raises(ValueError):
            ModelParams(nu=1.0, beta=2.0, alpha=1.0, mu=-0.5, horizon=1.0)


class TestEvalH:
    def test_zero_gradient(self):
        assert eval_H(0.0, [0.0], make_params()) == 0.0
        assert eval_H(5.0, [0.0, 0.0], make_params()) == 0.0

    def test_closed_form(self):
        # (1/2)|p|^2/(m+1): m=1, p=(2,0) -> 4/(2*2) = 1
        assert eval_H(1.0, [2.0, 0.0], make_params(beta=2.0, alpha=1.0, mu=1.0)) == 1.0

    def test_against_high_precision_oracle(self):
        p = make_params(beta=1.5, alpha=1.0, mu=0.0)
        got = eval_H(3.0, [1.0, 1.0], p)
        with mpmath.workdps(50):
            pnorm = mpmath.sqrt(2)
            expected = pnorm**mpmath.mpf("1.5") / (mpmath.mpf("1.5") * 3)
            assert abs(got - float(expected)) < 1e-15

    def test_singular_rejection(self):
        p = make_params(mu=0.0)
        with pytest.raises(SingularEvaluation):
            eval_H(0.0, [1.0], p)
        with pytest.raises(SingularEvaluation):
            eval_Hp(0.0, [1.0], p)
        # m = 0 with p = 0 is the defined 0 value
        assert eval_H(0.0, [0.0], p) == 0.0

    def test_vectorized(self):
        p = make_params()
        m = np.array([0.0, 1.0, 2.0])
        grad = np.stack([np.array([0.0, 2.0, 1.0])])
        out = eval_H(m, grad, p)
        assert out.shape == (3,)
        assert out[0] == 0.0
        assert out[1] == pytest.approx(1.0)


class TestEvalHp:
    def test_closed_form(self):
        out = eval_Hp(1.0, [2.0, 0.0], make_params(beta=2.0, alpha=1.0, mu=1.0))
        assert np.allclose(out, [1.0, 0.0])

    def test_zero_gradient_extension(self):
        out = eval_Hp(5.0, [0.0, 0.0], make_params(beta=1.5, alpha=2.0, mu=0.7))
        assert np.array_equal(out, [0.0, 0.0])

    def test_euler_identity(self):
        # H_p.p - H = (1/beta') |p|^beta/(m+mu)^alpha
        p = make_params(beta=1.5, alpha=0.5, mu=0.2)
        m, grad = 1.0, np.array([1.0, 1.0])
        hp = eval_Hp(m, grad, p)
        lhs = float(hp @ grad) - eval_H(m, grad, p)
        expected = (1.0 / p.beta_prime) * np.linalg.norm(grad) ** 1.5 / (m + 0.2) ** 0.5
        assert lhs == pytest.approx(expected, rel=1e-14)

    def test_growth_bound_sampled(self):
        rng = np.random.default_rng(0)
        p = make_params(beta=1.7, alpha=1.2, mu=0.3)
        for _ in range(200):
            m = rng.uniform(0, 10)
            grad = rng.normal(size=2) * 10 ** rng.uniform(-3, 2)
            hp = eval_Hp(m, grad, p)
            bound = p.c2 * (
                1.0 + np.linalg.norm(grad) ** (p.beta - 1.0) / (m + p.mu) ** p.alpha
            )
            assert np.linalg.norm(hp) <= bound * (1 + 1e-12)


def _reference_power_law(q, den, exponent, scale=1.0):
    """Gather/scatter on the ``q > 0`` cells: the reference for the in-place kernel."""
    q, den = np.broadcast_arrays(q, den)
    out = np.zeros(q.shape)
    mask = q > 0.0
    out[mask] = q[mask] ** exponent / (scale * den[mask])
    return out


class TestPowerLawBitIdentical:
    @pytest.mark.parametrize("beta", [1.2, 1.5, 2.0, 3.0])
    def test_equals_gather_scatter_reference(self, beta):
        rng = np.random.default_rng(int(10 * beta))
        q = rng.random(257) * 10.0 ** rng.uniform(-12.0, 12.0, size=257)
        zeros = rng.random(257) < 0.3
        q[zeros] = 0.0
        q[:4] = 0.0  # a run of zero cells at the start
        den = rng.random(257) + 0.1
        den[zeros] = 0.0  # the singular regime: den may vanish where q does
        cases = {"array_den": den, "scalar_den": 1.7, "row_den": den[None, :]}
        for exponent, scale in ((beta / 2.0, beta), (beta / 2.0 - 1.0, 1.0)):
            for name, d in cases.items():
                # neither 0**negative nor x/0 may be formed
                with np.errstate(divide="raise", invalid="raise"):
                    got = _power_law(q, d, exponent, scale)
                ref = _reference_power_law(q, d, exponent, scale)
                assert got.shape == ref.shape, name
                assert np.array_equal(got.view(np.int64), ref.view(np.int64)), name

    def test_scalar_gradient(self):
        for q in (0.0, 2.5):
            got = _power_law(np.float64(q), np.float64(0.0 if q == 0 else 1.5), -0.25)
            ref = _reference_power_law(q, 0.0 if q == 0 else 1.5, -0.25)
            assert got.shape == () and got.view(np.int64) == ref.view(np.int64)


class TestStructuralInvariants:
    @pytest.mark.parametrize(
        "beta,alpha,mu",
        [(2.0, 1.0, 1.0), (1.5, 0.6, 0.5), (1.2, 0.25, 0.0), (2.0, 2.0, 1.0)],
    )
    def test_convexity_surplus_sampled(self, beta, alpha, mu):
        rng = np.random.default_rng(7)
        p = make_params(beta=beta, alpha=alpha, mu=mu)
        m = 10 ** rng.uniform(-3, 3, size=50) + (0.1 if mu == 0.0 else 0.0)
        grad = np.stack([10 ** rng.uniform(-3, 3, size=50) * rng.choice([-1, 1], 50)])
        h = eval_H(m, grad, p)
        hp = eval_Hp(m, grad, p)
        bracket = (hp * grad).sum(axis=0) - h
        assert np.all(bracket >= -1e-12)
        # the convexity surplus with sigma = beta-1 holds with equality
        assert np.allclose((hp * grad).sum(axis=0), (1.0 + p.sigma) * h, rtol=1e-12)

    @pytest.mark.parametrize(
        "beta,alpha,mu",
        [(2.0, 1.0, 1.0), (1.5, 0.6, 0.0), (2.0, 2.0, 0.5), (1.2, 1.0 / 3.0, 2.0)],
    )
    def test_gradient_square_bound_on_log_grid(self, beta, alpha, mu):
        p = make_params(beta=beta, alpha=alpha, mu=mu)
        C0, C1, C2 = p.hp2_constants
        m = np.logspace(-6, 6, 49)[:, None]
        pmag = np.logspace(-6, 6, 49)[None, :]
        den = (m + mu) ** alpha
        hp_sq = (pmag ** (beta - 1.0) / den) ** 2
        bracket = (1.0 / p.beta_prime) * pmag**beta / den
        lhs = m ** (p.gamma + 1.0) * (hp_sq - C0)
        rhs = C1 * m * (bracket + C2)
        assert np.all(lhs <= rhs + 1e-9 * np.maximum(1.0, np.abs(rhs)))


class TestCheckStructure:
    def test_quadratic_threshold(self):
        rep = check_structure(make_params(beta=2.0, alpha=2.0, mu=1.0))
        assert rep.valid_ranges and rep.uniqueness_ok
        assert rep.uniqueness_threshold == 2.0
        assert rep.hp2_sampled_ok

    def test_above_threshold(self):
        rep = check_structure(make_params(beta=1.5, alpha=1.4))
        assert rep.valid_ranges
        assert rep.uniqueness_threshold == pytest.approx(4.0 / 3.0)
        assert not rep.uniqueness_ok

    def test_range_violation(self):
        rep = check_structure(make_params(beta=2.5, alpha=1.0))
        assert not rep.valid_ranges
        assert any("beta" in v for v in rep.violations)

    def test_singular_quadratic_needs_strict(self):
        rep = check_structure(make_params(beta=2.0, alpha=2.0, mu=0.0))
        assert rep.valid_ranges and not rep.uniqueness_ok
        rep = check_structure(make_params(beta=2.0, alpha=1.9, mu=0.0))
        assert rep.uniqueness_ok


class TestRangeConsequences:
    def test_alpha_below_beta_in_admissible_window(self):
        # within the admissible window the threshold forces alpha <= beta,
        # with equality only at beta = alpha = 2
        for beta in np.linspace(1.01, 2.0, 25):
            threshold = 4.0 * (beta - 1.0) / beta
            assert threshold <= beta + 1e-12
            for alpha in np.linspace(1e-3, threshold, 7):
                assert alpha <= beta + 1e-12
        assert 4.0 * (2.0 - 1.0) / 2.0 == 2.0


class TestLegendreResidual:
    def test_quadratic_closed_form(self):
        p = make_params(beta=2.0, alpha=1.0, mu=0.0)
        res = legendre_residual(1.0, [1.0, 0.0], p)
        assert res <= 1e-6
        assert eval_H(1.0, [1.0, 0.0], p) == pytest.approx(0.5)

    def test_zero_gradient(self):
        res = legendre_residual(0.5, [0.0, 0.0], make_params())
        assert res == 0.0

    def test_generic_exponents(self):
        p = make_params(beta=1.5, alpha=1.0, mu=0.1)
        assert legendre_residual(2.0, [1.0, 1.0], p) <= 1e-5

    def test_random_sample_certifies_normalization(self):
        rng = np.random.default_rng(11)
        search = GridSearchSpec(radius=16.0, n_points=41)
        for beta, alpha, mu in [(2.0, 1.0, 0.0), (1.5, 1.0, 0.1), (1.8, 0.5, 1.0)]:
            p = make_params(beta=beta, alpha=alpha, mu=mu)
            for _ in range(20):
                m = rng.uniform(0.1, 3.0)
                grad = rng.normal(size=2)
                assert legendre_residual(m, grad, p, search) <= 1e-5

    def test_wrong_normalization_detected(self):
        # a Lagrangian with the wrong weight would not conjugate back to H
        p = make_params(beta=1.5, alpha=1.0, mu=0.5)
        res_correct = legendre_residual(1.0, [2.0], p)
        h = eval_H(1.0, [2.0], p)
        assert res_correct < 1e-6 < 0.05 * h

    def test_box_too_small(self):
        p = make_params(beta=1.5, alpha=1.0, mu=0.0)
        with pytest.raises(SearchBoxTooSmall):
            legendre_residual(0.2, [50.0], p, GridSearchSpec(radius=1.0))


class TestMonotoneProbe:
    def test_power_model_in_regime(self):
        p = make_params(beta=2.0, alpha=1.0, mu=1.0)
        res = h_monotone_probe(1.0, 1.0, [1.0, 0.0], [1.0, 0.0], p, CouplingSpec())
        assert res.monotone and res.min_slope > 0.0

    def test_degenerate_direction(self):
        with pytest.raises(DegenerateDirection):
            h_monotone_probe(1.0, 0.0, [0.0], [0.0], make_params(), CouplingSpec())

    def test_violation_found_above_threshold(self):
        # alpha = 3 > 2 = 4(beta-1)/beta for beta = 2: search finds a witness.
        # The bad cone pairs a density change with an aligned gradient change;
        # the gradient must be large enough that the congestion deficit beats
        # the coupling's own monotonicity, so |p| is drawn log-large.
        p = make_params(beta=2.0, alpha=3.0, mu=1.0)
        coupling = CouplingSpec()
        rng = np.random.default_rng(42)
        witness = None
        for _ in range(2000):
            m = rng.uniform(2.5, 20.0)
            z = rng.choice([-1.0, 1.0]) * 0.02 * m
            grad = np.array([rng.choice([-1.0, 1.0]) * 10 ** rng.uniform(1.5, 3.0)])
            ratio = 1.5 * abs(grad[0]) / (m + 1.0) * 10 ** rng.uniform(-0.3, 0.3)
            r = ratio * z * np.sign(grad)
            res = h_monotone_probe(m, z, grad, r, p, coupling)
            if not res.monotone:
                witness = (m, z, tuple(grad), tuple(r))
                break
        assert witness is not None
        # and the same tuple is fine below the threshold
        ok = h_monotone_probe(
            witness[0], witness[1], list(witness[2]), list(witness[3]),
            make_params(beta=2.0, alpha=2.0, mu=1.0), coupling,
        )
        assert ok.monotone


class TestUniquenessIntegrand:
    def test_zero_on_diagonal(self):
        p = make_params()
        val = uniqueness_integrand(1.0, [1.0], 1.0, [1.0], p, CouplingSpec())
        assert val == 0.0

    def test_sign_in_regime(self):
        rng = np.random.default_rng(3)
        p = make_params(beta=1.5, alpha=1.0, mu=1.0)
        coupling = CouplingSpec()
        m1 = 10 ** rng.uniform(-2, 2, 1000)
        m2 = m1 * (1.0 + 0.01 * rng.normal(size=1000))
        p1 = np.stack([10 ** rng.uniform(-2, 1, 1000) * rng.choice([-1, 1], 1000)])
        p2 = p1 + 0.01 * rng.normal(size=(1, 1000))
        vals = uniqueness_integrand(np.abs(m1), p1, np.abs(m2), p2, p, coupling)
        assert vals.min() >= -1e-10


class TestTabulatedCoupling:
    def test_interpolates_and_monotone(self):
        spec = CouplingSpec(
            family="tabulated",
            table_s=(0.0, 1.0, 2.0),
            table_f=(0.0, 1.0, 4.0),
            table_g=(0.5, 0.5, 1.0),
        )
        assert spec.f(0.5) == 0.5
        assert spec.f(1.5) == 2.5
        assert spec.g(0.25) == 0.5
        assert spec.c4 == 0.0

    def test_rejects_decreasing_table(self):
        with pytest.raises(ValueError):
            CouplingSpec(
                family="tabulated",
                table_s=(0.0, 1.0),
                table_f=(1.0, 0.0),
                table_g=(0.0, 1.0),
            )

    def test_rejects_unknown_family(self):
        with pytest.raises(ValueError):
            CouplingSpec(family="spline")
