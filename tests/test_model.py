"""Hamiltonian family, its Legendre pair, structural checkers, uniqueness bracket."""

from dataclasses import replace

import mpmath
import numpy as np
import pytest

from congestion_mfg.coupler import ContinuationSchedule, FixedPointOptions
from congestion_mfg.errors import SingularEvaluation
from congestion_mfg.hjb import HJBOptions
from congestion_mfg.model import (
    M_FLOOR,
    CouplingSpec,
    ModelParams,
    _congestion_h,
    _congestion_weight,
    _power_law,
    check_structure,
    congestion_denominator,
    congestion_lagrangian,
    eval_H,
    eval_Hp,
    uniqueness_integrand,
)

import conftest
from conftest import reference_conjugate


def make_params(beta=2.0, alpha=1.0, mu=1.0, nu=0.5, horizon=1.0):
    return ModelParams(nu=nu, beta=beta, alpha=alpha, mu=mu, horizon=horizon)


def hp2_constants(params):
    """(C0, C1, C2) making the gradient-square bound

        m^{gamma+1} (|H_p|^2 - C0) <= C1 m (H_p.p - H + C2)

    hold for the power family: C0 = max(1, 2^{gamma-1}) absorbs the
    (m+mu)^gamma split, C1 = beta' comes from H_p.p - H = H/(beta'-1), and
    C1*C2 = C0*mu^gamma covers the mu-offset remainder.
    """
    c0 = max(1.0, 2.0 ** (params.gamma - 1.0))
    c1 = params.beta_prime
    c2 = c0 * params.mu**params.gamma / c1 if params.mu > 0 else 0.0
    return c0, c1, c2


class TestDerivedConstants:
    def test_lagrangian_normalization(self):
        p = make_params(beta=1.5, alpha=0.75)
        assert p.beta_prime == 3.0
        assert p.gamma == 1.5
        assert p.c_beta == pytest.approx((1.5 - 1.0) / 1.5)
        assert p.c_beta == pytest.approx(1.0 / p.beta_prime)

    def test_sharp_growth_constants(self):
        # H >= c0 |p|^beta/(m+mu)^alpha - c1 with the sharp c0 = 1/beta, c1 = 0:
        # the power family attains the bound with equality
        p = make_params(beta=1.8, alpha=0.5)
        m = np.array([0.0, 0.3, 1.0, 7.5])
        grad = np.array([[0.5, -2.0, 11.0, 1e-3], [1.0, 0.0, -4.0, 2e-3]])
        pnorm = np.sqrt((grad**2).sum(axis=0))
        expected = (1.0 / 1.8) * pnorm**1.8 / (m + 1.0) ** 0.5
        assert np.allclose(eval_H(m, grad, p), expected, rtol=1e-14, atol=0.0)

    def test_constructor_rejects_junk(self):
        with pytest.raises(ValueError):
            make_params(nu=0.0)
        with pytest.raises(ValueError):
            make_params(beta=1.0)
        with pytest.raises(ValueError):
            ModelParams(nu=1.0, beta=2.0, alpha=1.0, mu=-0.5, horizon=1.0)
        with pytest.raises(ValueError, match="epsilon"):
            ModelParams(nu=1.0, beta=2.0, alpha=1.0, mu=1.0, horizon=1.0, epsilon=-0.1)

    @pytest.mark.parametrize("horizon", [np.nan, np.inf])
    def test_non_finite_horizon_rejected(self, horizon):
        with pytest.raises(ValueError, match="horizon must be positive and finite"):
            make_params(horizon=horizon)


MODEL = dict(nu=0.5, beta=2.0, alpha=1.0, mu=1.0, horizon=1.0)


def fields_holding(bad):
    """Every range-checked float field, with a value holding ``bad``."""
    return {
        **{f"ModelParams.{key}": (ModelParams, {**MODEL, key: bad})
           for key in ("nu", "mu", "epsilon")},
        "FixedPointOptions.fp_tol": (FixedPointOptions, {"fp_tol": bad}),
        "HJBOptions.epsilon": (HJBOptions, {"epsilon": bad}),
        **{f"CouplingSpec.{key}": (CouplingSpec, {key: bad})
           for key in ("cf", "cg", "qf", "qg", "offset_f", "offset_g")},
        "ContinuationSchedule.epsilons": (ContinuationSchedule, {"epsilons": (bad, 0.1)}),
        "ContinuationSchedule.mus": (ContinuationSchedule, {"mus": (bad, 1.0)}),
    }


# a comparison with NaN is False, so a check written as ``x <= 0`` let NaN
# through; one written as ``x > 0`` lets an infinity through
NAN_FIELDS = fields_holding(float("nan"))
INF_FIELDS = {f"{key}=inf": case for key, case in fields_holding(np.inf).items()}


@pytest.mark.parametrize(
    "kind, kwargs", [*NAN_FIELDS.values(), *INF_FIELDS.values()], ids=[*NAN_FIELDS, *INF_FIELDS]
)
def test_nan_fails_the_range_check(kind, kwargs):
    with pytest.raises(ValueError):
        kind(**kwargs)


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
        # |H_p| <= c2 (1 + |p|^{beta-1}/(m+mu)^alpha) + c3, sharp c2 = 1, c3 = 0
        rng = np.random.default_rng(0)
        p = make_params(beta=1.7, alpha=1.2, mu=0.3)
        c2 = 1.0
        for _ in range(200):
            m = rng.uniform(0, 10)
            grad = rng.normal(size=2) * 10 ** rng.uniform(-3, 2)
            hp = eval_Hp(m, grad, p)
            bound = c2 * (
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


class TestEmptyCells:
    def test_factor_is_infinite_exactly_on_empty_cells(self):
        params = make_params(beta=1.5, alpha=0.6, mu=0.0)
        m = np.array([-1e-13, 0.0, 1e-12, M_FLOOR, 2e-10, 0.5, 3.0])
        empty = m <= M_FLOOR
        with np.errstate(all="raise"):
            den = congestion_denominator(m, params)
            assert np.array_equal(den[~empty], m[~empty] ** 0.6)
            assert (den[empty] == np.inf).all()
            # H and the factor of H_p are +0.0 there, as the masked pair gave
            for kernel in (_congestion_h, _congestion_weight):
                got = kernel(np.full(m.shape, 2.0), den, params)[empty]
                assert np.array_equal(got.view(np.int64), np.zeros(len(got), np.int64))


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
        # H_p.p = (1 + sigma) H with the convexity surplus sigma = beta - 1
        sigma = beta - 1.0
        assert np.allclose((hp * grad).sum(axis=0), (1.0 + sigma) * h, rtol=1e-12)

    @pytest.mark.parametrize(
        "beta,alpha,mu",
        [(2.0, 1.0, 1.0), (1.5, 0.6, 0.0), (2.0, 2.0, 0.5), (1.2, 1.0 / 3.0, 2.0),
         # gamma >= 32, where m^{gamma+1} overflows at m = 1e6; at beta = 2
         # and mu = 0 the bound is tight up to C0 m^{gamma+1}
         (2.0, 32.0, 1e-6), (1.5, 16.0, 0.0), (2.0, 40.0, 1.0), (2.0, 32.0, 0.0)],
    )
    def test_gradient_square_bound_on_log_grid(self, beta, alpha, mu):
        # in logarithms, wherever the left side is positive (the right side
        # always is): log lhs <= log(rhs (1 + 1e-9))
        p = make_params(beta=beta, alpha=alpha, mu=mu)
        C0, C1, C2 = hp2_constants(p)
        m = np.logspace(-6, 6, 49)[:, None]
        log_m, log_p = np.log(m), np.log(np.logspace(-6, 6, 49))[None, :]
        log_den = alpha * np.log(m + mu)
        log_hp_sq = 2.0 * (beta - 1.0) * log_p - 2.0 * log_den
        positive = log_hp_sq > np.log(C0)
        gap = np.log(C0) - np.where(positive, log_hp_sq, np.inf)
        log_lhs = (p.gamma + 1.0) * log_m + log_hp_sq + np.log1p(-np.exp(gap))
        log_bracket = beta * log_p - log_den - np.log(p.beta_prime)
        log_c2 = np.log(C2) if C2 > 0 else -np.inf
        log_rhs = np.log(C1) + log_m + np.logaddexp(log_bracket, log_c2)
        assert positive.any()
        assert np.all(log_lhs[positive] <= (log_rhs + np.log1p(1e-9))[positive])


class TestCheckStructure:
    def test_quadratic_threshold(self):
        rep = check_structure(make_params(beta=2.0, alpha=2.0, mu=1.0))
        assert rep.valid_ranges and rep.uniqueness_ok
        assert rep.uniqueness_threshold == 2.0

    @pytest.mark.parametrize("beta,alpha,mu", [(2.0, 32.0, 1e-6), (1.01, 31.6, 10.0)])
    def test_large_gamma_is_valid(self, beta, alpha, mu):
        # gamma >= 32, where m^{gamma+1} and mu^gamma leave the double range
        # (gamma = 3160 in the second row): the report decides only the ranges
        # and the threshold, so it neither warns nor raises
        rep = check_structure(make_params(beta=beta, alpha=alpha, mu=mu))
        assert rep.valid_ranges and not rep.uniqueness_ok
        assert rep.violations == ()

    def test_above_threshold(self):
        rep = check_structure(make_params(beta=1.5, alpha=1.4))
        assert rep.valid_ranges
        assert rep.uniqueness_threshold == pytest.approx(4.0 / 3.0)
        assert not rep.uniqueness_ok

    def test_range_violation(self):
        rep = check_structure(make_params(beta=2.5, alpha=1.0))
        assert not rep.valid_ranges
        assert any("beta" in v for v in rep.violations)

    def test_infinite_alpha_is_a_violation(self):
        # alpha = inf passed ``alpha > 0``: check and solve exited 0
        rep = check_structure(make_params(alpha=np.inf))
        assert not rep.valid_ranges
        assert rep.violations == ("alpha=inf not positive and finite",)

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


def legendre_residual(m, p, params):
    """|H(m, p) - sup_w(-p.w - L(m, w))|, the supremum located numerically."""
    return abs(eval_H(m, p, params) - reference_conjugate(m, p, params))


# c08's parameter sets: quadratic and sub-quadratic, singular and regular
LEGENDRE_SETS = [(2.0, 1.0, 0.0), (1.5, 1.0, 0.1), (1.8, 0.5, 1.0), (2.0, 2.0, 1.0),
                 (1.2, 0.25, 0.5)]


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
        for beta, alpha, mu in [(2.0, 1.0, 0.0), (1.5, 1.0, 0.1), (1.8, 0.5, 1.0)]:
            p = make_params(beta=beta, alpha=alpha, mu=mu)
            for _ in range(20):
                m = rng.uniform(0.1, 3.0)
                grad = rng.normal(size=2)
                assert legendre_residual(m, grad, p) <= 1e-5

    def test_wrong_normalization_detected(self, monkeypatch):
        # a Lagrangian with the wrong weight does not conjugate back to H
        p = make_params(beta=1.5, alpha=1.0, mu=0.5)
        res_correct = legendre_residual(1.0, [2.0], p)
        h = eval_H(1.0, [2.0], p)
        monkeypatch.setattr(
            conftest, "congestion_lagrangian", lambda m, w, q: 2.0 * congestion_lagrangian(m, w, q)
        )
        assert res_correct < 1e-6 < 0.05 * h < legendre_residual(1.0, [2.0], p)

    def test_box_too_small(self):
        # the maximizer |w| = (|p| / (m + mu)^gamma)^{1/2} = 35 lies outside the box
        p = make_params(beta=1.5, alpha=1.0, mu=0.0)
        with pytest.raises(AssertionError, match="edge of the box"):
            reference_conjugate(0.2, [50.0], p)


class TestCongestionLagrangian:
    def test_closed_form(self):
        # beta = 2: L = (1/2)(m + mu)^alpha |w|^2; m=1, mu=1, w=(3,4) -> 25
        assert congestion_lagrangian(1.0, [3.0, 4.0], make_params()) == 25.0
        assert congestion_lagrangian(0.0, [0.0], make_params(mu=0.0)) == 0.0

    @pytest.mark.parametrize("beta, alpha, mu", LEGENDRE_SETS)
    def test_fenchel_equality(self, beta, alpha, mu):
        # the supremum is attained at w = -H_p: L(m, -H_p) = H_p.p - H,
        # at random (m > 0, p) and at p = 0, where both sides are 0
        params = make_params(beta=beta, alpha=alpha, mu=mu)
        rng = np.random.default_rng(7)
        m = rng.uniform(0.1, 3.0, size=50)
        grad = np.concatenate([rng.normal(size=(2, 45)) * 10.0 ** rng.uniform(-3, 2, 45),
                               np.zeros((2, 5))], axis=1)
        h, hp = eval_H(m, grad, params), eval_Hp(m, grad, params)
        lhs = congestion_lagrangian(m, -hp, params)
        rhs = (hp * grad).sum(axis=0) - h
        assert np.all(lhs[45:] == 0.0) and np.all(rhs[45:] == 0.0)
        assert np.all(np.abs(lhs - rhs) <= 1e-13 * np.maximum(1.0, np.abs(h)))

    def test_vectorized_matches_pointwise(self):
        params = make_params(beta=1.5, alpha=0.6, mu=0.0)
        m = np.array([0.5, 1.0, 2.0])
        w = np.array([[1.0, -2.0, 0.0], [0.5, 0.0, 0.0]])
        each = [congestion_lagrangian(m[i], w[:, i], params) for i in range(3)]
        assert np.array_equal(congestion_lagrangian(m, w, params), each)


def segment_brackets(m, z, p, r, params, coupling, n_samples=101):
    """E on consecutive samples of the segment ``(m + s z, p + s r)``,
    ``s`` in [0, 1]: ``delta`` times the increments of
    ``h(s) = -z H + m_s H_p.r + z F(m_s)``, so h is increasing along the
    segment exactly when every value is positive."""
    s = np.linspace(0.0, 1.0, n_samples)
    ms = m + s * z
    ps = np.asarray(p, dtype=float)[:, None] + np.asarray(r, dtype=float)[:, None] * s
    return uniqueness_integrand(ms[1:], ps[:, 1:], ms[:-1], ps[:, :-1], params, coupling)


class TestMonotoneProbe:
    def test_power_model_in_regime(self):
        p = make_params(beta=2.0, alpha=1.0, mu=1.0)
        e = segment_brackets(1.0, 1.0, [1.0, 0.0], [1.0, 0.0], p, CouplingSpec())
        assert np.all(e > 0.0)

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
            if not np.all(segment_brackets(m, z, grad, r, p, coupling) > 0.0):
                witness = (m, z, grad, r)
                break
        assert witness is not None
        # and the same tuple is fine below the threshold
        below = make_params(beta=2.0, alpha=2.0, mu=1.0)
        ok = segment_brackets(*witness, below, coupling)
        assert np.all(ok > 0.0)


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

    @pytest.mark.parametrize("mu", [1.0, 0.0])
    def test_scheme_cap_stays_out_of_the_model_h(self, mu):
        """The bracket evaluates the paper's H: the scheme's density cap
        ``1/epsilon`` must not reach it, bit for bit."""
        rng = np.random.default_rng(5)
        p = make_params(beta=1.5, alpha=0.8, mu=mu)
        capped = replace(p, epsilon=0.5)
        m1 = 10 ** rng.uniform(-2, 2, 1000)
        m2 = m1 * (1.0 + 0.1 * rng.random(1000))
        assert (m1 > 1.0 / capped.epsilon).mean() > 0.25
        p1 = rng.normal(size=(1, 1000))
        p2 = p1 + 0.1 * rng.normal(size=(1, 1000))
        args = (m1, p1, m2, p2)
        got = uniqueness_integrand(*args, capped, CouplingSpec())
        ref = uniqueness_integrand(*args, p, CouplingSpec())
        assert np.array_equal(got.view(np.int64), ref.view(np.int64))
        # while the scheme's denominator does see the cap
        assert not np.array_equal(
            congestion_denominator(m1, capped), congestion_denominator(m1, p)
        )
