"""Congestion Hamiltonian family, the power coupling, and structural checkers.

The running model is the power-law congestion Hamiltonian

    H(m, p) = (1/beta) |p|^beta / (m + mu)^alpha,      beta in (1, 2], alpha > 0,

whose convex conjugate is the movement cost :func:`congestion_lagrangian`
``L(m, w) = c_beta (m + mu)^gamma |w|^{beta'}`` with ``gamma = alpha/(beta-1)``,
``beta' = beta/(beta-1)`` and ``c_beta = 1/beta'``.  ``mu = 0`` is the singular
regime where H is undefined at ``m = 0``; there the guarded evaluations give
H = 0 and H_p = 0 on the empty cells ``m <= M_FLOOR``, whose congestion
factor is ``+inf``.

The power law lives here once: :func:`_congestion_h` gives H and
:func:`_congestion_weight` the factor of ``H_p`` on a congestion factor;
``eval_H``, ``eval_Hp``, the guarded evaluation and the HJB kernels all call
them.

Everything in this module is a pure function of its arguments and safe to
call concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import SingularEvaluation

__all__ = [
    "ModelParams",
    "CouplingSpec",
    "StructureReport",
    "eval_H",
    "eval_Hp",
    "check_structure",
    "uniqueness_integrand",
    "congestion_denominator",
    "congestion_lagrangian",
]

# densities at or below this are empty cells in the singular regime
M_FLOOR = 1e-10


@dataclass(frozen=True)
class ModelParams:
    """Structural constants of the congestion model.

    ``beta`` is the gradient exponent, ``alpha`` the congestion exponent,
    ``mu`` the congestion offset (0 flags the singular regime), ``nu`` the
    diffusion coefficient, ``horizon`` the time horizon T, and ``epsilon`` the
    scheme's width: density cap ``1/epsilon`` inside H, coupling mollifier.  The
    Lagrangian exponents and normalization are properties.  Out-of-range
    ``beta`` or ``alpha`` are representable so that :func:`check_structure`
    can report on them; the solvers reject them at entry.
    """

    nu: float
    beta: float
    alpha: float
    mu: float
    horizon: float
    epsilon: float = 0.0

    def __post_init__(self):
        if not 0 < self.nu < np.inf:
            raise ValueError(f"nu must be positive and finite, got {self.nu}")
        if not 0 < self.horizon < np.inf:
            raise ValueError(f"horizon must be positive and finite, got {self.horizon}")
        if not 0 <= self.mu < np.inf:
            raise ValueError(f"mu must be nonnegative and finite, got {self.mu}")
        if not 0 <= self.epsilon < np.inf:
            raise ValueError(f"epsilon must be nonnegative and finite, got {self.epsilon}")
        if self.beta == 1.0:
            raise ValueError("beta = 1 is outside the model family")

    # -- derived Lagrangian data ------------------------------------------
    @property
    def beta_prime(self) -> float:
        return self.beta / (self.beta - 1.0)

    @property
    def gamma(self) -> float:
        """Lagrangian congestion exponent alpha/(beta-1)."""
        return self.alpha / (self.beta - 1.0)

    @property
    def c_beta(self) -> float:
        """Lagrangian normalization 1/beta' = (beta-1)/beta."""
        return (self.beta - 1.0) / self.beta

    @property
    def is_singular(self) -> bool:
        return self.mu == 0.0


@dataclass(frozen=True)
class CouplingSpec:
    """Coupling costs F (running) and G (terminal), nondecreasing in m.

    The coupling is the power law ``F(m) = cf m^qf + offset_f`` and
    ``G(m) = cg m^qg + offset_g`` with finite nonnegative coefficients and
    exponents and finite offsets, bounded below by ``c4 = min(F(0), G(0))``.
    F and G share one evaluation: F reads the ``f`` constants, G the ``g`` ones.
    """

    cf: float = 1.0
    qf: float = 1.0
    offset_f: float = 0.0
    cg: float = 1.0
    qg: float = 1.0
    offset_g: float = 0.0

    def __post_init__(self):
        if not all(0 <= c < np.inf for c in (self.cf, self.cg, self.qf, self.qg)):
            raise ValueError("coupling needs finite nonnegative cf, cg, qf, qg")
        if not all(abs(c) < np.inf for c in (self.offset_f, self.offset_g)):
            raise ValueError(f"coupling needs finite offsets, got {self.offset_f}, {self.offset_g}")

    def _cost(self, m, coeff, power, offset):
        m = np.asarray(m, dtype=float)
        out = coeff * m**power + offset
        return out if out.ndim else float(out)

    def f(self, m):
        """Running cost F(m)."""
        return self._cost(m, self.cf, self.qf, self.offset_f)

    def g(self, m):
        """Terminal cost G(m)."""
        return self._cost(m, self.cg, self.qg, self.offset_g)

    def level_costs(self, m_traj):
        """F at every level of a density trajectory but the last, G at the last."""
        return np.concatenate([self.f(m_traj[:-1]), self.g(m_traj[-1:])])

    @property
    def c4(self) -> float:
        """Common lower bound of F and G (attained at m = 0)."""
        return min(self.f(0.0), self.g(0.0))


# ---------------------------------------------------------------------------
# Hamiltonian evaluation
# ---------------------------------------------------------------------------


def _as_density_gradient(m, p):
    m = np.asarray(m, dtype=float)
    p = np.asarray(p, dtype=float)
    if p.ndim == m.ndim:
        # single component given without a leading axis
        p = p[None]
    return m, p


def _paper_h_parts(m, p, params: ModelParams):
    """``(p, |p|^2, (m + mu)^alpha)`` of the paper's H, which is undefined
    where ``mu = 0``, ``m = 0`` and ``p != 0``."""
    m, p = _as_density_gradient(m, p)
    pnorm2 = (p**2).sum(axis=0)
    if params.mu == 0.0 and np.any((m <= 0.0) & (pnorm2 > 0.0)):
        raise SingularEvaluation(
            "H undefined: mu = 0 with zero density and nonzero gradient"
        )
    return p, pnorm2, (m + params.mu) ** params.alpha


def _power_law(q, den, exponent: float, scale: float = 1.0):
    """``q**exponent / (scale * den)`` where ``q > 0``, else 0: the congestion
    power law at ``q = |p|^2``, extended by 0 at ``p = 0``.

    Evaluated in place on a zero-initialised output with ``where=q > 0``:
    the power and the division run only on the positive cells, so
    ``0**negative`` is never formed and ``den``, which may vanish there in
    the singular regime, is never read where ``q = 0``; an infinite ``den``
    gives 0.  The operands are broadcast only when their shapes differ;
    ``q`` is an array or a numpy scalar, ``den`` may also be a Python float.
    """
    if q.shape != getattr(den, "shape", ()):
        q, den = np.broadcast_arrays(q, den)
    mask = np.greater(q, 0.0)
    out = np.power(q, exponent, out=np.zeros(mask.shape), where=mask)
    return np.divide(out, den if scale == 1.0 else scale * den, out=out, where=mask)


def _congestion_h(q, den, params: ModelParams):
    """H = q^{beta/2}/(beta den) for the congestion factor ``den``."""
    return _power_law(q, den, params.beta / 2.0, params.beta)


def _congestion_weight(q, den, params: ModelParams):
    """Factor q^{beta/2-1}/den of ``H_p = factor * p``."""
    return _power_law(q, den, params.beta / 2.0 - 1.0)


def eval_H(m, p, params: ModelParams):
    """H(m, p) = (1/beta) |p|^beta / (m + mu)^alpha, with H(m, 0) = 0.

    ``p`` has the component axis first; scalars broadcast.  Raises
    :class:`SingularEvaluation` in the singular regime at ``m = 0, p != 0``.
    """
    _, pnorm2, congestion = _paper_h_parts(m, p, params)
    out = _congestion_h(pnorm2, congestion, params)
    return float(out) if out.ndim == 0 else out


def eval_Hp(m, p, params: ModelParams):
    """Gradient H_p = |p|^{beta-2} p / (m + mu)^alpha, extended by 0 at p = 0."""
    p, pnorm2, congestion = _paper_h_parts(m, p, params)
    return _congestion_weight(pnorm2, congestion, params) * p


def congestion_lagrangian(m, w, params: ModelParams):
    """Movement cost L(m, w) = c_beta (m + mu)^gamma |w|^{beta'}.

    The convex conjugate of H in the gradient, H(m, p) = sup_w(-p.w - L(m, w)),
    attained at w = -H_p, where L(m, -H_p) = H_p.p - H.  ``w`` has the
    component axis first; scalars broadcast.
    """
    m, w = _as_density_gradient(m, w)
    weight = params.c_beta * (m + params.mu) ** params.gamma
    out = weight * np.linalg.norm(w, axis=0) ** params.beta_prime
    return float(out) if out.ndim == 0 else out


def congestion_denominator(m, params: ModelParams):
    """Congestion factor ``(min(m, 1/epsilon) + mu)^alpha`` of the solvers and
    diagnostics, no cap at epsilon = 0.

    In the singular regime the factor is floored at ``M_FLOOR^alpha`` and is
    ``+inf`` on the empty cells ``m <= M_FLOOR``, so H and H_p vanish there
    (the 1_{m>0} factors of the weak formulation).
    """
    m = np.asarray(m, dtype=float)
    tm = np.minimum(m, 1.0 / params.epsilon) if params.epsilon > 0.0 else m
    if params.mu > 0.0:
        return (tm + params.mu) ** params.alpha
    return np.where(m > M_FLOOR, np.maximum(tm, M_FLOOR) ** params.alpha, np.inf)


def _guarded_h_hp(m, p, params: ModelParams):
    """Vectorized model (H, H_p), without the scheme's cap, floor-guarded."""
    m, p = _as_density_gradient(m, p)
    pnorm2 = (p**2).sum(axis=0)
    congestion = congestion_denominator(m, replace(params, epsilon=0.0))
    hval = _congestion_h(pnorm2, congestion, params)
    return hval, _congestion_weight(pnorm2, congestion, params) * p


# ---------------------------------------------------------------------------
# Structural assumption checks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StructureReport:
    valid_ranges: bool
    uniqueness_threshold: float
    uniqueness_ok: bool
    violations: tuple[str, ...] = ()


def check_structure(params: ModelParams) -> StructureReport:
    """Report-only validation of the exponent ranges and the uniqueness threshold.

    ``valid_ranges`` is the admissible window 1 < beta <= 2, 0 < alpha < inf;
    ``uniqueness_ok`` is the monotonicity threshold alpha <= 4(beta-1)/beta
    (strictly below 2 in the singular quadratic case).  The paper's
    gradient-square bound m^{gamma+1} (|H_p|^2 - C0) <= C1 m (H_p.p - H + C2)
    holds throughout the window for the power family, so nothing samples it:
    C0 = max(1, 2^{gamma-1}) absorbs the (m+mu)^gamma split, C1 = beta' and
    C1 C2 = C0 mu^gamma.
    """
    beta, alpha = params.beta, params.alpha
    violations = []
    if not 1.0 < beta <= 2.0:
        violations.append(f"beta={beta:g} outside (1, 2]")
    if not 0.0 < alpha < np.inf:
        violations.append(f"alpha={alpha:g} not positive and finite")

    threshold = 4.0 * (beta - 1.0) / beta
    uniq = alpha <= threshold
    if params.is_singular and beta == 2.0:
        uniq = uniq and alpha < 2.0

    return StructureReport(
        valid_ranges=not violations,
        uniqueness_threshold=threshold,
        uniqueness_ok=uniq,
        violations=tuple(violations),
    )


# ---------------------------------------------------------------------------
# Uniqueness bracket
# ---------------------------------------------------------------------------


def _uniqueness_bracket(m1, p1, m2, p2, params: ModelParams, coupling: CouplingSpec):
    """``(E, (F1 - F2)(m1 - m2), (H1, H_p1), (H2, H_p2))``: the bracket of
    :func:`uniqueness_integrand` with its coupling term and the guarded
    values it is built from."""
    m1, p1 = _as_density_gradient(m1, p1)
    m2, p2 = _as_density_gradient(m2, p2)
    h1, hp1 = _guarded_h_hp(m1, p1, params)
    h2, hp2 = _guarded_h_hp(m2, p2, params)
    flux = ((m1 * hp1 - m2 * hp2) * (p1 - p2)).sum(axis=0)
    f_vals = (coupling.f(m1) - coupling.f(m2)) * (m1 - m2)
    e_vals = -(h1 - h2) * (m1 - m2) + flux + f_vals
    return e_vals, f_vals, (h1, hp1), (h2, hp2)


def uniqueness_integrand(m1, p1, m2, p2, params: ModelParams, coupling: CouplingSpec):
    """Pointwise uniqueness bracket

        E = -(H1 - H2)(m1 - m2) + (m1 H_p1 - m2 H_p2).(p1 - p2)
            + (F(m1) - F(m2))(m1 - m2),

    nonnegative exactly when the segment monotonicity condition holds: on
    consecutive samples ``s + delta, s`` of ``(m + s z, p + s r)`` it is
    ``delta`` times the increment of ``h(s) = -z H + m_s H_p.r + z F(m_s)``.
    Vectorized over trailing axes; gradients carry the component axis first.
    Singular-regime inputs are evaluated with the floor guard.
    """
    return _uniqueness_bracket(m1, p1, m2, p2, params, coupling)[0]
