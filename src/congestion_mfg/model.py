"""Congestion Hamiltonian family, couplings, and structural checkers.

The running model is the power-law congestion Hamiltonian

    H(m, p) = (1/beta) |p|^beta / (m + mu)^alpha,      beta in (1, 2], alpha > 0,

whose convex conjugate is the movement cost
``L(m, w) = c_beta (m + mu)^gamma |w|^{beta'}`` with ``gamma = alpha/(beta-1)``,
``beta' = beta/(beta-1)`` and ``c_beta = 1/beta'``.  ``mu = 0`` is the singular
regime where H is undefined at ``m = 0``; guarded evaluations floor the
density at ``m_floor`` and carry an ``m > m_floor`` activity indicator.

Everything in this module is a pure function of its arguments and safe to
call concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateDirection, SearchBoxTooSmall, SingularEvaluation

__all__ = [
    "ModelParams",
    "CouplingSpec",
    "StructureReport",
    "GridSearchSpec",
    "eval_H",
    "eval_Hp",
    "check_structure",
    "legendre_residual",
    "h_monotone_probe",
    "MonotoneProbeResult",
    "uniqueness_integrand",
    "truncate_density",
    "congestion_denominator",
]


@dataclass(frozen=True)
class ModelParams:
    """Structural constants of the congestion model.

    ``beta`` is the gradient exponent, ``alpha`` the congestion exponent,
    ``mu`` the congestion offset (0 flags the singular regime), ``nu`` the
    diffusion coefficient and ``horizon`` the time horizon T.  Derived
    quantities (Lagrangian exponent/normalization, sharp growth constants for
    the power family) are exposed as properties.  Out-of-range ``beta`` or
    ``alpha`` are representable so that :func:`check_structure` can report on
    them; the solvers reject them at entry.
    """

    nu: float
    beta: float
    alpha: float
    mu: float
    horizon: float
    m_floor: float = 1e-10

    def __post_init__(self):
        if self.nu <= 0:
            raise ValueError(f"nu must be positive, got {self.nu}")
        if self.horizon <= 0:
            raise ValueError(f"horizon must be positive, got {self.horizon}")
        if self.mu < 0:
            raise ValueError(f"mu must be nonnegative, got {self.mu}")
        if self.m_floor <= 0:
            raise ValueError(f"m_floor must be positive, got {self.m_floor}")
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

    # -- sharp structural constants for the power family ------------------
    @property
    def c0(self) -> float:
        """Coercivity constant: H >= c0 |p|^beta/(m+mu)^alpha."""
        return 1.0 / self.beta

    @property
    def c1(self) -> float:
        return 0.0

    @property
    def c2(self) -> float:
        """Gradient growth constant: |H_p| <= c2 (1 + |p|^{beta-1}/(m+mu)^alpha)."""
        return 1.0

    @property
    def c3(self) -> float:
        return 0.0

    @property
    def sigma(self) -> float:
        """Convexity surplus: H_p . p = (1 + sigma) H exactly, sigma = beta - 1."""
        return self.beta - 1.0

    @property
    def hp2_constants(self) -> tuple[float, float, float]:
        """Concrete (C0, C1, C2) making the derived gradient-square bound

            m^{gamma+1} (|H_p|^2 - C0) <= C1 m (H_p.p - H + C2)

        hold for this power family: C0 = max(1, 2^{gamma-1}) absorbs the
        (m+mu)^gamma split, C1 = beta' comes from H_p.p - H = H/ (beta'-1),
        and C1*C2 = C0*mu^gamma covers the mu-offset remainder.
        """
        c0 = max(1.0, 2.0 ** (self.gamma - 1.0))
        c1 = self.beta_prime
        c2 = c0 * self.mu**self.gamma / c1 if self.mu > 0 else 0.0
        return (c0, c1, c2)


@dataclass(frozen=True)
class CouplingSpec:
    """Coupling costs F (running) and G (terminal), nondecreasing in m.

    The power family is ``F(m) = cf m^qf + offset_f`` and
    ``G(m) = cg m^qg + offset_g`` with nonnegative coefficients and
    exponents; a tabulated family interpolates a nondecreasing table
    linearly.  Both are bounded below by ``c4 = min(F(0), G(0))``, and with
    ``f(s) = cf s^qf`` the envelope condition holds with ``lam = 1`` and
    ``kappa = |offset_f| +`` slack.
    """

    family: str = "power"
    cf: float = 1.0
    qf: float = 1.0
    offset_f: float = 0.0
    cg: float = 1.0
    qg: float = 1.0
    offset_g: float = 0.0
    table_s: tuple[float, ...] = field(default=())
    table_f: tuple[float, ...] = field(default=())
    table_g: tuple[float, ...] = field(default=())

    def __post_init__(self):
        if self.family not in ("power", "tabulated"):
            raise ValueError(f"unknown coupling family {self.family!r}")
        if self.family == "power":
            if min(self.cf, self.cg, self.qf, self.qg) < 0:
                raise ValueError("power coupling needs nonnegative cf, cg, qf, qg")
        else:
            for tab in (self.table_f, self.table_g):
                if len(tab) != len(self.table_s) or len(tab) < 2:
                    raise ValueError("tabulated coupling needs matching tables")
                if np.any(np.diff(tab) < 0):
                    raise ValueError("tabulated coupling must be nondecreasing")
            if np.any(np.diff(self.table_s) <= 0):
                raise ValueError("table abscissae must be strictly increasing")

    def f(self, m):
        """Running cost F(m)."""
        m = np.asarray(m, dtype=float)
        if self.family == "power":
            out = self.cf * m**self.qf + self.offset_f
        else:
            out = np.interp(m, self.table_s, self.table_f)
        return out if out.ndim else float(out)

    def g(self, m):
        """Terminal cost G(m)."""
        m = np.asarray(m, dtype=float)
        if self.family == "power":
            out = self.cg * m**self.qg + self.offset_g
        else:
            out = np.interp(m, self.table_s, self.table_g)
        return out if out.ndim else float(out)

    @property
    def c4(self) -> float:
        """Common lower bound of F and G (attained at m = 0)."""
        return min(self.f(0.0), self.g(0.0))

    @property
    def lam(self) -> float:
        return 1.0

    @property
    def kappa(self) -> float:
        return max(abs(self.offset_f), abs(self.offset_g)) + 1e-12


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


def _check_singular(m, pnorm2, params: ModelParams):
    if params.mu == 0.0 and np.any((m <= 0.0) & (pnorm2 > 0.0)):
        raise SingularEvaluation(
            "H undefined: mu = 0 with zero density and nonzero gradient"
        )


def _power_law(q, den, exponent: float, scale: float = 1.0):
    """``q**exponent / (scale * den)`` where ``q > 0``, else 0.

    The one evaluation of the congestion power law, with ``q = |p|^2``:
    exponent ``beta/2`` and scale ``beta`` give H, exponent ``beta/2 - 1``
    gives the factor of ``H_p = factor * p``.  Cells with ``q = 0`` get the
    ``p = 0`` extension 0 without reading ``den``, which may vanish there in
    the singular regime.  Each caller supplies its own denominator.

    Evaluated in place on a zero-initialised output with ``where=q > 0``:
    the power and the division run only on the positive cells, so
    ``0**negative`` is never formed and ``den`` is never read where
    ``q = 0``, and no masked copies are gathered or scattered.  The operands
    are broadcast only when their shapes differ.
    """
    if np.shape(q) != np.shape(den):
        q, den = np.broadcast_arrays(q, den)
    mask = np.greater(q, 0.0)
    out = np.power(q, exponent, out=np.zeros(mask.shape), where=mask)
    return np.divide(out, scale * den, out=out, where=mask)


def eval_H(m, p, params: ModelParams):
    """H(m, p) = (1/beta) |p|^beta / (m + mu)^alpha, with H(m, 0) = 0.

    ``p`` has the component axis first; scalars broadcast.  Raises
    :class:`SingularEvaluation` in the singular regime at ``m = 0, p != 0``.
    """
    m, p = _as_density_gradient(m, p)
    pnorm2 = (p**2).sum(axis=0)
    _check_singular(m, pnorm2, params)
    den = (m + params.mu) ** params.alpha
    out = _power_law(pnorm2, den, params.beta / 2.0, params.beta)
    return float(out) if out.ndim == 0 else out


def eval_Hp(m, p, params: ModelParams):
    """Gradient H_p = |p|^{beta-2} p / (m + mu)^alpha, extended by 0 at p = 0."""
    m, p = _as_density_gradient(m, p)
    pnorm2 = (p**2).sum(axis=0)
    _check_singular(m, pnorm2, params)
    den = (m + params.mu) ** params.alpha
    return _power_law(pnorm2, den, params.beta / 2.0 - 1.0) * p


def truncate_density(m, epsilon: float):
    """Density cap min(m, 1/epsilon); epsilon = 0 disables the truncation."""
    if epsilon <= 0.0:
        return np.asarray(m, dtype=float)
    return np.minimum(np.asarray(m, dtype=float), 1.0 / epsilon)


def congestion_denominator(m, params: ModelParams, epsilon: float = 0.0):
    """(den, active) pair used by the solvers and diagnostics.

    ``den = (min(m, 1/eps) + mu)^alpha``.  In the singular regime the
    denominator is floored at ``m_floor^alpha`` and ``active`` is the
    indicator of ``m > m_floor`` (mirroring the 1_{m>0} factors of the weak
    formulation); otherwise ``active`` is None, meaning identically one.
    """
    tm = truncate_density(m, epsilon)
    if params.mu > 0.0:
        return (tm + params.mu) ** params.alpha, None
    den = np.maximum(tm, params.m_floor) ** params.alpha
    active = (np.asarray(m, dtype=float) > params.m_floor).astype(float)
    return den, active


def _guarded_h_hp(m, p, params: ModelParams):
    """Vectorized (H, H_p) with the singular floor guard; no exceptions."""
    m, p = _as_density_gradient(m, p)
    pnorm2 = (p**2).sum(axis=0)
    den, active = congestion_denominator(m, params)
    hval = _power_law(pnorm2, den, params.beta / 2.0, params.beta)
    factor = _power_law(pnorm2, den, params.beta / 2.0 - 1.0)
    if active is not None:
        hval = hval * active
        factor = factor * active
    return hval, factor * p


# ---------------------------------------------------------------------------
# Structural assumption checks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StructureReport:
    valid_ranges: bool
    uniqueness_threshold: float
    uniqueness_ok: bool
    hp2_sampled_ok: bool
    violations: tuple[str, ...] = ()


def check_structure(params: ModelParams, n_grid: int = 25) -> StructureReport:
    """Report-only validation of the exponent ranges and derived bounds.

    ``valid_ranges`` is the admissible window 1 < beta <= 2, alpha > 0;
    ``uniqueness_ok`` is the monotonicity threshold alpha <= 4(beta-1)/beta
    (strictly below 2 in the singular quadratic case); ``hp2_sampled_ok``
    verifies the derived gradient-square inequality with this instance's
    concrete constants on a log-spaced (m, |p|) grid.
    """
    beta, alpha = params.beta, params.alpha
    violations = []
    if not 1.0 < beta <= 2.0:
        violations.append(f"beta={beta:g} outside (1, 2]")
    if not alpha > 0.0:
        violations.append(f"alpha={alpha:g} not positive")
    valid = not violations

    threshold = 4.0 * (beta - 1.0) / beta
    uniq = alpha <= threshold
    if params.is_singular and beta == 2.0:
        uniq = uniq and alpha < 2.0

    hp2_ok = _hp2_sampled(params, n_grid) if valid else False
    return StructureReport(
        valid_ranges=valid,
        uniqueness_threshold=threshold,
        uniqueness_ok=uniq,
        hp2_sampled_ok=hp2_ok,
        violations=tuple(violations),
    )


def _hp2_sampled(params: ModelParams, n_grid: int) -> bool:
    m = np.logspace(-6.0, 6.0, n_grid)[:, None]
    pmag = np.logspace(-6.0, 6.0, n_grid)[None, :]
    den = (m + params.mu) ** params.alpha
    hp_mag = pmag ** (params.beta - 1.0) / den
    bracket = (1.0 / params.beta_prime) * pmag**params.beta / den  # H_p.p - H
    C0, C1, C2 = params.hp2_constants
    lhs = m ** (params.gamma + 1.0) * (hp_mag**2 - C0)
    rhs = C1 * m * (bracket + C2)
    slack = 1e-9 * np.maximum(1.0, np.abs(rhs))
    return bool(np.all(lhs <= rhs + slack))


# ---------------------------------------------------------------------------
# Legendre-duality probe
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GridSearchSpec:
    """Search box for the conjugate maximization sup_w(-p.w - L(m, w))."""

    radius: float = 4.0
    n_points: int = 33
    n_refine: int = 200

    def __post_init__(self):
        if self.radius <= 0 or self.n_points < 3:
            raise ValueError("need radius > 0 and at least 3 grid points")


def legendre_residual(
    m: float, p, params: ModelParams, search: GridSearchSpec | None = None
) -> float:
    """|H(m, p) - sup_w(-p.w - c_beta (m+mu)^gamma |w|^{beta'})|.

    The supremum is located by a full grid search over the box and sharpened
    by golden-section refinement along the ray -p; a small residual certifies
    the derived values of c_beta and gamma.  Raises
    :class:`SearchBoxTooSmall` if the grid maximizer sits on the box edge.
    """
    search = search or GridSearchSpec()
    p = np.atleast_1d(np.asarray(p, dtype=float))
    weight = params.c_beta * (m + params.mu) ** params.gamma
    bp = params.beta_prime

    def value(w):
        return -(p @ w) - weight * np.linalg.norm(w) ** bp

    axis = np.linspace(-search.radius, search.radius, search.n_points)
    grids = np.meshgrid(*([axis] * p.size), indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=-1)
    vals = -(pts @ p) - weight * np.linalg.norm(pts, axis=-1) ** bp
    best_idx = int(np.argmax(vals))
    best_pt, best_val = pts[best_idx], vals[best_idx]
    if np.any(np.abs(np.abs(best_pt) - search.radius) < 1e-12):
        raise SearchBoxTooSmall(
            f"conjugate maximizer on the boundary of radius {search.radius}"
        )

    pnorm = float(np.linalg.norm(p))
    if pnorm > 0.0:
        # maximize s |p| - weight s^{beta'} over s in [0, radius]
        lo, hi = 0.0, search.radius
        invphi = (np.sqrt(5.0) - 1.0) / 2.0

        def ray(s):
            return s * pnorm - weight * s**bp

        a, b = hi - invphi * (hi - lo), lo + invphi * (hi - lo)
        fa, fb = ray(a), ray(b)
        for _ in range(search.n_refine):
            if fa < fb:
                lo, a, fa = a, b, fb
                b = lo + invphi * (hi - lo)
                fb = ray(b)
            else:
                hi, b, fb = b, a, fa
                a = hi - invphi * (hi - lo)
                fa = ray(a)
        best_val = max(best_val, ray(0.5 * (lo + hi)))

    return abs(eval_H(m, p, params) - best_val)


# ---------------------------------------------------------------------------
# Uniqueness monotonicity probes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MonotoneProbeResult:
    monotone: bool
    min_slope: float


def h_monotone_probe(
    m: float,
    z: float,
    p,
    r,
    params: ModelParams,
    coupling: CouplingSpec,
    n_samples: int = 101,
) -> MonotoneProbeResult:
    """Sample h(s) = -z H(m_s, p_s) + m_s H_p(m_s, p_s).r + z F(m_s) on [0, 1].

    ``m_s = m + s z``, ``p_s = p + s r``.  Monotone means every consecutive
    difference is positive; ``min_slope`` is the smallest difference quotient.
    """
    p = np.atleast_1d(np.asarray(p, dtype=float))
    r = np.atleast_1d(np.asarray(r, dtype=float))
    if z == 0.0 and not np.any(r):
        raise DegenerateDirection("probe direction (z, r) = (0, 0)")
    if z < -m:
        raise ValueError("z >= -m required so the segment density stays nonnegative")
    s = np.linspace(0.0, 1.0, n_samples)
    ms = m + s * z
    ps = p[:, None] + r[:, None] * s
    hvals = eval_H(ms, ps, params)
    hp = eval_Hp(ms, ps, params)
    h = -z * hvals + ms * (hp * r[:, None]).sum(axis=0) + z * coupling.f(ms)
    diffs = np.diff(h)
    step = s[1] - s[0]
    return MonotoneProbeResult(
        monotone=bool(np.all(diffs > 0.0)), min_slope=float(diffs.min() / step)
    )


def uniqueness_integrand(m1, p1, m2, p2, params: ModelParams, coupling: CouplingSpec):
    """Pointwise uniqueness bracket

        E = -(H1 - H2)(m1 - m2) + (m1 H_p1 - m2 H_p2).(p1 - p2)
            + (F(m1) - F(m2))(m1 - m2),

    nonnegative exactly when the segment monotonicity condition holds.
    Vectorized over trailing axes; gradients carry the component axis first.
    Singular-regime inputs are evaluated with the floor guard.
    """
    m1, p1 = _as_density_gradient(m1, p1)
    m2, p2 = _as_density_gradient(m2, p2)
    h1, hp1 = _guarded_h_hp(m1, p1, params)
    h2, hp2 = _guarded_h_hp(m2, p2, params)
    flux = ((m1 * hp1 - m2 * hp2) * (p1 - p2)).sum(axis=0)
    return (
        -(h1 - h2) * (m1 - m2)
        + flux
        + (coupling.f(m1) - coupling.f(m2)) * (m1 - m2)
    )
