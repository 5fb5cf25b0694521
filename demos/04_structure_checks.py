"""Structural assumption checkers: ranges, Legendre duality, monotonicity.

Walks the admissible window 1 < beta <= 2, alpha <= 4(beta-1)/beta, certifies
the movement cost L = c_beta (m + mu)^gamma |w|^{beta'} as the convex
conjugate of H through the Fenchel equality L(m, -H_p) = H_p.p - H, which
holds exactly at the maximizer w = -H_p, and shows the uniqueness bracket E
flipping sign once alpha crosses the threshold.
"""

import numpy as np

from congestion_mfg import (
    CouplingSpec,
    ModelParams,
    check_structure,
    eval_H,
    eval_Hp,
    uniqueness_integrand,
)
from congestion_mfg.model import congestion_lagrangian

print("structure reports over a (beta, alpha) sweep:")
print("beta   alpha  valid  threshold  uniqueness")
for beta in (1.2, 1.5, 2.0, 2.5):
    for alpha in (0.5, 4.0 * (beta - 1.0) / beta, 3.0):
        p = ModelParams(nu=0.5, beta=beta, alpha=alpha, mu=1.0, horizon=1.0)
        rep = check_structure(p)
        print(f"{beta:<6g} {alpha:<6.3g} {str(rep.valid_ranges):<6} "
              f"{rep.uniqueness_threshold:<10.4g} {rep.uniqueness_ok}")

print("\nFenchel-equality residuals |L(m, -H_p) - (H_p.p - H)| / max(1, H)")
print("(certifying c_beta = 1/beta', gamma = alpha/(beta-1)):")
rng = np.random.default_rng(0)
for beta, alpha, mu in ((2.0, 1.0, 0.0), (1.5, 1.0, 0.1), (1.8, 0.5, 1.0)):
    p = ModelParams(nu=0.5, beta=beta, alpha=alpha, mu=mu, horizon=1.0)
    m, grad = rng.uniform(0.1, 3.0, size=10), rng.normal(size=(2, 10))
    h, hp = eval_H(m, grad, p), eval_Hp(m, grad, p)
    gap = congestion_lagrangian(m, -hp, p) - ((hp * grad).sum(axis=0) - h)
    worst = np.max(np.abs(gap) / np.maximum(1.0, h))
    print(f"  beta={beta} alpha={alpha} mu={mu}: worst residual {worst:.2e}")

print("\nmonotonicity of h(s) on a segment (power model in the regime):")
# E on consecutive samples is step times the increment of h(s), so h is
# increasing where every E is positive and its least slope is min E / step^2
p = ModelParams(nu=0.5, beta=2.0, alpha=1.0, mu=1.0, horizon=1.0)
s = np.linspace(0.0, 1.0, 101)
ms, ps = 1.0 + s, np.stack([1.0 + s, 0.0 * s])
e = uniqueness_integrand(ms[1:], ps[:, 1:], ms[:-1], ps[:, :-1], p, CouplingSpec())
slope = e.min() / (s[1] - s[0]) ** 2
print(f"  monotone={bool(np.all(e > 0.0))}, min slope={slope:.4f}")

print("\nE-bracket sign above the threshold (beta=2, alpha=3 > 2):")
p_bad = ModelParams(nu=0.5, beta=2.0, alpha=3.0, mu=1.0, horizon=1.0)
coupling = CouplingSpec()
for _ in range(20_000):
    m1 = rng.uniform(2.5, 20.0)
    z = rng.choice([-1.0, 1.0]) * 0.02 * m1
    p1 = np.array([rng.choice([-1.0, 1.0]) * 10 ** rng.uniform(1.5, 3.0)])
    ratio = 1.5 * abs(p1[0]) / (m1 + 1.0) * 10 ** rng.uniform(-0.3, 0.3)
    p2 = p1 + ratio * z * np.sign(p1)
    val = float(uniqueness_integrand(m1, p1, m1 + z, p2, p_bad, coupling))
    if val < 0.0:
        print(f"  negative witness: m={m1:.3f}, z={z:+.4f}, "
              f"p1={p1[0]:+.1f}, p2={p2[0]:+.1f}, E={val:.3e}")
        break
