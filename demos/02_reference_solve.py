"""Full pipeline on the reference instance: solve, diagnose, export.

The crowd starts as a cosine bump, pays congestion through the Hamiltonian
denominator (m + 1) and running/terminal costs F(m) = G(m) = m, and relaxes
toward uniformity.  After the damped Picard iteration converges the script
evaluates the a-priori report and the energy identity, probes uniqueness by
re-solving from a different initialization, and writes a solution bundle.
"""

import numpy as np

from congestion_mfg import (
    CouplingSpec,
    GridSpec,
    ModelParams,
    apriori_report,
    crossed_energy_gap,
    energy_identity_residual,
    solve_mfg,
    uniqueness_gap,
)
from congestion_mfg.bundles import save_solution
from congestion_mfg.grid import integrate, l1_space_time

grid = GridSpec(dim=1, n=64, nt=64, horizon=1.0)
params = ModelParams(nu=0.5, beta=2.0, alpha=1.0, mu=1.0, horizon=1.0)
coupling = CouplingSpec()
x = grid.axis_centers()
m0 = 1.0 + 0.5 * np.cos(2.0 * np.pi * x)

sol = solve_mfg(grid, params, coupling, m0=m0)
inc = sol.meta["increments"]
print(f"converged in {sol.meta['outer_iters']} outer iterations "
      f"(final increment {inc[-1]:.2e})")
print("increment history (head):", [f"{v:.2e}" for v in inc[:6]])

report = apriori_report(sol)
print("\na-priori report:")
for key, value in report.to_flat_dict().items():
    print(f"  {key:<22} {value: .6e}")
print("energy residual:", energy_identity_residual(sol), "(first order in h, dt)")

# discrete uniqueness probe: a second solve from a bump-shaped initial guess,
# the same unit-mass density on every time level
guess = 1.0 + 0.3 * np.cos(2.0 * np.pi * x)
other = solve_mfg(
    grid, params, coupling, m0=m0,
    init_traj=np.tile(guess / integrate(grid, guess), (grid.nt + 1, 1)),
)
print("\nuniqueness probe (uniform vs bump Picard initialization):")
print("  L1(Q_T) gap in m    :", l1_space_time(grid, sol.m - other.m))
print("  uniqueness gap      :", uniqueness_gap(sol, other).gap)
print("  crossed energy gaps :", crossed_energy_gap(sol, other),
      crossed_energy_gap(other, sol))

save_solution(sol, "out/reference_bundle")
print("\nbundle written to out/reference_bundle "
      "(u.csv, m.csv, policy.csv, meta.json)")
