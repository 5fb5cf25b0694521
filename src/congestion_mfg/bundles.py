"""Solution bundle directories: u.csv, m.csv, policy.csv, meta.json.

Field CSVs use the ``t,x[,y],value`` layout of :mod:`congestion_mfg.grid`
with 17 significant digits, so a written bundle reloads bit-identically.
The drift is scalar-valued in 1D and lives in ``policy.csv``; in 2D its two
components go to ``policy_x.csv`` and ``policy_y.csv`` (the mandated header
has a single value column).  ``meta.json`` carries the solver metadata
(epsilon, mu, outer_iters, increments, newton_residual_max,
wall_time_seconds) plus the grid, model and coupling constants needed to
re-run diagnostics from the bundle alone.  The width is ``model.epsilon``;
a bundle written before the model held it has only the top-level
``epsilon``, which :func:`load_solution` then reads.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict

import numpy as np

from .coupler import MFGSolution
from .grid import GridSpec, read_field_csv, write_field_csv
from .model import CouplingSpec, ModelParams

__all__ = ["save_solution", "load_solution"]


def save_solution(sol: MFGSolution, directory) -> None:
    os.makedirs(directory, exist_ok=True)
    grid = sol.grid
    write_field_csv(os.path.join(directory, "u.csv"), grid, sol.u)
    write_field_csv(os.path.join(directory, "m.csv"), grid, sol.m)
    if grid.dim == 1:
        write_field_csv(os.path.join(directory, "policy.csv"), grid, sol.policy[:, 0])
    else:
        for ax, name in enumerate(("policy_x.csv", "policy_y.csv")):
            write_field_csv(os.path.join(directory, name), grid, sol.policy[:, ax])

    meta = dict(sol.meta)
    meta["epsilon"] = sol.params.epsilon
    meta["grid"] = asdict(grid)
    meta["model"] = asdict(sol.params)
    meta["coupling"] = asdict(sol.coupling)
    with open(os.path.join(directory, "meta.json"), "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2)


def load_solution(directory) -> MFGSolution:
    with open(os.path.join(directory, "meta.json"), "r", encoding="utf-8") as fh:
        meta = json.load(fh)
    grid = GridSpec(**meta["grid"])
    params = ModelParams(**{"epsilon": meta["epsilon"], **meta["model"]})
    cdict = dict(meta["coupling"])
    for key in ("table_s", "table_f", "table_g"):
        cdict[key] = tuple(cdict.get(key, ()))
    coupling = CouplingSpec(**cdict)

    def read_traj(name):
        got_grid, traj = read_field_csv(os.path.join(directory, name))
        if (got_grid.dim, got_grid.n, got_grid.nt) != (grid.dim, grid.n, grid.nt):
            raise ValueError(f"{name} does not match the bundle grid")
        return traj

    u = read_traj("u.csv")
    m = read_traj("m.csv")
    policy = np.zeros((grid.nt + 1, grid.dim, *grid.shape))
    if grid.dim == 1:
        policy[:, 0] = read_traj("policy.csv")
    else:
        policy[:, 0] = read_traj("policy_x.csv")
        policy[:, 1] = read_traj("policy_y.csv")
    return MFGSolution(
        grid=grid, params=params, coupling=coupling, u=u, m=m, policy=policy, meta=meta
    )
