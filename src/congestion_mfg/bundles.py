"""Solution bundle directories and the field CSV files they hold.

A bundle is a directory of u.csv, m.csv, policy.csv and meta.json.  The drift
is scalar-valued in 1D and lives in ``policy.csv``; in 2D its two components
go to ``policy_x.csv`` and ``policy_y.csv`` (the mandated header has a single
value column).  ``meta.json`` carries the solver metadata (epsilon, mu,
outer_iters, increments, newton_residual_max, wall_time_seconds) plus the
grid, model and coupling constants needed to re-run diagnostics from the
bundle alone.  The width is ``model.epsilon``; a bundle written before the
model held it has only the top-level ``epsilon``, which :func:`load_solution`
then reads.  A bundle written while the empty-cell floor was a model
parameter holds ``model.m_floor``: it loads if that is ``model.M_FLOOR`` and
raises ``ValueError`` otherwise.

A field CSV has the header ``t,x[,y],value`` and one row per cell per time
level, cells in row-major order (x slowest in 2D), at 17 significant digits,
so a written field reloads bit-identically.  The readers take the grid the
file must be on and check the header, the row count and each row's ``t``,
``x`` and ``y`` against its place, to a quarter step or cell.  A violation,
a byte that is not UTF-8 or a suffix numpy opens as compressed raises
``ValueError`` naming the path: a transposed or re-stamped file is a different
field, not a readable one.  The rows are parsed from the path, which
``np.loadtxt`` reads in chunks in C; given an open handle, it makes one Python
string per row.
"""

from __future__ import annotations

import functools
import json
import os
from dataclasses import asdict

import numpy as np

from .coupler import MFGSolution
from .grid import GridSpec
from .model import M_FLOOR, CouplingSpec, ModelParams

__all__ = [
    "save_solution", "load_solution", "write_field_csv", "read_field_csv", "read_frame_csv"
]

_HEADERS = {1: "t,x,value", 2: "t,x,y,value"}
_POLICY_FILES = {1: ("policy.csv",), 2: ("policy_x.csv", "policy_y.csv")}
_COMPRESSED = (".gz", ".bz2", ".xz", ".lzma")  # suffixes np.loadtxt opens as compressed


def save_solution(sol: MFGSolution, directory) -> None:
    os.makedirs(directory, exist_ok=True)
    grid = sol.grid
    write_field_csv(os.path.join(directory, "u.csv"), grid, sol.u)
    write_field_csv(os.path.join(directory, "m.csv"), grid, sol.m)
    for ax, name in enumerate(_POLICY_FILES[grid.dim]):
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
    model = dict(meta["model"])
    floor = model.pop("m_floor", M_FLOOR)
    if floor != M_FLOOR:
        raise ValueError(f"{directory}: model.m_floor = {floor} is not M_FLOOR = {M_FLOOR}")
    params = ModelParams(**{"epsilon": meta["epsilon"], **model})
    cdict = dict(meta["coupling"])
    for key in ("table_s", "table_f", "table_g"):
        cdict[key] = tuple(cdict.get(key, ()))
    coupling = CouplingSpec(**cdict)

    u = read_field_csv(os.path.join(directory, "u.csv"), grid)
    m = read_field_csv(os.path.join(directory, "m.csv"), grid)
    policy = np.zeros((grid.nt + 1, grid.dim, *grid.shape))
    for ax, name in enumerate(_POLICY_FILES[grid.dim]):
        policy[:, ax] = read_field_csv(os.path.join(directory, name), grid)
    return MFGSolution(
        grid=grid, params=params, coupling=coupling, u=u, m=m, policy=policy, meta=meta
    )


def write_field_csv(path, grid: GridSpec, traj: np.ndarray) -> None:
    """Space-time field (or a single frame, written at t = 0) to CSV.

    Each frame is written as one string, formatted by a single ``%`` pass
    over the frame's values: its time stamp, then the grid's cached row text
    (:func:`_frame_rows`) with the stamp after each newline.  Only one frame's
    text is held at a time.  ``%.17g`` and ``format(v, ".17g")`` print every
    double alike, so the bytes are those of a per-value ``f"{v:.17g}"`` loop.
    """
    traj = np.asarray(traj, dtype=float)
    if traj.shape == grid.shape:
        traj, times = traj[None], np.zeros(1)
    elif traj.shape == (grid.nt + 1, *grid.shape):
        times = grid.times()
    else:
        raise ValueError(
            f"expected trajectory shape {(grid.nt + 1, *grid.shape)}, got {traj.shape}"
        )
    rows = _frame_rows(grid)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_HEADERS[grid.dim] + "\n")
        for t, frame in zip(times.tolist(), traj):
            stamp = f"{t:.17g}"
            fh.write((stamp + stamp.join(rows)) % tuple(frame.ravel().tolist()))


def read_field_csv(path, grid: GridSpec) -> np.ndarray:
    """The space-time field of a :func:`write_field_csv` file on ``grid``."""
    return _read_field(path, grid, grid.nt + 1)


def read_frame_csv(path, grid: GridSpec) -> np.ndarray:
    """The one frame, stamped t = 0, of a single-frame field CSV on ``grid``."""
    return _read_field(path, grid, 1)[0]


@functools.lru_cache(maxsize=32)
def _frame_rows(grid: GridSpec) -> tuple[str, ...]:
    """One ``",x[,y],%.17g\\n"`` line per cell, in row-major order; cached per grid."""
    coords = zip(*(c.ravel().tolist() for c in grid.coords()))
    return tuple(
        "," + ",".join(f"{c:.17g}" for c in cell) + ",%.17g\n" for cell in coords
    )


@functools.lru_cache(maxsize=32)
def _row_places(grid: GridSpec, frames: int) -> tuple[np.ndarray, ...]:
    """Each row's t, x[, y] place, as an open mesh over (frames, *shape); cached."""
    return np.ix_(grid.times()[:frames], *(grid.axis_centers(),) * grid.dim)


def _read_field(path, grid: GridSpec, frames: int) -> np.ndarray:
    """Values of the field CSV at ``path``: its first ``frames`` time levels on ``grid``.

    A text handle checks the header and finds a data row; the rows are parsed
    from the path.  Every ``ValueError``, decode errors included, names the path.
    """
    header = _HEADERS[grid.dim]
    try:
        with open(path, "r", encoding="utf-8") as fh:
            got = fh.readline().strip()
            if got != header:
                raise ValueError(f"expected the header {header!r}, got {got!r}")
            if not any(line.strip() for line in iter(fh.readline, "")):
                raise ValueError("field CSV has no data rows")
        if os.path.splitext(path)[1] in _COMPRESSED:
            raise ValueError("numpy reads a path with this suffix as compressed; rename it")
        data = np.loadtxt(path, delimiter=",", ndmin=2, skiprows=1, encoding="utf-8")
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    names = header.split(",")
    if data.shape != (frames * grid.ncells, len(names)):
        raise ValueError(
            f"{path}: expected {frames} frame(s) of {grid.ncells} rows of "
            f"{len(names)} values, got {data.shape[0]} rows of {data.shape[1]}"
        )
    # each coordinate column, as a (frames, *shape) view, against its broadcast places
    rows = data.reshape(frames, *grid.shape, len(names))
    for col, place in enumerate(_row_places(grid, frames)):
        tol = (grid.dt if col == 0 else grid.h) / 4
        off = ~(np.abs(rows[..., col] - place) <= tol)
        if off.any():
            row = np.flatnonzero(off)[0]
            want = np.broadcast_to(place, off.shape).flat[row]
            raise ValueError(
                f"{path}: data row {row + 1} has {names[col]} = {data[row, col]}, "
                f"expected {want} within {tol}"
            )
    # a copy: the value column as a view would keep the whole table alive
    return rows[..., -1].copy()
