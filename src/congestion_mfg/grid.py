"""Periodic space-time grids on the flat torus and the shared discrete operators.

Conventions used throughout the package:

* the spatial domain is the unit torus in ``dim`` dimensions, split into
  ``n`` cells per dimension with spacing ``h = 1/n``, collocated at cell
  centers ``x_j = (j + 1/2) h``;
* a scalar field is a plain ``numpy`` array of shape ``grid.shape``
  (``(n,)`` in 1D, ``(n, n)`` in 2D, row-major);
* a space-time field is an array with a leading time axis of length
  ``nt + 1``, frame ``k`` holding the values at ``t_k = k * dt``;
* integrals over the torus are rectangle sums ``h**dim * sum(f)``, which is
  what makes the discrete summation-by-parts identities exact.

All operators wrap around periodically (``np.roll``); everything here is a
pure function of its inputs.

The Laplacian and the upwind transport of the solvers share one sparsity
pattern, the (2*dim+1)-point periodic stencil.  :func:`stencil_pattern` builds
it once per ``GridSpec`` and caches it; matrices on it differ only in their
data vector, so the HJB and Kolmogorov systems are assembled by vector adds.
The pattern relies on ``GridSpec``'s ``n >= 4``: the stencil neighbours of a
cell are then distinct, so no two offsets share a slot.  It is symmetric,
which is why data in CSR slot order, read as CSC, is the transpose for free.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

__all__ = [
    "GridSpec",
    "laplacian",
    "laplacian_matrix",
    "StencilPattern",
    "stencil_pattern",
    "implicit_heat_data",
    "stencil_data",
    "one_sided_diffs",
    "numerical_gradient_sq",
    "upwind_gradient",
    "gaussian_smooth",
    "integrate",
    "l1_space",
    "l1_space_time",
    "write_field_csv",
    "read_field_csv",
]


@dataclass(frozen=True)
class GridSpec:
    """Uniform periodic grid: ``n`` cells per dimension, ``nt`` time steps."""

    dim: int
    n: int
    nt: int
    horizon: float

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise ValueError(f"dim must be 1 or 2, got {self.dim}")
        if self.n < 4:
            raise ValueError(f"need n >= 4 cells, got {self.n}")
        if self.nt < 2:
            raise ValueError(f"need nt >= 2 time steps, got {self.nt}")
        if self.horizon <= 0:
            raise ValueError(f"horizon must be positive, got {self.horizon}")

    @property
    def h(self) -> float:
        return 1.0 / self.n

    @property
    def dt(self) -> float:
        return self.horizon / self.nt

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.n,) * self.dim

    @property
    def ncells(self) -> int:
        return self.n**self.dim

    @property
    def cell_volume(self) -> float:
        return self.h**self.dim

    def axis_centers(self) -> np.ndarray:
        """Cell-center coordinates along one axis."""
        return (np.arange(self.n) + 0.5) * self.h

    def coords(self) -> tuple[np.ndarray, ...]:
        """Cell-center coordinate arrays, one per dimension, shaped like a field."""
        x = self.axis_centers()
        if self.dim == 1:
            return (x,)
        return tuple(np.meshgrid(x, x, indexing="ij"))

    def times(self) -> np.ndarray:
        return np.arange(self.nt + 1) * self.dt

    def zeros_traj(self) -> np.ndarray:
        return np.zeros((self.nt + 1, *self.shape))


def laplacian(grid: GridSpec, f: np.ndarray) -> np.ndarray:
    """Second-order centered periodic Laplacian (3-point / 5-point stencil)."""
    out = np.zeros_like(f, dtype=float)
    for ax in range(grid.dim):
        out += np.roll(f, -1, axis=ax) - 2.0 * f + np.roll(f, 1, axis=ax)
    return out / grid.h**2


@dataclass(frozen=True, eq=False)
class StencilPattern:
    """CSR structure of a grid's (2*dim+1)-point periodic stencil.

    Row ``i`` holds cell ``i`` and its ``2*dim`` neighbours with sorted
    column indices; ``GridSpec`` requires ``n >= 4``, so the neighbours are
    distinct and every row has exactly ``2*dim + 1`` slots.  ``center[i]``,
    ``lower[ax, i]`` and ``upper[ax, i]`` are the data slots of the entries
    ``(i, i)``, ``(i, i - e_ax)`` and ``(i, i + e_ax)``; ``transpose[s]`` is
    the slot of the entry mirrored across the diagonal from slot ``s``.
    The pattern is symmetric, so the same ``indptr``/``indices`` also read
    as a CSC structure: data in CSR slot order, read as CSC, is the
    transpose at no cost.  All arrays are read-only, as the pattern is
    shared by every matrix built on it.
    """

    indptr: np.ndarray
    indices: np.ndarray
    center: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    transpose: np.ndarray
    laplacian: np.ndarray  # data of the Laplacian on the pattern

    def csr(self, data: np.ndarray) -> sp.csr_matrix:
        n = len(self.indptr) - 1
        return sp.csr_matrix((data, self.indices, self.indptr), shape=(n, n))

    def csc(self, data: np.ndarray) -> sp.csc_matrix:
        """The transpose of ``csr(data)``, as a CSC matrix on the same arrays."""
        n = len(self.indptr) - 1
        return sp.csc_matrix((data, self.indices, self.indptr), shape=(n, n))


@functools.lru_cache(maxsize=32)
def stencil_pattern(grid: GridSpec) -> StencilPattern:
    """The cached stencil pattern of ``grid``."""
    ncells, width = grid.ncells, 2 * grid.dim + 1
    idx = np.arange(ncells).reshape(grid.shape)
    lower_nbr = np.stack([np.roll(idx, 1, axis=ax).ravel() for ax in range(grid.dim)])
    upper_nbr = np.stack([np.roll(idx, -1, axis=ax).ravel() for ax in range(grid.dim)])
    # one column per stencil offset: the cell, then its lower and upper neighbours
    cols = np.column_stack([idx.ravel(), *lower_nbr, *upper_nbr])
    order = np.argsort(cols, axis=1)
    # slot of each offset: row start plus the offset's rank in the sorted row
    slots = np.argsort(order, axis=1).T + width * np.arange(ncells)
    center, lower, upper = slots[0], slots[1 : 1 + grid.dim], slots[1 + grid.dim :]
    transpose = np.empty(ncells * width, dtype=np.intp)
    transpose[center] = center
    transpose[lower] = np.take_along_axis(upper, lower_nbr, axis=1)
    transpose[upper] = np.take_along_axis(lower, upper_nbr, axis=1)
    laplacian = np.full(ncells * width, 1.0)
    laplacian[center] = -2.0 * grid.dim
    arrays = dict(
        indptr=np.arange(0, ncells * width + 1, width, dtype=np.int32),
        indices=np.take_along_axis(cols, order, axis=1).ravel().astype(np.int32),
        center=center,
        lower=lower,
        upper=upper,
        transpose=transpose,
        # scaled as scipy scales ``csr / h**2``: by the reciprocal
        laplacian=laplacian * (1 / grid.h**2),
    )
    for arr in arrays.values():
        arr.flags.writeable = False
    return StencilPattern(**arrays)


@functools.lru_cache(maxsize=32)
def laplacian_matrix(grid: GridSpec) -> sp.csr_matrix:
    """The same stencil as a sparse matrix acting on row-major flattened fields."""
    pattern = stencil_pattern(grid)
    return pattern.csr(pattern.laplacian)


def implicit_heat_data(grid: GridSpec, nu: float) -> np.ndarray:
    """Data of ``I/dt - nu L`` on the stencil pattern, in its slot order."""
    pattern = stencil_pattern(grid)
    data = np.zeros(len(pattern.indices))
    data[pattern.center] = 1 / grid.dt
    return data - nu * pattern.laplacian


def stencil_data(grid: GridSpec, mat) -> np.ndarray:
    """Entries of an ``ncells x ncells`` matrix in the stencil pattern's slot order.

    A CSR matrix built on the cached pattern, recognised by its shared
    read-only ``indptr``, is read as is, without a copy.  Any other matrix
    is scattered onto the pattern, summing duplicate entries; a stored entry
    off the stencil raises ``ValueError`` rather than being dropped.
    """
    pattern = stencil_pattern(grid)
    if sp.issparse(mat) and mat.format == "csr" and mat.indptr is pattern.indptr:
        return mat.data
    coo = sp.coo_matrix(mat)
    if coo.shape != (grid.ncells, grid.ncells):
        raise ValueError(
            f"expected a {grid.ncells}x{grid.ncells} matrix, got {coo.shape}"
        )
    width = 2 * grid.dim + 1
    hits = pattern.indices.reshape(-1, width)[coo.row] == coo.col[:, None]
    if not hits.any(axis=1).all():
        raise ValueError("matrix has entries off the grid's stencil")
    data = np.zeros(len(pattern.indices))
    np.add.at(data, width * coo.row + hits.argmax(axis=1), coo.data)
    return data


def one_sided_diffs(grid: GridSpec, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Forward and backward difference quotients per dimension.

    Returns ``(dplus, dminus)``, each of shape ``(dim, *grid.shape)`` with
    ``dplus[i] = (u(x + h e_i) - u(x)) / h`` and
    ``dminus[i] = (u(x) - u(x - h e_i)) / h`` (periodic wraparound).
    """
    dplus = np.empty((grid.dim, *u.shape))
    dminus = np.empty_like(dplus)
    for ax in range(grid.dim):
        dplus[ax] = (np.roll(u, -1, axis=ax) - u) / grid.h
        # dplus one cell on: bit-identical to (u - u(x - h e_i)) / h
        dminus[ax] = np.roll(dplus[ax], 1, axis=ax)
    return dplus, dminus


def numerical_gradient_sq(grid: GridSpec, u: np.ndarray) -> np.ndarray:
    """Godunov-type upwind |grad u|^2 for convex Hamiltonians.

    Composite ``sum_i max(Dminus_i, 0)^2 + min(Dplus_i, 0)^2``: nondecreasing
    in each backward difference and nonincreasing in each forward one, which
    is the sign structure a monotone scheme needs.
    """
    dplus, dminus = one_sided_diffs(grid, u)
    return (np.maximum(dminus, 0.0) ** 2).sum(axis=0) + (
        np.minimum(dplus, 0.0) ** 2
    ).sum(axis=0)


def upwind_gradient(grid: GridSpec, u: np.ndarray) -> np.ndarray:
    """Combined upwind gradient vector, ``max(Dminus_i,0) + min(Dplus_i,0)`` per axis."""
    dplus, dminus = one_sided_diffs(grid, u)
    return np.maximum(dminus, 0.0) + np.minimum(dplus, 0.0)


def gaussian_smooth(grid: GridSpec, f: np.ndarray, eps: float) -> np.ndarray:
    """Periodic Gaussian convolution of standard deviation ``eps``.

    The kernel is the wrapped Gaussian sampled at cell offsets and normalized
    to unit sum, so constants and total mass are preserved exactly and
    nonnegative fields stay nonnegative (up to FFT roundoff, which is clipped).
    ``eps = 0`` is the identity.
    """
    if eps <= 0.0:
        return np.array(f, dtype=float, copy=True)
    kern = _wrapped_gaussian_kernel(grid.n, grid.h, float(eps))
    out = np.asarray(f, dtype=float)
    for ax in range(grid.dim):
        spectrum = np.fft.fft(out, axis=ax) * _shape_for_axis(
            np.fft.fft(kern), ax, grid.dim
        )
        out = np.real(np.fft.ifft(spectrum, axis=ax))
    if np.all(np.asarray(f) >= 0.0):
        # kernel is positive, so negatives can only be roundoff
        out[(out < 0.0) & (out > -1e-12)] = 0.0
    return out


def _wrapped_gaussian_kernel(n: int, h: float, eps: float) -> np.ndarray:
    offsets = np.arange(n) * h
    images = np.arange(-4, 5)[:, None]
    kern = np.exp(-((offsets[None, :] - images) ** 2) / (2.0 * eps**2)).sum(axis=0)
    return kern / kern.sum()


def _shape_for_axis(v: np.ndarray, ax: int, dim: int) -> np.ndarray:
    if dim == 1:
        return v
    return v[:, None] if ax == 0 else v[None, :]


def integrate(grid: GridSpec, f: np.ndarray) -> float:
    """Rectangle-rule integral over the torus."""
    return float(grid.cell_volume * np.sum(f))


def l1_space(grid: GridSpec, f: np.ndarray) -> float:
    return integrate(grid, np.abs(f))


def l1_space_time(grid: GridSpec, traj: np.ndarray) -> float:
    """Trapezoid-in-time L1(Q_T) norm of a space-time field."""
    per_level = grid.cell_volume * np.abs(traj).sum(axis=tuple(range(1, traj.ndim)))
    weights = np.ones(grid.nt + 1)
    weights[0] = weights[-1] = 0.5
    return float(grid.dt * np.dot(weights, per_level))


def restrict_traj(fine: GridSpec, traj: np.ndarray, factor: int) -> np.ndarray:
    """Conservative restriction of a fine trajectory onto a factor-coarser grid.

    Time levels are subsampled (they nest exactly); each coarse cell value is
    the mean of the ``factor**dim`` fine cells covering it, which is the
    natural restriction for cell-centered grids (centers do not nest).
    """
    if fine.n % factor or fine.nt % factor:
        raise ValueError("refinement factor must divide n and nt")
    sub = np.asarray(traj)[::factor]
    nc = fine.n // factor
    if fine.dim == 1:
        return sub.reshape(sub.shape[0], nc, factor).mean(axis=2)
    return sub.reshape(sub.shape[0], nc, factor, nc, factor).mean(axis=(2, 4))


# ---------------------------------------------------------------------------
# CSV export: header ``t,x[,y],value``, one row per cell per time level,
# 17 significant digits so stored doubles reparse bit-identically.
# ---------------------------------------------------------------------------


def write_field_csv(path, grid: GridSpec, traj: np.ndarray) -> None:
    """Space-time field (or a single frame, written at t = 0) to CSV."""
    traj = np.asarray(traj, dtype=float)
    if traj.shape == grid.shape:
        traj = traj[None]
        times = np.zeros(1)
    elif traj.shape == (grid.nt + 1, *grid.shape):
        times = grid.times()
    else:
        raise GridShapeError(grid, traj.shape)
    cols = ["t", "x", "value"] if grid.dim == 1 else ["t", "x", "y", "value"]
    coords = grid.coords()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(cols) + "\n")
        for k, t in enumerate(times):
            frame = traj[k].ravel()
            flat_coords = [c.ravel() for c in coords]
            for j, v in enumerate(frame):
                point = ",".join(f"{c[j]:.17g}" for c in flat_coords)
                fh.write(f"{t:.17g},{point},{v:.17g}\n")


def _read_field_rows(path):
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    dim = len(header) - 2
    if header[0] != "t" or header[-1] != "value" or dim not in (1, 2):
        raise ValueError(f"unexpected field CSV header {header!r}")
    times = np.unique(data[:, 0])
    nt = len(times) - 1
    n = round((data.shape[0] / (nt + 1)) ** (1.0 / dim))
    shape = (n,) * dim
    return dim, n, nt, float(times.max()), data[:, -1].reshape(nt + 1, *shape)


def read_field_csv(path) -> tuple[GridSpec, np.ndarray]:
    """Inverse of :func:`write_field_csv`; reconstructs the grid from the rows."""
    dim, n, nt, horizon, traj = _read_field_rows(path)
    grid = GridSpec(dim=dim, n=n, nt=nt, horizon=horizon)
    return grid, traj


def read_frame_csv(path) -> tuple[int, int, np.ndarray]:
    """First time level of a field CSV; accepts single-frame files too."""
    dim, n, _, _, traj = _read_field_rows(path)
    return dim, n, traj[0]


class GridShapeError(ValueError):
    def __init__(self, grid: GridSpec, shape):
        super().__init__(
            f"expected trajectory shape {(grid.nt + 1, *grid.shape)}, got {shape}"
        )
