"""Periodic space-time grids on the flat torus and the shared discrete operators.

Conventions used throughout the package:

* the spatial domain is the unit torus in ``dim`` dimensions, split into
  ``n`` cells per dimension with spacing ``h = 1/n``, collocated at cell
  centers ``x_j = (j + 1/2) h``;
* a scalar field is a plain ``numpy`` array of shape ``grid.shape``
  (``(n,)`` in 1D, ``(n, n)`` in 2D, row-major);
* a space-time field is an array with a leading time axis of length
  ``nt + 1``, frame ``k`` holding the values at ``t_k = k * dt``;
  :func:`gaussian_smooth` takes any leading axes as frames, so it smooths
  a whole space-time field in one call, with per-frame results;
* integrals over the torus are rectangle sums ``h**dim * sum(f)``, which is
  what makes the discrete summation-by-parts identities exact.

All operators wrap around periodically; everything here is a pure function
of its inputs.  :func:`one_sided_diffs` takes periodic differences with
two cached gathers and no rolled copies.  :func:`upwind_parts` is the one
home of the Godunov upwind gradient: the HJB solver and the diagnostics both
read it.  :func:`_nonnegative` is the one density guard: roundoff in
``[-NEGATIVE_TOL, 0)`` counts as 0, anything below raises.

The Laplacian and the upwind transport of the solvers share one sparsity
pattern, the (2*dim+1)-point periodic stencil.  :func:`stencil_pattern` builds
it once per ``GridSpec`` and caches it; matrices on it differ only in their
data vector, so the HJB and Kolmogorov systems are assembled by vector adds.
The pattern relies on ``GridSpec``'s ``n >= 4``: the stencil neighbours of a
cell are then distinct, so no two offsets share a slot.  It is symmetric,
which is why data in CSR slot order, read as CSC, is the transpose for free.
Each pattern validates one CSR and one CSC shell through scipy's constructor
on first use; every matrix it hands out is a plain clone of a shell's
``__dict__`` with the caller's data, so it skips the constructor's checks
and shares the pattern's read-only index arrays.  The shells' canonical
flags are set: sorted rows and distinct slots are facts of the pattern.  No
solver here reads the flag (the 1D LU reads its bands by slot, and 2D
systems are only multiplied), but it costs nothing per matrix, so it stays:
a scipy routine that checks it, such as scipy's own sparse LU, never
rescans a pattern matrix for duplicates.

The pattern, the heat-operator data ``I/dt - nu L`` of
:func:`implicit_heat_data`, the Gaussian kernel's spectrum in
:func:`gaussian_smooth` and the coordinate text of :func:`write_field_csv`
depend only on the grid and fixed parameters; they are cached and read-only,
so a caller that needs to change one works on a copy.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

__all__ = [
    "GridSpec",
    "laplacian_matrix",
    "StencilPattern",
    "stencil_pattern",
    "implicit_heat_data",
    "stencil_data",
    "one_sided_diffs",
    "upwind_parts",
    "gaussian_smooth",
    "integrate",
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


@dataclass(frozen=True, eq=False)
class StencilPattern:
    """CSR structure of a grid's (2*dim+1)-point periodic stencil.

    Row ``i`` holds cell ``i`` and its ``2*dim`` neighbours with sorted
    column indices; ``GridSpec`` requires ``n >= 4``, so the neighbours are
    distinct and every row has exactly ``2*dim + 1`` slots.  ``slots[:, i]``
    are the data slots of row ``i``'s offsets in a fixed order: the cell,
    then its lower neighbour per axis, then its upper neighbour per axis.
    ``center[i]``, ``lower[ax, i]`` and ``upper[ax, i]`` are the same slots by
    offset: those of the entries ``(i, i)``, ``(i, i - e_ax)`` and
    ``(i, i + e_ax)``.  ``transpose[s]`` is the slot of the entry mirrored
    across the diagonal from slot ``s``; for a block shaped like ``slots``,
    ``block.take(gather)`` is its data in slot order.
    The pattern is symmetric, so the same ``indptr``/``indices`` also read
    as a CSC structure: data in CSR slot order, read as CSC, is the
    transpose at no cost.  All arrays are read-only, as the pattern is
    shared by every matrix built on it.

    :meth:`csr` and :meth:`csc` validate one shell matrix each through
    scipy's constructor, on first use, and then hand out clones of its
    ``__dict__`` carrying the caller's data vector (taken as is, not
    copied), and its ``has_canonical_format`` flag, which the pattern
    guarantees.  Every such matrix shares the read-only ``indptr`` and
    ``indices``, so an in-place change of its structure (``eliminate_zeros``,
    writing an index) raises instead of corrupting the pattern.
    """

    indptr: np.ndarray
    indices: np.ndarray
    slots: np.ndarray  # (2*dim + 1, ncells): cell, lower per axis, upper per axis
    transpose: np.ndarray
    gather: np.ndarray  # flat index into a slots-shaped block, per slot
    laplacian: np.ndarray  # data of the Laplacian on the pattern

    @property
    def center(self) -> np.ndarray:
        return self.slots[0]

    @property
    def lower(self) -> np.ndarray:
        return self.slots[1 : 1 + len(self.slots) // 2]

    @property
    def upper(self) -> np.ndarray:
        return self.slots[1 + len(self.slots) // 2 :]

    def csr(self, data: np.ndarray) -> sp.csr_matrix:
        return self._with_data(self._csr_shell, data)

    def csc(self, data: np.ndarray) -> sp.csc_matrix:
        """The transpose of ``csr(data)``, as a CSC matrix on the same arrays."""
        return self._with_data(self._csc_shell, data)

    def laplacian_rows(self, u: np.ndarray) -> np.ndarray:
        """``L u`` for a flat ``u``, bit-identical to the CSR product.

        Like scipy, it sums each row's products from 0 in slot order.
        """
        cols, coeffs = self._laplacian_terms
        terms = u.take(cols)
        terms *= coeffs
        return np.add.reduce(terms, axis=0, initial=0.0)

    @functools.cached_property
    def _laplacian_terms(self) -> tuple[np.ndarray, np.ndarray]:
        """Columns and Laplacian data by (slot within the row, row); read-only."""
        rows = (-1, len(self.slots))
        cols = self.indices.reshape(rows).T.astype(np.intp, order="C")
        coeffs = self.laplacian.reshape(rows).T.copy()
        cols.flags.writeable = coeffs.flags.writeable = False
        return cols, coeffs

    @functools.cached_property
    def _csr_shell(self) -> sp.csr_matrix:
        return self._shell(sp.csr_matrix)

    @functools.cached_property
    def _csc_shell(self) -> sp.csc_matrix:
        return self._shell(sp.csc_matrix)

    def _shell(self, kind):
        n = len(self.indptr) - 1
        data = np.zeros(len(self.indices))
        shell = kind((data, self.indices, self.indptr), shape=(n, n))
        # the constructor may hand back equal copies; keep the shared arrays
        shell.indices, shell.indptr = self.indices, self.indptr
        # sorted rows, distinct offsets: canonical whatever the data
        shell.has_canonical_format = True
        return shell

    def _with_data(self, shell, data: np.ndarray):
        if np.shape(data) != self.indices.shape:
            raise ValueError(
                f"expected {len(self.indices)} stencil entries, got shape {np.shape(data)}"
            )
        mat = object.__new__(type(shell))
        mat.__dict__ = {**shell.__dict__, "data": data}
        return mat


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
    # slot of each offset: row start plus the offset's rank in the sorted row;
    # one contiguous row of slots per offset
    ranks = np.ascontiguousarray(np.argsort(order, axis=1).T)
    slots = ranks + width * np.arange(ncells)
    center, lower, upper = slots[0], slots[1 : 1 + grid.dim], slots[1 + grid.dim :]
    transpose = np.empty(ncells * width, dtype=np.intp)
    transpose[center] = center
    transpose[lower] = np.take_along_axis(upper, lower_nbr, axis=1)
    transpose[upper] = np.take_along_axis(lower, upper_nbr, axis=1)
    gather = np.argsort(slots, axis=None)
    laplacian = np.full(ncells * width, 1.0)
    laplacian[center] = -2.0 * grid.dim
    arrays = dict(
        indptr=np.arange(0, ncells * width + 1, width, dtype=np.int32),
        indices=np.take_along_axis(cols, order, axis=1).ravel().astype(np.int32),
        slots=slots,
        transpose=transpose,
        gather=gather,
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


@functools.lru_cache(maxsize=32)
def implicit_heat_data(grid: GridSpec, nu: float) -> np.ndarray:
    """Data of ``I/dt - nu L`` on the stencil pattern, in its slot order.

    Cached per ``(grid, nu)`` and read-only.
    """
    pattern = stencil_pattern(grid)
    data = np.zeros(len(pattern.indices))
    data[pattern.center] = 1 / grid.dt
    data = data - nu * pattern.laplacian
    data.flags.writeable = False
    return data


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
    upper, lower = _neighbours(grid.dim, grid.n)
    dplus = (u.take(upper) - u) / grid.h
    # dplus one cell on: bit-identical to (u - u(x - h e_i)) / h
    return dplus, dplus.take(lower)


@functools.lru_cache(maxsize=32)
def _neighbours(dim: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Flat indices of ``u(x + h e_i)`` in ``u`` and of ``dplus[i](x - h e_i)``
    in a ``(dim, *shape)`` stack, both shaped ``(dim, *shape)``; read-only."""
    idx = np.arange(n**dim).reshape((n,) * dim)
    upper = np.stack([np.roll(idx, -1, axis=ax) for ax in range(dim)])
    lower = np.stack([np.roll(idx, 1, axis=ax) + ax * idx.size for ax in range(dim)])
    upper.flags.writeable = lower.flags.writeable = False
    return upper, lower


def upwind_parts(grid: GridSpec, u: np.ndarray):
    """Godunov upwind parts of ``grad u`` for convex Hamiltonians.

    Returns ``(dm, dp, q)`` with ``dm = max(Dminus_i, 0)`` and
    ``dp = min(Dplus_i, 0)`` per axis (shape ``(dim, *grid.shape)``) and the
    composite ``q = sum_i dm_i^2 + dp_i^2``, which is nondecreasing in each
    backward difference and nonincreasing in each forward one: the sign
    structure a monotone scheme needs.  ``dm + dp`` is the combined upwind
    gradient vector.
    """
    dplus, dminus = one_sided_diffs(grid, u)
    dm, dp = np.maximum(dminus, 0.0), np.minimum(dplus, 0.0)
    if grid.dim == 1:  # a sum over one axis is its only term
        return dm, dp, np.square(dm[0]) + np.square(dp[0])
    return dm, dp, (dm**2).sum(axis=0) + (dp**2).sum(axis=0)


NEGATIVE_TOL = 1e-12  # density roundoff allowed below zero


def _nonnegative(m: np.ndarray, what: str, error: type = ValueError) -> np.ndarray:
    """``m`` with roundoff in ``[-NEGATIVE_TOL, 0)`` set to 0, uncopied if none;
    anything below raises ``error``."""
    low = float(m.min())
    if low < -NEGATIVE_TOL:
        raise error(f"{what} must be nonnegative")
    return np.maximum(m, 0.0) if low < 0.0 else m


def gaussian_smooth(grid: GridSpec, f: np.ndarray, eps: float) -> np.ndarray:
    """Periodic Gaussian convolution of standard deviation ``eps``.

    Smooths over the last ``grid.dim`` axes of ``f``; any leading axes hold
    frames, smoothed independently, so a whole trajectory ``(nt + 1,
    *grid.shape)`` costs one FFT pass per spatial axis.  numpy transforms
    each frame of a stack exactly as it would transform that frame alone, so
    every frame is bit-identical to a single-frame call.

    The kernel is the wrapped Gaussian sampled at cell offsets and normalized
    to unit sum, so constants and total mass are preserved exactly and
    nonnegative fields stay nonnegative up to FFT roundoff.  That roundoff,
    values in ``(-NEGATIVE_TOL, 0)``, is clipped to zero frame by frame, and only
    in frames whose input is nonnegative.  ``eps = 0`` returns a copy.
    """
    if eps <= 0.0:
        return np.array(f, dtype=float, copy=True)
    kernel_spectrum = _kernel_spectrum(grid.n, grid.h, float(eps))
    out = f = np.asarray(f, dtype=float)
    space = tuple(range(-grid.dim, 0))
    for ax in space:
        spectrum = np.fft.fft(out, axis=ax)
        spectrum *= kernel_spectrum.reshape((-1,) + (1,) * (-1 - ax))
        out = np.fft.ifft(spectrum, axis=ax).real
    roundoff = (out < 0.0) & (out > -NEGATIVE_TOL)
    if roundoff.any():
        # the kernel is positive, so negatives of a nonnegative frame are roundoff
        out[roundoff & (f >= 0.0).all(axis=space, keepdims=True)] = 0.0
    return out


@functools.lru_cache(maxsize=32)
def _kernel_spectrum(n: int, h: float, eps: float) -> np.ndarray:
    """FFT of the wrapped Gaussian kernel; cached per ``(n, h, eps)``, read-only."""
    offsets = np.arange(n) * h
    images = np.arange(-4, 5)[:, None]
    kern = np.exp(-((offsets[None, :] - images) ** 2) / (2.0 * eps**2)).sum(axis=0)
    spectrum = np.fft.fft(kern / kern.sum())
    spectrum.flags.writeable = False
    return spectrum


def integrate(grid: GridSpec, f: np.ndarray) -> float:
    """Rectangle-rule integral over the torus."""
    return float(grid.cell_volume * np.sum(f))


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
    """Space-time field (or a single frame, written at t = 0) to CSV.

    Each frame is written as one string, formatted by a single ``%`` pass
    over the frame's values: its time stamp, then the grid's cached row text
    (:func:`_frame_rows`) with the stamp after each newline.  Only one frame's
    text is held at a time.  ``%.17g`` and ``format(v, ".17g")`` print every
    double alike, so the bytes are those of a per-value ``f"{v:.17g}"`` loop.
    """
    traj = np.asarray(traj, dtype=float)
    if traj.shape == grid.shape:
        traj = traj[None]
        times = np.zeros(1)
    elif traj.shape == (grid.nt + 1, *grid.shape):
        times = grid.times()
    else:
        raise GridShapeError(grid, traj.shape)
    cols = ["t", "x", "value"] if grid.dim == 1 else ["t", "x", "y", "value"]
    rows = _frame_rows(grid)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(cols) + "\n")
        for t, frame in zip(times.tolist(), traj):
            stamp = f"{t:.17g}"
            fh.write((stamp + stamp.join(rows)) % tuple(frame.ravel().tolist()))


@functools.lru_cache(maxsize=32)
def _frame_rows(grid: GridSpec) -> tuple[str, ...]:
    """One ``",x[,y],%.17g\\n"`` line per cell, in row-major order; cached per grid."""
    coords = zip(*(c.ravel().tolist() for c in grid.coords()))
    return tuple(
        "," + ",".join(f"{c:.17g}" for c in cell) + ",%.17g\n" for cell in coords
    )


def _read_field_rows(path):
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        dim = len(header) - 2
        if header[0] != "t" or header[-1] != "value" or dim not in (1, 2):
            raise ValueError(f"unexpected field CSV header {header!r}")
        start = fh.tell()
        if not any(line.strip() for line in iter(fh.readline, "")):
            raise ValueError("field CSV has no data rows")
        fh.seek(start)
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
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
