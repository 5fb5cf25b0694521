"""Periodic space-time grids on the flat torus and the shared discrete operators.

Conventions used throughout the package:

* the spatial domain is the unit torus in ``dim`` dimensions, split into
  ``n`` cells per dimension with spacing ``h = 1/n``, collocated at cell
  centers ``x_j = (j + 1/2) h``;
* a scalar field is a plain ``numpy`` array of shape ``grid.shape``
  (``(n,)`` in 1D, ``(n, n)`` in 2D, row-major);
* a space-time field is an array with a leading time axis of length
  ``nt + 1``, frame ``k`` holding the values at ``t_k = k * dt``;
  :func:`gaussian_smooth` takes any leading axes as frames, and
  :func:`one_sided_diffs`, :func:`upwind_parts`, :func:`integrate` and a
  :class:`StencilOperator` take one frame or a stack ``(nframes,
  *grid.shape)``, so a whole trajectory costs one call; every frame of a
  stacked result has the bits of a single-frame call;
* a vector field carries its component axis after the frame axis:
  ``(dim, *grid.shape)`` for one frame, ``(nframes, dim, *grid.shape)``
  for a stack;
* integrals over the torus are rectangle sums ``h**dim * sum(f)``, which is
  what makes the discrete summation-by-parts identities exact.

All operators wrap around periodically; everything here is a pure function
of its inputs.  :func:`one_sided_diffs` takes periodic differences with
two cached gathers and no rolled copies.  :func:`upwind_parts` is the one
home of the Godunov upwind gradient: the HJB solver and the diagnostics both
read it.  :func:`_nonnegative` is the one density guard: roundoff in
``[-NEGATIVE_TOL, 0)`` counts as 0, anything below, or NaN, raises;
:func:`_density_input` also rejects infinities, for a caller's density.

The Laplacian and the upwind transport of the solvers share one sparsity
pattern, the (2*dim+1)-point periodic stencil.  :func:`stencil_pattern` builds
it once per ``GridSpec`` and caches it.  A matrix on it is a
:class:`StencilOperator`: a ``(2*dim+1, ncells)`` data block, slot axis first
and in offset order (the cell, its lower neighbours, its upper neighbours),
with a product, a transpose and an entry count, so the HJB and Kolmogorov
systems are assembled by block adds; a stack of operators, one per frame,
is a ``(nframes, 2*dim+1, ncells)`` block on the same pattern.  The pattern
relies on ``GridSpec``'s ``n >= 4``: the stencil neighbours of a cell are
then distinct, so no two offsets share a slot.

The pattern, the heat-operator data ``I/dt - nu L`` of
:func:`implicit_heat_data` and the Gaussian kernel's spectrum in
:func:`gaussian_smooth` depend only on the grid and fixed parameters; they
are cached and read-only, so a caller that needs to change one works on a
copy.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

__all__ = [
    "GridSpec",
    "StencilPattern",
    "StencilOperator",
    "stencil_pattern",
    "implicit_heat_data",
    "one_sided_diffs",
    "upwind_parts",
    "gaussian_smooth",
    "integrate",
    "l1_space_time",
]


@dataclass(frozen=True)
class GridSpec:
    """Uniform periodic grid: ``n`` cells per dimension, ``nt`` time steps."""

    dim: int
    n: int
    nt: int
    horizon: float

    def __post_init__(self):
        if not all(isinstance(k, (int, np.integer)) for k in (self.dim, self.n, self.nt)):
            raise ValueError(f"dim, n and nt must be integers, got {self.dim}, {self.n}, {self.nt}")
        if self.dim not in (1, 2):
            raise ValueError(f"dim must be 1 or 2, got {self.dim}")
        if self.n < 4:
            raise ValueError(f"need n >= 4 cells, got {self.n}")
        if self.nt < 2:
            raise ValueError(f"need nt >= 2 time steps, got {self.nt}")
        if not 0 < self.horizon < np.inf:
            raise ValueError(f"horizon must be positive and finite, got {self.horizon}")
        # the caches key on grids: hash the fields once, as the dataclass would
        object.__setattr__(self, "_hash", hash((self.dim, self.n, self.nt, self.horizon)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # rebuilt through __init__, so an unpickled grid hashes in its own process
        return GridSpec, (self.dim, self.n, self.nt, self.horizon)

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
    """Structure of a grid's (2*dim+1)-point periodic stencil, slot axis first.

    A matrix on the pattern is its ``(2*dim + 1, ncells)`` data block in
    offset order: ``data[r, i]`` is row ``i``'s entry in column ``cols[r,
    i]``, where row 0 of ``cols`` is the cell itself, rows ``1..dim`` its
    lower neighbour per axis and rows ``dim+1..2*dim`` its upper neighbour
    per axis, so ``data[0]``, ``data[1 + ax]`` and ``data[1 + dim + ax]`` are
    the entries ``(i, i)``, ``(i, i - e_ax)`` and ``(i, i + e_ax)``.
    ``GridSpec`` requires ``n >= 4``, so the neighbours of a cell are
    distinct and every row has exactly ``2*dim + 1`` slots.
    ``transpose[r, i]`` is the flat slot of the entry mirrored across the
    diagonal from slot ``(r, i)``: the lower slot of row ``i`` along ``ax``
    and the upper slot of row ``i - e_ax``, and back, so
    ``data.take(transpose)`` is the transpose's data.  ``up[ax]`` is the
    flat index of each cell's upper neighbour along ``ax`` in a frame, and
    ``down[ax]`` that of its lower neighbour's component ``ax`` in a
    ``(dim, *shape)`` field, both shaped ``(dim, *shape)``.  All arrays are
    read-only, as the pattern is shared by every operator on it.
    """

    cols: np.ndarray  # (2*dim + 1, ncells): cell, lower per axis, upper per axis
    transpose: np.ndarray  # (2*dim + 1, ncells): flat slot of the mirrored entry
    laplacian: np.ndarray  # data of the Laplacian on the pattern
    up: np.ndarray  # (dim, *shape): flat index of x + h e_ax
    down: np.ndarray  # (dim, *shape): flat index of component ax at x - h e_ax

    def laplacian_rows(self, u: np.ndarray) -> np.ndarray:
        """``L u`` for a flat ``u``, summed as :meth:`StencilOperator.dot` sums."""
        return _rows_dot(self.cols, self.laplacian, u)


class StencilOperator:
    """The ``ncells x ncells`` matrix with ``data`` on ``pattern``, or a
    stack of them, one per frame.

    ``data`` is taken as is, not copied, and must be shaped like
    ``pattern.cols``, with a leading frame axis for a stack.  :meth:`dot`
    gathers ``x`` by column, multiplies and sums each row's terms from 0 in
    slot order: scipy's CSR product, bit for bit, frame by frame, on a CSR
    that stores each row's entries in that order.  :attr:`T` is the
    transpose, one gather of the data.
    """

    __slots__ = ("pattern", "data")

    def __init__(self, pattern: StencilPattern, data: np.ndarray):
        if data.shape[-2:] != pattern.cols.shape or data.ndim > 3:
            raise ValueError(
                f"expected stencil data of shape {pattern.cols.shape}, got {data.shape}"
            )
        self.pattern, self.data = pattern, data

    @property
    def nnz(self) -> int:
        return self.data.size

    @property
    def T(self) -> StencilOperator:
        data = _take_frames(self.data, self.pattern.transpose, 2)
        return StencilOperator(self.pattern, data)

    def dot(self, x: np.ndarray) -> np.ndarray:
        """``A x`` for a flat ``x``, or ``A_k x_k`` for a stack ``(nframes, ncells)``."""
        return _rows_dot(self.pattern.cols, self.data, x)


def _rows_dot(cols: np.ndarray, data: np.ndarray, x: np.ndarray) -> np.ndarray:
    terms = x.take(cols, axis=-1)
    terms *= data
    # over the slot axis: each row's sum runs from 0 in slot order
    return np.add.reduce(terms, axis=-2, initial=0.0)


def _take_frames(a: np.ndarray, index: np.ndarray, ndim: int) -> np.ndarray:
    """``a.take(index)`` for one frame of ``ndim`` axes, and on each frame
    of a stack, the frame axis first."""
    if a.ndim == ndim:
        return a.take(index)
    return a.reshape(len(a), -1).take(index, axis=1)


def _on_components(dim: int, key) -> tuple:
    """Basic index of ``key`` (an int, a slice or None) on the axis before a
    field's ``dim`` spatial axes: a vector field's component axis, stencil
    data's offset axis, after the frame axis of a stack."""
    return (Ellipsis, key) + (slice(None),) * dim


# a unit component axis, so that a scalar field scales every component
_NEW_COMPONENT = {dim: _on_components(dim, None) for dim in (1, 2)}


@functools.lru_cache(maxsize=32)
def stencil_pattern(grid: GridSpec) -> StencilPattern:
    """The cached stencil pattern of ``grid``."""
    ncells, dim = grid.ncells, grid.dim
    cells = np.arange(ncells)
    idx = cells.reshape(grid.shape)
    lower_nbr = np.stack([np.roll(idx, 1, axis=ax).ravel() for ax in range(dim)])
    upper_nbr = np.stack([np.roll(idx, -1, axis=ax).ravel() for ax in range(dim)])
    # flat slot of each row's mirrored entry: the cell's own, and the lower
    # slot of row i along ax against the upper slot of row i - e_ax
    axes = np.arange(dim)[:, None]
    transpose = np.concatenate([
        cells[None],
        (1 + dim + axes) * ncells + lower_nbr,
        (1 + axes) * ncells + upper_nbr,
    ])
    laplacian = np.full(transpose.shape, 1.0)
    laplacian[0] = -2.0 * dim
    arrays = dict(
        # one row per stencil offset: the cell, then its lower and upper neighbours
        cols=np.concatenate([cells[None], lower_nbr, upper_nbr]),
        transpose=transpose,
        # times 1/h**2, as scipy divides a sparse matrix by h**2
        laplacian=laplacian * (1 / grid.h**2),
        up=upper_nbr.reshape(dim, *grid.shape),
        # component ax of a (dim, *shape) field, at the lower neighbour along ax
        down=(lower_nbr + ncells * axes).reshape(dim, *grid.shape),
    )
    for arr in arrays.values():
        arr.flags.writeable = False
    return StencilPattern(**arrays)


@functools.lru_cache(maxsize=32)
def implicit_heat_data(grid: GridSpec, nu: float) -> np.ndarray:
    """Data of ``I/dt - nu L`` on the stencil pattern.

    Cached per ``(grid, nu)`` and read-only.
    """
    data = -nu * stencil_pattern(grid).laplacian
    data[0] += 1 / grid.dt
    data.flags.writeable = False
    return data


def one_sided_diffs(grid: GridSpec, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Forward and backward difference quotients per dimension.

    Returns ``(dplus, dminus)``, each of shape ``(dim, *grid.shape)`` with
    ``dplus[i] = (u(x + h e_i) - u(x)) / h`` and
    ``dminus[i] = (u(x) - u(x - h e_i)) / h`` (periodic wraparound); for a
    stack ``u`` of shape ``(nframes, *grid.shape)``, ``(nframes, dim,
    *grid.shape)``.
    """
    pattern = stencil_pattern(grid)
    dplus = _take_frames(u, pattern.up, grid.dim)
    dplus -= u[_NEW_COMPONENT[grid.dim]]
    dplus /= grid.h
    # dplus one cell on: bit-identical to (u - u(x - h e_i)) / h
    return dplus, _take_frames(dplus, pattern.down, grid.dim + 1)


def upwind_parts(grid: GridSpec, u: np.ndarray):
    """Godunov upwind parts of ``grad u`` for convex Hamiltonians.

    Returns ``(dm, dp, q)`` with ``dm = max(Dminus_i, 0)`` and
    ``dp = min(Dplus_i, 0)`` per axis (shape ``(dim, *grid.shape)``) and the
    composite ``q = sum_i dm_i^2 + dp_i^2``, which is nondecreasing in each
    backward difference and nonincreasing in each forward one: the sign
    structure a monotone scheme needs.  ``dm + dp`` is the combined upwind
    gradient vector.  A stack ``u`` gives the parts of every frame, the
    frame axis first.
    """
    dplus, dminus = one_sided_diffs(grid, u)
    dm = np.maximum(dminus, 0.0, out=dminus)
    dp = np.minimum(dplus, 0.0, out=dplus)
    if grid.dim == 1:  # a sum over one axis is its only term
        return dm, dp, np.square(dm[..., 0, :]) + np.square(dp[..., 0, :])
    return dm, dp, (dm**2).sum(axis=-3) + (dp**2).sum(axis=-3)


NEGATIVE_TOL = 1e-12  # density roundoff allowed below zero


def _nonnegative(m: np.ndarray, what: str, error: type = ValueError) -> np.ndarray:
    """``m`` with roundoff in ``[-NEGATIVE_TOL, 0)`` set to 0, uncopied if none;
    anything below, or a NaN, raises ``error``."""
    low = float(m.min())
    if not low >= -NEGATIVE_TOL:  # a NaN fails the comparison
        raise error(f"{what} must be nonnegative")
    return np.maximum(m, 0.0) if low < 0.0 else m


def _density_input(m, what: str, error: type = ValueError) -> np.ndarray:
    """A caller's density field as :func:`_nonnegative` returns it, after
    rejecting an infinite entry, which that guard lets through."""
    m = np.asarray(m, dtype=float)
    if not np.isfinite(m).all():
        raise error(f"{what} must be finite")
    return _nonnegative(m, what, error)


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


def integrate(grid: GridSpec, f: np.ndarray):
    """Rectangle-rule integral over the torus: a float for one frame, an
    array of the frames' integrals for a stack, one reduction over the
    spatial axes that sums each frame as a single-frame call does."""
    f = np.asarray(f)
    sums = grid.cell_volume * f.reshape(f.shape[: f.ndim - grid.dim] + (-1,)).sum(axis=-1)
    return float(sums) if sums.ndim == 0 else sums


def l1_space_time(grid: GridSpec, traj: np.ndarray) -> float:
    """Trapezoid-in-time L1(Q_T) norm of a space-time field."""
    per_level = integrate(grid, np.abs(traj))
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


def prolong_frame(frame: np.ndarray, factor: int) -> np.ndarray:
    """Piecewise-constant prolongation of one frame onto a factor-finer grid.

    Each cell's value is repeated on the ``factor**dim`` fine cells covering
    it, which conserves mass; :func:`restrict_traj` undoes it to roundoff.
    """
    for axis in range(np.ndim(frame)):
        frame = np.repeat(frame, factor, axis=axis)
    return frame
