"""Sparse linear solves shared by the two PDE steppers.

Both steppers build their systems as
:class:`~congestion_mfg.grid.StencilOperator` data on the grid's stencil
pattern, and neither solver copies them into another format.  1D systems are
periodic tridiagonal: :func:`splu` reads the five bands by a cached index and
moves the two corner entries into a rank-one Sherman-Morrison correction.
Its solve is one LAPACK ``dgtsv`` call on the two columns ``[rhs | w]``,
which factors the tridiagonal part in place and solves it for the
right-hand side and the correction's column ``w`` together, then a rank-one
update.  That call gives the bits of the ``dgttrf`` factorization and the
two ``dgttrs`` solves it replaced (20 000 random systems of n = 16, 32 and
64, a third with diagonals small enough to pivot), in one LAPACK call
instead of three.  On a 2-core x86 host the LAPACK work per system fell
from 3.6 to 2.0 us at n = 16 and from 5.7 to 3.7 us at n = 64; over the
3295 systems of an n = 64 reference solve a factorization and solve take
16.5 against 18.3 us (best of 12 passes; medians 19.7 against 20.7 us, and
the host's timings drift by up to 1.7x between runs).  The periodic LU
replaced scipy's general sparse LU (SuperLU), which takes about 52 us on
those systems, and the two agree to 5e-15 relative.  Every 1D system the
steppers build is strictly diagonally dominant, the HJB ones by rows
(nonpositive off-diagonals, row sums ``1/dt``) and the Kolmogorov ones by
columns, so it is nonsingular and its pivoted LU is stable.  Both kinds are dominant by
rows in all 3295 systems of that solve and all 12711 of the n = 16 c09
ladder, so the certificate takes the rows' least margin first and the
columns' only when that fails.  Any other system, such as a caller's own, is
checked on its true residual as a 2D one is, and one with a non-finite entry
raises :class:`LinearSolveFailed`, as does a non-finite solution, which a
NaN or an infinity in the right-hand side gives.
A solve loads LAPACK on the first 1D system, through a cached loader, at
about 0.1 us a call: a 2D solve, bundle save and load,
``apriori_report``, ``check`` and ``diagnose`` load none of it.  The loader
reads ``dgtsv`` from scipy's f2py extension ``scipy/linalg/_flapack`` by its
file, not through the ``scipy.linalg`` package: the same routine behind the
same wrapper, so the same bits.  On a 2-core x86 host, after this package's
import, the package route took RSS from 28.5 to 55.5 MB and the process from
228 to 554 modules in 0.24 s (``numpy.f2py`` and scipy's array-API layer
among them); the extension alone, with the scipy-bundled BLAS it links,
takes RSS to 31.1 MB and adds one module in under 0.01 s.

2D systems use BiCGStab preconditioned by the exact inverse of the heat
operator ``I/dt - nu L``; the system's product is the operator's gather and
sum over the slot axis, bit-identical to scipy's CSR product.

Every system is ``I/dt - nu L + T`` with the congestion transport ``T = A``
(HJB) or ``A^T`` (Kolmogorov).  On the torus the heat part is diagonal in
the orthonormal real Fourier basis ``Q`` of :func:`fourier_basis`: the
columns ``1/sqrt(n)``, ``sqrt(2/n) cos(2 pi k j/n)`` and
``sqrt(2/n) sin(2 pi k j/n)`` for ``k = 1..(n-1)//2``, and ``(-1)^j/sqrt(n)``
when n is even.  Each column is an eigenvector of the periodic ``-L`` along
one axis with eigenvalue ``4 sin^2(pi k/n)/h^2``, which is computed from the
formula, not by an eigensolver.  The 2D symbol
``1/dt + nu (lambda_i + lambda_j)`` is therefore real, at least ``1/dt``,
and exactly ``1/dt`` on the constant mode.

:func:`heat_inverse` builds ``Q`` and the inverse symbol once per
``(grid, nu)``; its apply is four small matmuls, ``Q^T R Q``, a product
with the inverse symbol, then ``Q Y Q^T``.  That is O(n^3) against the
FFT's O(n^2 log n), but at the sizes used here (every 2D grid of the
tests, demos and benchmark has n <= 64) the FFT apply's time is almost all
per-call overhead.  On a 2-core x86 host with single-threaded OpenBLAS an
apply takes about 10 us against the FFT passes' 50 us at n = 32, and 43
against 94 us at n = 64; by n = 128 the cubic cost has crossed over, at
about 400 us against 280 us.

At n = 32 and nu = 0.5 the transport is ``O(10)`` against
``4 nu/h^2 ~ 2000``, so a solve takes about one iteration.  Folding the
transport's cell average into the symbol (T. Chan's averaged stencil,
SIAM J. Sci. Stat. Comput. 9, 1988) saved no iterations: 1065 against 1047
over a 2D n = 32 reference solve, and more at low viscosity.

:func:`bicgstab` is scipy's loop from ``x = 0`` with the same float
operations in the same order, so it is bitwise equal to scipy's for the
same operator and preconditioner, without scipy's operator wrapping.  A
non-finite entry of the system or the right-hand side raises
:class:`LinearSolveFailed` in the first iteration, where the plain loop
would run a NaN to ``maxiter`` and warn on an inf.  The loop stops on its
recursive residual, which can vanish while the true one does not: on a
singular system such as ``-nu L`` it returns success with ``|x| ~ 1e16``.
So :func:`sparse_solve` recomputes ``rhs - mat x`` once, at the cost of one
matvec, and raises :class:`LinearSolveFailed` when it misses the tolerance.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import math
import os

import numpy as np

from .errors import LinearSolveFailed
from .grid import GridSpec, StencilOperator, StencilPattern, stencil_pattern


def sparse_solve(
    grid: GridSpec, mat: StencilOperator, rhs: np.ndarray, nu: float, tol: float = 1e-12
) -> np.ndarray:
    """Solve ``mat x = rhs`` for a system ``I/dt - nu L + T`` on ``grid``.

    A 2D solve, and a 1D one whose system is not strictly diagonally
    dominant, must meet ``tol`` on its true residual; a non-finite solution
    raises :class:`LinearSolveFailed` in both dimensions.
    """
    if grid.dim == 1:
        lu = splu(grid, mat)
        x = lu.solve(rhs)
        # x.dot(x) is finite for finite entries below about 1e150; isfinite settles the rest
        if not (math.isfinite(x.dot(x)) or np.isfinite(x).all()):
            raise LinearSolveFailed("non-finite solution of the 1D system")
        if lu.dominant:
            return x
    atol = tol * (math.sqrt(rhs.dot(rhs)) + 1.0)
    if grid.dim == 2:
        M = heat_inverse(grid, nu)
        x, info = bicgstab(mat, rhs, rtol=tol, atol=atol, M=M, maxiter=20 * len(rhs))
        if info != 0:
            raise LinearSolveFailed(f"bicgstab returned info={info}")
    r = rhs - mat.dot(x)
    resid = math.sqrt(r.dot(r))
    if not resid <= atol:
        raise LinearSolveFailed(f"linear solve residual {resid:.3e} above {atol:.3e}")
    return x


def splu(grid: GridSpec, mat: StencilOperator) -> PeriodicTridiagonalLU:
    """A 1D system ``mat`` on the grid's stencil pattern as the periodic
    tridiagonal it is, certified and ready for its one solve: the one 1D
    factorization."""
    pattern = stencil_pattern(grid)
    if mat.pattern is not pattern:
        raise ValueError("a 1D system must be built on the grid's stencil pattern")
    return PeriodicTridiagonalLU(mat.data.take(_band_slots(pattern)))


@functools.lru_cache(maxsize=32)
def _band_slots(pattern: StencilPattern) -> np.ndarray:
    """For ``B`` with data on ``pattern``, the flat slots of ``B[i,i]``,
    ``B[i,i-1]``, ``B[i-1,i]``, ``B[i,i+1]`` and ``B[i+1,i]``, one row each
    and read-only."""
    lower, upper, mirror = pattern.lower[0], pattern.upper[0], pattern.transpose.ravel()
    slots = np.stack([pattern.center, lower, mirror[lower], upper, mirror[upper]])
    slots.flags.writeable = False
    return slots


@functools.cache
def _lapack():
    """LAPACK's ``dgtsv``, from scipy's f2py extension ``_flapack`` loaded by
    its file: importing the ``scipy.linalg`` package to reach it would run
    that package's imports, about 25 MB this module never uses."""
    scipy = importlib.util.find_spec("scipy")
    if scipy is None:
        raise ImportError("scipy is not installed: no LAPACK for the 1D solves")
    # the interpreter's own extension suffix, the first the import system tries
    name = "_flapack" + importlib.machinery.EXTENSION_SUFFIXES[0]
    path = os.path.join(scipy.submodule_search_locations[0], "linalg", name)
    if not os.path.isfile(path):
        raise ImportError(f"scipy's LAPACK extension not found at {path}", path=path)
    # the same module object as scipy's: an import of scipy.linalg, earlier or
    # later, finds it in sys.modules
    spec = importlib.util.spec_from_file_location("scipy.linalg._flapack", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.dgtsv


class PeriodicTridiagonalLU:
    """A periodic tridiagonal ``B``, from its ``(5, n)`` bands ``B[i,i]``,
    ``B[i,i-1]``, ``B[i-1,i]``, ``B[i,i+1]`` and ``B[i+1,i]`` (indices mod
    n), which it overwrites, ready for one solve: LAPACK factors the bands
    in place, so a second :meth:`solve` raises.

    With ``gamma = -B[0,0]`` (or -1 where that is 0), ``B = T + w v^T`` for
    ``w = (gamma, 0, .., 0, B[n-1,0])``, ``v = (1, 0, .., 0, B[0,n-1]/gamma)``
    and a tridiagonal ``T``.  :meth:`solve` factors ``T`` and solves it for
    the right-hand side and ``w`` at once, one ``dgtsv`` call on the two
    columns ``[rhs | w]``, then applies the rank-one update
    (Sherman-Morrison).  ``dominant`` says that ``B`` is finite and strictly
    diagonally dominant by rows or, tested only if not, by columns: then
    ``B`` and ``T`` are nonsingular, the pivoted LU is stable and the
    Sherman-Morrison denominator is not 0.  A non-finite entry raises
    :class:`LinearSolveFailed` here; a zero pivot of ``T`` and a zero
    denominator raise it in :meth:`solve`.
    """

    def __init__(self, bands: np.ndarray):
        size = np.abs(bands)
        margins = size[0] - size[1:3] - size[3:]  # by rows, by columns
        # rows first; NaN fails every comparison, an infinite diagonal the last one
        by_rows_or_columns = margins[0].min() > 0 or margins[1].min() > 0
        self.dominant = by_rows_or_columns and margins.max() < math.inf
        if not (self.dominant or np.isfinite(bands).all()):
            raise LinearSolveFailed("non-finite entry in the 1D system")
        # scalars as Python floats: the IEEE operations of 0-d arrays, at less cost
        diag, upper_corner, lower_corner = bands[0], bands.item(1, 0), bands.item(3, -1)
        gamma = -(diag.item(0) or 1.0)
        diag[0] -= gamma
        diag[-1] -= lower_corner * upper_corner / gamma
        self._bands, self._gamma, self._lower_corner = bands, gamma, lower_corner
        self._ratio = upper_corner / gamma

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """``B^{-1} rhs`` for a flat ``rhs``."""
        bands, self._bands = self._bands, None
        if bands is None:
            raise RuntimeError("the bands were factored by an earlier solve")
        # [rhs | w] in Fortran order: LAPACK factors and solves in place
        columns = np.zeros((2, len(rhs)))
        columns[0] = rhs
        columns[1, 0], columns[1, -1] = self._gamma, self._lower_corner
        *_, info = _lapack()(bands[4, :-1], bands[0], bands[3, :-1], columns.T, 1, 1, 1, 1)
        if info != 0:
            raise LinearSolveFailed(f"dgtsv returned info={info}")
        y, z = columns
        denominator = 1.0 + z.item(0) + self._ratio * z.item(-1)
        if denominator == 0:
            raise LinearSolveFailed("singular periodic tridiagonal system")
        z /= denominator
        # in Python floats, 0 * inf is NaN without a warning; the caller checks y
        y -= (y.item(0) + self._ratio * y.item(-1)) * z
        return y


def fourier_basis(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal real Fourier basis of a periodic axis of ``n`` cells, as
    the columns of an ``(n, n)`` array, and the frequency ``k`` of each."""
    j, k = np.arange(n), np.arange(1, (n - 1) // 2 + 1)
    # k j reduced mod n exactly, so every angle lies in [0, 2 pi)
    angle = (2 * np.pi / n) * (np.outer(j, k) % n)
    columns = [np.full((n, 1), 1 / math.sqrt(n))]
    columns += [math.sqrt(2 / n) * np.cos(angle), math.sqrt(2 / n) * np.sin(angle)]
    freqs = [[0], k, k]
    if n % 2 == 0:
        columns.append(((-1.0) ** j / math.sqrt(n))[:, None])
        freqs.append([n // 2])
    return np.hstack(columns), np.concatenate(freqs)


def heat_symbol(grid: GridSpec, nu: float) -> np.ndarray:
    """``(n, n)`` eigenvalues of ``I/dt - nu L`` on the 2D basis
    ``Q x Q``: ``1/dt`` plus ``nu`` times a sum of squares, so real and at
    least ``1/dt``."""
    _, freqs = fourier_basis(grid.n)
    lam = (4 / grid.h**2) * np.sin((np.pi / grid.n) * freqs) ** 2
    return 1 / grid.dt + nu * (lam[:, None] + lam[None, :])


@functools.lru_cache(maxsize=32)
def heat_inverse(grid: GridSpec, nu: float):
    """``r -> (I/dt - nu L)^{-1} r`` on flat fields; cached per ``(grid, nu)``."""
    basis, _ = fourier_basis(grid.n)
    # a contiguous transpose: BLAS reads it faster than the strided view
    basis_t, inverse = basis.T.copy(), 1 / heat_symbol(grid, nu)
    for array in (basis, basis_t, inverse):
        array.flags.writeable = False
    shape = grid.shape

    def apply(r: np.ndarray) -> np.ndarray:
        coeffs = basis_t.dot(r.reshape(shape)).dot(basis)
        coeffs *= inverse
        return basis.dot(coeffs).dot(basis_t).ravel()

    return apply


def bicgstab(A, b, *, rtol=1e-5, atol=0.0, M=None, maxiter=None, callback=None):
    """scipy's ``bicgstab`` from ``x = 0``, for a real ``A`` with ``dot`` and
    ``M`` a function applying the preconditioner (None: the identity).

    ``callback(x)`` runs after each full iteration.  Returns ``(x, info)``
    with scipy's codes; a non-finite inner product raises.
    """
    bnrm2 = math.sqrt(b.dot(b))
    atol = max(float(atol), float(rtol) * bnrm2)
    if bnrm2 == 0:
        return b, 0
    maxiter = 10 * len(b) if maxiter is None else maxiter
    psolve = M if M is not None else (lambda r: r)
    # scipy's breakdown thresholds, carried over from the original Fortran
    rhotol = omegatol = np.finfo(np.float64).eps ** 2
    x, r, rtilde = np.zeros(len(b)), b.copy(), b.copy()
    for iteration in range(maxiter):
        if math.sqrt(r.dot(r)) < atol:
            return x, 0
        rho = rtilde.dot(r)
        if not math.isfinite(rho):
            raise LinearSolveFailed("non-finite BiCGStab residual")
        if abs(rho) < rhotol:
            return x, -10
        if iteration > 0:
            if abs(omega) < omegatol:
                return x, -11
            beta = (rho / rho_prev) * (alpha / omega)
            p -= omega * v
            p *= beta
            p += r
        else:
            p = r.copy()
        phat = psolve(p)
        v = A.dot(phat)
        rv = rtilde.dot(v)
        # an entry of A that is not finite makes v, and so rv, non-finite
        if not math.isfinite(rv):
            raise LinearSolveFailed("non-finite entry in the BiCGStab system")
        if rv == 0:
            return x, -11
        alpha = rho / rv
        r -= alpha * v
        # scipy copies r into s here; r is not changed until omega is formed
        if math.sqrt(r.dot(r)) < atol:
            x += alpha * phat
            return x, 0
        shat = psolve(r)
        t = A.dot(shat)
        omega = t.dot(r) / t.dot(t)
        x += alpha * phat
        x += omega * shat
        r -= omega * t
        rho_prev = rho
        if callback:
            callback(x)
    return x, maxiter
