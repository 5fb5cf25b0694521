"""Sparse linear solves shared by the two PDE steppers.

Every system is ``I/dt - nu L + T`` with the congestion transport ``T = A``
(HJB) or ``A^T`` (Kolmogorov), held as
:class:`~congestion_mfg.grid.StencilOperator` data on the grid's stencil
pattern; neither solver copies it into another format.

1D systems are periodic tridiagonal.  :func:`splu` hands a copy of the
operator's three data rows, each row's diagonal and neighbour entries, to
:class:`PeriodicTridiagonalLU`, which solves with one LAPACK ``dgtsv`` call
and a rank-one Sherman-Morrison update, one LAPACK call per system.  Every
1D system the steppers build is strictly diagonally dominant, the HJB ones by
rows (nonpositive off-diagonals, row sums ``1/dt``) and the Kolmogorov ones
by columns, so it is nonsingular and its pivoted LU is stable; the
certificate tests the rows first, as both kinds are usually dominant by
rows.  Any other system is checked on its true residual, as a 2D
one is.  A non-finite entry of the system raises :class:`LinearSolveFailed`,
as does a non-finite solution, which a NaN or an infinity in the right-hand
side gives.  LAPACK is loaded on the first 1D solve, from scipy's extension
``scipy/linalg/_flapack`` by its file: the same routine and bits without the
``scipy.linalg`` package's imports, and a 2D solve, bundle I/O and the
diagnostics load none of it.

2D systems use BiCGStab preconditioned by the exact inverse of the heat
operator ``I/dt - nu L``.  On the torus that operator is diagonal in the
orthonormal real Fourier basis ``Q`` of :func:`fourier_basis`: the columns
``1/sqrt(n)``, ``sqrt(2/n) cos(2 pi k j/n)`` and ``sqrt(2/n) sin(2 pi k j/n)``
for ``k = 1..(n-1)//2``, and ``(-1)^j/sqrt(n)`` when n is even.  Each column
is an eigenvector of the periodic ``-L`` along one axis with eigenvalue
``4 sin^2(pi k/n)/h^2``, computed from the formula, so the 2D symbol
``1/dt + nu (lambda_i + lambda_j)`` is real, at least ``1/dt``, and exactly
``1/dt`` on the constant mode.  :func:`heat_inverse` applies its inverse as
four small matmuls, ``Q^T R Q``, a product with the inverse symbol, then
``Q Y Q^T``: O(n^3), but at the sizes used here (n <= 64) an FFT apply's
time is almost all per-call overhead.

:func:`bicgstab` is scipy's loop from ``x = 0`` with the same float
operations in the same order, so it is bitwise equal to scipy's, without
scipy's operator wrapping.  A non-finite entry of the system or the
right-hand side raises :class:`LinearSolveFailed` in the first iteration,
where the plain loop would run a NaN to ``maxiter`` and warn on an inf.  The
loop stops on its recursive residual, which rounding can part from the true
one, and which vanishes on a singular system such as ``-nu L`` while
``|x| ~ 1e16``.  So :func:`sparse_solve` recomputes ``rhs - mat x``; when
that misses the tolerance it solves once more for the true residual's
correction, and raises :class:`LinearSolveFailed` if the corrected solution
misses too.  The recomputed residual is rounded as well: on ``-nu L`` with
``rhs = 1`` at n = 8, BiCGStab stops at ``|x| ~ 1e15``, where every row of
``mat x`` rounds to 1 exactly.  Every system the steppers build has
nonpositive off-diagonal entries and row (HJB) or column (Kolmogorov) sums
``1/dt``, so its inverse has norm at most ``dt`` in the max (or 1-) norm
and ``|x| <= dt sqrt(ncells) |rhs|``; a solution above that bound raises
:class:`LinearSolveFailed` too.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import math
import os

import numpy as np

from .errors import LinearSolveFailed
from .grid import GridSpec, StencilOperator, stencil_pattern


# the relative residual every linear solve must meet, HJB and Kolmogorov alike
LINEAR_TOL = 1e-12


def sparse_solve(grid: GridSpec, mat: StencilOperator, rhs: np.ndarray, nu: float) -> np.ndarray:
    """Solve ``mat x = rhs`` for a system ``I/dt - nu L + T`` on ``grid``.

    A 2D solve, and a 1D one whose system is not strictly diagonally
    dominant, must meet ``LINEAR_TOL`` on its true residual, a 2D one after
    at most one refinement round; a non-finite solution raises
    :class:`LinearSolveFailed` in both dimensions.
    """
    if grid.dim == 1:
        lu = splu(grid, mat)
        x = lu.solve(rhs)
        # x.dot(x) is finite for finite entries below about 1e150; isfinite settles the rest
        if not (math.isfinite(x.dot(x)) or np.isfinite(x).all()):
            raise LinearSolveFailed("non-finite solution of the 1D system")
        if lu.dominant:
            return x
    rhs_norm = math.sqrt(rhs.dot(rhs))
    atol = LINEAR_TOL * (rhs_norm + 1.0)
    if grid.dim == 2:
        x = _heat_bicgstab(grid, mat, rhs, nu, atol)
    r = rhs - mat.dot(x)
    resid = math.sqrt(r.dot(r))
    if grid.dim == 2 and not resid <= atol:
        # BiCGStab stopped on its recursive residual: one round on the true one
        x = x + _heat_bicgstab(grid, mat, r, nu, atol)
        r = rhs - mat.dot(x)
        resid = math.sqrt(r.dot(r))
    if not resid <= atol:
        raise LinearSolveFailed(f"linear solve residual {resid:.3e} above {atol:.3e}")
    # row or column sums 1/dt bound the inverse: |x| <= dt sqrt(ncells) |rhs - r|
    bound = grid.dt * math.sqrt(grid.ncells) * (rhs_norm + atol)
    if not x.dot(x) <= bound**2:
        raise LinearSolveFailed(f"solution norm {math.sqrt(x.dot(x)):.3e} above {bound:.3e}")
    return x


def _heat_bicgstab(grid, mat, rhs, nu, atol) -> np.ndarray:
    """BiCGStab's solution of ``mat x = rhs``, preconditioned by the heat
    inverse; a breakdown or an exhausted budget raises."""
    x, info = bicgstab(mat, rhs, rtol=LINEAR_TOL, atol=atol, M=heat_inverse(grid, nu),
                       maxiter=20 * len(rhs))
    if info != 0:
        raise LinearSolveFailed(f"bicgstab returned info={info}")
    return x


def splu(grid: GridSpec, mat: StencilOperator) -> PeriodicTridiagonalLU:
    """A 1D system ``mat`` on the grid's stencil pattern as the periodic
    tridiagonal it is, certified and ready for its one solve: the one 1D
    factorization."""
    if mat.pattern is not stencil_pattern(grid):
        raise ValueError("a 1D system must be built on the grid's stencil pattern")
    return PeriodicTridiagonalLU(mat.data.copy())


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
    """A periodic tridiagonal ``B``, from its ``(3, n)`` stencil data in
    offset order, ``B[i,i]``, ``B[i,i-1]`` and ``B[i,i+1]`` (indices mod n),
    which it overwrites, ready for one solve: LAPACK factors them in place,
    so a second :meth:`solve` raises.

    With ``gamma = -B[0,0]`` (or -1 where that is 0), ``B = T + w v^T`` for
    ``w = (gamma, 0, .., 0, B[n-1,0])``, ``v = (1, 0, .., 0, B[0,n-1]/gamma)``
    and a tridiagonal ``T``.  :meth:`solve` factors ``T`` and solves it for
    the right-hand side and ``w`` at once, one ``dgtsv`` call on the two
    columns ``[rhs | w]``, then applies the rank-one update
    (Sherman-Morrison).  ``dominant`` says that ``B`` is finite and strictly
    diagonally dominant by rows or, tested only if not, by columns (column
    ``i`` holds ``B[i-1,i]``, row ``i-1``'s upper entry, and ``B[i+1,i]``,
    row ``i+1``'s lower one): then
    ``B`` and ``T`` are nonsingular, the pivoted LU is stable and the
    Sherman-Morrison denominator is not 0.  A non-finite entry raises
    :class:`LinearSolveFailed` here; a zero pivot of ``T`` and a zero
    denominator raise it in :meth:`solve`.
    """

    def __init__(self, bands: np.ndarray):
        size = np.abs(bands)
        margins = size[0] - size[1] - size[2]  # by rows
        if not margins.min() > 0:  # by columns: B[i-1,i] and B[i+1,i]
            margins = size[0] - np.roll(size[2], 1) - np.roll(size[1], -1)
        # NaN fails every comparison, an infinite diagonal the last one
        self.dominant = margins.min() > 0 and margins.max() < math.inf
        if not (self.dominant or np.isfinite(bands).all()):
            raise LinearSolveFailed("non-finite entry in the 1D system")
        # scalars as Python floats: the IEEE operations of 0-d arrays, at less cost
        diag, upper_corner, lower_corner = bands[0], bands.item(1, 0), bands.item(2, -1)
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
        *_, info = _lapack()(bands[1, 1:], bands[0], bands[2, :-1], columns.T, 1, 1, 1, 1)
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


_BREAKDOWN_TOL = np.finfo(np.float64).eps ** 2  # scipy's, for rho and omega, from the Fortran


def bicgstab(A, b, *, rtol=1e-5, atol=0.0, M=None, maxiter=None, callback=None):
    """scipy's ``bicgstab`` from ``x = 0``, for a real ``A`` with ``dot`` and
    ``M`` a function applying the preconditioner (None: the identity).

    ``callback(x)`` runs after each full iteration.  Returns ``(x, info)``
    with scipy's codes; a non-finite inner product raises.
    """
    bb = b.dot(b)
    bnrm2 = math.sqrt(bb)
    atol = max(float(atol), float(rtol) * bnrm2)
    if bnrm2 == 0:
        return b, 0
    maxiter = 10 * len(b) if maxiter is None else maxiter
    psolve = M if M is not None else (lambda r: r)
    x, r, rtilde = np.zeros(len(b)), b.copy(), b  # rtilde is only read; r = b at iteration 0
    for iteration in range(maxiter):
        if (math.sqrt(r.dot(r)) if iteration else bnrm2) < atol:
            return x, 0
        rho = rtilde.dot(r) if iteration else bb
        if not math.isfinite(rho):
            raise LinearSolveFailed("non-finite BiCGStab residual")
        if abs(rho) < _BREAKDOWN_TOL:
            return x, -10
        if iteration > 0:
            if abs(omega) < _BREAKDOWN_TOL:
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
