"""Sparse linear solves shared by the two PDE steppers.

Both steppers build their systems as CSC on the grid's stencil pattern, and
neither solver copies them into another format.  1D systems are periodic
tridiagonal: :func:`splu` reads the five bands from the pattern's slots and
factors the system with LAPACK's tridiagonal LU ``dgttrf``, the two corner
entries moved into a rank-one Sherman-Morrison correction, so a solve is one
``dgttrs`` and a rank-one update.  It replaced scipy's general sparse LU
(SuperLU): over the 3295 systems of an n = 64 reference solve, on a 2-core
x86 host, a factorization and solve take 19 us against SuperLU's 58 us, and
the two agree to 5e-15 relative.  Every 1D system the steppers build is
strictly diagonally dominant, the HJB ones by rows (nonpositive
off-diagonals, row sums ``1/dt``) and the Kolmogorov ones by columns, so it
is nonsingular and its pivoted LU is stable.  Any other system, such as a
caller's own, is checked on its true residual as a 2D one is, and one with
a non-finite entry raises :class:`LinearSolveFailed`.  :func:`splu` loads
LAPACK on the first 1D factorization, through a cached loader, at about
0.1 us a call: a 2D solve, bundle save and load, ``apriori_report``,
``check`` and ``diagnose`` never import ``scipy.linalg`` and the
scipy-bundled BLAS it brings, which is 10 MB of a 2D run's peak RSS.

2D systems use BiCGStab preconditioned by the exact inverse of the heat
operator ``I/dt - nu L``.

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
import math

import numpy as np
import scipy.sparse as sp

from .errors import LinearSolveFailed
from .grid import GridSpec, StencilPattern, stencil_pattern


def sparse_solve(
    grid: GridSpec, mat: sp.spmatrix, rhs: np.ndarray, nu: float, tol: float = 1e-12
) -> np.ndarray:
    """Solve ``mat x = rhs`` for a system ``I/dt - nu L + T`` on ``grid``.

    A 2D solve, and a 1D one whose system is not strictly diagonally
    dominant, must meet ``tol`` on its true residual.
    """
    if grid.dim == 1:
        lu = splu(grid, mat)
        x = lu.solve(rhs)
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


def splu(grid: GridSpec, mat: sp.csc_matrix) -> PeriodicTridiagonalLU:
    """LU factors of a 1D system ``mat``, CSC on the grid's stencil pattern,
    as the periodic tridiagonal it is: the one 1D factorization."""
    pattern = stencil_pattern(grid)
    if mat.indptr is not pattern.indptr:
        raise ValueError("a 1D system must be built on the grid's stencil pattern")
    return PeriodicTridiagonalLU(mat.data.take(_band_slots(pattern)))


@functools.lru_cache(maxsize=32)
def _band_slots(pattern: StencilPattern) -> np.ndarray:
    """For ``B = pattern.csc(data)``, the data slots of ``B[i,i]``,
    ``B[i,i-1]``, ``B[i-1,i]``, ``B[i,i+1]`` and ``B[i+1,i]``, one row each
    and read-only."""
    lower, upper, mirror = pattern.lower[0], pattern.upper[0], pattern.transpose
    slots = np.stack([pattern.center, mirror[lower], lower, mirror[upper], upper])
    slots.flags.writeable = False
    return slots


@functools.cache
def _lapack():
    from scipy.linalg.lapack import dgttrf, dgttrs

    return dgttrf, dgttrs


class PeriodicTridiagonalLU:
    """LU factors of a periodic tridiagonal ``B``, from its ``(5, n)`` bands
    ``B[i,i]``, ``B[i,i-1]``, ``B[i-1,i]``, ``B[i,i+1]`` and ``B[i+1,i]``
    (indices mod n), which it overwrites.

    With ``gamma = -B[0,0]`` (or -1 where that is 0), ``B = T + w v^T`` for
    ``w = (gamma, 0, .., 0, B[n-1,0])``, ``v = (1, 0, .., 0, B[0,n-1]/gamma)``
    and a tridiagonal ``T``, which ``dgttrf`` factors once; ``z = T^{-1} w``
    is solved here, so :meth:`solve` is one ``dgttrs`` and a rank-one update
    (Sherman-Morrison).  ``dominant`` says that ``B`` is finite and strictly
    diagonally dominant by rows or by columns: then ``B`` and ``T`` are
    nonsingular, the pivoted LU is stable and the Sherman-Morrison
    denominator is not 0.  A non-finite entry, a zero pivot of ``T`` and a
    zero denominator raise :class:`LinearSolveFailed`.
    """

    def __init__(self, bands: np.ndarray):
        diag, upper_corner, lower_corner = bands[0], bands[1, 0], bands[3, -1]
        size = np.abs(bands)
        margins = size[0] - size[1:3] - size[3:]  # by rows, by columns
        # NaN fails every comparison, an infinite diagonal the last one
        self.dominant = margins.min(axis=1).max() > 0 and margins.max() < math.inf
        if not (self.dominant or np.isfinite(bands).all()):
            raise LinearSolveFailed("non-finite entry in the 1D system")
        gamma = -diag[0] if diag[0] else -1.0
        diag[0] -= gamma
        diag[-1] -= lower_corner * upper_corner / gamma
        dgttrf, self._dgttrs = _lapack()
        *self._factors, info = dgttrf(bands[4, :-1], diag, bands[3, :-1], 1, 1, 1)
        if info != 0:
            raise LinearSolveFailed(f"dgttrf returned info={info}")
        w = np.zeros(len(diag))
        w[0], w[-1] = gamma, lower_corner
        z, _ = self._dgttrs(*self._factors, w, overwrite_b=1)
        self._ratio = upper_corner / gamma
        denominator = 1.0 + z[0] + self._ratio * z[-1]
        if denominator == 0:
            raise LinearSolveFailed("singular periodic tridiagonal system")
        z /= denominator
        self._correction = z

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """``B^{-1} rhs`` for a flat ``rhs``."""
        y, _ = self._dgttrs(*self._factors, rhs)
        y -= (y[0] + self._ratio * y[-1]) * self._correction
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
