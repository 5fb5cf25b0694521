"""Sparse linear solves shared by the two PDE steppers.

1D systems go through a direct sparse LU factorization.  2D systems use
BiCGStab preconditioned by the exact FFT inverse of the heat operator
``I/dt - nu L``.  Both steppers build their systems as CSC on the grid's
stencil pattern, which ``splu`` takes as is and BiCGStab multiplies with
directly, so no format copy is made.

Every system is ``I/dt - nu L + T`` with the congestion transport ``T = A``
(HJB) or ``A^T`` (Kolmogorov).  The FFT diagonalises the heat part; its
symbol on the ``rfftn`` half spectrum,
``1/dt + (4 nu/h^2) sum_ax sin^2(pi k_ax/n)``, is real and at least ``1/dt``
by construction.  :func:`heat_inverse` is built once per ``(grid, nu)``; its
apply writes ``rfftn``/``irfftn`` out as their 1D passes (``rfft`` on the
last axis, ``fft`` on the others), bit-identical to them without their
per-call argument handling.  At n = 32 and nu = 0.5 the transport is
``O(10)`` against ``4 nu/h^2 ~ 2000``, so a solve takes about one
iteration.  Folding the transport's cell average into the symbol (the
averaged stencil, T. Chan, SIAM J. Sci. Stat. Comput. 9, 1988) saved no
iterations: 1047 with the heat operator against 1065 over a 2D n = 32
reference solve, and per solve at (nu, n) = (0.005, 32) and (0.001, 32)
28.6 against 33.5 and 37.6 against 50.7.

:func:`bicgstab` is scipy's loop from ``x = 0`` with the same float
operations in the same order, so it is bitwise equal to scipy's for the
same operator and preconditioner, without scipy's operator wrapping.  A
non-finite entry of the system or the right-hand side raises
:class:`LinearSolveFailed` in the first iteration, where the plain loop
would run a NaN to ``maxiter`` and warn on an inf.
"""

from __future__ import annotations

import functools
import math

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .errors import LinearSolveFailed
from .grid import GridSpec


def sparse_solve(
    grid: GridSpec, mat: sp.spmatrix, rhs: np.ndarray, nu: float, tol: float = 1e-12
) -> np.ndarray:
    """Solve ``mat x = rhs`` for a system ``I/dt - nu L + T`` on ``grid``."""
    if grid.dim == 1:
        return splu(mat).solve(rhs)
    M, atol = heat_inverse(grid, nu), tol * (math.sqrt(rhs.dot(rhs)) + 1.0)
    x, info = bicgstab(mat, rhs, rtol=tol, atol=atol, M=M, maxiter=20 * len(rhs))
    if info != 0:
        raise LinearSolveFailed(f"bicgstab returned info={info}")
    return x


def heat_symbol(grid: GridSpec, nu: float) -> np.ndarray:
    """Symbol of ``I/dt - nu L`` on the ``rfftn`` half spectrum: ``1/dt``
    plus a sum of squares, so real and at least ``1/dt``."""
    half = (*grid.shape[:-1], grid.n // 2 + 1)
    squares = np.sin((np.pi / grid.n) * np.indices(half)) ** 2
    return 1 / grid.dt + (4 * nu / grid.h**2) * squares.sum(axis=0)


@functools.lru_cache(maxsize=32)
def heat_inverse(grid: GridSpec, nu: float):
    """``r -> (I/dt - nu L)^{-1} r`` on flat fields; cached per ``(grid, nu)``."""
    symbol = heat_symbol(grid, nu)
    shape, n, lead = grid.shape, grid.n, range(grid.dim - 1)

    def apply(r: np.ndarray) -> np.ndarray:
        spectrum = np.fft.rfft(r.reshape(shape))
        for ax in reversed(lead):
            spectrum = np.fft.fft(spectrum, axis=ax)
        spectrum /= symbol
        for ax in lead:
            spectrum = np.fft.ifft(spectrum, axis=ax)
        return np.fft.irfft(spectrum, n).ravel()

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
            s = np.empty_like(r)
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
        s[:] = r[:]
        if math.sqrt(s.dot(s)) < atol:
            x += alpha * phat
            return x, 0
        shat = psolve(s)
        t = A.dot(shat)
        omega = t.dot(s) / t.dot(t)
        x += alpha * phat
        x += omega * shat
        r -= omega * t
        rho_prev = rho
        if callback:
            callback(x)
    return x, maxiter
