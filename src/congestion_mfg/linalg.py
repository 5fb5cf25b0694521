"""Sparse linear solves shared by the two PDE steppers.

1D systems go through a direct sparse LU factorization.  2D systems use
BiCGStab, preconditioned by the exact inverse of the system's *averaged
stencil*.  Both steppers build their systems as CSC on the grid's stencil
pattern, which ``splu`` takes as is and BiCGStab multiplies with directly, so
no format copy is made.

**The averaged-stencil preconditioner.**  Every system is
``I/dt - nu L + T`` with the congestion transport ``T = A`` (HJB) or
``A^T`` (Kolmogorov).  Averaging each stencil offset's coefficient over all
cells gives a constant-coefficient periodic operator ``C``, the
Frobenius-nearest block-circulant matrix to the system (T. Chan, SIAM J. Sci.
Stat. Comput. 9, 1988).  The FFT diagonalises ``C``: its symbol on the
``rfftn`` half spectrum is

    lambda(k) = c_0 + sum_ax (c_+ exp(i theta_ax) + c_- exp(-i theta_ax)),

with ``c_0`` the mean diagonal and ``c_+``/``c_-`` the mean coefficients of
the ``+e_ax``/``-e_ax`` neighbours, so ``C^{-1} r = irfftn(rfftn(r) /
lambda)`` costs one small FFT pair.  The apply writes both transforms out
as their 1D passes, ``rfft`` on the last axis and ``fft`` on the others
(inverse in reverse order), which is bit-identical to ``rfftn``/``irfftn``
and skips their per-call argument handling.  The heat part ``I/dt - nu L``
has constant coefficients and is reproduced exactly; only the transport's
deviation from its mean is left over.  At 2D n = 32 and nu = 0.5 that
deviation is ``O(10)`` against ``4 nu/h^2 ~ 2000``, so ``C^{-1} M`` is the
identity up to about 1% and BiCGStab meets the tolerance in about one
iteration.

**Why lambda never vanishes.**  Both steppers build M-matrices with
off-diagonal entries ``<= 0`` and an average row sum of ``1/dt`` (the HJB
rows sum to ``1/dt`` because ``A`` has zero row sums; the Kolmogorov columns
do, and the mean of all row sums equals the mean of all column sums).  So
``c_+, c_- <= 0`` and

    Re lambda(k) = c_0 + sum_ax (c_+ + c_-) cos(theta_ax)
                >= c_0 + sum_ax (c_+ + c_-) = 1/dt.

A symbol with a zero or non-finite entry can only come from some other
system; it raises :class:`LinearSolveFailed` before anything is divided.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import LinearOperator, bicgstab, splu

from .errors import LinearSolveFailed
from .grid import GridSpec, offset_symbols, stencil_data, stencil_pattern


def sparse_solve(
    grid: GridSpec, mat: sp.spmatrix, rhs: np.ndarray, tol: float = 1e-12
) -> np.ndarray:
    if grid.dim == 1:
        return splu(mat).solve(rhs)
    x, info = bicgstab(
        _LeanOperator(mat.shape, mat.dot),
        rhs,
        rtol=tol,
        atol=tol * (np.linalg.norm(rhs) + 1.0),
        M=_LeanOperator(mat.shape, averaged_stencil_inverse(grid, mat)),
        maxiter=20 * mat.shape[0],
    )
    if info != 0:
        raise LinearSolveFailed(f"bicgstab returned info={info}")
    return x


def averaged_symbol(grid: GridSpec, mat: sp.spmatrix) -> np.ndarray:
    """Symbol of the averaged stencil of ``mat`` on the ``rfftn`` half spectrum.

    ``mat`` is a matrix on the grid's stencil; a CSC matrix built on the
    cached pattern is read without a copy.
    """
    pattern = stencil_pattern(grid)
    if mat.format == "csc" and mat.indptr is pattern.indptr:
        data = mat.data
    else:
        data = stencil_data(grid, mat.T)
    symbols = offset_symbols(grid)
    with np.errstate(all="ignore"):
        # ``mat`` is ``csr(data)^T``, whose symbol is the conjugate of
        # ``csr(data)``'s: its ``+e`` coefficients sit in the ``lower`` slots
        means = data[pattern.slots].mean(axis=1)
        symbol = np.conj(means @ symbols.reshape(len(means), -1))
    return symbol.reshape(symbols.shape[1:])


def averaged_stencil_inverse(grid: GridSpec, mat: sp.spmatrix):
    """``r -> C^{-1} r`` for the averaged stencil ``C`` of ``mat``, on flat fields.

    Raises :class:`LinearSolveFailed` when the symbol has a zero or
    non-finite entry.
    """
    symbol = averaged_symbol(grid, mat)
    if not (np.isfinite(symbol).all() and symbol.all()):
        raise LinearSolveFailed("averaged stencil of the 2D system is singular")
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


class _LeanOperator(LinearOperator):
    """A square float operator whose ``matvec`` is ``fn`` itself.

    scipy's wrappers check and reshape every vector; BiCGStab only ever
    passes flat vectors of the right length, so the checks are skipped.
    """

    def __init__(self, shape, fn):
        super().__init__(np.float64, shape)
        self.matvec = fn

    def _matvec(self, x):
        return self.matvec(x)
