"""Sparse linear solves shared by the two PDE steppers.

1D systems go through a direct sparse LU factorization; 2D systems use
BiCGStab with a diagonal (Jacobi) preconditioner, which is plenty for the
diagonally dominant M-matrices both steppers assemble.  Both steppers build
their systems as CSC on the grid's stencil pattern, which ``splu`` takes as
is and BiCGStab multiplies with directly, so no format copy is made.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import LinearOperator, bicgstab, splu

from .errors import LinearSolveFailed
from .grid import GridSpec


def sparse_solve(
    grid: GridSpec, mat: sp.spmatrix, rhs: np.ndarray, tol: float = 1e-12
) -> np.ndarray:
    if grid.dim == 1:
        return splu(mat).solve(rhs)
    diag = mat.diagonal()
    if np.any(diag == 0.0):
        raise LinearSolveFailed("zero diagonal entry in 2D system")
    precond = LinearOperator(mat.shape, matvec=lambda x: x / diag)
    x, info = bicgstab(
        mat,
        rhs,
        rtol=tol,
        atol=tol * (np.linalg.norm(rhs) + 1.0),
        M=precond,
        maxiter=20 * mat.shape[0],
    )
    if info != 0:
        raise LinearSolveFailed(f"bicgstab returned info={info}")
    return x
