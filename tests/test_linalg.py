"""2D linear solves: the heat-operator preconditioner and the BiCGStab loop;
the 1D periodic tridiagonal LU, whose LAPACK module loads on the first
factorization."""

import itertools
import json
import os
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import LinearOperator
from scipy.sparse.linalg import bicgstab as scipy_bicgstab

import congestion_mfg
from congestion_mfg import (
    ContinuationSchedule,
    CouplingSpec,
    FixedPointOptions,
    GridSpec,
    ModelParams,
    fpk,
    hjb,
    linalg,
    solve_mfg,
    solve_with_continuation,
)
from congestion_mfg.errors import LinearSolveFailed
from congestion_mfg.fpk import solve_fpk_forward
from congestion_mfg.grid import implicit_heat_data, stencil_pattern, upwind_parts
from congestion_mfg.hjb import HJBOptions, solve_hjb_backward
from congestion_mfg.model import congestion_denominator

REFERENCE = ModelParams(nu=0.5, beta=2.0, alpha=1.0, mu=1.0, horizon=1.0)
# low viscosity: the transport is no longer small against the heat operator,
# so BiCGStab takes several iterations per solve
LOW_VISCOSITY = ModelParams(nu=0.02, beta=2.0, alpha=1.0, mu=1.0, horizon=1.0)


def c09_bump(grid):
    x, y = grid.coords()
    return 1.0 + 0.5 * np.cos(2 * np.pi * x) * np.cos(2 * np.pi * y)


def heat_system(grid, nu):
    pattern = stencil_pattern(grid)
    return pattern.csc(implicit_heat_data(grid, nu))


@pytest.mark.parametrize("n", [4, 5, 6, 32, 64])
def test_preconditioner_inverts_constant_stencils(n):
    """The heat inverse undoes ``I/dt - nu L``, on either side."""
    grid = GridSpec(dim=2, n=n, nt=8, horizon=1.0)
    x = np.random.default_rng(n).normal(size=grid.ncells)
    for nu in (0.001, 0.3, 2.0):
        mat, apply = heat_system(grid, nu), linalg.heat_inverse(grid, nu)
        scale = np.abs(x).max()
        assert np.abs(apply(mat @ x) - x).max() <= 1e-12 * scale
        b = mat @ x
        assert np.abs(mat @ apply(b) - b).max() <= 1e-12 * np.abs(b).max()


@pytest.mark.parametrize("n", [4, 5, 6, 32, 64])
def test_fourier_basis_is_orthonormal(n):
    basis, freqs = linalg.fourier_basis(n)
    assert basis.shape == (n, n) and freqs.shape == (n,)
    assert np.abs(basis.T @ basis - np.eye(n)).max() <= 1e-14
    # each column is an eigenvector of the periodic second difference
    second = 2 * basis - np.roll(basis, 1, axis=0) - np.roll(basis, -1, axis=0)
    eigen = 4 * np.sin(np.pi * freqs / n) ** 2
    assert np.abs(second - basis * eigen).max() <= 1e-13


def test_symbol_real_part_at_least_one_over_dt():
    for n, nt in itertools.product((4, 5, 32), (2, 8, 1000)):
        grid = GridSpec(dim=2, n=n, nt=nt, horizon=1.0)
        for nu in (0.0, 1e-3, 0.5, 1e3):
            symbol = linalg.heat_symbol(grid, nu)
            assert symbol.dtype == np.float64
            assert symbol.shape == (n, n)
            assert symbol.min() >= 1 / grid.dt
            assert symbol[0, 0] == 1 / grid.dt


def test_heat_inverse_cached_per_grid_and_nu():
    grid = GridSpec(dim=2, n=8, nt=8, horizon=1.0)
    apply = linalg.heat_inverse(grid, 0.5)
    assert linalg.heat_inverse(grid, 0.5) is apply
    assert linalg.heat_inverse(GridSpec(dim=2, n=8, nt=8, horizon=1.0), 0.5) is apply
    assert linalg.heat_inverse(grid, 0.25) is not apply


@pytest.fixture(scope="module")
def captured():
    """(grid, system, rhs, nu, tol) of every solve in one 2D HJB + FPK sweep,
    at the reference and at a low viscosity."""
    grid = GridSpec(dim=2, n=32, nt=4, horizon=1.0)
    seen = []

    def recorder(grid, mat, rhs, nu, tol=1e-12):
        seen.append((grid, mat, rhs, nu, tol))
        return linalg.sparse_solve(grid, mat, rhs, nu, tol)

    m = np.broadcast_to(c09_bump(grid), (grid.nt + 1, *grid.shape)).copy()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hjb, "sparse_solve", recorder)
        mp.setattr(fpk, "sparse_solve", recorder)
        for params in (REFERENCE, LOW_VISCOSITY):
            start = len(seen)
            back = solve_hjb_backward(grid, m, params, CouplingSpec(), HJBOptions())
            n_hjb = len(seen)
            solve_fpk_forward(grid, back.transports, m[0], params)
            assert start < n_hjb < len(seen)
    return seen


def test_captured_systems_meet_tolerance(captured):
    for grid, mat, rhs, nu, tol in captured:
        x = linalg.sparse_solve(grid, mat, rhs, nu, tol)
        assert np.linalg.norm(mat @ x - rhs) <= tol * (np.linalg.norm(rhs) + 1.0)


def test_lean_operators_match_default_wrapping(captured, monkeypatch):
    """``linalg.bicgstab`` is scipy's BiCGStab without its operator wrapping:
    bitwise the same solution, info and callback count."""
    calls, loop = [], linalg.bicgstab

    def spy(A, b, **kwargs):
        calls.append(kwargs)
        return loop(A, b, **kwargs)

    monkeypatch.setattr(linalg, "bicgstab", spy)
    iterations = []
    for grid, mat, rhs, nu, tol in captured:
        x = linalg.sparse_solve(grid, mat, rhs, nu, tol)
        kwargs = dict(calls[-1])
        assert kwargs["M"] is linalg.heat_inverse(grid, nu)
        ours, scipys = [], []
        got, info = loop(mat, rhs, **kwargs, callback=ours.append)
        kwargs["M"] = LinearOperator(mat.shape, matvec=kwargs["M"])
        ref, ref_info = scipy_bicgstab(mat, rhs, **kwargs, callback=scipys.append)
        assert info == ref_info == 0
        assert len(ours) == len(scipys)
        for a in (x, got):
            assert np.array_equal(a.view(np.int64), ref.view(np.int64))
        iterations.append(len(ours))
    # both regimes are covered: one-iteration solves and longer ones
    assert min(iterations) <= 1 and max(iterations) >= 4


@pytest.mark.parametrize("entry", [None, np.nan, np.inf])
def test_singular_averaged_stencil_raises(entry):
    """``I/dt - nu L - I/dt = -nu L`` is a singular constant stencil; a NaN or
    infinite entry makes the system non-finite.  Each raises at once, without
    a warning: the plain loop runs a NaN system to ``maxiter`` and warns on an
    infinite one."""
    grid = GridSpec(dim=2, n=8, nt=8, horizon=1.0)
    pattern = stencil_pattern(grid)
    data = np.array(implicit_heat_data(grid, 0.5))
    if entry is None:
        data[pattern.center] -= 1 / grid.dt
    else:
        data[pattern.center[3]] = entry
    mat = pattern.csc(data)
    rhs = np.ones(grid.ncells)
    steps = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(LinearSolveFailed):
            linalg.sparse_solve(grid, mat, rhs, 0.5)
        if entry is None:
            # ones is orthogonal to the range of -nu L, so no x solves it: the
            # loop breaks down or stops on a recursive residual the true one
            # misses, which sparse_solve's residual check catches
            x, info = linalg.bicgstab(mat, rhs, M=linalg.heat_inverse(grid, 0.5))
            resid = np.linalg.norm(rhs - mat @ x)
            assert info < 0 or resid > 1e-12 * (np.linalg.norm(rhs) + 1.0)
        else:
            with pytest.raises(LinearSolveFailed, match="non-finite"):
                linalg.bicgstab(mat, rhs, callback=steps.append)
    assert steps == []


@pytest.mark.parametrize("n", [8, 32])
def test_singular_system_raises(n):
    """``-nu L`` (the heat data less ``1/dt`` on the diagonal) is singular and
    ``1 + N(0, 1)`` is not in its range.  BiCGStab's recursive residual still
    reaches the tolerance on it: trusting that, the solve returned
    ``|x| ~ 1e16`` with a true residual of 600 at n = 8, and 1.7e17 at
    n = 32."""
    grid = GridSpec(dim=2, n=n, nt=8, horizon=1.0)
    pattern = stencil_pattern(grid)
    data = np.array(implicit_heat_data(grid, 0.5))
    data[pattern.center] -= 1 / grid.dt
    rhs = 1 + np.random.default_rng(0).normal(size=grid.ncells)
    with pytest.raises(LinearSolveFailed):
        linalg.sparse_solve(grid, pattern.csc(data), rhs, 0.5)


@pytest.mark.parametrize("entry", [None, np.nan, np.inf])
@pytest.mark.parametrize("n", [8, 32])
def test_singular_1d_system_raises(n, entry):
    """The 1D counterpart, with a NaN or infinite diagonal entry as well.
    scipy's sparse LU returned ``|x| ~ 5e14`` at n = 8 and 4e13 at n = 32 on
    ``-nu L``, raised a bare ``RuntimeError`` on the NaN and returned a
    finite ``x`` on the infinite entry."""
    grid = GridSpec(dim=1, n=n, nt=8, horizon=1.0)
    pattern = stencil_pattern(grid)
    data = np.array(implicit_heat_data(grid, 0.5))
    if entry is None:
        data[pattern.center] -= 1 / grid.dt
    else:
        data[pattern.center[3]] = entry
    rhs = 1 + np.random.default_rng(0).normal(size=grid.ncells)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(LinearSolveFailed):
            linalg.sparse_solve(grid, pattern.csc(data), rhs, 0.5)


def test_1d_system_off_the_pattern_or_zero_raises():
    grid = GridSpec(dim=1, n=8, nt=8, horizon=1.0)
    rhs = np.ones(grid.ncells)
    with pytest.raises(ValueError, match="stencil pattern"):
        linalg.sparse_solve(grid, sp.identity(grid.ncells, format="csc"), rhs, 0.5)
    zero = stencil_pattern(grid).csc(np.zeros(3 * grid.ncells))
    with pytest.raises(LinearSolveFailed, match="dgttrf"):
        linalg.sparse_solve(grid, zero, rhs, 0.5)


@pytest.mark.parametrize("n", [4, 5, 16, 64, 256])
def test_1d_solves_match_superlu(n):
    """Each 1D system the steppers build is periodic tridiagonal and strictly
    diagonally dominant: the HJB ``I/dt - nu L + A`` by rows, the Kolmogorov
    ``I/dt - nu L + A^T`` by columns.  On seeded frames (the reference,
    ``mu = 0`` with empty cells, and transport-dominated at ``nu = 1e-3``)
    its solve agrees with scipy's general sparse LU to 1e-12 relative."""
    from scipy.sparse.linalg import splu as superlu

    grid = GridSpec(dim=1, n=n, nt=n, horizon=1.0)
    pattern = stencil_pattern(grid)
    rng = np.random.default_rng(n)
    singular = ModelParams(nu=0.3, beta=1.5, alpha=0.6, mu=0.0, horizon=1.0)
    for params in (REFERENCE, singular, replace(REFERENCE, nu=1e-3)):
        u, m = rng.normal(size=n), rng.random(n) + 0.1
        if params.mu == 0.0:
            m[::3] = 0.0
        congestion = congestion_denominator(m, params)
        jac = hjb.transport_jacobian(grid, upwind_parts(grid, u), congestion, params)
        if params.mu == 0.0:
            assert not congestion[1].all()
        if params.nu < 0.01:
            assert np.abs(jac.data).max() > params.nu / grid.h**2
        heat = implicit_heat_data(grid, params.nu)
        for data in (heat + jac.data.take(pattern.transpose), heat + jac.data):
            mat, rhs = pattern.csc(data), rng.normal(size=n)
            assert linalg.splu(grid, mat).dominant
            x = linalg.sparse_solve(grid, mat, rhs, params.nu)
            ref = superlu(mat).solve(rhs)
            assert np.abs(x - ref).max() <= 1e-12 * np.abs(ref).max()


def test_true_residual_is_checked(monkeypatch):
    """A loop that reports success with a wrong or NaN ``x`` is caught."""
    grid = GridSpec(dim=2, n=8, nt=8, horizon=1.0)
    mat, rhs = heat_system(grid, 0.5), np.ones(grid.ncells)
    for wrong in (np.zeros(grid.ncells), np.full(grid.ncells, np.nan)):
        monkeypatch.setattr(linalg, "bicgstab", lambda A, b, **kwargs: (wrong, 0))
        with pytest.raises(LinearSolveFailed, match="residual"):
            linalg.sparse_solve(grid, mat, rhs, 0.5)


@pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf])
def test_non_finite_right_hand_side_raises(entry):
    grid = GridSpec(dim=2, n=8, nt=8, horizon=1.0)
    rhs = np.ones(grid.ncells)
    rhs[5] = entry
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(LinearSolveFailed, match="non-finite"):
            linalg.sparse_solve(grid, heat_system(grid, 0.5), rhs, 0.5)


def test_loop_defaults_follow_scipy():
    """No preconditioner, default tolerances and ``maxiter``: still scipy's
    iterates; a zero right-hand side returns itself."""
    grid = GridSpec(dim=2, n=8, nt=8, horizon=1.0)
    mat = heat_system(grid, 0.5)
    b = np.random.default_rng(3).normal(size=grid.ncells)
    got, info = linalg.bicgstab(mat, b)
    ref, ref_info = scipy_bicgstab(mat, b)
    assert info == ref_info == 0
    assert np.array_equal(got.view(np.int64), ref.view(np.int64))
    zero = np.zeros(grid.ncells)
    x, info = linalg.bicgstab(mat, zero)
    assert x is zero and info == 0


def fft_heat_inverse(grid, nu):
    """The FFT apply of the heat inverse that the real Fourier basis
    replaced: the same symbol on the ``rfftn`` half spectrum."""
    half = (grid.n, grid.n // 2 + 1)
    squares = np.sin((np.pi / grid.n) * np.indices(half)) ** 2
    symbol = 1 / grid.dt + (4 * nu / grid.h**2) * squares.sum(axis=0)

    def apply(r):
        spectrum = np.fft.rfftn(r.reshape(grid.shape), axes=(0, 1)) / symbol
        return np.fft.irfftn(spectrum, s=grid.shape, axes=(0, 1)).ravel()

    return apply


def test_fft_preconditioner_gives_the_same_solve(monkeypatch):
    """The 2D n = 32 reference solve, preconditioned by the basis apply and by
    the FFT apply: the same outer iterations and the same solution."""
    grid = GridSpec(dim=2, n=32, nt=32, horizon=1.0)

    def solve():
        return solve_mfg(
            grid, REFERENCE, CouplingSpec(), FixedPointOptions(fp_tol=1e-8),
            m0=c09_bump(grid),
        )

    ours = solve()
    monkeypatch.setattr(linalg, "heat_inverse", fft_heat_inverse)
    ref = solve()
    assert ours.meta["outer_iters"] == ref.meta["outer_iters"] == 20
    assert np.abs(ours.u - ref.u).max() <= 1e-10
    assert np.abs(ours.m - ref.m).max() <= 1e-10


def assert_structure(sol):
    grid = sol.grid
    assert sol.converged
    masses = grid.cell_volume * sol.m.sum(axis=(1, 2))
    assert np.abs(masses - masses[0]).max() <= 1e-10
    assert sol.m.min() >= -1e-12


class TestBreakdownReproducers:
    """2D solves on which Jacobi-preconditioned BiCGStab broke down (info -10)."""

    def test_reference_n64(self):
        grid = GridSpec(dim=2, n=64, nt=32, horizon=1.0)
        sol = solve_mfg(
            grid, REFERENCE, CouplingSpec(), FixedPointOptions(fp_tol=1e-8),
            m0=c09_bump(grid),
        )
        assert_structure(sol)

    def test_seeded_bump_n32(self):
        grid = GridSpec(dim=2, n=32, nt=32, horizon=1.0)
        m0 = c09_bump(grid)
        rng = np.random.default_rng([1, 0])
        for k in (2, 3):
            amplitude, phase = rng.uniform(0.0, 0.05, 2)
            wave = np.ones(grid.shape)
            for x in grid.coords():
                wave = wave * np.cos(2 * np.pi * k * x + phase)
            m0 = m0 + amplitude * wave
        sol = solve_mfg(
            grid, REFERENCE, CouplingSpec(), FixedPointOptions(fp_tol=1e-8), m0=m0
        )
        assert_structure(sol)


def test_c09_ladder_2d_converges_in_budget():
    """The c09 (eps, mu) ladder of the 1D benchmark, on the 2D n = nt = 16 grid.

    The tail of each rung is chaotic under perturbations at the linear
    solver's tolerance, so a change of the 2D solve moves its outer-iteration
    counts; every rung must still converge within the ladder's budget."""
    grid = GridSpec(dim=2, n=16, nt=16, horizon=1.0)
    result = solve_with_continuation(
        grid,
        ModelParams(nu=0.5, beta=1.5, alpha=0.6, mu=1.0, horizon=1.0),
        CouplingSpec(cf=0.5, cg=0.5),
        FixedPointOptions(fp_tol=1e-6, max_outer_iter=400),
        ContinuationSchedule(
            epsilons=(0.05,), mus=(1.0, 0.5, 0.25, 0.1, 0.05), warm_start=True
        ),
        m0=c09_bump(grid),
    )
    assert result.ok and len(result.solutions) == 5
    for sol in result.solutions:
        assert sol.meta["outer_iters"] <= 400
        assert_structure(sol)


# Run in a fresh interpreter: the test process has scipy's solvers loaded.
IMPORT_TRAFFIC = """
import json, os, sys
import numpy as np
from congestion_mfg import CouplingSpec, GridSpec, ModelParams, apriori_report
from congestion_mfg import fpk, hjb, linalg, load_solution, save_solution, solve_mfg
from congestion_mfg.cli import main

loaded = lambda: sorted({"scipy.linalg", "scipy.sparse.linalg"} & set(sys.modules))
out, tmp = {"import": loaded()}, sys.argv[1]
params = ModelParams(nu=0.5, beta=2.0, alpha=1.0, mu=1.0, horizon=1.0)
grid = GridSpec(dim=2, n=8, nt=8, horizon=1.0)
x, y = grid.coords()
m0 = 1.0 + 0.5 * np.cos(2 * np.pi * x) * np.cos(2 * np.pi * y)
sol = solve_mfg(grid, params, CouplingSpec(), m0=m0)
out["solve_2d"] = loaded()
bundle = os.path.join(tmp, "bundle2d")
save_solution(sol, bundle)
apriori_report(load_solution(bundle))
out["bundle_2d"] = loaded()
config = os.path.join(tmp, "small.cfg")
with open(config, "w") as fh:
    fh.write("n = 8\\nnt = 8\\n")
out["check"] = [main(["check", config]), loaded()]
out["diagnose"] = [main(["diagnose", bundle]), loaded()]

counts = {"splu": 0, "solves": 0}
def counting(module, name, key):
    original = getattr(module, name)
    def counted(*args, **kwargs):
        counts[key] += 1
        return original(*args, **kwargs)
    setattr(module, name, counted)
    return counted
wrapper = counting(linalg, "splu", "splu")
counting(hjb, "sparse_solve", "solves")
counting(fpk, "sparse_solve", "solves")
solve_mfg(GridSpec(dim=1, n=8, nt=8, horizon=1.0), params, CouplingSpec())
out.update(counts, solve_1d=loaded(), wrapper_kept=linalg.splu is wrapper)
print(json.dumps(out))
"""


def test_only_a_1d_factorization_imports_the_sparse_lu(tmp_path):
    src = str(Path(congestion_mfg.__file__).resolve().parents[1])
    paths = [src, os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_TRAFFIC, str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    # neither scipy.sparse.linalg nor the scipy.linalg it brings; the CLI
    # commands exit 0
    assert [out[key] for key in ("import", "solve_2d", "bundle_2d")] == [[]] * 3
    assert out["check"] == out["diagnose"] == [0, []]
    # one factorization per 1D linear solve, through the traceable name; it
    # loads LAPACK's tridiagonal LU, and no sparse solver
    assert out["solve_1d"] == ["scipy.linalg"] and out["wrapper_kept"]
    assert out["splu"] == out["solves"] > 0
