"""Discrete operator contracts: stencils, upwind differences, smoothing, CSV."""

import copy
import pickle
import re
from dataclasses import FrozenInstanceError, asdict, replace

import numpy as np
import pytest

from congestion_mfg.bundles import read_field_csv, read_frame_csv, write_field_csv
from congestion_mfg.grid import (
    GridSpec,
    gaussian_smooth,
    StencilOperator,
    integrate,
    one_sided_diffs,
    prolong_frame,
    restrict_traj,
    stencil_pattern,
    upwind_parts,
)

from conftest import as_csr, y_major_rows

RNG = np.random.default_rng(42)


def grids():
    return [GridSpec(dim=1, n=16, nt=4, horizon=1.0), GridSpec(dim=2, n=8, nt=4, horizon=1.0)]


def random_field(grid, rng=RNG):
    return rng.normal(size=grid.shape)


def laplacian(grid, f):
    """Reference second-order centered periodic Laplacian from rolled copies."""
    out = np.zeros_like(f, dtype=float)
    for ax in range(grid.dim):
        out += np.roll(f, -1, axis=ax) - 2.0 * f + np.roll(f, 1, axis=ax)
    return out / grid.h**2


class TestGridSpec:
    def test_spacing_exact(self):
        grid = GridSpec(dim=1, n=32, nt=8, horizon=2.0)
        assert grid.h * grid.n == 1.0
        assert grid.dt == 0.25
        assert grid.ncells == 32

    def test_validation(self):
        with pytest.raises(ValueError):
            GridSpec(dim=3, n=8, nt=4, horizon=1.0)
        with pytest.raises(ValueError):
            GridSpec(dim=1, n=3, nt=4, horizon=1.0)
        with pytest.raises(ValueError):
            GridSpec(dim=1, n=8, nt=1, horizon=1.0)

    @pytest.mark.parametrize("horizon", [np.nan, np.inf])
    def test_non_finite_horizon_rejected(self, horizon):
        # nan passed every check and then differed from itself; inf gave
        # dt = inf and a linear solve that missed its residual by 1e13
        with pytest.raises(ValueError, match="horizon must be positive and finite"):
            GridSpec(dim=1, n=8, nt=8, horizon=horizon)

    @pytest.mark.parametrize("field, value", [("n", 8.5), ("nt", 8.5), ("dim", 1.0)])
    def test_non_integral_counts_rejected(self, field, value):
        args = {"dim": 1, "n": 8, "nt": 8, "horizon": 1.0, field: value}
        with pytest.raises(ValueError, match="must be integers"):
            GridSpec(**args)

    def test_numpy_integers_accepted(self):
        grid = GridSpec(dim=np.int64(1), n=np.int64(8), nt=np.int32(8), horizon=1.0)
        assert grid == GridSpec(dim=1, n=8, nt=8, horizon=1.0)

    def test_hash_equality_replace_and_pickle(self):
        """The hash is computed once, at construction; it is the dataclass
        hash of the fields, equal grids share it, and ``replace``, copies
        and pickles rebuild it."""
        grid = GridSpec(dim=2, n=8, nt=4, horizon=2.0)
        assert hash(grid) == hash((2, 8, 4, 2.0))
        same = GridSpec(dim=2, n=8, nt=4, horizon=2.0)
        assert grid == same and hash(grid) == hash(same) and {grid: 1}[same] == 1
        assert grid != GridSpec(dim=2, n=8, nt=4, horizon=1.0)
        finer = replace(grid, n=16)
        assert finer == GridSpec(dim=2, n=16, nt=4, horizon=2.0)
        assert hash(finer) == hash((2, 16, 4, 2.0))
        for copied in (pickle.loads(pickle.dumps(grid)), copy.copy(grid), copy.deepcopy(grid)):
            assert copied == grid and hash(copied) == hash(grid)
        assert asdict(grid) == dict(dim=2, n=8, nt=4, horizon=2.0)
        assert repr(grid) == "GridSpec(dim=2, n=8, nt=4, horizon=2.0)"
        with pytest.raises(FrozenInstanceError):
            grid.n = 16


class TestLaplacian:
    @pytest.mark.parametrize("grid", grids(), ids=["1d", "2d"])
    def test_annihilates_constants(self, grid):
        out = laplacian(grid, np.full(grid.shape, 3.7))
        assert np.abs(out).max() == 0.0

    def test_cosine_eigenfunction(self):
        grid = GridSpec(dim=1, n=64, nt=4, horizon=1.0)
        f = np.cos(2 * np.pi * grid.axis_centers())
        expected = -(4.0 / grid.h**2) * np.sin(np.pi * grid.h) ** 2 * f
        assert np.abs(laplacian(grid, f) - expected).max() < 1e-10

    @pytest.mark.parametrize("grid", grids(), ids=["1d", "2d"])
    def test_sums_to_zero(self, grid):
        f = random_field(grid)
        total = laplacian(grid, f).sum()
        assert abs(total) < 1e-12 * np.abs(laplacian(grid, f)).max() * grid.ncells

    @pytest.mark.parametrize("grid", grids(), ids=["1d", "2d"])
    def test_matrix_matches_stencil(self, grid):
        f = random_field(grid)
        pattern = stencil_pattern(grid)
        lap = StencilOperator(pattern, pattern.laplacian)
        via_matrix = lap.dot(f.ravel()).reshape(grid.shape)
        assert np.allclose(via_matrix, laplacian(grid, f), rtol=1e-13, atol=1e-10)

    @pytest.mark.parametrize("grid", grids(), ids=["1d", "2d"])
    def test_linearity(self, grid):
        f, g = random_field(grid), random_field(grid)
        lhs = laplacian(grid, 2.0 * f - 3.0 * g)
        rhs = 2.0 * laplacian(grid, f) - 3.0 * laplacian(grid, g)
        assert np.allclose(lhs, rhs, rtol=1e-13, atol=1e-9)


class TestOneSidedDiffs:
    def test_spike_example(self):
        grid = GridSpec(dim=1, n=4, nt=2, horizon=1.0)
        u = np.array([0.0, 1.0, 0.0, 0.0])
        dplus, dminus = one_sided_diffs(grid, u)
        assert dplus[0][0] == 4.0
        assert dminus[0][0] == 0.0

    @pytest.mark.parametrize("grid", grids(), ids=["1d", "2d"])
    def test_constant_is_flat(self, grid):
        dplus, dminus = one_sided_diffs(grid, np.full(grid.shape, 2.0))
        assert np.abs(dplus).max() == 0.0 and np.abs(dminus).max() == 0.0

    @pytest.mark.parametrize("grid", grids(), ids=["1d", "2d"])
    def test_shift_identity(self, grid):
        u = random_field(grid)
        dplus, dminus = one_sided_diffs(grid, u)
        for ax in range(grid.dim):
            shifted = np.roll(dminus[ax], -1, axis=ax)
            assert np.array_equal(shifted, dplus[ax])

    @pytest.mark.parametrize("grid", grids(), ids=["1d", "2d"])
    def test_translation_equivariance(self, grid):
        u = random_field(grid)
        dplus, _ = one_sided_diffs(grid, u)
        dplus_shifted, _ = one_sided_diffs(grid, np.roll(u, 2, axis=0))
        assert np.array_equal(np.roll(dplus[0], 2, axis=0), dplus_shifted[0])


def _reference_one_sided_diffs(grid, u):
    """The differences against rolled copies: the reference for the slice kernel."""
    dplus = np.empty((grid.dim, *u.shape))
    dminus = np.empty_like(dplus)
    for ax in range(grid.dim):
        dplus[ax] = (np.roll(u, -1, axis=ax) - u) / grid.h
        dminus[ax] = np.roll(dplus[ax], 1, axis=ax)
    return dplus, dminus


def _hard_fields(grid, rng):
    """Random, tied integer, signed-zero and 1e-12..1e12 magnitude fields."""
    signed_zeros = np.where(rng.random(grid.shape) < 0.5, 0.0, -0.0)
    scales = 10.0 ** rng.uniform(-12.0, 12.0, size=grid.shape)
    return {
        "normal": rng.normal(size=grid.shape),
        "ties": rng.integers(-2, 3, size=grid.shape).astype(float),
        "signed_zeros": signed_zeros,
        "magnitudes": rng.choice([-1.0, 1.0], size=grid.shape) * scales,
    }


DIFF_GRIDS = [(1, 4), (1, 5), (1, 12), (1, 16), (1, 64), (2, 4), (2, 6), (2, 32)]


class TestSliceDiffsBitIdentical:
    @pytest.mark.parametrize("dim,n", DIFF_GRIDS)
    def test_equals_rolled_reference(self, dim, n):
        grid = GridSpec(dim=dim, n=n, nt=4, horizon=1.0)
        for name, u in _hard_fields(grid, np.random.default_rng(n)).items():
            got, ref = one_sided_diffs(grid, u), _reference_one_sided_diffs(grid, u)
            for g, r in zip(got, ref):
                assert np.array_equal(g.view(np.int64), r.view(np.int64)), name

    @pytest.mark.parametrize("dim,n", DIFF_GRIDS)
    def test_upwind_parts_equal_rolled_reference(self, dim, n):
        grid = GridSpec(dim=dim, n=n, nt=4, horizon=1.0)
        for name, u in _hard_fields(grid, np.random.default_rng(n)).items():
            dplus, dminus = _reference_one_sided_diffs(grid, u)
            dm, dp = np.maximum(dminus, 0.0), np.minimum(dplus, 0.0)
            ref = (dm, dp, (dm**2).sum(axis=0) + (dp**2).sum(axis=0))
            for g, r in zip(upwind_parts(grid, u), ref):
                assert g.shape == r.shape, name
                assert np.array_equal(g.view(np.int64), r.view(np.int64)), name

    @pytest.mark.parametrize("dim,n", DIFF_GRIDS)
    def test_laplacian_row_sums_equal_the_sparse_product(self, dim, n):
        grid = GridSpec(dim=dim, n=n, nt=4, horizon=1.0)
        pattern = stencil_pattern(grid)
        lap = as_csr(StencilOperator(pattern, pattern.laplacian))
        for name, u in _hard_fields(grid, np.random.default_rng(n)).items():
            uvec = u.ravel()
            got, ref = pattern.laplacian_rows(uvec), lap @ uvec
            assert np.array_equal(got.view(np.int64), ref.view(np.int64)), name

    @pytest.mark.parametrize("dim,n", DIFF_GRIDS)
    def test_a_stack_of_frames_has_each_frame_s_bits(self, dim, n):
        # the hard fields and a flat one (q = 0 everywhere), as one stack
        grid = GridSpec(dim=dim, n=n, nt=4, horizon=1.0)
        frames = list(_hard_fields(grid, np.random.default_rng(n)).values())
        stack = np.stack(frames + [np.full(grid.shape, 3.0)])
        for got, per_frame in (
            (one_sided_diffs(grid, stack), [one_sided_diffs(grid, u) for u in stack]),
            (upwind_parts(grid, stack), [upwind_parts(grid, u) for u in stack]),
        ):
            for part, ref in zip(got, zip(*per_frame)):
                assert part.shape == (len(stack), *ref[0].shape)
                assert np.array_equal(part.view(np.int64), np.stack(ref).view(np.int64))
        integrals = integrate(grid, stack)
        assert integrals.view(np.int64).tolist() == [
            np.float64(integrate(grid, u)).view(np.int64) for u in stack
        ]

    def test_signed_zero_differences_keep_their_sign(self):
        grid = GridSpec(dim=1, n=4, nt=2, horizon=1.0)
        dplus, dminus = one_sided_diffs(grid, np.array([0.0, -0.0, 0.0, -0.0]))
        # 0.0 - (-0.0) = +0.0, -0.0 - 0.0 = -0.0, wrap cell included
        assert np.signbit(dplus[0]).tolist() == [True, False, True, False]
        assert np.signbit(dminus[0]).tolist() == [False, True, False, True]


class TestGradientSq:
    def test_spike_example(self):
        grid = GridSpec(dim=1, n=4, nt=2, horizon=1.0)
        q = upwind_parts(grid, np.array([0.0, 1.0, 0.0, 0.0]))[2]
        assert q[1] == 32.0

    @pytest.mark.parametrize("grid", grids(), ids=["1d", "2d"])
    def test_nonnegative_zero_iff_constant(self, grid):
        assert np.abs(upwind_parts(grid, np.ones(grid.shape))[2]).max() == 0.0
        u = random_field(grid)
        q = upwind_parts(grid, u)[2]
        assert q.min() >= 0.0 and q.max() > 0.0

    def test_first_order_convergence(self):
        # |grad u|^2 of sin(2 pi x) is (2 pi cos(2 pi x))^2
        errors = []
        for n in (32, 64, 128):
            grid = GridSpec(dim=1, n=n, nt=2, horizon=1.0)
            x = grid.axis_centers()
            q = upwind_parts(grid, np.sin(2 * np.pi * x))[2]
            exact = (2 * np.pi * np.cos(2 * np.pi * x)) ** 2
            errors.append(np.abs(q - exact).max())
        assert errors[0] > errors[1] > errors[2]
        assert errors[0] / errors[1] > 1.5 and errors[1] / errors[2] > 1.5

    def test_upwind_gradient_consistent_where_monotone(self):
        grid = GridSpec(dim=1, n=16, nt=2, horizon=1.0)
        u = grid.axis_centers() * 0.0 + np.linspace(0, 1, 16)  # not periodic-smooth
        dm, dp, q = upwind_parts(grid, u)
        d = dm + dp
        # away from the wrap cell the combined vector squares to q
        assert np.allclose((d**2).sum(axis=0)[2:-2], q[2:-2])


class TestGaussianSmooth:
    @pytest.mark.parametrize("grid", grids(), ids=["1d", "2d"])
    def test_eps_zero_identity(self, grid):
        f = random_field(grid)
        assert np.array_equal(gaussian_smooth(grid, f, 0.0), f)

    @pytest.mark.parametrize("grid", grids(), ids=["1d", "2d"])
    def test_constant_unchanged(self, grid):
        f = np.full(grid.shape, 1.3)
        assert np.allclose(gaussian_smooth(grid, f, 0.2), f, atol=1e-13)

    def test_mass_preserved_on_spike(self):
        grid = GridSpec(dim=1, n=64, nt=2, horizon=1.0)
        f = np.zeros(grid.shape)
        f[10] = 64.0  # unit mass delta-like bump
        out = gaussian_smooth(grid, f, 0.03)
        assert abs(integrate(grid, out) - integrate(grid, f)) < 1e-13
        assert out.min() >= 0.0

    def test_smoothing_reduces_oscillation(self):
        grid = GridSpec(dim=1, n=64, nt=2, horizon=1.0)
        f = np.cos(16 * np.pi * grid.axis_centers())
        out = gaussian_smooth(grid, f, 0.05)
        assert np.abs(out).max() < 0.1 * np.abs(f).max()


def _reference_gaussian_smooth(grid, f, eps):
    """Gaussian smoothing that rebuilds the kernel and its FFT on every call."""
    offsets = np.arange(grid.n) * grid.h
    images = np.arange(-4, 5)[:, None]
    kern = np.exp(-((offsets[None, :] - images) ** 2) / (2.0 * eps**2)).sum(axis=0)
    kern = kern / kern.sum()
    out = np.asarray(f, dtype=float)
    for ax in range(grid.dim):
        kspec = np.fft.fft(kern)
        if grid.dim == 2:
            kspec = kspec[:, None] if ax == 0 else kspec[None, :]
        out = np.real(np.fft.ifft(np.fft.fft(out, axis=ax) * kspec, axis=ax))
    if np.all(np.asarray(f) >= 0.0):
        out[(out < 0.0) & (out > -1e-12)] = 0.0
    return out


class TestGaussianSmoothCache:
    @pytest.mark.parametrize("grid", grids(), ids=["1d", "2d"])
    def test_equals_per_call_spectrum(self, grid):
        rng = np.random.default_rng(7)
        fields = {"signed": random_field(grid, rng), "density": rng.random(grid.shape)}
        # each eps twice: the second call reads the cached spectrum
        for eps in (0.02, 0.05, 0.1, 0.3, 0.05, 0.02):
            for name, f in fields.items():
                got = gaussian_smooth(grid, f, eps)
                ref = _reference_gaussian_smooth(grid, f, eps)
                assert np.array_equal(got.view(np.int64), ref.view(np.int64)), (eps, name)


def _spike(grid, value=1.0):
    f = np.zeros(grid.shape)
    f[(1,) * grid.dim] = value
    return f


class TestBatchedGaussianSmooth:
    @pytest.mark.parametrize("dim, n", [(1, 5), (1, 13), (1, 16), (1, 64), (2, 5), (2, 6), (2, 32)])
    @pytest.mark.parametrize("eps", [0.02, 0.3])
    def test_frames_equal_single_frame_calls(self, dim, n, eps):
        grid = GridSpec(dim=dim, n=n, nt=4, horizon=1.0)
        rng = np.random.default_rng([dim, n])
        # a spike smooths to FFT roundoff below zero; one frame carries a
        # tiny negative entry, so its roundoff must survive the clip
        signed = _spike(grid)
        signed[(0,) * dim] = -1e-20
        stack = np.stack([_spike(grid), rng.random(grid.shape), signed, _spike(grid, 3.0)])
        got = gaussian_smooth(grid, stack, eps)
        ref = np.stack([gaussian_smooth(grid, frame, eps) for frame in stack])
        assert got.shape == stack.shape
        assert np.array_equal(got.view(np.int64), ref.view(np.int64))
        assert got[[0, 1, 3]].min() >= 0.0
        if eps == 0.02:
            assert ((got[2] < 0.0) & (got[2] > -1e-12)).any()

    def test_leading_axes_are_all_frames(self):
        grid = GridSpec(dim=2, n=6, nt=4, horizon=1.0)
        stack = np.random.default_rng(3).random((2, 3, *grid.shape))
        got = gaussian_smooth(grid, stack, 0.1)
        ref = gaussian_smooth(grid, stack.reshape(6, *grid.shape), 0.1)
        assert np.array_equal(got.reshape(ref.shape).view(np.int64), ref.view(np.int64))

    @pytest.mark.parametrize("grid", grids(), ids=["1d", "2d"])
    def test_eps_zero_returns_a_copy(self, grid):
        for f in (random_field(grid), np.stack([random_field(grid)] * 3)):
            out = gaussian_smooth(grid, f, 0.0)
            assert np.array_equal(out, f) and not np.shares_memory(out, f)


class TestStencilSlots:
    @pytest.mark.parametrize("grid", grids(), ids=["1d", "2d"])
    def test_slots_group_the_offsets(self, grid):
        """Row r of ``cols`` is offset r for every cell: the cell, its lower
        neighbour per axis, then its upper neighbour per axis."""
        pattern = stencil_pattern(grid)
        cells = np.arange(grid.ncells).reshape(grid.shape)
        offsets = [cells.ravel()]
        offsets += [np.roll(cells, 1, axis=ax).ravel() for ax in range(grid.dim)]
        offsets += [np.roll(cells, -1, axis=ax).ravel() for ax in range(grid.dim)]
        assert np.array_equal(pattern.cols, np.stack(offsets))

    @pytest.mark.parametrize("grid", grids(), ids=["1d", "2d"])
    def test_transpose_is_an_involution_onto_the_mirrored_entry(self, grid):
        """``transpose`` sends slot (r, i), the entry (i, cols[r, i]), to the
        slot of the entry (cols[r, i], i), and twice round is the identity."""
        pattern = stencil_pattern(grid)
        width = 2 * grid.dim + 1
        slot = np.arange(width * grid.ncells).reshape(width, grid.ncells)
        mirror = pattern.transpose
        assert np.array_equal(np.sort(mirror.ravel()), slot.ravel())
        assert np.array_equal(mirror.ravel()[mirror], slot)
        rows = np.broadcast_to(np.arange(grid.ncells), (width, grid.ncells))
        assert np.array_equal(mirror % grid.ncells, pattern.cols)
        assert np.array_equal(pattern.cols.ravel()[mirror], rows)
        # the cell's slot is its own mirror, and each lower slot meets an upper one
        assert np.array_equal(mirror[0], slot[0])
        swapped = [0, *range(1 + grid.dim, width), *range(1, 1 + grid.dim)]
        assert (mirror // grid.ncells == np.array(swapped)[:, None]).all()


class TestRestriction:
    def test_block_average_and_time_subsample(self):
        fine = GridSpec(dim=1, n=8, nt=4, horizon=1.0)
        traj = np.arange((fine.nt + 1) * fine.n, dtype=float).reshape(fine.nt + 1, fine.n)
        coarse = restrict_traj(fine, traj, 2)
        assert coarse.shape == (3, 4)
        assert coarse[0, 0] == 0.5 * (traj[0, 0] + traj[0, 1])
        assert np.array_equal(coarse[1], 0.5 * (traj[2, ::2] + traj[2, 1::2]))


class TestRestriction2D:
    def test_block_average_2d(self):
        fine = GridSpec(dim=2, n=8, nt=4, horizon=1.0)
        rng = np.random.default_rng(1)
        traj = rng.normal(size=(fine.nt + 1, 8, 8))
        coarse = restrict_traj(fine, traj, 2)
        assert coarse.shape == (3, 4, 4)
        manual = traj[2][0:2, 2:4].mean()
        assert coarse[1, 0, 1] == pytest.approx(manual, rel=1e-15)


class TestProlongation:
    @pytest.mark.parametrize("dim", [1, 2])
    def test_piecewise_constant_and_undone_by_restriction(self, dim):
        coarse = GridSpec(dim=dim, n=4, nt=4, horizon=1.0)
        fine = GridSpec(dim=dim, n=16, nt=16, horizon=1.0)
        frame = np.random.default_rng(3).uniform(0.5, 1.5, size=coarse.shape)
        fine_frame = prolong_frame(frame, 4)
        assert fine_frame.shape == fine.shape
        for offset in range(4):
            assert np.array_equal(fine_frame[(slice(offset, None, 4),) * dim], frame)
        back = restrict_traj(fine, fine_frame[None], 4)[0]
        assert back == pytest.approx(frame, rel=1e-15, abs=0.0)
        assert integrate(fine, fine_frame) == pytest.approx(integrate(coarse, frame), rel=1e-15)


# a valid single frame on the 1D grid n = 4
ROWS = "0,0.125,1\n0,0.375,1\n0,0.625,1\n0,0.875,1\n"
FRAME_OF_4 = "expected 1 frame(s) of 4 rows of 3 values"


def _reference_write_field_csv(path, grid, traj):
    """The per-value loop writer the CSV format was defined by."""
    traj = np.asarray(traj, dtype=float)
    if traj.shape == grid.shape:
        traj = traj[None]
        times = np.zeros(1)
    else:
        times = grid.times()
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


class TestFieldCSV:
    @pytest.mark.parametrize("grid", grids(), ids=["1d", "2d"])
    def test_round_trip_bit_identical(self, grid, tmp_path):
        traj = RNG.normal(size=(grid.nt + 1, *grid.shape))
        path = tmp_path / "field.csv"
        write_field_csv(path, grid, traj)
        assert np.array_equal(read_field_csv(path, grid), traj)

    @pytest.mark.parametrize(
        "grid, frame_only, strided",
        [
            (grids()[0], False, False),
            (grids()[1], False, False),
            (grids()[0], True, False),
            (grids()[1], True, False),
            (grids()[1], False, True),
        ],
        ids=["1d", "2d", "frame", "2d-frame", "2d-strided"],
    )
    def test_text_matches_per_value_loop(self, grid, frame_only, strided, tmp_path):
        shape = grid.shape if frame_only else (grid.nt + 1, *grid.shape)
        traj = RNG.normal(size=shape) * 10.0 ** RNG.integers(-12, 13, size=shape)
        special = [0.0, -0.0, 5e-324, -2.5e-310, 1e-12, -1e12, 1 / 3,
                   np.nan, np.inf, -np.inf]
        traj.flat[: len(special)] = special
        if strided:
            # one component of a (nt + 1, dim, *shape) policy, as bundles write it
            policy = np.stack([traj, -traj], axis=1)
            traj = policy[:, 1]
            assert not traj.flags.c_contiguous
        write_field_csv(tmp_path / "field.csv", grid, traj)
        _reference_write_field_csv(tmp_path / "reference.csv", grid, traj)
        assert (tmp_path / "field.csv").read_text() == (
            tmp_path / "reference.csv"
        ).read_text()

    def test_header_layout(self, tmp_path):
        grid = GridSpec(dim=1, n=4, nt=2, horizon=1.0)
        path = tmp_path / "field.csv"
        write_field_csv(path, grid, np.zeros((3, 4)))
        lines = path.read_text().splitlines()
        assert lines[0] == "t,x,value"
        assert len(lines) == 1 + 3 * 4

    @pytest.mark.parametrize("body", ["", "\n", "\n  \n"], ids=["bare", "blank", "blanks"])
    @pytest.mark.filterwarnings("error")
    def test_header_only_is_rejected(self, body, tmp_path):
        path = tmp_path / "field.csv"
        path.write_text("t,x,y,value\n" + body)
        with pytest.raises(ValueError, match="no data rows"):
            read_field_csv(path, GridSpec(dim=2, n=4, nt=2, horizon=1.0))

    @pytest.mark.parametrize("read", [read_field_csv, read_frame_csv], ids=["field", "frame"])
    def test_y_major_rows_are_rejected(self, read, tmp_path):
        """The same rows with y slowest once loaded as the transposed field."""
        grid = grids()[1]
        shape = grid.shape if read is read_frame_csv else (grid.nt + 1, *grid.shape)
        path = tmp_path / "field.csv"
        write_field_csv(path, grid, RNG.normal(size=shape))
        y_major_rows(path, grid.n)
        expected = f"{path}: data row 2 has x = 0.1875, expected 0.0625 within 0.03125"
        with pytest.raises(ValueError, match=f"^{re.escape(expected)}$"):
            read(path, grid)

    def test_uneven_time_stamps_are_rejected(self, tmp_path):
        """Rows stamped t = 0, 0.1, 1 once loaded as the uniform grid nt = 2."""
        grid = GridSpec(dim=1, n=4, nt=2, horizon=1.0)
        path = tmp_path / "field.csv"
        rows = (f"{t},{x},1\n" for t in (0, 0.1, 1) for x in grid.axis_centers())
        path.write_text("t,x,value\n" + "".join(rows))
        expected = f"{path}: data row 5 has t = 0.1, expected 0.5 within 0.125"
        with pytest.raises(ValueError, match=f"^{re.escape(expected)}$"):
            read_field_csv(path, grid)

    @pytest.mark.parametrize("col", ["t", "x", "y"])
    @pytest.mark.parametrize("shift", [-0.26, -0.24, 0.24, 0.26])
    def test_rows_are_placed_to_a_quarter_step_or_cell(self, col, shift, tmp_path):
        grid = GridSpec(dim=2, n=4, nt=2, horizon=1.0)
        path = tmp_path / "m0.csv"
        write_field_csv(path, grid, np.ones(grid.shape))
        header, *rows = path.read_text().splitlines(keepends=True)
        cells = [row.split(",") for row in rows]
        j = "txy".index(col)
        cells[-1][j] = repr(float(cells[-1][j]) + shift * (grid.dt if col == "t" else grid.h))
        path.write_text(header + "".join(",".join(cell) for cell in cells))
        if abs(shift) < 0.25:
            assert np.array_equal(read_frame_csv(path, grid), np.ones(grid.shape))
        else:
            with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: data row 16 "):
                read_frame_csv(path, grid)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("t,x,y,value\n" + ROWS, "expected the header 't,x,value', got 't,x,y,value'"),
            ("t,x,value\n" + ROWS * 2, f"{FRAME_OF_4}, got 8 rows of 3"),
            ("t,x,value\n" + ROWS.replace("\n", ",1\n"), f"{FRAME_OF_4}, got 4 rows of 4"),
        ],
        ids=["header", "frames", "columns"],
    )
    def test_malformed_frame_is_rejected(self, text, message, tmp_path):
        path = tmp_path / "m0.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: {message}')}$"):
            read_frame_csv(path, GridSpec(dim=1, n=4, nt=2, horizon=1.0))

    @pytest.mark.parametrize(
        "edit",
        [
            lambda head, rows: head + "".join(rows).replace("\n", "\r\n"),
            lambda head, rows: head + "\n" + "\n".join(rows) + "\n\n",
            lambda head, rows: head + "# a comment line\n" + "".join(rows),
            lambda head, rows: head + "".join(
                ",".join(f"{float(c):.3g}" for c in row.split(",")[:-1])
                + "," + row.split(",")[-1] for row in rows
            ),
            lambda head, rows: head + "".join(row.replace("\n", "  \n") for row in rows),
        ],
        ids=["crlf", "blank-lines", "comment", "few-digit-coordinates", "trailing-spaces"],
    )
    @pytest.mark.parametrize("grid", grids(), ids=["1d", "2d"])
    @pytest.mark.filterwarnings("error")
    def test_text_variants_load_the_same_field(self, edit, grid, tmp_path):
        """Line endings, blank and comment lines, short coordinates and
        trailing blanks are accepted; the values are read bit for bit."""
        traj = RNG.normal(size=(grid.nt + 1, *grid.shape))
        path = tmp_path / "field.csv"
        write_field_csv(path, grid, traj)
        head, *rows = path.read_text().splitlines(keepends=True)
        path.write_bytes(edit(head, rows).encode("utf-8"))
        assert np.array_equal(read_field_csv(path, grid), traj)

    @pytest.mark.parametrize("suffix", [".gz", ".bz2", ".xz", ".lzma"])
    def test_compressed_suffix_is_rejected(self, suffix, tmp_path):
        """np.loadtxt would open the path as compressed: a plain file with
        such a name is rejected naming it, not failed in the decompressor."""
        grid = GridSpec(dim=1, n=4, nt=2, horizon=1.0)
        path = tmp_path / f"m0.csv{suffix}"
        write_field_csv(path, grid, np.ones(grid.shape))
        expected = f"{path}: numpy reads a path with this suffix as compressed; rename it"
        with pytest.raises(ValueError, match=f"^{re.escape(expected)}$"):
            read_frame_csv(path, grid)

    @pytest.mark.parametrize("line", [0, 1, -1], ids=["header", "first-row", "last-row"])
    def test_undecodable_byte_is_rejected_naming_the_file(self, line, tmp_path):
        # 512 rows of 17 digits: the last lies past the text handle's first read
        grid = GridSpec(dim=1, n=512, nt=2, horizon=1.0)
        path = tmp_path / "m0.csv"
        write_field_csv(path, grid, RNG.normal(size=grid.shape))
        lines = path.read_bytes().splitlines(keepends=True)
        assert sum(map(len, lines[:-1])) > 8192
        lines[line] = lines[line].replace(b",", b",\xff", 1)
        path.write_bytes(b"".join(lines))
        expected = f"{path}: 'utf-8' codec can't decode byte 0xff"
        with pytest.raises(ValueError, match=f"^{re.escape(expected)}"):
            read_frame_csv(path, grid)


class TestEquivariance:
    @pytest.mark.parametrize("grid", grids(), ids=["1d", "2d"])
    def test_laplacian_commutes_with_shift(self, grid):
        f = random_field(grid)
        assert np.array_equal(
            laplacian(grid, np.roll(f, 3, axis=0)), np.roll(laplacian(grid, f), 3, axis=0)
        )

    @pytest.mark.parametrize("grid", grids(), ids=["1d", "2d"])
    def test_gradient_sq_commutes_with_shift(self, grid):
        f = random_field(grid)
        assert np.array_equal(
            upwind_parts(grid, np.roll(f, 2, axis=-1))[2],
            np.roll(upwind_parts(grid, f)[2], 2, axis=-1),
        )


class TestSingleFrameCSV:
    def test_write_and_read_frame(self, tmp_path):
        grid = GridSpec(dim=1, n=8, nt=4, horizon=1.0)
        frame = RNG.normal(size=grid.shape)
        path = tmp_path / "m0.csv"
        write_field_csv(path, grid, frame)
        assert np.array_equal(read_frame_csv(path, grid), frame)
