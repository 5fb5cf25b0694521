"""Batch front-end: config parsing, exit codes, bundle round trips, study."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import congestion_mfg

from congestion_mfg import (
    ContinuationSchedule,
    CouplingSpec,
    FixedPointOptions,
    ModelParams,
    energy_identity_residual,
    hjb,
    solve_mfg,
    solve_with_continuation,
)
from congestion_mfg import bundles
from congestion_mfg.bundles import load_solution, save_solution, write_field_csv
from congestion_mfg.cli import (
    EXIT_BUDGET,
    EXIT_CONFIG,
    EXIT_MISMATCH,
    EXIT_OK,
    EXIT_SOLVER,
    EXIT_STRUCTURAL,
    cmd_check,
    cmd_diagnose,
    cmd_solve,
    cmd_study,
    _load_run,
    main,
    parse_config,
)
from congestion_mfg.errors import ConfigParseError, NewtonDiverged
from congestion_mfg.grid import GridSpec, l1_space_time, restrict_traj

from conftest import cosine_density, y_major_rows

REFERENCE_CONFIG = """
# reference congestion instance
nu = 0.5
beta = 2.0
alpha = 1.0
mu = 1.0
horizon = 1.0
n = 32
nt = 32
m0 = cosine_bump(0.5)
output_dir = {out}
"""


# c09's parameters and (eps, mu) ladder with a final mu = 0 rung, at n = nt = 8
SINGULAR_LADDER = """
nu = 0.5
beta = 1.5
alpha = 0.6
mu = 0
epsilon = 0.05
cF = 0.5
cG = 0.5
fp_tol = 1e-6
max_outer_iter = 400
n = 8
nt = 8
m0 = cosine_bump(0.5)
continuation = true
mus = 1, 0.5, 0.25, 0.1, 0.05, 0
output_dir = {out}
"""


def write_config(tmp_path, text, name="run.cfg", **fmt):
    path = tmp_path / name
    path.write_text(text.format(**fmt))
    return str(path)


def assert_owns_memory(sol):
    """A loaded ``u`` and ``m`` are contiguous arrays of their own, not views
    that keep the whole parsed CSV table alive."""
    for field in (sol.u, sol.m):
        assert field.flags.c_contiguous and field.base is None


def assert_loads_without_policy(sol, directory, monkeypatch):
    """The policy files of ``sol``'s bundle in ``directory`` are never read:
    with them deleted the bundle loads from two field files, u.csv and m.csv,
    and its derived drift has the bits of the solver's."""
    policy_files = sorted(Path(directory).glob("policy*.csv"))
    assert len(policy_files) == sol.grid.dim
    for path in policy_files:
        path.unlink()
    reads = []
    read = bundles.read_field_csv
    monkeypatch.setattr(
        bundles, "read_field_csv", lambda *args: reads.append(args) or read(*args)
    )
    loaded = load_solution(directory)
    assert len(reads) == 2
    assert loaded.policy.shape == sol.policy.shape
    assert loaded.policy.tobytes() == sol.policy.tobytes()


class TestConfigParsing:
    def test_defaults_and_comments(self, tmp_path):
        cfg = parse_config(write_config(tmp_path, "beta = 1.5  # quenched\n\n"))
        assert cfg["beta"] == 1.5
        assert cfg["nu"] == 0.5  # default

    def test_unknown_key_line_number(self, tmp_path):
        path = write_config(tmp_path, "nu = 0.5\nbogus = 1\n")
        with pytest.raises(ConfigParseError) as err:
            parse_config(path)
        assert err.value.line == 2

    def test_bad_value_line_number(self, tmp_path):
        path = write_config(tmp_path, "\n\nn = many\n")
        with pytest.raises(ConfigParseError) as err:
            parse_config(path)
        assert err.value.line == 3

    def test_positivity_switch_is_an_unknown_key(self, tmp_path):
        path = write_config(tmp_path, "nu = 0.5\nenforce_nonneg_check = false\n")
        with pytest.raises(ConfigParseError, match="unknown key") as err:
            parse_config(path)
        assert err.value.line == 2

    def test_seed_is_an_unknown_key(self, tmp_path):
        # nothing in a solve is random; the key was only copied into meta.json
        out_dir = tmp_path / "out"
        path = write_config(
            tmp_path, "n = 8\nnt = 8\nseed = 1\noutput_dir = {out}\n", out=out_dir
        )
        proc = run_cli("solve", path)
        assert proc.returncode == EXIT_CONFIG, proc.stderr
        assert "line 3: unknown key 'seed'" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not out_dir.exists()

    @pytest.mark.parametrize("line", [
        "m_floor = 1e-10", "coupling_family = power", "newton_tol = 1e-10",
        "newton_max_iter = 50", "linear_tol = 1e-12", "init_m = uniform",
    ])
    def test_removed_model_keys_are_unknown(self, tmp_path, line):
        # the empty-cell floor is the constant model.M_FLOOR, a tabulated
        # coupling needs tables the config cannot give, the Newton and linear
        # tolerances are constants of hjb and linalg, and a Picard start other
        # than uniform is solve_mfg's init_traj
        out_dir = tmp_path / "out"
        path = write_config(tmp_path, "n = 8\nnt = 8\n" + line + "\noutput_dir = {out}\n",
                            out=out_dir)
        proc = run_cli("solve", path)
        assert proc.returncode == EXIT_CONFIG, proc.stderr
        assert f"line 3: unknown key '{line.split()[0]}'" in proc.stderr
        assert not out_dir.exists()

    def test_lists_and_bools(self, tmp_path):
        path = write_config(
            tmp_path, "epsilons = 0.1, 0.05\nwarm_start = false\ncontinuation = true\n"
        )
        cfg = parse_config(path)
        assert cfg["epsilons"] == [0.1, 0.05]
        assert cfg["warm_start"] is False and cfg["continuation"] is True


class TestCmdCheck:
    def test_accepts_quadratic_threshold(self, tmp_path, capsys):
        path = write_config(tmp_path, "beta = 2.0\nalpha = 2.0\n")
        assert cmd_check(path) == EXIT_OK
        out = capsys.readouterr().out
        assert "uniqueness_ok: true" in out
        assert "uniqueness_threshold: 2" in out

    def test_large_gamma_reports_without_warnings(self, tmp_path, capsys):
        # gamma = 32 lies in the window; under pytest's error::RuntimeWarning
        # filter an overflow while reporting fails this test
        path = write_config(tmp_path, "beta = 2\nalpha = 32\nmu = 1e-6\n")
        assert cmd_check(path) == EXIT_OK
        out = capsys.readouterr().out
        assert "valid_ranges: true" in out and "uniqueness_ok: false" in out
        assert "hp2_sampled_ok" not in out

    def test_rejects_superquadratic(self, tmp_path, capsys):
        path = write_config(tmp_path, "beta = 2.5\nalpha = 1.0\n")
        assert cmd_check(path) == EXIT_STRUCTURAL
        assert "beta" in capsys.readouterr().out

    def test_malformed_exit_two(self, tmp_path, capsys):
        path = write_config(tmp_path, "nu == 0.5\n")
        assert cmd_check(path) == EXIT_CONFIG
        assert "line 1" in capsys.readouterr().err

    def test_builds_the_run_as_solve_does(self, tmp_path, capsys):
        # a zero damping in a continuation run is no valid config
        path = write_config(
            tmp_path, "continuation = true\nepsilons = 0.1\ndamping = 0\n"
        )
        assert cmd_check(path) == EXIT_STRUCTURAL
        captured = capsys.readouterr()
        assert "rejected: damping must lie in (0, 1]" in captured.err
        assert "valid_ranges" not in captured.out

    def test_gatekeeping_table(self, tmp_path, capsys):
        # the nine (beta, alpha) tuples of the structural gate
        for beta in (1.2, 2.0, 2.5):
            threshold = 4.0 * (beta - 1.0) / beta
            for alpha in (0.5, threshold, 3.0):
                path = write_config(
                    tmp_path, f"beta = {beta}\nalpha = {alpha}\n", name="gate.cfg"
                )
                code = cmd_check(path)
                out = capsys.readouterr().out
                if 1.0 < beta <= 2.0:
                    assert code == EXIT_OK
                    expected = "true" if alpha <= threshold else "false"
                    assert f"uniqueness_ok: {expected}" in out
                else:
                    assert code == EXIT_STRUCTURAL


class TestCmdSolve:
    def test_constant_equilibrium_bundle(self, tmp_path, capsys):
        out_dir = tmp_path / "bundle"
        path = write_config(
            tmp_path,
            "n = 32\nnt = 32\nm0 = uniform\noutput_dir = {out}\n",
            out=out_dir,
        )
        assert cmd_solve(path) == EXIT_OK
        meta = json.loads((out_dir / "meta.json").read_text())
        assert meta["outer_iters"] <= 2
        assert meta["converged"] is True
        assert {"epsilon", "mu", "increments", "newton_residual_max",
                "wall_time_seconds"} <= set(meta)
        assert "seed" not in meta
        for name in ("u.csv", "m.csv", "policy.csv"):
            assert (out_dir / name).exists()

    def test_reference_instance_meta(self, tmp_path):
        out_dir = tmp_path / "ref"
        path = write_config(tmp_path, REFERENCE_CONFIG, out=out_dir)
        assert cmd_solve(path) == EXIT_OK
        meta = json.loads((out_dir / "meta.json").read_text())
        incs = meta["increments"]
        assert all(v > 0 for v in incs[:-1])
        assert incs[-1] <= 1e-8

    def test_budget_exit_three(self, tmp_path):
        out_dir = tmp_path / "budget"
        path = write_config(
            tmp_path, REFERENCE_CONFIG + "max_outer_iter = 1\n", out=out_dir
        )
        assert cmd_solve(path) == EXIT_BUDGET
        meta = json.loads((out_dir / "meta.json").read_text())
        assert meta["converged"] is False

    def test_solver_failure_exit_four(self, tmp_path, monkeypatch):
        # one Newton iteration cannot reach NEWTON_TOL on the first HJB level
        monkeypatch.setattr(hjb, "NEWTON_MAX_ITER", 1)
        out_dir = tmp_path / "fail"
        path = write_config(tmp_path, REFERENCE_CONFIG, out=out_dir)
        assert cmd_solve(path) == EXIT_SOLVER

    def test_structural_rejection(self, tmp_path, capsys):
        # one rejected: line from solve_mfg's ConfigError, as under study;
        # only check prints the report
        path = write_config(tmp_path, "beta = 2.5\noutput_dir = {out}\n", out=tmp_path / "x")
        assert cmd_solve(path) == EXIT_STRUCTURAL
        captured = capsys.readouterr()
        assert captured.err == "rejected: beta=2.5 outside (1, 2]\n"
        assert captured.out == ""


class TestCmdDiagnose:
    def test_constant_equilibrium_energy_tight(self, tmp_path):
        from congestion_mfg import CouplingSpec, GridSpec, ModelParams, solve_mfg

        grid = GridSpec(dim=1, n=32, nt=32, horizon=1.0)
        params = ModelParams(nu=0.5, beta=2.0, alpha=1.0, mu=1.0, horizon=1.0)
        sol = solve_mfg(grid, params, CouplingSpec())
        save_solution(sol, tmp_path / "const")
        assert cmd_diagnose(str(tmp_path / "const")) == EXIT_OK
        report = json.loads((tmp_path / "const" / "report.json").read_text())
        assert report["energy_residual"] <= 1e-10

    def test_round_trip_bit_identical(self, ref32, tmp_path, monkeypatch):
        save_solution(ref32, tmp_path / "b")
        loaded = load_solution(tmp_path / "b")
        assert np.array_equal(loaded.u, ref32.u)
        assert np.array_equal(loaded.m, ref32.m)
        assert np.array_equal(loaded.policy, ref32.policy)
        assert_owns_memory(loaded)
        assert loaded.params == ref32.params
        assert loaded.coupling == ref32.coupling
        assert_loads_without_policy(ref32, tmp_path / "b", monkeypatch)

    def test_bundle_without_model_epsilon_loads(self, tmp_path):
        """A bundle written before ``ModelParams`` carried the width keeps it
        only in the top-level ``epsilon``, which the loader then reads."""
        from dataclasses import replace

        from congestion_mfg import CouplingSpec, GridSpec, apriori_report, solve_mfg
        from conftest import cosine_density, reference_params

        grid = GridSpec(dim=1, n=16, nt=16, horizon=1.0)
        params = replace(reference_params(), epsilon=0.05)
        sol = solve_mfg(grid, params, CouplingSpec(), m0=cosine_density(grid))
        save_solution(sol, tmp_path / "old")
        meta_path = tmp_path / "old" / "meta.json"
        meta = json.loads(meta_path.read_text())
        del meta["model"]["epsilon"]
        meta_path.write_text(json.dumps(meta))
        loaded = load_solution(tmp_path / "old")
        assert loaded.params.epsilon == 0.05 and loaded.params == params
        assert apriori_report(loaded).to_flat_dict() == apriori_report(sol).to_flat_dict()

    @staticmethod
    def _small_bundle(directory, drop):
        """A 1D n = nt = 8 bundle whose ``meta.json`` lacks the widths in ``drop``."""
        from congestion_mfg import CouplingSpec, GridSpec, solve_mfg
        from conftest import cosine_density, reference_params

        grid = GridSpec(dim=1, n=8, nt=8, horizon=1.0)
        sol = solve_mfg(grid, reference_params(), CouplingSpec(), m0=cosine_density(grid))
        save_solution(sol, directory)
        meta_path = directory / "meta.json"
        meta = json.loads(meta_path.read_text())
        if "top" in drop:
            del meta["epsilon"]
        if "model" in drop:
            del meta["model"]["epsilon"]
        meta_path.write_text(json.dumps(meta))
        return sol, meta_path

    def test_bundle_without_top_level_epsilon_loads(self, tmp_path):
        """The width is ``model.epsilon``; the top-level copy is read only
        when the model lacks it."""
        sol, _ = self._small_bundle(tmp_path / "b", drop=("top",))
        loaded = load_solution(tmp_path / "b")
        assert loaded.params == sol.params
        assert np.array_equal(loaded.m, sol.m)

    def test_bundle_without_any_epsilon_is_rejected_naming_the_file(self, tmp_path):
        _, meta_path = self._small_bundle(tmp_path / "b", drop=("top", "model"))
        with pytest.raises(ValueError) as info:
            load_solution(tmp_path / "b")
        assert str(info.value) == f"{meta_path}: missing key 'epsilon'"

    def test_bundle_with_seed_loads(self, ref32, tmp_path):
        """Bundles written while the CLI had a ``seed`` key keep it in meta."""
        save_solution(ref32, tmp_path / "old")
        meta_path = tmp_path / "old" / "meta.json"
        meta = json.loads(meta_path.read_text())
        meta_path.write_text(json.dumps({**meta, "seed": 42}))
        assert load_solution(tmp_path / "old").meta["seed"] == 42
        assert cmd_diagnose(str(tmp_path / "old")) == EXIT_OK

    @pytest.mark.parametrize("floor", [1e-10, 1e-8])
    def test_bundle_with_m_floor(self, ref32, tmp_path, capsys, floor):
        """Bundles written while the empty-cell floor was a model parameter
        hold ``model.m_floor``: the floor's one value loads and reports as
        before, any other is named and exits 2."""
        save_solution(ref32, tmp_path / "new")
        assert cmd_diagnose(str(tmp_path / "new")) == EXIT_OK
        want = capsys.readouterr().out.splitlines()
        save_solution(ref32, tmp_path / "old")
        meta_path = tmp_path / "old" / "meta.json"
        meta = json.loads(meta_path.read_text())
        meta["model"]["m_floor"] = floor
        meta_path.write_text(json.dumps(meta))
        code = cmd_diagnose(str(tmp_path / "old"))
        got = capsys.readouterr()
        if floor == 1e-10:
            assert code == EXIT_OK
            # all but the line naming the report's path
            assert got.out.splitlines()[:-1] == want[:-1]
        else:
            assert code == EXIT_CONFIG
            assert "model.m_floor = 1e-08 is not M_FLOOR = 1e-10" in got.err

    def test_bundle_with_power_family_loads(self, ref32, tmp_path):
        """Bundles written while the coupling had a tabulated family hold
        ``coupling.family`` and three tables: ``"power"`` and empty load as before."""
        from congestion_mfg import apriori_report

        save_solution(ref32, tmp_path / "old")
        meta_path = tmp_path / "old" / "meta.json"
        meta = json.loads(meta_path.read_text())
        meta["coupling"].update(family="power", table_s=[], table_f=[], table_g=[])
        meta_path.write_text(json.dumps(meta))
        loaded = load_solution(tmp_path / "old")
        assert loaded.coupling == ref32.coupling
        for name in ("u", "m", "policy"):
            got, want = getattr(loaded, name), getattr(ref32, name)
            assert np.array_equal(got.view(np.int64), want.view(np.int64))
        assert apriori_report(loaded).to_flat_dict() == apriori_report(ref32).to_flat_dict()

    def test_single_bundle_report(self, ref32, tmp_path, capsys):
        save_solution(ref32, tmp_path / "b")
        assert cmd_diagnose(str(tmp_path / "b")) == EXIT_OK
        report = json.loads((tmp_path / "b" / "report.json").read_text())
        assert report["energy_residual"] <= 1e-2
        assert report["ok_mass"] == 1.0

    def test_two_bundle_report(self, ref32, tmp_path):
        save_solution(ref32, tmp_path / "a")
        save_solution(ref32, tmp_path / "b")
        assert cmd_diagnose(str(tmp_path / "a"), str(tmp_path / "b")) == EXIT_OK
        report = json.loads((tmp_path / "a" / "report.json").read_text())
        assert abs(report["uniqueness_gap"]) <= 1e-12
        assert report["l1_m_gap"] == 0.0

    def test_uneven_time_stamps_cannot_load(self, ref32, tmp_path, capsys):
        """m.csv stamped t_k = (k dt)^2 once loaded onto the uniform grid."""
        save_solution(ref32, tmp_path / "b")
        m_path = tmp_path / "b" / "m.csv"
        header, *rows = m_path.read_text().splitlines(keepends=True)
        stamped = (row.split(",", 1) for row in rows)
        m_path.write_text(header + "".join(f"{float(t) ** 2!r},{rest}" for t, rest in stamped))
        assert cmd_diagnose(str(tmp_path / "b")) == EXIT_CONFIG
        assert capsys.readouterr().err.splitlines() == [
            f"cannot load bundle: {m_path}: data row 33 has t = 0.0009765625, "
            "expected 0.03125 within 0.0078125"
        ]

    def test_missing_bundle_exit_two(self, tmp_path):
        assert cmd_diagnose(str(tmp_path / "nope")) == EXIT_CONFIG

    @pytest.mark.parametrize("edit, message", [
        (lambda meta: meta.pop("model"), "missing key 'model'"),
        (lambda meta: meta["grid"].pop("n"), "missing 1 required positional argument: 'n'"),
        (lambda meta: meta["model"].update(bogus=1), "unexpected keyword argument 'bogus'"),
        (lambda meta: meta["coupling"].update(cf=-1.0), "nonnegative cf, cg, qf, qg"),
        # an old bundle's coupling: only the power law, without tables, loads
        (lambda meta: meta["coupling"].update(family="tabulated", table_s=[0.0, 1.0]),
         "coupling.family = 'tabulated' is not 'power'"),
        (lambda meta: meta["coupling"].update(family="power", table_f=[0.0, 1.0]),
         "coupling.table_f = [0.0, 1.0] is not []"),
    ], ids=["no-model", "no-grid-n", "unknown-model-key", "negative-cf", "tabulated", "table_f"])
    def test_bad_meta_is_rejected_naming_the_file(self, ref32, tmp_path, capsys, edit, message):
        save_solution(ref32, tmp_path / "b")
        meta_path = tmp_path / "b" / "meta.json"
        meta = json.loads(meta_path.read_text())
        edit(meta)
        meta_path.write_text(json.dumps(meta))
        assert cmd_diagnose(str(tmp_path / "b")) == EXIT_CONFIG
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"cannot load bundle: {meta_path}: ")
        assert message in err[0]

    def test_malformed_meta_json_is_rejected_naming_the_file(self, ref32, tmp_path, capsys):
        save_solution(ref32, tmp_path / "b")
        meta_path = tmp_path / "b" / "meta.json"
        meta_path.write_text(meta_path.read_text()[:-2])
        assert cmd_diagnose(str(tmp_path / "b")) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(f"cannot load bundle: {meta_path}: Expecting")

    def test_bad_second_bundle_is_named(self, ref32, tmp_path, capsys):
        """``diagnose good bad`` says which of its two bundles failed."""
        save_solution(ref32, tmp_path / "good")
        save_solution(ref32, tmp_path / "bad")
        meta_path = tmp_path / "bad" / "meta.json"
        meta = json.loads(meta_path.read_text())
        del meta["model"]
        meta_path.write_text(json.dumps(meta))
        assert cmd_diagnose(str(tmp_path / "good"), str(tmp_path / "bad")) == EXIT_CONFIG
        assert capsys.readouterr().err.splitlines() == [
            f"cannot load bundle: {meta_path}: missing key 'model'"
        ]

    def test_grid_mismatch_exit_five(self, ref32, ref64, tmp_path):
        save_solution(ref32, tmp_path / "a")
        save_solution(ref64, tmp_path / "b")
        assert cmd_diagnose(str(tmp_path / "a"), str(tmp_path / "b")) == EXIT_MISMATCH


class TestCmdStudy:
    def test_three_level_reference_decreasing(self, tmp_path, capsys):
        out_dir = tmp_path / "study3"
        path = write_config(tmp_path, REFERENCE_CONFIG, out=out_dir)
        assert cmd_study(path, 3) == EXIT_OK
        rows = (out_dir / "study.csv").read_text().splitlines()[1:]
        residuals = [float(r.split(",")[2]) for r in rows]
        gaps = [float(r.split(",")[3]) for r in rows[:-1]]
        assert residuals[0] > residuals[1] > residuals[2]
        assert gaps[0] > gaps[1]
        # the observed orders: log2 of each ratio of consecutive values
        out = capsys.readouterr().out.splitlines()
        for name, col in (("energy_residual", residuals), ("l1_gap", gaps)):
            [line] = [ln for ln in out if ln.startswith(f"{name} observed orders: ")]
            orders = [float(tok) for tok in line.split(": ")[1].split(", ")]
            assert orders == pytest.approx(np.log2(np.divide(col[:-1], col[1:])), abs=1e-3)

    def test_levels_guard(self, tmp_path):
        path = write_config(tmp_path, REFERENCE_CONFIG, out=tmp_path / "s")
        assert cmd_study(path, 1) == EXIT_CONFIG

    def test_two_level_constant_zeros(self, tmp_path, capsys):
        out_dir = tmp_path / "study"
        path = write_config(
            tmp_path,
            "n = 8\nnt = 8\nm0 = uniform\noutput_dir = {out}\n",
            out=out_dir,
        )
        assert cmd_study(path, 2) == EXIT_OK
        rows = (out_dir / "study.csv").read_text().splitlines()
        assert rows[0] == "n,nt,energy_residual,l1_gap"
        for row in rows[1:]:
            n, nt, res, gap = row.split(",")
            assert float(res) <= 1e-10
            assert float(gap) <= 1e-10
        # no order is read off a zero, and one gap gives none
        out = capsys.readouterr().out.splitlines()
        assert "energy_residual observed orders: nan" in out
        assert "l1_gap observed orders: none" in out

    @pytest.mark.parametrize("key", ["m0"])
    def test_density_file_is_prolonged_to_finer_levels(self, tmp_path, monkeypatch, key):
        """A density file lies on the config's grid, the coarsest level: it is
        read there once and repeated on the 2**level finer cells of each cell;
        every level used to read it against its own grid and reject it."""
        from congestion_mfg import cli

        grid = GridSpec(dim=1, n=8, nt=8, horizon=1.0)
        frame = 1.0 + 0.5 * np.cos(2.0 * np.pi * grid.coords()[0])
        write_field_csv(tmp_path / "density.csv", grid, frame)
        seen = []
        real_solve = cli.solve_mfg

        def recording_solve(grid, params, coupling, fp_opts, m0):
            seen.append(m0)
            return real_solve(grid, params, coupling, fp_opts, m0=m0)

        monkeypatch.setattr(cli, "solve_mfg", recording_solve)
        path = write_config(
            tmp_path,
            f"n = 8\nnt = 8\n{key} = file({tmp_path / 'density.csv'})\n" + "output_dir = {out}\n",
            out=tmp_path / "study",
        )
        assert cmd_study(path, 2) == EXIT_OK
        assert len(seen) == 2
        assert np.array_equal(seen[0], frame)
        assert np.array_equal(seen[1], np.repeat(frame, 2))


def study_rows(out_dir):
    """The rows of a ``study.csv`` as ``(n, nt, energy_residual, l1_gap)``."""
    rows = (out_dir / "study.csv").read_text().splitlines()[1:]
    return [(int(n), int(nt), float(res), float(gap))
            for n, nt, res, gap in (row.split(",") for row in rows)]


@pytest.fixture(scope="module")
def singular_ladders():
    """The last rung of ``SINGULAR_LADDER``'s ladder on n = nt = 8 and 16."""
    params = ModelParams(nu=0.5, beta=1.5, alpha=0.6, mu=1.0, horizon=1.0, epsilon=0.05)
    schedule = ContinuationSchedule(epsilons=(0.05,), mus=(1.0, 0.5, 0.25, 0.1, 0.05, 0.0))
    finals = []
    for n in (8, 16):
        grid = GridSpec(dim=1, n=n, nt=n, horizon=1.0)
        result = solve_with_continuation(
            grid, params, CouplingSpec(cf=0.5, cg=0.5),
            FixedPointOptions(fp_tol=1e-6, max_outer_iter=400), schedule,
            m0=cosine_density(grid),
        )
        assert result.ok and result.rungs[-1] == (0.05, 0.0)
        finals.append(result.solutions[-1])
    return finals


class TestStudyRunsTheLadder:
    """``study`` solves each level as ``solve`` does: the configured ladder,
    with budget overruns and raised rungs in its exit code."""

    def test_singular_ladder_reaches_mu_zero(self, tmp_path, singular_ladders):
        # each level used to cold-start at the config's mu = 0: exit 1
        out_dir = tmp_path / "study"
        path = write_config(tmp_path, SINGULAR_LADDER, out=out_dir)
        assert main(["study", path, "--levels", "2"]) == EXIT_OK
        *_, (n, nt, res, gap) = study_rows(out_dir)
        assert (n, nt, gap) == (16, 16, 0.0)
        assert res == energy_identity_residual(singular_ladders[-1])

    def test_every_level_is_the_ladders_last_rung(self, tmp_path, singular_ladders):
        # without a ladder study solved the config's mu = 1 at every level
        out_dir = tmp_path / "study"
        config = SINGULAR_LADDER.replace("mu = 0\n", "")
        path = write_config(tmp_path, config, out=out_dir)
        assert parse_config(path)["mu"] == 1.0
        assert main(["study", path, "--levels", "2"]) == EXIT_OK
        coarse, finest = singular_ladders
        assert study_rows(out_dir) == [
            (8, 8, energy_identity_residual(coarse),
             l1_space_time(coarse.grid, coarse.m - restrict_traj(finest.grid, finest.m, 2))),
            (16, 16, energy_identity_residual(finest), 0.0),
        ]

    def test_budget_overrun_exits_three_after_the_table(self, tmp_path, capsys):
        # an order read off unconverged solves used to exit 0
        out_dir = tmp_path / "study"
        path = write_config(
            tmp_path, "n = 8\nnt = 8\nm0 = cosine_bump(0.5)\nmax_outer_iter = 2\n"
            "output_dir = {out}\n", out=out_dir,
        )
        assert main(["solve", path]) == EXIT_BUDGET
        capsys.readouterr()
        assert main(["study", path, "--levels", "2"]) == EXIT_BUDGET
        assert [row[:2] for row in study_rows(out_dir)] == [(8, 8), (16, 16)]
        assert "energy_residual observed orders: " in capsys.readouterr().out

    def test_raised_rung_exits_four_after_the_table(self, tmp_path, monkeypatch, capsys):
        """A rung that raises ends its level's ladder at the rung before it,
        whose solution fills the level's row."""
        from congestion_mfg import coupler

        real_solve = coupler.solve_mfg

        def failing_second_rung(grid, params, *args, **kwargs):
            if params.mu == 0.5:
                raise NewtonDiverged("injected")
            return real_solve(grid, params, *args, **kwargs)

        monkeypatch.setattr(coupler, "solve_mfg", failing_second_rung)
        out_dir = tmp_path / "study"
        path = write_config(
            tmp_path, "n = 8\nnt = 8\nm0 = cosine_bump(0.5)\ncontinuation = true\n"
            "epsilons = 0.1\nmus = 1, 0.5\noutput_dir = {out}\n", out=out_dir,
        )
        assert main(["study", path, "--levels", "2"]) == EXIT_SOLVER
        assert capsys.readouterr().err.splitlines() == ["rung 1 failed: injected"] * 2
        assert [row[:2] for row in study_rows(out_dir)] == [(8, 8), (16, 16)]

    def test_raised_first_rung_exits_four_without_a_table(self, tmp_path, capsys, monkeypatch):
        # one Newton iteration cannot reach NEWTON_TOL on the first HJB level
        monkeypatch.setattr(hjb, "NEWTON_MAX_ITER", 1)
        out_dir = tmp_path / "study"
        path = write_config(
            tmp_path, "n = 8\nnt = 8\nm0 = cosine_bump(0.5)\ncontinuation = true\n"
            "epsilons = 0.1\noutput_dir = {out}\n", out=out_dir,
        )
        assert main(["study", path, "--levels", "2"]) == EXIT_SOLVER
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 2 and all(line.startswith("rung 0 failed: ") for line in err)
        assert not out_dir.exists()


def per_level_study_csv(path, levels):
    """``study.csv`` as ``study`` wrote it before it shared ``solve``'s run
    path: one ``solve_mfg`` per level.  The reference for configs without a
    ladder."""
    _, params, coupling, _, runs = _load_run(path, levels)
    sols = [solve_mfg(grid, params, coupling, fp_opts, m0=m0) for grid, m0, fp_opts in runs]
    finest_grid, finest = runs[-1][0], sols[-1]
    lines = ["n,nt,energy_residual,l1_gap\n"]
    for level, ((grid, _, _), sol) in enumerate(zip(runs, sols)):
        res = energy_identity_residual(sol)
        factor = 2 ** (levels - 1 - level)
        if factor == 1:
            gap = 0.0
        else:
            restricted = restrict_traj(finest_grid, finest.m, factor)
            gap = l1_space_time(grid, sol.m - restricted)
        lines.append(f"{grid.n},{grid.nt},{res:.17g},{gap:.17g}\n")
    return "".join(lines).encode()


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("m0", ["uniform", "cosine_bump(0.5)", "file"])
def test_study_without_ladder_is_byte_identical_to_per_level_solves(tmp_path, dim, m0):
    grid = GridSpec(dim=dim, n=8, nt=8, horizon=1.0)
    if m0 == "file":
        m0 = f"file({tmp_path / 'm0.csv'})"
        write_field_csv(tmp_path / "m0.csv", grid, 1.0 + 0.5 * np.cos(2 * np.pi * grid.coords()[0]))
    out_dir = tmp_path / "study"
    path = write_config(
        tmp_path, f"dim = {dim}\nn = 8\nnt = 8\nm0 = {m0}\n" + "output_dir = {out}\n",
        out=out_dir,
    )
    assert cmd_study(path, 2) == EXIT_OK
    assert (out_dir / "study.csv").read_bytes() == per_level_study_csv(path, 2)


# configs check, solve and study must reject with exit 1, not crash on or
# fail as solves
BAD_OPTIONS = {
    "check-rising_epsilons": ("check", "continuation = true\nepsilons = 0.1, 0.2\n"),
    "solve-rising_epsilons": ("solve", "continuation = true\nepsilons = 0.1, 0.2\n"),
    "solve-negative_mu": ("solve", "continuation = true\nmus = 1.0, -0.5\n"),
    "study-damping": ("study", "damping = 0\n"),
    "solve-epsilon": ("solve", "epsilon = -0.1\n"),
    "study-epsilon": ("study", "epsilon = -0.1\n"),
    # solve_mfg's structure check, raised before any solve work: solve and
    # study print one rejected: line, only check prints the report
    "study-beta": ("study", "beta = 2.5\n"),
    "solve-beta": ("solve", "beta = 2.5\n"),
    # a ladder whose first width is not the config's epsilon, which it
    # would otherwise drop without a word
    "solve-epsilon_and_epsilons": (
        "solve", "continuation = true\nepsilon = 0.3\nepsilons = 0.1\n"
    ),
    "check-epsilon_and_epsilons": (
        "check", "continuation = true\nepsilon = 0.3\nepsilons = 0.1\n"
    ),
    "check-cold_mu0_ladder": (
        "check", "continuation = true\nwarm_start = false\nmus = 1.0, 0.0\n"
    ),
    # solve_mfg's cold-start ConfigError, now raised before any solve, where
    # check exited 0 on a first rung at mu = 0
    "solve-cold_mu0": ("solve", "mu = 0\n"),
    "study-cold_mu0": ("study", "mu = 0\n"),
    "check-cold_mu0": ("check", "mu = 0\n"),
    "check-cold_mu0_epsilons_ladder": ("check", "mu = 0\ncontinuation = true\nepsilons = 0.1\n"),
    "check-cold_mu0_first_of_mus": ("check", "continuation = true\nmus = 0\n"),
    # ladder keys without continuation: check exited 0, and solve ran one
    # solve at the config's mu
    "check-mus_without_continuation": ("check", "mus = 1, 0.5\n"),
    "solve-mus_without_continuation": ("solve", "mus = 1, 0.5\n"),
    "check-epsilons_without_continuation": ("check", "epsilons = 0.1\n"),
    "solve-epsilons_without_continuation": ("solve", "epsilons = 0.1\n"),
    # no Picard iteration: it wrote a bundle and exited 3
    "check-max_outer_iter": ("check", "max_outer_iter = 0\n"),
    "solve-max_outer_iter": ("solve", "max_outer_iter = 0\n"),
    # no range check saw these: check exited 0 on both; solve met a non-finite
    # HJB residual at offsetF = nan (exit 4) and wrote a bundle at mu = inf
    "check-offsetF_nan": ("check", "offsetF = nan\n"),
    "solve-offsetF_nan": ("solve", "offsetF = nan\n"),
    "check-mu_inf": ("check", "mu = inf\n"),
    "solve-mu_inf": ("solve", "mu = inf\n"),
}

# keys the config no longer has (the Newton and linear tolerances are
# constants, a Picard start is solve_mfg's init_traj): every command rejects
# them as unknown keys with exit 2, before it solves anything
REMOVED_OPTIONS = {
    "check-init_m": ("check", "init_m = cosine_bump(2)\n"),
    "solve-linear_tol": ("solve", "linear_tol = 0\n"),
    "solve-newton_tol": ("solve", "newton_tol = 0\n"),
    "solve-newton_max_iter": ("solve", "newton_max_iter = 0\n"),
    "study-linear_tol": ("study", "linear_tol = 0\n"),
    "study-init_m": ("study", "init_m = cosine_bump(2)\n"),
}

# a key set twice is an error naming both lines, not a silent override
REPEATED_KEYS = {
    "check-repeated_n": ("check", "n = 16\n"),
    "solve-repeated_n": ("solve", "n = 16\n"),
    "study-repeated_n": ("study", "n = 16\n"),
}

BAD_OPTION_CASES = {
    **{k: (*v, EXIT_STRUCTURAL, "rejected: ") for k, v in BAD_OPTIONS.items()},
    **{k: (*v, EXIT_CONFIG, "config error: ") for k, v in REMOVED_OPTIONS.items()},
    **{k: (*v, EXIT_CONFIG, "config error: line 3: key 'n' repeats line 1")
       for k, v in REPEATED_KEYS.items()},
}


def run_cli(command, path):
    """``python -m congestion_mfg.cli <command> <path>`` in a subprocess."""
    src = str(Path(congestion_mfg.__file__).resolve().parents[1])
    paths = [src, os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    return subprocess.run(
        [sys.executable, "-m", "congestion_mfg.cli", command, path],
        capture_output=True, text=True, env=env, timeout=120,
    )


@pytest.mark.parametrize(
    "command, options, code, prefix", BAD_OPTION_CASES.values(), ids=BAD_OPTION_CASES
)
def test_bad_options_are_rejected(tmp_path, command, options, code, prefix):
    out_dir = tmp_path / "out"
    path = write_config(
        tmp_path, "n = 8\nnt = 8\n" + options + "output_dir = {out}\n", out=out_dir
    )
    proc = run_cli(command, path)
    assert proc.returncode == code, proc.stderr
    assert any(line.startswith(prefix) for line in proc.stderr.splitlines())
    assert "Traceback" not in proc.stderr
    assert not out_dir.exists()


@pytest.mark.parametrize("command", ["check", "solve"])
@pytest.mark.parametrize(
    "option, message",
    [
        ("mu = nan", "mu must be nonnegative and finite, got nan"),
        ("fp_tol = nan", "fp_tol must be positive and finite"),
        ("m0 = cosine_bump(abc)", "m0: bad cosine bump amplitude 'abc'"),
        ("m0 = cosine_bump()", "m0: bad cosine bump amplitude ''"),
    ],
    ids=["mu", "fp_tol", "m0_abc", "m0_empty"],
)
def test_nan_option_is_rejected(tmp_path, capsys, command, option, message):
    """NaN fails no ``x <= 0`` test: ``mu = nan`` solved on the singular
    mu = 0 branch, and ``fp_tol = nan`` would accept no Picard iterate.  A
    cosine bump amplitude that is no number was rejected without naming
    ``m0``."""
    out_dir = tmp_path / "out"
    path = write_config(
        tmp_path, f"n = 8\nnt = 8\n{option}\n" + "output_dir = {out}\n", out=out_dir
    )
    assert main([command, path]) == EXIT_STRUCTURAL
    assert capsys.readouterr().err.splitlines() == [f"rejected: {message}"]
    assert not out_dir.exists()


@pytest.mark.parametrize("command", ["check", "solve", "study"])
@pytest.mark.parametrize("under", ["file", "subdirectory"])
def test_unwritable_output_dir_exits_two(tmp_path, capsys, monkeypatch, command, under):
    """An ``output_dir`` that is a regular file, or lies under one, raised
    ``FileExistsError`` or ``NotADirectoryError`` after the solve: a
    traceback and exit 1, the code of a structural rejection.  Every command,
    ``check`` too, now raises it while it loads the run, before any solve."""
    from congestion_mfg import cli, coupler

    def no_solve(*args, **kwargs):
        pytest.fail("solved before checking output_dir")

    for module in (cli, coupler):
        monkeypatch.setattr(module, "solve_mfg", no_solve)
    afile = tmp_path / "afile"
    afile.write_text("")
    out_dir = afile if under == "file" else afile / "sub"
    path = write_config(tmp_path, "n = 8\nnt = 8\noutput_dir = {out}\n", out=out_dir)
    assert main([command, path, *(["--levels", "2"] if command == "study" else [])]) == EXIT_CONFIG
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("I/O error: ") and str(out_dir) in line
    assert afile.read_text() == ""


@pytest.mark.parametrize("command", ["check", "solve"])
@pytest.mark.parametrize("horizon", ["nan", "inf"])
def test_non_finite_horizon_is_rejected(tmp_path, command, horizon):
    """``check`` accepted both; ``solve`` said a nan horizon differed from
    the grid's nan, and failed a linear solve at an infinite one."""
    out_dir = tmp_path / "out"
    path = write_config(
        tmp_path, f"n = 8\nnt = 8\nhorizon = {horizon}\n" + "output_dir = {out}\n", out=out_dir
    )
    proc = run_cli(command, path)
    assert proc.returncode == EXIT_STRUCTURAL, proc.stderr
    expected = f"rejected: horizon must be positive and finite, got {horizon}"
    assert expected in proc.stderr.splitlines()
    assert not out_dir.exists()


@pytest.mark.parametrize("command", ["solve", "study"])
@pytest.mark.parametrize("key", ["m0"])
def test_missing_density_file_is_a_config_error(tmp_path, command, key):
    out_dir = tmp_path / "out"
    missing = tmp_path / "no_such_density.csv"
    path = write_config(
        tmp_path,
        "n = 8\nnt = 8\n" + f"{key} = file({missing})\n" + "output_dir = {out}\n",
        out=out_dir,
    )
    proc = run_cli(command, path)
    assert proc.returncode == EXIT_CONFIG, proc.stderr
    assert any(line.startswith("config error: ") for line in proc.stderr.splitlines())
    assert "Traceback" not in proc.stderr
    assert not out_dir.exists()


@pytest.mark.parametrize("ladder", ["", "continuation = true\nepsilons = 0.1\n"],
                         ids=["single", "continuation"])
def test_signed_initial_density_file_is_rejected(tmp_path, ladder):
    # in a ladder the ConfigError comes from rung 0 and is no rung failure
    grid = GridSpec(dim=1, n=8, nt=8, horizon=1.0)
    frame = np.ones(grid.shape)
    frame[2] = -0.2
    density = tmp_path / "neg.csv"
    write_field_csv(density, grid, frame)
    out_dir = tmp_path / "out"
    path = write_config(
        tmp_path,
        "n = 8\nnt = 8\n" + ladder + f"m0 = file({density})\n" + "output_dir = {out}\n",
        out=out_dir,
    )
    proc = run_cli("solve", path)
    assert proc.returncode == EXIT_STRUCTURAL, proc.stderr
    assert any(line.startswith("rejected: ") for line in proc.stderr.splitlines())
    assert "Traceback" not in proc.stderr
    assert not out_dir.exists()


@pytest.mark.parametrize("key", ["m0"])
def test_header_only_density_file_is_rejected(tmp_path, key):
    density = tmp_path / "empty.csv"
    density.write_text("t,x,value\n")
    out_dir = tmp_path / "out"
    path = write_config(
        tmp_path,
        "n = 8\nnt = 8\n" + f"{key} = file({density})\n" + "output_dir = {out}\n",
        out=out_dir,
    )
    proc = run_cli("solve", path)
    assert proc.returncode == EXIT_STRUCTURAL, proc.stderr
    assert proc.stderr.splitlines() == [f"rejected: {key}: {density}: field CSV has no data rows"]
    assert not out_dir.exists()


@pytest.mark.parametrize("key", ["m0"])
def test_unparseable_density_file_is_named(tmp_path, key, capsys):
    """Values numpy cannot parse, here printed with numpy 2's ``repr``: the
    parse error names the file and the key that read it."""
    grid = GridSpec(dim=1, n=8, nt=8, horizon=1.0)
    density = tmp_path / "repr.csv"
    write_field_csv(density, grid, np.ones(grid.shape))
    header, *rows = density.read_text().splitlines(keepends=True)
    density.write_text(header + "".join(row.replace(",1\n", ",np.float64(1.0)\n") for row in rows))
    out_dir = tmp_path / "out"
    path = write_config(
        tmp_path, f"n = 8\nnt = 8\n{key} = file({density})\n" + "output_dir = {out}\n",
        out=out_dir,
    )
    assert main(["solve", path]) == EXIT_STRUCTURAL
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith(f"rejected: {key}: {density}: could not convert string")
    assert not out_dir.exists()


def test_y_major_density_file_is_rejected(tmp_path, capsys):
    """The rows of a 2D frame with y slowest once loaded, and solved, as its
    transpose."""
    grid = GridSpec(dim=2, n=8, nt=8, horizon=1.0)
    x, _ = grid.coords()
    density = tmp_path / "m0.csv"
    write_field_csv(density, grid, 1.0 + 0.5 * np.cos(2.0 * np.pi * x))
    out_dir = tmp_path / "out"
    path = write_config(
        tmp_path, f"dim = 2\nn = 8\nnt = 8\nm0 = file({density})\n" + "output_dir = {out}\n",
        out=out_dir,
    )
    assert main(["check", path]) == EXIT_OK
    y_major_rows(density, grid.n)
    capsys.readouterr()
    assert main(["solve", path]) == EXIT_STRUCTURAL
    assert capsys.readouterr().err.splitlines() == [
        f"rejected: m0: {density}: data row 2 has x = 0.1875, expected 0.0625 within 0.03125"
    ]
    assert not out_dir.exists()


@pytest.mark.parametrize("key", ["m0"])
def test_two_frame_density_file_is_rejected(tmp_path, key, capsys):
    """A density file is one frame at t = 0; the first of two was taken."""
    grid = GridSpec(dim=1, n=8, nt=8, horizon=1.0)
    density = tmp_path / "two.csv"
    write_field_csv(density, grid, np.ones(grid.shape))
    header, *rows = density.read_text().splitlines(keepends=True)
    density.write_text(header + "".join(rows) + "".join("0.125" + row[1:] for row in rows))
    out_dir = tmp_path / "out"
    path = write_config(
        tmp_path, f"n = 8\nnt = 8\n{key} = file({density})\n" + "output_dir = {out}\n",
        out=out_dir,
    )
    assert main(["solve", path]) == EXIT_STRUCTURAL
    assert capsys.readouterr().err.splitlines() == [
        f"rejected: {key}: {density}: expected 1 frame(s) of 8 rows of 3 values, got 16 rows of 3"
    ]
    assert not out_dir.exists()


@pytest.mark.parametrize("command", ["check", "solve"])
@pytest.mark.parametrize("key", ["m0"])
@pytest.mark.parametrize(
    "entry, message", [("-0.2", "nonnegative"), ("nan", "finite"), ("inf", "finite")]
)
def test_density_file_entry_is_rejected_by_check_too(
    tmp_path, capsys, command, key, entry, message
):
    """``check`` passed a density file with a negative or NaN entry that
    ``solve`` rejected or failed on (exit 4, non-finite HJB residual); both
    now reject it while the run loads, naming the key."""
    grid = GridSpec(dim=1, n=8, nt=8, horizon=1.0)
    frame = np.ones(grid.shape)
    frame[2] = float(entry)
    density = tmp_path / "bad.csv"
    write_field_csv(density, grid, frame)
    out_dir = tmp_path / "out"
    path = write_config(
        tmp_path, f"n = 8\nnt = 8\n{key} = file({density})\n" + "output_dir = {out}\n",
        out=out_dir,
    )
    assert main([command, path]) == EXIT_STRUCTURAL
    assert capsys.readouterr().err.splitlines() == [
        f"rejected: {key}: density file must be {message}"
    ]
    assert not out_dir.exists()


class TestMain:
    def test_dispatch(self, tmp_path, capsys):
        path = write_config(tmp_path, "beta = 2.0\nalpha = 0.5\n")
        assert main(["check", path]) == EXIT_OK


class Test2DBundle:
    def test_two_dim_round_trip(self, tmp_path, monkeypatch):
        from congestion_mfg import GridSpec, ModelParams, CouplingSpec, solve_mfg

        grid = GridSpec(dim=2, n=8, nt=4, horizon=0.25)
        params = ModelParams(nu=0.5, beta=2.0, alpha=1.0, mu=1.0, horizon=0.25)
        xx, yy = grid.coords()
        m0 = 1.0 + 0.3 * np.cos(2 * np.pi * xx) * np.cos(2 * np.pi * yy)
        sol = solve_mfg(grid, params, CouplingSpec(), m0=m0)
        save_solution(sol, tmp_path / "b2")
        assert (tmp_path / "b2" / "policy_x.csv").exists()
        assert (tmp_path / "b2" / "policy_y.csv").exists()
        loaded = load_solution(tmp_path / "b2")
        assert np.array_equal(loaded.u, sol.u)
        assert np.array_equal(loaded.m, sol.m)
        assert np.array_equal(loaded.policy, sol.policy)
        assert_owns_memory(loaded)
        assert cmd_diagnose(str(tmp_path / "b2")) == EXIT_OK
        assert_loads_without_policy(sol, tmp_path / "b2", monkeypatch)
        assert cmd_diagnose(str(tmp_path / "b2")) == EXIT_OK

    def test_y_major_field_cannot_load(self, tmp_path, capsys):
        from congestion_mfg import CouplingSpec, ModelParams, solve_mfg

        grid = GridSpec(dim=2, n=8, nt=4, horizon=0.25)
        params = ModelParams(nu=0.5, beta=2.0, alpha=1.0, mu=1.0, horizon=0.25)
        save_solution(solve_mfg(grid, params, CouplingSpec()), tmp_path / "b2")
        u_path = tmp_path / "b2" / "u.csv"
        y_major_rows(u_path, grid.n)
        assert cmd_diagnose(str(tmp_path / "b2")) == EXIT_CONFIG
        assert capsys.readouterr().err.splitlines() == [
            f"cannot load bundle: {u_path}: data row 2 has x = 0.1875, "
            "expected 0.0625 within 0.03125"
        ]

    def test_header_only_field_cannot_load(self, tmp_path):
        from congestion_mfg import GridSpec, ModelParams, CouplingSpec, solve_mfg

        grid = GridSpec(dim=2, n=8, nt=4, horizon=0.25)
        params = ModelParams(nu=0.5, beta=2.0, alpha=1.0, mu=1.0, horizon=0.25)
        save_solution(solve_mfg(grid, params, CouplingSpec()), tmp_path / "b2")
        (tmp_path / "b2" / "u.csv").write_text("t,x,y,value\n")
        proc = run_cli("diagnose", str(tmp_path / "b2"))
        assert proc.returncode == EXIT_CONFIG, proc.stderr
        assert proc.stderr.splitlines() == [
            f"cannot load bundle: {tmp_path / 'b2' / 'u.csv'}: field CSV has no data rows"
        ]
