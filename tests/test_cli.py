"""Batch front-end: config parsing, exit codes, bundle round trips, study."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import congestion_mfg

from congestion_mfg.bundles import load_solution, save_solution
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
    main,
    parse_config,
)
from congestion_mfg.errors import ConfigParseError
from congestion_mfg.grid import GridSpec, write_field_csv

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


def write_config(tmp_path, text, name="run.cfg", **fmt):
    path = tmp_path / name
    path.write_text(text.format(**fmt))
    return str(path)


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

    def test_rejects_superquadratic(self, tmp_path, capsys):
        path = write_config(tmp_path, "beta = 2.5\nalpha = 1.0\n")
        assert cmd_check(path) == EXIT_STRUCTURAL
        assert "beta" in capsys.readouterr().out

    def test_malformed_exit_two(self, tmp_path, capsys):
        path = write_config(tmp_path, "nu == 0.5\n")
        assert cmd_check(path) == EXIT_CONFIG
        assert "line 1" in capsys.readouterr().err

    def test_builds_the_run_as_solve_does(self, tmp_path, capsys):
        # a zero linear tolerance in a continuation run is no valid config
        path = write_config(
            tmp_path, "continuation = true\nepsilons = 0.1\nlinear_tol = 0\n"
        )
        assert cmd_check(path) == EXIT_STRUCTURAL
        captured = capsys.readouterr()
        assert "rejected: linear_tol must be positive" in captured.err
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

    def test_solver_failure_exit_four(self, tmp_path):
        # one Newton iteration cannot reach newton_tol on the first HJB level
        out_dir = tmp_path / "fail"
        path = write_config(
            tmp_path, REFERENCE_CONFIG + "newton_max_iter = 1\n", out=out_dir
        )
        assert cmd_solve(path) == EXIT_SOLVER

    def test_structural_rejection(self, tmp_path):
        path = write_config(tmp_path, "beta = 2.5\noutput_dir = {out}\n", out=tmp_path / "x")
        assert cmd_solve(path) == EXIT_STRUCTURAL


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

    def test_round_trip_bit_identical(self, ref32, tmp_path):
        save_solution(ref32, tmp_path / "b")
        loaded = load_solution(tmp_path / "b")
        assert np.array_equal(loaded.u, ref32.u)
        assert np.array_equal(loaded.m, ref32.m)
        assert np.array_equal(loaded.policy, ref32.policy)
        assert loaded.params == ref32.params
        assert loaded.coupling == ref32.coupling

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

    def test_missing_bundle_exit_two(self, tmp_path):
        assert cmd_diagnose(str(tmp_path / "nope")) == EXIT_CONFIG

    def test_grid_mismatch_exit_five(self, ref32, ref64, tmp_path):
        save_solution(ref32, tmp_path / "a")
        save_solution(ref64, tmp_path / "b")
        assert cmd_diagnose(str(tmp_path / "a"), str(tmp_path / "b")) == EXIT_MISMATCH


class TestCmdStudy:
    def test_three_level_reference_decreasing(self, tmp_path):
        out_dir = tmp_path / "study3"
        path = write_config(tmp_path, REFERENCE_CONFIG, out=out_dir)
        assert cmd_study(path, 3) == EXIT_OK
        rows = (out_dir / "study.csv").read_text().splitlines()[1:]
        residuals = [float(r.split(",")[2]) for r in rows]
        gaps = [float(r.split(",")[3]) for r in rows[:-1]]
        assert residuals[0] > residuals[1] > residuals[2]
        assert gaps[0] > gaps[1]

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


    def test_solver_options_reach_both_sweeps(self, tmp_path, monkeypatch):
        from congestion_mfg import cli, coupler

        calls, fpk_tols = [], []
        real_solve = cli.solve_mfg
        real_forward = coupler.solve_fpk_forward

        def recording_solve(*args, **kwargs):
            calls.append(kwargs)
            return real_solve(*args, **kwargs)

        def recording_forward(grid, transports, m0, params, tol=1e-12):
            fpk_tols.append(tol)
            return real_forward(grid, transports, m0, params, tol)

        monkeypatch.setattr(cli, "solve_mfg", recording_solve)
        monkeypatch.setattr(coupler, "solve_fpk_forward", recording_forward)
        path = write_config(
            tmp_path,
            "n = 4\nnt = 4\nm0 = uniform\nlinear_tol = 1e-11\noutput_dir = {out}\n",
            out=tmp_path / "study",
        )
        assert cmd_study(path, 2) == EXIT_OK
        assert len(calls) == 2
        for kwargs in calls:
            assert kwargs["hjb_opts"].linear_tol == 1e-11
        assert fpk_tols
        assert all(tol == 1e-11 for tol in fpk_tols)


# configs check, solve and study must reject with exit 1, not crash on or
# fail as solves
BAD_OPTIONS = {
    "check-rising_epsilons": ("check", "continuation = true\nepsilons = 0.1, 0.2\n"),
    "check-init_m": ("check", "init_m = cosine_bump(2)\n"),
    "solve-linear_tol": ("solve", "linear_tol = 0\n"),
    "solve-newton_tol": ("solve", "newton_tol = 0\n"),
    "solve-newton_max_iter": ("solve", "newton_max_iter = 0\n"),
    "solve-rising_epsilons": ("solve", "continuation = true\nepsilons = 0.1, 0.2\n"),
    "solve-negative_mu": ("solve", "continuation = true\nmus = 1.0, -0.5\n"),
    "study-damping": ("study", "damping = 0\n"),
    "study-linear_tol": ("study", "linear_tol = 0\n"),
    "study-init_m": ("study", "init_m = cosine_bump(2)\n"),
    "solve-epsilon": ("solve", "epsilon = -0.1\n"),
    "study-epsilon": ("study", "epsilon = -0.1\n"),
    # solve_mfg's cold-start ConfigError, raised once the solve has started
    "solve-cold_mu0": ("solve", "mu = 0\n"),
    "study-cold_mu0": ("study", "mu = 0\n"),
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


@pytest.mark.parametrize("command, options", BAD_OPTIONS.values(), ids=BAD_OPTIONS)
def test_bad_options_are_rejected(tmp_path, command, options):
    out_dir = tmp_path / "out"
    path = write_config(
        tmp_path, "n = 8\nnt = 8\n" + options + "output_dir = {out}\n", out=out_dir
    )
    proc = run_cli(command, path)
    assert proc.returncode == EXIT_STRUCTURAL, proc.stderr
    assert any(line.startswith("rejected: ") for line in proc.stderr.splitlines())
    assert "Traceback" not in proc.stderr
    assert not out_dir.exists()


@pytest.mark.parametrize("command", ["solve", "study"])
@pytest.mark.parametrize("key", ["m0", "init_m"])
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


@pytest.mark.parametrize("key", ["m0", "init_m"])
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
    assert proc.stderr.splitlines() == ["rejected: field CSV has no data rows"]
    assert not out_dir.exists()


class TestMain:
    def test_dispatch(self, tmp_path, capsys):
        path = write_config(tmp_path, "beta = 2.0\nalpha = 0.5\n")
        assert main(["check", path]) == EXIT_OK


class Test2DBundle:
    def test_two_dim_round_trip(self, tmp_path):
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
        assert cmd_diagnose(str(tmp_path / "b2")) == EXIT_OK

    def test_header_only_field_cannot_load(self, tmp_path):
        from congestion_mfg import GridSpec, ModelParams, CouplingSpec, solve_mfg

        grid = GridSpec(dim=2, n=8, nt=4, horizon=0.25)
        params = ModelParams(nu=0.5, beta=2.0, alpha=1.0, mu=1.0, horizon=0.25)
        save_solution(solve_mfg(grid, params, CouplingSpec()), tmp_path / "b2")
        (tmp_path / "b2" / "u.csv").write_text("t,x,y,value\n")
        proc = run_cli("diagnose", str(tmp_path / "b2"))
        assert proc.returncode == EXIT_CONFIG, proc.stderr
        assert proc.stderr.splitlines() == [
            "cannot load bundle: field CSV has no data rows"
        ]
