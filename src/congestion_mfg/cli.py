"""Batch front-end: check / solve / diagnose / study.

Run configurations are flat UTF-8 ``key = value`` files with ``#`` comments
and no nesting; unknown keys, ``enforce_nonneg_check`` among them (density
positivity is always checked), and a key set twice are rejected with the
offending line number.
Every command that reads a config builds every grid, initial density and
option object, and checks that ``output_dir`` can be made, in ``_load_run``
before any solve, so ``check`` rejects what ``solve`` and ``study`` reject.
``solve`` and each level of ``study`` run the (eps, mu) ladder when
``continuation`` is set, else one solve.  Exit
codes form a stable contract, and ``_EXIT_CODES`` maps exceptions to them
the same way for every command:

    0  success
    1  structural rejection: parameter ranges (``check`` prints its report,
       ``solve`` and ``study`` a ``rejected:`` line), ``ConfigError``, or a
       ``ValueError`` raised while the run is loaded
    2  config or I/O error: ``ConfigParseError``, unreadable bundle, or an
       ``OSError`` such as an ``output_dir`` that cannot be written
    3  iteration budget exhausted by any rung (bundle or table still written)
    4  solver failure: any other ``CongestionMFGError``, or a rung that
       raised (completed rungs are still written)
    5  grid mismatch between bundles: ``GridMismatch``

A ``ValueError`` raised inside a solve is a defect, not a verdict on the
config, and propagates.
"""

from __future__ import annotations

import argparse
import errno
import functools
import json
import math
import os
import re
import sys
from dataclasses import replace

import numpy as np

from .bundles import load_solution, read_frame_csv, save_solution
from .coupler import (
    COLD_START_AT_MU0,
    ContinuationResult,
    ContinuationSchedule,
    FixedPointOptions,
    solve_mfg,
    solve_with_continuation,
)
from .diagnostics import apriori_report, crossed_energy_gap, energy_identity_residual
from .diagnostics import uniqueness_gap
from .errors import ConfigError, ConfigParseError, CongestionMFGError, GridMismatch
from .grid import GridSpec, _density_input, l1_space_time, prolong_frame, restrict_traj
from .model import CouplingSpec, ModelParams, check_structure

EXIT_OK = 0
EXIT_STRUCTURAL = 1
EXIT_CONFIG = 2
EXIT_BUDGET = 3
EXIT_SOLVER = 4
EXIT_MISMATCH = 5


def _parse_bool(text: str) -> bool:
    if text.lower() in ("true", "1", "yes", "on"):
        return True
    if text.lower() in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _parse_float_list(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",") if tok.strip()]


# key -> (parser of the value text, default)
_CONFIG: dict[str, tuple[object, object]] = {
    # model
    "nu": (float, 0.5),
    "beta": (float, 2.0),
    "alpha": (float, 1.0),
    "mu": (float, 1.0),
    "horizon": (float, 1.0),
    "epsilon": (float, 0.0),
    # coupling
    "cF": (float, 1.0),
    "qF": (float, 1.0),
    "offsetF": (float, 0.0),
    "cG": (float, 1.0),
    "qG": (float, 1.0),
    "offsetG": (float, 0.0),
    # grid
    "dim": (int, 1),
    "n": (int, 32),
    "nt": (int, 32),
    # fixed point
    "damping": (float, 0.5),
    "fp_tol": (float, 1e-8),
    "max_outer_iter": (int, 500),
    # continuation
    "continuation": (_parse_bool, False),
    "epsilons": (_parse_float_list, None),
    "mus": (_parse_float_list, None),
    "warm_start": (_parse_bool, True),
    # data and output
    "m0": (str, "uniform"),
    "output_dir": (str, "out"),
}


def parse_config(path) -> dict:
    """Flat ``key = value`` file; unknown, repeated and bad-valued keys are errors."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigParseError(f"cannot read config: {exc}") from exc
    cfg = {key: default for key, (_, default) in _CONFIG.items()}
    first_line: dict[str, int] = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigParseError(f"expected 'key = value', got {raw.strip()!r}", lineno)
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _CONFIG:
            raise ConfigParseError(f"unknown key {key!r}", lineno)
        if key in first_line:
            raise ConfigParseError(f"key {key!r} repeats line {first_line[key]}", lineno)
        first_line[key] = lineno
        caster, _ = _CONFIG[key]
        try:
            cfg[key] = caster(value)
        except (ValueError, TypeError) as exc:
            raise ConfigParseError(f"bad value for {key!r}: {exc}", lineno) from exc
    return cfg


_DENSITY_SPEC = re.compile(r"^(uniform|cosine_bump\(([^)]*)\)|file\(([^)]*)\))$")


def density_from_spec(spec: str, grids: list) -> list[np.ndarray]:
    """The ``m0`` density, uniform | cosine_bump(amplitude) | file(path to a
    single-frame CSV), on each grid of a refinement ladder, coarsest first.

    ``uniform`` and ``cosine_bump`` are evaluated on each grid; a file is read
    once, on the coarsest, and prolonged piecewise-constant to the finer ones.
    A file's density passes the guard the solver applies to its input, so a
    NaN, an infinity or a negative entry beyond roundoff is rejected here.
    Every rejection names the key ``m0``.
    """
    match = _DENSITY_SPEC.match(spec.strip())
    if not match:
        raise ConfigError(f"m0: bad density spec {spec!r}")
    if match.group(3) is not None:
        try:
            frame = _density_input(read_frame_csv(match.group(3), grids[0]), "density file")
        except OSError as exc:
            raise ConfigParseError(f"m0: cannot read density file: {exc}") from exc
        except ValueError as exc:
            raise ConfigError(f"m0: {exc}") from exc
        return [prolong_frame(frame, grid.n // grids[0].n) for grid in grids]
    if match.group(2) is None:
        return [np.ones(grid.shape) for grid in grids]
    try:
        amp = float(match.group(2))
    except ValueError:
        raise ConfigError(f"m0: bad cosine bump amplitude {match.group(2)!r}") from None
    if not 0.0 <= amp < 1.0:
        raise ConfigError("m0: cosine bump amplitude must lie in [0, 1)")
    return [1.0 + amp * np.prod(np.cos(2.0 * np.pi * np.array(grid.coords())), axis=0)
            for grid in grids]


def _build(cfg: dict):
    params = ModelParams(
        nu=cfg["nu"],
        beta=cfg["beta"],
        alpha=cfg["alpha"],
        mu=cfg["mu"],
        horizon=cfg["horizon"],
        epsilon=cfg["epsilon"],
    )
    coupling = CouplingSpec(
        cf=cfg["cF"],
        qf=cfg["qF"],
        offset_f=cfg["offsetF"],
        cg=cfg["cG"],
        qg=cfg["qG"],
        offset_g=cfg["offsetG"],
    )
    grid = GridSpec(dim=cfg["dim"], n=cfg["n"], nt=cfg["nt"], horizon=cfg["horizon"])
    return params, coupling, grid


def _continuation_schedule(cfg: dict, params: ModelParams) -> ContinuationSchedule | None:
    """The (eps, mu) ladder of a ``continuation = true`` run, checked on
    ``params``; None for one solve, which takes no ladder key and mu > 0."""
    if not cfg["continuation"]:
        for key in ("epsilons", "mus"):
            if cfg[key] is not None:
                raise ConfigError(f"{key} is set but continuation is not true")
        if params.is_singular:
            raise ConfigError(COLD_START_AT_MU0)
        return None
    widths = {} if cfg["epsilon"] <= 0 else {"epsilons": (cfg["epsilon"],)}
    if cfg["epsilons"] is not None:
        widths["epsilons"] = cfg["epsilons"]
    schedule = ContinuationSchedule(mus=cfg["mus"], warm_start=cfg["warm_start"], **widths)
    schedule.rungs(params)  # the ladder's own ConfigError, before any solve
    return schedule


def _check_output_dir(path: str) -> None:
    """Raise the ``OSError`` that ``os.makedirs(path, exist_ok=True)`` would,
    when ``path`` or its nearest existing ancestor is not a directory,
    creating nothing."""
    target = existing = os.path.abspath(path)
    while not os.path.exists(existing):
        existing = os.path.dirname(existing)
    if not os.path.isdir(existing):
        code = errno.EEXIST if existing == target else errno.ENOTDIR
        raise OSError(code, os.strerror(code), path)  # FileExistsError or NotADirectoryError


def _load_run(config_path, levels: int):
    """Parse a config and build everything its solves need, before any solve.

    Returns ``(cfg, params, coupling, schedule, runs)``: one
    ``(grid, m0, FixedPointOptions)`` per refinement level, level j on the
    config's grid refined ``2**j`` times, and the continuation ladder or None.
    A ``ValueError`` raised while the run is built rejects the config, and an
    ``output_dir`` that cannot be made raises its ``OSError``.
    """
    cfg = parse_config(config_path)
    try:
        params, coupling, base = _build(cfg)
        grids = [replace(base, n=base.n * 2**j, nt=base.nt * 2**j) for j in range(levels)]
        m0s = density_from_spec(cfg["m0"], grids)
        fp_opts = FixedPointOptions(
            damping=cfg["damping"], fp_tol=cfg["fp_tol"], max_outer_iter=cfg["max_outer_iter"]
        )
        runs = [(g, m0, fp_opts) for g, m0 in zip(grids, m0s)]
        schedule = _continuation_schedule(cfg, params)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    _check_output_dir(cfg["output_dir"])
    return cfg, params, coupling, schedule, runs


# The one map from package and I/O exceptions to exit codes, shared by every
# command: (exception type, message prefix, exit code), subclasses before
# their bases.
_EXIT_CODES = (
    (ConfigParseError, "config error", EXIT_CONFIG),
    (ConfigError, "rejected", EXIT_STRUCTURAL),
    (GridMismatch, "grid mismatch", EXIT_MISMATCH),
    (CongestionMFGError, "solver error", EXIT_SOLVER),
    (OSError, "I/O error", EXIT_CONFIG),
)


def _exit_codes(command):
    """Map the exceptions of ``_EXIT_CODES`` a ``cmd_*`` function raises to exit codes."""

    @functools.wraps(command)
    def run(*args) -> int:
        try:
            return command(*args)
        except (CongestionMFGError, OSError) as exc:
            for kind, prefix, code in _EXIT_CODES:
                if isinstance(exc, kind):
                    print(f"{prefix}: {exc}", file=sys.stderr)
                    return code

    return run


def _print_report(report) -> None:
    print(f"valid_ranges: {str(report.valid_ranges).lower()}")
    for violation in report.violations:
        print(f"violation: {violation}")
    print(f"uniqueness_threshold: {report.uniqueness_threshold:.12g}")
    print(f"uniqueness_ok: {str(report.uniqueness_ok).lower()}")


@_exit_codes
def cmd_check(config_path) -> int:
    _, params, *_ = _load_run(config_path, 1)
    report = check_structure(params)
    _print_report(report)
    return EXIT_OK if report.valid_ranges else EXIT_STRUCTURAL


def _run(params, coupling, schedule, grid, m0, fp_opts):
    """Solve one level of a loaded run: the ladder when ``schedule`` is set,
    else one solve, returned as a one-rung ``ContinuationResult``.  Also
    returns the exit code: 4 if a rung raised, 3 if any is unconverged, else 0."""
    if schedule is None:
        sol = solve_mfg(grid, params, coupling, fp_opts, m0=m0)
        result = ContinuationResult([sol], [], [(params.epsilon, params.mu)])
    else:
        result = solve_with_continuation(grid, params, coupling, fp_opts, schedule, m0=m0)
    if result.failed_rung is not None:
        print(f"rung {result.failed_rung} failed: {result.error}", file=sys.stderr)
        return result, EXIT_SOLVER
    return result, EXIT_BUDGET if any(not s.converged for s in result.solutions) else EXIT_OK


@_exit_codes
def cmd_solve(config_path) -> int:
    cfg, params, coupling, schedule, [run] = _load_run(config_path, 1)
    out_dir = cfg["output_dir"]
    result, code = _run(params, coupling, schedule, *run)
    if not result.solutions:
        return code
    if schedule is not None:
        for j, sol in enumerate(result.solutions):
            save_solution(sol, os.path.join(out_dir, "rungs", f"rung_{j:02d}"))
        with open(os.path.join(out_dir, "cauchy_table.json"), "w") as fh:
            json.dump(result.cauchy_table, fh, indent=2)
    final = result.solutions[-1]
    save_solution(final, out_dir)
    if code == EXIT_SOLVER:
        return code
    print(
        f"solve finished: outer_iters={final.meta['outer_iters']} "
        f"converged={str(final.converged).lower()} "
        f"final_increment={final.meta['increments'][-1] if final.meta['increments'] else 0.0:.3e} "
        f"bundle={out_dir}"
    )
    return code


@_exit_codes
def cmd_diagnose(bundle_a, bundle_b=None) -> int:
    try:
        sol_a = load_solution(bundle_a)
        sol_b = load_solution(bundle_b) if bundle_b else None
    except (OSError, ValueError) as exc:
        print(f"cannot load bundle: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    out = apriori_report(sol_a).to_flat_dict()
    if sol_b is not None:
        out["crossed_gap"] = crossed_energy_gap(sol_a, sol_b)
        out["crossed_gap_reverse"] = crossed_energy_gap(sol_b, sol_a)
        ug = uniqueness_gap(sol_a, sol_b)
        out["uniqueness_gap"] = ug.gap
        out["e_min_sampled"] = ug.e_min_sampled
        out["l1_m_gap"] = l1_space_time(sol_a.grid, sol_a.m - sol_b.m)
        out["l1_u_gap"] = l1_space_time(sol_a.grid, sol_a.u - sol_b.u)

    width = max(len(k) for k in out)
    for key, value in out.items():
        print(f"{key:<{width}}  {value: .12e}")
    report_path = os.path.join(bundle_a, "report.json")
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=2)
    print(f"report written to {report_path}")
    return EXIT_OK


def _observed_orders(values) -> str:
    """log2 of each ratio of consecutive values, ``nan`` where one is not
    positive; ``none`` for fewer than two values."""
    orders = [f"{math.log2(a / b):.3f}" if a > 0 and b > 0 else "nan"
              for a, b in zip(values, values[1:])]
    return ", ".join(orders) or "none"


@_exit_codes
def cmd_study(config_path, levels: int) -> int:
    if levels < 2:
        print("study needs at least 2 refinement levels", file=sys.stderr)
        return EXIT_CONFIG
    cfg, params, coupling, schedule, runs = _load_run(config_path, levels)
    results, codes = zip(*(_run(params, coupling, schedule, *run) for run in runs))
    if not all(result.solutions for result in results):
        return EXIT_SOLVER
    sols = [result.solutions[-1] for result in results]
    finest = sols[-1]
    rows = []
    for level, sol in enumerate(sols):
        restricted = restrict_traj(finest.grid, finest.m, 2 ** (levels - 1 - level))
        gap = 0.0 if sol is finest else l1_space_time(sol.grid, sol.m - restricted)
        rows.append((sol.grid.n, sol.grid.nt, energy_identity_residual(sol), gap))

    os.makedirs(cfg["output_dir"], exist_ok=True)
    table_path = os.path.join(cfg["output_dir"], "study.csv")
    with open(table_path, "w", encoding="utf-8") as fh:
        fh.write("n,nt,energy_residual,l1_gap\n")
        for n, nt, res, gap in rows:
            fh.write(f"{n},{nt},{res:.17g},{gap:.17g}\n")
    print("n,nt,energy_residual,l1_gap")
    for n, nt, res, gap in rows:
        print(f"{n},{nt},{res:.6e},{gap:.6e}")
    res_col = [r[2] for r in rows]
    gap_col = [r[3] for r in rows[:-1]]
    print(f"energy_residual decreasing: {str(res_col == sorted(res_col, reverse=True)).lower()}")
    print(f"l1_gap decreasing: {str(gap_col == sorted(gap_col, reverse=True)).lower()}")
    print(f"energy_residual observed orders: {_observed_orders(res_col)}")
    print(f"l1_gap observed orders: {_observed_orders(gap_col)}")
    print(f"table written to {table_path}")
    return max(codes)  # a rung that raised (4) outranks a budget overrun (3)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="congestion-mfg",
        description="Solver and verification harness for congestion mean-field games",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="validate structural assumptions")
    p_check.add_argument("config")

    p_solve = sub.add_parser("solve", help="run a solve and write the bundle")
    p_solve.add_argument("config")

    p_diag = sub.add_parser("diagnose", help="evaluate diagnostics on bundles")
    p_diag.add_argument("bundle_a")
    p_diag.add_argument("bundle_b", nargs="?", default=None)

    p_study = sub.add_parser("study", help="grid/time refinement study")
    p_study.add_argument("config")
    p_study.add_argument("--levels", type=int, default=3)

    args = parser.parse_args(argv)
    if args.command == "check":
        return cmd_check(args.config)
    if args.command == "solve":
        return cmd_solve(args.config)
    if args.command == "diagnose":
        return cmd_diagnose(args.bundle_a, args.bundle_b)
    return cmd_study(args.config, args.levels)


if __name__ == "__main__":
    sys.exit(main())
