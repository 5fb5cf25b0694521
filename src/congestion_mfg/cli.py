"""Batch front-end: check / solve / diagnose / study.

Run configurations are flat UTF-8 ``key = value`` files with ``#`` comments
and no nesting; unknown keys are rejected with the offending line number.
Exit codes form a stable contract:

    0  success
    1  structural rejection (parameter ranges)
    2  config or I/O error
    3  iteration budget exhausted (bundle still written, flagged)
    4  solver failure
    5  grid mismatch between bundles
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

import numpy as np

from .bundles import load_solution, save_solution
from .coupler import (
    ContinuationSchedule,
    FixedPointOptions,
    solve_mfg,
    solve_with_continuation,
)
from .diagnostics import apriori_report, crossed_energy_gap, uniqueness_gap
from .errors import ConfigError, ConfigParseError, CongestionMFGError, GridMismatch
from .fpk import FPKOptions
from .grid import GridSpec, l1_space_time, restrict_traj
from .hjb import HJBOptions
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
    "m_floor": (float, 1e-10),
    # coupling
    "coupling_family": (str, "power"),
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
    "init_m": (str, "uniform"),
    # inner solvers
    "newton_tol": (float, 1e-10),
    "newton_max_iter": (int, 50),
    "epsilon": (float, 0.0),
    "linear_tol": (float, 1e-12),
    "enforce_nonneg_check": (_parse_bool, True),
    # continuation
    "continuation": (_parse_bool, False),
    "epsilons": (_parse_float_list, None),
    "mus": (_parse_float_list, None),
    "warm_start": (_parse_bool, True),
    # data / misc
    "m0": (str, "uniform"),
    "seed": (int, 42),
    "output_dir": (str, "out"),
}


def parse_config(path) -> dict:
    """Flat ``key = value`` file; unknown keys and bad values are errors."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigParseError(f"cannot read config: {exc}") from exc
    cfg = {key: default for key, (_, default) in _CONFIG.items()}
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
        caster, _ = _CONFIG[key]
        try:
            cfg[key] = caster(value)
        except (ValueError, TypeError) as exc:
            raise ConfigParseError(f"bad value for {key!r}: {exc}", lineno) from exc
    return cfg


_DENSITY_SPEC = re.compile(r"^(uniform|cosine_bump\(([^)]*)\)|file\(([^)]*)\))$")


def density_from_spec(spec: str, grid: GridSpec) -> np.ndarray:
    """uniform | cosine_bump(amplitude) | file(path to a single-frame CSV)."""
    match = _DENSITY_SPEC.match(spec.strip())
    if not match:
        raise ConfigError(f"bad density spec {spec!r}")
    if spec.strip() == "uniform":
        return np.ones(grid.shape)
    if match.group(2) is not None:
        amp = float(match.group(2))
        if not 0.0 <= amp < 1.0:
            raise ConfigError("cosine bump amplitude must lie in [0, 1)")
        coords = grid.coords()
        bump = np.ones(grid.shape)
        wave = np.ones(grid.shape)
        for x in coords:
            wave = wave * np.cos(2.0 * np.pi * x)
        bump += amp * wave
        return bump
    from .grid import read_frame_csv

    dim, n, frame = read_frame_csv(match.group(3))
    if (dim, n) != (grid.dim, grid.n):
        raise ConfigError("density file grid does not match the run grid")
    return frame


def _build(cfg: dict):
    params = ModelParams(
        nu=cfg["nu"],
        beta=cfg["beta"],
        alpha=cfg["alpha"],
        mu=cfg["mu"],
        horizon=cfg["horizon"],
        m_floor=cfg["m_floor"],
    )
    coupling = CouplingSpec(
        family=cfg["coupling_family"],
        cf=cfg["cF"],
        qf=cfg["qF"],
        offset_f=cfg["offsetF"],
        cg=cfg["cG"],
        qg=cfg["qG"],
        offset_g=cfg["offsetG"],
    )
    grid = GridSpec(dim=cfg["dim"], n=cfg["n"], nt=cfg["nt"], horizon=cfg["horizon"])
    return params, coupling, grid


def _fixed_point_options(cfg: dict, grid: GridSpec) -> FixedPointOptions:
    init = cfg["init_m"]
    init_field = "uniform" if init == "uniform" else density_from_spec(init, grid)
    return FixedPointOptions(
        damping=cfg["damping"],
        fp_tol=cfg["fp_tol"],
        max_outer_iter=cfg["max_outer_iter"],
        init_m=init_field,
    )


def _continuation_schedule(cfg: dict) -> ContinuationSchedule:
    """The (eps, mu) ladder of a ``continuation = true`` run."""
    sched_kwargs = {"warm_start": cfg["warm_start"]}
    if cfg["epsilons"] is not None:
        sched_kwargs["epsilons"] = tuple(cfg["epsilons"])
    elif cfg["epsilon"] > 0:
        sched_kwargs["epsilons"] = (cfg["epsilon"],)
    if cfg["mus"] is not None:
        sched_kwargs["mus"] = tuple(cfg["mus"])
    return ContinuationSchedule(**sched_kwargs)


def _solver_options(cfg: dict) -> tuple[HJBOptions, FPKOptions]:
    """HJB and FPK options of a run; ``solve`` and ``study`` share them."""
    hjb_opts = HJBOptions(
        newton_tol=cfg["newton_tol"],
        newton_max_iter=cfg["newton_max_iter"],
        epsilon=cfg["epsilon"],
        linear_tol=cfg["linear_tol"],
    )
    fpk_opts = FPKOptions(
        linear_tol=cfg["linear_tol"],
        enforce_nonneg_check=cfg["enforce_nonneg_check"],
    )
    return hjb_opts, fpk_opts


def _print_report(report) -> None:
    print(f"valid_ranges: {str(report.valid_ranges).lower()}")
    for violation in report.violations:
        print(f"violation: {violation}")
    print(f"uniqueness_threshold: {report.uniqueness_threshold:.12g}")
    print(f"uniqueness_ok: {str(report.uniqueness_ok).lower()}")
    print(f"hp2_sampled_ok: {str(report.hp2_sampled_ok).lower()}")


def cmd_check(config_path) -> int:
    try:
        cfg = parse_config(config_path)
        params, _, _ = _build(cfg)
    except ConfigParseError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ValueError as exc:
        print(f"rejected: {exc}", file=sys.stderr)
        return EXIT_STRUCTURAL
    report = check_structure(params)
    _print_report(report)
    return EXIT_OK if report.valid_ranges else EXIT_STRUCTURAL


def cmd_solve(config_path) -> int:
    try:
        cfg = parse_config(config_path)
        params, coupling, grid = _build(cfg)
        m0 = density_from_spec(cfg["m0"], grid)
        fp_opts = _fixed_point_options(cfg, grid)
        hjb_opts, fpk_opts = _solver_options(cfg)
        schedule = _continuation_schedule(cfg) if cfg["continuation"] else None
    except ConfigParseError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ValueError, ConfigError) as exc:
        print(f"rejected: {exc}", file=sys.stderr)
        return EXIT_STRUCTURAL
    report = check_structure(params)
    if not report.valid_ranges:
        _print_report(report)
        return EXIT_STRUCTURAL

    out_dir = cfg["output_dir"]

    try:
        if schedule is not None:
            result = solve_with_continuation(
                grid, params, coupling, fp_opts, schedule, m0=m0,
                hjb_opts=hjb_opts, fpk_opts=fpk_opts,
            )
            if result.failed_rung is not None:
                print(f"rung {result.failed_rung} failed: {result.error}", file=sys.stderr)
            for j, sol in enumerate(result.solutions):
                sol.meta["seed"] = cfg["seed"]
                save_solution(sol, os.path.join(out_dir, "rungs", f"rung_{j:02d}"))
            if result.solutions:
                save_solution(result.solutions[-1], out_dir)
                with open(os.path.join(out_dir, "cauchy_table.json"), "w") as fh:
                    json.dump(result.cauchy_table, fh, indent=2)
            if result.failed_rung is not None:
                return EXIT_SOLVER
            budget_hit = any(not s.converged for s in result.solutions)
            final = result.solutions[-1]
        else:
            final = solve_mfg(
                grid, params, coupling, fp_opts,
                eps=cfg["epsilon"], m0=m0,
                hjb_opts=hjb_opts, fpk_opts=fpk_opts,
            )
            final.meta["seed"] = cfg["seed"]
            save_solution(final, out_dir)
            budget_hit = not final.converged
    except ConfigError as exc:
        print(f"rejected: {exc}", file=sys.stderr)
        return EXIT_STRUCTURAL
    except CongestionMFGError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER

    print(
        f"solve finished: outer_iters={final.meta['outer_iters']} "
        f"converged={str(final.converged).lower()} "
        f"final_increment={final.meta['increments'][-1] if final.meta['increments'] else 0.0:.3e} "
        f"bundle={out_dir}"
    )
    return EXIT_BUDGET if budget_hit else EXIT_OK


def cmd_diagnose(bundle_a, bundle_b=None) -> int:
    try:
        sol_a = load_solution(bundle_a)
        sol_b = load_solution(bundle_b) if bundle_b else None
    except (OSError, ValueError, KeyError, TypeError, json.JSONDecodeError) as exc:
        print(f"cannot load bundle: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        report = apriori_report(sol_a)
        out = report.to_flat_dict()
        if sol_b is not None:
            out["crossed_gap"] = crossed_energy_gap(sol_a, sol_b)
            out["crossed_gap_reverse"] = crossed_energy_gap(sol_b, sol_a)
            ug = uniqueness_gap(sol_a, sol_b)
            out["uniqueness_gap"] = ug.gap
            out["e_min_sampled"] = ug.e_min_sampled
            out["l1_m_gap"] = l1_space_time(sol_a.grid, sol_a.m - sol_b.m)
            out["l1_u_gap"] = l1_space_time(sol_a.grid, sol_a.u - sol_b.u)
    except GridMismatch as exc:
        print(f"grid mismatch: {exc}", file=sys.stderr)
        return EXIT_MISMATCH

    width = max(len(k) for k in out)
    for key, value in out.items():
        print(f"{key:<{width}}  {value: .12e}")
    report_path = os.path.join(bundle_a, "report.json")
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=2)
    print(f"report written to {report_path}")
    return EXIT_OK


def cmd_study(config_path, levels: int) -> int:
    if levels < 2:
        print("study needs at least 2 refinement levels", file=sys.stderr)
        return EXIT_CONFIG
    try:
        cfg = parse_config(config_path)
        params, coupling, base_grid = _build(cfg)
        hjb_opts, fpk_opts = _solver_options(cfg)
        grids, runs = [], []
        for level in range(levels):
            factor = 2**level
            grid = GridSpec(
                dim=base_grid.dim,
                n=base_grid.n * factor,
                nt=base_grid.nt * factor,
                horizon=base_grid.horizon,
            )
            grids.append(grid)
            runs.append(
                (density_from_spec(cfg["m0"], grid), _fixed_point_options(cfg, grid))
            )
    except ConfigParseError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ValueError, ConfigError) as exc:
        print(f"rejected: {exc}", file=sys.stderr)
        return EXIT_STRUCTURAL
    report = check_structure(params)
    if not report.valid_ranges:
        _print_report(report)
        return EXIT_STRUCTURAL

    from .diagnostics import energy_identity_residual

    sols = []
    try:
        for grid, (m0, fp_opts) in zip(grids, runs):
            sols.append(
                solve_mfg(
                    grid, params, coupling, fp_opts, eps=cfg["epsilon"], m0=m0,
                    hjb_opts=hjb_opts, fpk_opts=fpk_opts,
                )
            )
    except CongestionMFGError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER

    finest_grid, finest = grids[-1], sols[-1]
    rows = []
    for level, (grid, sol) in enumerate(zip(grids, sols)):
        res = energy_identity_residual(sol)
        factor = 2 ** (levels - 1 - level)
        if factor == 1:
            gap = 0.0
        else:
            restricted = restrict_traj(finest_grid, finest.m, factor)
            gap = l1_space_time(grid, sol.m - restricted)
        rows.append((grid.n, grid.nt, res, gap))

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
    print(f"table written to {table_path}")
    return EXIT_OK


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
