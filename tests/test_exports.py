"""Every name in a package module's ``__all__`` resolves; the package resolves
its public names on first use."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import congestion_mfg

MODULES = ["congestion_mfg"] + [
    f"congestion_mfg.{info.name}" for info in pkgutil.iter_modules(congestion_mfg.__path__)
]

PUBLIC = [
    "ContinuationSchedule", "CouplingSpec", "DiagnosticsReport", "FixedPointOptions",
    "GridSpec", "HJBOptions", "MFGSolution", "ModelParams", "StructureReport",
    "apriori_report", "check_structure", "crossed_energy_gap", "energy_identity_residual",
    "eval_H", "eval_Hp", "fpk_step", "hjb_step", "load_solution", "save_solution",
    "solve_fpk_forward", "solve_hjb_backward", "solve_mfg", "solve_with_continuation",
    "uniqueness_gap", "uniqueness_integrand",
]


def fresh_python(code: str) -> None:
    """Run ``code`` in a new interpreter that imports the package under test."""
    src = str(Path(congestion_mfg.__file__).resolve().parents[1])
    paths = [src, os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("name", MODULES)
def test_exported_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    assert [entry for entry in exported if not hasattr(module, entry)] == []


def test_import_runs_no_submodule_and_a_submodule_resolves():
    fresh_python(
        "import sys\n"
        "import congestion_mfg\n"
        "loaded = [m for m in sys.modules if m.startswith('congestion_mfg.')]\n"
        "assert loaded == [], loaded\n"
        "assert congestion_mfg.grid is sys.modules['congestion_mfg.grid']\n"
    )


def test_solve_names_skip_the_bundle_and_diagnostics_layers():
    fresh_python(
        "import sys\n"
        "from congestion_mfg import solve_mfg, GridSpec, ModelParams, CouplingSpec\n"
        "skipped = ['congestion_mfg.bundles', 'congestion_mfg.diagnostics',\n"
        "           'congestion_mfg.cli', 'json']\n"
        "loaded = [m for m in skipped if m in sys.modules]\n"
        "assert loaded == [], loaded\n"
    )


def test_public_names_are_their_home_modules_objects():
    assert congestion_mfg.__all__ == PUBLIC
    for name in PUBLIC:
        obj = getattr(congestion_mfg, name)
        assert obj.__module__.startswith("congestion_mfg.")
        assert obj is getattr(sys.modules[obj.__module__], name)


def test_star_import_binds_every_public_name_and_dir_lists_them():
    namespace = {}
    exec("from congestion_mfg import *", namespace)
    assert {name: namespace[name] for name in PUBLIC} == {
        name: getattr(congestion_mfg, name) for name in PUBLIC
    }
    assert set(PUBLIC) <= set(dir(congestion_mfg))


def test_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="has no attribute 'solve_mfgs'"):
        congestion_mfg.solve_mfgs
    assert not hasattr(congestion_mfg, "solve_mfgs")
    with pytest.raises(ImportError, match="solve_mfgs"):
        exec("from congestion_mfg import solve_mfgs", {})
