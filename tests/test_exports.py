"""Every name in a package module's ``__all__`` resolves."""

import importlib
import pkgutil

import pytest

import congestion_mfg

MODULES = ["congestion_mfg"] + [
    f"congestion_mfg.{info.name}" for info in pkgutil.iter_modules(congestion_mfg.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_exported_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    assert [entry for entry in exported if not hasattr(module, entry)] == []
