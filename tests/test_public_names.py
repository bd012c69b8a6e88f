"""Every exported name resolves, so a stale export fails at once."""

import importlib
import pkgutil

import pytest

import mptree

MODULES = ["mptree"] + [f"mptree.{info.name}"
                        for info in pkgutil.iter_modules(mptree.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(name)
    assert [export for export in getattr(module, "__all__", ())
            if not hasattr(module, export)] == []

