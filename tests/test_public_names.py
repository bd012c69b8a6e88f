"""Every exported name resolves, so a stale export fails at once, and the
package exports exactly the public names its modules declare."""

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


# The modules whose public names the package re-exports; ``special`` and
# ``cli`` stay behind their module paths.
EXPORTING = ["errors", "model", "pricing", "convergence", "calibration",
             "optimize", "stats", "market_io"]


def test_package_exports_exactly_its_modules_public_names():
    assert len(mptree.__all__) == len(set(mptree.__all__))
    module_names = [name for module in EXPORTING
                    for name in importlib.import_module(f"mptree.{module}").__all__]
    assert sorted(mptree.__all__) == sorted(module_names + ["__version__"])
