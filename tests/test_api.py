import importlib
import pkgutil

import pytest

import frugal

MODULES = [frugal] + [
    importlib.import_module(f"frugal.{info.name}") for info in pkgutil.iter_modules(frugal.__path__)
]


@pytest.mark.parametrize("module", MODULES, ids=lambda module: module.__name__)
def test_every_export_resolves(module):
    assert module.__all__, f"{module.__name__} declares no __all__"
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == [], f"{module.__name__}.__all__ names missing attributes"
