import ast
import importlib
import pkgutil
from pathlib import Path

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


def _names_used(tree: ast.Module) -> set[str]:
    """Every name the module reads: in code, in annotations (quoted ones
    parsed too) and in ``__all__``."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # A quoted annotation or an ``__all__`` entry; other strings
            # rarely parse to a bare name, and a false read only hides an
            # unused import.
            try:
                expression = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            used.update(n.id for n in ast.walk(expression) if isinstance(n, ast.Name))
    return used


@pytest.mark.parametrize("module", MODULES, ids=lambda module: module.__name__)
def test_no_unused_module_imports(module):
    tree = ast.parse(Path(module.__file__).read_text())
    imported = {}
    for statement in tree.body:
        if isinstance(statement, ast.ImportFrom) and statement.module == "__future__":
            continue
        if isinstance(statement, (ast.Import, ast.ImportFrom)):
            for alias in statement.names:
                imported[alias.asname or alias.name.split(".")[0]] = statement.lineno
    unused = sorted(set(imported) - _names_used(tree), key=imported.get)
    assert unused == [], f"{module.__name__} imports names it never uses: {unused}"
