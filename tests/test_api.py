import ast
import importlib
import pkgutil
import re
from pathlib import Path
from typing import Callable, Iterable

import numpy as np
import pytest

import frugal
from frugal.bnb import BnbProblem, Milp, bnb_partition, bnb_run
from frugal.clustering import (
    ClusteringProblem,
    capped_linkage_run,
    clustering_partition,
    clustering_run_with_cap,
    random_metric_instance,
)
from frugal.synthetic import SyntheticFamily, SyntheticProblem, synthetic_partition, synthetic_run_with_cap

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


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _referenced_names(paths: Iterable[Path]) -> set[str]:
    """Every name read, or attribute accessed, in the files ``paths``."""
    referenced = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    return referenced


def _definitions(module, keep: Callable[[str], bool]) -> list[str]:
    """The module-level functions and classes of ``module``, and their
    methods as ``Class.method``, whose own names ``keep`` accepts."""
    defined = []
    for statement in ast.parse(Path(module.__file__).read_text()).body:
        if isinstance(statement, (ast.FunctionDef, ast.ClassDef)) and keep(statement.name):
            defined.append(statement.name)
        if isinstance(statement, ast.ClassDef):
            defined.extend(
                f"{statement.name}.{item.name}"
                for item in statement.body
                if isinstance(item, ast.FunctionDef) and keep(item.name)
            )
    return defined


@pytest.mark.parametrize("module", MODULES, ids=lambda module: module.__name__)
def test_no_unreferenced_private_helpers(module):
    # A definition is not a reference, so a private function, class or
    # method that no code in the package names is dead.
    referenced = _referenced_names(Path(m.__file__) for m in MODULES)
    dead = [
        name for name in _definitions(module, _private)
        if name.rpartition(".")[2] not in referenced
    ]
    assert dead == [], f"{module.__name__} defines private helpers nothing uses: {dead}"


def test_every_public_name_has_a_non_test_caller():
    # The package keeps only what the CLI, the learner, the benchmark or the
    # tools call; a check's own oracle lives in tests/support.py.  An
    # ``__all__`` entry is a string, not a read, so it does not count.
    root = Path(__file__).resolve().parents[1]
    referenced = _referenced_names(
        path for folder in ("src", "perfbench", "tools") for path in (root / folder).rglob("*.py")
    )
    unused = [
        f"{module.__name__}.{name}"
        for module in MODULES
        for name in _definitions(module, lambda name: not name.startswith("_"))
        if name.rpartition(".")[2] not in referenced
    ]
    assert unused == [], f"public names that only tests read: {unused}"


def test_readme_quick_tour_runs(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    tour = re.search(r"## Library quick tour\n\n```python\n(.*?)```", readme, re.DOTALL)
    exec(compile(tour.group(1), "README.md", "exec"), {})
    terminal_round, parameters, chosen = capsys.readouterr().out.splitlines()
    assert terminal_round == "8"
    assert 0.4 in ast.literal_eval(parameters)
    assert chosen == "0.4"


def _entry_points():
    """``(field, call)`` for each public entry point taking a cap or a draw count."""
    milp = Milp.from_lists([2, 1], [[1, 1]], ["1.5"])
    metric = random_metric_instance(np.random.default_rng(0), 4, 2)
    family, synthetic = SyntheticFamily(), SyntheticProblem()
    bnb_problem, clustering_problem = BnbProblem([milp]), ClusteringProblem([metric])
    bnb_sample, clustering_sample = bnb_problem.all_instances(), clustering_problem.all_instances()
    return {
        "bnb_run": ("cap", lambda v: bnb_run(milp, 0.5, v)),
        "bnb_partition": ("tau", lambda v: bnb_partition(bnb_sample, v)),
        "BnbProblem.f_bound": ("tau", lambda v: bnb_problem.f_bound(bnb_sample, v)),
        "clustering_run_with_cap": ("tau", lambda v: clustering_run_with_cap(0.5, metric, v)),
        "clustering_partition": ("tau", lambda v: clustering_partition(clustering_sample, v)),
        "capped_linkage_run": ("tau_merges", lambda v: capped_linkage_run(metric, 0.5, v)),
        "ClusteringProblem.f_bound": ("tau", lambda v: clustering_problem.f_bound(clustering_sample, v)),
        "synthetic_run_with_cap": ("tau", lambda v: synthetic_run_with_cap(family, 0.5, synthetic.pool[3], v)),
        "synthetic_partition": ("tau", lambda v: synthetic_partition(family, synthetic.all_instances(), v)),
        "ConfigProblem.sample_many": ("count", lambda v: synthetic.sample_many(np.random.default_rng(0), v)),
    }


ENTRY_POINTS = list(_entry_points())


@pytest.mark.parametrize("entry", ENTRY_POINTS)
@pytest.mark.parametrize("value", [2.5, 3.0, True], ids=["half", "whole-float", "bool"])
def test_caps_and_draw_counts_must_be_integers(entry, value):
    field, call = _entry_points()[entry]
    with pytest.raises(TypeError, match=f"^{field} must be an integer, got {value!r}$"):
        call(value)
    call(np.int64(2))


@pytest.mark.parametrize(
    "domain, lowest_invalid, message",
    [("bnb", 0, "cap must be a positive integer"), ("clustering", -1, "tau must be nonnegative"),
     ("synthetic", -1, "tau must be nonnegative")],
    ids=["bnb", "clustering", "synthetic"],
)
def test_run_with_cap_rejects_an_invalid_cap_by_name(domain, lowest_invalid, message):
    # The error names the cap the caller passed, not a limit or a budget
    # derived from it further down.
    problem = {
        "bnb": lambda: BnbProblem([Milp.from_lists([2, 1], [[1, 1]], ["1.5"])]),
        "clustering": lambda: ClusteringProblem([random_metric_instance(np.random.default_rng(0), 4, 2)]),
        "synthetic": SyntheticProblem,
    }[domain]()
    with pytest.raises(ValueError, match=f"^{message}$"):
        problem.run_with_cap(0.5, problem.pool[0], lowest_invalid)
