"""Comparison-operator mutation testing for one module of a package.

Each ``<``/``<=``, ``>``/``>=`` and ``==``/``!=`` token in the module gives
one mutant: that single operator swapped for its partner.  Every mutant is
written into a fresh temporary copy of the module's package, never into the
working tree, and the given test files are run against that copy with
``pytest -x -q``, one process at a time.  The tests first run once on an
unmutated copy and must pass there.  A mutant is killed when the tests fail
(pytest exit 1) or cannot be collected (exit 2), or run past ``TIMEOUT``
seconds; a surviving mutant is printed with its line.  Any other exit stops
the run, since it means pytest itself could not do its work.

    python tools/mutants.py src/frugal/sweep.py tests/test_sweep.py
    python tools/mutants.py src/frugal/learner.py tests/test_learner.py
    python tools/mutants.py src/frugal/bnb.py tests/test_bnb.py

A pass runs the tests once per mutant and can take many minutes, so this is a tool to
run by hand, not a CI step.  Only the standard library is used.
"""
from __future__ import annotations

import argparse
import io
import os
import shutil
import subprocess
import sys
import tempfile
import tokenize
from pathlib import Path
from typing import NamedTuple

TIMEOUT = 120
SWAPS = {"<": "<=", "<=": "<", ">": ">=", ">=": ">", "==": "!=", "!=": "=="}


class Mutant(NamedTuple):
    line: int
    original: str
    replacement: str
    source: str


def mutants(source: str) -> list[Mutant]:
    """One mutant per comparison operator token of ``source``, in source order."""
    lines = source.splitlines(keepends=True)
    out = []
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type != tokenize.OP or token.string not in SWAPS:
            continue
        (row, col), replacement = token.start, SWAPS[token.string]
        text = lines[row - 1]
        mutated = text[:col] + replacement + text[col + len(token.string):]
        out.append(
            Mutant(row, token.string, replacement, "".join(lines[: row - 1] + [mutated] + lines[row:]))
        )
    return out


def run_tests(source: str, module: Path, tests: list[Path]) -> int | None:
    """Pytest's exit code with ``source`` in place of ``module``, None on timeout."""
    package = module.parent
    with tempfile.TemporaryDirectory() as root:
        copy = Path(root) / package.name
        shutil.copytree(package, copy, ignore=shutil.ignore_patterns("__pycache__"))
        (copy / module.name).write_text(source)
        env = {**os.environ, "PYTHONPATH": root, "PYTHONDONTWRITEBYTECODE": "1"}
        command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *map(str, tests)]
        try:
            return subprocess.run(command, cwd=root, env=env, capture_output=True, timeout=TIMEOUT).returncode
        except subprocess.TimeoutExpired:
            return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("module", type=Path, help="module file inside its package directory")
    parser.add_argument("tests", type=Path, nargs="+", help="test files to run per mutant")
    args = parser.parse_args(argv)
    module = args.module.resolve()
    tests = [test.resolve() for test in args.tests]
    source = module.read_text()
    baseline = run_tests(source, module, tests)
    if baseline != 0:
        print(f"the tests do not pass on unmutated {module.name} (exit {baseline}); no mutants run")
        return 1
    found = mutants(source)
    survivors = []
    for mutant in found:
        code = run_tests(mutant.source, module, tests)
        if code == 0:
            survivors.append(mutant)
            print(f"survived {module.name}:{mutant.line}: {mutant.original} -> {mutant.replacement}", flush=True)
        elif code not in (None, 1, 2):
            print(f"pytest exit {code} on {module.name}:{mutant.line}; stopped")
            return 1
    print(f"{len(survivors)}/{len(found)} mutants of {module.name} survived")
    return 0


if __name__ == "__main__":
    sys.exit(main())
