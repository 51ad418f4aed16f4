"""The mutant generator of ``tools/mutants.py``, on small source strings."""
import importlib.util
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "mutants", Path(__file__).resolve().parents[1] / "tools" / "mutants.py"
)
mutants_tool = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(mutants_tool)

SOURCE = '''def f(a, b) -> bool:
    """a < b in a docstring is no operator."""
    if a < b <= 3:  # so is a > b in a comment
        return a == b or a >= b
    return a != b or a > b or a << b == "<"
'''


def test_one_mutant_per_comparison_operator():
    found = mutants_tool.mutants(SOURCE)
    assert [(m.line, m.original, m.replacement) for m in found] == [
        (3, "<", "<="),
        (3, "<=", "<"),
        (4, "==", "!="),
        (4, ">=", ">"),
        (5, "!=", "=="),
        (5, ">", ">="),
        (5, "==", "!="),
    ]


def test_each_mutant_changes_only_its_operator():
    lines = SOURCE.splitlines()
    for mutant in mutants_tool.mutants(SOURCE):
        mutated = mutant.source.splitlines()
        changed = [i for i, (a, b) in enumerate(zip(lines, mutated)) if a != b]
        assert changed == [mutant.line - 1]
        before, after = lines[mutant.line - 1], mutated[mutant.line - 1]
        assert len(after) - len(before) == len(mutant.replacement) - len(mutant.original)
        assert compile(mutant.source, "<mutant>", "exec")


def test_second_operator_on_a_line_is_mutated_in_place():
    first, second = mutants_tool.mutants(SOURCE)[:2]
    assert "if a <= b <= 3:" in first.source
    assert "if a < b < 3:" in second.source


def test_source_without_comparisons_has_no_mutants():
    assert mutants_tool.mutants("x = 1 << 2 >> 1\ndef g() -> int:\n    return x\n") == []
