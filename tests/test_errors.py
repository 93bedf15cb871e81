"""The exception hierarchy is the exit-code rule: bad input is a plain
ValueError (exit 2) and a runtime failure a ManalyzerError (exit 3). These
tests keep it from growing back: no class is both, and every class but the
base and StageFailure is told apart by some `except` clause."""

import ast
import inspect
from pathlib import Path

import manalyzer
from manalyzer import errors

ROOT = Path(__file__).resolve().parent.parent
SOURCES = [
    *sorted(Path(manalyzer.__file__).resolve().parent.glob("*.py")),
    *sorted((ROOT / "perfbench").glob("*.py")),
]


def caught_names() -> set[str]:
    """The names that the `except` clauses of SOURCES catch."""
    names = set()
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
                for expr in caught:
                    if isinstance(expr, ast.Name):
                        names.add(expr.id)
                    elif isinstance(expr, ast.Attribute):
                        names.add(expr.attr)
    return names


def error_classes() -> list[type]:
    return [
        cls for _, cls in inspect.getmembers(errors, inspect.isclass)
        if cls.__module__ == errors.__name__
    ]


def test_every_error_class_is_caught_by_name_somewhere():
    named = {cls.__name__ for cls in error_classes()} - {"ManalyzerError", "StageFailure"}
    assert sorted(named - caught_names()) == []


def test_no_error_class_is_a_value_error():
    assert all(issubclass(cls, errors.ManalyzerError) for cls in error_classes())
    assert [cls.__name__ for cls in error_classes() if issubclass(cls, ValueError)] == []
