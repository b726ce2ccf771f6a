"""Rules for the test files themselves."""

from __future__ import annotations

import ast
from pathlib import Path


def _turns_every_warning_into_an_error(decorator: ast.expr) -> bool:
    return (
        isinstance(decorator, ast.Call)
        and ast.unparse(decorator.func).endswith("mark.filterwarnings")
        and any(isinstance(a, ast.Constant) and a.value == "error" for a in decorator.args)
    )


def test_no_hypothesis_test_turns_every_warning_into_an_error():
    """A @given test marked filterwarnings("error") also turns the warnings
    hypothesis raises while it reports a failure into errors, so pytest
    prints an INTERNALERROR instead of the falsifying example. pyproject.toml
    already makes every RuntimeWarning an error."""
    marked = []
    for path in sorted(Path(__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.FunctionDef):
                continue
            decorators = node.decorator_list
            given = any(
                isinstance(d, ast.Call) and ast.unparse(d.func) == "given" for d in decorators
            )
            if given and any(_turns_every_warning_into_an_error(d) for d in decorators):
                marked.append(f"{path.name}::{node.name}")
    assert marked == []
