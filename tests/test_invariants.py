"""Load-bearing invariants in the package must survive ``python -O``."""

import ast
from pathlib import Path

import subclose

PACKAGE = Path(subclose.__file__).parent


def package_nodes():
    """(file name, node) for every syntax node of every package module."""
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            yield path.name, node


def raised_name(node: ast.Raise) -> str | None:
    """The name in ``raise Name`` or ``raise Name(...)``."""
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return getattr(exc, "id", None)


def test_package_has_no_bare_asserts():
    # python -O strips assert statements; raise an exception instead
    found = [
        f"{name}:{node.lineno}"
        for name, node in package_nodes()
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"bare assert statements: {', '.join(found)}"


def test_package_raises_no_assertion_error():
    # the CLI maps ArithmeticError to exit 1; an AssertionError would
    # escape it as a traceback
    found = [
        f"{name}:{node.lineno}"
        for name, node in package_nodes()
        if isinstance(node, ast.Raise) and raised_name(node) == "AssertionError"
    ]
    assert not found, f"raise AssertionError: {', '.join(found)}"
