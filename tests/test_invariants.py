"""Load-bearing invariants in the package must survive ``python -O``."""

import ast
from pathlib import Path

import subclose

PACKAGE = Path(subclose.__file__).parent


def test_package_has_no_bare_asserts():
    # python -O strips assert statements; raise an exception instead
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert not found, f"bare assert statements: {', '.join(found)}"
