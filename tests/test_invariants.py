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


def unused_imports(path: Path) -> list[str]:
    """file:line of each module-level imported name the module never uses."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    found = []
    for stmt in tree.body:
        if isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__":
            continue
        if isinstance(stmt, (ast.Import, ast.ImportFrom)):
            for alias in stmt.names:
                bound = alias.asname or alias.name.partition(".")[0]
                if bound not in used:
                    found.append(f"{path.name}:{stmt.lineno} {bound}")
    return found


def test_no_unused_imports():
    # an import nothing uses keeps a deleted or renamed name looking alive
    paths = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    paths += sorted(Path(__file__).parent.glob("*.py"))
    found = [entry for path in paths for entry in unused_imports(path)]
    assert not found, f"unused imports: {', '.join(found)}"
