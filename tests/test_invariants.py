"""Source invariants: load-bearing checks survive ``python -O``, and no
import, private definition or command line option is dead."""

import argparse
import ast
import math
import subprocess
import sys
from pathlib import Path

import subclose
import subclose.cli as cli
import subclose.linalg as linalg
from subclose import codes
from subclose.gf import field_from_order

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


def loaded_modules(code: str) -> set[str]:
    """Names in sys.modules after a fresh interpreter runs code."""
    listing = "import sys; print(chr(10).join(sys.modules))"
    proc = subprocess.run(
        [sys.executable, "-c", f"{code}; {listing}"],
        capture_output=True,
        text=True,
        check=True,
    )
    return set(proc.stdout.split())


def test_cli_start_up_skips_dataclasses():
    # every command is its own process: dataclasses pulls in inspect, ast,
    # dis and tokenize, and each decorated class execs its methods again;
    # graphs and selftest load only for their commands, so they are
    # imported here to keep every package module under the guard
    added = loaded_modules(
        "import subclose.cli, subclose.graphs, subclose.selftest"
    ) - loaded_modules("pass")
    assert "subclose.codes" in added
    assert "dataclasses" not in added


def test_cli_start_up_loads_only_the_shared_layers():
    # every command pays for what building the parser loads; graphs (and
    # through it fractions, decimal and numbers) serve only optimal, json
    # only the JSON layouts, selftest only its command
    added = loaded_modules(
        "import subclose.cli; subclose.cli.build_parser()"
    ) - loaded_modules("import argparse")
    assert "subclose.codes" in added
    unwanted = {
        "fractions",
        "decimal",
        "numbers",
        "json",
        "subclose.graphs",
        "subclose.selftest",
    }
    assert not added & unwanted, f"loaded at start-up: {sorted(added & unwanted)}"


def test_det_holds_no_closure_cells():
    # the cofactor paths run once per point and column set of the
    # Grassmannian enumeration; a cell costs every call
    assert linalg.det.__code__.co_cellvars == ()


def test_package_raises_no_assertion_error():
    # the CLI maps ArithmeticError to exit 1; an AssertionError would
    # escape it as a traceback
    found = [
        f"{name}:{node.lineno}"
        for name, node in package_nodes()
        if isinstance(node, ast.Raise) and raised_name(node) == "AssertionError"
    ]
    assert not found, f"raise AssertionError: {', '.join(found)}"


def test_budget_errors_come_from_one_gate():
    # every wall goes through families.check_budget, so each one names the
    # count it refused and the budget it exceeded
    gate = [
        range(node.lineno, node.end_lineno + 1)
        for name, node in package_nodes()
        if name == "families.py"
        and isinstance(node, ast.FunctionDef)
        and node.name == "check_budget"
    ]
    found = [
        f"{name}:{node.lineno}"
        for name, node in package_nodes()
        if isinstance(node, ast.Raise)
        and raised_name(node) == "BudgetError"
        and not (name == "families.py" and any(node.lineno in g for g in gate))
    ]
    assert not found, f"raise BudgetError outside check_budget: {', '.join(found)}"
    assert len(gate) == 1, "families.check_budget is missing"


def test_codes_reads_single_coordinates_only_for_minors():
    # a point is the bytes of its minors, so past the per-minor column
    # picks of the enumeration codes reads whole bytes (a strided slice, a
    # stripped tail), never one coordinate at a time through a getter
    homes = [
        range(node.lineno, node.end_lineno + 1)
        for name, node in package_nodes()
        if name == "codes.py"
        and isinstance(node, ast.FunctionDef)
        and node.name in ("_taker", "enumerate_grassmannian")
    ]
    found = [
        f"{name}:{node.lineno} {node.id}"
        for name, node in package_nodes()
        if name == "codes.py"
        and isinstance(node, ast.Name)
        and node.id in ("itemgetter", "_taker")
        and not any(node.lineno in home for home in homes)
    ]
    assert len(homes) == 2, "codes._taker or codes.enumerate_grassmannian is missing"
    assert not found, f"per-coordinate getters: {', '.join(found)}"


def test_module_caches_are_the_field_tables():
    # a module-level cache keeps its entries for the life of the process
    # and hands every caller the same result; the field tables are the one
    # cache the package keeps
    found = []
    for name, node in package_nodes():
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        for deco in node.decorator_list:
            target = deco.func if isinstance(deco, ast.Call) else deco
            if getattr(target, "id", getattr(target, "attr", None)) in (
                "cache",
                "lru_cache",
            ):
                found.append(f"{name}:{node.name}")
    assert found == ["gf.py:field_from_order"], f"cached: {', '.join(found)}"


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
    paths = sorted(PACKAGE.glob("*.py"))
    paths += sorted(Path(__file__).parent.glob("*.py"))
    found = [entry for path in paths for entry in unused_imports(path)]
    assert not found, f"unused imports: {', '.join(found)}"


def test_every_public_name_has_a_package_caller():
    # code that only tests call is code the package does not need: every
    # public function and class must be named by some package module, and
    # every public method must be named there as an attribute, since a bare
    # name of the same spelling (a local, a parameter) never calls it
    names, attrs = set(), set()
    for _, node in package_nodes():
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            attrs.add(node.attr)
    named = names | attrs
    public = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for stmt in tree.body:
            if not isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                continue
            public.append((f"{path.name}:{stmt.name}", stmt.name, named))
            if isinstance(stmt, ast.ClassDef):
                public += [
                    (f"{path.name}:{stmt.name}.{item.name}", item.name, attrs)
                    for item in stmt.body
                    if isinstance(item, ast.FunctionDef)
                ]
    unused = [
        where
        for where, attr, used in public
        if not attr.startswith("_") and attr not in used
    ]
    assert not unused, f"public names no package module uses: {', '.join(unused)}"


def test_every_private_name_is_used():
    # a private module-level function or class named nowhere in the package
    # but in its own definition is a leftover of deleted code
    uses = [
        (name, node.lineno, node.id if isinstance(node, ast.Name) else node.attr)
        for name, node in package_nodes()
        if isinstance(node, (ast.Name, ast.Attribute))
    ]
    private = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        private += [
            (path.name, stmt)
            for stmt in tree.body
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
            and stmt.name.startswith("_")
            and not stmt.name.endswith("__")
        ]
    unused = [
        f"{name}:{stmt.name}"
        for name, stmt in private
        if not any(
            used == stmt.name
            and (where != name or not stmt.lineno <= line <= stmt.end_lineno)
            for where, line, used in uses
        )
    ]
    assert private, "no private definitions found"
    assert not unused, f"private names nothing else uses: {', '.join(unused)}"


def test_every_cli_option_is_read():
    # an option no handler reads is a knob that changes nothing
    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    read = {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "args"
    }
    (subparsers,) = (
        action
        for action in cli.build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    unread = [
        f"{command}: {(action.option_strings or [action.dest])[0]}"
        for command, parser in subparsers.choices.items()
        for action in parser._actions
        if action.dest != "help" and action.dest not in read
    ]
    assert not unread, f"options no handler reads: {', '.join(unread)}"


def test_enumeration_has_no_per_point_loop():
    # enumerate_grassmannian runs one C-level stream per column set; a for
    # or while statement in it would be Python running per point again
    (func,) = (
        node
        for name, node in package_nodes()
        if name == "codes.py"
        and isinstance(node, ast.FunctionDef)
        and node.name == "enumerate_grassmannian"
    )
    found = [
        f"codes.py:{node.lineno}"
        for node in ast.walk(func)
        if isinstance(node, (ast.For, ast.AsyncFor, ast.While))
    ]
    assert not found, f"loop statements in enumerate_grassmannian: {', '.join(found)}"


def test_subcode_search_has_no_per_basis_call():
    # higher_weight draws 48,871 bases at r = 3 on G(2, 4)/F4, and the
    # folded search ORs and counts each one in C; the Python calls it
    # makes step the torus's stabilizers and set up the 20 products (one
    # per pivot set, C(6, 3)) and their row options, about 450 in all, so
    # a Python call per basis would show at once
    code = codes.grassmann_code(field_from_order(4), 2, 4)
    code.support_table
    code.torus
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        calls += event == "call"

    sys.setprofile(profile)
    try:
        codes.higher_weight(code, 3)
    finally:
        sys.setprofile(None)
    products = math.comb(6, 3)
    assert calls < 30 * products < 48871 // 50


def test_codes_leaves_maximality_to_families():
    # families decides which families reach K_r, and codes takes them from
    # its maximizer listing; a SubsetFamily or k_lambda inside a loop, a
    # comprehension or a lambda, or k_lambda handed to map, would test the
    # row families one by one in codes again
    tree = ast.parse((PACKAGE / "codes.py").read_text(encoding="utf-8"))
    loops = (
        ast.For,
        ast.AsyncFor,
        ast.While,
        ast.ListComp,
        ast.SetComp,
        ast.DictComp,
        ast.GeneratorExp,
        ast.Lambda,
    )
    called = {id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
    inside = {
        id(name)
        for loop in ast.walk(tree)
        if isinstance(loop, loops)
        for name in ast.walk(loop)
    }
    found = sorted(
        f"codes.py:{node.lineno} {node.id}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Name)
        and node.id in ("SubsetFamily", "k_lambda")
        and (id(node) in inside or id(node) not in called)
    )
    assert not found, f"per-family maximality tests in codes: {', '.join(found)}"
