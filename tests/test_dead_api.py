"""Every public function and class of the package is used outside the tests.

A public top-level function or class in `src/ttfedsim` that no statement
of the package or of `perfbench` names, other than its own definition,
is kept alive by tests alone: it belongs in the tests or nowhere. Names
are matched as bare names, attributes and imports, so a namesake
anywhere counts as a use; the check can miss dead code, but never flags
live code.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "ttfedsim").glob("*.py"))
USERS = PACKAGE + sorted((ROOT / "perfbench").glob("*.py"))


def named(node: ast.AST) -> set[str]:
    """Every name that the node and its children refer to."""
    names = set()
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            names.add(child.id)
        elif isinstance(child, ast.Attribute):
            names.add(child.attr)
        elif isinstance(child, ast.alias):
            names.add(child.name.rsplit(".", 1)[-1])
    return names


def unused_public_definitions() -> list[str]:
    statements = [
        (path, statement, named(statement))
        for path in USERS
        for statement in ast.parse(path.read_text()).body
    ]
    return [
        f"{path.stem}.{statement.name}"
        for path, statement, _ in statements
        if path in PACKAGE
        and isinstance(statement, (ast.FunctionDef, ast.ClassDef))
        and not statement.name.startswith("_")
        and not any(
            statement.name in names for _, other, names in statements if other is not statement
        )
    ]


def test_the_scan_reads_the_package_and_the_benchmark():
    assert {path.name for path in PACKAGE} >= {"engine.py", "learner.py"}
    assert "run.py" in {path.name for path in USERS}


def test_no_public_definition_is_used_by_tests_alone():
    assert unused_public_definitions() == []
