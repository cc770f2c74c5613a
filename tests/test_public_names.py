"""Library code must serve the library: no public name that only tests reach.

A top-level public function or class of ``src/cdsk`` is either exported in
``cdsk.__all__`` or named somewhere in ``src/cdsk``, ``scripts/`` or
``benchmark/`` outside its own definition.  A name counts as named where it
appears as an identifier, an attribute, an imported name, or a string
constant equal to it (the benchmark hooks library functions by name).
Comments and docstrings do not count.
"""

import ast
from pathlib import Path

import cdsk

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "cdsk"


def _named(node: ast.AST) -> set[str]:
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.alias):
            names.add(sub.name.rsplit(".", 1)[-1])
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            if sub.value.isidentifier():
                names.add(sub.value)
    return names


def test_public_names_are_exported_or_used_outside_tests():
    files = [
        *sorted(PACKAGE.glob("*.py")),
        *sorted((ROOT / "scripts").glob("*.py")),
        *sorted((ROOT / "benchmark").glob("*.py")),
    ]
    definitions = []  # (file, name) of each public top-level def or class
    uses = []  # (file, the top-level def or class it sits in or None, names)
    for path in files:
        for stmt in ast.parse(path.read_text(), filename=str(path)).body:
            owner = None
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                owner = stmt.name
                if path.parent == PACKAGE and not owner.startswith("_"):
                    definitions.append((path, owner))
            uses.append((path, owner, _named(stmt)))
    unused = [
        f"{path.stem}.{name}"
        for path, name in definitions
        if name not in cdsk.__all__
        and not any(
            name in names and (where, owner) != (path, name) for where, owner, names in uses
        )
    ]
    assert definitions
    assert unused == [], f"not exported and named only in tests: {unused}"
