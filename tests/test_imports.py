"""Every name a ``src/cdsk`` module imports is used in that module.

``__init__`` is skipped, since its imports are the package's re-exports, and
so are ``from __future__`` imports.  A name is used where it appears as an
identifier; the base of an attribute access counts.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "cdsk"


def _unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}  # bound name -> line
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".", 1)[0]
                imported[bound] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]


def test_every_import_is_used():
    modules = [path for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"]
    assert modules
    unused = [entry for path in modules for entry in _unused_imports(path)]
    assert unused == [], f"imported but never used: {unused}"
