"""Every name a ``src/cdsk`` module imports is used in that module, the
embedding sits below the similarity and the driver, and no module imports
``scipy.sparse``.

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


def _imported_modules(path: Path) -> set[str]:
    """The cdsk modules a module imports, by name, whether relatively or absolutely."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1 and node.module is None:
                found.update(alias.name for alias in node.names)
            elif node.level == 1:
                found.add(node.module.split(".", 1)[0])
            elif node.module and node.module.startswith("cdsk."):
                found.add(node.module.split(".")[1])
            elif node.module == "cdsk":
                found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            found.update(
                alias.name.split(".")[1] for alias in node.names if alias.name.startswith("cdsk.")
            )
    return found


def test_embedding_imports_neither_similarity_nor_driver():
    # solve_embedding takes any symmetric nonnegative S and reads its degrees
    # itself; it needs nothing from the modules that build S or run the loop
    imported = _imported_modules(PACKAGE / "embedding.py")
    assert {"errors", "spectral"} <= imported
    assert not imported & {"similarity", "driver"}, imported


def test_no_module_imports_scipy_sparse():
    # the eigensolves are LAPACK's and the package's own Lanczos iteration
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            names = [alias.name for alias in node.names] if isinstance(node, ast.Import) else []
            if isinstance(node, ast.ImportFrom) and node.module:
                names = [node.module]
            found += [f"{path.name}: {name}" for name in names if name.startswith("scipy.sparse")]
    assert found == []
