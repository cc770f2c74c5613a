"""The weight step has one solver on a set of columns: in ``driver.py`` the
Cholesky calls (LAPACK ``dpotrf`` and ``dpotrs``) and numpy's least squares
appear only inside the ``_Face`` class, so no second Gram helper grows back
beside it.

A use is any reference to one of those names outside an import, called or
not; ``lstsq`` counts under any attribute base (``np.linalg.lstsq``,
``linalg.lstsq``) or as a bare name.
"""

import ast
from pathlib import Path

DRIVER = Path(__file__).resolve().parents[1] / "src" / "cdsk" / "driver.py"
SOLVERS = {"dpotrf", "dpotrs", "lstsq"}


def _uses(node: ast.AST) -> list[str]:
    """'name:line' for every reference to a solver below node."""
    found = []
    for sub in ast.walk(node):
        name = sub.id if isinstance(sub, ast.Name) else getattr(sub, "attr", None)
        if name in SOLVERS:
            found.append(f"{name}:{sub.lineno}")
    return found


def test_cholesky_and_least_squares_only_inside_face():
    tree = ast.parse(DRIVER.read_text(), filename=str(DRIVER))
    (face,) = [node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == "_Face"]
    inside = _uses(face)
    outside = sorted(set(_uses(tree)) - set(inside))
    assert outside == [], f"solver references outside _Face: {outside}"
    # the class itself factors, reuses the factor and falls back
    assert {use.split(":")[0] for use in inside} == SOLVERS
