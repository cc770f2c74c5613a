"""Library options must serve the library: no default that only tests override.

Every defaulted parameter of a top-level ``src/cdsk`` function is set, by
keyword or by position, by some call in ``src/cdsk``, ``scripts/`` or
``benchmark/``.  A call counts for a function when it names it, as a plain
name or as an attribute; a ``*args`` or ``**kwargs`` spread sets every
position or keyword.  A default that nothing but a test changes is a fixed
value, and belongs in a module constant.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "cdsk"


def _options(tree: ast.Module) -> list[tuple[str, str, int | None]]:
    """(function, parameter, position or None if keyword-only) of each default."""
    out = []
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = node.args
        positional = args.posonlyargs + args.args
        first = len(positional) - len(args.defaults)
        out += [(node.name, a.arg, i) for i, a in enumerate(positional) if i >= first]
        out += [
            (node.name, a.arg, None)
            for a, default in zip(args.kwonlyargs, args.kw_defaults)
            if default is not None
        ]
    return out


def _sets(call: ast.Call, name: str, position: int | None) -> bool:
    if any(kw.arg in (None, name) for kw in call.keywords):
        return True
    if position is None:
        return False
    return len(call.args) > position or any(isinstance(a, ast.Starred) for a in call.args)


def test_every_option_is_set_outside_tests():
    files = [
        *sorted(PACKAGE.glob("*.py")),
        *sorted((ROOT / "scripts").glob("*.py")),
        *sorted((ROOT / "benchmark").glob("*.py")),
    ]
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in files}
    calls: dict[str, list[ast.Call]] = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                calls.setdefault(called, []).append(node)
    options = [
        (path, *option) for path, tree in trees.items() if path.parent == PACKAGE
        for option in _options(tree)
    ]
    unset = [
        f"{path.stem}.{func}({param})"
        for path, func, param, position in options
        if not any(_sets(call, param, position) for call in calls.get(func, []))
    ]
    assert options
    assert unset == [], f"defaults that only tests override: {unset}"
