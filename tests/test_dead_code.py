"""Dead-code checks on the package source, using only the standard library.

No linter ships with the project, so these two rules are enforced here:
every import in ``src/gwsbm`` is used (the package root's re-exports
excepted), and every module-level ``_private`` function is referenced
somewhere in ``src/`` or ``tests/``.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "gwsbm"


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _imported_names(tree: ast.Module) -> dict[str, int]:
    """Names bound by import statements, mapped to their line numbers."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _references(tree: ast.Module) -> set[str]:
    """Identifiers read as names, attributes or imported names."""
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            refs.update(alias.name for alias in node.names)
    return refs


def test_no_unused_imports_in_package():
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = _parse(path)
        loads = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for name, line in _imported_names(tree).items():
            if name not in loads:
                unused.append(f"{path.name}:{line}: {name}")
    assert not unused, "unused imports:\n" + "\n".join(unused)


def test_private_functions_are_referenced():
    sources = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    used = set()
    for path in sources:
        used |= _references(_parse(path))
    dead = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in _parse(path).body:
            if isinstance(node, ast.FunctionDef) and node.name.startswith("_"):
                if not node.name.startswith("__") and node.name not in used:
                    dead.append(f"{path.name}:{node.lineno}: {node.name}")
    assert not dead, "unreferenced private functions:\n" + "\n".join(dead)
