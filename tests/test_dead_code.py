"""Dead-code checks on the package source, using only the standard library.

No linter ships with the project, so these two rules are enforced here:
every import in ``src/gwsbm`` is used (the package root's re-exports
excepted), and every module-level ``_private`` function or constant and
every method of a class is read somewhere in ``src/`` or ``tests/``.
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
    """Identifiers read (not assigned) as names, attributes or imported names."""
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            refs.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            refs.update(alias.name for alias in node.names)
    return refs


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _checked_definitions(tree: ast.Module):
    """(line, name) of private functions and constants and of class methods."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and _is_private(node.name):
            yield node.lineno, node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name) and _is_private(target.id):
                    yield node.lineno, target.id
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"):
                    yield item.lineno, item.name


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
    """Private functions and constants and all methods are read somewhere."""
    sources = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    used = set()
    for path in sources:
        used |= _references(_parse(path))
    dead = []
    for path in sorted(PACKAGE.glob("*.py")):
        for line, name in _checked_definitions(_parse(path)):
            if name not in used:
                dead.append(f"{path.name}:{line}: {name}")
    assert not dead, "unreferenced private functions, constants or methods:\n" + "\n".join(dead)
