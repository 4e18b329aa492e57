"""Where the package may turn the sparse adjacency matrix into a dense one.

``AdjacencyMatrix`` stores one CSR array, and a fit reads A only through
it.  A dense copy costs O(n^2) memory, so ``.entries`` (the dense copy of
an adjacency) and ``.toarray()`` may appear in ``src/gwsbm`` only in the
scopes listed here: the exhaustive baselines and the self-test, which run
at tiny n, the dense ``eigh`` fallback of the spectral start (below
``RANDOMIZED_CUTOFF``, taken only where ARPACK's answer would not be
reproducible), and the property itself.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "gwsbm"

DENSE_ATTRIBUTES = ("entries", "toarray")

#: (module, enclosing scope) pairs allowed to densify; "*" is the whole module.
ALLOWED = {
    ("baselines.py", "exact_log_likelihood"),
    ("baselines.py", "brute_force_srgw"),
    ("selftest.py", "*"),
    ("initplans.py", "_top_abs_eigvecs"),
    ("sbm.py", "AdjacencyMatrix.entries"),
}


def _dense_reads(tree: ast.Module):
    """(scope, line, attribute) of each dense read, scope as dotted def names."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = scope + (node.name,)
        if isinstance(node, ast.Attribute) and node.attr in DENSE_ATTRIBUTES:
            found.append((".".join(scope), node.lineno, node.attr))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, ())
    return found


def test_adjacency_is_densified_only_where_allowed():
    misplaced = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for scope, line, attr in _dense_reads(tree):
            if (path.name, "*") in ALLOWED or (path.name, scope) in ALLOWED:
                continue
            misplaced.append(f"{path.name}:{line}: .{attr} in {scope or '<module>'}")
    assert not misplaced, "dense adjacency reads outside the allowed scopes:\n" + "\n".join(misplaced)


def test_the_check_sees_a_misplaced_read():
    tree = ast.parse(
        "def fit(adj, conn):\n"
        "    x = conn.entries\n"
        "    return adj.entries, adj.csr.toarray()\n"
    )
    assert _dense_reads(tree) == [
        ("fit", 2, "entries"), ("fit", 3, "entries"), ("fit", 3, "toarray"),
    ]
