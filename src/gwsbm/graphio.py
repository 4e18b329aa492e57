"""Plain-text formats for graphs, labels and matrices.

Edge lists: first line holds the node count, then one ``i j`` pair per
undirected edge with 0-based indices and i < j.  Labels: one integer per
line.  Matrices: comma-separated rows at full (round-trip) precision.
"""

from __future__ import annotations

import io
import os
import tempfile
from pathlib import Path

import numpy as np

from .sbm import AdjacencyMatrix, Labels, adjacency_from_edges


def _atomic_write_text(path: str | Path, text: str) -> None:
    """Write via a temporary file in the same directory, then rename."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent or Path("."), prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_edge_list(adj: AdjacencyMatrix, path: str | Path) -> None:
    """Write a binary graph as an edge list."""
    coo = adj.csr.tocoo()  # the canonical CSR's order: row-major, columns sorted
    upper = coo.row < coo.col
    iu, ju = coo.row[upper], coo.col[upper]
    lines = [str(adj.n)]
    lines.extend(f"{i} {j}" for i, j in zip(iu.tolist(), ju.tolist()))
    _atomic_write_text(path, "\n".join(lines) + "\n")


def _edge_rows(body: str) -> np.ndarray | None:
    """The ``i j`` rows of an edge list's body; None when numpy cannot parse them."""
    if not body.strip():
        return np.empty((0, 2), dtype=np.int64)
    try:
        return np.loadtxt(io.StringIO(body), dtype=np.int64, comments=None, ndmin=2)
    except ValueError:
        return None


def _first_edge_fault(path: str | Path, body: str, n: int) -> ValueError:
    """The error for the first malformed line of an edge list's body."""
    for line in body.split("\n"):
        parts = line.split()
        if not parts:
            continue
        if len(parts) != 2:
            return ValueError(f"{path}: malformed edge line {line.strip()!r}")
        try:
            i, j = int(parts[0]), int(parts[1])
        except ValueError as exc:
            return ValueError(f"{path}: {exc}")
        if not (0 <= i < n and 0 <= j < n):
            return ValueError(f"{path}: edge ({i}, {j}) out of range for n={n}")
        if not i < j:
            return ValueError(f"{path}: edge ({i}, {j}) violates i < j")
    return ValueError(f"{path}: edge indices must be plain decimal integers")


def read_edge_list(path: str | Path) -> AdjacencyMatrix:
    """Read an edge list written by :func:`write_edge_list`.

    Blank lines are skipped and a repeated edge is stored once.  Any
    malformed input raises ``ValueError`` naming the file and, where there
    is one, the first faulty line.
    """
    with open(path) as fh:
        head, _, body = fh.read().lstrip().partition("\n")
    if not head:
        raise ValueError(f"{path}: empty edge-list file")
    try:
        n = int(head)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    if n < 1:
        raise ValueError(f"{path}: node count must be positive")
    ij = _edge_rows(body)
    if ij is None or ij.shape[1] != 2:
        raise _first_edge_fault(path, body, n)
    i, j = ij[:, 0], ij[:, 1]
    if not np.all((0 <= i) & (i < j) & (j < n)):
        raise _first_edge_fault(path, body, n)
    return adjacency_from_edges(n, i, j)


def write_labels(labels: Labels, path: str | Path) -> None:
    """Write one integer label per line."""
    _atomic_write_text(path, "\n".join(str(int(v)) for v in labels.values) + "\n")


def read_labels(path: str | Path, k: int | None = None) -> Labels:
    """Read labels; the range defaults to one past the largest value."""
    with open(path) as fh:
        values = [int(line.strip()) for line in fh if line.strip()]
    if not values:
        raise ValueError(f"{path}: empty labels file")
    if k is None:
        k = max(values) + 1
    return Labels(np.array(values, dtype=np.int64), k)


def write_matrix_csv(matrix: np.ndarray, path: str | Path) -> None:
    """Write a matrix as comma-separated rows at round-trip precision."""
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2:
        raise ValueError("expected a 2-d matrix")
    rows = (",".join(repr(float(x)) for x in row) for row in matrix)
    _atomic_write_text(path, "\n".join(rows) + "\n")


def read_matrix_csv(path: str | Path) -> np.ndarray:
    """Read a matrix written by :func:`write_matrix_csv`."""
    with open(path) as fh:
        rows = [
            [float(x) for x in line.strip().split(",")]
            for line in fh
            if line.strip()
        ]
    if not rows:
        raise ValueError(f"{path}: empty matrix file")
    return np.array(rows, dtype=np.float64)
