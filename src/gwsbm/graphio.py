"""Plain-text formats for graphs, labels and matrices.

Edge lists: first line holds the node count, then one ``i j`` pair per
undirected edge with 0-based indices and i < j.  Labels: one integer per
line.  Matrices: comma-separated rows at full (round-trip) precision.
"""

from __future__ import annotations

import os
import tempfile
from collections.abc import Iterable
from pathlib import Path

import numpy as np

from .sbm import AdjacencyMatrix, Labels, _adjacency_from_pairs, _canonical_pairs, adjacency_from_edges


#: Edges formatted per write by :func:`write_edge_list`, so the text of a
#: large graph is never held whole; its Python ints and strings stay near 1 MB.
_EDGE_CHUNK = 1 << 12


def _atomic_write_text(path: str | Path, text: str | Iterable[str]) -> None:
    """Write ``text``, one string or its pieces in order, via a temporary file
    in the same directory, then rename."""
    if isinstance(text, str):
        text = (text,)
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent or Path("."), prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            for piece in text:
                fh.write(piece)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_edge_list(adj: AdjacencyMatrix, path: str | Path) -> None:
    """Write a 0/1 graph as an edge list; a weighted graph raises ``ValueError``."""
    if np.any(adj.data != 1.0):
        raise ValueError("edge lists hold 0/1 graphs only; this graph has weighted edges")
    indptr, indices = adj.indptr, adj.indices
    # the canonical CSR's order: row-major, columns sorted
    i = np.repeat(np.arange(adj.n, dtype=indices.dtype), np.diff(indptr))
    upper = i < indices
    iu, ju = i[upper], indices[upper]
    del i, upper

    def chunks():
        yield f"{adj.n}\n"
        for start in range(0, iu.size, _EDGE_CHUNK):
            rows = iu[start : start + _EDGE_CHUNK].tolist()
            cols = ju[start : start + _EDGE_CHUNK].tolist()
            yield "".join(f"{i} {j}\n" for i, j in zip(rows, cols))

    _atomic_write_text(path, chunks())


def _next_line(fh) -> tuple[int, str]:
    """The position and text of the next non-blank line of ``fh``; ``""`` at the end."""
    while True:
        pos, line = fh.tell(), fh.readline()
        if not line or line.strip():
            return pos, line


def _first_edge_fault(path: str | Path, lines: Iterable[str], n: int) -> ValueError:
    """The error for the first malformed line of an edge list's body."""
    for line in lines:
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

    Blank lines are skipped, and the edges may come in any order, a
    repeated edge stored once (:func:`gwsbm.sbm.adjacency_from_edges`).  Any
    malformed input raises ``ValueError`` naming the file and, where there
    is one, the first faulty line.  The body streams from the file into
    ``np.loadtxt``; only a faulty file is read a second time, for the message.
    The parsed int64 pairs are checked, narrowed to the CSR's index dtype and
    dropped before the CSR is built (sorted by key only for a file not in
    row-major order), so a read peaks near 1.4 times the CSR's bytes.
    """
    with open(path) as fh:
        head = _next_line(fh)[1].lstrip().removesuffix("\n")
        if not head:
            raise ValueError(f"{path}: empty edge-list file")
        try:
            n = int(head)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
        if n < 1:
            raise ValueError(f"{path}: node count must be positive")
        start, first = _next_line(fh)
        if not first:  # no edges; loadtxt would warn that the body holds no data
            return adjacency_from_edges(n, np.empty(0, np.int64), np.empty(0, np.int64))
        fh.seek(start)
        try:
            ij = np.loadtxt(fh, dtype=np.int64, comments=None, ndmin=2)
            if ij.shape[1] != 2:
                raise ValueError(f"{ij.shape[1]} columns")
            i, j = _canonical_pairs(n, ij[:, 0], ij[:, 1])
        except ValueError:  # unparsable text, or a pair outside 0 <= i < j < n
            fh.seek(start)
            raise _first_edge_fault(path, fh, n) from None
    del ij
    return _adjacency_from_pairs(n, i, j)


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
