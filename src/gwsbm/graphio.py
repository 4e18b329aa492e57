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

from .sbm import AdjacencyMatrix, Labels, _as, adjacency_from_edges


#: CSR entries formatted per write by :func:`write_edge_list`.  A chunk's
#: row and column indices, its line buffer and its text take a few tens of
#: bytes per entry, a few hundred kB whatever the graph's size.
_EDGE_CHUNK = 1 << 13


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
    """Write a 0/1 graph, an ``AdjacencyMatrix`` or a raw array it accepts, as an
    edge list; a weighted graph raises ``ValueError``.

    The text is formatted in numpy, one chunk of CSR entries at a time: the
    chunk's upper-triangle pairs gather their endpoints from a table of
    every node's decimal digits, NUL-padded to one width (``n`` times that
    width in bytes), into fixed-width ``"i j\\n"`` records, and dropping the
    NUL bytes leaves the chunk's lines.
    """
    adj = _as(AdjacencyMatrix, adj)
    if np.any(adj.data != 1.0):
        raise ValueError("edge lists hold 0/1 graphs only; this graph has weighted edges")
    indptr, indices = adj.indptr, adj.indices
    digits = np.arange(adj.n, dtype=indices.dtype).astype(f"S{len(str(adj.n - 1))}")
    record = [("i", digits.dtype), ("sep", "S1"), ("j", digits.dtype), ("end", "S1")]
    lines = np.empty(min(_EDGE_CHUNK, indices.size), record)
    lines["sep"], lines["end"] = b" ", b"\n"

    def chunks():
        yield f"{adj.n}\n"
        for start in range(0, indices.size, _EDGE_CHUNK):
            stop = min(start + _EDGE_CHUNK, indices.size)
            # rows first .. last - 1 hold the chunk's entries; the canonical CSR is
            # row-major with sorted columns, so the lines come out in that order
            first = np.searchsorted(indptr, start, side="right") - 1
            last = np.searchsorted(indptr, stop)
            counts = np.diff(np.clip(indptr[first : last + 1], start, stop))
            rows = np.repeat(np.arange(first, last, dtype=indices.dtype), counts)
            cols = indices[start:stop]
            upper = rows < cols
            chunk = lines[: np.count_nonzero(upper)]
            chunk["i"], chunk["j"] = digits[rows[upper]], digits[cols[upper]]
            text = chunk.view(np.uint8)
            yield text[text != 0].tobytes().decode("ascii")

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
    is one, the first faulty line.  The count line and the streamed body
    parse by ``np.loadtxt``; only a faulty file is read twice, for the message.
    The body parses to int32 pairs, which go to the builder as two column
    views, so a read peaks near 1.33 times the CSR's bytes in any order.
    A file with an index of 2**31 or more fails the parse and is named out
    of range.
    """
    with open(path) as fh:
        head = _next_line(fh)[1].lstrip().removesuffix("\n")
        if not head:
            raise ValueError(f"{path}: empty edge-list file")
        try:  # the body's integer rule; a second value fails the unpacking
            (n,) = np.loadtxt([head], dtype=np.int64, comments=None, ndmin=1).tolist()
        except ValueError as exc:
            raise ValueError(f"{path}: node count line {head!r}: {exc}") from None
        if n < 1:
            raise ValueError(f"{path}: node count must be positive")
        start, first = _next_line(fh)
        if not first:  # no edges; loadtxt would warn that the body holds no data
            return adjacency_from_edges(n, [], [])
        fh.seek(start)
        try:
            ij = np.loadtxt(fh, dtype=np.int32, comments=None, ndmin=2)
            if ij.shape[1] != 2:
                raise ValueError(f"{ij.shape[1]} columns")
            return adjacency_from_edges(n, ij[:, 0], ij[:, 1])
        except ValueError:  # unparsable text, or a pair outside 0 <= i < j < n
            fh.seek(start)
            raise _first_edge_fault(path, fh, n) from None


def write_labels(labels: Labels, path: str | Path) -> None:
    """Write one integer label per line."""
    _atomic_write_text(path, "\n".join(str(int(v)) for v in labels.values) + "\n")


def _read_rows(path: str | Path, what: str, dtype, delimiter: str | None = None) -> np.ndarray:
    """A labels or matrix file's nonblank lines, parsed by ``np.loadtxt`` into a 2-d array."""
    with open(path) as fh:
        lines = [line for line in fh if line.strip()]
    if not lines:  # loadtxt would only warn that the file holds no data
        raise ValueError(f"{path}: empty {what} file")
    try:
        return np.loadtxt(lines, dtype=dtype, delimiter=delimiter, comments=None, ndmin=2)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def read_labels(path: str | Path, k: int | None = None) -> Labels:
    """Read labels; the range defaults to one past the largest value."""
    rows = _read_rows(path, "labels", np.int64)
    if rows.shape[1] != 1:
        raise ValueError(f"{path}: {rows.shape[1]} values on one line; labels go one per line")
    try:
        return Labels(rows[:, 0], int(rows.max()) + 1 if k is None else k)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def write_matrix_csv(matrix: np.ndarray, path: str | Path) -> None:
    """Write a matrix as comma-separated rows at round-trip precision."""
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2:
        raise ValueError("expected a 2-d matrix")
    rows = (",".join(repr(float(x)) for x in row) for row in matrix)
    _atomic_write_text(path, "\n".join(rows) + "\n")


def read_matrix_csv(path: str | Path) -> np.ndarray:
    """Read a matrix written by :func:`write_matrix_csv`."""
    return _read_rows(path, "matrix", np.float64, ",")
