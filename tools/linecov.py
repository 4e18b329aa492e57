"""List the lines of each ``src/gwsbm`` module that the Tier-1 suite never runs.

Stdlib only (``coverage`` is not a dependency): a ``sys.settrace`` tracer
records every line executed in this process while ``pytest.main`` runs
``tests/``.  Code that runs in a subprocess or a worker process is not
seen, so a line listed here may still run under the CLI tests that start
``python -m gwsbm.cli``.  Executable lines come from the modules' code
objects, so blank lines, comments and docstrings are never listed.

Run from anywhere; it takes no options and exits with pytest's code::

    python tools/linecov.py

The traced suite takes about twice as long as the untraced one.
"""

from __future__ import annotations

import os
import sys
import threading
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "gwsbm"


def executable_lines(path: Path) -> set[int]:
    """Line numbers that carry bytecode in ``path``'s module and nested code objects."""
    stack, lines = [compile(path.read_text(), str(path), "exec")], set()
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def spans(lines: list[int]) -> str:
    """``1-3, 7, 9-10`` for ``[1, 2, 3, 7, 9, 10]``."""
    out, start = [], None
    for i, line in enumerate(lines):
        if start is None:
            start = line
        if i + 1 == len(lines) or lines[i + 1] != line + 1:
            out.append(str(start) if start == line else f"{start}-{line}")
            start = None
    return ", ".join(out)


def main() -> int:
    import pytest

    modules = sorted(PACKAGE.glob("*.py"))
    hits: dict[str, set[int]] = {str(path): set() for path in modules}
    resolved: dict[str, set[int] | None] = {}

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in resolved:
            resolved[name] = hits.get(os.path.realpath(name))
        seen = resolved[name]
        if seen is None:
            return None
        seen.add(frame.f_lineno)

        def local(frame, event, arg):
            if event == "line":
                seen.add(frame.f_lineno)
            return local

        return local

    sys.path.insert(0, str(PACKAGE.parent))
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    print("\nlines never executed in-process:")
    for path in modules:
        missed = sorted(executable_lines(path) - hits[str(path)])
        print(f"{path.relative_to(ROOT)}: {spans(missed) if missed else '-'}")
    return int(code)


if __name__ == "__main__":
    sys.exit(main())
