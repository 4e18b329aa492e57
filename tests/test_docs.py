"""The README's API map names only what its modules define.

Each row of the map's table pairs a module with backticked entries.  An
entry written as ``name``, ``Class.attr`` or ``name(…, param=)`` must
resolve in that row's module, and each listed parameter must be in the
callable's signature.  An entry that starts with ``.`` must resolve on the
class of the previous entry: that entry itself when it is a class, else the
class it was an attribute of.  Methods, properties and dataclass fields all
count.  ``…`` and prose such as ``gwsbm oracle`` that is not a dotted name
are skipped.
"""

import dataclasses
import importlib
import inspect
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"

_NAME = r"[A-Za-z_][A-Za-z0-9_]*"
_ENTRY = re.compile(rf"({_NAME}(?:\.{_NAME})*)(?:\((.*)\))?")
_ROW = re.compile(r"^\| `(gwsbm(?:\.\w+)?)` \| (.*) \|$", flags=re.MULTILINE)


def api_map_rows() -> list[tuple[str, str]]:
    """(module, contents) for each row of the README's API map."""
    section = README.read_text().split("\n## API map\n", 1)[1]
    return _ROW.findall(section)


def attribute(owner, name: str):
    """``owner.name``, or the field of that name when ``owner`` is a dataclass; else None."""
    value = getattr(owner, name, None)
    if value is None and inspect.isclass(owner) and dataclasses.is_dataclass(owner):
        value = next((f for f in dataclasses.fields(owner) if f.name == name), None)
    return value


def unresolved(module_name: str, contents: str) -> list[str]:
    """The entries of ``contents`` that do not resolve in the module."""
    module = importlib.import_module(module_name)
    missing = []
    owner = None  # the class a following ``.attr`` entry resolves on
    for entry in re.findall(r"`([^`]+)`", contents):
        match = _ENTRY.fullmatch(entry.removeprefix("."))
        if match is None:
            continue
        target = owner if entry.startswith(".") else module
        for part in match.group(1).split("."):
            parent, target = target, attribute(target, part)
            if target is None:
                break
        owner = target if inspect.isclass(target) else parent if inspect.isclass(parent) else None
        if target is None:
            missing.append(entry)
            continue
        if match.group(2) is None:
            continue
        params = inspect.signature(target).parameters
        for arg in match.group(2).split(","):
            arg = arg.strip().rstrip("=")
            if arg not in ("", "…") and arg not in params:
                missing.append(f"{entry}: {arg}")
    return missing


def test_api_map_names_resolve():
    rows = api_map_rows()
    assert {module for module, _ in rows} >= {
        "gwsbm.losses", "gwsbm.solver", "gwsbm.sbm", "gwsbm.baselines", "gwsbm.cli",
    }
    for module, contents in rows:
        assert unresolved(module, contents) == [], module


def test_check_sees_a_removed_parameter_or_method():
    stale = "`fw_solve(…, on_iterate=)`, `mm_solve(…, sparsity=)`, `CostKernel.gone`"
    assert unresolved("gwsbm.solver", stale) == [
        "fw_solve(…, on_iterate=): on_iterate", "CostKernel.gone",
    ]
    # a name listed under the wrong module
    assert unresolved("gwsbm.losses", "`mm_solve`") == ["mm_solve"]


def test_check_resolves_attribute_entries_on_the_preceding_class():
    # methods after a method of the class, with prose between them
    kernel = "`CostKernel.cost`, `.assemble_cost` from a given `A·T`, `.label_sums`, `.gone`"
    assert unresolved("gwsbm.losses", kernel) == [".gone"]
    # a dataclass field, a property and a method after the class itself
    fields = "`AdjacencyMatrix` (`.csr`, `.entries`, `.edge_count()`, `.gone`)"
    assert unresolved("gwsbm.sbm", fields) == [".gone"]
    # no class to resolve on after a function or an entry that does not resolve
    assert unresolved("gwsbm.solver", "`fw_solve`, `.cost`") == [".cost"]
    assert unresolved("gwsbm.losses", "`Gone`, `.cost`") == ["Gone", ".cost"]
