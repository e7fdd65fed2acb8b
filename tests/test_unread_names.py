"""Every top-level name and record field that src/ringrelay defines is
read by a caller.

A stand-in for a linter's dead-code rule, on the standard library's ast
alone: each top-level function, class and constant of a module in
src/ringrelay must be read somewhere in src/, scripts/ or perfbench/
outside its own definition.  A read is a name, an attribute, or a string
that spells it (perfbench/tracing.py wraps functions by name).  The
package's re-exports (the imports of __init__.py and its __all__) and
the tests do not count, so an option or helper that only tests use
fails here.

Each field of a dataclass or NamedTuple in src/ringrelay must likewise
be loaded as an attribute somewhere in those files, its own class's
methods included.  The rule matches by name: a field whose name some
other object's attribute shares counts as read.
"""
import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "ringrelay"
CALLERS = [SRC, ROOT / "scripts", ROOT / "perfbench"]


def definitions(tree: ast.Module) -> dict:
    """Top-level functions, classes and constants, dunders aside: name
    -> the statement that defines it."""
    found = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name) and not target.id.startswith("__"):
                    found[target.id] = node
    return found


def names_read(node: ast.AST) -> set:
    """Names, attributes and strings in node, except __all__'s strings."""
    if isinstance(node, ast.Assign) and any(
        isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
    ):
        return set()
    read = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            read.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            read.add(sub.attr)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            read.add(sub.value)
    return read


def unread_names(module: Path, callers: list[Path]) -> list[str]:
    """The names module defines that no top-level statement of the
    callers' files reads, other than the definition itself."""
    trees = {path: ast.parse(path.read_text(), filename=str(path))
             for path in {module, *callers}}
    defined = definitions(trees[module])
    read = set()
    for path in callers:
        for node in trees[path].body:
            own = {name for name, d in defined.items() if d is node}
            read |= names_read(node) - own
    return sorted(set(defined) - read)


def record_fields(tree: ast.Module) -> list[str]:
    """'Class.field' for each field of the dataclasses and NamedTuples
    defined in tree."""
    found = []
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        marks = [d.func if isinstance(d, ast.Call) else d for d in cls.decorator_list]
        named = {ast.unparse(m).split(".")[-1] for m in marks + cls.bases}
        if not named & {"dataclass", "NamedTuple"}:
            continue
        found += [f"{cls.name}.{stmt.target.id}" for stmt in cls.body
                  if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)]
    return found


def unread_fields(module: Path, callers: list[Path]) -> list[str]:
    """The record fields module defines that no caller file loads as an
    attribute."""
    loaded = {
        node.attr
        for path in callers
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    fields = record_fields(ast.parse(module.read_text(), filename=str(module)))
    return [f for f in fields if f.split(".")[1] not in loaded]


def caller_files() -> list[Path]:
    return sorted(p for root in CALLERS for p in root.rglob("*.py"))


def test_the_check_sees_an_unread_name(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "LIMIT = 3\nUNUSED = 4\n__all__ = ['gone', 'UNUSED']\n"
        "def gone():\n    return gone()\n"
        "class Used:\n    pass\n"
        "def main():\n    return Used(), LIMIT\n"
        "def named():\n    pass\n"
    )
    caller = tmp_path / "c.py"
    caller.write_text("import m\nm.main()\nTRACED = ['named']\n")
    assert unread_names(module, [module, caller]) == ["UNUSED", "gone"]


@pytest.mark.parametrize("name", sorted(p.name for p in SRC.glob("*.py")))
def test_every_top_level_name_is_read(name):
    module = SRC / name
    assert unread_names(module, caller_files()) == []


def test_the_check_sees_an_unread_field(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "from typing import NamedTuple\n"
        "class Pair(NamedTuple):\n    kept: int\n    dropped: int\n"
        "def make():\n    return Pair(kept=1, dropped=2)\n"
    )
    caller = tmp_path / "c.py"
    caller.write_text("import m\npair = m.make()\npair.dropped = 0\nprint(pair.kept)\n")
    assert unread_fields(module, [module, caller]) == ["Pair.dropped"]


@pytest.mark.parametrize("name", sorted(p.name for p in SRC.glob("*.py")))
def test_every_record_field_is_read(name):
    assert unread_fields(SRC / name, caller_files()) == []
