"""No module in src/ringrelay keeps a module-level import it never uses.

A stand-in for a linter's unused-import rule, on the standard library's
ast alone: a name bound by a top-level import must be read somewhere in
its module, or be listed in the module's __all__ (the package's
re-exports).
"""
import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "ringrelay"


def unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    bound = []
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported = set(ast.literal_eval(node.value))
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in bound if name not in read | exported]


def test_the_check_sees_an_unused_import(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "import os\nimport numpy as np\nfrom x import a, b\n"
        "__all__ = ['b']\nprint(np.pi)\n"
    )
    assert unused_imports(module) == ["os", "a"]


@pytest.mark.parametrize("name", sorted(p.name for p in SRC.glob("*.py")))
def test_no_unused_module_level_import(name):
    assert unused_imports(SRC / name) == []
