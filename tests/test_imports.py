"""Import rules for src/ringrelay, checked on the standard library's ast.

* No module keeps a module-level import it never uses: a stand-in for a
  linter's unused-import rule.  A name bound by a top-level import must be
  read somewhere in its module, or be listed in the module's __all__ (the
  package's re-exports).
* src/ringrelay imports only the standard library, numpy and itself, at
  any depth: the exact solves and the chi-square tail included, it runs
  on numpy alone, and pyproject.toml's runtime dependencies say so.
"""
import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "ringrelay"


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


ALLOWED = set(sys.stdlib_module_names) | {"numpy", "ringrelay"}


def foreign_imports(path: Path) -> list[str]:
    """Sorted top-level names of the packages a module imports, at any
    depth, that are neither the standard library, numpy nor ringrelay
    (relative imports are ringrelay's own)."""
    names = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names += [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return sorted(top for top in (n.split(".")[0] for n in names)
                  if top not in ALLOWED)


def test_the_check_sees_every_foreign_import(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "import os, scipy\n"
        "from . import errors\n"
        "from ringrelay.model import State\n"
        "class A:\n"
        "    def f(self):\n"
        "        from scipy.sparse import linalg\n"
        "def g():\n"
        "    if True:\n"
        "        import numpy.linalg, pandas as pd\n"
        "    import scipyx\n"
    )
    assert foreign_imports(module) == ["pandas", "scipy", "scipy", "scipyx"]


def test_only_stdlib_and_numpy():
    found = {path.name: foreign_imports(path) for path in sorted(SRC.glob("*.py"))}
    assert {name: f for name, f in found.items() if f} == {}


def test_runtime_dependencies_are_numpy_alone():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert [re.match(r"[A-Za-z0-9_.-]+", d).group() for d in project["dependencies"]] \
        == ["numpy"]
