"""Import rules for src/ringrelay, checked on the standard library's ast.

* No module keeps a module-level import it never uses: a stand-in for a
  linter's unused-import rule.  A name bound by a top-level import must be
  read somewhere in its module, or be listed in the module's __all__ (the
  package's re-exports).
* scipy is imported only where the chi-square p-value needs it: in
  estimators.chi_square_uniformity, and in AcceptanceContext.__enter__,
  which loads it before the gate forks its workers.  Everything else,
  the exact solves included, runs on numpy.
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


SCIPY_ALLOWED = {"estimators.chi_square_uniformity",
                 "validation.AcceptanceContext.__enter__"}


def scipy_import_sites(path: Path) -> list[str]:
    """module.qualified.name of the function or class around each import
    of scipy in a module (the module's name alone at its top level)."""
    sites = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, [*scope, child.name])
                continue
            if isinstance(child, ast.Import):
                names = [a.name for a in child.names]
            elif isinstance(child, ast.ImportFrom):
                names = [child.module or ""]
            else:
                names = []
            if any(name.split(".")[0] == "scipy" for name in names):
                sites.append(".".join(scope))
            visit(child, scope)

    visit(ast.parse(path.read_text(), filename=str(path)), [path.stem])
    return sites


def test_the_check_sees_every_scipy_import(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "import scipy\n"
        "class A:\n"
        "    def f(self):\n"
        "        from scipy.sparse import linalg\n"
        "def g():\n"
        "    if True:\n"
        "        import numpy, scipy.special as sp\n"
        "    import scipyx\n"
    )
    assert scipy_import_sites(module) == ["m", "m.A.f", "m.g"]


def test_scipy_only_for_the_chi_square():
    sites = {site for path in SRC.glob("*.py") for site in scipy_import_sites(path)}
    assert sites <= SCIPY_ALLOWED, sorted(sites - SCIPY_ALLOWED)
