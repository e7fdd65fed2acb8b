"""Jobs reach worker processes one way, validation.RunQueue.

On the standard library's ast: a ProcessPoolExecutor is built nowhere in
src/, scripts/ or perfbench/ but inside validation.open_pool, open_pool
is called nowhere but inside validation.RunQueue, and cli.py imports
nothing from concurrent.futures.  A self-check shows that each rule
sees what it looks for.
"""
import ast
from pathlib import Path

from test_relay_layer import CALLERS, ROOT, SRC, stray_calls

HOMES = {"ProcessPoolExecutor": ("validation.py", "open_pool"),
         "open_pool": ("validation.py", "RunQueue")}


def futures_imports(path: Path) -> list[int]:
    """Lines of path that import concurrent.futures or a name from it."""
    return [
        sub.lineno
        for sub in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(sub, ast.Import)
        and any(a.name.startswith("concurrent") for a in sub.names)
        or isinstance(sub, ast.ImportFrom)
        and (sub.module or "").startswith("concurrent")
    ]


def test_the_checks_see_what_they_look_for(tmp_path):
    validation = tmp_path / "validation.py"
    validation.write_text(
        "from concurrent.futures import ProcessPoolExecutor\n"
        "def open_pool(n):\n    return ProcessPoolExecutor(n)\n"
        "def pool_map(f, jobs, n):\n    pool = open_pool(n)\n"
        "    return ProcessPoolExecutor(n)\n"
        "class RunQueue:\n    def __enter__(self):\n"
        "        self.pool = open_pool(2)\n"
    )
    cli = tmp_path / "cli.py"
    cli.write_text("import concurrent.futures\nimport json\n"
                   "from concurrent import futures\n")
    assert stray_calls(validation, "ProcessPoolExecutor",
                       HOMES["ProcessPoolExecutor"]) == [6]
    assert stray_calls(validation, "open_pool", HOMES["open_pool"]) == [5]
    assert futures_imports(validation) == [1]
    assert futures_imports(cli) == [1, 3]


def test_one_pool_path():
    found = {
        (callee, str(p.relative_to(ROOT))): at
        for callee, home in HOMES.items()
        for root in CALLERS
        for p in root.rglob("*.py")
        if (at := stray_calls(p, callee, home))
    }
    assert found == {}


def test_cli_imports_no_futures():
    assert futures_imports(SRC / "cli.py") == []
