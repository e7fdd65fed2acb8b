"""The message is resolved by one rule, in model.relay and at the start.

The engines yield walker paths and meetings; model.relay alone turns
them into readings, and model.start_state resolves the start through the
same rule.  On the standard library's ast: pass_message, the package's
one relay rule, is called nowhere in src/, scripts/ or perfbench/ but
inside model.relay and model.start_state, and the engine modules
discrete.py and continuous.py never touch a `.carrier`.  The blocks the
engines' _paths yield are plain data but the position reader `at`: no
lambda and no nested function but `at` is defined inside _paths, and
`at` reads the walker paths alone, none of the names that hold layer
(b)'s pair gaps and meeting tables (LAYER_B).  Each model's check_run
holds every check of a run's inputs, so neither model.start_state nor
estimators.window raises a RelayError.  A self-check shows that each
rule sees what it looks for.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "ringrelay"
CALLERS = [SRC, ROOT / "scripts", ROOT / "perfbench"]
ENGINES = [SRC / "discrete.py", SRC / "continuous.py"]
LAYER_B = ("g", "base", "gap", "tbl")


def stray_calls(path: Path, callee: str = "pass_message",
                home: tuple = ("model.py", ("relay", "start_state"))) -> list[int]:
    """Lines of path that call callee, by name or as an attribute,
    outside its home: the top-level functions or classes home[1] in a
    module file home[0], by default the functions relay and start_state
    in model.py."""
    lines = []
    for node in ast.parse(path.read_text(), filename=str(path)).body:
        if (path.name == home[0] and isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and node.name in home[1]):
            continue
        for sub in ast.walk(node):
            if isinstance(sub, ast.Call):
                func = sub.func
                name = func.id if isinstance(func, ast.Name) else getattr(
                    func, "attr", None)
                if name == callee:
                    lines.append(sub.lineno)
    return lines


def carrier_uses(path: Path) -> list[int]:
    """Lines of path that read or set an attribute named carrier."""
    return [
        sub.lineno
        for sub in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(sub, ast.Attribute) and sub.attr == "carrier"
    ]


def block_callables(path: Path) -> list[tuple[int, str]]:
    """Line and name of each lambda, and of each function but at, defined
    inside a top-level function _paths of path."""
    found = []
    for node in ast.parse(path.read_text(), filename=str(path)).body:
        if isinstance(node, ast.FunctionDef) and node.name == "_paths":
            for sub in ast.walk(node):
                if isinstance(sub, ast.Lambda):
                    found.append((sub.lineno, "lambda"))
                elif (isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef))
                      and sub is not node and sub.name != "at"):
                    found.append((sub.lineno, sub.name))
    return found


def reader_loads(path: Path, names: tuple = LAYER_B) -> list[tuple[int, str]]:
    """Line and name of each load of one of names inside a function at
    nested in a top-level function _paths of path."""
    return sorted(
        (sub.lineno, sub.id)
        for node in ast.parse(path.read_text(), filename=str(path)).body
        if isinstance(node, ast.FunctionDef) and node.name == "_paths"
        for reader in ast.walk(node)
        if isinstance(reader, ast.FunctionDef) and reader.name == "at"
        for sub in ast.walk(reader)
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)
        and sub.id in names
    )


def relay_errors(path: Path, names: tuple) -> list[int]:
    """Lines of path that raise RelayError, by name or as an attribute,
    inside the top-level functions names."""
    return [
        sub.lineno
        for node in ast.parse(path.read_text(), filename=str(path)).body
        if isinstance(node, ast.FunctionDef) and node.name in names
        for sub in ast.walk(node)
        if isinstance(sub, ast.Raise) and any(
            getattr(n, "id", getattr(n, "attr", None)) == "RelayError"
            for n in ast.walk(sub))
    ]


def test_the_checks_see_what_they_look_for(tmp_path):
    model = tmp_path / "model.py"
    model.write_text(
        "def relay(x):\n    return pass_message(x)\n"
        "def other(x):\n    return pass_message(x)\n"
        "def start_state(x):\n    return pass_message(x)\n"
        "def start(x):\n    return pass_message(x)\n"
    )
    engine = tmp_path / "discrete.py"
    engine.write_text(
        "from . import model\n"
        "def run(state):\n    model.pass_message(state)\n"
        "    state.carrier = 1\n    return state.carrier\n"
    )
    assert stray_calls(model) == [4, 8]
    assert stray_calls(engine) == [3]
    assert carrier_uses(engine) == [4, 5]
    engine.write_text(
        "def _paths(n):\n"
        "    def at(w, t, i=None):\n        return w\n"
        "    def level(i):\n        return i\n"
        "    yield n, lambda i: i, level, at\n"
        "def other():\n    return lambda: 0\n"
    )
    assert block_callables(engine) == [(4, "level"), (6, "lambda")]
    engine.write_text(
        "def _paths(g, xs):\n"
        "    base = g\n"
        "    def at(w, t, i=None):\n        gap = xs[w]\n"
        "        return xs[w] + base[w] + g.ravel()[t]\n"
        "    yield g, at\n"
        "def at(g):\n    return g\n"
    )
    assert reader_loads(engine) == [(5, "base"), (5, "g")]
    model.write_text(
        "def start_state(x):\n    if x:\n        raise errors.RelayError(x)\n"
        "    raise ValueError(x)\n"
        "def window(x):\n    raise RelayError(x)\n"
        "def check_start(x):\n    raise errors.RelayError(x)\n"
    )
    assert relay_errors(model, ("start_state", "window")) == [3, 6]


def test_pass_message_is_called_only_by_relay():
    found = {p: stray_calls(p) for root in CALLERS for p in root.rglob("*.py")}
    assert {str(p.relative_to(ROOT)): at for p, at in found.items() if at} == {}


def test_engines_hold_no_carrier():
    assert {p.name: carrier_uses(p) for p in ENGINES} == {
        "discrete.py": [], "continuous.py": []}


def test_engine_blocks_hold_no_callable_but_at():
    assert {p.name: block_callables(p) for p in ENGINES} == {
        "discrete.py": [], "continuous.py": []}


def test_reader_reads_walker_paths_alone():
    assert {p.name: reader_loads(p) for p in ENGINES} == {
        "discrete.py": [], "continuous.py": []}


def test_start_and_window_raise_no_relay_error():
    # the start and the trace spacing are checked by each model's check_run
    assert relay_errors(SRC / "model.py", ("start_state",)) == []
    assert relay_errors(SRC / "estimators.py", ("window",)) == []
