"""The message is resolved by one rule, in model.relay and at the start.

The engines yield walker paths and meetings; model.relay alone turns
them into readings, and model.start_state resolves the start through the
same rule.  On the standard library's ast: pass_message, the package's
one relay rule, is called nowhere in src/, scripts/ or perfbench/ but
inside model.relay and model.start_state, and the engine modules
discrete.py and continuous.py never touch a `.carrier`.  A self-check
shows that both rules see what they look for.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "ringrelay"
CALLERS = [SRC, ROOT / "scripts", ROOT / "perfbench"]
ENGINES = [SRC / "discrete.py", SRC / "continuous.py"]


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


def test_pass_message_is_called_only_by_relay():
    found = {p: stray_calls(p) for root in CALLERS for p in root.rglob("*.py")}
    assert {str(p.relative_to(ROOT)): at for p, at in found.items() if at} == {}


def test_engines_hold_no_carrier():
    assert {p.name: carrier_uses(p) for p in ENGINES} == {
        "discrete.py": [], "continuous.py": []}
