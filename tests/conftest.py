"""Fixtures shared by the engine tests."""
import pytest

from oracles import CycleCapture
from ringrelay import model


@pytest.fixture
def later_supplies(monkeypatch):
    """Watches model.pass_message for the test.  Calling the fixture's
    value gives the handoffs since its last call whose new carrier came
    from a later meeting than the deciding one: tie-breaks won by a walker
    other than the deciding meeting's clockwise member."""
    seen = []
    resolve = model.pass_message

    def record(*args):
        hit, after, given = resolve(*args)
        seen.append(int((given != hit).sum()))
        return hit, after, given

    def count():
        total = sum(seen)
        seen.clear()
        return total

    monkeypatch.setattr(model, "pass_message", record)
    return count


@pytest.fixture
def cycle_arrays(monkeypatch):
    """Watches model.fold_cycles for the test.  Calling the fixture's
    value on a report of a run made meanwhile gives that run's cycles as
    per-cycle arrays (oracles.CycleCapture.arrays)."""
    capture = CycleCapture(model.fold_cycles)
    monkeypatch.setattr(model, "fold_cycles", capture)
    return capture.arrays
