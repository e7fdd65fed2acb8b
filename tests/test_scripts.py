"""The scripts, run end to end at tiny sizes."""
import csv
import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_walker_scaling(capsys):
    code = load("walker_scaling").main([
        "--walkers", "3", "5", "--steps", "300", "--horizon", "5",
    ])
    assert code == 0
    header, *rows = list(csv.reader(capsys.readouterr().out.splitlines()))
    assert header == ["m", "lattice_s", "lattice_walker_rounds_per_s",
                      "continuum_s", "continuum_time_per_s"]
    assert [row[0] for row in rows] == ["3", "5"]
    for row in rows:
        lattice_s, lattice_rate, continuum_s, continuum_rate = map(float, row[1:])
        assert lattice_rate == pytest.approx(int(row[0]) * 300 / lattice_s, rel=2e-3)
        assert continuum_rate == pytest.approx(5 / continuum_s, rel=2e-3)


def test_walker_scaling_bad_argument_exits_2():
    argv = ["--walkers", "1", "--steps", "100", "--horizon", "1"]
    assert load("walker_scaling").main(argv) == 2


def test_gate_seeds(capsys):
    code = load("gate_seeds").main(["--first", "20260815", "--count", "1",
                                    "--threads", "1"])
    assert code == 0
    header, *rows = list(csv.reader(capsys.readouterr().out.splitlines()))
    assert header[0] == "seed" and len(header) == 14
    assert header[-3:] == ["initial-state-independence", "discrete_passes",
                           "continuous_passes"]
    # the default seed passes every check, as validate reports it
    assert rows == [["20260815"] + ["1"] * 11 + ["99", "100"]]


def test_gate_seeds_bad_argument_exits_2():
    assert load("gate_seeds").main(["--count", "0"]) == 2
