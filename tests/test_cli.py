"""Command line contract: schemas, determinism, exit codes."""
import csv
import importlib.util
import json
import os
import re
import subprocess
import sys
import textwrap
from concurrent.futures import Future
from pathlib import Path

import numpy as np
import pytest

import ringrelay
from ringrelay import cli, validation
from ringrelay.cli import main
from ringrelay.continuous import simulate_continuous
from ringrelay.discrete import simulate_discrete
from ringrelay.errors import RelayError
from ringrelay.model import ContinuousConfig, DiscreteConfig, SeedSpec

ROOT = Path(__file__).resolve().parent.parent

# 21000 rounds give every point a handoff; at 20000, N=51 and eps=0.9 has none
DISCRETE_SWEEP = {
    "model": "discrete",
    "grid": {"N": [5, 11, 51], "epsilon": [round(0.05 * k, 2) for k in range(1, 20)]},
    "steps": 21000,
    "replicas": 1,
    "seed": 11,
}


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExact:
    def test_report_schema_and_agreement(self, capsys):
        code, out, _ = run_cli(
            capsys, "exact", "--set", "N=5", "--set", "epsilon=0.3"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["n_states"] == 38
        for dev in payload["deviations"].values():
            assert dev < 1e-10
        assert payload["exact_speed"] == pytest.approx(
            payload["closed_speed"], abs=1e-10
        )

    def test_hand_case(self, capsys):
        code, out, _ = run_cli(
            capsys, "exact", "--set", "N=3", "--set", "epsilon=0.5"
        )
        payload = json.loads(out)
        assert payload["bvp_A"] == pytest.approx(1 / 3, abs=1e-12)
        assert payload["oracle_A"] == pytest.approx(1 / 3, abs=1e-12)

    def test_size_limit(self, capsys):
        code, _, err = run_cli(
            capsys, "exact", "--set", "N=30003", "--set", "epsilon=0.3"
        )
        assert code == 2
        assert "size limit exceeded" in err

    def test_large_ring_matches_formula(self, capsys):
        # rings past 1000 sites are within the size limit
        code, out, _ = run_cli(
            capsys, "exact", "--set", "N=1001", "--set", "epsilon=0.3"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["N"] == 1001
        for dev in payload["deviations"].values():
            assert dev < 1e-10

    @pytest.mark.parametrize("eps", ["1e-17", "1e-300"])
    def test_tiny_epsilon_matches_formula(self, capsys, eps):
        # a same-direction state keeps itself with probability (1-eps)^2,
        # 1 in floating point here; the GTH pivots never form 1 - that
        code, out, err = run_cli(capsys, "exact", "--set", "N=5", "--set", f"epsilon={eps}")
        assert code == 0 and err == ""
        payload = json.loads(out)
        assert abs(payload["exact_speed"] - payload["closed_speed"]) <= 1e-13
        assert abs(payload["exact_cost"] / payload["closed_cost"] - 1) <= 1e-13
        for key in ("bvp_A", "oracle_A"):
            assert abs(payload[key] - payload["closed_A"]) <= 1e-13

    @pytest.mark.parametrize("eps", ["5e-324", "1e-312"])
    def test_subnormal_epsilon_is_config_error(self, capsys, eps):
        # a subnormal flip probability has fewer than 53 significant bits:
        # the exact solve came out nan, or far off the formula, on them
        code, out, err = run_cli(capsys, "exact", "--set", "N=5", "--set", f"epsilon={eps}")
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "smallest normal float" in err

    def test_rejects_continuous(self, capsys):
        code, _, _ = run_cli(
            capsys, "exact", "--set", "model=continuous", "--set", "N=5",
            "--set", "epsilon=0.3",
        )
        assert code == 2

    def test_rejects_many_walkers(self, capsys):
        code, out, err = run_cli(
            capsys, "exact", "--set", "N=5", "--set", "epsilon=0.3", "--set", "m=3",
        )
        assert code == 2
        assert err.startswith("error: ") and "m=2" in err and out == ""


class TestConfigHandling:
    def test_missing_key_is_config_error(self, capsys):
        code, _, err = run_cli(capsys, "simulate", "--set", "model=discrete")
        assert code == 2
        assert "missing config key" in err

    def test_bad_model_is_config_error(self, capsys):
        code, _, _ = run_cli(capsys, "simulate", "--set", "model=tandem")
        assert code == 2

    def test_malformed_set_is_config_error(self, capsys):
        code, _, err = run_cli(capsys, "exact", "--set", "N5")
        assert code == 2
        assert "KEY=VALUE" in err

    def test_infinite_horizon_is_config_error(self, capsys):
        code, out, err = run_cli(
            capsys, "simulate", "--set", "model=continuous", "--set", "N=1",
            "--set", "horizon=inf",
        )
        assert code == 2
        assert "horizon" in err and out == ""

    @pytest.mark.parametrize(
        "command,model,override,named",
        [
            pytest.param("simulate", "discrete", "trace_every=0.5", "trace_every",
                         id="lattice-fractional-trace"),
            pytest.param("simulate", "discrete", "trace_every=-3", "trace_every",
                         id="lattice-negative-trace"),
            pytest.param("simulate", "discrete", "sample_every=-5",
                         "unknown config key: 'sample_every'",
                         id="lattice-negative-sample"),
            pytest.param("simulate", "continuous", "sample_every=-2.5",
                         "unknown config key: 'sample_every'",
                         id="continuum-negative-sample"),
            pytest.param("simulate", "discrete", "epsilon=abc", "epsilon",
                         id="epsilon-not-a-number"),
            pytest.param("simulate", "continuous", "horizon=x", "horizon",
                         id="horizon-not-a-number"),
            pytest.param("sweep", "discrete", 'grid={"N": [5], "epsilon": ["x"]}',
                         "epsilon", id="sweep-epsilon-not-a-number"),
            pytest.param("sweep", "continuous", 'grid={"N": [1], "r": [null]}',
                         "r must be a number", id="sweep-null-rate"),
            pytest.param("sweep", "discrete", 'grid={"N": [5.7], "epsilon": [0.3]}',
                         "N must be an integer", id="sweep-fractional-N"),
            pytest.param("sweep", "discrete", "replicas=0", "replicas",
                         id="sweep-zero-replicas"),
            pytest.param("simulate", "discrete",
                         'initial={"positions": ["a", 1], "directions": [1, -1], '
                         '"carrier": 0}', "initial",
                         id="lattice-initial-not-a-number"),
            pytest.param("simulate", "continuous",
                         'initial={"positions": ["a", 1], "directions": [1, -1], '
                         '"carrier": 0}', "initial",
                         id="continuum-initial-not-a-number"),
            pytest.param("simulate", "discrete",
                         'initial={"positions": [[0], 1], "directions": [1, -1], '
                         '"carrier": 0}', "initial",
                         id="initial-nested-positions"),
            *(
                pytest.param("simulate", model, ("m=3", f"initial={state}"), named,
                             id=f"{model}-initial-{name}")
                for model in ("discrete", "continuous")
                for name, state, named in [
                    ("column-positions", '{"positions": [[0], [1], [2]], '
                     '"directions": [1, -1, 1], "carrier": 0}', "3 walkers"),
                    ("column-directions", '{"positions": [0, 1, 2], '
                     '"directions": [[1], [-1], [1]], "carrier": 0}', "3 walkers"),
                    ("scalar-positions", '{"positions": 3, '
                     '"directions": [1, -1, 1], "carrier": 0}', "3 walkers"),
                    ("unknown-key", '{"positions": [0, 1, 2], '
                     '"directions": [1, -1, 1], "carrier": 0, "x": 1}',
                     "unknown initial state key: 'x'"),
                ]
            ),
            pytest.param("simulate", "continuous",
                         'initial={"positions": [0, "nan"], "directions": [1, -1], '
                         '"carrier": 0}', "positions", id="continuum-nan-position"),
            pytest.param("simulate", "continuous",
                         'initial={"positions": [0, 0.5], "directions": [1, -1], '
                         '"carrier": 1.7}', "carrier", id="continuum-fractional-carrier"),
            pytest.param("simulate", "discrete",
                         'initial={"positions": [0, 2], "directions": [1, -1], '
                         '"carrier": true}', "carrier", id="lattice-bool-carrier"),
            pytest.param("simulate", "discrete",
                         'initial={"positions": [0, 2.7], "directions": [1, -1], '
                         '"carrier": 0}', "positions",
                         id="lattice-fractional-position"),
            pytest.param("simulate", "discrete",
                         'initial={"positions": [0, 1e300], "directions": [1, -1], '
                         '"carrier": 0}', "positions", id="lattice-huge-position"),
            pytest.param("simulate", "continuous",
                         'initial={"positions": [0, %d], "directions": [1, -1], '
                         '"carrier": 0}' % 10**400, "initial",
                         id="continuum-position-past-float"),
            pytest.param("simulate", "discrete",
                         'initial={"positions": [0, 2], "directions": [1, -1.5], '
                         '"carrier": 0}', "directions",
                         id="lattice-fractional-direction"),
            pytest.param("simulate", "continuous",
                         'initial={"positions": [0, 0.5], "directions": [1, -1.5], '
                         '"carrier": 0}', "directions",
                         id="continuum-fractional-direction"),
            *(
                pytest.param("simulate", model,
                             ("N=5", 'initial={"positions": %s, "directions": [1, -1], '
                              '"carrier": 0}' % positions), "positions must be",
                             id=f"{model}-{name}-position")
                for model in ("discrete", "continuous")
                for name, positions in [("bool", "[true, 0]"), ("string", '["3", 0]')]
            ),
            pytest.param("simulate", "discrete",
                         'initial={"positions": [2.5, 0], "directions": [1, -1], '
                         '"carrier": 0}', "positions must be an integer",
                         id="lattice-half-position"),
            pytest.param("simulate", "discrete", "seed=-1", "seed",
                         id="lattice-negative-seed"),
            pytest.param("simulate", "continuous", "seed=-2", "seed",
                         id="continuum-negative-seed"),
            pytest.param("sweep", "discrete", "seed=-3", "seed",
                         id="sweep-negative-seed"),
            pytest.param("validate", "discrete", "seed=-5", "seed",
                         id="validate-negative-seed"),
            pytest.param("simulate", "discrete", "stesp=10",
                         "unknown config key: 'stesp'", id="misspelt-key"),
            pytest.param("validate", "discrete", "foo=1",
                         "unknown config key: 'foo'", id="validate-unknown-key"),
            pytest.param("sweep", "discrete", "trace_every=10", "'trace_every'",
                         id="sweep-trace"),
            pytest.param("sweep", "discrete", "N=7", "'N'", id="sweep-top-level-N"),
            pytest.param("simulate", "continuous", "epsilon=0.1", "'epsilon'",
                         id="continuum-epsilon"),
            pytest.param("simulate", "discrete", "horizon=5", "'horizon'",
                         id="lattice-horizon"),
            pytest.param("simulate", "continuous", "N=true", "N must be a number",
                         id="bool-N"),
            pytest.param("simulate", "continuous", "v=true", "v must be a number",
                         id="bool-speed"),
            pytest.param("simulate", "continuous", f"v={10**400}", "v must be a number",
                         id="speed-past-float"),
            pytest.param("simulate", "continuous", "horizon=true",
                         "horizon must be a number", id="bool-horizon"),
            pytest.param("simulate", "discrete", f"steps={2**63}", "steps must be",
                         id="steps-past-int64"),
            pytest.param("simulate", "discrete", f"N={2**63 + 1}", "N must be",
                         id="N-past-int64"),
            pytest.param("simulate", "discrete", f"m={2**63}", "m must be",
                         id="m-past-int64"),
            pytest.param("simulate", "discrete", f"replicas={2**63}",
                         "replicas must be", id="replicas-past-int64"),
            pytest.param("simulate", "discrete", "out=5", "unknown config key: 'out'",
                         id="out-key"),
            pytest.param("sweep", "discrete",
                         'grid={"N": [5], "epsilon": [0.3], "r": [1.0]}', "'r'",
                         id="sweep-extra-grid-key"),
            pytest.param("simulate", "discrete", f"m={10**12}", "walkers",
                         id="lattice-m-past-bound"),
            pytest.param("simulate", "continuous", f"m={10**12}", "walkers",
                         id="continuum-m-past-bound"),
            pytest.param("simulate", "discrete", f"replicas={10**12}",
                         "replicas must be", id="replicas-past-bound"),
            pytest.param("sweep", "continuous", f"replicas={10**12}",
                         "replicas must be", id="sweep-replicas-past-bound"),
            pytest.param("simulate", "discrete", (f"steps={10**12}", "trace_every=1"),
                         "checkpoints", id="lattice-trace-past-bound"),
            pytest.param("simulate", "discrete", (f"steps={10**12}", "sample_every=1"),
                         "unknown config key", id="lattice-samples-past-bound"),
            pytest.param("simulate", "continuous", ("horizon=1e12", "trace_every=1"),
                         "checkpoints", id="continuum-trace-past-bound"),
            pytest.param("simulate", "continuous", ("N=1e-300", "horizon=1"),
                         "meetings", id="continuum-levels-overflow"),
            pytest.param("simulate", "continuous", ("N=1e-17", "horizon=1"),
                         "meetings", id="continuum-meetings-past-bound"),
            pytest.param("simulate", "continuous", ("N=1e308", "v=1e308", "r=1e-308"),
                         "float range", id="continuum-ring-and-speed-overflow"),
            pytest.param("simulate", "continuous", ("v=1e308", "r=1e-308"),
                         "float range", id="continuum-speed-overflow"),
            pytest.param("simulate", "continuous", "v=inf",
                         "speed must be > 0 and finite", id="continuum-infinite-speed"),
            # a batch's travel below 2**-32 of the positions' size: the
            # carrier's motion would be lost to float resolution
            pytest.param("simulate", "continuous", "horizon=5e-324", "per batch",
                         id="continuum-batch-underflow"),
            pytest.param("simulate", "continuous", "horizon=1e-300", "per batch",
                         id="continuum-tiny-horizon"),
            pytest.param("simulate", "continuous", ("N=1e300", "r=1e-300", "horizon=100"),
                         "per batch", id="continuum-huge-ring-short-run"),
            pytest.param("simulate", "continuous", "v=1e-300", "per batch",
                         id="continuum-tiny-speed"),
            pytest.param("simulate", "discrete", f"N={2**62 + 1}", "2**62",
                         id="lattice-N-past-bound"),
            pytest.param("simulate", "discrete", f"steps={2**52}", "2**53",
                         id="lattice-walker-rounds-past-bound"),
            pytest.param("simulate", "continuous", ("r=1e300", "horizon=1"), "2**53",
                         id="continuum-rate-past-bound"),
            pytest.param("simulate", "continuous", "horizon=1e300", "2**53",
                         id="continuum-horizon-past-bound"),
            pytest.param("sweep", "continuous", 'grid={"N": [1], "r": [1e300]}',
                         "2**53", id="sweep-rate-past-bound"),
            # --out: {tmp}/file is a regular file, {tmp}/dir a directory
            pytest.param("simulate", "discrete", "--out={tmp}/file",
                         "cannot write output", id="simulate-out-is-a-file"),
            pytest.param("simulate", "continuous", "--out={tmp}/file/run",
                         "cannot write output", id="simulate-out-under-a-file"),
            pytest.param("exact", "discrete", ("epsilon=0.3", "--out={tmp}/dir"),
                         "cannot write output", id="exact-out-is-a-directory"),
            pytest.param("exact", "discrete", ("epsilon=0.3", "--out={tmp}/file/x.json"),
                         "cannot write output", id="exact-out-under-a-file"),
            pytest.param("sweep", "discrete", "--out={tmp}/dir",
                         "cannot write output", id="sweep-out-is-a-directory"),
            pytest.param("validate", "discrete", "--out={tmp}/dir",
                         "cannot write output", id="validate-out-is-a-directory"),
            # json.loads alone keeps the last value of a key an object repeats
            pytest.param("exact", "discrete", "--config={tmp}/repeated.json",
                         "repeats key 'N'", id="config-file-repeated-key"),
            pytest.param("sweep", "discrete", 'grid={"N": [5], "N": [7], "epsilon": [0.3]}',
                         "repeats key 'N'", id="sweep-grid-repeated-key"),
            pytest.param("simulate", "discrete",
                         'initial={"positions": [0, 2], "directions": [1, -1], '
                         '"carrier": 0, "carrier": 1}', "repeats key 'carrier'",
                         id="initial-repeated-key"),
        ],
    )
    def test_malformed_value_is_config_error(
        self, capsys, tmp_path, command, model, override, named
    ):
        base = {
            ("simulate", "discrete"): ["N=5", "epsilon=0.3", "steps=500"],
            ("simulate", "continuous"): ["N=1", "horizon=50.0"],
            ("sweep", "discrete"): ["steps=500", 'grid={"N": [5], "epsilon": [0.3]}'],
            ("sweep", "continuous"): ["horizon=50.0", 'grid={"N": [1], "r": [0.5]}'],
            ("exact", "discrete"): ["N=5"],
            ("validate", "discrete"): [],
        }[command, model]
        overrides = (override,) if isinstance(override, str) else override
        sets = [kv for kv in overrides if not kv.startswith("--")]
        flags = [kv.format(tmp=tmp_path) for kv in overrides if kv.startswith("--")]
        (tmp_path / "file").write_text("")
        (tmp_path / "dir").mkdir()
        (tmp_path / "repeated.json").write_text('{"N": 5, "N": 7, "epsilon": 0.3}')
        args = [a for kv in [f"model={model}", *base, *sets] for a in ("--set", kv)]
        code, out, err = run_cli(capsys, command, *args, *flags)
        assert code == 2
        # every error, an unwritable --out too, comes before any work, as
        # the only line
        assert err.startswith("error: ") and err.count("\n") == 1 and named in err
        assert out == ""

    @pytest.mark.parametrize("command", ["simulate", "validate"])
    def test_negative_seed_flag_is_config_error(self, capsys, command):
        code, out, err = run_cli(capsys, command, "--set", "model=continuous",
                                 "--set", "N=1", "--seed", "-2")
        assert code == 2
        assert err.startswith("error: ") and "seed" in err
        assert out == ""

    def test_unreadable_config_file(self, capsys, tmp_path):
        # a missing file, and one that is not UTF-8 (it opens with the
        # UTF-16 byte-order mark)
        (tmp_path / "utf16.json").write_bytes(b"\xff\xfe{}")
        for name in ("missing.json", "utf16.json"):
            code, out, err = run_cli(capsys, "exact", "--config", str(tmp_path / name))
            assert code == 2 and out == ""
            assert err.startswith("error: cannot read config") and err.count("\n") == 1

    def test_config_file_with_overrides(self, capsys, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"N": 5, "epsilon": 0.3}))
        code, out, _ = run_cli(
            capsys, "exact", "--config", str(path), "--set", "epsilon=0.5"
        )
        assert code == 0
        assert json.loads(out)["epsilon"] == 0.5

    def test_seed_flag_overrides_config(self, capsys, tmp_path):
        cfg = {"model": "discrete", "N": 5, "epsilon": 0.3, "steps": 500, "seed": 1}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        _, out1, _ = run_cli(capsys, "simulate", "--config", str(path))
        _, out2, _ = run_cli(
            capsys, "simulate", "--config", str(path), "--seed", "2"
        )
        r1, r2 = json.loads(out1), json.loads(out2)
        assert r1["seeds"] != r2["seeds"]


class TestConfigTable:
    def test_readme_table_is_the_key_table(self):
        section = (ROOT / "README.md").read_text().split("### Configuration keys")[1]
        rows = {}
        for line in section.split("\n## ")[0].splitlines():
            if line.startswith("| `"):
                key, commands, models = (c.strip() for c in line.split("|")[1:4])
                rows[key.strip("`")] = (commands, models)
        assert list(rows) == list(cli._KEYS)
        for key, (commands, *types, _) in cli._KEYS.items():
            listed, models = rows[key]
            listed = cli.ALL if listed == "all" else listed.replace(",", " ")
            assert sorted(listed.split()) == sorted(commands.split()), key
            read_on = [m for m, t in zip(("discrete", "continuous"), types) if t]
            assert models == ("both" if len(read_on) == 2 else read_on[0]), key

    def test_readme_commands_are_the_commands(self):
        # every command and script README's code blocks show exists, and
        # they show every subcommand
        blocks = (ROOT / "README.md").read_text().split("```")[1::2]
        shown = {m for b in blocks for m in re.findall(r"^\s*ringrelay ([\w-]+)", b, re.M)}
        assert shown == set(cli._COMMANDS)
        scripts = {m for b in blocks for m in re.findall(r"\bscripts/(\w+\.py)", b)}
        assert scripts and all((ROOT / "scripts" / name).is_file() for name in scripts)

    @pytest.mark.parametrize("workload", ["gate", "lattice-exact", "many-walkers"])
    def test_benchmark_invocations_load(self, monkeypatch, tmp_path, workload):
        # every benchmark argv parses and loads; nothing runs
        spec = importlib.util.spec_from_file_location(
            "workloads", ROOT / "perfbench" / "workloads.py"
        )
        workloads = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, "workloads", workloads)
        spec.loader.exec_module(workloads)
        for seed in (0, 1):
            for inv in workloads.WORKLOADS[workload](tmp_path, seed, 2):
                args = cli.build_parser().parse_args(inv.argv)
                assert cli._load_config(args)["seed"] == int(args.seed), inv.label

    def test_traced_functions_exist(self):
        # Tracer.install fails on a missing name, so a traced benchmark run
        # breaks when a refactor renames or removes one of these
        spec = importlib.util.spec_from_file_location(
            "tracing", ROOT / "perfbench" / "tracing.py"
        )
        tracing = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracing)
        for module_name, functions in tracing.TRACED.items():
            module = importlib.import_module(f"ringrelay.{module_name}")
            for name in functions:
                assert callable(getattr(module, name, None)), (module_name, name)

    @pytest.mark.parametrize("simulate,config,length", [
        (simulate_discrete, DiscreteConfig(5, 0.3), 2000),
        (simulate_discrete, DiscreteConfig(5, 0.3, 3), 2000),
        (simulate_continuous, ContinuousConfig(1.0), 200.0),
        (simulate_continuous, ContinuousConfig(1.0, n_walkers=3), 200.0),
    ])
    def test_traced_counts_read_the_report(self, simulate, config, length):
        # the simulators' spans count handoffs and cycles off RunReport's
        # jump_count and n_cycles, as a traced benchmark run does
        spec = importlib.util.spec_from_file_location(
            "tracing", ROOT / "perfbench" / "tracing.py"
        )
        tracing = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracing)
        layer, describe = tracing.TRACED[simulate.__module__.split(".")[-1]][
            simulate.__name__]
        report = simulate(config, length, SeedSpec(3), "uniform-random")
        name, counts = describe((config, length), report)
        assert name == ("pair" if config.n_walkers == 2 else "many")
        assert counts["handoffs"] == report.jump_count > 0
        if layer == "continuous":
            assert counts["cycles"] == report.n_cycles
            assert (report.n_cycles > 0) == (config.n_walkers == 2)


class TestSimulate:
    def test_huge_ring_prints_finite_numbers(self, capsys):
        # batch means near 1e160 overflow their squares unless scaled
        code, out, _ = run_cli(
            capsys, "simulate", "--set", "model=continuous", "--set", "N=1e160",
            "--set", "v=1e160", "--set", "horizon=100",
        )
        assert code == 0
        payload = json.loads(out, parse_constant=pytest.fail)  # no NaN, Infinity
        assert 0 < payload["speed"]["stderr"] < payload["speed"]["point"]

    def test_tiny_ring_resolves_the_carrier(self, capsys):
        # ring, speed and rate all at 1e-300: no walker switches, and at
        # this seed both move counter-clockwise, so the carrier moves at -v
        code, out, _ = run_cli(
            capsys, "simulate", "--set", "model=continuous", "--set", "N=1e-300",
            "--set", "v=1e-300", "--set", "r=1e-300",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["speed"]["point"] == -1e-300
        assert 0 <= payload["direction_occupation"]["point"] < 1e-15

    def test_stdout_report_schema(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate",
            "--set", "model=continuous", "--set", "N=2",
            "--set", "horizon=200.0",
        )
        assert code == 0
        payload = json.loads(out)
        for key in ("speed", "cost", "direction_occupation", "cycles", "params"):
            assert key in payload
        assert payload["params"]["m"] == 2
        assert payload["cycles"]["count"] > 0

    def test_replicated_run_writes_files(self, capsys, tmp_path):
        out_dir = tmp_path / "run"
        code, _, _ = run_cli(
            capsys, "simulate",
            "--set", "model=discrete", "--set", "N=5",
            "--set", "epsilon=0.3", "--set", "steps=2000",
            "--set", "replicas=3", "--set", "trace_every=200",
            "--out", str(out_dir),
        )
        assert code == 0
        names = sorted(p.name for p in out_dir.iterdir())
        assert names == [
            "replica_000.json", "replica_001.json", "replica_002.json",
            "report.json",
            "trace_000.csv", "trace_001.csv", "trace_002.csv",
        ]
        merged = json.loads((out_dir / "report.json").read_text())
        assert len(merged["seeds"]) == 3
        with open(out_dir / "trace_000.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["step", "running_speed", "running_cost"]
        assert len(rows) == 1 + 2000 // 200

    @pytest.mark.parametrize("model", ["discrete", "continuous"])
    def test_one_replica_files(self, capsys, tmp_path, model):
        if model == "discrete":
            sets, length, trace = ["N=11", "epsilon=0.2", "steps=2000"], 2000, 100
            config, simulate = DiscreteConfig(11, 0.2, 3), simulate_discrete
        else:
            sets, length, trace = ["N=4", "v=1", "r=0.5", "horizon=300"], 300, 7.5
            config, simulate = ContinuousConfig(4.0, 1.0, 0.5, 3), simulate_continuous
        argv = ["simulate", "--seed", "5", "--set", f"model={model}", "--set", "m=3",
                "--set", f"trace_every={trace}"]
        for item in sets:
            argv += ["--set", item]
        _, printed, _ = run_cli(capsys, *argv)
        assert run_cli(capsys, *argv, "--out", str(tmp_path))[0] == 0
        # one replica: report.json is its replica file and the printed report
        report_json = (tmp_path / "report.json").read_text()
        assert report_json == (tmp_path / "replica_000.json").read_text()
        assert report_json == printed
        # trace rows: the step or time as cli._num prints it, the running
        # speed and cost as repr of the float
        report = simulate(config, length, SeedSpec(5, 0), trace_every=trace)
        with open(tmp_path / "trace_000.csv") as fh:
            rows = list(csv.reader(fh))[1:]
        assert len(rows) == len(report.trace_times) > 10
        for row, t, speed, cost in zip(rows, report.trace_times,
                                       report.trace_speed, report.trace_cost):
            assert row == [cli._num(t), repr(float(speed)), repr(float(cost))]

    def test_byte_identical_reruns(self, capsys, tmp_path):
        args = [
            "simulate", "--set", "model=discrete", "--set", "N=11",
            "--set", "epsilon=0.1", "--set", "steps=3000",
            "--set", "replicas=2",
        ]
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2

    def test_threads_do_not_change_output(self, capsys):
        args = [
            "simulate", "--set", "model=discrete", "--set", "N=5",
            "--set", "epsilon=0.3", "--set", "steps=2000",
            "--set", "replicas=4",
        ]
        _, serial, _ = run_cli(capsys, *args, "--threads", "1")
        _, parallel, _ = run_cli(capsys, *args, "--threads", "4")
        assert serial == parallel

    def test_replicas_too_short_for_batches(self, capsys):
        # steps < 50 leaves every replica without batches
        code, out, err = run_cli(
            capsys, "simulate", "--set", "model=discrete", "--set", "N=5",
            "--set", "epsilon=0.3", "--set", "steps=5", "--set", "replicas=3",
        )
        assert code == 0 and err == ""
        payload = json.loads(out)
        assert payload["speed"] is None and payload["cost"] is None
        assert payload["total_time"] == 15.0

    def test_explicit_initial_state(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate",
            "--set", "model=discrete", "--set", "N=5",
            "--set", "epsilon=0.3", "--set", "steps=500",
            "--set", 'initial={"positions": [0, 2], "directions": [1, -1], "carrier": 0}',
        )
        assert code == 0
        json.loads(out)

    def test_start_positions_past_float_stay_exact(self, capsys):
        # float64 would turn 2**53 + 1 into 2**53 and 2**62 - 3 into 2**62
        positions = [2**62 - 3, 2**53 + 1]
        spec = {"positions": positions, "directions": [1, -1], "carrier": 0}
        state = cli._build_initial(spec, "discrete")
        assert state.positions.dtype == np.int64
        assert state.positions.tolist() == positions
        code, out, err = run_cli(
            capsys, "simulate", "--set", "model=discrete", "--set", f"N={2**62 - 1}",
            "--set", "epsilon=0.1", "--set", "steps=200",
            "--set", f"initial={json.dumps(spec)}",
        )
        assert code == 0 and err == ""
        json.loads(out)

    def test_out_directory_is_made_before_any_replica(self, capsys, tmp_path,
                                                      monkeypatch):
        def replica(*args, **kwargs):
            raise AssertionError("a replica ran")

        monkeypatch.setattr(cli, "simulate_discrete", replica)
        (tmp_path / "file").write_text("")
        code, out, err = run_cli(
            capsys, "simulate", "--set", "model=discrete", "--set", "N=5",
            "--set", "epsilon=0.3", "--set", "steps=500",
            "--out", str(tmp_path / "file"),
        )
        assert code == 2 and out == ""
        assert err.startswith("error: cannot write output")


class TestSweep:
    def test_header_row_count_and_determinism(self, capsys, tmp_path):
        cfg_path = tmp_path / "sweep.json"
        cfg_path.write_text(json.dumps(DISCRETE_SWEEP))
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        assert run_cli(capsys, "sweep", "--config", str(cfg_path), "--out", str(out1))[0] == 0
        assert run_cli(capsys, "sweep", "--config", str(cfg_path), "--out", str(out2))[0] == 0
        text = out1.read_text()
        assert text == out2.read_text()
        assert text.endswith("\n")
        lines = text.splitlines()
        assert lines[0] == (
            "N,epsilon,s_formula,c_formula,s_exact,c_exact,"
            "s_mc,c_mc,s_mc_stderr,c_mc_stderr"
        )
        assert len(lines) == 1 + 57

    def test_formula_columns_shape(self, capsys, tmp_path):
        cfg_path = tmp_path / "sweep.json"
        cfg_path.write_text(json.dumps(DISCRETE_SWEEP))
        out = tmp_path / "c.csv"
        run_cli(capsys, "sweep", "--config", str(cfg_path), "--out", str(out))
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        for n in ("5", "11", "51"):
            series = [float(r["s_formula"]) for r in rows if r["N"] == n]
            assert all(a > b for a, b in zip(series, series[1:]))
            costs = [float(r["c_formula"]) for r in rows if r["N"] == n]
            second = [a - 2 * b + c for a, b, c in zip(costs, costs[1:], costs[2:])]
            assert all(d < 0 for d in second)
        for r in rows:
            assert abs(float(r["s_exact"]) - float(r["s_formula"])) < 1e-10

    def test_continuous_sweep_header(self, capsys, tmp_path):
        cfg = {
            "model": "continuous",
            "grid": {"N": [1, 2], "r": [0.5, 1.0]},
            "horizon": 100.0,
            "seed": 3,
        }
        cfg_path = tmp_path / "s.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "s.csv"
        assert run_cli(capsys, "sweep", "--config", str(cfg_path), "--out", str(out))[0] == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "N,r,s_formula,c_formula,s_mc,c_mc,s_mc_stderr,c_mc_stderr"
        assert len(lines) == 1 + 4

    def test_tiny_epsilon_exits_cleanly(self, capsys):
        # 500 rounds at eps = 1e-17 hold no flip: the sweep may refuse the
        # Monte Carlo point with a message, but never raise
        code, out, err = run_cli(
            capsys, "sweep", "--set", "model=discrete", "--set", "steps=500",
            "--set", 'grid={"N": [5], "epsilon": [1e-17]}',
        )
        if code == 2:
            assert err.startswith("error: ") and err.count("\n") == 1 and out == ""
        else:
            assert code == 0 and err == ""
            row = next(csv.DictReader(out.splitlines()))
            assert abs(float(row["s_exact"]) - float(row["s_formula"])) <= 1e-13

    def test_point_without_error_bar_exits_2(self, capsys):
        # no flip in 500 rounds: every batch mean is equal, so the point's
        # batch-means standard error is 0 and its s_mc=-1 would pass for exact
        code, out, err = run_cli(
            capsys, "sweep", "--set", "model=discrete", "--set", "steps=500",
            "--set", 'grid={"N": [5], "epsilon": [1e-17]}',
        )
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "N=5, epsilon=1e-17" in err

    def test_point_without_handoff_exits_2(self, capsys, tmp_path):
        # at 2000 rounds, four points at N=51 (eps 0.75 to 0.95) have no
        # handoff: their c_mc=0 with c_mc_stderr=0 would pass for exact
        cfg_path = tmp_path / "sweep.json"
        cfg_path.write_text(json.dumps({**DISCRETE_SWEEP, "steps": 2000}))
        code, out, err = run_cli(capsys, "sweep", "--config", str(cfg_path))
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "N=51, epsilon=0.75" in err and "Monte Carlo cost" in err

    def test_missing_grid(self, capsys):
        code, _, _ = run_cli(capsys, "sweep", "--set", "model=discrete")
        assert code == 2

    @pytest.mark.parametrize(
        "model,var", [("discrete", "epsilon"), ("continuous", "r")]
    )
    def test_rejects_many_walkers(self, capsys, model, var):
        # the formula and exact columns are two-walker values
        length = "steps=500" if model == "discrete" else "horizon=50.0"
        code, out, err = run_cli(
            capsys, "sweep", "--set", f"model={model}", "--set", "m=3",
            "--set", length,
            "--set", f'grid={{"N": [5], "{var}": [0.3]}}',
        )
        assert code == 2
        assert err.startswith("error: ") and "m=2" in err and out == ""

    def test_size_limit_checked_before_any_point_runs(self, capsys, monkeypatch):
        monkeypatch.setattr(
            validation, "RunQueue", lambda *a: pytest.fail("a grid point ran")
        )
        code, out, err = run_cli(
            capsys, "sweep", "--set", "model=discrete",
            "--set", 'grid={"N": [5, 30003], "epsilon": [0.3]}',
        )
        assert code == 2
        assert "size limit exceeded" in err and out == ""

    def test_run_checks_precede_any_point(self, capsys, monkeypatch):
        # the N=2 point is sound; at N=1e300 the message moves too little
        # per batch to resolve, which the sweep refuses before any point runs
        calls = []

        def replica(*args, **kwargs):
            calls.append(args)
            return simulate_continuous(*args, **kwargs)

        monkeypatch.setattr(cli, "simulate_continuous", replica)
        code, out, err = run_cli(
            capsys, "sweep", "--set", "model=continuous", "--set", "horizon=2000000",
            "--set", 'grid={"N": [2, 1e300], "r": [1]}',
        )
        assert (len(calls), code, out) == (0, 2, "")
        assert "too little to resolve on a ring of 1e+300" in err


class TestValidateCommand:
    # the real checklist runs in test_acceptance; here only the wiring
    def fake_results(self, ok):
        return [
            validation.CheckResult("first", True, {"x": 1.0}, "tol", "why", 0.1),
            validation.CheckResult("second", ok, {"y": 2}, "tol", "why", 0.2),
        ]

    def test_all_pass_exits_zero(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setattr(
            validation, "run_all",
            lambda seed, threads, emit=None: self.fake_results(True),
        )
        out_path = tmp_path / "report.json"
        code, _, _ = run_cli(capsys, "validate", "--out", str(out_path))
        assert code == 0
        payload = json.loads(out_path.read_text())
        assert payload["passed"] is True
        assert [c["name"] for c in payload["checks"]] == ["first", "second"]
        assert all("tolerance" in c and "reference" in c for c in payload["checks"])

    def test_failure_exits_one(self, capsys, monkeypatch):
        monkeypatch.setattr(
            validation, "run_all",
            lambda seed, threads, emit=None: self.fake_results(False),
        )
        code, out, _ = run_cli(capsys, "validate")
        assert code == 1
        assert json.loads(out)["passed"] is False

    def test_line_formatting(self):
        r = validation.CheckResult("name", True, {"v": 0.5}, "t", "r", 1.0)
        assert r.line().startswith("PASS name")
        r2 = validation.CheckResult("name", False, {"v": 0.5}, "t", "r", 1.0)
        assert r2.line().startswith("FAIL name")


class FakeFuture(Future):
    """A queued job that runs in this process when its result is read."""

    def __init__(self, func, args):
        super().__init__()
        self.job = func, args

    def result(self, timeout=None):
        if not self.done():
            func, args = self.job
            self.set_result(func(*args))
        return super().result(timeout)


class FakePool:
    """Stands in for ProcessPoolExecutor: records its size, the jobs queued
    on it and its shutdown, runs the jobs in this process and starts no
    worker."""

    def __init__(self, made, max_workers):
        self.max_workers, self.shut, self.queued = max_workers, False, []
        made.append(self)

    def map(self, func, *iterables):
        return map(func, *iterables)

    def submit(self, func, *args):
        self.queued.append(FakeFuture(func, args))
        return self.queued[-1]

    def shutdown(self, cancel_futures=False):
        self.shut = True
        if cancel_futures:
            for future in self.queued:
                future.cancel()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.shutdown()


class TestWorkerPool:
    @pytest.fixture
    def made(self, monkeypatch):
        made = []
        monkeypatch.setattr(
            validation, "ProcessPoolExecutor",
            lambda max_workers: FakePool(made, max_workers),
        )
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)))
        return made

    @pytest.mark.parametrize("threads,n_jobs,workers", [
        (10**6, 3, 3), (10**6, 100, 8), (2, 100, 2), (1, 100, None),
        (10**6, 1, None), (4, 0, None),
    ])
    def test_no_more_workers_than_threads_jobs_or_cpus(
        self, made, threads, n_jobs, workers
    ):
        jobs = [(k,) for k in range(n_jobs)]
        with validation.RunQueue({"jobs": (abs, jobs)}, threads) as queue:
            assert queue.run("jobs") == list(range(n_jobs))
        assert [p.max_workers for p in made] == ([workers] if workers else [])
        assert all(p.shut for p in made)

    def test_huge_thread_count_opens_a_small_pool(self, capsys, made):
        code, _, _ = run_cli(
            capsys, "simulate", "--threads", str(10**9), "--set", "model=discrete",
            "--set", "N=5", "--set", "epsilon=0.3", "--set", "steps=200",
            "--set", "replicas=3",
        )
        assert code == 0
        assert [p.max_workers for p in made] == [3]

    @pytest.fixture
    def small_table(self, monkeypatch):
        table = {"two": (abs, [(-1,), (-2,)]),
                 "nine": (abs, [(k,) for k in range(-9, 0)])}
        monkeypatch.setattr(validation, "run_table", lambda seed: table)
        return table

    def test_context_keeps_one_pool_until_closed(self, made, small_table):
        with validation.AcceptanceContext(threads=4) as ctx:
            assert ctx.run("two") == [1, 2]
            assert ctx.run("nine") == list(range(9, 0, -1))
            assert [p.max_workers for p in made] == [4]
            assert not made[0].shut
        assert made[0].shut

    def test_gate_queues_the_run_table_before_the_first_check(
        self, made, monkeypatch
    ):
        seen = []

        # by repr: two equal partials are not ==, and repr shows their keywords
        def first_check(ctx):
            seen.append([(repr(f.job[0]), repr(f.job[1])) for f in made[0].queued])
            raise RuntimeError("check failed")

        monkeypatch.setattr(validation, "ALL_CHECKS", [first_check])
        with pytest.raises(RuntimeError, match="check failed"):
            validation.run_all(threads=2)
        table = validation.run_table(validation.DEFAULT_SEED)
        assert seen == [[(repr(func), repr(job)) for func, jobs in table.values()
                         for job in jobs]]
        assert list(table)[0] == "continuous_reference"
        assert [p.max_workers for p in made] == [2]
        # the raising check leaves the pool shut and no queued job run
        assert made[0].shut
        assert all(f.cancelled() for f in made[0].queued)

    @pytest.mark.parametrize("threads,pools", [(1, 0), (2, 1)])
    def test_threads_choose_pool_or_in_process(
        self, made, small_table, monkeypatch, threads, pools
    ):
        def check(ctx):
            return validation.CheckResult("small", True, {"two": ctx.run("two")},
                                          "", "")

        monkeypatch.setattr(validation, "ALL_CHECKS", [check])
        results = validation.run_all(threads=threads)
        assert [r.measured for r in results] == [{"two": [1, 2]}]
        assert len(made) == pools and all(p.shut for p in made)

    def test_replica_that_raises_cancels_the_rest(self, capsys, made, monkeypatch):
        ran = []

        def replica(config, steps, seed, initial, trace_every):
            ran.append(seed.replica)
            if seed.replica == 1:
                raise RelayError("replica 1 failed")
            return simulate_discrete(config, steps, seed, initial)

        monkeypatch.setattr(cli, "simulate_discrete", replica)
        code, out, err = run_cli(
            capsys, "simulate", "--threads", "2", "--set", "model=discrete",
            "--set", "N=5", "--set", "epsilon=0.3", "--set", "steps=200",
            "--set", "replicas=3",
        )
        assert code == 2 and out == ""
        assert err.startswith("error:") and "replica 1 failed" in err
        assert [p.max_workers for p in made] == [2] and made[0].shut
        # the third replica was queued, then cancelled before it ran
        assert ran == [0, 1] and len(made[0].queued) == 3
        assert made[0].queued[2].cancelled()

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_threads_below_one_is_config_error(self, capsys, made, threads):
        code, out, err = run_cli(
            capsys, "simulate", "--threads", threads, "--set", "model=discrete",
            "--set", "N=5", "--set", "epsilon=0.3", "--set", "steps=200",
        )
        assert code == 2 and out == ""
        assert err.startswith("error:") and "--threads" in err
        assert made == []


def run_fresh(script: str) -> str:
    """stdout of script in a fresh interpreter that imports this ringrelay."""
    src = str(Path(ringrelay.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=120, env={**os.environ, "PYTHONPATH": path})
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_gate_forks_its_pool_without_scipy():
    # the chi-square tail is summed in closed form, so neither the gate
    # nor the workers it forks carry scipy
    script = textwrap.dedent("""
        import json, os, sys
        from ringrelay import validation
        os.sched_getaffinity = lambda pid: {0, 1}
        seen = []
        validation.ProcessPoolExecutor = lambda max_workers: seen.append(
            sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
        validation.ALL_CHECKS = []
        validation.run_all(threads=2)
        print(json.dumps(seen))
    """)
    assert json.loads(run_fresh(script)) == [[]]


def test_import_and_simulate_load_no_scipy():
    # start-up and every command, the gate and its chi-square included,
    # run on numpy alone; a fresh interpreter shows it
    script = textwrap.dedent("""
        import contextlib, io, json, sys
        def scipy_modules():
            return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
        import ringrelay.cli as cli
        loaded = [scipy_modules()]
        for argv in [
            ["simulate", "--set", "model=discrete", "--set", "N=5",
             "--set", "epsilon=0.3", "--set", "steps=500"],
            ["simulate", "--set", "model=continuous", "--set", "N=1",
             "--set", "horizon=50.0"],
            ["exact", "--set", "N=101", "--set", "epsilon=0.1"],
            ["sweep", "--set", "model=discrete", "--set", "steps=500",
             "--set", 'grid={"N": [5, 11], "epsilon": [0.3]}'],
            ["validate", "--threads", "2"],
            ["validate", "--threads", "1"],
        ]:
            with contextlib.redirect_stdout(io.StringIO()), \\
                    contextlib.redirect_stderr(io.StringIO()):
                assert cli.main(argv) == 0
            loaded.append(scipy_modules())
        print(json.dumps(loaded))
    """)
    assert json.loads(run_fresh(script)) == [[]] * 7
