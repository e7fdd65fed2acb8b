"""Command-line front end.

One JSON config document drives everything; `--set key=value` overrides
individual keys (values are parsed as JSON, falling back to raw strings).
`_KEYS` is the one table of config keys; a key that the subcommand does
not read on its model is refused.
Outputs are plain CSV and JSON, deterministic byte for byte for a fixed
config: floats are emitted with `repr`, JSON keys are sorted, CSV rows
end with a newline.  Every subcommand's jobs run through
validation.RunQueue, and `exact` prints validation.exact_comparison, the
table the gate's exact checks read.

Exit codes: 0 success, 1 a validation-style check failed, 2 the config
was unusable.
"""
from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import sys
from collections import Counter
from pathlib import Path

import numpy as np

from . import closed_form, estimators, exact, validation
from .continuous import check_run, simulate_continuous
from .discrete import simulate_discrete
from .errors import RelayError
from .model import ContinuousConfig, DiscreteConfig, SeedSpec, State

EXACT_SIZE_LIMIT = 30001
MAX_REPLICAS = 10_000  # one job, and one report held until the merge, each


# ----------------------------------------------------------------------
# config keys


def _int64(key: str, value, low: int = -(2**63), high: int = 2**63) -> int:
    """An integer, not a bool, in [low, high), which numpy takes as int64."""
    if type(value) is not int or not low <= value < high:
        top = "2**63" if high == 2**63 else high
        bounds = "int64 range" if low < 0 else f"[{low}, {top})"
        raise RelayError(f"{key} must be an integer in {bounds}, got {value!r}")
    return value


def _number(key: str, value) -> float:
    """A number, not a bool; a string is read as float() reads it."""
    try:
        if not isinstance(value, bool):
            return float(value)
    except (TypeError, ValueError, OverflowError):
        pass
    raise RelayError(f"{key} must be a number, got {value!r}")


def _json(name: str, *types):
    """The check of a JSON value of the given Python types."""
    def check(key: str, value):
        if not isinstance(value, types):
            raise RelayError(f"{key} must be {name}, got {value!r}")
        return value

    return check


REQUIRED = object()
ALL = "simulate sweep exact validate"
# The models each subcommand takes: exact the lattice only, and by
# default; validate reads no model.
BOTH = ("discrete", "continuous")
_MODELS = {"simulate": BOTH, "sweep": BOTH, "exact": ("discrete",)}
_STR, _OBJ = _json("a string", str), _json("an object", dict)
_INITIAL = _json("a mode string or a state object", str, dict)
_SEED = functools.partial(_int64, low=0)
_REPLICAS = functools.partial(_int64, low=1, high=MAX_REPLICAS + 1)

# key: (subcommands that read it, type on the lattice, type on the
# continuum, default).  A type of None: the model has no such key.
# validate reads only the seed; it takes every known key and ignores the
# others, so one config document serves every command.
_KEYS = {
    "model": ("simulate sweep exact", _STR, _STR, REQUIRED),
    "N": ("simulate exact", _int64, _number, REQUIRED),
    "epsilon": ("simulate exact", _number, None, REQUIRED),
    "v": ("simulate sweep", None, _number, 1.0),
    "r": ("simulate", None, _number, 1.0),
    "m": ("simulate sweep exact", _int64, _int64, 2),
    "steps": ("simulate sweep", _int64, None, 100_000),
    "horizon": ("simulate sweep", None, _number, 10_000.0),
    "replicas": ("simulate sweep", _REPLICAS, _REPLICAS, 1),
    "seed": (ALL, _SEED, _SEED, validation.DEFAULT_SEED),
    "initial": ("simulate", _INITIAL, _INITIAL, "uniform-random"),
    "trace_every": ("simulate", _int64, _number, None),
    "grid": ("sweep", _OBJ, _OBJ, REQUIRED),
}


def _distinct_keys(pairs: list) -> dict:
    """A JSON object; json.loads alone keeps a repeated key's last value."""
    for key in sorted(k for k, n in Counter(k for k, _ in pairs).items() if n > 1):
        raise RelayError(f"a JSON object repeats key {key!r}")
    return dict(pairs)


def _load_config(args) -> dict:
    """The config of args.command: the file, then the --set overrides,
    then --seed.  Every key it reads is typed or defaulted; null leaves a
    key at its default."""
    cfg: dict = {}
    if args.config:
        try:
            text = Path(args.config).read_text(encoding="utf-8")
            cfg = json.loads(text, object_pairs_hook=_distinct_keys)
        except (OSError, UnicodeDecodeError) as err:
            raise RelayError(f"cannot read config: {err}") from err
        except json.JSONDecodeError as err:
            raise RelayError(f"config is not valid JSON: {err}") from err
        if not isinstance(cfg, dict):
            raise RelayError("config root must be a JSON object")
    for item in args.overrides:
        key, sep, raw = item.partition("=")
        if not sep or not key:
            raise RelayError(f"--set expects KEY=VALUE, got {item!r}")
        try:
            cfg[key.strip()] = json.loads(raw, object_pairs_hook=_distinct_keys)
        except json.JSONDecodeError:
            cfg[key.strip()] = raw
    if args.seed is not None:
        cfg["seed"] = args.seed
    for key in sorted(cfg.keys() - _KEYS.keys()):
        raise RelayError(f"unknown config key: {key!r}")
    models = _MODELS.get(args.command, ())
    if len(models) == 1 and cfg.get("model") is None:
        cfg["model"] = models[0]
    model = cfg.get("model")
    if models and model not in models:
        names = " or ".join(map(repr, models))
        raise RelayError(f"{args.command} takes model {names}, got {model!r}")
    typed = {}
    for key, (commands, *types, default) in _KEYS.items():
        check, value = types[model == "continuous"], cfg.get(key)
        if args.command not in commands.split() or check is None:
            if key in cfg and models:
                raise RelayError(f"{args.command} does not read config key "
                                 f"{key!r} on the {model} model")
        elif value is None and default is REQUIRED:
            raise RelayError(f"missing config key: {key!r}")
        else:
            typed[key] = default if value is None else check(key, value)
    return typed


def _model_config(cfg: dict):
    """The checked model parameters of a typed config."""
    if cfg["model"] == "discrete":
        return DiscreteConfig(cfg["N"], cfg["epsilon"], cfg["m"])
    return ContinuousConfig(cfg["N"], cfg["v"], cfg["r"], cfg["m"])


def _two_walker_config(cfg: dict):
    """The model config of a run compared with the two-walker formulas or
    exact solves (exact, sweep): m must be 2, and a lattice ring
    must have at most EXACT_SIZE_LIMIT sites."""
    if cfg["model"] == "discrete" and cfg["N"] > EXACT_SIZE_LIMIT:
        raise RelayError(f"size limit exceeded: N={cfg['N']} > {EXACT_SIZE_LIMIT}")
    if cfg["m"] != 2:
        raise RelayError(f"the two-walker formulas need m=2, got m={cfg['m']}")
    return _model_config(cfg)


def _build_initial(spec, kind: str):
    if isinstance(spec, str):
        return spec
    for key in sorted(spec.keys() - {"positions", "directions", "carrier"}):
        raise RelayError(f"unknown initial state key: {key!r}")
    try:
        positions = _numbers(spec, "positions", whole=kind == "discrete")
        directions = _numbers(spec, "directions", whole=True)
        return State(positions, directions, _int64("carrier", spec["carrier"]))
    except (KeyError, TypeError, ValueError, OverflowError) as err:
        raise RelayError(f"bad initial state: {err}") from err


def _numbers(spec: dict, key: str, whole: bool) -> np.ndarray:
    """spec[key], of any shape, as int64 if whole, else float.  Each
    element must be a JSON number, not a bool; if whole, an integer as
    _int64 takes it or a whole float, so none is rounded."""
    values = np.asarray(spec[key], dtype=object)
    read = [_int64(key, int(x) if type(x) is float and x.is_integer() else x)
            if whole else x for x in values.flat]
    if not all(type(x) in (int, float) for x in read):
        raise ValueError(f"{key} must be numbers, got {spec[key]!r}")
    return np.array(read, dtype=np.int64 if whole else float).reshape(values.shape)


# ----------------------------------------------------------------------
# serialization helpers


def _make_out(out: Path | None, directory: bool = False) -> None:
    """Make the output place before any work runs: the directory out, or
    the directory of the file out, which must not be a directory and must
    be writable."""
    if out is None:
        return
    try:
        (out if directory else out.parent).mkdir(parents=True, exist_ok=True)
    except OSError as err:
        raise RelayError(f"cannot write output: {err}") from err
    if not directory and out.is_dir():
        raise RelayError(f"cannot write output: {out} is a directory")
    if not os.access(out if out.exists() else out.parent, os.W_OK):
        raise RelayError(f"cannot write output: {out} is not writable")


def _emit(text: str, out: Path | None) -> None:
    """Print text, or write it to the file out, whose place _make_out
    made.  An OSError is a config error."""
    if out is None:
        sys.stdout.write(text)
        return
    try:
        out.write_text(text)
    except OSError as err:
        raise RelayError(f"cannot write output: {err}") from err


def _dump_json(payload, out: Path | None) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True, default=lambda v: v.tolist())
    _emit(text + "\n", out)


def _num(x) -> str:
    x = float(x)
    if x.is_integer() and abs(x) < 1e15:
        return str(int(x))
    return repr(x)


def _write_csv(rows, header, out: Path | None) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    _emit(buf.getvalue(), out)


def _try_estimate(fn, report):
    try:
        est = fn(report)
    except RelayError:
        return None
    return {
        "point": float(est.point),
        "stderr": float(est.stderr),
        "n_batches": est.n_batches,
    }


def _report_payload(report) -> dict:
    payload = {
        "params": report.params,
        "seeds": report.seeds,
        "total_time": float(report.total_time),
        "burn_in": float(report.burn_in),
        "totals": {
            "displacement": float(report.displacement_sum),
            "jumps": float(report.jump_count),
            "clockwise_time": float(report.clockwise_time),
        },
        "speed": _try_estimate(estimators.speed_estimate, report),
        "cost": _try_estimate(estimators.cost_estimate, report),
        "direction_occupation": _try_estimate(estimators.direction_estimate, report),
        "cycles": None,
    }
    if report.n_cycles >= 1:
        cycles = estimators.excursion_classifier(report)
        payload["cycles"] = {
            "count": report.n_cycles,
            "mean_length": cycles.lengths.mean(),
            "jump_fraction": cycles.handoffs / report.n_cycles,
            "wrap_fraction": cycles.wraps / report.n_cycles,
            "max_displacement_dev": cycles.max_deviation,
        }
    return payload


# ----------------------------------------------------------------------
# subcommands


def cmd_simulate(args) -> int:
    cfg = _load_config(args)
    kind = cfg["model"]
    config = _model_config(cfg)
    length = cfg["steps"] if kind == "discrete" else cfg["horizon"]
    initial = _build_initial(cfg["initial"], kind)
    simulate = functools.partial(
        simulate_discrete if kind == "discrete" else simulate_continuous,
        trace_every=cfg["trace_every"],
    )
    seed, replicas = cfg["seed"], cfg["replicas"]
    jobs = [(config, length, SeedSpec(seed, k), initial) for k in range(replicas)]
    _make_out(args.out, directory=True)
    with validation.RunQueue({"replicas": (simulate, jobs)}, args.threads) as queue:
        reports = queue.run("replicas")
    merged = estimators.merge(reports)

    if args.out is None:
        _dump_json(_report_payload(merged), None)
        return 0
    for k, report in enumerate(reports):
        _dump_json(_report_payload(report), args.out / f"replica_{k:03d}.json")
        if report.trace_times is not None:
            time_col = "step" if kind == "discrete" else "time"
            rows = zip(map(_num, report.trace_times.tolist()),
                       map(repr, report.trace_speed.tolist()),
                       map(repr, report.trace_cost.tolist()))
            _write_csv(
                rows,
                [time_col, "running_speed", "running_cost"],
                args.out / f"trace_{k:03d}.csv",
            )
    _dump_json(_report_payload(merged), args.out / "report.json")
    return 0


def cmd_exact(args) -> int:
    config = _two_walker_config(_load_config(args))
    _make_out(args.out)
    _dump_json(validation.exact_comparison(config.n_sites, config.flip_prob), args.out)
    return 0


def cmd_sweep(args) -> int:
    cfg = _load_config(args)
    kind, grid = cfg["model"], cfg["grid"]
    var_key = "epsilon" if kind == "discrete" else "r"
    for key in [*grid, "N", var_key]:
        if key not in ("N", var_key):
            raise RelayError(f"a {kind} sweep grid has no key {key!r}")
        if not (isinstance(grid.get(key), list) and grid[key]):
            raise RelayError(f"grid must list 'N' and '{var_key}' values")
    # every grid point is checked before any of them runs
    n_type, var_type = (_KEYS[k][1 + (kind == "continuous")] for k in ("N", var_key))
    configs = [
        _two_walker_config({**cfg, "N": n_type("N", n), var_key: var_type(var_key, v)})
        for n in grid["N"]
        for v in grid[var_key]
    ]
    length = cfg["steps"] if kind == "discrete" else cfg["horizon"]
    if kind == "continuous":
        for config in configs:
            check_run(config, length)
    _make_out(args.out)
    simulate = simulate_discrete if kind == "discrete" else simulate_continuous
    exact_columns = ["s_exact", "c_exact"] if kind == "discrete" else []
    header = ["N", var_key, "s_formula", "c_formula", *exact_columns,
              "s_mc", "c_mc", "s_mc_stderr", "c_mc_stderr"]
    rows = []
    for point, config in enumerate(configs):
        if kind == "discrete":
            n, value = config.n_sites, config.flip_prob
            metrics = exact.exact_metrics(n, value)
            fixed = [
                closed_form.speed_discrete(n, value),
                closed_form.cost_discrete(n, value),
                metrics.speed,
                metrics.cost,
            ]
        else:
            n, value = config.circumference, config.switch_rate
            fixed = [
                closed_form.speed_continuous(n, config.speed, value),
                closed_form.cost_continuous(n, config.speed, value),
            ]
        jobs = [
            (config, length, SeedSpec(cfg["seed"], point * cfg["replicas"] + k))
            for k in range(cfg["replicas"])
        ]
        with validation.RunQueue({"replicas": (simulate, jobs)}, args.threads) as queue:
            merged = estimators.merge(queue.run("replicas"))
        s = estimators.speed_estimate(merged)
        c = estimators.cost_estimate(merged)
        for name, est in (("speed", s), ("cost", c)):
            if est.stderr == 0:  # no flip, or no handoff, in the run
                raise RelayError(
                    f"sweep point N={_num(n)}, {var_key}={_num(value)} has no error "
                    f"bar: every batch mean of its Monte Carlo {name} is equal")
        rows.append([
            _num(x)
            for x in (n, value, *fixed, s.point, c.point, s.stderr, c.stderr)
        ])
    _write_csv(rows, header, args.out)
    return 0


def cmd_validate(args) -> int:
    seed = _load_config(args)["seed"]
    _make_out(args.out)
    results = validation.run_all(
        seed, args.threads, emit=lambda line: print(line, file=sys.stderr, flush=True)
    )
    payload = {
        "seed": seed,
        "passed": all(r.passed for r in results),
        "checks": [r.to_dict() for r in results],
    }
    _dump_json(payload, args.out)
    return 0 if payload["passed"] else 1


# ----------------------------------------------------------------------
# entry point

_COMMANDS = {
    "simulate": (cmd_simulate, "run replicated simulations, write reports"),
    "exact": (cmd_exact, "exact two-walker stationary metrics and deviations"),
    "sweep": (cmd_sweep, "grid of formula/exact/Monte Carlo values as CSV"),
    "validate": (cmd_validate, "run the full acceptance checklist"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ringrelay",
        description="Message relay on a ring: simulation and exact verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, help_text) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", type=Path, help="JSON config file")
        p.add_argument("--seed", type=int, help="master seed (overrides config)")
        p.add_argument("--threads", type=int, default=1, help="worker processes")
        p.add_argument("--out", type=Path, help="output file (or directory)")
        p.add_argument(
            "--set",
            dest="overrides",
            action="append",
            default=[],
            metavar="KEY=VAL",
            help="override a config key; value parsed as JSON when possible",
        )
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.threads < 1:
            raise RelayError(f"--threads must be >= 1, got {args.threads}")
        return args.func(args)
    except RelayError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
