"""Command-line front end.

One JSON config document drives everything; `--set key=value` overrides
individual keys (values are parsed as JSON, falling back to raw strings).
Outputs are plain CSV and JSON, deterministic byte for byte for a fixed
config: floats are emitted with `repr`, JSON keys are sorted, CSV rows
end with a newline.

Exit codes: 0 success, 1 a validation-style check failed, 2 the config
was unusable.
"""
from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys
from pathlib import Path

import numpy as np

from . import closed_form, estimators, exact, validation
from .continuous import ContinuousState, simulate_continuous
from .discrete import DiscreteState, simulate_discrete
from .errors import ConfigError, RelayError
from .model import (
    ContinuousConfig,
    DiscreteConfig,
    SeedSpec,
    validate_continuous,
    validate_discrete,
)

EXACT_SIZE_LIMIT = 1000


# ----------------------------------------------------------------------
# config plumbing


def _load_config(args) -> dict:
    cfg: dict = {}
    if getattr(args, "config", None):
        try:
            cfg = json.loads(Path(args.config).read_text())
        except OSError as err:
            raise ConfigError(f"cannot read config: {err}") from err
        except json.JSONDecodeError as err:
            raise ConfigError(f"config is not valid JSON: {err}") from err
        if not isinstance(cfg, dict):
            raise ConfigError("config root must be a JSON object")
    for item in getattr(args, "overrides", None) or []:
        key, sep, raw = item.partition("=")
        if not sep or not key:
            raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        cfg[key.strip()] = value
    if getattr(args, "seed", None) is not None:
        cfg["seed"] = args.seed
    cfg.setdefault("seed", validation.DEFAULT_SEED)
    return cfg


def _require(cfg: dict, key: str):
    if key not in cfg:
        raise ConfigError(f"missing config key: {key!r}")
    return cfg[key]


def _model_kind(cfg: dict) -> str:
    kind = _require(cfg, "model")
    if kind not in ("discrete", "continuous"):
        raise ConfigError(f"model must be 'discrete' or 'continuous', got {kind!r}")
    return kind


def _int_key(cfg: dict, key: str, default=None):
    value = cfg.get(key, default)
    if value is None:
        raise ConfigError(f"missing config key: {key!r}")
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    return int(value)


def _seed(cfg: dict) -> int:
    """Master seed of simulate, sweep, validate and generator-check:
    numpy seeds its streams from non-negative integers only."""
    seed = _int_key(cfg, "seed")
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    return seed


def _float_key(cfg: dict, key: str, default=None) -> float:
    value = _require(cfg, key) if default is None else cfg.get(key, default)
    try:
        return float(value)
    except (TypeError, ValueError) as err:
        raise ConfigError(f"{key} must be a number, got {value!r}") from err


def _build_discrete(cfg: dict) -> DiscreteConfig:
    return DiscreteConfig(
        n_sites=_int_key(cfg, "N"),
        flip_prob=_float_key(cfg, "epsilon"),
        n_walkers=_int_key(cfg, "m", 2),
    )


def _build_continuous(cfg: dict) -> ContinuousConfig:
    return ContinuousConfig(
        circumference=_float_key(cfg, "N"),
        speed=_float_key(cfg, "v", 1.0),
        switch_rate=_float_key(cfg, "r", 1.0),
        n_walkers=_int_key(cfg, "m", 2),
    )


def _two_walker_config(cfg: dict, lattice_only: bool = False):
    """The model config of a run compared with the two-walker formulas or
    exact solves (exact, bvp, sweep): m must be 2, and a lattice ring
    must have at most EXACT_SIZE_LIMIT sites."""
    if _model_kind(cfg) == "discrete":
        config = validate_discrete(_build_discrete(cfg))
        if config.n_sites > EXACT_SIZE_LIMIT:
            raise ConfigError(
                f"size limit exceeded: N={config.n_sites} > {EXACT_SIZE_LIMIT}"
            )
    elif lattice_only:
        raise ConfigError("exact computation is defined for the discrete model")
    else:
        config = validate_continuous(_build_continuous(cfg))
    if config.n_walkers != 2:
        raise ConfigError(
            f"two-walker formulas and exact solves need m=2, got m={config.n_walkers}"
        )
    return config


def _run_plan(cfg: dict, kind: str) -> tuple[int, int, int | float]:
    """Replica count, master seed and run length (rounds or time) of
    simulate and sweep."""
    replicas = _int_key(cfg, "replicas", 1)
    if replicas < 1:
        raise ConfigError("replicas must be >= 1")
    seed = _seed(cfg)
    if kind == "discrete":
        return replicas, seed, _int_key(cfg, "steps", 100_000)
    return replicas, seed, _float_key(cfg, "horizon", 10_000.0)


def _build_initial(cfg: dict, kind: str):
    spec = cfg.get("initial", "uniform-random")
    if isinstance(spec, str):
        return spec
    if not isinstance(spec, dict):
        raise ConfigError("initial must be a mode string or a state object")
    try:
        if kind == "discrete":
            state, positions = DiscreteState, _whole(spec, "positions")
        else:
            state, positions = ContinuousState, np.asarray(spec["positions"], float)
        return state(positions, _whole(spec, "directions"), _int_key(spec, "carrier"))
    except (KeyError, TypeError, ValueError) as err:
        raise ConfigError(f"bad initial state: {err}") from err


def _whole(spec: dict, key: str) -> np.ndarray:
    """spec[key] as int64: a fraction or a number past int64 is refused,
    never truncated."""
    values = np.asarray(spec[key], dtype=float)
    if not np.all((values == np.round(values)) & (np.abs(values) < 2.0**63)):
        raise ValueError(f"{key} must be whole numbers, got {spec[key]!r}")
    return values.astype(np.int64)


# ----------------------------------------------------------------------
# serialization helpers


def _jsonable(value):
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, np.ndarray)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value)
    return value


def _emit(text: str, out: Path | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(text)


def _dump_json(payload, out: Path | None) -> None:
    _emit(json.dumps(_jsonable(payload), indent=2, sort_keys=True) + "\n", out)


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
        "direction_occupation": _try_estimate(
            estimators.direction_estimate, report
        ),
        "cycles": None,
    }
    if report.cycle_lengths is not None and report.n_cycles >= 1:
        lengths = report.cycle_lengths
        cycles = {
            "count": int(report.n_cycles),
            "mean_length": float(lengths.mean()),
            "jump_fraction": float(report.cycle_jumps.mean()),
        }
        try:
            summary = estimators.excursion_classifier(report)
        except RelayError:
            summary = None
        if summary is not None:
            cycles["wrap_fraction"] = float(summary.wrap_fraction)
            cycles["max_displacement_dev"] = float(summary.max_deviation)
        payload["cycles"] = cycles
    return payload


# ----------------------------------------------------------------------
# subcommands


def cmd_simulate(args) -> int:
    cfg = _load_config(args)
    kind = _model_kind(cfg)
    replicas, seed, length = _run_plan(cfg, kind)
    config = _build_discrete(cfg) if kind == "discrete" else _build_continuous(cfg)
    initial = _build_initial(cfg, kind)
    simulate = functools.partial(
        simulate_discrete if kind == "discrete" else simulate_continuous,
        sample_every=cfg.get("sample_every"),
        trace_every=cfg.get("trace_every"),
    )
    jobs = [(config, length, SeedSpec(seed, k), initial) for k in range(replicas)]
    reports = validation.pool_map(simulate, jobs, args.threads)
    merged = estimators.merge(reports) if len(reports) > 1 else reports[0]

    out_dir = args.out or cfg.get("out")
    if out_dir is None:
        _dump_json(_report_payload(merged), None)
        return 0
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for k, report in enumerate(reports):
        _dump_json(_report_payload(report), out_dir / f"replica_{k:03d}.json")
        if report.trace_times is not None:
            time_col = "step" if kind == "discrete" else "time"
            rows = [
                (_num(t), repr(float(s)), repr(float(c)))
                for t, s, c in zip(
                    report.trace_times, report.trace_speed, report.trace_cost
                )
            ]
            _write_csv(
                rows,
                [time_col, "running_speed", "running_cost"],
                out_dir / f"trace_{k:03d}.csv",
            )
    _dump_json(_report_payload(merged), out_dir / "report.json")
    return 0


def cmd_exact(args) -> int:
    cfg = {"model": "discrete", **_load_config(args)}
    config = _two_walker_config(cfg, lattice_only=True)
    n, eps = config.n_sites, config.flip_prob
    metrics = exact.exact_metrics(n, eps)
    sol = exact.solve_trace_bvp(n, eps)
    oracle = exact.hitting_prob_oracle(n, eps)
    s_closed = closed_form.speed_discrete(n, eps)
    c_closed = closed_form.cost_discrete(n, eps)
    a_closed = 2.0 * s_closed
    payload = {
        "N": n,
        "epsilon": eps,
        "exact_speed": metrics.speed,
        "exact_cost": metrics.cost,
        "bvp_A": sol.crossing_prob,
        "oracle_A": oracle,
        "closed_speed": s_closed,
        "closed_cost": c_closed,
        "closed_A": a_closed,
        "n_states": metrics.n_states,
        "stationary_residual": metrics.residual,
        "bvp_residual": exact.bvp_residual(sol),
        "deviations": {
            "speed_exact_vs_formula": abs(metrics.speed - s_closed),
            "cost_exact_vs_formula": abs(metrics.cost - c_closed),
            "A_bvp_vs_oracle": abs(sol.crossing_prob - oracle),
            "A_bvp_vs_formula": abs(sol.crossing_prob - a_closed),
            "speed_exact_vs_half_A": abs(metrics.speed - sol.crossing_prob / 2),
        },
    }
    _dump_json(payload, args.out)
    return 0


def cmd_bvp(args) -> int:
    cfg = {"model": "discrete", **_load_config(args)}
    config = _two_walker_config(cfg, lattice_only=True)
    n, eps = config.n_sites, config.flip_prob
    sol = exact.solve_trace_bvp(n, eps)
    payload = {
        "N": n,
        "epsilon": eps,
        "A": sol.crossing_prob,
        "closed_A": 2.0 * closed_form.speed_discrete(n, eps),
        "oracle_A": exact.hitting_prob_oracle(n, eps),
        "residual": exact.bvp_residual(sol),
        "f": list(sol.f),
        "g": list(sol.g),
    }
    _dump_json(payload, args.out)
    return 0


def _sweep_grid(cfg: dict, kind: str):
    grid = cfg.get("grid")
    if not isinstance(grid, dict):
        raise ConfigError("sweep needs a 'grid' object in the config")
    sizes = grid.get("N")
    var_key = "epsilon" if kind == "discrete" else "r"
    values = grid.get(var_key)
    if not (isinstance(sizes, list) and isinstance(values, list) and sizes and values):
        raise ConfigError(f"grid must list 'N' and '{var_key}' values")
    return sizes, var_key, values


def cmd_sweep(args) -> int:
    cfg = _load_config(args)
    kind = _model_kind(cfg)
    sizes, var_key, values = _sweep_grid(cfg, kind)
    replicas, seed, length = _run_plan(cfg, kind)
    # every grid point is checked before any of them runs
    configs = [
        _two_walker_config({**cfg, "N": n, var_key: value})
        for n in sizes
        for value in values
    ]
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
            (config, length, SeedSpec(seed, point * replicas + k))
            for k in range(replicas)
        ]
        reports = validation.pool_map(simulate, jobs, args.threads)
        merged = estimators.merge(reports) if len(reports) > 1 else reports[0]
        s = estimators.speed_estimate(merged)
        c = estimators.cost_estimate(merged)
        rows.append([
            _num(x)
            for x in (n, value, *fixed, s.point, c.point, s.stderr, c.stderr)
        ])
    _write_csv(rows, header, args.out)
    return 0


def cmd_validate(args) -> int:
    cfg = _load_config(args)
    seed = _seed(cfg)
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


def cmd_generator_check(args) -> int:
    cfg = _load_config(args)
    seed = _seed(cfg)
    ctx = validation.AcceptanceContext(seed, args.threads)
    result = validation.check_generator(ctx)
    _dump_json(result.to_dict(), args.out)
    return 0 if result.passed else 1


# ----------------------------------------------------------------------
# entry point

_COMMANDS = {
    "simulate": (cmd_simulate, "run replicated simulations, write reports"),
    "exact": (cmd_exact, "exact two-walker stationary metrics and deviations"),
    "sweep": (cmd_sweep, "grid of formula/exact/Monte Carlo values as CSV"),
    "validate": (cmd_validate, "run the full acceptance checklist"),
    "bvp": (cmd_bvp, "solve the wrap-probability boundary value problem"),
    "generator-check": (cmd_generator_check, "spot-check the generator identities"),
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
            raise ConfigError(f"--threads must be >= 1, got {args.threads}")
        return args.func(args)
    except RelayError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
