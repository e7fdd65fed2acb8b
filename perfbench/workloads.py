"""The benchmark workloads: the CLI invocations each one runs, and the
checks every invocation's output must pass.

Each workload is a list of `Invocation`s.  One operation is one CLI
invocation together with its output checks; `run.py` counts it as
failed when the exit code is not 0 or any check below reports a problem.
The checks import nothing from ringrelay: the formulas are written out
here again so that a defect in the package cannot vouch for itself.
"""
from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# ringrelay.validation.DEFAULT_SEED.  Benchmark seed n runs at master seed
# BASE_SEED + n (mod 2**32, as seeds must be nonnegative), so --seed 0 is
# the package's default seed, where the outputs are also compared with the
# reference copies in reference/.
BASE_SEED = 20260815

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# Monte Carlo rows of the lattice-exact sweep are held to the formula
# within this many batch-means standard errors, but only up to this N:
# at N=999 two million rounds are too few for the 50 batch means to mix
# (c_mc came out about 3 sigma low at the default seed in a probe run),
# so that row gets a finiteness and range check only.
MC_SIGMAS = 4.0
MC_CHECKED_MAX_N = 101
EXACT_TOL = 1e-10


@dataclass(frozen=True)
class Invocation:
    """One `ringrelay` CLI call and the checks on what it wrote."""

    label: str
    argv: tuple[str, ...]
    out: Path  # file or directory the call writes via --out
    check: Callable[[Path], list[str]]
    # comparison with the reference copy; set only at the default seed
    compare: Callable[[Path], list[str]] | None = None
    rounds: int = 0  # lattice rounds simulated (m>=3 simulate only)
    sim_time: float = 0.0  # continuum time simulated (m>=3 simulate only)


def master_seed(seed: int) -> int:
    return (BASE_SEED + seed) % 2**32


# ----------------------------------------------------------------------
# formulas, written out independently of ringrelay.closed_form


def speed_formula(n: int, eps: float) -> float:
    return (1.0 - eps) / (2.0 * (1.0 + eps * (n - 2)))


def _finite(*values) -> bool:
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


# ----------------------------------------------------------------------
# comparison with the reference copies recorded at the seed commit


def _close(ref: float, got: float) -> bool:
    # Roundoff-sized diagnostics (residuals, deviations, float snaps) are
    # exempt from matching: they only have to stay roundoff-sized.
    if abs(ref) < 1e-9:
        return abs(got) < 1e-9
    return abs(got - ref) <= 1e-9 * abs(ref)


def compare_json(ref, got, where: str = "") -> list[str]:
    """Counts and strings exactly, other floats to 1e-9 relative; the
    wall-clock `seconds` fields are skipped."""
    if isinstance(ref, dict):
        if not isinstance(got, dict) or set(ref) != set(got):
            return [f"{where}: keys differ from the reference"]
        return [
            p
            for key in ref
            if key != "seconds"
            for p in compare_json(ref[key], got[key], f"{where}.{key}")
        ]
    if isinstance(ref, list):
        if not isinstance(got, list) or len(ref) != len(got):
            return [f"{where}: length differs from the reference"]
        return [p for i, (a, b) in enumerate(zip(ref, got))
                for p in compare_json(a, b, f"{where}[{i}]")]
    if isinstance(ref, float) and isinstance(got, (int, float)):
        if not isinstance(got, bool) and _close(ref, float(got)):
            return []
    elif type(ref) is type(got) and ref == got:
        return []
    return [f"{where}: {got!r} differs from reference {ref!r}"]


def _ref_json(ref: Path, got: Path) -> list[str]:
    return compare_json(json.loads(ref.read_text()), json.loads(got.read_text()),
                        got.name)


def _ref_bytes(ref: Path, got: Path) -> list[str]:
    if ref.read_bytes() != got.read_bytes():
        return [f"{got.name}: not byte-identical to the reference"]
    return []


def _ref_csv_close(ref: Path, got: Path) -> list[str]:
    """Same header and row count, every value equal up to roundoff."""
    ref_rows = list(csv.reader(ref.open()))
    got_rows = list(csv.reader(got.open()))
    if ref_rows[:1] != got_rows[:1] or len(ref_rows) != len(got_rows):
        return [f"{got.name}: header or row count differs from the reference"]
    for i, (a, b) in enumerate(zip(ref_rows[1:], got_rows[1:]), start=1):
        if len(a) != len(b) or not all(
            _close(float(x), float(y)) for x, y in zip(a, b)
        ):
            return [f"{got.name}: row {i} differs from the reference"]
    return []


def _ref_sweep(ref: Path, got: Path) -> list[str]:
    """Lattice and formula columns byte-identical; the exact-solver
    columns to 1e-12, since BLAS kernels may sum in a CPU-dependent order."""
    ref_rows = list(csv.DictReader(ref.open()))
    got_rows = list(csv.DictReader(got.open()))
    if len(ref_rows) != len(got_rows):
        return [f"{got.name}: row count differs from the reference"]
    problems = []
    for i, (a, b) in enumerate(zip(ref_rows, got_rows), start=1):
        for key in a:
            if key in ("s_exact", "c_exact"):
                same = abs(float(a[key]) - float(b.get(key, "nan"))) <= 1e-12
            else:
                same = a[key] == b.get(key)
            if not same:
                problems.append(f"{got.name}: row {i} {key} differs from the reference")
    return problems


def _ref_dir(json_cmp, csv_cmp):
    def compare(ref: Path, got: Path) -> list[str]:
        problems = []
        for ref_file in sorted(ref.iterdir()):
            got_file = got / ref_file.name
            if not got_file.is_file():
                problems.append(f"{got_file.name}: missing")
            else:
                cmp = csv_cmp if ref_file.suffix == ".csv" else json_cmp
                problems += cmp(ref_file, got_file)
        return problems

    return compare


def _reference(workload: str, seed: int, name: str, cmp):
    """The comparison of output `name` with its reference copy, or None
    away from the default seed, where there is no reference."""
    if master_seed(seed) != BASE_SEED:
        return None
    ref = REFERENCE_DIR / workload / name
    return lambda got: cmp(ref, got)


# ----------------------------------------------------------------------
# gate: the full acceptance checklist


GATE_CHECKS = (
    "exact-stationary-matches-formulas",
    "crossing-prob-three-routes",
    "discrete-monte-carlo",
    "continuous-monte-carlo",
    "regeneration-cycles",
    "excursion-law",
    "generator-identities",
    "direction-occupation",
    "continuum-limit",
    "equilibrium-uniformity",
    "initial-state-independence",
)


def _check_validate(path: Path) -> list[str]:
    data = json.loads(path.read_text())
    checks = data.get("checks", [])
    problems = []
    if tuple(c.get("name") for c in checks) != GATE_CHECKS:
        problems.append("validate did not run the 11 gate checks in order")
    failed = [c.get("name") for c in checks if c.get("passed") is not True]
    if failed or data.get("passed") is not True:
        problems.append(f"validate checks failed: {failed}")
    return problems


def gate(op_dir: Path, seed: int, threads: int) -> list[Invocation]:
    # The gate always runs at the package's default seed.  At 9 of the
    # 15 other master seeds tried (BASE_SEED+1 to +13, +15, +17), it exits 2
    # part way: a uniform start of one of the eight pooled
    # discrete-reference replicas lands in a contact state and skips its
    # burn-in, and merge() then refuses replicas with different batch
    # lengths.  A varied gate seed would measure that defect, not the
    # gate's time.  The other workloads take the benchmark seed.
    del seed
    out = op_dir / "validate.json"
    argv = ("validate", "--threads", str(threads), "--seed", str(BASE_SEED),
            "--out", str(out))
    compare = _reference("gate", 0, out.name, _ref_json)  # seed 0: the default
    return [Invocation("validate", argv, out, _check_validate, compare)]


# ----------------------------------------------------------------------
# lattice-exact: a discrete m=2 sweep and one exact solve at N=999


def _check_sweep(sizes, epsilons):
    def check(path: Path) -> list[str]:
        rows = list(csv.DictReader(path.open()))
        problems = []
        if len(rows) != len(sizes) * len(epsilons):
            problems.append(f"sweep wrote {len(rows)} rows")
        for row in rows:
            n, eps = int(row["N"]), float(row["epsilon"])
            s_f = speed_formula(n, eps)
            c_f = eps * s_f
            vals = {k: float(row[k]) for k in row if k not in ("N", "epsilon")}
            where = f"sweep N={n} epsilon={eps}"
            if not _finite(*vals.values()):
                problems.append(f"{where}: non-finite value")
                continue
            for key, target in (("s_formula", s_f), ("c_formula", c_f),
                                ("s_exact", s_f), ("c_exact", c_f)):
                if abs(vals[key] - target) > EXACT_TOL:
                    problems.append(f"{where}: {key} off the formula")
            if vals["s_mc_stderr"] < 0 or vals["c_mc_stderr"] < 0:
                problems.append(f"{where}: negative standard error")
            if n <= MC_CHECKED_MAX_N:
                for key, target, se in (("s_mc", s_f, vals["s_mc_stderr"]),
                                        ("c_mc", c_f, vals["c_mc_stderr"])):
                    if not abs(vals[key] - target) <= MC_SIGMAS * se:
                        problems.append(
                            f"{where}: {key} more than {MC_SIGMAS} SE off the formula"
                        )
            elif not (abs(vals["s_mc"]) <= 1.0 and 0.0 <= vals["c_mc"] <= 1.0):
                problems.append(f"{where}: Monte Carlo value out of range")
        return problems

    return check


def _check_exact(n: int, eps: float):
    def check(path: Path) -> list[str]:
        data = json.loads(path.read_text())
        problems = []
        if data.get("N") != n or data.get("epsilon") != eps:
            problems.append("exact answered for other parameters")
        s_f = speed_formula(n, eps)
        for key, target in (("exact_speed", s_f), ("exact_cost", eps * s_f),
                            ("bvp_A", 2 * s_f), ("oracle_A", 2 * s_f)):
            if not (_finite(data.get(key)) and abs(data[key] - target) <= EXACT_TOL):
                problems.append(f"exact: {key} off the formula")
        small = dict(data.get("deviations", {}))
        small["stationary_residual"] = data.get("stationary_residual")
        small["bvp_residual"] = data.get("bvp_residual")
        for key, value in small.items():
            if not (_finite(value) and abs(value) <= EXACT_TOL):
                problems.append(f"exact: {key}={value!r} exceeds {EXACT_TOL}")
        return problems

    return check


def lattice_exact(op_dir: Path, seed: int, threads: int, sizes=(11, 101, 999),
                  epsilons=(0.1, 0.5), steps=2_000_000, exact_n=999,
                  exact_eps=0.1) -> list[Invocation]:
    grid = json.dumps({"N": list(sizes), "epsilon": list(epsilons)})
    sweep_out = op_dir / "sweep.csv"
    exact_out = op_dir / "exact.json"
    sweep = ("sweep", "--threads", str(threads), "--seed", str(master_seed(seed)),
             "--set", "model=discrete", "--set", f"grid={grid}",
             "--set", f"steps={steps}", "--set", "replicas=1",
             "--out", str(sweep_out))
    exact = ("exact", "--seed", str(master_seed(seed)),
             "--set", f"N={exact_n}", "--set", f"epsilon={exact_eps}",
             "--out", str(exact_out))
    return [
        Invocation("sweep", sweep, sweep_out, _check_sweep(sizes, epsilons),
                   _reference("lattice-exact", seed, sweep_out.name, _ref_sweep)),
        Invocation("exact", exact, exact_out, _check_exact(exact_n, exact_eps),
                   _reference("lattice-exact", seed, exact_out.name, _ref_json)),
    ]


# ----------------------------------------------------------------------
# many-walkers: m=5 lattice and continuum simulations with traces


def _check_simulate(speed: float, trace_rows: int):
    def check(out_dir: Path) -> list[str]:
        report = json.loads((out_dir / "report.json").read_text())
        problems = []
        s = (report.get("speed") or {}).get("point")
        occ = (report.get("direction_occupation") or {}).get("point")
        jumps = report.get("totals", {}).get("jumps")
        if not (_finite(s) and abs(s) <= speed):
            problems.append(f"simulate: speed {s!r} outside [-{speed}, {speed}]")
        if not (_finite(occ) and 0.0 <= occ <= 1.0):
            problems.append(f"simulate: occupation {occ!r} outside [0, 1]")
        if not (_finite(jumps) and jumps > 0):
            problems.append(f"simulate: {jumps!r} handoffs")
        trace = out_dir / "trace_000.csv"
        rows = len(trace.read_text().splitlines()) - 1 if trace.is_file() else -1
        if rows != trace_rows:
            problems.append(f"simulate: trace has {rows} rows, expected {trace_rows}")
        return problems

    return check


LATTICE_TRACE = 100  # rounds between trace rows
CONTINUUM_TRACE = 10  # time units between trace rows


def many_walkers(op_dir: Path, seed: int, threads: int, steps=200_000,
                 horizon=20_000) -> list[Invocation]:
    del threads  # both runs are single replicas: --threads 1
    common = ("simulate", "--threads", "1", "--seed", str(master_seed(seed)))
    lattice_out = op_dir / "lattice"
    continuum_out = op_dir / "continuum"
    lattice = common + (
        "--set", "model=discrete", "--set", "N=101", "--set", "epsilon=0.1",
        "--set", "m=5", "--set", f"steps={steps}",
        "--set", f"trace_every={LATTICE_TRACE}", "--out", str(lattice_out))
    continuum = common + (
        "--set", "model=continuous", "--set", "N=5", "--set", "v=1",
        "--set", "r=1", "--set", "m=5", "--set", f"horizon={horizon}",
        "--set", f"trace_every={CONTINUUM_TRACE}", "--out", str(continuum_out))
    return [
        Invocation("lattice", lattice, lattice_out,
                   _check_simulate(1.0, steps // LATTICE_TRACE),
                   _reference("many-walkers", seed, lattice_out.name,
                              _ref_dir(_ref_bytes, _ref_bytes)),
                   rounds=steps),
        Invocation("continuum", continuum, continuum_out,
                   _check_simulate(1.0, int(horizon / CONTINUUM_TRACE)),
                   _reference("many-walkers", seed, continuum_out.name,
                              _ref_dir(_ref_json, _ref_csv_close)),
                   sim_time=float(horizon)),
    ]


WORKLOADS = {
    "gate": gate,
    "lattice-exact": lattice_exact,
    "many-walkers": many_walkers,
}


def check_output(inv: Invocation) -> list[str]:
    """All problems with one invocation's output; [] when it is correct."""
    if not inv.out.exists():
        return [f"{inv.label}: wrote no output"]
    try:
        problems = inv.check(inv.out)
        if inv.compare is not None:
            problems += inv.compare(inv.out)
    except (OSError, ValueError, KeyError, TypeError, AttributeError,
            IndexError) as err:
        problems = [f"{inv.label}: unreadable output ({err!r})"]
    return problems
