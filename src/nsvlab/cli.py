"""Command-line interface: verify, simulate, monitor, constants.

Every run is fully determined by its effective configuration plus the
code version: defaults, then a JSON config file (--config), then
explicitly set flags, merged in that order.  ``_OPTIONS`` declares each
key of each command once (JSON type, default, flag); argparse, the merge
and its checks derive from it.  A config-file value of another type, a
value out of its range (a lattice size, a solver or monitor setting, a
band request), and an input file that cannot be read or does not fit (a
trajectory whose viscosity or t_star the monitor rejects, a missing or
mismatched restart snapshot) exit 2 or 3 before any run directory exists.
The effective config is echoed into the run directory, and every CSV/JSON
output goes through one table writer that formats floats with repr, so
identical configs produce byte-identical reports.
Timestamps live only in the run.log sidecar.

The list flags (--checks, --t-star, --s-list, --band) may be repeated;
their values are joined with commas.

Run directories are append-only: each invocation creates the next free
out/run-NNNN and never touches earlier ones.

Exit codes: 0 all checks pass, 1 a mathematical check failed, 2 usage or
config error (including malformed input files), 3 I/O error.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from ._tables import append_text, table_text, write_json, write_text
from ._version import __version__
from .fields import (
    Lattice,
    NonzeroMeanError,
    VelocityField,
    _check_mean,
    random_band_limited,
    taylor_green,
)
from .inequalities import (
    CONSTANT_MODES,
    CorpusConfig,
    CorpusField,
    _VERIFY_RUNS,
    _rejected_verdict,
    corpus_fields,
)
from .monitor import (
    FunctionalTrace,
    MonitorConfig,
    evaluate_traces,
    monitor_checks,
    monitor_summary,
    write_monitor_csv,
)
from .norms import DEFAULT_SOBOLEV_ORDERS, band_constant, l2_norm
from .sim import INTEGRATORS, SolverConfig, integrate
from .snapshot import read_snapshot, write_snapshot
from .trajectory import Trajectory, read_trajectory, write_trajectory_csv, write_trajectory_json

__all__ = [
    "main",
    "cmd_verify",
    "cmd_simulate",
    "cmd_monitor",
    "cmd_constants",
    "UsageError",
]

EXIT_PASS = 0
EXIT_MATH_FAIL = 1
EXIT_USAGE = 2
EXIT_IO = 3

DEFAULT_CHECKS = "x0_interpolation,x0_via_xm1_h52,x0_via_h12_x1,split_x1"
DEFAULT_BANDS = "1:4:,0.5:4:,-0.5:4:,-1.5:2:8,-2.5::8"


class UsageError(ValueError):
    """Invalid configuration or malformed input; maps to exit code 2."""


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_str(value) -> bool:
    return isinstance(value, str)


def _is_dt(value) -> bool:
    if value == "auto" or _is_number(value):
        return True
    try:
        float(value)
    except (TypeError, ValueError):
        return False
    return isinstance(value, str)  # the flag form, e.g. "0.01"


# kind -> (what a config-file value must be, its test, argparse keywords)
_KINDS = {
    "int": ("an integer", _is_int, {"type": int}),
    "float": ("a number", _is_number, {"type": float}),
    "str": ("a string", _is_str, {}),
    "list": ("a comma-separated string", _is_str, {"action": "append"}),
    "bool": ("true or false", lambda value: isinstance(value, bool),
             {"action": "store_const", "const": True}),
    "dt": ("'auto' or a number", _is_dt, {}),
    "positional": ("a path string", _is_str, {"nargs": "?"}),
}


@dataclass(frozen=True)
class _Option:
    """One config key: its kind, default, command-line spelling and help.

    A key whose default is None also accepts null; one with choices accepts
    only those; ``minimum`` is a bound that only the CLI imposes.
    """

    key: str
    kind: str
    default: object
    help: str
    choices: tuple = ()
    minimum: int | None = None

    @property
    def flag(self) -> str:
        return "--" + self.key.replace("_", "-")

    def add_to(self, parser: argparse.ArgumentParser) -> None:
        name = self.key if self.kind == "positional" else self.flag
        extra = {"choices": self.choices} if self.choices else {}
        parser.add_argument(name, help=self.help, **_KINDS[self.kind][2], **extra)

    def check(self, value) -> None:
        if value is None and self.default is None:
            return
        what, accepts, _ = _KINDS[self.kind]
        if not accepts(value):
            raise UsageError(f"{self.flag}: expected {what}, got {json.dumps(value)}")
        if self.choices and value not in self.choices:
            raise UsageError(
                f"{self.flag}: expected one of {json.dumps(self.choices)}, got {json.dumps(value)}"
            )
        if self.minimum is not None and value < self.minimum:
            raise UsageError(f"{self.flag}: must be >= {self.minimum}, got {value}")


_DEALIAS_FLAGS = {"23": "two-thirds", "32": "three-halves"}

_COMMON = (
    _Option("seed", "int", 2024, "base seed for random fields"),
    _Option("out", "str", "out", "output root; runs go to OUT/run-NNNN"),
    _Option("lattice_n", "int", 32, "modes per axis (even, >= 8)"),
    _Option("constant_mode", "str", "lattice", "which constants gate the inequalities",
            CONSTANT_MODES),
)

# command -> (help, options): the one declaration of every key
_OPTIONS: dict[str, tuple[str, tuple[_Option, ...]]] = {
    "verify": ("run the inequality suite over a random corpus", _COMMON + (
        _Option("corpus_size", "int", 100, "number of fields", minimum=0),
        _Option("checks", "list", DEFAULT_CHECKS, f"comma list (default {DEFAULT_CHECKS})"),
        _Option("inject_mean_violation", "bool", False,
                "append a nonzero-mean field (error-path test hook)"),
    )),
    "simulate": ("integrate a velocity field and record norms", _COMMON + (
        _Option("nu", "float", 0.1, "viscosity (> 0)"),
        _Option("dt", "dt", "auto", "step size or 'auto'"),
        _Option("t_end", "float", 1.0, "final time"),
        _Option("initial", "str", "taylor-green", "initial condition", ("taylor-green", "random")),
        _Option("dealias", "str", "23", "2/3 mask or 3/2 padding", tuple(_DEALIAS_FLAGS)),
        _Option("integrator", "str", "rk4", "time integrator", INTEGRATORS),
        _Option("sample_every", "int", 10, "steps per sample"),
        _Option("cfl", "float", 0.4, "advective CFL number for dt='auto'"),
        _Option("snapshot_every", "int", 0,
                "write a restart snapshot every Nth sample (0 = never)", minimum=0),
        _Option("restart", "str", None, "start from a snapshot file instead of --initial"),
    )),
    "monitor": ("evaluate blow-up functionals along a trajectory", _COMMON + (
        _Option("trajectory", "positional", None, "trajectory CSV or JSON file"),
        _Option("t_star", "list", "2.0", "comma list of candidate singular times"),
        _Option("c_small", "float", 1.0, "smallness constant c"),
        _Option("nu", "float", None, "viscosity override for external trajectories"),
        _Option("s_list", "list", None, "comma list of Sobolev orders for rates"),
    )),
    "constants": ("tabulate lattice vs continuum band constants", _COMMON + (
        _Option("band", "list", DEFAULT_BANDS,
                "comma list of EXPONENT:ALPHA:BETA requests (empty side = low/high band)"),
    )),
}

VERDICT_COLUMNS = ("index", "seed", "decay", "inequality", "constant_mode",
                   "lhs", "rhs", "ratio", "holds", "note")
CONSTANTS_COLUMNS = ("exponent", "alpha", "beta", "band", "lattice", "continuum", "ratio", "note")


# ---------------------------------------------------------------------------
# Config plumbing


def _load_config_file(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            loaded = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise UsageError(f"config file {path}: invalid JSON ({exc})") from exc
    if not isinstance(loaded, dict):
        raise UsageError(f"config file {path}: expected a JSON object")
    return loaded


def _merge_config(command: str, args: argparse.Namespace) -> dict:
    """Defaults < config file < flags; every file and flag value is checked."""
    options = _OPTIONS[command][1]
    file_cfg = _load_config_file(args.config)
    unknown = sorted(set(file_cfg) - {opt.key for opt in options})
    if unknown:
        raise UsageError(f"config file has unknown keys for '{command}': {unknown}")
    effective = {}
    for opt in options:
        value = file_cfg.get(opt.key, opt.default)
        opt.check(value)
        flag = getattr(args, opt.key)
        if flag is not None:
            # a list flag holds one string per use
            value = ",".join(flag) if isinstance(flag, list) else flag
            opt.check(value)
        effective[opt.key] = value
    return effective


def _next_run_dir(out: str) -> Path:
    base = Path(out)
    base.mkdir(parents=True, exist_ok=True)
    index = -1
    for entry in base.iterdir():
        name = entry.name
        if entry.is_dir() and name.startswith("run-") and name[4:].isdigit():
            index = max(index, int(name[4:]))
    run_dir = base / f"run-{index + 1:04d}"
    run_dir.mkdir()
    return run_dir


class _RunLog:
    """Timestamped sidecar; the only place wall-clock time is written."""

    def __init__(self, run_dir: Path):
        self._path = run_dir / "run.log"

    def write(self, message: str) -> None:
        stamp = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
        append_text(self._path, f"{stamp} {message}\n")


def _parse_float_list(text: str, flag: str) -> tuple[float, ...]:
    try:
        values = tuple(float(part) for part in text.split(",") if part.strip())
    except ValueError as exc:
        raise UsageError(f"{flag}: expected comma-separated numbers, got {text!r}") from exc
    if not values:
        raise UsageError(f"{flag}: at least one value required")
    return values


# ---------------------------------------------------------------------------
# verify


def _verdict_row(entry, verdict, note: str) -> dict:
    return dict(zip(VERDICT_COLUMNS, (
        entry.index, entry.seed, entry.decay, verdict.name, verdict.constant_mode,
        verdict.lhs, verdict.rhs, verdict.ratio, verdict.holds, note,
    )))


def _injected_entry(lattice: Lattice, corpus: CorpusConfig):
    """A corpus entry whose velocity has a nonzero mean (test hook)."""
    seed = corpus.base_seed + corpus.size
    clean = random_band_limited(lattice, corpus.kmin, corpus.resolved_kmax(lattice), 1.0, seed)
    stack = clean._stack.copy()
    stack[0, 0, 0, 0] = 0.5
    bad = VelocityField._from_half(lattice, stack)
    return CorpusField(index=corpus.size, seed=seed, decay=1.0, field=bad)


def _verify_inputs(config: dict) -> tuple[Lattice, list[str]]:
    names = [part.strip() for part in config["checks"].split(",") if part.strip()]
    for name in names:
        if name not in _VERIFY_RUNS:
            raise UsageError(f"unknown check {name!r}; available: {sorted(_VERIFY_RUNS)}")
    return Lattice(config["lattice_n"]), names


def cmd_verify(config: dict, inputs, run_dir: Path, log: _RunLog) -> int:
    mode = config["constant_mode"]
    lattice, names = inputs
    size = config["corpus_size"]
    corpus = CorpusConfig(size=size, base_seed=config["seed"])
    runs = [(name, note, run) for name in names for note, run in _VERIFY_RUNS[name](lattice)]

    def entry_rows(entry) -> list[dict]:
        u = entry.field
        try:
            _check_mean(u, f"seed {entry.seed}")
        except NonzeroMeanError:
            rejected = f"nonzero mean rejected (seed {entry.seed})"
            return [_verdict_row(entry, _rejected_verdict(name, mode), rejected)
                    for name, _, _ in runs]
        return [_verdict_row(entry, verdict, note)
                for _, note, run in runs for verdict in run(u, mode)]

    # the corpus is read as it is drawn, so the next field's draw overlaps this one's checks
    rows = [row for entry in corpus_fields(lattice, corpus) for row in entry_rows(entry)]
    if config["inject_mean_violation"]:
        rows += entry_rows(_injected_entry(lattice, corpus))
    write_text(run_dir / "verdicts.csv", table_text("nsvlab-verify v1", VERDICT_COLUMNS, rows))

    finite = [row for row in rows if math.isfinite(row["ratio"])]
    finite_ratios = [row["ratio"] for row in finite]
    violations = [
        {
            "index": row["index"],
            "seed": row["seed"],
            "inequality": row["inequality"],
            "ratio": row["ratio"] if math.isfinite(row["ratio"]) else None,
            "note": row["note"],
        }
        for row in rows
        if not row["holds"]
    ]
    witness_seed = max(finite, key=lambda row: row["ratio"])["seed"] if finite else None
    summary = {
        "format": "nsvlab-verify-summary",
        "version": 1,
        "constant_mode": mode,
        "lattice_n": lattice.n,
        "corpus_size": size,
        "checks": names,
        "rows": len(rows),
        "all_hold": all(row["holds"] for row in rows),
        "max_ratio": max(finite_ratios) if finite_ratios else None,
        "median_ratio": statistics.median(finite_ratios) if finite_ratios else None,
        "witness_seed": witness_seed,
        "violations": violations,
    }
    write_json(run_dir / "summary.json", summary)
    log.write(f"verify: {len(rows)} verdicts, all_hold={summary['all_hold']}")
    return EXIT_PASS if summary["all_hold"] else EXIT_MATH_FAIL


# ---------------------------------------------------------------------------
# simulate


def _initial_field(config: dict, lattice: Lattice) -> VelocityField:
    restart = config["restart"]
    if restart:
        field = read_snapshot(restart)
        if not isinstance(field, VelocityField):
            raise UsageError(f"snapshot {restart} holds a scalar field, not a velocity")
        if field.lattice.n != lattice.n:
            raise UsageError(
                f"snapshot lattice n={field.lattice.n} does not match --lattice-n {lattice.n}"
            )
        return field
    if config["initial"] == "taylor-green":
        return taylor_green(lattice)
    u = random_band_limited(lattice, 1.0, lattice.k_unit * (lattice.n // 4), 2.0, config["seed"])
    scale = l2_norm(u)
    if scale == 0:
        raise UsageError("random initial field is identically zero")
    return u * (0.5 / scale)


def _simulate_inputs(config: dict) -> tuple[SolverConfig, VelocityField]:
    solver = SolverConfig(
        nu=float(config["nu"]),
        dt=config["dt"],
        t_end=float(config["t_end"]),
        dealias=_DEALIAS_FLAGS[config["dealias"]],
        integrator=config["integrator"],
        sample_every=config["sample_every"],
        cfl=float(config["cfl"]),
    )
    return solver, _initial_field(config, Lattice(config["lattice_n"]))


def cmd_simulate(config: dict, inputs, run_dir: Path, log: _RunLog) -> int:
    solver, u0 = inputs

    hooks = []
    snapshot_every = config["snapshot_every"]
    if snapshot_every > 0:
        counter = {"samples": 0}

        def snap_hook(sample, state):
            if counter["samples"] % snapshot_every == 0:
                write_snapshot(run_dir / f"state_{sample.step_index:06d}.nsv", state.u)
            counter["samples"] += 1

        hooks.append(snap_hook)

    trajectory = integrate(u0, solver, hooks=hooks)
    write_trajectory_csv(trajectory, run_dir / "trajectory.csv")
    write_trajectory_json(trajectory, run_dir / "trajectory.json")
    log.write(
        f"simulate: {len(trajectory.samples)} samples, failed={trajectory.failed}"
    )
    if trajectory.failed:
        print(f"scheme blow-up: {trajectory.failure_reason}", file=sys.stderr)
        return EXIT_MATH_FAIL
    return EXIT_PASS


# ---------------------------------------------------------------------------
# monitor


def _monitor_inputs(config: dict) -> tuple[Trajectory, list[FunctionalTrace]]:
    """The trajectory and its traces: a bad viscosity or t_star, or an
    unreadable file, fails here, before a run directory exists."""
    if not config["trajectory"]:
        raise UsageError("monitor needs a trajectory file (positional argument)")
    t_star = _parse_float_list(config["t_star"], "--t-star")
    s_list = DEFAULT_SOBOLEV_ORDERS
    if config["s_list"]:
        s_list = _parse_float_list(config["s_list"], "--s-list")
    monitor_config = MonitorConfig(t_star=t_star, c_small=config["c_small"], s_list=s_list)
    trajectory = read_trajectory(config["trajectory"])
    return trajectory, evaluate_traces(trajectory, monitor_config, nu=config["nu"])


def cmd_monitor(config: dict, inputs, run_dir: Path, log: _RunLog) -> int:
    path = config["trajectory"]
    trajectory, traces = inputs

    table = io.StringIO()
    write_monitor_csv(traces, table)
    write_text(run_dir / "monitor.csv", table.getvalue())

    checks = monitor_checks(trajectory, config["nu"])
    summary = monitor_summary(traces)
    summary["trajectory"] = {
        "path": str(path),
        "lattice_n": trajectory.lattice_n,
        "samples": len(trajectory.samples),
        "failed": trajectory.failed,
        "code_version": trajectory.code_version,
    }
    summary.update(checks)
    write_json(run_dir / "monitor_summary.json", summary)
    log.write(f"monitor: {len(traces)} traces over {len(trajectory.samples)} samples")
    failed = any(entry.get("holds") is False for entry in checks.values())
    return EXIT_MATH_FAIL if failed else EXIT_PASS


# ---------------------------------------------------------------------------
# constants


def _parse_band_requests(text: str) -> list[tuple[float, float | None, float | None]]:
    requests = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split(":")
        if len(parts) != 3:
            raise UsageError(
                f"--band entry {chunk!r}: expected EXPONENT:ALPHA:BETA (empty = open side)"
            )
        try:
            exponent = float(parts[0])
            alpha = float(parts[1]) if parts[1] else None
            beta = float(parts[2]) if parts[2] else None
        except ValueError as exc:
            raise UsageError(f"--band entry {chunk!r}: {exc}") from exc
        requests.append((exponent, alpha, beta))
    if not requests:
        raise UsageError("--band: at least one request required")
    return requests


def _constants_inputs(config: dict) -> tuple[Lattice, list[dict]]:
    lattice = Lattice(config["lattice_n"])
    requests = _parse_band_requests(config["band"])
    rows = []
    for exponent, alpha, beta in requests:
        try:
            report = band_constant(lattice, exponent, alpha=alpha, beta=beta)
        except ValueError as exc:
            raise UsageError(f"band request {exponent:g}:{alpha}:{beta}: {exc}") from exc
        rows.append(
            {
                "exponent": report.exponent,
                "alpha": report.alpha,
                "beta": report.beta,
                "band": report.band,
                "lattice": report.lattice_value,
                "continuum": report.continuum_value,
                "ratio": report.ratio,
                "empty": report.empty,
            }
        )
    return lattice, rows


def cmd_constants(config: dict, inputs, run_dir: Path, log: _RunLog) -> int:
    lattice, rows = inputs
    csv_rows = [{**row, "note": "empty band" if row["empty"] else ""} for row in rows]
    write_text(
        run_dir / "constants.csv", table_text("nsvlab-constants v1", CONSTANTS_COLUMNS, csv_rows)
    )
    doc = {"format": "nsvlab-constants", "version": 1, "lattice_n": lattice.n, "rows": rows}
    write_json(run_dir / "constants.json", doc)
    log.write(f"constants: {len(rows)} band constants on n={lattice.n}")
    return EXIT_PASS


# ---------------------------------------------------------------------------
# Argument parsing and dispatch


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nsvlab",
        description="Spectral norm inequalities and blow-up functionals on the periodic box.",
    )
    parser.add_argument("--version", action="version", version=f"nsvlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (summary, options) in _OPTIONS.items():
        p_cmd = sub.add_parser(command, help=summary)
        p_cmd.add_argument("--config", help="JSON config file; flags override its keys")
        for opt in options:
            opt.add_to(p_cmd)
    return parser


# command -> (input check, run); the check raises before a run directory exists
# and its result is the run's second argument
_COMMANDS = {
    "verify": (_verify_inputs, cmd_verify),
    "simulate": (_simulate_inputs, cmd_simulate),
    "monitor": (_monitor_inputs, cmd_monitor),
    "constants": (_constants_inputs, cmd_constants),
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    command = args.command
    check_inputs, run_command = _COMMANDS[command]
    try:
        config = _merge_config(command, args)
        inputs = check_inputs(config)
        run_dir = _next_run_dir(config["out"])
    except ValueError as exc:  # UsageError or an out-of-range value
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    log = _RunLog(run_dir)
    try:
        doc = {"command": command, "code_version": __version__, **config}
        write_json(run_dir / "effective_config.json", doc)
        log.write(f"start {command} (nsvlab {__version__})")
        status = run_command(config, inputs, run_dir, log)
        log.write(f"done {command} exit={status}")
        print(run_dir)
        return status
    except ValueError as exc:  # UsageError, a malformed input file or an out-of-range value
        print(f"error: {exc}", file=sys.stderr)
        log.write(f"usage error: {exc}")
        return EXIT_USAGE
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
