"""Command-line interface: verify, simulate, monitor, constants.

Every run is fully determined by its effective configuration plus the
code version: defaults, then a JSON config file (--config), then
explicitly set flags, merged in that order.  The effective config is
echoed into the run directory, and every CSV/JSON output goes through
one table writer that formats floats with repr, so identical configs
produce byte-identical reports.
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
from pathlib import Path

from ._tables import append_text, table_text, write_json, write_text
from ._version import __version__
from .fields import (
    Lattice,
    NonzeroMeanError,
    VelocityField,
    _require_zero_mean,
    random_band_limited,
    taylor_green,
)
from .inequalities import (
    CONSTANT_MODES,
    CorpusConfig,
    InequalityVerdict,
    REGISTERED_CHECKS,
    corpus_fields,
    split_x1,
)
from .monitor import (
    MonitorConfig,
    evaluate_traces,
    h12_log_growth_check,
    h52_energy_residual,
    monitor_summary,
    write_monitor_csv,
    xm1_gronwall_check,
)
from .norms import DEFAULT_SOBOLEV_ORDERS, band_constant, l2_norm
from .sim import SolverConfig, integrate
from .snapshot import SnapshotFormatError, read_snapshot, write_snapshot
from .trajectory import (
    TrajectoryFormatError,
    read_trajectory,
    write_trajectory_csv,
    write_trajectory_json,
)

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

_COMMON_DEFAULTS = {
    "out": "out",
    "lattice_n": 32,
    "seed": 2024,
    "constant_mode": "lattice",
}

DEFAULTS: dict[str, dict] = {
    "verify": {
        **_COMMON_DEFAULTS,
        "corpus_size": 100,
        "checks": DEFAULT_CHECKS,
        "inject_mean_violation": False,
    },
    "simulate": {
        **_COMMON_DEFAULTS,
        "nu": 0.1,
        "dt": "auto",
        "t_end": 1.0,
        "initial": "taylor-green",
        "dealias": "23",
        "integrator": "rk4",
        "sample_every": 10,
        "cfl": 0.4,
        "snapshot_every": 0,
        "restart": None,
    },
    "monitor": {
        **_COMMON_DEFAULTS,
        "trajectory": None,
        "t_star": "2.0",
        "c_small": 1.0,
        "nu": None,
        "s_list": None,
    },
    "constants": {
        **_COMMON_DEFAULTS,
        "band": DEFAULT_BANDS,
    },
}

_DEALIAS_FLAGS = {"23": "two-thirds", "32": "three-halves"}

VERDICT_COLUMNS = ("index", "seed", "decay", "inequality", "constant_mode",
                   "lhs", "rhs", "ratio", "holds", "note")
CONSTANTS_COLUMNS = ("exponent", "alpha", "beta", "band", "lattice", "continuum", "ratio", "note")


class UsageError(ValueError):
    """Invalid configuration or malformed input; maps to exit code 2."""


# ---------------------------------------------------------------------------
# Config plumbing


def _load_config_file(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            loaded = json.load(fh)
    except json.JSONDecodeError as exc:
        raise UsageError(f"config file {path}: invalid JSON ({exc})") from exc
    if not isinstance(loaded, dict):
        raise UsageError(f"config file {path}: expected a JSON object")
    return loaded


def _merge_config(command: str, args: argparse.Namespace) -> dict:
    defaults = DEFAULTS[command]
    file_cfg = _load_config_file(getattr(args, "config", None))
    unknown = sorted(set(file_cfg) - set(defaults))
    if unknown:
        raise UsageError(f"config file has unknown keys for '{command}': {unknown}")
    effective = dict(defaults)
    effective.update(file_cfg)
    for key in defaults:
        value = getattr(args, key, None)
        if isinstance(value, list):  # a list flag: one string per use
            value = ",".join(value)
        if value is not None:
            effective[key] = value
    return effective


def _next_run_dir(out: str) -> Path:
    if not isinstance(out, str):
        raise UsageError(f"--out: expected a path string, got {out!r}")
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
        values = tuple(float(part) for part in str(text).split(",") if part.strip())
    except ValueError as exc:
        raise UsageError(f"{flag}: expected comma-separated numbers, got {text!r}") from exc
    if not values:
        raise UsageError(f"{flag}: at least one value required")
    return values


def _config_number(config: dict, key: str, kind=float):
    """config[key] converted by kind; a bad value is a usage error."""
    try:
        return kind(config[key])
    except (TypeError, ValueError) as exc:
        raise UsageError(f"--{key.replace('_', '-')}: {exc}") from exc


def _build_lattice(config: dict) -> Lattice:
    try:
        return Lattice(int(config["lattice_n"]))
    except (TypeError, ValueError) as exc:
        raise UsageError(f"--lattice-n: {exc}") from exc


def _check_mode(config: dict) -> str:
    mode = config["constant_mode"]
    if mode not in CONSTANT_MODES:
        raise UsageError(f"--constant-mode must be one of {CONSTANT_MODES}, got {mode!r}")
    return mode


# ---------------------------------------------------------------------------
# verify


def _split_pairs(lattice: Lattice) -> list[tuple[float, float]]:
    ny = lattice.nyquist
    return [(ny / 16.0, ny / 4.0), (ny / 8.0, ny / 2.0), (ny / 4.0, 0.75 * ny)]


def _verdict_row(entry, verdict, note: str = "") -> dict:
    return {
        "index": entry.index,
        "seed": entry.seed,
        "decay": entry.decay,
        "inequality": verdict.name,
        "constant_mode": verdict.constant_mode,
        "lhs": verdict.lhs,
        "rhs": verdict.rhs,
        "ratio": verdict.ratio,
        "holds": verdict.holds,
        "note": note,
    }


def _injected_entry(lattice: Lattice, corpus: CorpusConfig):
    """A corpus entry whose velocity has a nonzero mean (test hook)."""
    from .fields import ScalarSpectralField
    from .inequalities import CorpusField

    seed = corpus.base_seed + corpus.size
    clean = random_band_limited(lattice, corpus.kmin, corpus.resolved_kmax(lattice), 1.0, seed)
    coeffs = clean.components[0].coefficients.copy()
    coeffs[0, 0, 0] = 0.5
    bad = VelocityField(
        (ScalarSpectralField(lattice, coeffs), clean.components[1], clean.components[2])
    )
    return CorpusField(index=corpus.size, seed=seed, decay=1.0, field=bad)


def cmd_verify(config: dict, run_dir: Path, log: _RunLog) -> int:
    mode = _check_mode(config)
    lattice = _build_lattice(config)
    size = _config_number(config, "corpus_size", int)
    if size < 0:
        raise UsageError(f"--corpus-size must be >= 0, got {size}")
    names = [part.strip() for part in str(config["checks"]).split(",") if part.strip()]
    known = set(REGISTERED_CHECKS) | {"split_x1"}
    for name in names:
        if name not in known:
            raise UsageError(f"unknown check {name!r}; available: {sorted(known)}")
    corpus = CorpusConfig(size=size, base_seed=_config_number(config, "seed", int))
    entries = list(corpus_fields(lattice, corpus))
    inject = config["inject_mean_violation"]
    if not isinstance(inject, bool):
        raise UsageError(f"--inject-mean-violation: expected true or false, got {inject!r}")
    if inject:
        entries.append(_injected_entry(lattice, corpus))
    pairs = _split_pairs(lattice)

    rows: list[dict] = []
    for entry in entries:
        u = entry.field
        try:
            _require_zero_mean([c.coefficients for c in u.components], f"seed {entry.seed}")
        except NonzeroMeanError:
            rejected = f"nonzero mean rejected (seed {entry.seed})"
            for name in names:
                nan_verdict = InequalityVerdict(name, math.nan, math.nan, mode)
                nan_row = _verdict_row(entry, nan_verdict, rejected)
                rows += [nan_row] * (len(pairs) if name == "split_x1" else 1)
            continue
        for name in names:
            if name == "split_x1":
                for alpha, beta in pairs:
                    report = split_x1(u, alpha, beta, constant_mode=mode)
                    note = f"alpha={alpha:g} beta={beta:g}"
                    rows += [_verdict_row(entry, verdict, note) for verdict in report.verdicts()]
            else:
                rows.append(_verdict_row(entry, REGISTERED_CHECKS[name](u, mode)))
    write_text(run_dir / "verdicts.csv", table_text("nsvlab-verify v1", VERDICT_COLUMNS, rows))

    finite_ratios = [row["ratio"] for row in rows if math.isfinite(row["ratio"])]
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
    witness_seed = None
    if finite_ratios:
        best = max(rows, key=lambda r: r["ratio"] if math.isfinite(r["ratio"]) else -math.inf)
        witness_seed = best["seed"]
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
    restart = config.get("restart")
    if restart:
        field = read_snapshot(restart)
        if not isinstance(field, VelocityField):
            raise UsageError(f"snapshot {restart} holds a scalar field, not a velocity")
        if field.lattice.n != lattice.n:
            raise UsageError(
                f"snapshot lattice n={field.lattice.n} does not match --lattice-n {lattice.n}"
            )
        return field
    kind = config["initial"]
    if kind == "taylor-green":
        return taylor_green(lattice)
    if kind == "random":
        u = random_band_limited(
            lattice, 1.0, lattice.k_unit * (lattice.n // 4), 2.0, int(config["seed"])
        )
        scale = l2_norm(u)
        if scale == 0:
            raise UsageError("random initial field is identically zero")
        return u * (0.5 / scale)
    raise UsageError(f"--initial must be 'taylor-green' or 'random', got {kind!r}")


def _solver_config(config: dict) -> SolverConfig:
    dt = config["dt"]
    if isinstance(dt, str) and dt != "auto":
        try:
            dt = float(dt)
        except ValueError as exc:
            raise UsageError(f"--dt must be a number or 'auto', got {dt!r}") from exc
    dealias = config["dealias"]
    dealias = _DEALIAS_FLAGS.get(str(dealias), dealias)
    try:
        return SolverConfig(
            nu=float(config["nu"]),
            dt=dt,
            t_end=float(config["t_end"]),
            dealias=dealias,
            integrator=config["integrator"],
            sample_every=int(config["sample_every"]),
            cfl=float(config["cfl"]),
        )
    except (TypeError, ValueError) as exc:
        raise UsageError(str(exc)) from exc


def cmd_simulate(config: dict, run_dir: Path, log: _RunLog) -> int:
    lattice = _build_lattice(config)
    solver = _solver_config(config)
    try:
        u0 = _initial_field(config, lattice)
    except (SnapshotFormatError, NonzeroMeanError, ValueError) as exc:
        if isinstance(exc, UsageError):
            raise
        raise UsageError(str(exc)) from exc

    hooks = []
    snapshot_every = _config_number(config, "snapshot_every", int)
    if snapshot_every < 0:
        raise UsageError(f"--snapshot-every must be >= 0, got {snapshot_every}")
    if snapshot_every > 0:
        counter = {"samples": 0}

        def snap_hook(sample, state):
            if counter["samples"] % snapshot_every == 0:
                write_snapshot(run_dir / f"state_{sample.step_index:06d}.nsv", state.u)
            counter["samples"] += 1

        hooks.append(snap_hook)

    try:
        trajectory = integrate(u0, solver, hooks=hooks)
    except (NonzeroMeanError, ValueError) as exc:
        raise UsageError(str(exc)) from exc
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


def cmd_monitor(config: dict, run_dir: Path, log: _RunLog) -> int:
    path = config.get("trajectory")
    if not path:
        raise UsageError("monitor needs a trajectory file (positional argument)")
    trajectory = read_trajectory(path)
    t_star = _parse_float_list(config["t_star"], "--t-star")
    c_small = _config_number(config, "c_small")
    nu = _config_number(config, "nu") if config.get("nu") is not None else None
    s_list = DEFAULT_SOBOLEV_ORDERS
    if config.get("s_list"):
        s_list = _parse_float_list(config["s_list"], "--s-list")
    try:
        monitor_config = MonitorConfig(t_star=t_star, c_small=c_small, s_list=s_list)
        traces = evaluate_traces(trajectory, monitor_config, nu=nu)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc

    table = io.StringIO()
    write_monitor_csv(traces, table)
    write_text(run_dir / "monitor.csv", table.getvalue())

    summary = monitor_summary(traces)
    summary["trajectory"] = {
        "path": str(path),
        "lattice_n": trajectory.lattice_n,
        "samples": len(trajectory.samples),
        "failed": trajectory.failed,
        "code_version": trajectory.code_version,
    }
    failed_check = False
    checks = (
        ("h52_energy", lambda: h52_energy_residual(trajectory, nu=nu)),
        ("h12_log_growth", lambda: h12_log_growth_check(trajectory, c_small, nu)),
        ("xm1_gronwall", lambda: xm1_gronwall_check(trajectory)),
    )
    for key, run in checks:
        try:
            report = run()
        except ValueError as exc:
            summary[key] = {"available": False, "reason": str(exc)}
            continue
        summary[key] = {
            "available": True,
            "empirical_constant": report.empirical_constant,
            "holds": report.holds,
        }
        if not report.holds:
            failed_check = True
    write_json(run_dir / "monitor_summary.json", summary)
    log.write(f"monitor: {len(traces)} traces over {len(trajectory.samples)} samples")
    return EXIT_MATH_FAIL if failed_check else EXIT_PASS


# ---------------------------------------------------------------------------
# constants


def _parse_band_requests(text: str) -> list[tuple[float, float | None, float | None]]:
    requests = []
    for chunk in str(text).split(","):
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


def cmd_constants(config: dict, run_dir: Path, log: _RunLog) -> int:
    lattice = _build_lattice(config)
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


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON config file; flags override its keys")
    parser.add_argument("--seed", type=int, help="base seed for random fields")
    parser.add_argument("--out", help="output root; runs go to OUT/run-NNNN")
    parser.add_argument("--lattice-n", dest="lattice_n", type=int, help="modes per axis (even, >= 8)")
    parser.add_argument(
        "--constant-mode",
        dest="constant_mode",
        choices=CONSTANT_MODES,
        help="which constants gate the inequalities",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nsvlab",
        description="Spectral norm inequalities and blow-up functionals on the periodic box.",
    )
    parser.add_argument("--version", action="version", version=f"nsvlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run the inequality suite over a random corpus")
    _add_common(p_verify)
    p_verify.add_argument("--corpus-size", dest="corpus_size", type=int, help="number of fields")
    p_verify.add_argument("--checks", action="append", help=f"comma list (default {DEFAULT_CHECKS})")
    p_verify.add_argument(
        "--inject-mean-violation",
        dest="inject_mean_violation",
        action="store_const",
        const=True,
        help="append a nonzero-mean field (error-path test hook)",
    )

    p_sim = sub.add_parser("simulate", help="integrate a velocity field and record norms")
    _add_common(p_sim)
    p_sim.add_argument("--nu", type=float, help="viscosity (> 0)")
    p_sim.add_argument("--dt", help="step size or 'auto'")
    p_sim.add_argument("--t-end", dest="t_end", type=float, help="final time")
    p_sim.add_argument("--initial", choices=("taylor-green", "random"), help="initial condition")
    p_sim.add_argument("--dealias", choices=("23", "32"), help="2/3 mask or 3/2 padding")
    p_sim.add_argument("--integrator", choices=("rk4", "imex"), help="time integrator")
    p_sim.add_argument("--sample-every", dest="sample_every", type=int, help="steps per sample")
    p_sim.add_argument("--cfl", type=float, help="advective CFL number for dt='auto'")
    p_sim.add_argument(
        "--snapshot-every",
        dest="snapshot_every",
        type=int,
        help="write a restart snapshot every Nth sample (0 = never)",
    )
    p_sim.add_argument("--restart", help="start from a snapshot file instead of --initial")

    p_mon = sub.add_parser("monitor", help="evaluate blow-up functionals along a trajectory")
    _add_common(p_mon)
    p_mon.add_argument("trajectory", nargs="?", help="trajectory CSV or JSON file")
    p_mon.add_argument("--t-star", action="append", help="comma list of candidate singular times")
    p_mon.add_argument("--c-small", dest="c_small", type=float, help="smallness constant c")
    p_mon.add_argument("--nu", type=float, help="viscosity override for external trajectories")
    p_mon.add_argument("--s-list", action="append", help="comma list of Sobolev orders for rates")

    p_const = sub.add_parser("constants", help="tabulate lattice vs continuum band constants")
    _add_common(p_const)
    p_const.add_argument(
        "--band",
        action="append",
        help="comma list of EXPONENT:ALPHA:BETA requests (empty side = low/high band)",
    )
    return parser


_COMMANDS = {
    "verify": cmd_verify,
    "simulate": cmd_simulate,
    "monitor": cmd_monitor,
    "constants": cmd_constants,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    command = args.command
    try:
        config = _merge_config(command, args)
        run_dir = _next_run_dir(config["out"])
    except UsageError as exc:
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
        status = _COMMANDS[command](config, run_dir, log)
        log.write(f"done {command} exit={status}")
        print(run_dir)
        return status
    except (UsageError, TrajectoryFormatError, SnapshotFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        log.write(f"usage error: {exc}")
        return EXIT_USAGE
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
