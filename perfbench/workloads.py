"""The benchmark workloads: inputs from a seed, one closed-loop op, and
the correctness gate that every op passes through.

One op is one client request in a closed loop: the harness starts the next
op only when the previous one has returned.  Every op drives
``nsvlab.cli.main`` in process, exactly as the ``nsvlab`` command would,
and then checks the artifacts it wrote.  Artifacts are parsed here with
plain Python, never with nsvlab's own readers, so the gate does not trust
the code it checks and adds no spans to a traced op.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCES_PATH = HERE / "references.json"

# Inputs are drawn from a pool indexed by the seed, so that every seed has a
# final-norm reference recorded from the seed commit (references.json).
POOL_SIZE = 16
# Relative tolerance on final-sample norms against the recorded reference.
# Rewrites that reorder sums move norms by ~1e-15 per step; 1e-9 leaves
# ample room for that and still catches a wrong scheme.
REFERENCE_RTOL = 1e-9

NORM_COLUMNS = ("l2", "h0.5", "h1", "h1.5", "h2.5", "h3.5", "x-1", "x0", "x1")
VERIFY_CHECKS = "x0_interpolation,x0_via_xm1_h52,x0_via_h12_x1,split_x1,h32_trilinear"
# Rows per corpus field for VERIFY_CHECKS: three single checks, h32_trilinear,
# and split_x1 at three (alpha, beta) pairs with four verdicts each.
VERIFY_ROWS_PER_FIELD = 3 + 1 + 3 * 4
# Traces per t_star with the default Sobolev orders: theorem1, theorem2 and
# theorem3 in two log variants each, and six rate-catalog entries.
MONITOR_TRACES_PER_T_STAR = 1 + 2 + 2 + 6
MONITOR_CHECKS = ("h52_energy", "h12_log_growth", "xm1_gronwall")


@dataclass
class Invocation:
    argv: list[str]
    rc: int
    run_dir: Path | None
    wall: float
    stderr: str


@dataclass
class OpResult:
    """One closed-loop op: its wall time, the work it did and its gate result."""

    wall: float
    work: int
    work_time: float
    steps: int = 0
    failures: list[str] = field(default_factory=list)
    layers: dict[str, float] = field(default_factory=dict)


@dataclass
class CsvTrajectory:
    header: dict[str, str]
    columns: list[str]
    rows: list[list[str]]

    @property
    def failed(self) -> bool:
        return json.loads(self.header.get("failed", "true"))

    def row_norms(self, index: int) -> dict[str, str]:
        row = self.rows[index]
        return {name: row[self.columns.index(name)] for name in NORM_COLUMNS}

    def final_step(self) -> int:
        return int(self.rows[-1][self.columns.index("step")])


def parse_trajectory_csv(path: Path) -> CsvTrajectory:
    header: dict[str, str] = {}
    columns: list[str] = []
    rows: list[list[str]] = []
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition(": ")
            header[key] = value
        elif not columns:
            columns = line.split(",")
        elif line:
            rows.append(line.split(","))
    return CsvTrajectory(header, columns, rows)


def digest(path: Path) -> tuple[str, int]:
    """sha256 and line count of a file, read in chunks."""
    h = hashlib.sha256()
    lines = 0
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
            lines += chunk.count(b"\n")
    return h.hexdigest(), lines


def compare_norms(label: str, got: dict[str, str], want: dict[str, float]) -> list[str]:
    failures = []
    for name in NORM_COLUMNS:
        value, expected = float(got[name]), float(want[name])
        if not (math.isfinite(value) and abs(value - expected) <= REFERENCE_RTOL * abs(expected)):
            failures.append(f"{label}: {name} = {value!r}, reference {expected!r}")
    return failures


def load_references() -> dict:
    if not REFERENCES_PATH.is_file():
        return {}
    return json.loads(REFERENCES_PATH.read_text(encoding="utf-8"))


class Workload:
    """Base: a seeded workload that runs closed-loop ops through the CLI."""

    name = ""
    work_unit = ""
    working_set = ""

    def __init__(self, seed: int, workdir: Path, cli_main) -> None:
        self.seed = seed
        self.pool_index = seed % POOL_SIZE
        self.workdir = workdir
        self.out = workdir / "out"
        self.cli_main = cli_main
        self.tracer = None
        self.references = load_references().get(self.name, {})
        self._first: dict[str, str] = {}
        self._stale: list[Path] = []

    # -- helpers ------------------------------------------------------------

    def invoke(self, argv: list[str]) -> Invocation:
        argv = [argv[0], "--out", str(self.out)] + argv[1:]
        out, err = io.StringIO(), io.StringIO()
        span = self.tracer.span("cli") if self.tracer is not None else contextlib.nullcontext()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), span:
            rc = self.cli_main(argv)
        wall = time.perf_counter() - start
        printed = out.getvalue().split()
        run_dir = Path(printed[-1]) if printed else None
        if run_dir is not None:
            self._stale.append(run_dir)
        return Invocation(argv, rc, run_dir, wall, err.getvalue().strip())

    def clear_stale(self) -> None:
        for run_dir in self._stale:
            shutil.rmtree(run_dir, ignore_errors=True)
        self._stale.clear()

    @staticmethod
    def exit_failures(inv: Invocation) -> list[str]:
        if inv.rc == 0 and inv.run_dir is not None:
            return []
        return [f"{inv.argv[0]} exited {inv.rc}: {inv.stderr[-300:]}"]

    def same_as_first(self, key: str, sha: str) -> list[str]:
        """Byte identity (by sha256) of an artifact with the first op's."""
        first = self._first.setdefault(key, sha)
        return [] if sha == first else [f"{key} differs from the first op's bytes"]

    def trajectory_failures(self, label: str, run_dir: Path, reference: dict | None):
        """Gate one trajectory.csv; returns (failures, parsed trajectory or None)."""
        path = run_dir / "trajectory.csv"
        if not path.is_file():
            return [f"{label}: no trajectory.csv"], None
        traj = parse_trajectory_csv(path)
        failures = self.same_as_first(f"{label} trajectory.csv", digest(path)[0])
        if traj.failed or not traj.rows:
            failures.append(f"{label}: trajectory failed or empty")
            return failures, None
        if reference is None:
            failures.append(f"{label}: no reference for pool index {self.pool_index}")
        else:
            if traj.final_step() != reference["step"]:
                failures.append(
                    f"{label}: final step {traj.final_step()}, reference {reference['step']}"
                )
            failures += compare_norms(label, traj.row_norms(-1), reference["norms"])
        return failures, traj

    # -- interface ----------------------------------------------------------

    def warm_up(self) -> list[str]:
        raise NotImplementedError

    def run_op(self, index: int) -> OpResult:
        raise NotImplementedError

    def step_probe(self):
        """(SolverConfig, first state, dt) for timing the public step(); None if
        the workload does not step the solver."""
        return None


class VerifyCorpus32(Workload):
    name = "verify-corpus32"
    work_unit = "verdicts"
    working_set = "n=32 field 1.5 MB; padded 48^3 products 1.8 MB per component"
    corpus_size = 12

    def argv(self, size: int) -> list[str]:
        return [
            "verify", "--lattice-n", "32", "--corpus-size", str(size),
            "--seed", str(self.seed), "--constant-mode", "lattice", "--checks", VERIFY_CHECKS,
        ]

    def warm_up(self) -> list[str]:
        inv = self.invoke(self.argv(1))
        self.clear_stale()
        return self.exit_failures(inv)

    def run_op(self, index: int) -> OpResult:
        self.clear_stale()
        inv = self.invoke(self.argv(self.corpus_size))
        failures = self.exit_failures(inv)
        rows = 0
        if not failures:
            failures += self.verify_failures(inv.run_dir)
            if not failures:
                rows = self.corpus_size * VERIFY_ROWS_PER_FIELD
        return OpResult(inv.wall, rows, inv.wall, 0, failures)

    def verify_failures(self, run_dir: Path) -> list[str]:
        expected = self.corpus_size * VERIFY_ROWS_PER_FIELD
        summary = json.loads((run_dir / "summary.json").read_text(encoding="utf-8"))
        sha, lines = digest(run_dir / "verdicts.csv")
        failures = self.same_as_first("verdicts.csv", sha)
        if summary.get("all_hold") is not True:
            failures.append(f"verify: all_hold is {summary.get('all_hold')!r}")
        if summary.get("rows") != expected or lines != expected + 2:
            failures.append(
                f"verify: {summary.get('rows')} rows in summary, {lines - 2} in verdicts.csv, "
                f"expected {expected}"
            )
        return failures


class StudyRand64Imex(Workload):
    name = "study-rand64-imex"
    work_unit = "solver steps"
    working_set = "n=64 stack 3x64^3 complex128 = 12.6 MB; padded 96^3 component 14 MB"

    nu = 0.1
    dt = 1.0 / 128.0
    main_steps = 2
    restart_steps = 1
    t_star = "0.5,1.0"

    def __init__(self, seed, workdir, cli_main):
        super().__init__(seed, workdir, cli_main)
        self.field_seed = 7001 + self.pool_index
        self.last_snapshot: Path | None = None

    def main_argv(self, steps: int) -> list[str]:
        return [
            "simulate", "--lattice-n", "64", "--initial", "random",
            "--seed", str(self.field_seed), "--nu", repr(self.nu), "--dealias", "32",
            "--integrator", "imex", "--dt", repr(self.dt), "--t-end", repr(steps * self.dt),
            "--sample-every", "1", "--snapshot-every", "2",
        ]

    def restart_argv(self, snapshot: Path) -> list[str]:
        return [
            "simulate", "--lattice-n", "64", "--restart", str(snapshot), "--nu", repr(self.nu),
            "--dealias", "32", "--integrator", "imex", "--dt", repr(self.dt),
            "--t-end", repr(self.restart_steps * self.dt), "--sample-every", "1",
        ]

    def warm_up(self) -> list[str]:
        inv = self.invoke(self.main_argv(1))
        self.clear_stale()
        return self.exit_failures(inv)

    def run_op(self, index: int) -> OpResult:
        self.clear_stale()
        start = time.perf_counter()
        refs = self.references.get(str(self.pool_index), {})
        main = self.invoke(self.main_argv(self.main_steps))
        failures = self.exit_failures(main)
        if failures:
            return OpResult(time.perf_counter() - start, 0, main.wall, 0, failures)
        more, main_traj = self.trajectory_failures("simulate", main.run_dir, refs.get("main"))
        failures += more
        snapshots = sorted(main.run_dir.glob("state_*.nsv"))
        if main_traj is None or not snapshots:
            failures.append("simulate: no trajectory or no snapshot to restart from")
            return OpResult(time.perf_counter() - start, 0, main.wall, 0, failures)
        self.last_snapshot = snapshots[0]
        restart = self.invoke(self.restart_argv(snapshots[-1]))
        monitor = self.invoke(
            ["monitor", str(main.run_dir / "trajectory.csv"), "--t-star", self.t_star]
        )
        wall = time.perf_counter() - start
        failures += self.exit_failures(restart) + self.exit_failures(monitor)
        steps = 0
        if restart.rc == 0:
            more, restart_traj = self.trajectory_failures(
                "restart", restart.run_dir, refs.get("restart")
            )
            failures += more
            if restart_traj is not None:
                steps = main_traj.final_step() + restart_traj.final_step()
                if restart_traj.row_norms(0) != main_traj.row_norms(-1):
                    failures.append("restart: first sample differs from the snapshot's sample")
        if monitor.rc == 0:
            t_star_count = len(self.t_star.split(","))
            failures += monitor_summary_failures(
                monitor.run_dir, MONITOR_TRACES_PER_T_STAR * t_star_count, main_traj.final_step() + 1
            )
        return OpResult(wall, steps, main.wall + restart.wall, steps, failures)

    def step_probe(self):
        from nsvlab import SolverConfig, SolverState, read_snapshot

        if self.last_snapshot is None:
            return None
        config = SolverConfig(
            nu=self.nu, dt=self.dt, t_end=self.main_steps * self.dt, dealias="three-halves",
            integrator="imex", sample_every=1,
        )
        return config, SolverState(0.0, read_snapshot(self.last_snapshot)), self.dt


def monitor_summary_failures(run_dir: Path, traces: int, samples: int) -> list[str]:
    summary = json.loads((run_dir / "monitor_summary.json").read_text(encoding="utf-8"))
    failures = []
    if len(summary.get("functionals", ())) != traces:
        failures.append(f"monitor: {len(summary.get('functionals', ()))} traces, expected {traces}")
    if summary.get("trajectory", {}).get("samples") != samples:
        failures.append(f"monitor: read {summary.get('trajectory', {}).get('samples')} samples")
    for key in MONITOR_CHECKS:
        if summary.get(key, {}).get("available") is not True:
            failures.append(f"monitor: {key} not available: {summary.get(key)}")
    return failures


WORKLOADS = {cls.name: cls for cls in (VerifyCorpus32, StudyRand64Imex)}
