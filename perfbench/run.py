"""nsvlab benchmark: CLI workloads in a closed loop, timed end to end,
with a separate traced run for per-module numbers.

Usage (from the repository root):

    python3 perfbench/run.py --workload study-rand64-imex --seed 1 --seconds 55 --trace 0

The program is imported from ``src/`` of the checkout this file lives in;
nothing is installed.  A single client runs ops back to back (closed loop)
for ``--seconds``; each op calls ``nsvlab.cli.main`` in process and passes
its artifacts through the correctness gate in ``workloads.py``.

``--trace 0`` reports the end-to-end metrics: medians over the ops of the
run, set-up time as the median of several set-ups.  ``--trace 1`` spends
half the time untraced and half with every module's public functions
wrapped (``tracer.py``), and reports per-module medians plus the tracing
overhead (traced minus untraced op wall time).  Human-readable lines come
first; the last line of stdout is one JSON object.  The exit code is 0
when every op passed the gate, 1 when one did not, and 2 when the program
cannot be loaded (no result is printed then).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import workloads  # standard library only; numpy loads after the thread pins

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench-work"

# Pinned before numpy is imported; no workload may use more than 2 threads.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
THREADS = "2"
SETUP_REPEATS = 3
MIN_OPS = 3
STEP_PROBE_STEPS = 6

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "ops_per_s": "1/s",
}

PER_LAYER = {
    "fields.fft_ms": "ms",
    "fields.fft_calls": "count",
    "fields.fft_points": "count",
    "fields.leray_project_ms": "ms",
    "fields.random_band_limited_ms": "ms",
    "norms.full_report_ms": "ms",
    "norms.full_report_calls": "count",
    "norms.norm_calls": "count",
    "norms.band_constant_ms": "ms",
    "norms.band_constant_calls": "count",
    "products.embed_restrict_ms": "ms",
    "products.advect_ms": "ms",
    "inequalities.x0_interpolation_ms": "ms",
    "inequalities.x0_via_xm1_h52_ms": "ms",
    "inequalities.x0_via_h12_x1_ms": "ms",
    "inequalities.h32_trilinear_ms": "ms",
    "inequalities.split_x1_ms": "ms",
    "inequalities.self_s": "s",
    "sim.step_ms.p50": "ms",
    "sim.step_ms.p90": "ms",
    "sim.nonlinear_term_ms": "ms",
    "sim.integrate_self_s": "s",
    "sim.steps": "count",
    "trajectory.write_ms": "ms",
    "trajectory.read_ms": "ms",
    "trajectory.bytes": "bytes",
    "snapshot.write_ms": "ms",
    "snapshot.read_ms": "ms",
    "snapshot.bytes": "bytes",
    "monitor.evaluate_traces_ms": "ms",
    "monitor.checks_ms": "ms",
    "monitor.write_csv_ms": "ms",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}

WORKLOAD_NAMES = ("verify-corpus32", "study-rand64-imex")


class LoadError(RuntimeError):
    """The program under test cannot be imported from this checkout."""


def parse_args(argv):
    parser = argparse.ArgumentParser(description="nsvlab benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def load_program():
    """Pin threads, then import nsvlab.cli from this checkout's src/."""
    if not (SRC / "nsvlab" / "cli.py").is_file():
        raise LoadError(f"no nsvlab sources under {SRC}")
    for var in THREAD_VARS:
        os.environ[var] = THREADS
    sys.path.insert(0, str(SRC))
    import nsvlab
    import nsvlab.cli

    if Path(nsvlab.__file__).resolve().parent != (SRC / "nsvlab").resolve():
        raise LoadError(f"imported nsvlab from {nsvlab.__file__}, not from {SRC}")
    return nsvlab.cli


def cold_import_seconds() -> float:
    """Time a fresh interpreter importing the CLI, as every command pays."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", "import nsvlab.cli"],
        cwd=ROOT, env=env, check=True, timeout=120, capture_output=True,
    )
    return time.perf_counter() - start


def set_up(workload) -> tuple[float, list[str]]:
    """One set-up: a cold import and a reduced warm-up op."""
    start = time.perf_counter()
    cold_import_seconds()
    try:
        failures = workload.warm_up()
    except Exception:  # the gate reports a crashing op instead of dying with it
        failures = [traceback.format_exc(limit=3)]
    return time.perf_counter() - start, failures


def guarded_op(workload, index: int):
    start = time.perf_counter()
    try:
        return workload.run_op(index)
    except Exception:  # the gate reports a crashing op instead of dying with it
        wall = time.perf_counter() - start
        return workloads.OpResult(wall, 0, wall, failures=[traceback.format_exc(limit=3)])


def closed_loop(workload, seconds: float, min_ops: int, tracer=None) -> list:
    """Run ops back to back; stop when the next op would overrun ``seconds``."""
    results = []
    start = time.perf_counter()
    while True:
        if tracer is not None:
            tracer.reset()
        result = guarded_op(workload, len(results))
        if tracer is not None:
            result.layers = tracer.collect()
        results.append(result)
        elapsed = time.perf_counter() - start
        typical = statistics.median(r.wall for r in results)
        if len(results) >= min_ops and elapsed + typical > seconds:
            return results


def step_probe(workload, tracer) -> dict[str, float]:
    """Time the public step() and nonlinear_term() on the workload's own
    config and states, untraced; then count FFTs inside traced step() calls."""
    from nsvlab import nonlinear_term, step

    probe = workload.step_probe()
    if probe is None:
        return {}
    config, state, dt = probe
    step_times, nl_times = [], []
    for _ in range(STEP_PROBE_STEPS):
        start = time.perf_counter()
        nonlinear_term(state.u, config.dealias)
        nl_times.append(time.perf_counter() - start)
        start = time.perf_counter()
        state = step(state, config, dt)
        step_times.append(time.perf_counter() - start)
    traced = []
    tracer.install()
    try:
        for _ in range(STEP_PROBE_STEPS):
            tracer.reset()
            state = step(state, config, dt)
            traced.append(tracer.collect())
    finally:
        tracer.uninstall()
    p90 = statistics.quantiles(step_times, n=10, method="inclusive")[-1]
    return {
        "sim.step_ms.p50": 1e3 * statistics.median(step_times),
        "sim.step_ms.p90": 1e3 * p90,
        "sim.nonlinear_term_ms": 1e3 * statistics.median(nl_times),
        "fields.fft_ms": 1e3 * statistics.median(d.get("fields.fft.s", 0.0) for d in traced),
        "fields.fft_calls": statistics.median(d.get("fields.fft.calls", 0) for d in traced),
        "fields.fft_points": statistics.median(d.get("fields.fft.points", 0) for d in traced),
    }


def layer_metrics(results, probe: dict[str, float], overhead: float) -> dict[str, float]:
    """Per-module medians over traced ops (per op unless noted in README)."""

    def med(fn) -> float:
        return statistics.median(fn(r.layers) for r in results)

    def ms(group):
        return lambda d: 1e3 * d.get(group + ".s", 0.0)

    def calls(group):
        return lambda d: d.get(group + ".calls", 0)

    def self_s(prefix):
        return lambda d: sum(
            v for k, v in d.items() if k.startswith(prefix) and k.endswith(".self_s")
        )

    out = {
        "fields.fft_ms": med(ms("fields.fft")),
        "fields.fft_calls": med(calls("fields.fft")),
        "fields.fft_points": med(lambda d: d.get("fields.fft.points", 0)),
        "fields.leray_project_ms": med(ms("fields.leray_project")),
        "fields.random_band_limited_ms": med(ms("fields.random_band_limited")),
        "norms.full_report_ms": med(ms("norms.full_report")),
        "norms.full_report_calls": med(calls("norms.full_report")),
        "norms.norm_calls": med(calls("norms.norm")),
        "norms.band_constant_ms": med(ms("norms.band_constant")),
        "norms.band_constant_calls": med(calls("norms.band_constant")),
        "products.embed_restrict_ms": med(ms("products.embed_restrict")),
        "products.advect_ms": med(ms("products.advect")),
        "inequalities.x0_interpolation_ms": med(ms("inequalities.x0_interpolation")),
        "inequalities.x0_via_xm1_h52_ms": med(ms("inequalities.x0_via_xm1_h52")),
        "inequalities.x0_via_h12_x1_ms": med(ms("inequalities.x0_via_h12_x1")),
        "inequalities.h32_trilinear_ms": med(ms("inequalities.h32_trilinear")),
        "inequalities.split_x1_ms": med(ms("inequalities.split_x1")),
        "inequalities.self_s": med(self_s("inequalities.")),
        "sim.step_ms.p50": 0.0,
        "sim.step_ms.p90": 0.0,
        "sim.nonlinear_term_ms": 0.0,
        "sim.integrate_self_s": med(self_s("sim.integrate.")),
        "sim.steps": statistics.median(r.steps for r in results),
        "trajectory.write_ms": med(ms("trajectory.write")),
        "trajectory.read_ms": med(ms("trajectory.read")),
        "trajectory.bytes": med(
            lambda d: d.get("trajectory.write.bytes", 0) + d.get("trajectory.read.bytes", 0)
        ),
        "snapshot.write_ms": med(ms("snapshot.write")),
        "snapshot.read_ms": med(ms("snapshot.read")),
        "snapshot.bytes": med(
            lambda d: d.get("snapshot.write.bytes", 0) + d.get("snapshot.read.bytes", 0)
        ),
        "monitor.evaluate_traces_ms": med(ms("monitor.evaluate_traces")),
        "monitor.checks_ms": med(ms("monitor.checks")),
        "monitor.write_csv_ms": med(ms("monitor.write_csv")),
        "cli.self_s": med(self_s("cli.")),
        "trace.overhead_s": overhead,
    }
    out.update(probe)
    return out


def cache_size(index: int) -> str:
    path = Path(f"/sys/devices/system/cpu/cpu0/cache/index{index}/size")
    try:
        return path.read_text().strip()
    except OSError:
        return "unknown"


def environment_lines(workload) -> list[str]:
    import numpy
    import scipy

    affinity = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None
    pinned = " ".join(f"{var}={os.environ[var]}" for var in THREAD_VARS)
    return [
        f"env python {platform.python_version()} numpy {numpy.__version__} "
        f"scipy {scipy.__version__}",
        f"env nproc {os.cpu_count()} (usable {affinity}); pinned {pinned}",
        f"env L2 {cache_size(2)} per core, L3 {cache_size(3)}; "
        f"working set: {workload.working_set}",
    ]


def metric_line(name: str, value: float, unit: str, count: int, note: str = "") -> str:
    suffix = f"  [{note}]" if note else ""
    return f"{name:34s} {value:14.6g} {unit:6s} (n={count}){suffix}"


def run(args, cli) -> tuple[dict, list[str]]:
    from tracer import Tracer

    workdir = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir, cli.main)
        setups, failures = [], []
        for _ in range(1 if args.trace else SETUP_REPEATS):
            seconds, more = set_up(workload)
            setups.append(seconds)
            failures.append(more)
        lines = environment_lines(workload)
        if args.trace:
            untraced = closed_loop(workload, args.seconds / 2, 2)
            tracer = Tracer()
            workload.tracer = tracer
            tracer.install()
            try:
                traced = closed_loop(workload, args.seconds / 2, 2, tracer)
            finally:
                tracer.uninstall()
                workload.tracer = None
            overhead = statistics.median(r.wall for r in traced) - statistics.median(
                r.wall for r in untraced
            )
            probe = step_probe(workload, tracer)
            results = untraced + traced
            metrics = layer_metrics(traced, probe, overhead)
            units, counts = PER_LAYER, {k: len(traced) for k in PER_LAYER}
            for key in probe:
                counts[key] = STEP_PROBE_STEPS
        else:
            results = closed_loop(workload, args.seconds, MIN_OPS)
            metrics = {
                "wall_s": statistics.median(r.wall for r in results),
                "setup_s": statistics.median(setups),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "ops_per_s": statistics.median(r.work / r.work_time for r in results),
            }
            units = END_TO_END
            counts = {"wall_s": len(results), "setup_s": len(setups),
                      "peak_rss_mb": 1, "ops_per_s": len(results)}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another run still uses it

    failures += [r.failures for r in results]
    attempted = len(failures)
    failed = sum(1 for f in failures if f)
    for problems in failures:
        for problem in problems[:5]:
            lines.append(f"FAIL {problem}")
    notes = {"ops_per_s": f"{workload.work_unit} per second"}
    for name, unit in units.items():
        lines.append(metric_line(name, metrics[name], unit, counts[name], notes.get(name, "")))
    lines.append(metric_line("error_rate", failed / attempted, "ratio", attempted,
                             "failed ops / attempted ops, set-up warm-ups included"))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    return result, lines


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        cli = load_program()
    except (LoadError, ImportError) as exc:
        print(f"perfbench: cannot load nsvlab: {exc}", file=sys.stderr)
        return 2
    result, lines = run(args, cli)
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} closed loop, 1 client")
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
