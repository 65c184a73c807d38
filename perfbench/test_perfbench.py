"""Self-test of the benchmark: every metric named in BENCHMARK.json is
emitted, and corrupted artifacts trip the correctness gate.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

CLI = run.load_program()

import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_spec_names_match_harness():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES)
    assert sorted(run.WORKLOAD_NAMES) == sorted(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize(
    "workload, trace, section",
    [("verify-corpus32", 0, "end_to_end"), ("study-rand64-imex", 1, "per_layer")],
)
def test_every_metric_is_emitted(workload, trace, section):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "5", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
    if trace:
        assert result["metrics"]["fields.fft_calls"]["value"] > 0
        assert result["metrics"]["sim.steps"]["value"] == 3


def test_missing_program_exits_nonzero_without_result(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in HERE.glob("*.py"):
        (bench / path.name).write_bytes(path.read_bytes())
    proc = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "verify-corpus32",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode not in (0, None)
    assert proc.stdout.strip() == ""


def corrupt_last_value(path: Path) -> None:
    lines = path.read_text(encoding="utf-8").splitlines()
    fields = lines[-1].split(",")
    fields[-1] = repr(float(fields[-1]) * (1.0 + 1e-6))
    lines[-1] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_corrupted_trajectory_trips_gate(tmp_path):
    study = workloads.StudyRand64Imex(5, tmp_path, CLI.main)
    first = study.run_op(0)
    assert first.failures == [] and first.steps == 3
    run_dir = study.invoke(study.main_argv(study.main_steps)).run_dir
    reference = study.references[str(study.pool_index)]["main"]
    assert study.trajectory_failures("simulate", run_dir, reference)[0] == []
    corrupt_last_value(run_dir / "trajectory.csv")
    failures, _ = study.trajectory_failures("simulate", run_dir, reference)
    assert any("differs from the first op" in f for f in failures)
    assert any("x1 = " in f for f in failures)


def test_corrupted_verify_summary_trips_gate(tmp_path):
    verify = workloads.VerifyCorpus32(11, tmp_path, CLI.main)
    verify.corpus_size = 1
    inv = verify.invoke(verify.argv(1))
    assert verify.verify_failures(inv.run_dir) == []
    summary_path = inv.run_dir / "summary.json"
    summary = json.loads(summary_path.read_text(encoding="utf-8"))
    summary["all_hold"] = False
    summary_path.write_text(json.dumps(summary), encoding="utf-8")
    with open(inv.run_dir / "verdicts.csv", "a", encoding="utf-8") as fh:
        fh.write("extra,row\n")
    failures = verify.verify_failures(inv.run_dir)
    assert any("all_hold" in f for f in failures)
    assert any("rows" in f for f in failures)


def test_corrupted_monitor_summary_trips_gate(tmp_path):
    good = tmp_path / "good"
    good.mkdir()
    summary = {
        "functionals": [{}] * 4,
        "trajectory": {"samples": 3},
        **{key: {"available": True} for key in workloads.MONITOR_CHECKS},
    }
    (good / "monitor_summary.json").write_text(json.dumps(summary), encoding="utf-8")
    assert workloads.monitor_summary_failures(good, 4, 3) == []
    summary["h52_energy"] = {"available": False, "reason": "need at least 2 samples"}
    summary["functionals"] = [{}] * 3
    (good / "monitor_summary.json").write_text(json.dumps(summary), encoding="utf-8")
    failures = workloads.monitor_summary_failures(good, 4, 3)
    assert len(failures) == 2
