"""Record the final-sample norm references that the correctness gate checks.

Runs every pool entry of the solver workload once and writes
``references.json`` next to this file.  Run it only on a commit whose
solver is trusted (the references here come from the commit that added
the benchmark); a later change that moves a norm by more than
``workloads.REFERENCE_RTOL`` must explain why before re-recording.

    python3 perfbench/record_references.py
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402


def reference(traj) -> dict:
    return {"step": traj.final_step(), "norms": {k: float(v) for k, v in traj.row_norms(-1).items()}}


def main() -> int:
    cli = run.load_program()
    workdir = run.WORK_ROOT / "record-references"
    shutil.rmtree(workdir, ignore_errors=True)
    refs: dict[str, dict] = {"study-rand64-imex": {}}
    try:
        for index in range(workloads.POOL_SIZE):
            study = workloads.StudyRand64Imex(index, workdir, cli.main)
            main_run = study.invoke(study.main_argv(study.main_steps))
            snapshot = sorted(main_run.run_dir.glob("state_*.nsv"))[-1]
            restart = study.invoke(study.restart_argv(snapshot))
            refs[study.name][str(index)] = {
                "main": reference(workloads.parse_trajectory_csv(main_run.run_dir / "trajectory.csv")),
                "restart": reference(workloads.parse_trajectory_csv(restart.run_dir / "trajectory.csv")),
            }
            print(f"pool entry {index} recorded", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(workloads.REFERENCES_PATH, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
