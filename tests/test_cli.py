import json
import math

import pytest

from nsvlab.cli import main
from nsvlab.trajectory import read_trajectory, write_trajectory_csv
from nsvlab.snapshot import read_snapshot


def run(tmp_path, *argv, out="out"):
    """Invoke the CLI in-process; returns (exit_code, run_dir)."""
    out_dir = tmp_path / out
    code = main([argv[0], "--out", str(out_dir), *argv[1:]])
    runs = sorted(out_dir.glob("run-*")) if out_dir.exists() else []
    return code, (runs[-1] if runs else None)


SIM_ARGS = (
    "simulate", "--lattice-n", "16", "--nu", "0.1", "--dt", "0.01",
    "--t-end", "0.05", "--sample-every", "2",
)


# ---------------------------------------------------------------------------
# verify


def test_verify_small_corpus(tmp_path):
    code, run_dir = run(
        tmp_path, "verify", "--lattice-n", "16", "--corpus-size", "4"
    )
    assert code == 0
    verdicts = (run_dir / "verdicts.csv").read_text().splitlines()
    assert verdicts[0] == "# nsvlab-verify v1"
    assert verdicts[1].startswith("index,seed,decay,inequality,")
    # 3 pointwise checks + 3 split pairs x 4 verdicts each, per field
    assert len(verdicts) == 2 + 4 * (3 + 12)
    summary = json.loads((run_dir / "summary.json").read_text())
    assert summary["all_hold"] is True
    assert summary["violations"] == []
    assert 0 < summary["max_ratio"] <= 1.0 + 1e-10
    assert summary["witness_seed"] is not None
    effective = json.loads((run_dir / "effective_config.json").read_text())
    assert effective["command"] == "verify"
    assert effective["corpus_size"] == 4
    assert "code_version" in effective
    assert (run_dir / "run.log").exists()


def test_verify_injected_violation_names_seed(tmp_path):
    code, run_dir = run(
        tmp_path, "verify", "--lattice-n", "16", "--corpus-size", "2",
        "--inject-mean-violation",
    )
    assert code == 1
    summary = json.loads((run_dir / "summary.json").read_text())
    assert summary["all_hold"] is False
    assert summary["violations"]
    notes = " ".join(v["note"] for v in summary["violations"])
    assert "seed 2026" in notes  # base seed 2024 + corpus size 2
    assert "nonzero mean rejected" in notes


def test_verify_rejects_unknown_check(tmp_path, capsys):
    code, _ = run(tmp_path, "verify", "--lattice-n", "16", "--checks", "x0_magic")
    assert code == 2
    assert "unknown check" in capsys.readouterr().err


def test_verify_rejects_negative_corpus(tmp_path):
    code, _ = run(tmp_path, "verify", "--lattice-n", "16", "--corpus-size", "-3")
    assert code == 2


# ---------------------------------------------------------------------------
# determinism (byte-identical artifacts)


def test_verify_runs_are_byte_identical(tmp_path):
    args = ("verify", "--lattice-n", "16", "--corpus-size", "3")
    _, first = run(tmp_path, *args)
    _, second = run(tmp_path, *args)
    assert first.name == "run-0000" and second.name == "run-0001"
    for name in ("verdicts.csv", "summary.json", "effective_config.json"):
        assert (first / name).read_bytes() == (second / name).read_bytes(), name


def test_simulate_runs_are_byte_identical(tmp_path):
    _, first = run(tmp_path, *SIM_ARGS)
    _, second = run(tmp_path, *SIM_ARGS)
    for name in ("trajectory.csv", "trajectory.json", "effective_config.json"):
        assert (first / name).read_bytes() == (second / name).read_bytes(), name


def test_run_directories_append_only(tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    (out / "run-0041").mkdir()
    (out / "unrelated").mkdir()
    code, run_dir = run(tmp_path, "constants", "--lattice-n", "16")
    assert code == 0
    assert run_dir.name == "run-0042"


# ---------------------------------------------------------------------------
# simulate


def test_simulate_taylor_green(tmp_path):
    code, run_dir = run(tmp_path, *SIM_ARGS)
    assert code == 0
    traj = read_trajectory(run_dir / "trajectory.csv")
    assert [s.step_index for s in traj.samples] == [0, 2, 4, 5]
    assert traj.config["nu"] == 0.1
    assert traj.config["dt_resolved"] == 0.01
    assert not traj.failed
    # both serializations describe the same run
    twin = read_trajectory(run_dir / "trajectory.json")
    assert twin.times == traj.times
    assert twin.series("h2.5") == traj.series("h2.5")


def test_simulate_random_initial_is_normalized(tmp_path):
    code, run_dir = run(
        tmp_path, "simulate", "--lattice-n", "16", "--initial", "random",
        "--nu", "0.1", "--dt", "0.01", "--t-end", "0.01",
    )
    assert code == 0
    traj = read_trajectory(run_dir / "trajectory.csv")
    assert traj.samples[0].norms.l2 == pytest.approx(0.5, rel=1e-12)


def test_simulate_snapshots_and_restart(tmp_path):
    code, run_dir = run(
        tmp_path, *SIM_ARGS, "--snapshot-every", "2",
    )
    assert code == 0
    snaps = sorted(p.name for p in run_dir.glob("state_*.nsv"))
    assert snaps == ["state_000000.nsv", "state_000004.nsv"]
    u = read_snapshot(run_dir / "state_000004.nsv")
    assert u.lattice.n == 16

    code2, run2 = run(
        tmp_path, "simulate", "--lattice-n", "16", "--nu", "0.1",
        "--dt", "0.01", "--t-end", "0.02",
        "--restart", str(run_dir / "state_000004.nsv"),
        out="restart_out",
    )
    assert code2 == 0
    traj = read_trajectory(run2 / "trajectory.csv")
    # restart state carries the decayed amplitude, not the fresh one
    assert traj.samples[0].norms.l2 < 0.5


def test_simulate_restart_lattice_mismatch(tmp_path, capsys):
    code, run_dir = run(tmp_path, *SIM_ARGS, "--snapshot-every", "2")
    snap = run_dir / "state_000000.nsv"
    code2, _ = run(
        tmp_path, "simulate", "--lattice-n", "32", "--nu", "0.1",
        "--dt", "0.001", "--t-end", "0.001", "--restart", str(snap),
        out="mismatch",
    )
    assert code2 == 2
    assert "does not match" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_simulate_blowup_exits_one(tmp_path, capsys):
    code, run_dir = run(
        tmp_path, "simulate", "--lattice-n", "16", "--nu", "0.001",
        "--dt", "5.0", "--t-end", "50.0", "--sample-every", "2",
    )
    assert code == 1
    assert "blow-up" in capsys.readouterr().err
    traj = read_trajectory(run_dir / "trajectory.csv")
    assert traj.failed
    assert "non-finite" in traj.failure_reason


def test_simulate_bad_values(tmp_path):
    assert run(tmp_path, "simulate", "--nu", "-1", "--lattice-n", "16")[0] == 2
    assert run(tmp_path, "simulate", "--dt", "soon", "--lattice-n", "16")[0] == 2


# ---------------------------------------------------------------------------
# monitor


@pytest.fixture()
def trajectory_file(tmp_path):
    _, run_dir = run(tmp_path, *SIM_ARGS, out="sim_out")
    return run_dir / "trajectory.csv"


def test_monitor_end_to_end(tmp_path, trajectory_file):
    code, run_dir = run(
        tmp_path, "monitor", str(trajectory_file), "--t-star", "0.5,1.0",
        out="mon_out",
    )
    assert code == 0
    lines = (run_dir / "monitor.csv").read_text().splitlines()
    assert lines[0] == "# nsvlab-monitor v1"
    assert lines[1] == "functional,t_star,t,value"
    summary = json.loads((run_dir / "monitor_summary.json").read_text())
    names = {f["name"] for f in summary["functionals"]}
    assert "theorem1" in names and "theorem2_eq" in names
    assert len(summary["functionals"]) == 2 * len(names)
    for key in ("h52_energy", "h12_log_growth", "xm1_gronwall"):
        assert summary[key]["available"] is True
        assert summary[key]["holds"] is True
        assert math.isfinite(summary[key]["empirical_constant"])
    assert summary["trajectory"]["samples"] == 4


def test_monitor_missing_file_is_io_error(tmp_path):
    code, _ = run(tmp_path, "monitor", str(tmp_path / "nope.csv"))
    assert code == 3


def test_monitor_malformed_file(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("t,step,dt\n0.0,0,0.1\n")
    code, _ = run(tmp_path, "monitor", str(bad))
    assert code == 2
    assert "line 1" in capsys.readouterr().err


def test_monitor_requires_positional(tmp_path):
    code, _ = run(tmp_path, "monitor")
    assert code == 2


def test_monitor_t_star_must_clear_samples(tmp_path, trajectory_file):
    code, _ = run(
        tmp_path, "monitor", str(trajectory_file), "--t-star", "0.03",
        out="mon_bad",
    )
    assert code == 2


def test_monitor_single_sample_marks_checks_unavailable(tmp_path):
    _, sim_dir = run(
        tmp_path, "simulate", "--lattice-n", "16", "--nu", "0.1",
        "--dt", "0.01", "--t-end", "0.0", out="sim0",
    )
    code, run_dir = run(
        tmp_path, "monitor", str(sim_dir / "trajectory.csv"),
        "--t-star", "1.0", out="mon0",
    )
    assert code == 0
    summary = json.loads((run_dir / "monitor_summary.json").read_text())
    for key in ("h52_energy", "h12_log_growth", "xm1_gronwall"):
        assert summary[key]["available"] is False
        assert "reason" in summary[key]


def external_trajectory(tmp_path):
    """A trajectory file as another tool might produce it: no nu recorded."""
    from nsvlab.norms import NormReport
    from nsvlab.trajectory import Trajectory, TrajectorySample

    samples = []
    for i, t in enumerate((0.0, 0.1, 0.2)):
        decay = math.exp(-t)
        samples.append(
            TrajectorySample(
                t=t, step_index=i, dt=0.1,
                norms=NormReport(
                    l2=decay,
                    hdot={0.5: decay, 1.0: decay, 1.5: decay, 2.5: decay, 3.5: decay},
                    leilin={-1.0: decay, 0.0: decay, 1.0: decay},
                ),
            )
        )
    traj = Trajectory(16, 2.0 * math.pi, {"source": "external"}, "other-tool", samples)
    path = tmp_path / "external.csv"
    write_trajectory_csv(traj, path)
    return path


def test_monitor_external_trajectory_needs_nu(tmp_path, capsys):
    path = external_trajectory(tmp_path)
    code, _ = run(tmp_path, "monitor", str(path), "--t-star", "1.0")
    assert code == 2
    assert "viscosity" in capsys.readouterr().err
    code2, run_dir = run(
        tmp_path, "monitor", str(path), "--t-star", "1.0", "--nu", "0.1",
        out="with_nu",
    )
    assert code2 == 0
    summary = json.loads((run_dir / "monitor_summary.json").read_text())
    assert summary["h52_energy"]["available"] is True


def test_monitor_needs_unknown_config_key_rejected(tmp_path, trajectory_file):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"t_star": "0.5", "mystery": 1}')
    code, _ = run(
        tmp_path, "monitor", str(trajectory_file), "--config", str(cfg),
        out="mon_cfg",
    )
    assert code == 2


# ---------------------------------------------------------------------------
# config file merging


def test_config_file_and_flag_precedence(tmp_path):
    cfg = tmp_path / "sim.json"
    cfg.write_text(json.dumps({"nu": 0.05, "t_end": 0.02, "lattice_n": 16, "dt": 0.01}))
    code, run_dir = run(
        tmp_path, "simulate", "--config", str(cfg), "--nu", "0.2",
    )
    assert code == 0
    effective = json.loads((run_dir / "effective_config.json").read_text())
    assert effective["nu"] == 0.2      # flag beats file
    assert effective["t_end"] == 0.02  # file beats default
    assert effective["sample_every"] == 10  # untouched default
    traj = read_trajectory(run_dir / "trajectory.csv")
    assert traj.config["nu"] == 0.2


def test_config_file_must_be_valid_json(tmp_path, capsys):
    cfg = tmp_path / "broken.json"
    cfg.write_text("{nu: 0.1")
    code, _ = run(tmp_path, "simulate", "--config", str(cfg))
    assert code == 2
    assert "invalid JSON" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# constants


def test_constants_default_table(tmp_path):
    code, run_dir = run(tmp_path, "constants", "--lattice-n", "16")
    assert code == 0
    lines = (run_dir / "constants.csv").read_text().splitlines()
    assert lines[0] == "# nsvlab-constants v1"
    assert lines[1] == "exponent,alpha,beta,band,lattice,continuum,ratio,note"
    assert len(lines) == 2 + 5  # DEFAULT_BANDS has five requests
    doc = json.loads((run_dir / "constants.json").read_text())
    assert doc["lattice_n"] == 16
    mid = next(r for r in doc["rows"] if r["band"] == "mid")
    assert mid["continuum"] == pytest.approx(
        math.sqrt(4.0 * math.pi * math.log(4.0)), rel=1e-12
    )
    assert 0.9 < mid["ratio"] < 1.1


def test_constants_empty_band_is_noted(tmp_path):
    code, run_dir = run(
        tmp_path, "constants", "--lattice-n", "16", "--band", "1:0.5:"
    )
    assert code == 0
    lines = (run_dir / "constants.csv").read_text().splitlines()
    assert lines[2].endswith(",empty band")
    doc = json.loads((run_dir / "constants.json").read_text())
    assert doc["rows"][0]["empty"] is True
    assert doc["rows"][0]["ratio"] == 0.0


def test_constants_divergent_band_is_usage_error(tmp_path, capsys):
    # low band with exponent -1.5 makes the radial sum diverge at infinity
    code, _ = run(tmp_path, "constants", "--lattice-n", "16", "--band=-1.5:4:")
    assert code == 2
    code2, _ = run(tmp_path, "constants", "--lattice-n", "16", "--band", "oops")
    assert code2 == 2
    for band in ("--band=-2.5::inf", "--band=nan:1:"):  # non-finite inputs
        code3, _ = run(tmp_path, "constants", "--lattice-n", "16", band)
        assert code3 == 2, band
