import argparse
import json
import math
import os
import subprocess
import sys
import typing
from pathlib import Path

import pytest

import nsvlab
from conftest import big_n_snapshot
from nsvlab import __version__, products
from nsvlab.cli import build_parser, main
from nsvlab.fields import Lattice
from nsvlab.inequalities import CorpusConfig, check_x0_interpolation, corpus_fields
from nsvlab.norms import band_constant
from nsvlab.trajectory import read_trajectory, write_trajectory_csv
from nsvlab.snapshot import read_snapshot


def bad_config(tmp_path, **values):
    """A config file holding the given keys; returns its path as a string."""
    path = tmp_path / "bad_config.json"
    path.write_text(json.dumps(values))
    return str(path)


def assert_usage_error(capsys, code):
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")


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
    # one row, exactly as the table writer formats it
    entry = next(corpus_fields(Lattice(16), CorpusConfig(size=1)))
    v = check_x0_interpolation(entry.field)
    assert verdicts[2] == (
        f"0,2024,{entry.decay!r},x0_interpolation,lattice,"
        f"{v.lhs!r},{v.rhs!r},{v.ratio!r},true,"
    )


def test_verify_injected_violation_names_seed(tmp_path):
    code, run_dir = run(
        tmp_path, "verify", "--lattice-n", "16", "--corpus-size", "2",
        "--inject-mean-violation",
    )
    assert code == 1
    verdicts = (run_dir / "verdicts.csv").read_text().splitlines()
    assert verdicts[2 + 2 * 15] == (
        "2,2026,1.0,x0_interpolation,lattice,nan,nan,nan,false,"
        "nonzero mean rejected (seed 2026)"
    )
    summary = json.loads((run_dir / "summary.json").read_text())
    assert summary["all_hold"] is False
    assert summary["violations"]
    notes = " ".join(v["note"] for v in summary["violations"])
    assert "seed 2026" in notes  # base seed 2024 + corpus size 2
    assert "nonzero mean rejected" in notes


def test_verify_injected_field_gives_only_nan_rows(tmp_path):
    # the mean is checked once per entry: every check on the injected field,
    # including those that never read the mean, reports a NaN row
    code, run_dir = run(
        tmp_path, "verify", "--lattice-n", "16", "--corpus-size", "0",
        "--inject-mean-violation",
    )
    assert code == 1
    rows = (run_dir / "verdicts.csv").read_text().splitlines()[2:]
    names = ["x0_interpolation", "x0_via_xm1_h52", "x0_via_h12_x1"] + ["split_x1"] * 3
    assert rows == [
        f"0,2024,1.0,{name},lattice,nan,nan,nan,false,nonzero mean rejected (seed 2024)"
        for name in names
    ]


VERIFY_ALL = "x0_interpolation,x0_via_xm1_h52,x0_via_h12_x1,split_x1,h32_trilinear"


@pytest.mark.parametrize("mode", ["lattice", "continuum"])
def test_verify_nan_rows_report_their_checks_constant_mode(tmp_path, mode):
    # x0_interpolation always reports lattice and h32_trilinear empirical;
    # a rejected field's rows must say the same as the check's real rows
    code, run_dir = run(
        tmp_path, "verify", "--lattice-n", "16", "--corpus-size", "1", "--checks", VERIFY_ALL,
        "--constant-mode", mode, "--inject-mean-violation",
    )
    assert code == 1
    lines = (run_dir / "verdicts.csv").read_text().splitlines()[2:]
    rows = [line.split(",") for line in lines]
    checks = VERIFY_ALL.split(",")
    real = {}
    for row in rows:
        # split_x1's partition verdict gates in lattice mode in every mode
        if row[5] != "nan" and not row[3].endswith("_partition"):
            check = next(name for name in checks if row[3].startswith(name))
            real.setdefault(check, set()).add(row[4])
    nan_rows = [row for row in rows if row[5] == "nan"]
    assert {row[3] for row in nan_rows} == set(checks)
    for row in nan_rows:
        assert real[row[3]] == {row[4]}, row
PINNED_VERDICTS = Path(__file__).parent / "data" / "verify_n16"
VERIFY_CASES = [
    ("lattice", ("--constant-mode", "lattice"), 0),
    ("continuum", ("--constant-mode", "continuum"), 1),  # 5 split_x1 rows fail
    ("empirical", ("--constant-mode", "empirical"), 0),
    ("inject", ("--inject-mean-violation",), 1),
]


@pytest.mark.parametrize("case,flags,exit_code", VERIFY_CASES, ids=[c[0] for c in VERIFY_CASES])
def test_verify_verdicts_are_pinned_per_constant_mode(tmp_path, case, flags, exit_code):
    # every check in every constant mode, against verdicts.csv as recorded
    # in tests/data/verify_n16, byte for byte
    code, run_dir = run(
        tmp_path, "verify", "--lattice-n", "16", "--corpus-size", "2", "--checks", VERIFY_ALL,
        *flags,
    )
    assert code == exit_code
    pinned = (PINNED_VERDICTS / f"{case}.csv").read_text(encoding="utf-8")
    assert (run_dir / "verdicts.csv").read_text(encoding="utf-8") == pinned


def test_verify_is_the_same_with_and_without_the_worker(tmp_path, monkeypatch):
    # the corpus is drawn one field ahead on the transform worker thread
    # when two CPUs are allowed; the fields and the verdicts do not move
    outputs = []
    for two_cpus in (True, False):
        monkeypatch.setattr(products, "_two_cpus", lambda two_cpus=two_cpus: two_cpus)
        stacks = [entry.field._stack.tobytes()
                  for entry in corpus_fields(Lattice(16), CorpusConfig(size=5))]
        code, run_dir = run(
            tmp_path, "verify", "--lattice-n", "16", "--corpus-size", "5", "--checks", VERIFY_ALL,
            out=f"two_cpus_{two_cpus}",
        )
        assert code == 0
        outputs.append((stacks, (run_dir / "verdicts.csv").read_bytes()))
    assert outputs[0] == outputs[1]


def test_verify_rejects_unknown_check(tmp_path, capsys):
    code, _ = run(tmp_path, "verify", "--lattice-n", "16", "--checks", "x0_magic")
    assert code == 2
    assert "unknown check" in capsys.readouterr().err
    # a repeated flag keeps every value, so an earlier bad name is still seen
    code, _ = run(
        tmp_path, "verify", "--lattice-n", "16", "--corpus-size", "1",
        "--checks", "x0_magic", "--checks", "x0_interpolation",
    )
    assert code == 2
    assert "'x0_magic'" in capsys.readouterr().err


def test_verify_rejects_negative_corpus(tmp_path, capsys):
    code, _ = run(tmp_path, "verify", "--lattice-n", "16", "--corpus-size", "-3")
    assert_usage_error(capsys, code)


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


def test_simulate_restart_from_a_header_too_big_for_its_file(tmp_path, capsys):
    # the header claims n=1024; the error is a usage error before a run exists
    big = big_n_snapshot(tmp_path / "big.nsv")
    code, run_dir = run(tmp_path, *SIM_ARGS, "--restart", str(big), out="big")
    assert_usage_error(capsys, code)
    assert run_dir is None
    assert not (tmp_path / "big").exists() or not any((tmp_path / "big").iterdir())


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


def test_simulate_bad_values(tmp_path, capsys):
    assert_usage_error(capsys, run(tmp_path, "simulate", "--nu", "-1", "--lattice-n", "16")[0])
    assert_usage_error(capsys, run(tmp_path, "simulate", "--dt", "soon", "--lattice-n", "16")[0])


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


def test_binary_and_relabelled_snapshots_are_usage_errors(tmp_path, capsys):
    _, run_dir = run(tmp_path, *SIM_ARGS, "--snapshot-every", "2")
    snap = run_dir / "state_000000.nsv"
    code, _ = run(tmp_path, "monitor", str(snap), out="mon_bin")
    assert_usage_error(capsys, code)
    # an n=16 payload behind a header that says n=8
    raw = snap.read_bytes()
    relabelled = tmp_path / "relabelled.nsv"
    relabelled.write_bytes(raw[:16] + (8).to_bytes(4, "little") + raw[20:])
    code, _ = run(
        tmp_path, "simulate", "--lattice-n", "8", "--nu", "0.1", "--dt", "0.01",
        "--t-end", "0.01", "--restart", str(relabelled), out="relabelled",
    )
    assert_usage_error(capsys, code)


def test_monitor_requires_positional(tmp_path):
    code, _ = run(tmp_path, "monitor")
    assert code == 2


def test_monitor_t_star_must_clear_samples(tmp_path, trajectory_file, capsys):
    code, _ = run(
        tmp_path, "monitor", str(trajectory_file), "--t-star", "0.03",
        out="mon_bad",
    )
    assert_usage_error(capsys, code)
    # the other bad monitor values as flags; config-file entries are in
    # test_config_value_of_the_wrong_type
    for flags in (("--t-star", "inf"), ("--t-star", "nan"), ("--c-small", "-1"),
                  ("--nu", "-1")):
        code, _ = run(tmp_path, "monitor", str(trajectory_file), *flags, out="mon_bad")
        assert_usage_error(capsys, code)


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


def external_trajectory(tmp_path, config=None, orders=(0.5, 1.0, 1.5, 2.5, 3.5),
                        times=(0.0, 0.1, 0.2)):
    """A trajectory file as another tool might produce it: no nu recorded."""
    from nsvlab.norms import NormReport
    from nsvlab.trajectory import Trajectory, TrajectorySample

    samples = []
    for i, t in enumerate(times):
        decay = math.exp(-t)
        samples.append(
            TrajectorySample(
                t=t, step_index=i, dt=0.1,
                norms=NormReport(
                    l2=decay,
                    hdot={s: decay for s in orders},
                    leilin={-1.0: decay, 0.0: decay, 1.0: decay},
                ),
            )
        )
    config = {"source": "external"} if config is None else config
    traj = Trajectory(16, 2.0 * math.pi, config, "other-tool", samples)
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


@pytest.mark.parametrize("recorded", ["abc", [1]])
def test_monitor_given_nu_ignores_a_bad_recorded_nu(tmp_path, recorded):
    path = external_trajectory(tmp_path, {"nu": recorded})
    code, run_dir = run(tmp_path, "monitor", str(path), "--t-star", "1.0", "--nu", "0.1")
    assert code == 0
    summary = json.loads((run_dir / "monitor_summary.json").read_text())
    for key in ("h52_energy", "h12_log_growth", "xm1_gronwall"):
        assert summary[key]["available"] is True
        assert summary[key]["holds"] is True


@pytest.mark.parametrize("recorded", [[1], True, "abc"], ids=["list", "bool", "str"])
def test_monitor_bad_recorded_nu_is_a_usage_error(tmp_path, capsys, recorded):
    path = external_trajectory(tmp_path, {"nu": recorded})
    code, run_dir = run(tmp_path, "monitor", str(path), "--t-star", "1.0")
    assert code == 2
    assert capsys.readouterr().err.startswith(f"error: recorded viscosity {recorded!r}")
    assert run_dir is None


NU_DEFECTS = [
    ({"nu": math.nan}, (), "recorded viscosity nan"),
    ({"nu": -1.0}, (), "recorded viscosity -1.0"),
    ({"nu": 0.0}, (), "recorded viscosity 0.0"),
    (None, ("--nu", "nan"), "given viscosity nan"),
]


@pytest.mark.parametrize("config,flags,named", NU_DEFECTS, ids=[d[2] for d in NU_DEFECTS])
def test_monitor_viscosity_must_be_finite_and_positive(tmp_path, capsys, config, flags, named):
    path = external_trajectory(tmp_path, config)
    code, run_dir = run(tmp_path, "monitor", str(path), "--t-star", "1.0", *flags)
    assert code == 2
    assert capsys.readouterr().err == f"error: {named} must be finite and positive\n"
    assert run_dir is None


@pytest.mark.parametrize("times", [(0.0, 0.0, 0.2), (0.0, 0.2, 0.1), (0.0, 0.1, math.inf)])
def test_monitor_needs_strictly_increasing_times(tmp_path, capsys, times):
    path = external_trajectory(tmp_path, times=times)
    code, run_dir = run(tmp_path, "monitor", str(path), "--t-star", "1.0", "--nu", "0.1")
    assert code == 2
    assert "increase strictly" in capsys.readouterr().err
    assert run_dir is None


def test_monitor_malformed_header_leaves_no_run_directory(tmp_path, capsys):
    path = external_trajectory(tmp_path, {"nu": 0.1})
    lines = path.read_text().splitlines()
    assert lines[1].startswith("# lattice: ")
    path.write_text("\n".join([lines[0], "# lattice: {}", *lines[2:]]) + "\n")
    (tmp_path / "out" / "run-0000").mkdir(parents=True)
    code, run_dir = run(tmp_path, "monitor", str(path), "--t-star", "1.0")
    assert code == 2
    assert capsys.readouterr().err.startswith("error: bad lattice header")
    assert run_dir.name == "run-0000"


def test_monitor_missing_norm_column_marks_check_unavailable(tmp_path):
    path = external_trajectory(tmp_path, {"nu": 0.1}, orders=(0.5, 1.0, 1.5, 2.5))
    code, run_dir = run(tmp_path, "monitor", str(path), "--t-star", "1.0", "--s-list", "1")
    assert code == 0
    summary = json.loads((run_dir / "monitor_summary.json").read_text())
    assert summary["h52_energy"] == {
        "available": False, "reason": "trajectory has no 'h3.5' norm column",
    }
    assert summary["h12_log_growth"]["available"] is True
    assert summary["xm1_gronwall"]["available"] is True


def test_monitor_untracked_order_names_the_tracked_ones(tmp_path, trajectory_file, capsys):
    code, run_dir = run(
        tmp_path, "monitor", str(trajectory_file), "--t-star", "1.0", "--s-list", "0.75",
        out="mon_out",
    )
    assert code == 2
    assert capsys.readouterr().err == (
        "error: sample at t = 0 has no h0.75 norm; it tracks h0.5, h1, h1.5, h2.5, h3.5\n"
    )
    assert run_dir is None


def test_monitor_growth_that_rounds_still_holds(tmp_path):
    """ln 2.25 / 0.075 times 0.075 rounds below ln 2.25; the check still holds."""
    from nsvlab.norms import NormReport
    from nsvlab.trajectory import Trajectory, TrajectorySample

    samples = [
        TrajectorySample(t, i, 0.1, NormReport(1.0, {0.5: h12, 1.0: 1.0, 1.5: 1.0,
                                                      2.5: h52, 3.5: 1.0},
                                               {-1.0: 1.0, 0.0: 1.0, 1.0: 1.0}))
        for i, (t, h12, h52) in enumerate(((0.0, 1.0, 1.0), (0.1, 1.5, 0.5)))
    ]
    path = tmp_path / "growth.csv"
    write_trajectory_csv(Trajectory(16, 2.0 * math.pi, {"nu": 0.1}, "test", samples), path)
    code, run_dir = run(tmp_path, "monitor", str(path), "--t-star", "1.0")
    assert code == 0
    summary = json.loads((run_dir / "monitor_summary.json").read_text())
    assert summary["h12_log_growth"]["holds"] is True
    assert math.isfinite(summary["h12_log_growth"]["empirical_constant"])


def test_cli_leaves_scipy_unloaded(tmp_path):
    # the transforms are numpy.fft's; only monitor's rate inversion loads scipy
    probe = "\n".join([
        "import sys, nsvlab.cli",
        "def loaded(): print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))",
        "loaded()",
        "out = sys.argv[1]",
        "assert nsvlab.cli.main(['verify', '--out', out, '--lattice-n', '16', "
        "'--corpus-size', '2', '--checks', 'x0_interpolation,split_x1,h32_trilinear']) == 0",
        "assert nsvlab.cli.main(['simulate', '--out', out, '--lattice-n', '16', "
        "'--initial', 'random', '--dealias', '32', '--integrator', 'imex', '--nu', '0.1', "
        "'--dt', '0.01', '--t-end', '0.02', '--sample-every', '1']) == 0",
        "loaded()",
    ])
    src = str(Path(nsvlab.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", probe, str(tmp_path)], env=env, check=True,
                         capture_output=True, text=True).stdout
    lines = out.splitlines()  # the commands print their run directories between
    assert (lines[0], lines[-1]) == ("[]", "[]")


def test_every_public_annotation_resolves():
    # get_type_hints evaluates each postponed annotation in its defining module,
    # so a name that module never imports raises NameError
    hinted = []
    for name in nsvlab.__all__:
        obj = getattr(nsvlab, name)
        if isinstance(obj, type):
            hinted.append(obj)
            for member in vars(obj).values():
                for wrapped in ("__func__", "fget", "func"):  # classmethod, property, cached_property
                    member = getattr(member, wrapped, member)
                if callable(member) and hasattr(member, "__annotations__"):
                    hinted.append(member)
        elif callable(obj):
            hinted.append(obj)
    assert nsvlab.advect in hinted
    for obj in hinted:
        typing.get_type_hints(obj)


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
    cfg.write_bytes(b'{"nu": "\xff"}')  # not utf-8
    code, _ = run(tmp_path, "simulate", "--config", str(cfg))
    assert code == 2
    assert "invalid JSON" in capsys.readouterr().err


def test_config_file_out_must_be_a_string(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    config = bad_config(tmp_path, out=5)
    assert main(["constants", "--lattice-n", "16", "--config", config]) == 2
    assert capsys.readouterr().err.startswith("error: --out")
    assert not (tmp_path / "5").exists()


# One wrong config-file value per case: every key of every command, with
# the wrongly typed values the CLI once accepted or mangled.
_COMMON_BAD = (
    {"out": 5}, {"lattice_n": 16.7}, {"lattice_n": "16"}, {"seed": True}, {"seed": "abc"},
    {"constant_mode": "sharp"},
)
BAD_CONFIG_VALUES = [
    *(("verify", values) for values in _COMMON_BAD),
    ("verify", {"corpus_size": 2.9}),
    ("verify", {"corpus_size": "abc"}),
    ("verify", {"corpus_size": None}),
    ("verify", {"corpus_size": -1}),
    ("verify", {"checks": ["x0_interpolation"]}),
    ("verify", {"inject_mean_violation": "no"}),
    ("verify", {"inject_mean_violation": 1}),
    *(("simulate", values) for values in _COMMON_BAD),
    ("simulate", {"nu": "0.1"}),
    ("simulate", {"nu": True}),
    ("simulate", {"nu": None}),
    ("simulate", {"dt": True}),
    ("simulate", {"dt": "soon"}),
    ("simulate", {"dt": [0.01]}),
    ("simulate", {"t_end": True}),
    ("simulate", {"initial": "vortex"}),
    ("simulate", {"dealias": 23}),
    ("simulate", {"dealias": "two-thirds"}),
    ("simulate", {"integrator": "euler"}),
    ("simulate", {"sample_every": 1.5}),
    ("simulate", {"cfl": "0.4"}),
    ("simulate", {"snapshot_every": 1.9}),
    ("simulate", {"snapshot_every": "x"}),
    ("simulate", {"snapshot_every": -1}),
    ("simulate", {"restart": 7}),
    *(("monitor", values) for values in _COMMON_BAD),
    ("monitor", {"trajectory": 7}),
    ("monitor", {"t_star": 2.0}),
    ("monitor", {"c_small": "abc"}),
    ("monitor", {"c_small": [1]}),
    ("monitor", {"nu": "abc"}),
    ("monitor", {"s_list": [0.5]}),
    *(("constants", values) for values in _COMMON_BAD),
    ("constants", {"band": 1}),
]


@pytest.mark.parametrize(
    "command,values", BAD_CONFIG_VALUES,
    ids=[f"{command}-{json.dumps(values)}" for command, values in BAD_CONFIG_VALUES],
)
def test_config_value_of_the_wrong_type(tmp_path, capsys, command, values):
    [key] = values
    code, run_dir = run(tmp_path, command, "--config", bad_config(tmp_path, **values))
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: --{key.replace('_', '-')}"), err
    assert "Traceback" not in err
    assert run_dir is None


# Out-of-range values that only the library rejects, and usage errors that
# depend on an input file (it is read and checked first): still exit 2, or 3
# for a missing file, before a run directory exists.
RANGE_ERRORS = [
    ("verify", "--lattice-n", "7"),
    ("simulate", "--nu", "-1"),
    ("simulate", "--dt", "0"),
    ("constants", "--band", "1:-1:"),
    ("monitor", "TRAJECTORY", "--t-star", "1.0", "--nu", "-1"),
    ("monitor", "TRAJECTORY", "--t-star", "0.2", "--nu", "0.1"),  # the last sample's t
    ("simulate", "--restart", "MISSING"),
]


@pytest.mark.parametrize("argv", RANGE_ERRORS, ids=[" ".join(argv) for argv in RANGE_ERRORS])
def test_range_error_leaves_no_run_directory(tmp_path, capsys, argv):
    files = {"TRAJECTORY": str(external_trajectory(tmp_path)),
             "MISSING": str(tmp_path / "missing.nsv")}
    (tmp_path / "out" / "run-0003").mkdir(parents=True)
    code, run_dir = run(tmp_path, *(files.get(arg, arg) for arg in argv))
    if "MISSING" in argv:
        assert code == 3
        assert capsys.readouterr().err.startswith("I/O error: ")
    else:
        assert_usage_error(capsys, code)
    assert run_dir.name == "run-0003"
    assert list(run_dir.iterdir()) == []


OPTION_STRINGS = {
    "verify": {"-h", "--help", "--config", "--seed", "--out", "--lattice-n",
               "--constant-mode", "--corpus-size", "--checks", "--inject-mean-violation"},
    "simulate": {"-h", "--help", "--config", "--seed", "--out", "--lattice-n",
                 "--constant-mode", "--nu", "--dt", "--t-end", "--initial", "--dealias",
                 "--integrator", "--sample-every", "--cfl", "--snapshot-every", "--restart"},
    "monitor": {"-h", "--help", "--config", "--seed", "--out", "--lattice-n",
                "--constant-mode", "trajectory", "--t-star", "--c-small", "--nu", "--s-list"},
    "constants": {"-h", "--help", "--config", "--seed", "--out", "--lattice-n",
                  "--constant-mode", "--band"},
}


def test_each_subcommand_keeps_its_option_strings():
    parser = build_parser()
    [sub] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert set(sub.choices) == set(OPTION_STRINGS)
    for command, expected in OPTION_STRINGS.items():
        actions = sub.choices[command]._actions
        assert {s for a in actions for s in (a.option_strings or [a.dest])} == expected


# effective_config.json of one flag-only run per command, and of a correctly
# typed config file overridden by one flag, byte for byte
ECHOES = [
    (["verify", "--lattice-n", "16", "--corpus-size", "1"], """{
  "checks": "x0_interpolation,x0_via_xm1_h52,x0_via_h12_x1,split_x1",
  "code_version": "VERSION",
  "command": "verify",
  "constant_mode": "lattice",
  "corpus_size": 1,
  "inject_mean_violation": false,
  "lattice_n": 16,
  "out": "out",
  "seed": 2024
}
"""),
    (list(SIM_ARGS), """{
  "cfl": 0.4,
  "code_version": "VERSION",
  "command": "simulate",
  "constant_mode": "lattice",
  "dealias": "23",
  "dt": "0.01",
  "initial": "taylor-green",
  "integrator": "rk4",
  "lattice_n": 16,
  "nu": 0.1,
  "out": "out",
  "restart": null,
  "sample_every": 2,
  "seed": 2024,
  "snapshot_every": 0,
  "t_end": 0.05
}
"""),
    (["monitor", "out/run-0001/trajectory.csv", "--t-star", "0.5,1.0"], """{
  "c_small": 1.0,
  "code_version": "VERSION",
  "command": "monitor",
  "constant_mode": "lattice",
  "lattice_n": 32,
  "nu": null,
  "out": "out",
  "s_list": null,
  "seed": 2024,
  "t_star": "0.5,1.0",
  "trajectory": "out/run-0001/trajectory.csv"
}
"""),
    (["constants", "--lattice-n", "16", "--band", "1:0.5:", "--band=-2.5::5"], """{
  "band": "1:0.5:,-2.5::5",
  "code_version": "VERSION",
  "command": "constants",
  "constant_mode": "lattice",
  "lattice_n": 16,
  "out": "out",
  "seed": 2024
}
"""),
    (["simulate", "--config", "sim.json", "--nu", "0.2"], """{
  "cfl": 0.4,
  "code_version": "VERSION",
  "command": "simulate",
  "constant_mode": "lattice",
  "dealias": "23",
  "dt": 0.01,
  "initial": "taylor-green",
  "integrator": "rk4",
  "lattice_n": 16,
  "nu": 0.2,
  "out": "out",
  "restart": null,
  "sample_every": 10,
  "seed": 2024,
  "snapshot_every": 0,
  "t_end": 0.02
}
"""),
]


def test_effective_config_bytes_are_pinned(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sim.json").write_text(
        json.dumps({"nu": 0.05, "t_end": 0.02, "lattice_n": 16, "dt": 0.01})
    )
    for index, (argv, expected) in enumerate(ECHOES):
        assert main([argv[0], "--out", "out", *argv[1:]]) == 0
        echo = (tmp_path / "out" / f"run-{index:04d}" / "effective_config.json").read_bytes()
        assert echo == expected.replace("VERSION", __version__).encode(), argv


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
    continuum = band_constant(Lattice(16), 1.0, alpha=0.5).continuum_value
    assert lines[2] == f"1.0,0.5,,low,0.0,{continuum!r},0.0,empty band"
    doc = json.loads((run_dir / "constants.json").read_text())
    assert doc["rows"][0]["empty"] is True
    assert doc["rows"][0]["ratio"] == 0.0
    # repeated --band flags add rows, and the config echoes them comma-joined
    code, run_dir = run(
        tmp_path, "constants", "--lattice-n", "16", "--band", "1:0.5:", "--band=-2.5::5"
    )
    assert code == 0
    lines = (run_dir / "constants.csv").read_text().splitlines()
    assert len(lines) == 2 + 2
    assert lines[2].endswith(",empty band")
    effective = json.loads((run_dir / "effective_config.json").read_text())
    assert effective["band"] == "1:0.5:,-2.5::5"


def test_constants_divergent_band_is_usage_error(tmp_path, capsys):
    # low band with exponent -1.5 makes the radial sum diverge at infinity
    code, _ = run(tmp_path, "constants", "--lattice-n", "16", "--band=-1.5:4:")
    assert code == 2
    code2, _ = run(tmp_path, "constants", "--lattice-n", "16", "--band", "oops")
    assert code2 == 2
    for band in ("--band=-2.5::inf", "--band=nan:1:"):  # non-finite inputs
        code3, _ = run(tmp_path, "constants", "--lattice-n", "16", band)
        assert code3 == 2, band
