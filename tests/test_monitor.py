import io
import math

import numpy as np
import pytest
from scipy.integrate import cumulative_trapezoid

from nsvlab.monitor import (
    RATE_DOMAIN_START,
    RATE_RANGE_START,
    FunctionalTrace,
    MonitorConfig,
    evaluate_traces,
    h12_log_growth_check,
    h52_energy_residual,
    invert_rate,
    monitor_checks,
    monitor_summary,
    rate_catalog,
    rate_forward,
    theorem1_functional,
    theorem2_functional,
    theorem3_functional,
    write_monitor_csv,
    xm1_gronwall_check,
)
from nsvlab.norms import NormReport
from nsvlab.trajectory import Trajectory, TrajectorySample


def make_sample(t=0.0, step=0, **overrides):
    hdot = {0.5: 1.0, 1.0: 1.0, 1.5: 1.0, 2.5: 1.0, 3.5: 1.0}
    leilin = {-1.0: 1.0, 0.0: 1.0, 1.0: 1.0}
    for key, value in overrides.items():
        if key.startswith("h"):
            hdot[float(key[1:].replace("_", "."))] = value
        else:
            leilin[float(key[1:].replace("_", ".").replace("m", "-"))] = value
    return TrajectorySample(
        t=t, step_index=step, dt=0.1, norms=NormReport(1.0, hdot, leilin)
    )


def make_trajectory(samples, nu=0.1):
    return Trajectory(16, 2.0 * math.pi, {"nu": nu}, "test", list(samples))


# ---------------------------------------------------------------------------
# Spot values (exact closed forms)


def test_theorem1_spot_value():
    sample = make_sample(h2_5=2.0)
    value = theorem1_functional(sample, t_star=math.exp(-1.0))
    assert value == pytest.approx(2.0 / math.e, rel=1e-12)


def test_theorem2_spot_value():
    sample = make_sample()
    value = theorem2_functional(sample, t_star=0.5, c_small=1.0, nu=1.0)
    assert value == pytest.approx(0.5 * math.sqrt(math.log(4.0)), rel=1e-12)


def test_theorem3_spot_value():
    sample = make_sample()
    value = theorem3_functional(sample, t_star=1.0, nu=1.0)
    assert value == pytest.approx(math.sqrt(math.log(8.0)), rel=1e-12)


def test_rate_catalog_spot_values():
    sample = make_sample()
    catalog = rate_catalog(sample, t_star=16.0)
    assert catalog["leray_h1"] == pytest.approx(2.0, rel=1e-12)
    narrow = rate_catalog(make_sample(h1_5=3.0), t_star=0.25, nu=0.01)
    assert narrow["h32_strong_nu"] == pytest.approx(15.0, rel=1e-12)


# ---------------------------------------------------------------------------
# Guards


def test_tau_must_be_positive():
    sample = make_sample(t=2.0)
    for t_star in (2.0, 1.0, math.inf):
        with pytest.raises(ValueError, match="t_star"):
            theorem1_functional(sample, t_star)


def test_theorem1_undefined_at_unit_tau():
    assert theorem1_functional(make_sample(), t_star=1.0) is None
    assert theorem1_functional(make_sample(t=0.5), t_star=1.5) is None


def test_theorem2_zero_at_unit_log_argument():
    # h1/2 = c*nu/4 makes the log argument exactly 1
    sample = make_sample(h0_5=0.025)
    assert theorem2_functional(sample, 2.0, c_small=1.0, nu=0.1) == 0.0


def test_theorem3_zero_at_unit_log_argument():
    sample = make_sample(xm1=0.0125)
    assert theorem3_functional(sample, 2.0, nu=0.1) == 0.0


def test_zero_norm_rejected():
    with pytest.raises(ValueError, match="h1/2|log argument"):
        theorem2_functional(make_sample(h0_5=0.0), 2.0, 1.0, 1.0)
    with pytest.raises(ValueError, match="x-1|log argument"):
        theorem3_functional(make_sample(xm1=0.0), 2.0, 1.0)


def test_bad_variant_and_parameters():
    sample = make_sample()
    with pytest.raises(ValueError, match="variant"):
        theorem2_functional(sample, 2.0, 1.0, 1.0, variant="both")
    with pytest.raises(ValueError, match="positive"):
        theorem2_functional(sample, 2.0, -1.0, 1.0)
    with pytest.raises(ValueError, match="positive"):
        theorem3_functional(sample, 2.0, nu=0.0)
    with pytest.raises(ValueError, match="nu"):
        rate_catalog(sample, 2.0, nu=-0.5)


def test_missing_norm_is_named():
    bare = TrajectorySample(0.0, 0, 0.1, NormReport(1.0, {0.5: 1.0}, {-1.0: 1.0}))
    with pytest.raises(ValueError, match="h2.5"):
        theorem1_functional(bare, 0.5)


def test_variants_differ():
    sample = make_sample(h0_5=3.0)
    eq = theorem2_functional(sample, 2.0, 1.0, 0.1, "eq")
    proof = theorem2_functional(sample, 2.0, 1.0, 0.1, "proof")
    assert eq == pytest.approx(2.0 * math.sqrt(math.log(120.0)), rel=1e-12)
    assert proof == pytest.approx(2.0 * math.sqrt(math.log(90.0)), rel=1e-12)
    assert eq != proof


# ---------------------------------------------------------------------------
# Structure of the catalog


def test_rate_catalog_family_selection():
    sample = make_sample(h2=1.0, h4=1.0)
    catalog = rate_catalog(sample, 2.0, s_list=(0.5, 1.0, 1.5, 2.0, 2.5, 3.5, 4.0))
    keys = set(catalog)
    # border and endpoint orders never get a power-family entry
    assert "rss_h0.5" not in keys and "rss_h1.5" not in keys
    assert not any(k.endswith("h2.5") for k in keys)
    assert {"rss_h1", "rss_h2", "high_h3.5", "high_h4"} <= keys
    assert {"leray_h1", "log_h32", "log_h52"} <= keys
    assert "h32_strong_nu" not in keys  # nu not supplied
    tau = 2.0
    assert catalog["rss_h2"] == pytest.approx(tau ** (3.0 / 4.0), rel=1e-12)
    assert catalog["high_h4"] == pytest.approx(tau ** (4.0 / 5.0), rel=1e-12)
    assert catalog["log_h52"] == pytest.approx(tau * math.log(tau), rel=1e-12)


def test_rate_catalog_log_entries_undefined_at_unit_tau():
    catalog = rate_catalog(make_sample(), 1.0)
    assert catalog["log_h32"] is None
    assert catalog["log_h52"] is None
    assert catalog["leray_h1"] == 1.0


def test_homogeneity_in_the_tracked_norm():
    one = theorem1_functional(make_sample(h2_5=1.5), 0.5)
    two = theorem1_functional(make_sample(h2_5=3.0), 0.5)
    assert two == pytest.approx(2.0 * one, rel=1e-15)


def test_functional_vanishes_as_tau_shrinks():
    sample = make_sample()
    values = [theorem1_functional(sample, t_star) for t_star in (1e-2, 1e-4, 1e-8)]
    assert values[0] > values[1] > values[2]
    assert values[2] < 1e-6


# ---------------------------------------------------------------------------
# Traces


def decaying_samples(rate=1.0, count=5, dt=0.1):
    out = []
    for i in range(count):
        t = i * dt
        f = math.exp(-rate * t)
        out.append(make_sample(t=t, step=i, h0_5=f, h1=f, h1_5=f, h2_5=f,
                               h3_5=f, xm1=f, x0=f, x1=f))
    return out


def test_evaluate_traces_inventory():
    traj = make_trajectory(decaying_samples(), nu=0.1)
    config = MonitorConfig(t_star=(1.0, 2.0))
    traces = evaluate_traces(traj, config)
    names = {t.name for t in traces}
    assert names == {
        "theorem1", "theorem2_eq", "theorem2_proof", "theorem3_eq",
        "theorem3_proof", "leray_h1", "rss_h1", "high_h3.5",
        "h32_strong_nu", "log_h32", "log_h52",
    }
    assert len(traces) == 2 * len(names)
    for trace in traces:
        assert len(trace.times) == 5
        assert trace.undefined_count in (0, 1)


def test_evaluate_traces_records_threshold_crossings():
    # h1/2 starts above c*nu = 0.1 and drops below it at the third sample;
    # x-1 starts below nu already
    samples = [
        make_sample(t=0.0, step=0, h0_5=0.30, xm1=0.05),
        make_sample(t=0.1, step=1, h0_5=0.15, xm1=0.05),
        make_sample(t=0.2, step=2, h0_5=0.08, xm1=0.05),
        make_sample(t=0.3, step=3, h0_5=0.05, xm1=0.05),
    ]
    traj = make_trajectory(samples, nu=0.1)
    traces = evaluate_traces(traj, MonitorConfig(t_star=1.0))
    by_name = {t.name: t for t in traces}
    assert by_name["theorem2_eq"].crossings == (0.2,)
    assert by_name["theorem2_proof"].crossings == (0.2,)
    assert by_name["theorem3_eq"].crossings == (0.0,)
    assert by_name["theorem1"].crossings == ()


def test_evaluate_traces_guards():
    traj = make_trajectory(decaying_samples(), nu=0.1)
    with pytest.raises(ValueError, match="exceed the final sample"):
        evaluate_traces(traj, MonitorConfig(t_star=0.3))
    empty = make_trajectory([], nu=0.1)
    with pytest.raises(ValueError, match="no samples"):
        evaluate_traces(empty, MonitorConfig(t_star=1.0))
    anonymous = Trajectory(16, 2.0 * math.pi, {}, "test", decaying_samples())
    with pytest.raises(ValueError, match="viscosity"):
        evaluate_traces(anonymous, MonitorConfig(t_star=1.0))
    traces = evaluate_traces(anonymous, MonitorConfig(t_star=1.0), nu=0.1)
    assert traces


def test_functional_trace_rejects_nan():
    with pytest.raises(ValueError, match="non-finite"):
        FunctionalTrace("x", 1.0, (0.0, 0.1), (1.0, math.nan))
    with pytest.raises(ValueError, match="length"):
        FunctionalTrace("x", 1.0, (0.0, 0.1), (1.0,))
    trace = FunctionalTrace("x", 1.0, (0.0, 0.1), (None, 2.0))
    assert trace.undefined_count == 1
    assert trace.defined_values == (2.0,)


def test_monitor_config_validation():
    config = MonitorConfig(t_star=0.5)
    assert config.t_star == (0.5,)
    assert MonitorConfig(t_star=[1, 2]).t_star == (1.0, 2.0)
    with pytest.raises(ValueError, match="at least one"):
        MonitorConfig(t_star=())
    with pytest.raises(ValueError, match="finite"):
        MonitorConfig(t_star=(math.inf,))
    with pytest.raises(ValueError, match="c_small"):
        MonitorConfig(t_star=1.0, c_small=0.0)


# ---------------------------------------------------------------------------
# Differential-inequality checks


def test_h52_energy_residual_hand_values():
    samples = [
        make_sample(t=0.0, step=0, h2_5=1.0, h3_5=1.0, x1=1.0),
        make_sample(t=1.0, step=1, h2_5=2.0, h3_5=1.0, x1=1.0),
    ]
    report = h52_energy_residual(make_trajectory(samples, nu=0.1))
    # lhs = (4-1)/1 + 2*0.1*1 = 3.2; rhs = (1*1 + 1*4)/2 = 2.5
    assert report.lhs == (pytest.approx(3.2, rel=1e-14),)
    assert report.rhs_density == (pytest.approx(2.5, rel=1e-14),)
    assert report.empirical_constant == pytest.approx(1.28, rel=1e-14)
    assert report.holds
    assert report.midpoints == (0.5,)


def test_h52_energy_residual_decay_is_free():
    samples = [
        make_sample(t=0.0, step=0, h2_5=2.0, h3_5=2.0, x1=1.0),
        make_sample(t=1.0, step=1, h2_5=1.0, h3_5=1.0, x1=1.0),
    ]
    report = h52_energy_residual(make_trajectory(samples, nu=0.5))
    assert report.empirical_constant == 0.0
    assert report.holds


def test_h52_energy_residual_flags_impossible_interval():
    samples = [
        make_sample(t=0.0, step=0, h2_5=1.0, h3_5=1.0, x1=0.0),
        make_sample(t=1.0, step=1, h2_5=2.0, h3_5=1.0, x1=0.0),
    ]
    report = h52_energy_residual(make_trajectory(samples, nu=0.1))
    assert report.empirical_constant == math.inf
    assert not report.holds


def test_h52_energy_residual_guards():
    single = make_trajectory([make_sample()], nu=0.1)
    with pytest.raises(ValueError, match="2 samples"):
        h52_energy_residual(single)
    bare = Trajectory(16, 2.0 * math.pi, {}, "test",
                      [make_sample(t=0.0), make_sample(t=0.1, step=1)])
    with pytest.raises(ValueError, match="viscosity"):
        h52_energy_residual(bare)


def test_growth_checks_on_decay():
    traj = make_trajectory(decaying_samples(rate=2.0), nu=0.1)
    for check in (h12_log_growth_check, xm1_gronwall_check):
        report = check(traj)
        assert report.empirical_constant == 0.0
        assert report.holds
        assert report.log_ratio[0] == 0.0
        assert all(v <= 0 for v in report.log_ratio)


def test_growth_checks_recover_planted_constant():
    # h1/2^2 = exp(C * t) with h5/2 = 1 makes the defect ratio C everywhere
    planted = 2.5
    samples = [
        make_sample(t=t, step=i, h0_5=math.exp(0.5 * planted * t),
                    xm1=math.exp(planted * t))
        for i, t in enumerate((0.0, 0.25, 0.5, 0.75, 1.0))
    ]
    traj = make_trajectory(samples, nu=0.1)
    log_growth = h12_log_growth_check(traj)
    assert log_growth.empirical_constant == pytest.approx(planted, rel=1e-12)
    assert log_growth.holds
    gronwall = xm1_gronwall_check(traj)
    assert gronwall.empirical_constant == pytest.approx(planted, rel=1e-12)
    assert gronwall.holds
    assert gronwall.integral[-1] == pytest.approx(1.0, rel=1e-12)


def rounding_trajectory():
    """Growth where (lr / q) * q rounds below lr: lr = ln 2.25, q = 0.075."""
    return make_trajectory([
        make_sample(t=0.0, step=0, h0_5=1.0, h2_5=1.0),
        make_sample(t=0.1, step=1, h0_5=1.5, h2_5=0.5),
    ])


def test_growth_check_holds_with_its_own_constant():
    report = h12_log_growth_check(rounding_trajectory())
    assert report.empirical_constant == pytest.approx(10.8124, rel=1e-5)
    assert report.holds


def test_a_nan_norm_fails_the_check_it_enters():
    # an interval with a NaN lhs is not evaluated, so no constant closes it
    growth = make_trajectory([
        make_sample(t=0.0, step=0),
        make_sample(t=0.1, step=1, h0_5=math.nan, xm1=math.nan),
        make_sample(t=0.2, step=2),
    ])
    for report in (h12_log_growth_check(growth), xm1_gronwall_check(growth)):
        assert math.isnan(report.empirical_constant)
        assert report.holds is False
    energy = make_trajectory([make_sample(t=0.0, step=0), make_sample(t=0.1, step=1, h3_5=math.nan)])
    report = h52_energy_residual(energy)
    assert math.isnan(report.empirical_constant)
    assert report.holds is False


def test_growth_checks_match_the_loop_and_scipy_references():
    # the constant against a per-interval loop, the integral against scipy
    rng = np.random.default_rng(5)
    for _ in range(50):
        count = int(rng.integers(2, 8))
        times = np.cumsum(rng.uniform(0.01, 0.3, count)) - 0.01
        values = rng.uniform(0.2, 3.0, (count, 2))
        traj = make_trajectory([
            make_sample(t=float(t), step=i, h0_5=float(v[0]), xm1=float(v[0]), h2_5=float(v[1]))
            for i, (t, v) in enumerate(zip(times, values))
        ])
        integral = cumulative_trapezoid(values[:, 1], times, initial=0.0)
        for report in (h12_log_growth_check(traj), xm1_gronwall_check(traj)):
            assert report.integral == tuple(integral)
            constant = 0.0
            for lr, q in zip(report.log_ratio[1:], report.integral[1:]):
                if lr > 0:
                    constant = math.inf if q <= 0 else max(constant, lr / q)
            assert report.empirical_constant == constant
            assert report.holds


def test_growth_checks_reject_zero_norms():
    samples = [make_sample(t=0.0), make_sample(t=0.1, step=1, h0_5=0.0, xm1=0.0)]
    traj = make_trajectory(samples)
    with pytest.raises(ValueError, match="positive"):
        h12_log_growth_check(traj)
    with pytest.raises(ValueError, match="positive"):
        xm1_gronwall_check(traj)
    with pytest.raises(ValueError, match="2 samples"):
        h12_log_growth_check(make_trajectory([make_sample()]))


# ---------------------------------------------------------------------------
# Rate inversion


def test_invert_rate_boundary():
    assert invert_rate(RATE_RANGE_START) == pytest.approx(RATE_DOMAIN_START, rel=1e-14)


def test_invert_rate_round_trip():
    for x in (4.0, 10.0, 100.0, 1e4, 1e6, 1e8):
        y = rate_forward(x)
        assert abs(invert_rate(y) - x) <= 1e-10 * x


def test_invert_rate_below_range():
    with pytest.raises(ValueError, match="at least"):
        invert_rate(RATE_RANGE_START * 0.99)
    with pytest.raises(ValueError):
        invert_rate(math.nan)


def test_invert_rate_asymptotics():
    y = 1e6
    x = invert_rate(y)
    approx = y / math.sqrt(math.log(y))
    assert 0.9 <= x / approx <= 1.1


def test_rate_forward_domain():
    with pytest.raises(ValueError, match="x >= 1"):
        rate_forward(0.5)
    assert rate_forward(1.0) == 0.0


# ---------------------------------------------------------------------------
# Reporting


def test_write_monitor_csv_layout():
    trace = FunctionalTrace("theorem1", 1.0, (0.0, 0.5), (0.25, None))
    stream = io.StringIO()
    write_monitor_csv([trace], stream)
    lines = stream.getvalue().splitlines()
    assert lines[0] == "# nsvlab-monitor v1"
    assert lines[1] == "functional,t_star,t,value"
    assert lines[2] == "theorem1,1.0,0.0,0.25"
    assert lines[3] == "theorem1,1.0,0.5,"  # undefined -> empty field


def test_monitor_summary_structure():
    traj = make_trajectory(decaying_samples(), nu=0.1)
    traces = evaluate_traces(traj, MonitorConfig(t_star=1.0))
    summary = monitor_summary(traces)
    assert set(summary) == {"format", "version", "functionals"}
    assert summary["format"] == "nsvlab-monitor-summary"
    assert len(summary["functionals"]) == len(traces)
    first = summary["functionals"][0]
    assert set(first) == {"name", "t_star", "min", "max", "undefined", "crossings"}
    checks = monitor_checks(traj)
    assert set(checks) == {"h52_energy", "h12_log_growth", "xm1_gronwall"}
    for entry in checks.values():
        assert set(entry) == {"available", "empirical_constant", "holds"}
        assert entry["available"] is True
        assert entry["holds"] is True
    single = monitor_checks(make_trajectory([make_sample()]))
    for entry in single.values():
        assert entry == {"available": False, "reason": "need at least 2 samples"}
