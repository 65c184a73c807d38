"""Acceptance gate: one test per shipped criterion, at the stated tolerances.

Each test prints a single ``criterion N: PASS`` line (visible on failure
via captured stdout; the per-test PASSED/FAILED line in ``pytest -v``
mirrors it).  Expensive n=32 runs are shared through module fixtures.
"""

import dataclasses
import math

import numpy as np
import pytest
from scipy.integrate import quad

from nsvlab.cli import main
from nsvlab.fields import (
    Lattice,
    ScalarSpectralField,
    VelocityField,
    random_band_limited,
    taylor_green,
)
from nsvlab.inequalities import (
    CorpusConfig,
    check_x0_interpolation,
    check_x0_via_h12_x1,
    check_x0_via_xm1_h52,
    commutator_l2,
    commutator_report,
    corpus_fields,
    split_x1,
)
from nsvlab.monitor import (
    h12_log_growth_check,
    h52_energy_residual,
    invert_rate,
    rate_catalog,
    rate_forward,
    theorem1_functional,
    theorem2_functional,
    theorem3_functional,
    xm1_gronwall_check,
)
from nsvlab.norms import NormReport, band_constant, l2_norm
from nsvlab.sim import SolverConfig, energy_balance_residual, integrate
from nsvlab.trajectory import TrajectorySample

from test_inequalities import brute_commutator_l2


def report(number: int, detail: str) -> None:
    print(f"criterion {number}: PASS - {detail}")


@pytest.fixture(scope="module")
def corpus32(lat32):
    return list(corpus_fields(lat32, CorpusConfig()))


@pytest.fixture(scope="module")
def tg32_run(lat32):
    """Taylor-Green n=32, nu=0.1, dt=1e-3, 1000 steps; defects per sample."""
    defects = []

    def track(sample, state):
        defects.append(state.u.divergence_defect())

    config = SolverConfig(nu=0.1, dt=1e-3, t_end=1.0, sample_every=10)
    trajectory = integrate(taylor_green(lat32), config, hooks=[track])
    return trajectory, defects


def test_criterion_1_x0_interpolation_corpus(lat32, corpus32):
    assert len(corpus32) == 100
    worst = 0.0
    for entry in corpus32:
        verdict = check_x0_interpolation(entry.field)
        assert verdict.holds, f"seed {entry.seed}"
        assert verdict.ratio <= 1.0 + 1e-10, f"seed {entry.seed}: {verdict.ratio}"
        worst = max(worst, verdict.ratio)
    for m, amp in (((1, 0, 0), 0.5), ((2, 3, 1), 0.125), ((0, 0, 5), 1.75)):
        c = lat32.zeros()
        c[lat32.mode_index(*m)] = amp
        c[lat32.mode_index(*(-x for x in m))] = amp
        axis = 0 if m[0] == 0 else (1 if m[1] == 0 else 2)
        zero = ScalarSpectralField(lat32, lat32.zeros())
        comps = [zero, zero, zero]
        comps[axis] = ScalarSpectralField(lat32, c)
        single = VelocityField(tuple(comps))
        ratio = check_x0_interpolation(single).ratio
        assert abs(ratio - 1.0) <= 1e-12, f"mode {m}: ratio {ratio}"
    report(1, f"100 fields hold at 1e-10 (max ratio {worst:.6f}); "
              "single modes at ratio 1 within 1e-12")


def test_criterion_2_band_inequalities_lattice_exact(lat32, corpus32):
    pairs = ((1.0, 4.0), (2.0, 8.0), (4.0, 12.0))
    worst_ratio = 0.0
    worst_defect = 0.0
    for entry in corpus32:
        for check in (check_x0_via_xm1_h52, check_x0_via_h12_x1):
            verdict = check(entry.field, "lattice")
            assert verdict.holds, f"seed {entry.seed}: {verdict.name}"
            assert verdict.ratio <= 1.0 + 1e-10
            worst_ratio = max(worst_ratio, verdict.ratio)
        for alpha, beta in pairs:
            split = split_x1(entry.field, alpha, beta, constant_mode="lattice")
            for verdict in split.verdicts()[:3]:
                assert verdict.ratio <= 1.0 + 1e-10, (
                    f"seed {entry.seed} ({alpha},{beta}): {verdict.name}"
                )
                worst_ratio = max(worst_ratio, verdict.ratio)
            assert split.partition_defect <= 1e-12, f"seed {entry.seed}"
            worst_defect = max(worst_defect, split.partition_defect)
    report(2, f"all lattice-mode verdicts hold (max ratio {worst_ratio:.6f}); "
              f"partition defect max {worst_defect:.2e} <= 1e-12 over 3 pairs/field")


def test_criterion_3_continuum_constants_match_quadrature(lat32):
    def quad_value(p, lo, hi):
        value, err = quad(lambda r: 4.0 * math.pi * r**p, lo, hi, limit=200)
        assert err < 1e-8 * max(value, 1.0)
        return math.sqrt(value)

    alpha, beta = 3.7, 9.1
    cases = (
        # (exponent, alpha, beta, closed form, integrand power, lo, hi)
        (1.0, alpha, None, math.sqrt(4.0 * math.pi / 5.0) * alpha**2.5, 4, 0.0, alpha),
        (-1.5, 2.3, beta, math.sqrt(4.0 * math.pi * math.log(beta / 2.3)), -1, 2.3, beta),
        (-2.5, None, 5.2, math.sqrt(2.0 * math.pi) / 5.2, -3, 5.2, np.inf),
        (-0.5, 4.4, None, math.sqrt(2.0 * math.pi) * 4.4, 1, 0.0, 4.4),
    )
    for exponent, a, b, closed, p, lo, hi in cases:
        continuum = band_constant(lat32, exponent, alpha=a, beta=b).continuum_value
        oracle = quad_value(p, lo, hi)
        assert abs(continuum - closed) <= 1e-6 * closed, (exponent, a, b)
        assert abs(continuum - oracle) <= 1e-6 * oracle, (exponent, a, b)

    # the advertised tail constant sqrt(pi)/R understates the integral:
    # quadrature of int_{|xi|>R} |xi|^-5 dxi gives 2*pi/R^2, not pi/R^2
    radius = 4.4
    tail_integral, err = quad(
        lambda r: 4.0 * math.pi * r**-3, radius, np.inf, limit=200
    )
    assert err < 1e-8
    expected = 2.0 * math.pi / radius**2
    assert abs(tail_integral - expected) <= 1e-6 * expected
    cs_constant = math.sqrt(tail_integral)
    assert cs_constant == pytest.approx(math.sqrt(2.0 * math.pi) / radius, rel=1e-10)
    assert cs_constant > math.sqrt(math.pi) / radius
    u = random_band_limited(lat32, 1.0, 6.0, 1.5, seed=314)
    details = check_x0_via_xm1_h52(u, "continuum").details
    assert "sqrt(2*pi)/R" in details["tail_constant_flag"]
    assert details["tail_constant"] > details["claimed_tail_constant"]
    report(3, "continuum constants match adaptive quadrature to 1e-6; "
              "tail discrepancy confirmed: integral 2*pi/R^2 gives sqrt(2*pi)/R, "
              "claimed sqrt(pi)/R understates it")


def test_criterion_4_trilinear_cancellation_and_commutator(lat16, lat8):
    orders = (0.0, 1.5, 2.5)
    for seed in range(400, 420):
        u = random_band_limited(lat16, 1.0, 5.0, 1.5, seed=seed)
        for s in orders:
            rep = commutator_report(u, s)
            assert abs(rep["cancellation_relative"]) <= 1e-10, (seed, s)
            floor = 1e-12 * rep["hs"] ** 2 * rep["x1"]
            assert abs(rep["trilinear"]) <= rep["commutator"] * rep["hs"] + floor, (
                seed, s,
            )
    for seed in (430, 431):
        u8 = random_band_limited(lat8, 1.0, 8.0 / 3.0, 1.0, seed=seed)
        for s in (1.5, 2.5):
            fast = commutator_l2(u8, s)
            slow = brute_commutator_l2(u8, s)
            assert abs(fast - slow) <= 1e-10 * max(slow, 1e-30), (seed, s)
    report(4, "cancellation <= 1e-10 (20 fields, s in {0, 3/2, 5/2}); "
              "trilinear bounded by commutator chain; commutator matches "
              "direct-convolution oracle at 1e-10")


def test_criterion_5_solver_validation(lat16, tg32_run):
    # 5a: integrating-factor heat decay is exact per mode
    nu, dt, steps = 0.08, 0.02, 50
    c = lat16.zeros()
    c[lat16.mode_index(2, 1, 0)] = 0.3
    c[lat16.mode_index(-2, -1, 0)] = 0.3
    zero = ScalarSpectralField(lat16, lat16.zeros())
    u0 = VelocityField((zero, zero, ScalarSpectralField(lat16, c)))
    config = SolverConfig(nu=nu, dt=dt, t_end=steps * dt, integrator="imex",
                          advection=False, sample_every=steps)
    final = {}

    def capture(sample, state):
        final["u"] = state.u

    integrate(u0, config, hooks=[capture])
    decay = math.exp(-nu * 5.0 * dt) ** steps  # |k|^2 = 5, per-step factor
    got = final["u"].components[2].coefficients[lat16.mode_index(2, 1, 0)]
    assert abs(got - 0.3 * decay) <= 1e-12 * abs(0.3 * decay)

    # 5b: rk4 self-convergence order on Taylor-Green over [0, 0.1]
    def final_l2(dt_run):
        cfg = SolverConfig(nu=0.05, dt=dt_run, t_end=0.1, sample_every=10**6)
        return integrate(taylor_green(lat16), cfg).samples[-1].norms.l2

    v1, v2, v3 = final_l2(0.01), final_l2(0.005), final_l2(0.0025)
    order = math.log2(abs(v1 - v2) / abs(v2 - v3))
    assert order >= 3.8, f"observed order {order:.3f}"

    # 5c: energy balance on the shared n=32 run
    trajectory, defects = tg32_run
    budget = 1e-4 * l2_norm(taylor_green(Lattice(32))) ** 2
    residual = float(np.max(energy_balance_residual(trajectory)))
    assert residual <= budget, f"residual {residual:.3e} > {budget:.3e}"

    # 5d: divergence-free preserved across the 1000-step run
    assert len(trajectory.samples) == 101
    assert trajectory.samples[-1].step_index == 1000
    worst_defect = max(defects)
    assert worst_defect <= 1e-10, f"defect {worst_defect:.3e}"
    report(5, f"exact heat decay (1e-12); rk4 order {order:.2f} >= 3.8; "
              f"energy residual {residual:.2e} <= {budget:.2e}; "
              f"divergence defect {worst_defect:.2e} over 1000 steps")


def test_criterion_6_proof_inequalities_stable_under_refinement(lat32, tg32_run):
    def run(nu, dt, every):
        config = SolverConfig(nu=nu, dt=dt, t_end=0.4, sample_every=every)
        return integrate(taylor_green(lat32), config)

    def first_400_steps_of_the_shared_run():
        # the same u0, nu, dt and rule; sampling does not touch the state
        trajectory, _ = tg32_run
        samples = [s for s in trajectory.samples if s.step_index <= 400 and s.step_index % 40 == 0]
        return dataclasses.replace(trajectory, samples=samples)

    def constants_for(nu, dt, trajectory):
        assert not trajectory.failed
        energy = h52_energy_residual(trajectory)
        growth = h12_log_growth_check(trajectory)
        gronwall = xm1_gronwall_check(trajectory)
        for rep in (energy, growth, gronwall):
            assert rep.holds, f"nu={nu} dt={dt}: {rep.name}"
            assert math.isfinite(rep.empirical_constant), f"nu={nu}: {rep.name}"
        return {
            "h52_energy": energy.empirical_constant,
            "h12_log_growth": growth.empirical_constant,
            "xm1_gronwall": gronwall.empirical_constant,
        }

    def stable(a, b):
        big = max(abs(a), abs(b))
        return big < 1e-12 or abs(a - b) <= 0.05 * big

    summary = []
    for nu in (0.02, 0.05, 0.1):
        # sample times align: every 0.04 time units under both step sizes
        coarse = constants_for(nu, 2e-3, run(nu, 2e-3, 20))
        fine_run = first_400_steps_of_the_shared_run() if nu == 0.1 else run(nu, 1e-3, 40)
        fine = constants_for(nu, 1e-3, fine_run)
        for name in coarse:
            assert stable(coarse[name], fine[name]), (
                f"nu={nu} {name}: {coarse[name]:.6g} vs {fine[name]:.6g}"
            )
        summary.append(f"nu={nu}: C_h52={fine['h52_energy']:.3g}")
    report(6, "all three differential inequalities hold; empirical constants "
              f"stable within 5% under dt halving ({'; '.join(summary)})")


def test_criterion_7_monitor_arithmetic():
    sample_scale_2 = TrajectorySample(
        0.0, 0, 0.1, NormReport(1.0, {0.5: 1.0, 1.0: 1.0, 1.5: 1.0, 2.5: 2.0,
                                      3.5: 1.0}, {-1.0: 1.0, 0.0: 1.0, 1.0: 1.0})
    )
    ones = TrajectorySample(
        0.0, 0, 0.1, NormReport(1.0, {0.5: 1.0, 1.0: 1.0, 1.5: 1.0, 2.5: 1.0,
                                      3.5: 1.0}, {-1.0: 1.0, 0.0: 1.0, 1.0: 1.0})
    )
    h32_three = TrajectorySample(
        0.0, 0, 0.1, NormReport(1.0, {0.5: 1.0, 1.0: 1.0, 1.5: 3.0, 2.5: 1.0,
                                      3.5: 1.0}, {-1.0: 1.0, 0.0: 1.0, 1.0: 1.0})
    )
    spots = (
        (theorem1_functional(sample_scale_2, math.exp(-1.0)), 2.0 / math.e),
        (theorem2_functional(ones, 0.5, 1.0, 1.0), 0.5 * math.sqrt(math.log(4.0))),
        (theorem3_functional(ones, 1.0, 1.0), math.sqrt(math.log(8.0))),
        (rate_catalog(ones, 16.0)["leray_h1"], 2.0),
        (rate_catalog(h32_three, 0.25, nu=0.01)["h32_strong_nu"], 15.0),
    )
    for got, want in spots:
        assert abs(got - want) <= 1e-6 * abs(want), (got, want)

    worst = 0.0
    for x in np.geomspace(4.0, 1e8, 25):
        x = float(x)
        back = invert_rate(rate_forward(x))
        worst = max(worst, abs(back - x) / x)
    assert worst <= 1e-10
    report(7, "five spot values reproduced to 1e-6; invert_rate round-trips "
              f"on [4, 1e8] with max relative error {worst:.2e} <= 1e-10")


def test_criterion_8_cli_determinism(tmp_path):
    verify_args = ["verify", "--lattice-n", "16", "--corpus-size", "5"]
    simulate_args = [
        "simulate", "--lattice-n", "16", "--nu", "0.1", "--dt", "0.01",
        "--t-end", "0.05", "--sample-every", "2",
    ]
    monitor_args = [
        "monitor", str(tmp_path / "simulate" / "run-0000" / "trajectory.csv"),
        "--t-star", "0.5,1.0",
    ]
    constants_args = ["constants", "--lattice-n", "16", "--band", "1:0.5:,-2.5::5"]
    compared = 0
    for name, args, artifacts in (
        ("verify", verify_args, ("verdicts.csv", "summary.json")),
        ("simulate", simulate_args, ("trajectory.csv", "trajectory.json")),
        ("monitor", monitor_args, ("monitor.csv", "monitor_summary.json")),
        ("constants", constants_args, ("constants.csv", "constants.json")),
    ):
        out = tmp_path / name
        assert main([*args, "--out", str(out)]) == 0
        assert main([*args, "--out", str(out)]) == 0
        first, second = sorted(out.glob("run-*"))
        for artifact in artifacts + ("effective_config.json",):
            a = (first / artifact).read_bytes()
            b = (second / artifact).read_bytes()
            assert a == b, f"{name}/{artifact} differs between runs"
            compared += 1
    report(8, f"{compared} CSV/JSON artifacts byte-identical across repeat runs "
              "of verify, simulate, monitor and constants")
