import math

import numpy as np
import pytest
import scipy.fft

from nsvlab.fields import (
    Lattice,
    NonzeroMeanError,
    ScalarSpectralField,
    VelocityField,
    leray_project,
    random_band_limited,
    taylor_green,
)
from nsvlab.inequalities import trilinear_hs
from nsvlab.norms import NormReport, l2_norm, sobolev_norm
from nsvlab.products import (
    advect,
    embed_coefficients,
    multiply,
    padded_size,
    restrict_coefficients,
)
from nsvlab.sim import (
    RK4_DIFFUSIVE_LIMIT,
    SchemeBlowupError,
    SolverConfig,
    SolverState,
    energy_balance_residual,
    integrate,
    max_velocity,
    nonlinear_term,
    resolve_dt,
    step,
)
from nsvlab.trajectory import Trajectory, TrajectorySample


def stack_of(u: VelocityField) -> np.ndarray:
    return u.coefficient_stack()


# ---------------------------------------------------------------------------
# Configuration


def test_config_rejects_bad_values():
    good = dict(nu=0.1)
    SolverConfig(**good)
    for bad in (
        dict(nu=0.0),
        dict(nu=-1.0),
        dict(nu=math.nan),
        dict(nu=0.1, dt=0.0),
        dict(nu=0.1, dt=-0.5),
        dict(nu=0.1, dt="later"),
        dict(nu=0.1, t_end=-1.0),
        dict(nu=0.1, t_end=math.inf),
        dict(nu=0.1, dealias="none"),
        dict(nu=0.1, integrator="euler"),
        dict(nu=0.1, sample_every=0),
        dict(nu=0.1, sample_every=2.5),
        dict(nu=0.1, cfl=0.0),
    ):
        with pytest.raises(ValueError):
            SolverConfig(**bad)


def test_config_record_round_trips():
    config = SolverConfig(nu=0.05, dt=0.01, t_end=0.5, sample_every=4)
    record = config.to_record()
    assert record["nu"] == 0.05
    assert record["dt"] == 0.01
    assert record["integrator"] == "rk4"
    assert SolverConfig(**record) == config


# ---------------------------------------------------------------------------
# Pure diffusion


def test_imex_heat_decay_is_exact(lat16):
    nu, dt, steps = 0.05, 0.02, 12
    tg = taylor_green(lat16)
    config = SolverConfig(nu=nu, dt=dt, integrator="imex", advection=False)
    state = SolverState(0.0, tg)
    for _ in range(steps):
        state = step(state, config, dt)
    # every TG mode sits on |k|^2 = 3, so the factor is global
    factor = math.exp(-3.0 * nu * dt * steps)
    expected = tg.coefficient_stack() * factor
    got = stack_of(state.u)
    assert np.max(np.abs(got - expected)) < 1e-14


def test_rk4_heat_decay_has_fourth_order_error(lat16):
    nu, t_end = 0.1, 0.2
    tg = taylor_green(lat16)
    exact = math.exp(-3.0 * nu * t_end) / 2.0  # l2 of decayed TG

    def l2_error(dt):
        config = SolverConfig(nu=nu, dt=dt, t_end=t_end, advection=False,
                              sample_every=10**6)
        traj = integrate(tg, config)
        return abs(traj.samples[-1].norms.l2 - exact)

    e1, e2 = l2_error(0.02), l2_error(0.01)
    order = math.log2(e1 / e2)
    assert order > 3.9


# ---------------------------------------------------------------------------
# Nonlinear term


def retained_modes(lat: Lattice, dealias: str) -> np.ndarray:
    """Modes a dealias rule keeps: |k| < (2/3) Nyquist, or all but the
    Nyquist planes."""
    if dealias == "two-thirds":
        return lat.kmag < (2.0 / 3.0) * lat.nyquist
    nyq = lat.modes == -(lat.n // 2)
    return ~(nyq[:, None, None] | nyq[None, :, None] | nyq[None, None, :])


def test_nonlinear_term_matches_padded_advect_oracle(lat16):
    # independent oracle: the convective form u.grad u, exact on the padded
    # lattice, restricted to n, projected, negated and cut to the retained modes
    u = random_band_limited(lat16, 1.0, 4.0, 1.5, seed=77)
    transported = [
        ScalarSpectralField(lat16, restrict_coefficients(c.coefficients, lat16.n))
        for c in advect(u, u)
    ]
    projected = -stack_of(leray_project(transported))
    scale = np.max(np.abs(projected))
    for dealias in ("two-thirds", "three-halves"):
        oracle = projected * retained_modes(lat16, dealias)
        got = stack_of(nonlinear_term(u, dealias))
        assert np.max(np.abs(got - oracle)) < 1e-13 * scale, dealias


def curl_stack(u: VelocityField) -> np.ndarray:
    a = stack_of(u)
    kx, ky, kz = u.lattice.k_deriv
    return 1j * np.stack((ky * a[2] - kz * a[1], kz * a[0] - kx * a[2], kx * a[1] - ky * a[0]))


def pairing(a: np.ndarray, b: np.ndarray) -> float:
    """|<a, b>| relative to |a| |b|."""
    return abs(np.vdot(a, b).real) / (np.linalg.norm(a) * np.linalg.norm(b))


@pytest.mark.parametrize("dealias", ["two-thirds", "three-halves"])
@pytest.mark.parametrize("kmax", [7.0, 8.0])
def test_nonlinear_term_conserves_energy_and_helicity(lat16, dealias, kmax):
    # the Galerkin-truncated term keeps both quadratic invariants; kmax = 8
    # puts content on the Nyquist planes, which the three-halves rule drops
    u = random_band_limited(lat16, 1.0, kmax, 1.0, seed=93)
    term = stack_of(nonlinear_term(u, dealias))
    assert np.max(np.abs(term)) > 0.0
    assert pairing(stack_of(u), term) <= 1e-15
    assert pairing(curl_stack(u), term) <= 1e-15


def abc_flow(lat: Lattice) -> VelocityField:
    """ABC flow A = B = C = 1 at |k| = 1: u = (sin z + cos y, sin x + cos z,
    sin y + cos x), a Beltrami field (curl u = u)."""
    stack = np.zeros((3,) + lat.shape, dtype=np.complex128)
    for comp, sin_axis, cos_axis in ((0, 2, 1), (1, 0, 2), (2, 1, 0)):
        for sign in (1, -1):
            m = [0, 0, 0]
            m[sin_axis] = sign
            stack[comp][lat.mode_index(*m)] = -0.5j * sign
            m = [0, 0, 0]
            m[cos_axis] = sign
            stack[comp][lat.mode_index(*m)] = 0.5
    return VelocityField(tuple(ScalarSpectralField(lat, c) for c in stack))


@pytest.mark.parametrize("dealias", ["two-thirds", "three-halves"])
def test_abc_flow_decays_exactly_with_advection(lat16, dealias):
    # u.grad u is a pure gradient for a Beltrami field, so the projected
    # term vanishes and the flow decays as exp(-nu |k|^2 t) with advection on
    u = abc_flow(lat16)
    assert np.array_equal(curl_stack(u), stack_of(u))
    assert np.max(np.abs(stack_of(nonlinear_term(u, dealias)))) <= 1e-14
    nu = 0.1
    config = SolverConfig(nu=nu, dt=0.01, t_end=0.2, dealias=dealias, integrator="imex")
    traj = integrate(u, config)
    l2_0 = traj.samples[0].norms.l2
    for sample in traj.samples:
        expected = l2_0 * math.exp(-nu * sample.t)
        assert abs(sample.norms.l2 - expected) <= 1e-13 * expected


def test_dealias_rules_agree_on_narrow_band_fields(lat16):
    # content below nyquist/3 keeps the quadratic product inside the
    # two-thirds mask, so both rules return the exact convolution
    u = random_band_limited(lat16, 1.0, 2.6, 1.0, seed=78)
    a = stack_of(nonlinear_term(u, "two-thirds"))
    b = stack_of(nonlinear_term(u, "three-halves"))
    assert np.max(np.abs(a - b)) < 1e-13 * np.max(np.abs(a))


def test_nonlinear_term_is_divergence_free_and_mean_free(lat16, random16):
    term = nonlinear_term(random16)
    assert term.divergence_defect() < 1e-12
    assert term.mean_magnitude() == 0.0


def test_strict_two_thirds_mask_excludes_boundary_shell():
    # at n=12 the cutoff lands exactly on |k| = 4; the open mask removes it,
    # so a shear pair living on that shell produces no interaction
    lat = Lattice(12)
    cx = lat.zeros()
    cx[lat.mode_index(0, 4, 0)] = 0.25
    cx[lat.mode_index(0, -4, 0)] = 0.25
    cy = lat.zeros()
    cy[lat.mode_index(4, 0, 0)] = 0.25
    cy[lat.mode_index(-4, 0, 0)] = 0.25
    zero = ScalarSpectralField(lat, lat.zeros())
    u = VelocityField((ScalarSpectralField(lat, cx), ScalarSpectralField(lat, cy), zero))
    assert u.divergence_defect() == 0.0
    term = nonlinear_term(u, "two-thirds")
    assert np.max(np.abs(stack_of(term))) == 0.0
    # the three-halves path keeps the shell and produces a real interaction
    term32 = nonlinear_term(u, "three-halves")
    assert np.max(np.abs(stack_of(term32))) > 0.0


def test_nonlinear_term_validates_arguments(lat16, random16):
    with pytest.raises(ValueError):
        nonlinear_term(random16, dealias="fourth")


# ---------------------------------------------------------------------------
# Stepping and invariants


def test_step_matches_integrate(lat16):
    tg = taylor_green(lat16)
    config = SolverConfig(nu=0.1, dt=0.01, t_end=0.05)
    traj = integrate(tg, config)
    state = SolverState(0.0, tg)
    for _ in range(5):
        state = step(state, config, 0.01)
    # identical arithmetic path, so the norms agree bitwise
    assert traj.samples[-1].norms.l2 == l2_norm(state.u)
    assert traj.samples[-1].norms.hdot[2.5] == sobolev_norm(state.u, 2.5)


def oracle_rhs(stack: np.ndarray, lat: Lattice, nu: float, dealias: str) -> np.ndarray:
    """-nu |k|^2 u - P[div(u(x)u)] in full-layout arithmetic on complex
    numpy.fft transforms, the way the solver computed it before it moved
    to the half layout."""
    n = lat.n
    if dealias == "two-thirds":
        mask = lat.kmag < (2.0 / 3.0) * lat.nyquist
        m = n
    else:
        mask = np.ones(lat.shape, dtype=bool)
        mask[n // 2] = mask[:, n // 2] = mask[:, :, n // 2] = False
        m = padded_size(n)
    vel = [np.real(np.fft.ifftn(embed_coefficients(c * mask, m))) * m**3 for c in stack]
    kd = lat.k_deriv
    adv = np.zeros_like(stack)
    for i in range(3):
        for j in range(3):
            flux = restrict_coefficients(np.fft.fftn(vel[i] * vel[j]), n) / m**3
            adv[i] += 1j * kd[j] * (flux * mask)
    return -nu * lat.ksq * stack - oracle_project(adv, lat)


def oracle_project(stack: np.ndarray, lat: Lattice) -> np.ndarray:
    kx, ky, kz = lat.k_deriv
    ksq = lat.ksq_deriv
    factor = np.where(ksq > 0, (kx * stack[0] + ky * stack[1] + kz * stack[2])
                      / np.where(ksq > 0, ksq, 1.0), 0.0)
    out = stack - np.stack([kx * factor, ky * factor, kz * factor])
    out[:, 0, 0, 0] = 0.0
    return out


def oracle_step(u: VelocityField, config: SolverConfig, dt: float) -> np.ndarray:
    lat = u.lattice
    stack = stack_of(u)
    if config.dealias == "three-halves":
        half = lat.n // 2
        stack[:, half] = stack[:, :, half] = stack[:, :, :, half] = 0.0
    if config.integrator == "imex":
        new = stack + dt * oracle_rhs(stack, lat, 0.0, config.dealias)
        new *= np.exp(-config.nu * lat.ksq * dt)
    else:
        k1 = oracle_rhs(stack, lat, config.nu, config.dealias)
        k2 = oracle_rhs(stack + (0.5 * dt) * k1, lat, config.nu, config.dealias)
        k3 = oracle_rhs(stack + (0.5 * dt) * k2, lat, config.nu, config.dealias)
        k4 = oracle_rhs(stack + dt * k3, lat, config.nu, config.dealias)
        new = stack + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return oracle_project(new, lat)


@pytest.mark.parametrize("integrator", ["imex", "rk4"])
@pytest.mark.parametrize("dealias", ["two-thirds", "three-halves"])
def test_step_matches_full_layout_oracle(lat16, dealias, integrator):
    # kmax = 8 reaches the Nyquist planes, which each rule treats its own way
    u = random_band_limited(lat16, 1.0, 8.0, 1.0, seed=95)
    config = SolverConfig(nu=0.05, dealias=dealias, integrator=integrator)
    dt = 0.01
    oracle = oracle_step(u, config, dt)
    got = stack_of(step(SolverState(0.0, u), config, dt).u)
    assert np.max(np.abs(got - oracle)) <= 1e-14 * np.max(np.abs(oracle))


def test_only_the_real_transform_pair_is_used(lat16, random16, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("complex n-d FFT called")

    for module in (np.fft, scipy.fft):
        for name in ("fftn", "ifftn"):
            monkeypatch.setattr(module, name, forbidden)
    for dealias in ("two-thirds", "three-halves"):
        nonlinear_term(random16, dealias)
        for integrator in ("imex", "rk4"):
            config = SolverConfig(nu=0.05, dealias=dealias, integrator=integrator)
            step(SolverState(0.0, random16), config, 0.01)
    multiply(random16.components[0], random16.components[1])
    advect(random16, random16)
    trilinear_hs(random16, 1.5)


def test_rk4_preserves_divergence_and_mean(lat16):
    u = random_band_limited(lat16, 1.0, 4.0, 1.5, seed=90)
    config = SolverConfig(nu=0.05, dt=0.005)
    state = SolverState(0.0, u)
    for _ in range(20):
        state = step(state, config, 0.005)
    assert state.u.divergence_defect() < 1e-12
    assert state.u.mean_magnitude() == 0.0


def test_rk4_stability_guard():
    lat = Lattice(16)
    tg = taylor_green(lat)
    ksq_max = float(lat.ksq.max())
    bad_dt = 1.01 * RK4_DIFFUSIVE_LIMIT / (0.5 * ksq_max)
    with pytest.raises(ValueError, match="diffusive"):
        step(SolverState(0.0, tg), SolverConfig(nu=0.5, dt=bad_dt), bad_dt)
    with pytest.raises(ValueError, match="diffusive"):
        integrate(tg, SolverConfig(nu=0.5, dt=bad_dt, t_end=bad_dt))
    # imex has no such limit
    config = SolverConfig(nu=0.5, dt=bad_dt, integrator="imex", advection=False)
    step(SolverState(0.0, tg), config, bad_dt)


def test_auto_dt_resolution(lat16):
    tg = taylor_green(lat16)
    ksq_max = float(lat16.ksq.max())
    config = SolverConfig(nu=0.1, t_end=5.0)
    dt = resolve_dt(tg, config)
    cfl_limit = 0.4 * lat16.spacing / 1.0
    diffusive = 0.9 * RK4_DIFFUSIVE_LIMIT / (0.1 * ksq_max)
    assert dt == pytest.approx(min(cfl_limit, diffusive, 5.0), rel=1e-14)
    # without advection only the diffusive limit binds
    quiet = SolverConfig(nu=0.1, t_end=5.0, advection=False)
    assert resolve_dt(tg, quiet) == pytest.approx(min(diffusive, 5.0), rel=1e-14)
    # imex without advection falls back to t_end
    free = SolverConfig(nu=0.1, t_end=0.3, integrator="imex", advection=False)
    assert resolve_dt(tg, free) == 0.3


def test_taylor_green_max_velocity(lat16):
    assert max_velocity(taylor_green(lat16)) == pytest.approx(1.0, rel=1e-13)


# ---------------------------------------------------------------------------
# integrate: sampling, validation, failure


def test_sampling_schedule(lat16):
    tg = taylor_green(lat16)
    config = SolverConfig(nu=0.1, dt=0.01, t_end=0.05, sample_every=2)
    traj = integrate(tg, config)
    assert [s.step_index for s in traj.samples] == [0, 2, 4, 5]
    for s in traj.samples:
        assert s.t == s.step_index * 0.01
        assert s.dt == 0.01
    assert not traj.failed
    assert traj.config["dt_resolved"] == 0.01


def test_final_step_covers_t_end(lat16):
    tg = taylor_green(lat16)
    traj = integrate(tg, SolverConfig(nu=0.1, dt=0.01, t_end=0.055, sample_every=100))
    assert traj.samples[-1].step_index == 6
    assert traj.samples[-1].t >= 0.055


def test_zero_t_end_gives_single_sample(lat16):
    tg = taylor_green(lat16)
    traj = integrate(tg, SolverConfig(nu=0.1, dt=0.01, t_end=0.0))
    assert len(traj.samples) == 1
    assert traj.samples[0].t == 0.0


def test_integrate_rejects_bad_initial_data(lat16):
    c = lat16.zeros()
    c[0, 0, 0] = 1.0
    c[lat16.mode_index(0, 0, 1)] = 0.1
    zero = ScalarSpectralField(lat16, lat16.zeros())
    with_mean = VelocityField((ScalarSpectralField(lat16, c), zero, zero))
    with pytest.raises(NonzeroMeanError):
        integrate(with_mean, SolverConfig(nu=0.1, dt=0.01, t_end=0.01))

    d = lat16.zeros()
    d[lat16.mode_index(1, 0, 0)] = 0.5
    d[lat16.mode_index(-1, 0, 0)] = 0.5
    not_solenoidal = VelocityField((ScalarSpectralField(lat16, d), zero, zero))
    with pytest.raises(ValueError, match="divergence"):
        integrate(not_solenoidal, SolverConfig(nu=0.1, dt=0.01, t_end=0.01))


def test_hooks_see_every_sample(lat16):
    tg = taylor_green(lat16)
    seen = []

    def hook(sample, state):
        seen.append((sample.step_index, state.t))
        assert isinstance(state.u, VelocityField)

    integrate(tg, SolverConfig(nu=0.1, dt=0.01, t_end=0.03), hooks=[hook])
    assert [s for s, _ in seen] == [0, 1, 2, 3]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_scheme_blowup_marks_trajectory_failed(lat16):
    violent = taylor_green(lat16) * 80.0
    config = SolverConfig(nu=0.01, dt=0.5, t_end=5.0)
    traj = integrate(violent, config)
    assert traj.failed
    assert "non-finite" in traj.failure_reason
    assert len(traj.samples) >= 1
    assert traj.samples[0].t == 0.0
    # sampled states have finite coefficients; norms may overflow to inf
    # on the way out but are never NaN
    for s in traj.samples:
        assert not math.isnan(s.norms.l2)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_step_raises_scheme_blowup(lat16):
    violent = taylor_green(lat16) * 80.0
    config = SolverConfig(nu=0.01, dt=0.5)
    state = SolverState(0.0, violent)
    with pytest.raises(SchemeBlowupError):
        for _ in range(10):
            state = step(state, config, 0.5)


# ---------------------------------------------------------------------------
# Energy balance


def synthetic_trajectory(samples, nu=0.1):
    return Trajectory(
        lattice_n=16,
        period=2.0 * math.pi,
        config={"nu": nu},
        code_version="test",
        samples=samples,
    )


def make_sample(t, step_index, l2, h1):
    return TrajectorySample(
        t=t, step_index=step_index, dt=0.1,
        norms=NormReport(l2=l2, hdot={1.0: h1}, leilin={}),
    )


def test_energy_balance_residual_zero_on_balanced_data():
    # l2^2 = 1 - 2*nu*b*t with h1^2 = b constant balances exactly
    nu, b = 0.1, 4.0
    samples = [
        make_sample(t, i, math.sqrt(1.0 - 2.0 * nu * b * t), math.sqrt(b))
        for i, t in enumerate((0.0, 0.1, 0.2))
    ]
    res = energy_balance_residual(synthetic_trajectory(samples, nu))
    assert res.shape == (2,)
    assert np.max(res) < 1e-13


def test_energy_balance_residual_detects_imbalance():
    nu = 0.1
    samples = [make_sample(0.0, 0, 1.0, 2.0), make_sample(0.1, 1, 1.0, 2.0)]
    res = energy_balance_residual(synthetic_trajectory(samples, nu))
    # no decay but positive dissipation: residual = nu * h1^2 = 0.4
    assert res[0] == pytest.approx(0.4, rel=1e-14)


def test_energy_balance_residual_small_on_simulation(lat16):
    tg = taylor_green(lat16)
    traj = integrate(tg, SolverConfig(nu=0.1, dt=0.002, t_end=0.05))
    res = energy_balance_residual(traj)
    assert np.max(res) <= 1e-4 * l2_norm(tg) ** 2


def test_energy_balance_residual_guards():
    samples = [make_sample(0.0, 0, 1.0, 2.0)]
    with pytest.raises(ValueError, match="2 samples"):
        energy_balance_residual(synthetic_trajectory(samples))
    two = samples + [make_sample(0.1, 1, 0.9, 2.0)]
    bare = Trajectory(16, 2.0 * math.pi, {}, "test", two)
    with pytest.raises(ValueError, match="viscosity"):
        energy_balance_residual(bare)
    assert energy_balance_residual(bare, nu=0.1).shape == (1,)
