import math

import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings
from hypothesis import strategies as st

from nsvlab import fields
from nsvlab.fields import (
    EmptyBandError,
    Lattice,
    NonzeroMeanError,
    ScalarSpectralField,
    VelocityField,
    divergence,
    embed_coefficients,
    from_grid,
    full_spectrum,
    gradient,
    half_spectrum,
    hermitian_defect,
    hermitianize,
    leray_project,
    random_band_limited,
    support_radius,
    restrict_coefficients,
    taylor_green,
    to_grid,
    to_physical,
    to_spectral,
    truncate,
)
from nsvlab.norms import full_report
from nsvlab.products import _fast_even_size, padded_size
from nsvlab.sim import SolverConfig, SolverState, step

from conftest import dft_oracle

TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# Lattice


def test_lattice_rejects_odd_and_small():
    with pytest.raises(ValueError):
        Lattice(7)
    with pytest.raises(ValueError):
        Lattice(6)
    with pytest.raises(ValueError):
        Lattice(0)


def test_lattice_wavenumber_layout(lat8):
    # unit period 2*pi: k coincides with the integer mode numbers
    assert lat8.k_unit == pytest.approx(1.0)
    assert lat8.nyquist == pytest.approx(4.0)
    assert list(lat8.modes) == [0, 1, 2, 3, -4, -3, -2, -1]
    i, j, k = lat8.mode_index(1, -2, 3)
    assert lat8.modes[i] == 1 and lat8.modes[j] == -2 and lat8.modes[k] == 3


def test_lattice_scaled_period():
    lat = Lattice(8, period=TWO_PI / 2.0)
    assert lat.k_unit == pytest.approx(2.0)
    assert lat.nyquist == pytest.approx(8.0)


def test_mode_index_range_check(lat8):
    with pytest.raises(ValueError):
        lat8.mode_index(4, 0, 0)  # +nyquist not representable
    with pytest.raises(ValueError):
        lat8.mode_index(0, -5, 0)


def test_k_deriv_zeroes_nyquist(lat8):
    kx = lat8.k_deriv[0].ravel()
    assert kx[4] == 0.0  # the -n/2 plane
    assert lat8.k[0].ravel()[4] == -4.0


def test_lattice_shells(lat8):
    for lat in (lat8, Lattice(8, period=3.0)):
        index, radius = lat.shells
        counts = np.bincount(index)
        assert radius[0] == 0.0 and index[0] == 0 and counts[0] == 1  # zero mode alone
        assert np.all(np.diff(radius) > 0)
        assert np.array_equal(radius[index], lat.kmag.ravel())
        assert counts.sum() == lat.n**3


# ---------------------------------------------------------------------------
# Transforms, verified against the direct DFT sum


def test_to_physical_matches_direct_dft(lat8):
    rng = np.random.default_rng(5)
    coeffs = hermitianize(
        rng.standard_normal(lat8.shape) + 1j * rng.standard_normal(lat8.shape)
    )
    f = ScalarSpectralField(lat8, coeffs)
    direct = dft_oracle(coeffs, lat8.period)
    assert np.max(np.abs(direct.imag)) < 1e-12
    assert np.allclose(to_physical(f), direct.real, atol=1e-12)


def test_roundtrip_physical_spectral(lat8):
    rng = np.random.default_rng(6)
    samples = rng.standard_normal(lat8.shape)
    f = to_spectral(samples)
    assert np.allclose(to_physical(f), samples, atol=1e-13)


def test_single_mode_is_a_plane_wave(lat16):
    coeffs = lat16.zeros()
    coeffs[lat16.mode_index(2, 0, 0)] = 0.5
    coeffs[lat16.mode_index(-2, 0, 0)] = 0.5
    f = ScalarSpectralField(lat16, coeffs)
    x = np.arange(16) * lat16.spacing
    expected = np.cos(2 * x)[:, None, None] * np.ones(lat16.shape)
    assert np.allclose(to_physical(f), expected, atol=1e-14)


def test_hermitianize_yields_real_field(lat8):
    rng = np.random.default_rng(7)
    raw = rng.standard_normal(lat8.shape) + 1j * rng.standard_normal(lat8.shape)
    f = ScalarSpectralField(lat8, hermitianize(raw))
    assert hermitian_defect(f) < 1e-15
    phys = np.fft.ifftn(f.coefficients) * 8**3
    assert np.max(np.abs(phys.imag)) < 1e-12


# ---------------------------------------------------------------------------
# Half layout and the real transform pair


def random_hermitian(shape, seed):
    rng = np.random.default_rng(seed)
    return hermitianize(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def drop_nyquist(c: np.ndarray) -> np.ndarray:
    out = c.copy()
    half = c.shape[0] // 2
    out[half] = 0.0
    out[:, half] = 0.0
    out[:, :, half] = 0.0
    return out


@pytest.mark.parametrize(
    "lat", [Lattice(8), Lattice(10), Lattice(16, period=3.0)], ids=["8", "10", "16-period3"]
)
def test_full_spectrum_rebuilds_hermitian_arrays_exactly(lat):
    n = lat.n
    c = random_hermitian(lat.shape, seed=n)
    half = half_spectrum(c)
    assert half.shape == (n, n, n // 2 + 1)
    # the m3 = 0 and Nyquist planes carry content and come back untouched
    assert np.abs(c[:, :, 0]).min() > 0.0
    assert np.abs(c[:, :, n // 2]).min() > 0.0
    assert np.array_equal(full_spectrum(half, n), c)
    stack = np.stack([c, random_hermitian(lat.shape, seed=n + 1)])
    assert np.array_equal(full_spectrum(half_spectrum(stack), n), stack)


@pytest.mark.parametrize("n", [8, 16])
def test_transform_pair_matches_complex_fft(n):
    # oracle: the complex numpy.fft transforms on the full layout
    m = padded_size(n)
    c = random_hermitian((n,) * 3, seed=30 + n)
    got = to_grid(half_spectrum(c), n)
    oracle = np.real(np.fft.ifftn(c)) * n**3
    assert np.max(np.abs(got - oracle)) <= 1e-14 * np.max(np.abs(oracle))
    # padded: the embed drops the Nyquist planes
    got = to_grid(half_spectrum(c), m)
    oracle = np.real(np.fft.ifftn(embed_coefficients(drop_nyquist(c), m))) * m**3
    assert np.max(np.abs(got - oracle)) <= 1e-14 * np.max(np.abs(oracle))

    rng = np.random.default_rng(40 + n)
    for size in (n, m):
        values = rng.standard_normal((size,) * 3)
        full = np.fft.fftn(values) / size**3
        oracle = full if size == n else drop_nyquist(restrict_coefficients(full, n))
        got = from_grid(values, n)
        assert got.shape == (n, n, n // 2 + 1)
        scale = np.max(np.abs(oracle))
        assert np.max(np.abs(got - half_spectrum(oracle))) <= 1e-14 * scale, size


FAST_SIZES = sorted({_fast_even_size(m) for m in range(8, 97)})


@pytest.mark.parametrize("m", FAST_SIZES)
def test_transform_pair_is_bitwise_scipy_fft(m):
    # scipy.fft's n-d real transforms are the oracle, here only: the numpy.fft
    # passes must give their bits, on the own-size grid and padded onto m
    # points from a lattice of about 2m/3
    rng = np.random.default_rng(m)
    values = rng.standard_normal((m,) * 3)
    whole = scipy.fft.rfftn(values, norm="forward")
    assert from_grid(values, m).tobytes() == whole.tobytes()
    inverse = scipy.fft.irfftn(whole, s=(m,) * 3, norm="forward")
    assert to_grid(whole, m).tobytes() == inverse.tobytes()
    n = max(8, 2 * (m // 3))
    if n < m:
        truncated = fields._resized(whole, n, half=True)
        assert from_grid(values, n).tobytes() == truncated.tobytes()
        embedded = fields._resized(truncated, m, half=True)
        padded = scipy.fft.irfftn(embedded, s=(m,) * 3, norm="forward")
        assert to_grid(truncated, m).tobytes() == padded.tobytes()


def test_hermitianize_is_idempotent(lat8):
    rng = np.random.default_rng(8)
    raw = rng.standard_normal(lat8.shape) + 1j * rng.standard_normal(lat8.shape)
    once = hermitianize(raw)
    assert np.allclose(hermitianize(once), once, atol=1e-15)


def test_field_rejects_nonfinite(lat8):
    bad = lat8.zeros()
    bad[0, 0, 1] = np.nan
    with pytest.raises(ValueError):
        ScalarSpectralField(lat8, bad)


def test_coefficients_are_write_locked(lat8):
    f = ScalarSpectralField(lat8, lat8.zeros())
    with pytest.raises(ValueError):
        f.coefficients[0, 0, 0] = 1.0


def test_non_hermitian_input_is_read_as_its_half(lat16, tg16):
    # a field keeps the m_3 >= 0 half of its input, which every norm and
    # transform read before fields held only that half
    c = lat16.zeros()
    c[lat16.mode_index(0, 0, 1)] = 0.1  # partner (0, 0, -1) missing
    c[lat16.mode_index(1, 0, 0)] = 0.2  # partner (-1, 0, 0) missing
    c[lat16.mode_index(0, 0, -2)] = 0.3  # outside the half
    f = ScalarSpectralField(lat16, c)
    record = full_report(f).to_record()
    for key, value in record.items():
        expected = 0.4 if key.startswith("x") else math.sqrt(0.06)
        assert value == pytest.approx(expected, rel=1e-15), key
    assert np.array_equal(to_physical(f), to_grid(half_spectrum(c), 16))

    assert np.array_equal(f.coefficients, full_spectrum(half_spectrum(c), 16))
    assert not np.array_equal(f.coefficients, c)
    with pytest.raises(ValueError):
        f.coefficients[0, 0, 0] = 1.0
    # the defect sees only the asymmetry the half holds: the m_3 = 0 plane
    assert hermitian_defect(f) > 0.1
    c[lat16.mode_index(1, 0, 0)] = 0.0
    assert hermitian_defect(ScalarSpectralField(lat16, c)) < 1e-15

    solved = step(SolverState(0.0, tg16), SolverConfig(nu=0.1, dt=0.01), 0.01)
    with pytest.raises(ValueError):
        solved.u.components[0].coefficients[0, 0, 0] = 1.0


# ---------------------------------------------------------------------------
# Calculus


def test_gradient_of_plane_wave(lat16):
    coeffs = lat16.zeros()
    coeffs[lat16.mode_index(0, 3, 0)] = 0.5
    coeffs[lat16.mode_index(0, -3, 0)] = 0.5
    f = ScalarSpectralField(lat16, coeffs)  # cos(3 x2)
    g = gradient(f)
    y = np.arange(16) * lat16.spacing
    expected = (-3.0 * np.sin(3 * y))[None, :, None] * np.ones(lat16.shape)
    assert np.allclose(to_physical(g[1]), expected, atol=1e-13)
    assert np.max(np.abs(g[0].coefficients)) == 0.0
    assert np.max(np.abs(g[2].coefficients)) == 0.0


def test_divergence_of_gradient_is_laplacian(lat8):
    rng = np.random.default_rng(9)
    f = to_spectral(rng.standard_normal(lat8.shape))
    lap = divergence(VelocityField(gradient(f)))
    # -|k|^2 multiplier, with the derivative convention on the Nyquist plane
    expected = -(lat8.ksq) * f.coefficients
    kx = lat8.k_deriv
    expected_deriv = -(kx[0] ** 2 + kx[1] ** 2 + kx[2] ** 2) * f.coefficients
    assert np.allclose(lap.coefficients, expected_deriv, atol=1e-13)
    interior = lat8.kmag < lat8.nyquist
    assert np.allclose(
        lap.coefficients[interior], (expected * interior)[interior], atol=1e-13
    )


# ---------------------------------------------------------------------------
# Leray projection


def test_projection_is_divergence_free_and_idempotent(lat16):
    rng = np.random.default_rng(10)
    parts = tuple(
        to_spectral(samples - samples.mean())
        for samples in (rng.standard_normal(lat16.shape) for _ in range(3))
    )
    u = leray_project(parts)
    assert u.divergence_defect() < 1e-14
    again = leray_project(u)
    diff = max(
        (again.components[i] - u.components[i]).max_abs_coefficient() for i in range(3)
    )
    assert diff < 1e-14


def test_projection_kills_gradients(lat16):
    rng = np.random.default_rng(11)
    f = to_spectral(rng.standard_normal(lat16.shape))
    u = leray_project(gradient(f))
    assert u.max_abs_coefficient() < 1e-13


def test_projection_fixes_divergence_free_input(lat16, tg16):
    projected = leray_project(tg16)
    diff = max(
        (projected.components[i] - tg16.components[i]).max_abs_coefficient()
        for i in range(3)
    )
    assert diff < 1e-15


def test_projection_rejects_nonzero_mean(lat16):
    coeffs = lat16.zeros()
    coeffs[0, 0, 0] = 1.0
    bumped = ScalarSpectralField(lat16, coeffs)
    with pytest.raises(NonzeroMeanError):
        leray_project((bumped, ScalarSpectralField(lat16, lat16.zeros()),
                       ScalarSpectralField(lat16, lat16.zeros())))


# ---------------------------------------------------------------------------
# Taylor-Green


def test_taylor_green_physical_form(lat16):
    u = taylor_green(lat16)
    x = np.arange(16) * lat16.spacing
    X, Y, Z = np.meshgrid(x, x, x, indexing="ij")
    assert np.allclose(to_physical(u.components[0]), np.cos(X) * np.sin(Y) * np.sin(Z),
                       atol=1e-14)
    assert np.allclose(to_physical(u.components[1]), -np.sin(X) * np.cos(Y) * np.sin(Z),
                       atol=1e-14)
    assert np.max(np.abs(u.components[2].coefficients)) == 0.0


def test_taylor_green_structure(tg16):
    assert tg16.divergence_defect() == 0.0
    assert tg16.mean_magnitude() == 0.0
    # 16 populated modes of magnitude 1/8 per nonzero component
    c0 = tg16.components[0].coefficients
    nonzero = np.abs(c0) > 0
    assert nonzero.sum() == 8
    assert np.allclose(np.abs(c0[nonzero]), 0.125)
    assert support_radius(tg16) == pytest.approx(math.sqrt(3.0))


# ---------------------------------------------------------------------------
# Random fields and truncation


def test_random_band_limited_is_deterministic(lat16):
    a = random_band_limited(lat16, 1.0, 4.0, 1.5, seed=77)
    b = random_band_limited(lat16, 1.0, 4.0, 1.5, seed=77)
    for i in range(3):
        assert np.array_equal(a.components[i].coefficients, b.components[i].coefficients)
    c = random_band_limited(lat16, 1.0, 4.0, 1.5, seed=78)
    assert any(
        not np.array_equal(a.components[i].coefficients, c.components[i].coefficients)
        for i in range(3)
    )


def test_random_band_limited_support_and_structure(lat16):
    u = random_band_limited(lat16, 2.0, 5.0, 1.0, seed=3)
    mags = lat16.kmag
    for comp in u.components:
        populated = np.abs(comp.coefficients) > 0
        assert np.all(mags[populated] >= 2.0)
        assert np.all(mags[populated] <= 5.0)
    assert u.divergence_defect() < 1e-14
    assert u.mean_magnitude() == 0.0
    phys = to_physical(u.components[0])
    assert np.max(np.abs(phys)) > 0


def test_random_band_limited_validation(lat16):
    with pytest.raises(ValueError):
        random_band_limited(lat16, 0.0, 4.0, 1.0, seed=1)
    with pytest.raises(ValueError):
        random_band_limited(lat16, 5.0, 4.0, 1.0, seed=1)
    with pytest.raises(ValueError):
        random_band_limited(lat16, 1.0, 100.0, 1.0, seed=1)
    with pytest.raises(EmptyBandError):
        random_band_limited(lat16, 2.05, 2.1, 1.0, seed=1)


def test_truncate_partitions_exactly(lat16, random16):
    low = truncate(random16, 3.0, "low")
    high = truncate(random16, 3.0, "high")
    for i in range(3):
        total = low.components[i] + high.components[i]
        diff = (total - random16.components[i]).max_abs_coefficient()
        assert diff == 0.0
        overlap = np.abs(low.components[i].coefficients) * np.abs(
            high.components[i].coefficients
        )
        assert np.max(overlap) == 0.0


def test_truncate_boundary_mode_goes_low(lat16):
    coeffs = lat16.zeros()
    coeffs[lat16.mode_index(3, 0, 0)] = 0.5
    coeffs[lat16.mode_index(-3, 0, 0)] = 0.5
    f = ScalarSpectralField(lat16, coeffs)
    assert truncate(f, 3.0, "low").max_abs_coefficient() == 0.5
    assert truncate(f, 3.0, "high").max_abs_coefficient() == 0.0


def test_truncate_rejects_unknown_side(lat16, random16):
    with pytest.raises(ValueError):
        truncate(random16, 3.0, "middle")


# ---------------------------------------------------------------------------
# Arithmetic and containers


def test_field_arithmetic(lat8):
    rng = np.random.default_rng(12)
    f = to_spectral(rng.standard_normal(lat8.shape))
    g = to_spectral(rng.standard_normal(lat8.shape))
    h = (f + g) - g
    assert np.allclose(h.coefficients, f.coefficients, atol=1e-15)
    assert np.allclose((f * 2.0).coefficients, 2.0 * f.coefficients)
    assert np.allclose((-f).coefficients, -f.coefficients)


def test_velocity_arithmetic_is_componentwise(lat8, random16, tg16):
    # a velocity's arithmetic runs on its one stack and must equal the scalar
    # arithmetic of its components bit for bit
    u, v = random16, tg16
    cases = (
        (u + v, lambda a, b: a + b),
        (u - v, lambda a, b: a - b),
        (2.0 * u, lambda a, b: 2.0 * a),
        (u * 2.0, lambda a, b: a * 2.0),
    )
    for got, scalar_op in cases:
        assert isinstance(got, VelocityField)
        for c, a, b in zip(got.components, u.components, v.components):
            assert c._half.tobytes() == scalar_op(a, b)._half.tobytes()
    with pytest.raises(ValueError, match="fields live on different lattices"):
        u + taylor_green(lat8)
    with pytest.raises(TypeError):
        u + u.components[0]
    assert VelocityField(u.components)._stack.tobytes() == u._stack.tobytes()
    for c in u.components:
        with pytest.raises(ValueError):
            c._half[0, 0, 1] = 1.0
        with pytest.raises(ValueError):
            c.coefficients[0, 0, 1] = 1.0


def test_velocity_field_requires_matching_lattices(lat8, lat16):
    f8 = ScalarSpectralField(lat8, lat8.zeros())
    f16 = ScalarSpectralField(lat16, lat16.zeros())
    with pytest.raises(ValueError):
        VelocityField((f8, f8, f16))


def test_divergence_defect_is_relative(lat16, tg16):
    assert (tg16 * 1e-8).divergence_defect() == tg16.divergence_defect()


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_projection_always_divergence_free(seed):
    lat = Lattice(8)
    u = random_band_limited(lat, 1.0, 3.0, 1.0, seed=seed)
    assert u.divergence_defect() < 1e-13
    assert hermitian_defect(u.components[0]) < 1e-13
