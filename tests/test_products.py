import math

import numpy as np
import pytest
from scipy.signal import convolve

from nsvlab import fields
from nsvlab.fields import (
    Lattice,
    ScalarSpectralField,
    VelocityField,
    half_spectrum,
    hermitianize,
    random_band_limited,
    to_physical,
)
from nsvlab.products import (
    AliasingError,
    advect,
    embed_coefficients,
    exactness_limit,
    from_grid,
    multiply,
    pad_lattice,
    padded_size,
    restrict_coefficients,
    to_grid,
)


def centered(field: ScalarSpectralField) -> np.ndarray:
    return np.fft.fftshift(field.coefficients)


def direct_convolution(f: ScalarSpectralField, g: ScalarSpectralField) -> dict:
    """Mode -> coefficient of f*g by direct summation (independent oracle)."""
    n = f.lattice.n
    conv = convolve(centered(f), centered(g), mode="full", method="direct")
    center = 2 * (n // 2)  # fftshift puts mode m at m + n//2; sums double that
    out = {}
    span = conv.shape[0]
    for i in range(span):
        for j in range(span):
            for k in range(span):
                value = conv[i, j, k]
                if abs(value) > 1e-15:
                    out[(i - center, j - center, k - center)] = value
    return out


def band_limited_scalar(lattice, kmax, seed):
    u = random_band_limited(lattice, 1.0, kmax, 1.0, seed=seed)
    return u.components[0]


def test_padded_size_values():
    assert padded_size(8) == 12
    assert padded_size(16) == 24
    assert padded_size(32) == 48
    assert padded_size(10) == 16  # 15 bumped to even
    assert padded_size(12) == 18


def test_pad_lattice_keeps_period(lat16):
    lp = pad_lattice(lat16)
    assert lp.n == 24
    assert lp.period == lat16.period
    assert lp.k_unit == lat16.k_unit


def test_embed_restrict_round_trip(lat8):
    rng = np.random.default_rng(31)
    c = rng.standard_normal(lat8.shape) + 1j * rng.standard_normal(lat8.shape)
    n_pad = padded_size(8)
    big = embed_coefficients(c, n_pad)
    assert big.shape == (n_pad,) * 3
    back = restrict_coefficients(big, 8)
    assert np.array_equal(back, c)
    # embedded content preserves mode labels
    lat12 = Lattice(n_pad)
    assert big[lat12.mode_index(1, -2, 3)] == c[lat8.mode_index(1, -2, 3)]
    # odd sizes and odd targets too: every label keeps its coefficient and
    # the modes the small lattice lacks stay zero
    for n, n_pad in ((7, 12), (9, 14), (8, 9), (7, 7)):
        c = rng.standard_normal((n,) * 3) + 1j * rng.standard_normal((n,) * 3)
        big = embed_coefficients(c, n_pad)
        assert np.array_equal(restrict_coefficients(big, n), c), (n, n_pad)
        small_labels = np.fft.fftfreq(n, 1.0 / n).astype(int)
        big_labels = list(np.fft.fftfreq(n_pad, 1.0 / n_pad).astype(int))
        at = [big_labels.index(m) for m in small_labels]
        assert np.array_equal(big[np.ix_(at, at, at)], c), (n, n_pad)
        assert np.count_nonzero(big) == np.count_nonzero(c), (n, n_pad)


def test_padded_pair_drops_nyquist_planes(lat8):
    # the half-layout embed and restrict leave the Nyquist planes out
    assert (to_grid, from_grid) == (fields.to_grid, fields.from_grid)
    n, m = lat8.n, padded_size(lat8.n)
    for axis in range(3):
        c = lat8.zeros()
        mode = [1, 2, 3]
        mode[axis] = -n // 2
        c[lat8.mode_index(*mode)] = 1.0
        half = half_spectrum(hermitianize(c))
        assert np.max(np.abs(to_grid(half, n))) > 0.5
        assert not to_grid(half, m).any(), axis
    coefficients = from_grid(np.random.default_rng(9).standard_normal((m,) * 3), n)
    assert not coefficients[n // 2].any()
    assert not coefficients[:, n // 2].any()
    assert not coefficients[:, :, n // 2].any()
    assert np.abs(coefficients[: n // 2, : n // 2, : n // 2]).min() > 0.0


def test_cosine_product_hand_value(lat8):
    # cos(x)^2 = 1/2 + cos(2x)/2
    c = lat8.zeros()
    c[lat8.mode_index(1, 0, 0)] = 0.5
    c[lat8.mode_index(-1, 0, 0)] = 0.5
    f = ScalarSpectralField(lat8, c)
    prod = multiply(f, f)
    lat_pad = prod.lattice
    assert prod.coefficients[0, 0, 0] == pytest.approx(0.5, abs=1e-15)
    assert prod.coefficients[lat_pad.mode_index(2, 0, 0)] == pytest.approx(0.25, abs=1e-15)
    assert prod.coefficients[lat_pad.mode_index(-2, 0, 0)] == pytest.approx(0.25, abs=1e-15)
    # nothing else
    mask = np.ones(lat_pad.shape, dtype=bool)
    for m in ((0, 0, 0), (2, 0, 0), (-2, 0, 0)):
        mask[lat_pad.mode_index(*m)] = False
    assert np.max(np.abs(prod.coefficients[mask])) < 1e-15


def test_multiply_matches_direct_convolution(lat8):
    f = band_limited_scalar(lat8, 8.0 / 3.0, seed=5)
    g = band_limited_scalar(lat8, 8.0 / 3.0, seed=6)
    prod = multiply(f, g)
    oracle = direct_convolution(f, g)
    lat_pad = prod.lattice
    got = prod.coefficients.copy()
    for mode, value in oracle.items():
        idx = lat_pad.mode_index(*mode)
        assert got[idx] == pytest.approx(value, abs=1e-13)
        got[idx] = 0.0
    assert np.max(np.abs(got)) < 1e-13  # no spurious modes


def test_multiply_is_pointwise_product_on_grid(lat16):
    f = band_limited_scalar(lat16, 5.0, seed=7)
    g = band_limited_scalar(lat16, 5.0, seed=8)
    prod = multiply(f, g)
    n_pad = prod.lattice.n
    # compare on the padded grid where the product is resolved
    fp = np.real(np.fft.ifftn(embed_coefficients(f.coefficients, n_pad))) * n_pad**3
    gp = np.real(np.fft.ifftn(embed_coefficients(g.coefficients, n_pad))) * n_pad**3
    assert np.allclose(to_physical(prod), fp * gp, atol=1e-12)


def test_band_limit_guard(lat16):
    limit = exactness_limit(lat16)
    assert limit == pytest.approx(16.0 / 3.0)
    wide = random_band_limited(lat16, 1.0, 6.0, 1.0, seed=9).components[0]
    with pytest.raises(AliasingError):
        multiply(wide, wide)


def test_multiply_rejects_mixed_lattices(lat8, lat16):
    f = band_limited_scalar(lat8, 2.0, seed=10)
    g = band_limited_scalar(lat16, 2.0, seed=10)
    with pytest.raises(ValueError):
        multiply(f, g)


def test_advect_scalar_matches_spectral_chain(lat16):
    u = random_band_limited(lat16, 1.0, 4.0, 1.0, seed=11)
    g = band_limited_scalar(lat16, 4.0, seed=12)
    result = advect(u, g)
    # independent check: sum_j conv(u_j, i k_j g) by direct convolution
    from nsvlab.fields import gradient

    grads = gradient(g)
    lat_pad = result.lattice
    expected = np.zeros(lat_pad.shape, dtype=np.complex128)
    for j in range(3):
        oracle = direct_convolution(u.components[j], grads[j])
        for mode, value in oracle.items():
            expected[lat_pad.mode_index(*mode)] += value
    assert np.max(np.abs(result.coefficients - expected)) < 1e-13


def test_advect_velocity_returns_components(lat16):
    u = random_band_limited(lat16, 1.0, 4.0, 1.0, seed=13)
    result = advect(u, u)
    assert len(result) == 3
    for comp, direct in zip(result, (advect(u, u.components[i]) for i in range(3))):
        assert np.array_equal(comp.coefficients, direct.coefficients)


def test_product_of_orthogonal_waves_mean(lat16):
    # mean of cos(k.x) * cos(q.x) over the box is 0 for k != q, 1/2 for k = q
    def wave(m):
        c = lat16.zeros()
        c[lat16.mode_index(*m)] = 0.5
        c[lat16.mode_index(*(-x for x in m))] = 0.5
        return ScalarSpectralField(lat16, c)

    same = multiply(wave((1, 2, 0)), wave((1, 2, 0)))
    other = multiply(wave((1, 2, 0)), wave((2, 1, 0)))
    assert same.mean == pytest.approx(0.5, abs=1e-15)
    assert abs(other.mean) < 1e-15
