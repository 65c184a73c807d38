import math

import numpy as np
import pytest
from scipy import integrate

from nsvlab.fields import (
    Lattice,
    NonzeroMeanError,
    ScalarSpectralField,
    taylor_green,
    to_physical,
)
from nsvlab.norms import (
    BandConstant,
    NormReport,
    band_constant,
    full_report,
    l2_norm,
    leilin_norm,
    sobolev_norm,
)

FOUR_PI = 4.0 * math.pi


def single_mode(lattice, m, amplitude=0.5):
    """amplitude * 2*cos(m.x): coefficient `amplitude` at +/-m."""
    coeffs = lattice.zeros()
    coeffs[lattice.mode_index(*m)] = amplitude
    coeffs[lattice.mode_index(*(-c for c in m))] = amplitude
    return ScalarSpectralField(lattice, coeffs)


# ---------------------------------------------------------------------------
# Hand values


def test_single_mode_norms(lat16):
    f = single_mode(lat16, (2, 1, 0))  # |k| = sqrt(5), two coefficients of 1/2
    kmag = math.sqrt(5.0)
    assert l2_norm(f) == pytest.approx(math.sqrt(0.5), rel=1e-15)
    assert sobolev_norm(f, 1.0) == pytest.approx(kmag * math.sqrt(0.5), rel=1e-15)
    assert sobolev_norm(f, -0.5) == pytest.approx(kmag**-0.5 * math.sqrt(0.5), rel=1e-15)
    assert leilin_norm(f, 0.0) == pytest.approx(1.0, rel=1e-15)
    assert leilin_norm(f, 1.0) == pytest.approx(kmag, rel=1e-15)
    assert leilin_norm(f, -1.0) == pytest.approx(1.0 / kmag, rel=1e-15)


def test_taylor_green_norms(tg16):
    # 16 coefficients of modulus 1/8 per field, all at |k| = sqrt(3)
    assert l2_norm(tg16) == pytest.approx(0.5, rel=1e-15)
    for s in (0.5, 1.0, 1.5, 2.5):
        assert sobolev_norm(tg16, s) == pytest.approx(0.5 * 3.0 ** (s / 2.0), rel=1e-14)
    assert leilin_norm(tg16, 0.0) == pytest.approx(2.0, rel=1e-14)
    assert leilin_norm(tg16, 1.0) == pytest.approx(2.0 * math.sqrt(3.0), rel=1e-14)
    assert leilin_norm(tg16, -1.0) == pytest.approx(2.0 / math.sqrt(3.0), rel=1e-14)


def test_norms_scale_linearly(random16):
    for norm in (l2_norm, lambda f: sobolev_norm(f, 1.5), lambda f: leilin_norm(f, 1.0)):
        assert norm(random16 * 3.0) == pytest.approx(3.0 * norm(random16), rel=1e-14)


# ---------------------------------------------------------------------------
# Independent oracles


def test_l2_is_physical_mean_square(lat8):
    rng = np.random.default_rng(21)
    samples = rng.standard_normal(lat8.shape)
    from nsvlab.fields import to_spectral

    f = to_spectral(samples)
    assert l2_norm(f) == pytest.approx(math.sqrt(np.mean(samples**2)), rel=1e-13)


def test_sobolev_matches_fractional_laplacian_parseval(lat16, random16):
    # ||f||_{hs} equals the L2 norm of |D|^s f evaluated on the grid
    s = 1.5
    total = 0.0
    weights = lat16.kmag**s
    for comp in random16.components:
        ds = ScalarSpectralField(lat16, comp.coefficients * weights)
        phys = to_physical(ds)
        total += np.mean(phys**2)
    assert sobolev_norm(random16, s) == pytest.approx(math.sqrt(total), rel=1e-12)


def test_leilin_matches_plain_sum(lat16, random16):
    sigma = 1.0
    acc = 0.0
    for comp in random16.components:
        mags = np.abs(comp.coefficients).ravel()
        acc += float(np.sum(lat16.kmag.ravel() ** sigma * mags))
    assert leilin_norm(random16, sigma) == pytest.approx(acc, rel=1e-13)


def test_component_sum_convention(lat16):
    # the vector leilin norm is the sum of component norms, not a euclidean mix
    f = single_mode(lat16, (1, 0, 0))
    zero = ScalarSpectralField(lat16, lat16.zeros())
    from nsvlab.fields import VelocityField

    u = VelocityField((f, f, zero))
    assert leilin_norm(u, 0.0) == pytest.approx(2.0 * leilin_norm(f, 0.0), rel=1e-15)
    # sobolev squares add across components
    assert sobolev_norm(u, 1.0) == pytest.approx(math.sqrt(2.0) * sobolev_norm(f, 1.0),
                                                 rel=1e-15)


# ---------------------------------------------------------------------------
# Domain guards


def test_negative_order_rejects_nonzero_mean(lat8):
    coeffs = lat8.zeros()
    coeffs[0, 0, 0] = 1.0
    coeffs[lat8.mode_index(1, 0, 0)] = 0.5
    coeffs[lat8.mode_index(-1, 0, 0)] = 0.5
    f = ScalarSpectralField(lat8, coeffs)
    with pytest.raises(NonzeroMeanError):
        sobolev_norm(f, -0.5)
    with pytest.raises(NonzeroMeanError):
        leilin_norm(f, -1.0)
    # nonnegative orders ignore the mean mode entirely
    assert sobolev_norm(f, 1.0) == pytest.approx(math.sqrt(0.5), rel=1e-15)


def test_orders_below_minus_one_rejected(lat8):
    f = single_mode(lat8, (1, 0, 0))
    with pytest.raises(ValueError):
        sobolev_norm(f, -1.5)
    with pytest.raises(ValueError):
        leilin_norm(f, -1.0001)


def test_zero_field_norms(lat8):
    f = ScalarSpectralField(lat8, lat8.zeros())
    assert l2_norm(f) == 0.0
    assert sobolev_norm(f, 2.5) == 0.0
    assert leilin_norm(f, -1.0) == 0.0


# ---------------------------------------------------------------------------
# NormReport


def test_full_report_round_trip(random16):
    report = full_report(random16)
    record = report.to_record()
    assert set(record) == {"l2", "h0.5", "h1", "h1.5", "h2.5", "h3.5", "x-1", "x0", "x1"}
    back = NormReport.from_record(record)
    assert back == report


def test_report_rejects_unknown_key():
    with pytest.raises(ValueError):
        NormReport.from_record({"l2": 1.0, "q3": 2.0})
    with pytest.raises(ValueError):
        NormReport.from_record({"h1": 1.0})


# ---------------------------------------------------------------------------
# Band constants: lattice sums against a plain loop, continuum against
# adaptive quadrature of the defining radial integrals


def brute_band_sum(lattice, exponent, mask):
    total = 0.0
    mags = lattice.kmag.ravel()
    flags = mask.ravel()
    for mag, flag in zip(mags, flags):
        if flag and mag > 0:
            total += mag ** (2.0 * exponent)
    return math.sqrt(total)


def test_lattice_band_sum_matches_brute_force(lat16):
    # alpha alone = low band [0, alpha]; both = mid (alpha, beta]; beta alone = tail
    cases = (
        (1.0, {"alpha": 4.0}, lat16.kmag <= 4.0),
        (-1.5, {"alpha": 2.0, "beta": 6.0}, (lat16.kmag > 2.0) & (lat16.kmag <= 6.0)),
        (-2.5, {"beta": 5.0}, lat16.kmag > 5.0),
    )
    for exponent, bounds, mask in cases:
        report = band_constant(lat16, exponent, **bounds)
        assert report.lattice_value == pytest.approx(
            brute_band_sum(lat16, exponent, mask), rel=1e-13
        )


def test_band_selection(lat16):
    assert band_constant(lat16, 1.0, alpha=4.0).band == "low"
    assert band_constant(lat16, -1.5, alpha=2.0, beta=8.0).band == "mid"
    assert band_constant(lat16, -2.5, beta=8.0).band == "high"
    with pytest.raises(ValueError):
        band_constant(lat16, 1.0)  # no bounds at all


def quad_constant(exponent, lo, hi):
    value, err = integrate.quad(
        lambda r: FOUR_PI * r ** (2.0 * exponent + 2.0), lo, hi, limit=200
    )
    assert err < 1e-10 * max(value, 1.0)
    return math.sqrt(value)


def test_continuum_low_band_closed_forms(lat16):
    alpha = 4.0
    # a=1: sqrt(4 pi / 5) alpha^{5/2}
    got = band_constant(lat16, 1.0, alpha=alpha).continuum_value
    assert got == pytest.approx(math.sqrt(FOUR_PI / 5.0) * alpha**2.5, rel=1e-14)
    assert got == pytest.approx(quad_constant(1.0, 0.0, alpha), rel=1e-9)
    # a=1/2: sqrt(pi) alpha^2
    got = band_constant(lat16, 0.5, alpha=alpha).continuum_value
    assert got == pytest.approx(math.sqrt(math.pi) * alpha**2, rel=1e-14)
    assert got == pytest.approx(quad_constant(0.5, 0.0, alpha), rel=1e-9)
    # a=-1/2: sqrt(2 pi) R
    got = band_constant(lat16, -0.5, alpha=alpha).continuum_value
    assert got == pytest.approx(math.sqrt(2.0 * math.pi) * alpha, rel=1e-14)
    assert got == pytest.approx(quad_constant(-0.5, 0.0, alpha), rel=1e-9)


def test_continuum_mid_band_log_form(lat16):
    alpha, beta = 2.0, 8.0
    got = band_constant(lat16, -1.5, alpha=alpha, beta=beta).continuum_value
    expected = math.sqrt(FOUR_PI * math.log(beta / alpha))
    assert got == pytest.approx(expected, rel=1e-14)
    assert got == pytest.approx(quad_constant(-1.5, alpha, beta), rel=1e-9)
    # the ln 4 instance evaluates to 4.1738..., not 4.1742
    assert expected == pytest.approx(4.173809857004607, abs=1e-12)


def test_continuum_mid_band_power_form(lat16):
    alpha, beta = 1.0, 5.0
    got = band_constant(lat16, -1.0, alpha=alpha, beta=beta).continuum_value
    assert got == pytest.approx(quad_constant(-1.0, alpha, beta), rel=1e-9)


def test_continuum_high_band_closed_form(lat16):
    beta = 4.0
    got = band_constant(lat16, -2.5, beta=beta).continuum_value
    assert got == pytest.approx(math.sqrt(2.0 * math.pi) / beta, rel=1e-14)
    value, err = integrate.quad(
        lambda r: FOUR_PI * r ** (2.0 * -2.5 + 2.0), beta, np.inf, limit=200
    )
    assert got == pytest.approx(math.sqrt(value), rel=1e-9)


def test_divergent_bands_rejected(lat16):
    with pytest.raises(ValueError):
        band_constant(lat16, -1.5, alpha=4.0)  # low band with 2a+3 = 0 diverges at 0
    with pytest.raises(ValueError):
        band_constant(lat16, -2.0, alpha=4.0)  # 2a+3 < 0 diverges at 0
    with pytest.raises(ValueError):
        band_constant(lat16, -1.5, beta=4.0)  # tail with 2a+3 = 0 diverges
    with pytest.raises(ValueError):
        band_constant(lat16, 1.0, beta=4.0)  # tail with 2a+3 > 0 diverges
    with pytest.raises(ValueError):
        band_constant(lat16, -2.5, beta=math.inf)  # non-finite bound
    with pytest.raises(ValueError):
        band_constant(lat16, math.nan, alpha=1.0)  # non-finite exponent


def test_empty_lattice_band_flagged(lat16):
    report = band_constant(lat16, 1.0, alpha=0.5)  # no modes below |k| = 1
    assert report.lattice_value == 0.0
    assert report.empty
    assert report.ratio == 0.0


def test_lattice_ratio_approaches_one():
    lat = Lattice(64)
    ratios = [
        band_constant(lat, -0.5, alpha=alpha).ratio for alpha in (4.0, 8.0, 16.0)
    ]
    assert ratios[0] < ratios[1] < ratios[2] < 1.05
    assert abs(ratios[2] - 1.0) < 0.05


def test_high_band_lattice_sum_covers_corners(lat16):
    # modes beyond the axis Nyquist (corner region) belong to the tail sum
    report = band_constant(lat16, -2.5, beta=8.0)
    corner = lat16.kmag > 8.0
    assert corner.any()
    assert report.lattice_value == pytest.approx(
        brute_band_sum(lat16, -2.5, corner), rel=1e-13
    )
    assert report.lattice_value > 0.0
