import math

import numpy as np
import pytest
import scipy.fft
from scipy.signal import convolve

from nsvlab.fields import (
    Lattice,
    ScalarSpectralField,
    VelocityField,
    leray_project,
    random_band_limited,
    taylor_green,
)
from nsvlab.inequalities import (
    CONSTANT_MODES,
    CorpusConfig,
    advection_cancellation,
    check_h32_trilinear,
    check_x0_interpolation,
    check_x0_via_h12_x1,
    check_x0_via_xm1_h52,
    commutator_l2,
    commutator_report,
    corpus_fields,
    equality_probe,
    split_x1,
    trilinear_hs,
)
from nsvlab.norms import band_constant, full_report, leilin_norm, sobolev_norm
from nsvlab.products import AliasingError, advect, embed_coefficients, pad_lattice


def shell_velocity(lattice, modes_amplitudes):
    """Divergence-free field with prescribed +/-m coefficient magnitudes."""
    c1 = lattice.zeros()
    for m, amp in modes_amplitudes:
        # polarization along an axis orthogonal to m keeps it solenoidal
        c1[lattice.mode_index(*m)] = amp
        c1[lattice.mode_index(*(-x for x in m))] = amp
    zero = ScalarSpectralField(lattice, lattice.zeros())
    return VelocityField((zero, zero, ScalarSpectralField(lattice, c1)))


SMALL_CORPUS = CorpusConfig(size=12)


@pytest.fixture(scope="module")
def corpus16(lat16):
    return list(corpus_fields(lat16, SMALL_CORPUS))


# ---------------------------------------------------------------------------
# Shell sums against a per-mode compensated-sum oracle


def oracle_weight(lattice, exponent, band=True):
    """|k|^exponent on the nonzero modes inside ``band``, 0 elsewhere."""
    keep = (lattice.kmag > 0) & band
    weight = np.zeros(lattice.shape)
    weight[keep] = lattice.kmag[keep] ** exponent
    return weight


def oracle_sum(terms, weight):
    """One math.fsum over every (mode, component) product weight * term."""
    return math.fsum(x for t in terms for x in (weight * t).ravel().tolist())


def test_shell_sums_match_per_mode_oracle(corpus16):
    odd = Lattice(16, period=3.0)
    fields = [entry.field for entry in corpus16]
    fields.append(random_band_limited(odd, odd.k_unit, 4.0 * odd.k_unit, 1.5, seed=7))
    for u in fields:
        lat = u.lattice
        km = lat.kmag
        mags = [np.abs(c.coefficients) for c in u.components]
        squares = [m**2 for m in mags]
        report = full_report(u)
        assert report.l2 == pytest.approx(math.sqrt(oracle_sum(squares, 1.0)), rel=1e-14)
        for s, value in report.hdot.items():
            expected = math.sqrt(oracle_sum(squares, oracle_weight(lat, 2.0 * s)))
            assert value == pytest.approx(expected, rel=1e-14), s
        for sigma, value in report.leilin.items():
            expected = oracle_sum(mags, oracle_weight(lat, sigma))
            assert value == pytest.approx(expected, rel=1e-14), sigma

        alpha, beta = 2.0 * lat.k_unit, 5.0 * lat.k_unit
        split = split_x1(u, alpha, beta)
        bands = (km <= alpha, (km > alpha) & (km <= beta), km > beta)
        for value, band in zip((split.i_alpha, split.j_alpha_beta, split.k_beta), bands):
            expected = oracle_sum(mags, oracle_weight(lat, 1.0, band))
            assert value == pytest.approx(expected, rel=1e-14)

        ones = [np.ones(lat.shape)]
        for exponent, bounds, band in zip(
            (1.0, -1.5, -2.5),
            ({"alpha": alpha}, {"alpha": alpha, "beta": beta}, {"beta": beta}),
            bands,
        ):
            expected = math.sqrt(oracle_sum(ones, oracle_weight(lat, 2.0 * exponent, band)))
            value = band_constant(lat, exponent, **bounds).lattice_value
            assert value == pytest.approx(expected, rel=1e-14), exponent

    lat8 = Lattice(8)
    lat_pad = pad_lattice(lat8)
    for seed in (41, 42):
        u = random_band_limited(lat8, 1.0, 8.0 / 3.0, 1.0, seed=seed)
        transported = [c.coefficients for c in advect(u, u)]
        u_pad = [embed_coefficients(c.coefficients, lat_pad.n) for c in u.components]
        for s in (1.5, 2.5):
            hs, x1 = sobolev_norm(u, s), leilin_norm(u, 1.0)
            terms = [np.real(a * np.conj(b)) for a, b in zip(transported, u_pad)]
            expected = oracle_sum(terms, oracle_weight(lat_pad, 2.0 * s))
            assert abs(trilinear_hs(u, s) - expected) <= 1e-12 * hs**2 * x1

            ds_u = VelocityField(
                tuple(
                    ScalarSpectralField(lat8, oracle_weight(lat8, s) * c.coefficients)
                    for c in u.components
                )
            )
            second = [c.coefficients for c in advect(u, ds_u)]
            diff = [
                np.abs(oracle_weight(lat_pad, s) * a - b) ** 2
                for a, b in zip(transported, second)
            ]
            expected = math.sqrt(oracle_sum(diff, 1.0))
            assert abs(commutator_l2(u, s) - expected) <= 1e-12 * hs * x1


# ---------------------------------------------------------------------------
# Interpolation x0 <= sqrt(x-1 * x1)


def test_interpolation_single_mode_equality(lat16):
    u = shell_velocity(lat16, [((2, 1, 0), 0.3)])
    verdict = check_x0_interpolation(u)
    assert verdict.holds
    assert verdict.ratio == pytest.approx(1.0, abs=1e-12)


def test_interpolation_two_shell_hand_value(lat16):
    # equal x0 mass at |k|=1 and |k|=2: x0=2c, x-1=c(1+1/2), x1=c(1+2)
    # ratio = 2 / sqrt(1.5 * 3) = 0.942809...
    c = 0.25
    u = shell_velocity(lat16, [((1, 0, 0), c), ((2, 0, 0), c)])
    verdict = check_x0_interpolation(u)
    expected = 2.0 / math.sqrt(1.5 * 3.0)
    assert verdict.ratio == pytest.approx(expected, rel=1e-13)
    assert verdict.holds


def test_interpolation_on_corpus(corpus16):
    for entry in corpus16:
        verdict = check_x0_interpolation(entry.field)
        assert verdict.holds, f"seed {entry.seed}"
        assert verdict.ratio <= 1.0 + 1e-10


def test_interpolation_is_scale_invariant(corpus16):
    u = corpus16[0].field
    r1 = check_x0_interpolation(u).ratio
    r2 = check_x0_interpolation(u * 100.0).ratio
    assert r2 == pytest.approx(r1, rel=1e-12)


# ---------------------------------------------------------------------------
# x0 via xm1 + h52 (optimized radius, tail constant)


def test_x0_via_xm1_h52_modes(corpus16):
    for entry in corpus16[:6]:
        for mode in CONSTANT_MODES:
            verdict = check_x0_via_xm1_h52(entry.field, mode)
            assert verdict.holds, (entry.seed, mode)
    verdict = check_x0_via_xm1_h52(corpus16[0].field, "lattice")
    assert verdict.details["radius"] > 0
    # the claimed closed-form tail constant undershoots the true integral
    assert "tail" in " ".join(verdict.details).lower() or verdict.details


def test_x0_via_xm1_h52_flags_tail_discrepancy(corpus16):
    verdict = check_x0_via_xm1_h52(corpus16[0].field, "continuum")
    claimed = verdict.details["claimed_tail_constant"]
    radius = verdict.details["radius"]
    assert claimed == pytest.approx(math.sqrt(math.pi) / radius, rel=1e-12)
    # true tail integral of 4 pi r^-3 from R is 2 pi / R^2, giving sqrt(2 pi)/R
    assert verdict.details["tail_constant"] == pytest.approx(
        math.sqrt(2.0 * math.pi) / radius, rel=1e-12
    )
    assert verdict.details["tail_constant"] > claimed


def test_x0_via_xm1_h52_empirical_ratio_is_constant(corpus16):
    u = corpus16[0].field
    verdict = check_x0_via_xm1_h52(u, "empirical")
    x0 = leilin_norm(u, 0.0)
    xm1 = leilin_norm(u, -1.0)
    h52 = sobolev_norm(u, 2.5)
    assert verdict.rhs == pytest.approx(math.sqrt(xm1 * h52), rel=1e-13)
    assert verdict.ratio == pytest.approx(x0 / math.sqrt(xm1 * h52), rel=1e-13)
    assert verdict.details["implied_c1"] == pytest.approx(verdict.ratio, rel=1e-12)


def test_x0_via_xm1_h52_zero_field(lat16):
    zero = ScalarSpectralField(lat16, lat16.zeros())
    u = VelocityField((zero, zero, zero))
    verdict = check_x0_via_xm1_h52(u, "lattice")
    assert verdict.holds
    assert verdict.details["radius"] is None


# ---------------------------------------------------------------------------
# x0 via h12 + x1


def test_x0_via_h12_x1_modes(corpus16):
    for entry in corpus16[:6]:
        for mode in CONSTANT_MODES:
            verdict = check_x0_via_h12_x1(entry.field, mode)
            assert verdict.holds, (entry.seed, mode)


def test_x0_via_h12_x1_continuum_constant(corpus16):
    verdict = check_x0_via_h12_x1(corpus16[0].field, "continuum")
    radius = verdict.details["radius"]
    assert verdict.details["low_constant"] == pytest.approx(
        math.sqrt(2.0 * math.pi) * radius, rel=1e-12
    )


# ---------------------------------------------------------------------------
# Three-band split of x1


@pytest.mark.parametrize("variant", ["L2", "H1/2", "Xm1"])
def test_split_bounds_hold_on_corpus(corpus16, variant):
    for entry in corpus16[:8]:
        report = split_x1(entry.field, 1.0, 4.0, variant=variant)
        assert report.holds, (entry.seed, variant)
        assert report.partition_defect < 1e-12


def test_split_partition_is_exact(corpus16):
    for entry in corpus16:
        for alpha, beta in ((1.0, 4.0), (2.0, 5.0)):
            report = split_x1(entry.field, alpha, beta)
            assert report.partition_defect < 1e-15


def test_split_taylor_green_mid_band(lat16):
    # TG lives on the |k| = sqrt(3) shell: with alpha < sqrt(3) <= beta the
    # whole norm 2*sqrt(3) lands in J and I = K = 0
    tg = taylor_green(lat16)
    report = split_x1(tg, 1.0, 4.0)
    assert report.i_alpha == 0.0
    assert report.k_beta == 0.0
    assert report.j_alpha_beta == pytest.approx(2.0 * math.sqrt(3.0), rel=1e-14)


def test_split_xm1_variant_tight_on_boundary_shell(lat16):
    # single shell exactly at |k| = alpha: I = alpha^2 * x-1 with no slack
    u = shell_velocity(lat16, [((2, 0, 0), 0.4)])
    report = split_x1(u, 2.0, 5.0, variant="Xm1")
    verdict = report.verdicts()[0]
    assert verdict.ratio == pytest.approx(1.0, abs=1e-13)
    assert report.holds


def test_split_validates_radii(lat16, corpus16):
    u = corpus16[0].field
    with pytest.raises(ValueError):
        split_x1(u, 4.0, 2.0)
    with pytest.raises(ValueError):
        split_x1(u, 0.0, 4.0)
    with pytest.raises(ValueError):
        split_x1(u, 1.0, 100.0)
    with pytest.raises(ValueError):
        split_x1(u, 1.0, 4.0, variant="H1")


def test_split_boundary_mode_assignment(lat16):
    # |k| = alpha contributes to I; |k| = beta contributes to J
    u = shell_velocity(lat16, [((2, 0, 0), 0.5), ((4, 0, 0), 0.25)])
    report = split_x1(u, 2.0, 4.0)
    assert report.i_alpha == pytest.approx(2.0 * 2.0 * 0.5, rel=1e-14)
    assert report.j_alpha_beta == pytest.approx(2.0 * 4.0 * 0.25, rel=1e-14)
    assert report.k_beta == 0.0


def test_vector_cauchy_schwarz_needs_component_multiplicity(lat16):
    # each |k|=2 axis mode splits its polarization equally over the two
    # transverse components; over a band holding only that shell this gives
    # J = sqrt(2) * (scalar band constant) * h52, so a per-mode constant
    # without the component multiplicity would be violated
    amp = 0.5 / math.sqrt(2.0)
    arrays = [lat16.zeros() for _ in range(3)]
    for axis in range(3):
        for sign in (2, -2):
            m = [0, 0, 0]
            m[axis] = sign
            for other in range(3):
                if other != axis:
                    arrays[other][lat16.mode_index(*m)] = amp
    u = VelocityField(tuple(ScalarSpectralField(lat16, a) for a in arrays))
    assert u.divergence_defect() == 0.0
    report = split_x1(u, 1.9, 2.0, variant="L2")
    assert report.i_alpha == 0.0 and report.k_beta == 0.0
    scalar_bound = report.bound_j / math.sqrt(3.0)
    assert report.j_alpha_beta > scalar_bound * (1.0 + 1e-6)
    assert report.j_alpha_beta <= report.bound_j * (1.0 + 1e-12)
    # achieved ratio is exactly sqrt(2/3): two of three components active
    ratio = report.j_alpha_beta / report.bound_j
    assert ratio == pytest.approx(math.sqrt(2.0 / 3.0), rel=1e-12)


# ---------------------------------------------------------------------------
# Commutator and trilinear pairing


def brute_commutator_l2(u: VelocityField, s: float) -> float:
    """Direct-convolution evaluation of || |D|^s(u.grad u) - u.grad(|D|^s u) ||_L2."""
    lat = u.lattice
    n = lat.n
    center = 2 * (n // 2)
    span = 2 * n - 1

    def centered(c):
        return np.fft.fftshift(c)

    def mode_mag(shape_center, size):
        m = np.arange(size) - shape_center
        mx, my, mz = np.meshgrid(m, m, m, indexing="ij")
        return np.sqrt((mx**2 + my**2 + mz**2).astype(float)) * lat.k_unit

    def grad_centered(c):
        m = np.arange(n) - n // 2
        out = []
        for axis in range(3):
            shape = [1, 1, 1]
            shape[axis] = n
            k_axis = (m * lat.k_unit).reshape(shape)
            out.append(1j * k_axis * c)
        return out

    mags_full = mode_mag(center, span)
    weight_full = np.where(mags_full > 0, mags_full**s, 0.0)

    cu = [centered(c.coefficients) for c in u.components]
    mags_small = mode_mag(n // 2, n)
    weight_small = np.where(mags_small > 0, mags_small**s, 0.0)

    total = 0.0
    for i in range(3):
        grads_u = grad_centered(cu[i])
        term1 = np.zeros((span,) * 3, dtype=np.complex128)
        for j in range(3):
            term1 += convolve(cu[j], grads_u[j], mode="full", method="direct")
        term1 *= weight_full

        grads_du = grad_centered(weight_small * cu[i])
        term2 = np.zeros_like(term1)
        for j in range(3):
            term2 += convolve(cu[j], grads_du[j], mode="full", method="direct")
        total += float(np.sum(np.abs(term1 - term2) ** 2))
    return math.sqrt(total)


def test_commutator_matches_brute_force(lat8):
    for seed in (41, 42):
        u = random_band_limited(lat8, 1.0, 8.0 / 3.0, 1.0, seed=seed)
        for s in (1.5, 2.5):
            fast = commutator_l2(u, s)
            slow = brute_commutator_l2(u, s)
            assert fast == pytest.approx(slow, rel=1e-10), (seed, s)


def test_commutator_vanishes_at_s_zero(lat16, random16):
    value = commutator_l2(random16, 0.0)
    scale = sobolev_norm(random16, 1.0) ** 2
    assert value < 1e-12 * scale


def test_cancellation_and_chain(lat16):
    for seed in (50, 51, 52):
        u = random_band_limited(lat16, 1.0, 4.0, 1.5, seed=seed)
        for s in (0.0, 1.5, 2.5):
            report = commutator_report(u, s)
            assert abs(report["cancellation_relative"]) < 1e-10
            tri = abs(report["trilinear"])
            # at s=0 both sides vanish identically; allow rounding noise
            # at the natural hs^2 * x1 scale of the pairing
            floor = 1e-12 * report["hs"] ** 2 * report["x1"]
            assert tri <= report["commutator"] * report["hs"] * (1.0 + 1e-10) + floor


def test_commutator_report_forms_each_product_once(lat16, monkeypatch):
    u = random_band_limited(lat16, 1.0, 4.0, 1.5, seed=53)
    for s in (0.0, 1.5, 2.5):
        report = commutator_report(u, s)
        assert report["trilinear"] == trilinear_hs(u, s)
        assert report["commutator"] == commutator_l2(u, s)
        assert report["cancellation"] == advection_cancellation(u, s)
    calls = {"irfftn": 0, "rfftn": 0}
    for name in calls:
        original = getattr(scipy.fft, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(scipy.fft, name, counted)
    commutator_report(u, 1.5)
    # f on the grid (3), then grad f and grad |D|^s f (9 + 9), one per product (3 + 3)
    assert calls == {"irfftn": 21, "rfftn": 6}


def test_trilinear_single_mode_vanishes(lat16):
    u = shell_velocity(lat16, [((1, 2, 0), 0.5)])
    assert trilinear_hs(u, 1.5) == pytest.approx(0.0, abs=1e-16)


def test_taylor_green_trilinear_vanishes(lat16):
    tg = taylor_green(lat16)
    hs = sobolev_norm(tg, 1.5)
    x1 = leilin_norm(tg, 1.0)
    assert abs(trilinear_hs(tg, 1.5)) < 1e-14 * hs**2 * x1
    assert abs(advection_cancellation(tg, 1.5)) < 1e-14 * hs**2 * x1


def test_commutator_rejects_wide_fields(lat16):
    wide = random_band_limited(lat16, 1.0, 6.5, 1.0, seed=60)
    with pytest.raises(AliasingError):
        commutator_l2(wide, 1.5)


def test_h32_trilinear_shape(lat16, random16):
    verdict = check_h32_trilinear(random16)
    assert verdict.constant_mode == "empirical"
    h32 = sobolev_norm(random16, 1.5)
    h52 = sobolev_norm(random16, 2.5)
    assert verdict.rhs == pytest.approx(h32**2 * h52, rel=1e-13)
    assert verdict.lhs == pytest.approx(abs(trilinear_hs(random16, 1.5)), rel=1e-13)
    assert verdict.holds


# ---------------------------------------------------------------------------
# Corpus and probing


def test_corpus_is_deterministic(lat16):
    a = list(corpus_fields(lat16, SMALL_CORPUS))
    b = list(corpus_fields(lat16, SMALL_CORPUS))
    assert [e.seed for e in a] == [e.seed for e in b]
    assert np.array_equal(
        a[3].field.components[0].coefficients, b[3].field.components[0].coefficients
    )
    decays = {e.decay for e in a}
    assert decays == {1.0, 2.0, 3.0}


def test_equality_probe_approaches_one(lat16):
    result = equality_probe("x0_interpolation", lat16,
                            corpus=CorpusConfig(size=8), climb_steps=10)
    assert result.best_ratio <= 1.0 + 1e-10
    assert result.best_ratio >= result.start_ratio - 1e-15
    assert result.best_ratio > 0.8
