"""Verifiers for coefficient-norm inequalities between the tracked norms.

Every check returns an :class:`InequalityVerdict` carrying both sides of
the inequality and the constant mode it reports.  A verdict in
``lattice`` or ``continuum`` mode holds when lhs <= rhs up to
``DEFAULT_TOLERANCE``; one in ``empirical`` mode only requires a finite
ratio and never gates.  What each check does with the requested mode:

* ``x0_interpolation`` has constant 1 in every mode and always reports
  ``lattice``.
* ``x0_via_xm1_h52`` and ``x0_via_h12_x1`` bound with the exact lattice
  band constant (``lattice``) or the closed-form radial integral
  (``continuum``); in ``empirical`` mode the right side is the bare
  product of the two norms, so the ratio is the implied constant.
* ``split_x1`` bounds each band with the lattice or the continuum band
  constant; ``empirical`` mode uses the continuum constants and does not
  gate.  Its partition verdict always gates, in ``lattice`` mode at
  tolerance 0.
* ``h32_trilinear`` always reports ``empirical``: its ratio is the
  measured constant.

The X-norms sum |k|^sigma |c_k| over components, so for an m-component
field a Cauchy-Schwarz step runs over the joint (mode, component) index
set and its exact weight constant is sqrt(m) times the scalar band
constant.  Lattice mode includes that multiplicity (it must, to be exact
on velocity fields); continuum mode keeps the literal scalar radial
constants it is tracking.  ``_cs_constant`` is that one rule.  Pointwise
bounds (|k| <= R steps) hold term by term and never pick up the factor.

Shell convention: a boundary shell |k| = R belongs to the band below R.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from functools import partial

import numpy as np

from .fields import Lattice, VelocityField, _resized, _shell_sums, random_band_limited
from .norms import _moments, _radial_weight, _shell_fsum
from .norms import band_constant, l2_norm, leilin_norm, sobolev_norm
from .products import _behind, _flux_divergence, _padded

__all__ = [
    "CONSTANT_MODES",
    "DEFAULT_TOLERANCE",
    "InequalityVerdict",
    "SplitReport",
    "check_x0_interpolation",
    "check_x0_via_xm1_h52",
    "check_x0_via_h12_x1",
    "I_VARIANTS",
    "split_x1",
    "commutator_l2",
    "trilinear_hs",
    "advection_cancellation",
    "commutator_report",
    "check_h32_trilinear",
    "CorpusConfig",
    "CorpusField",
    "corpus_fields",
    "REGISTERED_CHECKS",
    "ProbeResult",
    "equality_probe",
]

CONSTANT_MODES = ("lattice", "continuum", "empirical")
DEFAULT_TOLERANCE = 1e-10

# the checks whose verdicts report one constant mode whatever mode is
# requested; every other check reports the requested mode
_FIXED_MODES = {"x0_interpolation": "lattice", "h32_trilinear": "empirical"}

SQRT_2PI = math.sqrt(2.0 * math.pi)
SQRT_PI = math.sqrt(math.pi)


def _check_mode(constant_mode: str) -> None:
    if constant_mode not in CONSTANT_MODES:
        raise ValueError(
            f"constant_mode must be one of {CONSTANT_MODES}, got {constant_mode!r}"
        )


def _cs_multiplicity(f) -> float:
    """sqrt(#components): joint-index Cauchy-Schwarz weight multiplicity."""
    return math.sqrt(len(f._stack))


def _cs_constant(f, constant_mode: str, exponent: float, alpha=None, beta=None) -> float:
    """The Cauchy-Schwarz constant of a band of f: the lattice sum times the
    component multiplicity in lattice mode, else the continuum integral."""
    report = band_constant(f.lattice, exponent, alpha=alpha, beta=beta)
    if constant_mode == "lattice":
        return _cs_multiplicity(f) * report.lattice_value
    return report.continuum_value


@dataclass(frozen=True)
class InequalityVerdict:
    """Outcome of one inequality evaluation on one field."""

    name: str
    lhs: float
    rhs: float
    constant_mode: str
    tolerance: float = DEFAULT_TOLERANCE
    details: dict = dc_field(default_factory=dict)

    @property
    def ratio(self) -> float:
        if self.lhs == 0.0:
            return 0.0
        if self.rhs == 0.0:
            return math.inf
        return self.lhs / self.rhs

    @property
    def holds(self) -> bool:
        if self.constant_mode == "empirical":
            return math.isfinite(self.ratio)
        return self.ratio <= 1.0 + self.tolerance


def check_x0_interpolation(f) -> InequalityVerdict:
    """||f||_X0 <= sqrt(||f||_Xm1 ||f||_X1); constant 1 in every mode.

    Cauchy-Schwarz between the +-1 weights; sharp exactly on single-shell
    fields.
    """
    x0 = leilin_norm(f, 0.0)
    xm1 = leilin_norm(f, -1.0)
    x1 = leilin_norm(f, 1.0)
    return InequalityVerdict(
        name="x0_interpolation",
        lhs=x0,
        rhs=math.sqrt(xm1 * x1),
        constant_mode=_FIXED_MODES["x0_interpolation"],
        details={"xm1": xm1, "x1": x1},
    )


def check_x0_via_xm1_h52(f, constant_mode: str = "lattice") -> InequalityVerdict:
    """||f||_X0 <= R ||f||_Xm1 + tail(R) ||f||_H5/2 at R = sqrt(H5/2 / Xm1).

    The low band uses the pointwise bound |k| <= R (constant 1 in every
    mode); the tail constant is Cauchy-Schwarz with weight |k|^-5.  In
    continuum mode the tail integral gives sqrt(2*pi)/R; the claimed
    sqrt(pi)/R is reported alongside and flagged, since
    int_{|xi|>R} |xi|^-5 dxi = 2*pi/R^2.
    """
    _check_mode(constant_mode)
    x0 = leilin_norm(f, 0.0)
    xm1 = leilin_norm(f, -1.0)
    h52 = sobolev_norm(f, 2.5)
    if xm1 == 0.0 or h52 == 0.0:
        return InequalityVerdict("x0_via_xm1_h52", x0, 0.0, constant_mode, details={"radius": None})
    radius = math.sqrt(h52 / xm1)
    if constant_mode == "lattice":
        tail = _cs_constant(f, constant_mode, -2.5, beta=radius)
    else:
        tail = SQRT_2PI / radius
    low_bound = radius * xm1
    high_bound = tail * h52
    rhs = low_bound + high_bound
    details = {
        "radius": radius,
        "low_bound": low_bound,
        "high_bound": high_bound,
        "tail_constant": tail,
        "claimed_tail_constant": SQRT_PI / radius,
        "tail_constant_flag": (
            "tail integral is 2*pi/R^2, so the Cauchy-Schwarz tail constant is "
            "sqrt(2*pi)/R, not sqrt(pi)/R"
        ),
        "implied_c1": x0 / math.sqrt(xm1 * h52),
    }
    if constant_mode == "empirical":
        rhs = math.sqrt(xm1 * h52)
    return InequalityVerdict("x0_via_xm1_h52", x0, rhs, constant_mode, details=details)


def check_x0_via_h12_x1(f, constant_mode: str = "lattice") -> InequalityVerdict:
    """||f||_X0 <= low(R) ||f||_H1/2 + ||f||_X1 / R at R = sqrt(X1 / H1/2).

    The high band is pointwise |k|^-1 <= 1/R (constant 1); the low band is
    Cauchy-Schwarz with weight |k|^-1, whose continuum constant is
    sqrt(2*pi) R.
    """
    _check_mode(constant_mode)
    x0 = leilin_norm(f, 0.0)
    h12 = sobolev_norm(f, 0.5)
    x1 = leilin_norm(f, 1.0)
    if h12 == 0.0 or x1 == 0.0:
        return InequalityVerdict("x0_via_h12_x1", x0, 0.0, constant_mode, details={"radius": None})
    radius = math.sqrt(x1 / h12)
    if constant_mode == "lattice":
        low_const = _cs_constant(f, constant_mode, -0.5, alpha=radius)
    else:
        low_const = SQRT_2PI * radius
    low_bound = low_const * h12
    high_bound = x1 / radius
    rhs = low_bound + high_bound
    details = {
        "radius": radius,
        "low_bound": low_bound,
        "high_bound": high_bound,
        "low_constant": low_const,
        "implied_c2": x0 / math.sqrt(h12 * x1),
    }
    if constant_mode == "empirical":
        rhs = math.sqrt(h12 * x1)
    return InequalityVerdict("x0_via_h12_x1", x0, rhs, constant_mode, details=details)


I_VARIANTS = ("L2", "H1/2", "Xm1")


@dataclass(frozen=True)
class SplitReport:
    """Three-band split of ||f||_X1 at radii alpha < beta with band bounds.

    I (|k| <= alpha) is bounded by one of three routes selected by
    ``variant``: "L2" via the a=1 band constant, "H1/2" via the a=1/2 band
    constant, or "Xm1" via the pointwise alpha^2 bound (constant exactly
    1).  J uses the a=-3/2 constant against H5/2; K uses the a=-5/2
    constant against H7/2.  I + J + K reproduces ||f||_X1 exactly.
    """

    alpha: float
    beta: float
    variant: str
    constant_mode: str
    i_alpha: float
    j_alpha_beta: float
    k_beta: float
    x1: float
    bound_i: float
    bound_j: float
    bound_k: float

    @property
    def partition_defect(self) -> float:
        total = self.i_alpha + self.j_alpha_beta + self.k_beta
        return abs(total - self.x1) / max(self.x1, 1e-300)

    def verdicts(self) -> list[InequalityVerdict]:
        common = {"alpha": self.alpha, "beta": self.beta, "variant": self.variant}
        bands = (("low", self.i_alpha, self.bound_i), ("mid", self.j_alpha_beta, self.bound_j),
                 ("high", self.k_beta, self.bound_k))
        return [
            InequalityVerdict(f"split_x1_{suffix}", lhs, bound, self.constant_mode,
                              details=dict(common))
            for suffix, lhs, bound in bands
        ] + [InequalityVerdict(
            "split_x1_partition", self.partition_defect, 1e-12, "lattice", 0.0, dict(common)
        )]

    @property
    def holds(self) -> bool:
        return all(v.holds for v in self.verdicts())


def split_x1(
    f, alpha: float, beta: float, variant: str = "L2", constant_mode: str = "lattice"
) -> SplitReport:
    """Split ||f||_X1 over (0, alpha], (alpha, beta], (beta, inf)."""
    _check_mode(constant_mode)
    if variant not in I_VARIANTS:
        raise ValueError(f"variant must be one of {I_VARIANTS}, got {variant!r}")
    lat = f.lattice
    if not (0.0 < alpha < beta):
        raise ValueError(f"need 0 < alpha < beta, got ({alpha}, {beta})")
    if beta > lat.nyquist:
        raise ValueError(f"beta {beta} exceeds the lattice Nyquist {lat.nyquist}")
    radius = lat._half.shells[1]
    moduli = _moments(f).moduli
    weight = _radial_weight(radius, 1.0)
    bands = (radius <= alpha, (radius > alpha) & (radius <= beta), radius > beta)
    i_alpha, j_ab, k_beta = (_shell_fsum(moduli, np.where(band, weight, 0.0)) for band in bands)

    if variant == "Xm1":  # pointwise |k| <= alpha, |k|^2 / |k| step; constant exactly 1
        bound_i = alpha**2 * leilin_norm(f, -1.0)
    else:  # Cauchy-Schwarz against L2 (a = 1) or H1/2 (a = 1/2)
        exponent, norm = (1.0, l2_norm(f)) if variant == "L2" else (0.5, sobolev_norm(f, 0.5))
        bound_i = _cs_constant(f, constant_mode, exponent, alpha=alpha) * norm
    bound_j = _cs_constant(f, constant_mode, -1.5, alpha=alpha, beta=beta) * sobolev_norm(f, 2.5)
    bound_k = _cs_constant(f, constant_mode, -2.5, beta=beta) * sobolev_norm(f, 3.5)

    return SplitReport(
        alpha=float(alpha),
        beta=float(beta),
        variant=variant,
        constant_mode=constant_mode,
        i_alpha=i_alpha,
        j_alpha_beta=j_ab,
        k_beta=k_beta,
        x1=_shell_fsum(moduli, weight),
        bound_i=bound_i,
        bound_j=bound_j,
        bound_k=bound_k,
    )


# ---------------------------------------------------------------------------
# Commutator and trilinear forms (exact products throughout)


def _fractional_laplacian(stack: np.ndarray, lattice: Lattice, s: float) -> np.ndarray:
    """|D|^s on a half-layout stack; the k = 0 mode is annihilated."""
    mult = lattice._half.kmag ** s
    mult[0, 0, 0] = 0.0
    return mult * stack


def _padded_pairing(a: np.ndarray, b: np.ndarray, lat: Lattice, exponent: float) -> float:
    """sum_{k != 0} |k|^exponent Re(a_k conj(b_k)) over half-layout stacks on lat.

    Terms are summed per shell, then across shells with compensated
    summation, like the norms.  Only modes where b is nonzero contribute,
    so any lattice holding the exact product and b gives the same sum up to
    the order of its terms.
    """
    terms = np.real(a * np.conj(b))
    return _shell_fsum(_shell_sums(lat, terms), _radial_weight(lat._half.shells[1], exponent))


def _commutator(transported, second, lat: Lattice, s: float) -> float:
    diff = np.abs(_fractional_laplacian(transported, lat, s) - second) ** 2
    return math.sqrt(_shell_fsum(_shell_sums(lat, diff), 1.0))


def _commutator_products(f: VelocityField, s: float):
    """The support and product lattices, f and g = |D|^s f on the support
    lattice, and div(f (x) f) and div(f (x) g) on the product lattice."""
    if s < 0:
        raise ValueError(f"commutator order must be >= 0, got {s}")
    support, product, [f_sup] = _padded((f,))
    g_sup = _fractional_laplacian(f_sup, support, s)
    transported, second = _flux_divergence(f_sup, [f_sup, g_sup], product.n, product)
    return support, product, f_sup, g_sup, transported, second


def commutator_l2(f: VelocityField, s: float) -> float:
    """|| |D|^s (f.grad f) - f.grad(|D|^s f) ||_L2, exact on the product lattice.

    Vanishes identically at s = 0.  Inputs must be band-limited to the
    exact-product radius (n/3 modes); otherwise AliasingError propagates.
    """
    _, product, _, _, transported, second = _commutator_products(f, s)
    return _commutator(transported, second, product, s)


def trilinear_hs(f: VelocityField, s: float) -> float:
    """<f.grad f, f>_Hdot(s), signed, exact: the product is formed on the
    product lattice and kept only on f's support lattice, where it meets f."""
    support, product, [f_sup] = _padded((f,))
    [transported] = _flux_divergence(f_sup, [f_sup], product.n, support)
    return _padded_pairing(transported, f_sup, support, 2.0 * s)


def advection_cancellation(f: VelocityField, s: float) -> float:
    """<f.grad(|D|^s f), |D|^s f>_L2; zero analytically for div-free f."""
    support, product, [f_sup] = _padded((f,))
    g_sup = _fractional_laplacian(f_sup, support, s)
    [second] = _flux_divergence(f_sup, [g_sup], product.n, support)
    return _padded_pairing(second, g_sup, support, 0.0)


def commutator_report(f: VelocityField, s: float) -> dict[str, float]:
    """Side-by-side commutator and trilinear diagnostics at order s.

    Reports both normalizations in circulation for the trilinear bound:
    ``statement_constant`` = |T| / (X1 * Hs^2) and ``commutator_constant``
    = ||commutator|| / (X1 * Hs), together with the derivable chain
    |T| <= ||commutator|| * Hs (``commutator_bound_ratio`` <= 1).  Each
    exact product is formed once and shared by the three diagnostics,
    which equal :func:`trilinear_hs`, :func:`commutator_l2` and
    :func:`advection_cancellation` bit for bit.
    """
    hs = sobolev_norm(f, s)
    x1 = leilin_norm(f, 1.0)
    support, product, f_sup, g_sup, transported, second = _commutator_products(f, s)
    tri = _padded_pairing(_resized(transported, support.n, half=True), f_sup, support, 2.0 * s)
    comm = _commutator(transported, second, product, s)
    cancel = _padded_pairing(_resized(second, support.n, half=True), g_sup, support, 0.0)
    tiny = 1e-300
    return {
        "s": s,
        "hs": hs,
        "x1": x1,
        "trilinear": tri,
        "commutator": comm,
        "cancellation": cancel,
        "cancellation_relative": abs(cancel) / max(hs * hs * x1, tiny),
        "commutator_bound_ratio": abs(tri) / max(comm * hs, tiny),
        "statement_constant": abs(tri) / max(x1 * hs * hs, tiny),
        "commutator_constant": comm / max(x1 * hs, tiny),
    }


def check_h32_trilinear(f: VelocityField) -> InequalityVerdict:
    """|<f.grad f, f>_H3/2| against ||f||_H3/2^2 ||f||_H5/2; always empirical.

    The ratio is the measured constant; the verdict only requires it to be
    finite.  Refining the lattice does not move the verdict, bit for bit:
    the same field embedded in a finer lattice has the same norms, and its
    products start from the same support-lattice stack and run on the same
    grid, because both are sized by the field's support alone (whenever the
    3n/2 cap of the coarser lattice does not bind).  The pairing reads the
    product only on the support lattice, where the field is nonzero.
    """
    tri = abs(trilinear_hs(f, 1.5))
    h32 = sobolev_norm(f, 1.5)
    h52 = sobolev_norm(f, 2.5)
    return InequalityVerdict(
        name="h32_trilinear",
        lhs=tri,
        rhs=h32**2 * h52,
        constant_mode=_FIXED_MODES["h32_trilinear"],
        details={"h32": h32, "h52": h52},
    )


# ---------------------------------------------------------------------------
# Corpus and equality probing


@dataclass(frozen=True)
class CorpusConfig:
    """Deterministic random-field corpus: seeds are base_seed + index."""

    size: int = 100
    kmin: float = 1.0
    kmax: float | None = None  # default: k_unit * n/4
    decays: tuple[float, ...] = (1.0, 2.0, 3.0)
    base_seed: int = 2024

    def __post_init__(self) -> None:
        if not self.decays:
            raise ValueError(f"a corpus needs a spectral decay, got decays={self.decays!r}")

    def resolved_kmax(self, lattice: Lattice) -> float:
        if self.kmax is not None:
            return self.kmax
        return lattice.k_unit * (lattice.n // 4)


@dataclass(frozen=True)
class CorpusField:
    index: int
    seed: int
    decay: float
    field: VelocityField


def corpus_fields(lattice: Lattice, config: CorpusConfig = CorpusConfig()):
    """Yield the corpus in index order (deterministic for a fixed config).

    Field 0 is drawn here; once field i has come back, draw i + 1 is queued
    :func:`_behind` the worker while the caller holds field i, and the
    caller draws it if the worker has not started it (on one CPU it is
    drawn at once).  A draw is a pure function of its seed, so the fields
    do not depend on the thread, and an error in a draw comes out where
    that field is asked for.
    """
    kmax = config.resolved_kmax(lattice)

    def draw(i: int) -> CorpusField:
        seed = config.base_seed + i
        decay = config.decays[i % len(config.decays)]
        return CorpusField(
            index=i,
            seed=seed,
            decay=decay,
            field=random_band_limited(lattice, config.kmin, kmax, decay, seed),
        )

    pending = None
    try:
        for i in range(config.size):
            field = draw(i) if pending is None else pending()
            if i + 1 < config.size:
                pending = _behind(partial(draw, i + 1))
            yield field
    finally:
        if pending is not None:
            pending.cancel()


REGISTERED_CHECKS = {
    "x0_interpolation": lambda f, mode: check_x0_interpolation(f),
    "x0_via_xm1_h52": lambda f, mode: check_x0_via_xm1_h52(f, mode),
    "x0_via_h12_x1": lambda f, mode: check_x0_via_h12_x1(f, mode),
    "h32_trilinear": lambda f, mode: check_h32_trilinear(f),
}


def _split_pairs(lattice: Lattice) -> list[tuple[float, float]]:
    ny = lattice.nyquist
    return [(ny / 16.0, ny / 4.0), (ny / 8.0, ny / 2.0), (ny / 4.0, 0.75 * ny)]


def _split_runs(lattice: Lattice):
    def run(alpha, beta):
        return lambda f, mode: split_x1(f, alpha, beta, constant_mode=mode).verdicts()

    return [(f"alpha={a:g} beta={b:g}", run(a, b)) for a, b in _split_pairs(lattice)]


# check name -> lattice -> the runs `verify` makes with it on each field, as
# (note, run(f, mode) -> verdicts) pairs; a field it rejects gets one
# `_rejected_verdict` per run.  Checks are looked up by their global names at
# call time.
_VERIFY_RUNS = {
    **{name: lambda lattice, name=name: [("", lambda f, mode: [REGISTERED_CHECKS[name](f, mode)])]
       for name in REGISTERED_CHECKS},
    "split_x1": _split_runs,
}


def _rejected_verdict(name: str, constant_mode: str) -> InequalityVerdict:
    """The NaN verdict of one run of check ``name`` on a field `verify`
    rejects, in the constant mode the check's own verdicts report."""
    return InequalityVerdict(name, math.nan, math.nan, _FIXED_MODES.get(name, constant_mode))


@dataclass(frozen=True)
class ProbeResult:
    name: str
    best_ratio: float
    start_ratio: float
    witness: VelocityField
    corpus_ratios: tuple[float, ...]


def equality_probe(
    name: str,
    lattice: Lattice,
    constant_mode: str = "lattice",
    corpus: CorpusConfig | None = None,
    climb_steps: int = 24,
    climb_seed: int = 7_000,
) -> ProbeResult:
    """Search for near-extremal fields of a registered inequality.

    Scans the corpus for the largest verdict ratio, then hill-climbs from
    the best entry with random divergence-free perturbations confined to
    the corpus band (so every trial stays a valid input).
    """
    if name not in REGISTERED_CHECKS:
        raise ValueError(f"unknown inequality {name!r}; known: {sorted(REGISTERED_CHECKS)}")
    check = REGISTERED_CHECKS[name]
    config = corpus or CorpusConfig(size=20)
    if config.size < 1:
        raise ValueError(f"equality_probe needs a nonempty corpus, got corpus size {config.size}")
    ratios = []
    best_field = None
    best_ratio = -math.inf
    for entry in corpus_fields(lattice, config):
        r = check(entry.field, constant_mode).ratio
        ratios.append(r)
        if r > best_ratio:
            best_ratio, best_field = r, entry.field
    start_ratio = best_ratio
    kmax = config.resolved_kmax(lattice)
    witness = best_field
    scale = 0.5
    for j in range(climb_steps):
        bump = random_band_limited(lattice, config.kmin, kmax, 1.0, climb_seed + j)
        size = witness.max_abs_coefficient() / max(bump.max_abs_coefficient(), 1e-300)
        trial = witness + (scale * size) * bump
        r = check(trial, constant_mode).ratio
        if r > best_ratio:
            best_ratio, witness = r, trial
        else:
            scale *= 0.7
    return ProbeResult(
        name=name,
        best_ratio=best_ratio,
        start_ratio=start_ratio,
        witness=witness,
        corpus_ratios=tuple(ratios),
    )
