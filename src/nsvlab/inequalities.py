"""Verifiers for coefficient-norm inequalities between the tracked norms.

Every check returns an :class:`InequalityVerdict` carrying both sides of
the inequality and the constant mode used:

* ``lattice``  - constants are evaluated as exact sums over the actual
  lattice band, so Cauchy-Schwarz steps are sharp and verdicts must hold
  to roundoff.  This is the gating mode.
* ``continuum`` - constants come from the closed-form radial integrals;
  verdicts track how faithfully the lattice reproduces them.
* ``empirical`` - the bound shape is evaluated with constant 1 and the
  ratio IS the measured constant; such verdicts never gate, they only
  require the ratio to be finite.

The X-norms sum |k|^sigma |c_k| over components, so for an m-component
field a Cauchy-Schwarz step runs over the joint (mode, component) index
set and its exact weight constant is sqrt(m) times the scalar band
constant.  Lattice mode includes that multiplicity (it must, to be exact
on velocity fields); continuum mode keeps the literal scalar radial
constants it is tracking.  Pointwise bounds (|k| <= R steps) hold term by
term and never pick up the factor.

Shell convention: a boundary shell |k| = R belongs to the band below R.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .fields import (
    Lattice,
    ScalarSpectralField,
    VelocityField,
    random_band_limited,
)
from .norms import _power_sums, _radial_weight, _shell_fsum, _shell_sums
from .norms import band_constant, l2_norm, leilin_norm, sobolev_norm
from .products import _transport, _velocity_grids, advect, embed_coefficients, pad_lattice
from .products import require_band_limited

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

SQRT_2PI = math.sqrt(2.0 * math.pi)
SQRT_PI = math.sqrt(math.pi)


def _check_mode(constant_mode: str) -> None:
    if constant_mode not in CONSTANT_MODES:
        raise ValueError(
            f"constant_mode must be one of {CONSTANT_MODES}, got {constant_mode!r}"
        )


def _cs_multiplicity(f) -> float:
    """sqrt(#components): joint-index Cauchy-Schwarz weight multiplicity."""
    return math.sqrt(3.0) if isinstance(f, VelocityField) else 1.0


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


def check_x0_interpolation(f, tolerance: float = DEFAULT_TOLERANCE) -> InequalityVerdict:
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
        constant_mode="lattice",
        tolerance=tolerance,
        details={"xm1": xm1, "x1": x1},
    )


def check_x0_via_xm1_h52(
    f, constant_mode: str = "lattice", tolerance: float = DEFAULT_TOLERANCE
) -> InequalityVerdict:
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
        return InequalityVerdict(
            "x0_via_xm1_h52", x0, 0.0, constant_mode, tolerance, {"radius": None}
        )
    radius = math.sqrt(h52 / xm1)
    if constant_mode == "lattice":
        tail = _cs_multiplicity(f) * band_constant(f.lattice, -2.5, beta=radius).lattice_value
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
    return InequalityVerdict("x0_via_xm1_h52", x0, rhs, constant_mode, tolerance, details)


def check_x0_via_h12_x1(
    f, constant_mode: str = "lattice", tolerance: float = DEFAULT_TOLERANCE
) -> InequalityVerdict:
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
        return InequalityVerdict(
            "x0_via_h12_x1", x0, 0.0, constant_mode, tolerance, {"radius": None}
        )
    radius = math.sqrt(x1 / h12)
    if constant_mode == "lattice":
        low_const = _cs_multiplicity(f) * band_constant(f.lattice, -0.5, alpha=radius).lattice_value
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
    return InequalityVerdict("x0_via_h12_x1", x0, rhs, constant_mode, tolerance, details)


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
    tolerance: float = DEFAULT_TOLERANCE

    @property
    def partition_defect(self) -> float:
        total = self.i_alpha + self.j_alpha_beta + self.k_beta
        return abs(total - self.x1) / max(self.x1, 1e-300)

    def verdicts(self) -> list[InequalityVerdict]:
        common = {
            "alpha": self.alpha,
            "beta": self.beta,
            "variant": self.variant,
        }
        out = [
            InequalityVerdict(
                "split_x1_low", self.i_alpha, self.bound_i, self.constant_mode,
                self.tolerance, dict(common),
            ),
            InequalityVerdict(
                "split_x1_mid", self.j_alpha_beta, self.bound_j, self.constant_mode,
                self.tolerance, dict(common),
            ),
            InequalityVerdict(
                "split_x1_high", self.k_beta, self.bound_k, self.constant_mode,
                self.tolerance, dict(common),
            ),
            InequalityVerdict(
                "split_x1_partition",
                self.partition_defect,
                1e-12,
                "lattice",
                0.0,
                dict(common),
            ),
        ]
        return out

    @property
    def holds(self) -> bool:
        return all(v.holds for v in self.verdicts())


def split_x1(
    f,
    alpha: float,
    beta: float,
    variant: str = "L2",
    constant_mode: str = "lattice",
    tolerance: float = DEFAULT_TOLERANCE,
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
    radius = lat.shells[1]
    moduli = _power_sums(f, 1.0)
    weight = _radial_weight(radius, 1.0)
    i_alpha = _shell_fsum(moduli, np.where(radius <= alpha, weight, 0.0))
    j_ab = _shell_fsum(moduli, np.where((radius > alpha) & (radius <= beta), weight, 0.0))
    k_beta = _shell_fsum(moduli, np.where(radius > beta, weight, 0.0))
    x1 = _shell_fsum(moduli, weight)

    lattice_mode = constant_mode == "lattice"
    mult = _cs_multiplicity(f) if lattice_mode else 1.0
    if variant == "L2":
        bc_i = band_constant(lat, 1.0, alpha=alpha)
        bound_i = mult * (bc_i.lattice_value if lattice_mode else bc_i.continuum_value) * l2_norm(f)
    elif variant == "H1/2":
        bc_i = band_constant(lat, 0.5, alpha=alpha)
        bound_i = (
            mult
            * (bc_i.lattice_value if lattice_mode else bc_i.continuum_value)
            * sobolev_norm(f, 0.5)
        )
    else:  # Xm1: pointwise |k| <= alpha, |k|^2 / |k| step; constant exactly 1
        bound_i = alpha**2 * leilin_norm(f, -1.0)

    bc_j = band_constant(lat, -1.5, alpha=alpha, beta=beta)
    bc_k = band_constant(lat, -2.5, beta=beta)
    bound_j = (
        mult * (bc_j.lattice_value if lattice_mode else bc_j.continuum_value) * sobolev_norm(f, 2.5)
    )
    bound_k = (
        mult * (bc_k.lattice_value if lattice_mode else bc_k.continuum_value) * sobolev_norm(f, 3.5)
    )

    return SplitReport(
        alpha=float(alpha),
        beta=float(beta),
        variant=variant,
        constant_mode=constant_mode,
        i_alpha=i_alpha,
        j_alpha_beta=j_ab,
        k_beta=k_beta,
        x1=x1,
        bound_i=bound_i,
        bound_j=bound_j,
        bound_k=bound_k,
        tolerance=tolerance,
    )


# ---------------------------------------------------------------------------
# Commutator and trilinear forms (exact padded products throughout)


def _fractional_laplacian_arrays(stack, lattice: Lattice, s: float):
    """|D|^s on coefficient arrays; the k = 0 mode is annihilated."""
    mult = lattice.kmag**s if s != 0.0 else np.ones(lattice.shape)
    mult = mult.copy()
    mult[0, 0, 0] = 0.0
    return [mult * arr for arr in stack]


def _fractional_velocity(f: VelocityField, s: float) -> VelocityField:
    lat = f.lattice
    arrays = _fractional_laplacian_arrays([c.coefficients for c in f.components], lat, s)
    return VelocityField(tuple(ScalarSpectralField(lat, a) for a in arrays))


def _padded_pairing(a_arrays, b_arrays, lat_pad: Lattice, weight) -> float:
    """sum_k weight(|k|) Re(a_k conj(b_k)), weight given per |k| shell.

    Terms are summed per shell, then across shells with compensated
    summation, like the norms.
    """
    terms = [np.real(a * np.conj(b)) for a, b in zip(a_arrays, b_arrays)]
    return _shell_fsum(_shell_sums(lat_pad, terms), weight)


def _commutator(transported, second, lat_pad: Lattice, s: float) -> float:
    first = _fractional_laplacian_arrays([c.coefficients for c in transported], lat_pad, s)
    diff = [np.abs(a - b.coefficients) ** 2 for a, b in zip(first, second)]
    return math.sqrt(_shell_fsum(_shell_sums(lat_pad, diff), 1.0))


def _trilinear(transported, f: VelocityField, lat_pad: Lattice, s: float) -> float:
    f_pad = [embed_coefficients(c.coefficients, lat_pad.n) for c in f.components]
    weight = _radial_weight(lat_pad.shells[1], 2.0 * s)
    return _padded_pairing([c.coefficients for c in transported], f_pad, lat_pad, weight)


def _cancellation(transported, g: VelocityField, lat_pad: Lattice) -> float:
    g_pad = [embed_coefficients(c.coefficients, lat_pad.n) for c in g.components]
    return _padded_pairing([c.coefficients for c in transported], g_pad, lat_pad, 1.0)


def _check_commutator_order(s: float) -> None:
    if s < 0:
        raise ValueError(f"commutator order must be >= 0, got {s}")


def commutator_l2(f: VelocityField, s: float) -> float:
    """|| |D|^s (f.grad f) - f.grad(|D|^s f) ||_L2, exact on the padded lattice.

    Vanishes identically at s = 0.  Inputs must be band-limited to the
    exact-product radius (n/3 modes); otherwise AliasingError propagates.
    """
    _check_commutator_order(s)
    second = advect(f, _fractional_velocity(f, s))
    return _commutator(advect(f, f), second, pad_lattice(f.lattice), s)


def trilinear_hs(f: VelocityField, s: float) -> float:
    """<f.grad f, f>_Hdot(s), signed, exact on the padded lattice."""
    return _trilinear(advect(f, f), f, pad_lattice(f.lattice), s)


def advection_cancellation(f: VelocityField, s: float) -> float:
    """<f.grad(|D|^s f), |D|^s f>_L2; zero analytically for div-free f."""
    g = _fractional_velocity(f, s)
    return _cancellation(advect(f, g), g, pad_lattice(f.lattice))


def commutator_report(f: VelocityField, s: float) -> dict[str, float]:
    """Side-by-side commutator and trilinear diagnostics at order s.

    Reports both normalizations in circulation for the trilinear bound:
    ``statement_constant`` = |T| / (X1 * Hs^2) and ``commutator_constant``
    = ||commutator|| / (X1 * Hs), together with the derivable chain
    |T| <= ||commutator|| * Hs (``commutator_bound_ratio`` <= 1).  Each
    padded product is formed once and shared by the three diagnostics,
    which equal :func:`trilinear_hs`, :func:`commutator_l2` and
    :func:`advection_cancellation` bit for bit.
    """
    hs = sobolev_norm(f, s)
    x1 = leilin_norm(f, 1.0)
    lat = f.lattice
    lat_pad = pad_lattice(lat)
    f_grids = _velocity_grids(f)
    transported = tuple(_transport(f_grids, c, lat) for c in f.components)
    tri = _trilinear(transported, f, lat_pad, s)
    _check_commutator_order(s)
    g = _fractional_velocity(f, s)
    second = tuple(_transport(f_grids, c, lat) for c in g.components)
    comm = _commutator(transported, second, lat_pad, s)
    cancel = _cancellation(second, g, lat_pad)
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


def check_h32_trilinear(f: VelocityField, tolerance: float = DEFAULT_TOLERANCE) -> InequalityVerdict:
    """|<f.grad f, f>_H3/2| against ||f||_H3/2^2 ||f||_H5/2; always empirical.

    The ratio is the measured constant; the verdict only requires it to be
    finite.  Refining the lattice must not move the ratio: products are
    exact, so embedding the same field in a finer lattice changes nothing.
    """
    tri = abs(trilinear_hs(f, 1.5))
    h32 = sobolev_norm(f, 1.5)
    h52 = sobolev_norm(f, 2.5)
    return InequalityVerdict(
        name="h32_trilinear",
        lhs=tri,
        rhs=h32**2 * h52,
        constant_mode="empirical",
        tolerance=tolerance,
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
    """Yield the corpus in index order (deterministic for a fixed config)."""
    kmax = config.resolved_kmax(lattice)
    for i in range(config.size):
        seed = config.base_seed + i
        decay = config.decays[i % len(config.decays)]
        yield CorpusField(
            index=i,
            seed=seed,
            decay=decay,
            field=random_band_limited(lattice, config.kmin, kmax, decay, seed),
        )


REGISTERED_CHECKS = {
    "x0_interpolation": lambda f, mode, **kw: check_x0_interpolation(f),
    "x0_via_xm1_h52": lambda f, mode, **kw: check_x0_via_xm1_h52(f, mode),
    "x0_via_h12_x1": lambda f, mode, **kw: check_x0_via_h12_x1(f, mode),
    "h32_trilinear": lambda f, mode, **kw: check_h32_trilinear(f),
}


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
    **check_kwargs,
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
    ratios = []
    best_field = None
    best_ratio = -math.inf
    for entry in corpus_fields(lattice, config):
        r = check(entry.field, constant_mode, **check_kwargs).ratio
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
        r = check(trial, constant_mode, **check_kwargs).ratio
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
