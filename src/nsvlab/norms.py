"""Norms of spectral fields and radial band constants.

All norms are series-coefficient norms:

    ||f||_L2        = sqrt( sum_k |c_k|^2 )            (zero mode included)
    ||f||_Hdot(s)   = sqrt( sum_{k != 0} |k|^(2s) |c_k|^2 )
    ||f||_X(sigma)  = sum_{k != 0} |k|^sigma |c_k|

Vector fields sum over components.  Each sum first adds up the terms of
every |k| shell (``Lattice.shells``), then weights the shell sums and adds
them across shells and components with compensated summation
(math.fsum).  Results are deterministic, independent of memory layout,
and within 1e-14 relative of the per-mode compensated sum.  Orders below
-1 are outside the library's conventions and are rejected: with a nonzero
mean those sums diverge, and the verification suite never needs them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .fields import (
    MEAN_TOLERANCE,
    Lattice,
    NonzeroMeanError,
    ScalarSpectralField,
    VelocityField,
)

__all__ = [
    "DEFAULT_SOBOLEV_ORDERS",
    "DEFAULT_LEILIN_ORDERS",
    "NormReport",
    "l2_norm",
    "sobolev_norm",
    "leilin_norm",
    "full_report",
    "BandConstant",
    "band_constant",
]

DEFAULT_SOBOLEV_ORDERS = (0.5, 1.0, 1.5, 2.5, 3.5)
DEFAULT_LEILIN_ORDERS = (-1.0, 0.0, 1.0)

FOUR_PI = 4.0 * math.pi


def _components(f) -> list[np.ndarray]:
    if isinstance(f, VelocityField):
        return [c.coefficients for c in f.components]
    if isinstance(f, ScalarSpectralField):
        return [f.coefficients]
    raise TypeError(f"expected a spectral field, got {type(f).__name__}")


def _checked_order(f, order: float, name: str) -> float:
    """Validate a norm order; a negative order also needs a zero-mean field."""
    order = float(order)
    if not math.isfinite(order) or order < -1.0:
        raise ValueError(f"{name} must be finite and >= -1, got {order}")
    if order < 0:
        arrays = _components(f)
        scale = max(float(np.abs(a).max()) for a in arrays)
        mean = max(abs(complex(a[0, 0, 0])) for a in arrays)
        if mean > MEAN_TOLERANCE * max(scale, 1e-300):
            raise NonzeroMeanError(
                f"norm of order {order} requires a zero-mean field (|c_0| = {mean:.3e})"
            )
    return order


def _shell_sums(lattice: Lattice, terms) -> list[np.ndarray]:
    """Per component, the sum of its per-mode terms over each |k| shell."""
    index = lattice.shells[0]
    return [np.bincount(index, np.ravel(t)) for t in terms]


def _shell_fsum(sums: list[np.ndarray], weight) -> float:
    """Compensated sum over shells x components of weight * shell sums."""
    return math.fsum(x for s in sums for x in (weight * s).tolist())


def _radial_weight(radius: np.ndarray, exponent: float) -> np.ndarray:
    """|k|^exponent per shell, 0 on the zero shell."""
    weight = np.zeros_like(radius)
    weight[1:] = radius[1:] ** exponent
    return weight


def _power_sums(f, p: float) -> list[np.ndarray]:
    """Per component, sum of |c_k|^p over each |k| shell."""
    return _shell_sums(f.lattice, [np.abs(a) ** p for a in _components(f)])


def l2_norm(f) -> float:
    """Coefficient l2 norm including the zero mode."""
    return math.sqrt(_shell_fsum(_power_sums(f, 2.0), 1.0))


def sobolev_norm(f, s: float) -> float:
    """Homogeneous Sobolev norm of order s >= -1."""
    s = _checked_order(f, s, "Sobolev order")
    weight = _radial_weight(f.lattice.shells[1], 2.0 * s)
    return math.sqrt(_shell_fsum(_power_sums(f, 2.0), weight))


def leilin_norm(f, sigma: float) -> float:
    """Summed-coefficient norm sum |k|^sigma |c_k|, sigma >= -1."""
    sigma = _checked_order(f, sigma, "order")
    return _shell_fsum(_power_sums(f, 1.0), _radial_weight(f.lattice.shells[1], sigma))


def _order_key(prefix: str, order: float) -> str:
    return f"{prefix}{format(order, 'g')}"


@dataclass(frozen=True)
class NormReport:
    """All tracked norms of one field: l2 plus Sobolev and X families."""

    l2: float
    hdot: dict[float, float] = field(default_factory=dict)
    leilin: dict[float, float] = field(default_factory=dict)

    def to_record(self) -> dict[str, float]:
        """Flat record with stable keys: l2, h<s>..., x<sigma>..."""
        record = {"l2": self.l2}
        for s in sorted(self.hdot):
            record[_order_key("h", s)] = self.hdot[s]
        for sigma in sorted(self.leilin):
            record[_order_key("x", sigma)] = self.leilin[sigma]
        return record

    @staticmethod
    def from_record(record) -> "NormReport":
        l2 = None
        hdot: dict[float, float] = {}
        leilin: dict[float, float] = {}
        for key, value in record.items():
            value = float(value)
            if key == "l2":
                l2 = value
            elif key.startswith("h"):
                hdot[float(key[1:])] = value
            elif key.startswith("x"):
                leilin[float(key[1:])] = value
            else:
                raise ValueError(f"unrecognized norm key {key!r}")
        if l2 is None:
            raise ValueError("record is missing the 'l2' entry")
        return NormReport(l2=l2, hdot=hdot, leilin=leilin)


def full_report(
    f,
    sobolev_orders=DEFAULT_SOBOLEV_ORDERS,
    leilin_orders=DEFAULT_LEILIN_ORDERS,
) -> NormReport:
    """Evaluate every tracked norm of one field from one pass per power."""
    sobolev_orders = [_checked_order(f, s, "Sobolev order") for s in sobolev_orders]
    leilin_orders = [_checked_order(f, sig, "order") for sig in leilin_orders]
    radius = f.lattice.shells[1]
    squares = _power_sums(f, 2.0)
    moduli = _power_sums(f, 1.0)
    return NormReport(
        l2=math.sqrt(_shell_fsum(squares, 1.0)),
        hdot={
            s: math.sqrt(_shell_fsum(squares, _radial_weight(radius, 2.0 * s)))
            for s in sobolev_orders
        },
        leilin={sig: _shell_fsum(moduli, _radial_weight(radius, sig)) for sig in leilin_orders},
    )


@dataclass(frozen=True)
class BandConstant:
    """sqrt of a radial coefficient-weight sum over one wavenumber band.

    lattice_value sums |k|^(2a) over the actual lattice modes in the band;
    continuum_value is the closed-form integral sqrt(int 4*pi r^(2a+2) dr)
    over the same radii.  Band membership follows the shell convention:
    the boundary shell |k| = alpha belongs to the band below alpha.
    """

    exponent: float
    alpha: float | None
    beta: float | None
    band: str
    lattice_value: float
    continuum_value: float

    @property
    def ratio(self) -> float:
        """lattice_value / continuum_value; 0 signals an empty lattice band."""
        return self.lattice_value / self.continuum_value

    @property
    def empty(self) -> bool:
        return self.lattice_value == 0.0


def band_constant(
    lattice: Lattice,
    exponent: float,
    alpha: float | None = None,
    beta: float | None = None,
) -> BandConstant:
    """Band constant for {0<|k|<=alpha}, {alpha<|k|<=beta} or {|k|>beta}.

    Which bounds are given selects the band: alpha only -> low, both ->
    mid, beta only -> high.  Raises ValueError when the continuum integral
    for the requested band diverges or an input is not finite.  The
    high-band lattice sum runs over the finite lattice support above beta.
    """
    if not all(math.isfinite(float(x)) for x in (exponent, alpha, beta) if x is not None):
        raise ValueError(
            f"band needs a finite exponent and bounds, got ({exponent}, {alpha}, {beta})"
        )
    a = float(exponent)
    p = 2.0 * a + 3.0  # continuum integrand 4*pi r^(p-1)
    index, radius = lattice.shells
    if alpha is not None and beta is None:
        alpha = float(alpha)
        if not (alpha > 0):
            raise ValueError(f"low band needs alpha > 0, got {alpha}")
        if p <= 0:
            raise ValueError(
                f"low-band continuum integral diverges at the origin for exponent {a}"
            )
        mask = radius <= alpha
        continuum = math.sqrt(FOUR_PI * alpha**p / p)
        band = "low"
    elif alpha is not None and beta is not None:
        alpha, beta = float(alpha), float(beta)
        if not (0 < alpha < beta):
            raise ValueError(f"mid band needs 0 < alpha < beta, got ({alpha}, {beta})")
        mask = (radius > alpha) & (radius <= beta)
        if p == 0.0:
            continuum = math.sqrt(FOUR_PI * math.log(beta / alpha))
        else:
            continuum = math.sqrt(FOUR_PI * (beta**p - alpha**p) / p)
        band = "mid"
    elif beta is not None:
        beta = float(beta)
        if not (beta > 0):
            raise ValueError(f"high band needs beta > 0, got {beta}")
        if p >= 0:
            raise ValueError(
                f"high-band continuum integral diverges at infinity for exponent {a}"
            )
        mask = radius > beta
        continuum = math.sqrt(FOUR_PI * beta**p / (-p))
        band = "high"
    else:
        raise ValueError("band_constant needs alpha, beta, or both")
    keep = mask & (radius > 0)
    counts = np.bincount(index)[keep]
    lattice_value = math.sqrt(_shell_fsum([counts], radius[keep] ** (2.0 * a)))
    return BandConstant(
        exponent=a,
        alpha=alpha,
        beta=beta,
        band=band,
        lattice_value=lattice_value,
        continuum_value=continuum,
    )
