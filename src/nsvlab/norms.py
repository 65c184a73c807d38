"""Norms of spectral fields and radial band constants.

All norms are series-coefficient norms:

    ||f||_L2        = sqrt( sum_k |c_k|^2 )            (zero mode included)
    ||f||_Hdot(s)   = sqrt( sum_{k != 0} |k|^(2s) |c_k|^2 )
    ||f||_X(sigma)  = sum_{k != 0} |k|^sigma |c_k|

Vector fields sum over components.  One pass over a field's half-layout
stack ``(m, n, n, n//2 + 1)`` adds up |c_k|^2 and |c_k| over every |k|
shell, per component; each norm then weights those shell sums and adds
them across shells and components with compensated summation
(math.fsum).  A field's shell sums are computed on
first use and reused by every norm and check that reads the field, which
is valid because its coefficients are read-only.  Results are
deterministic, independent of memory layout, and within 1e-14 relative of
the per-mode compensated sum.  The shell sums count each mode with its
Hermitian multiplicity (1 on the m_3 = 0 and Nyquist planes, 2
elsewhere).  Orders below -1 are outside the library's conventions and
are rejected: with a nonzero mean those sums diverge, and the
verification suite never needs them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .fields import Lattice, _check_mean, _spectral

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


def _moments(f):
    """The field's cached shell moments."""
    return _spectral(f)._moments


def _checked_order(f, order: float, name: str) -> float:
    """Validate a norm order; a negative order also needs a zero-mean field."""
    order = float(order)
    if not math.isfinite(order) or order < -1.0:
        raise ValueError(f"{name} must be finite and >= -1, got {order}")
    if order < 0:
        _check_mean(f, f"norm of order {order}")
    return order


def _shell_fsum(sums, weight) -> float:
    """Compensated sum over shells x components of weight * shell sums."""
    return math.fsum((np.asarray(sums) * weight).ravel().tolist())


def _radial_weight(radius: np.ndarray, exponent: float) -> np.ndarray:
    """|k|^exponent per shell, 0 on the zero shell."""
    weight = np.zeros_like(radius)
    weight[1:] = radius[1:] ** exponent
    return weight


def _l2(moments) -> float:
    return math.sqrt(_shell_fsum(moments.squares, 1.0))


def _sobolev(radius: np.ndarray, moments, s: float) -> float:
    return math.sqrt(_shell_fsum(moments.squares, _radial_weight(radius, 2.0 * s)))


def _leilin(radius: np.ndarray, moments, sigma: float) -> float:
    return _shell_fsum(moments.moduli, _radial_weight(radius, sigma))


def l2_norm(f) -> float:
    """Coefficient l2 norm including the zero mode."""
    return _l2(_moments(f))


def sobolev_norm(f, s: float) -> float:
    """Homogeneous Sobolev norm of order s >= -1."""
    moments = _moments(f)
    radius = f.lattice._half.shells[1]
    return _sobolev(radius, moments, _checked_order(f, s, "Sobolev order"))


def leilin_norm(f, sigma: float) -> float:
    """Summed-coefficient norm sum |k|^sigma |c_k|, sigma >= -1."""
    moments = _moments(f)
    return _leilin(f.lattice._half.shells[1], moments, _checked_order(f, sigma, "order"))


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


def full_report(f) -> NormReport:
    """Evaluate every tracked norm of one field from its shell moments: the
    Sobolev orders :data:`DEFAULT_SOBOLEV_ORDERS` and the X orders
    :data:`DEFAULT_LEILIN_ORDERS`."""
    moments = _moments(f)
    leilin_orders = [_checked_order(f, sig, "order") for sig in DEFAULT_LEILIN_ORDERS]
    radius = f.lattice._half.shells[1]
    return NormReport(
        l2=_l2(moments),
        hdot={s: _sobolev(radius, moments, s) for s in DEFAULT_SOBOLEV_ORDERS},
        leilin={sig: _leilin(radius, moments, sig) for sig in leilin_orders},
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
    radius = lattice._half.shells[1]
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
    counts = lattice._shell_counts[keep]
    lattice_value = math.sqrt(_shell_fsum([counts], radius[keep] ** (2.0 * a)))
    return BandConstant(
        exponent=a,
        alpha=alpha,
        beta=beta,
        band=band,
        lattice_value=lattice_value,
        continuum_value=continuum,
    )
