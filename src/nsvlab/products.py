"""Alias-free pointwise products of band-limited spectral fields.

Products are formed on a zero-padded lattice of at least 3n/2 points per
axis and are kept there.  When both factors are band-limited to
|k| <= k_unit * n/3, every product mode (content up to 2n/3 per axis) is
representable below the padded Nyquist (3n/4), so the result is the exact
complete convolution of the inputs: no aliasing, no truncation.  Inputs
with broader support raise :class:`AliasingError` rather than silently
returning a contaminated product.

:func:`to_grid` and :func:`from_grid` (defined in :mod:`nsvlab.fields`
and re-exported here) are the package's one transform pair; products run on
the half layout ``(n, n, n//2 + 1)`` through it and expand only their
outputs to the full layout.  The padded embed drops the inputs' Nyquist
planes, which band-limited factors hold at zero.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .fields import (
    Lattice,
    ScalarSpectralField,
    VelocityField,
    embed_coefficients,
    from_grid,
    full_spectrum,
    half_spectrum,
    restrict_coefficients,
    support_radius,
    to_grid,
)

__all__ = [
    "AliasingError",
    "padded_size",
    "pad_lattice",
    "exactness_limit",
    "require_band_limited",
    "embed_coefficients",
    "restrict_coefficients",
    "to_grid",
    "from_grid",
    "multiply",
    "advect",
]


class AliasingError(ValueError):
    """A product was requested for fields too broad for exact convolution."""


def padded_size(n: int) -> int:
    """Smallest even padded size >= 3n/2."""
    m = (3 * n + 1) // 2
    return m + (m % 2)


@lru_cache(maxsize=None)
def pad_lattice(lattice: Lattice) -> Lattice:
    """The padded lattice of ``lattice``, shared so its cached grids are built once."""
    return Lattice(padded_size(lattice.n), lattice.period)


def exactness_limit(lattice: Lattice) -> float:
    """Largest support radius for which padded products are exact."""
    return lattice.k_unit * (lattice.n / 3.0)


def require_band_limited(f, limit: float | None = None) -> None:
    lat = f.lattice if isinstance(f, (ScalarSpectralField, VelocityField)) else None
    if lat is None:
        raise TypeError(f"expected a spectral field, got {type(f).__name__}")
    if limit is None:
        limit = exactness_limit(lat)
    radius = support_radius(f)
    if radius > limit * (1.0 + 1e-12):
        raise AliasingError(
            f"field support |k| <= {radius:.6g} exceeds the exact-product "
            f"limit {limit:.6g}; band-limit the input first"
        )


def multiply(f: ScalarSpectralField, g: ScalarSpectralField) -> ScalarSpectralField:
    """Exact product f*g, returned on the padded lattice."""
    if f.lattice != g.lattice:
        raise ValueError("factors live on different lattices")
    require_band_limited(f)
    require_band_limited(g)
    lat_pad = pad_lattice(f.lattice)
    n_pad = lat_pad.n
    values = to_grid(half_spectrum(f.coefficients), n_pad) * to_grid(
        half_spectrum(g.coefficients), n_pad
    )
    return ScalarSpectralField(lat_pad, full_spectrum(from_grid(values, n_pad), n_pad))


def _velocity_grids(u: VelocityField) -> list[np.ndarray]:
    """u's components sampled on the padded grid, the transport velocity."""
    require_band_limited(u)
    n_pad = pad_lattice(u.lattice).n
    return [to_grid(half_spectrum(c.coefficients), n_pad) for c in u.components]


def _transport(u_grids: list[np.ndarray], scalar: ScalarSpectralField, lat: Lattice):
    """u . grad(scalar) on the padded lattice, u given by its padded grids."""
    if scalar.lattice != lat:
        raise ValueError("fields live on different lattices")
    require_band_limited(scalar)
    lat_pad = pad_lattice(lat)
    n_pad = lat_pad.n
    c = half_spectrum(scalar.coefficients)
    total = np.zeros((n_pad,) * 3)
    for u_j, kd in zip(u_grids, lat.k_deriv):
        total += u_j * to_grid(1j * half_spectrum(kd) * c, n_pad)
    return ScalarSpectralField(lat_pad, full_spectrum(from_grid(total, n_pad), n_pad))


def advect(u: VelocityField, g):
    """Transport term u . grad(g), exact, on the padded lattice.

    For a scalar g returns a ScalarSpectralField; for a VelocityField
    returns a tuple of three scalar fields (the transported components are
    not divergence-free, so they are not wrapped as a velocity).
    """
    u_grids = _velocity_grids(u)
    if isinstance(g, ScalarSpectralField):
        return _transport(u_grids, g, u.lattice)
    if isinstance(g, VelocityField):
        return tuple(_transport(u_grids, c, u.lattice) for c in g.components)
    raise TypeError(f"expected a spectral field, got {type(g).__name__}")
