"""Alias-free pointwise products of band-limited spectral fields.

Products are formed on a zero-padded lattice of at least 3n/2 points per
axis and are kept there.  When both factors are band-limited to
|k| <= k_unit * n/3, every product mode (content up to 2n/3 per axis) is
representable below the padded Nyquist (3n/4), so the result is the exact
complete convolution of the inputs: no aliasing, no truncation.  Inputs
with broader support raise :class:`AliasingError` rather than silently
returning a contaminated product.

:func:`to_grid` and :func:`from_grid` are the package's one transform pair
between fft-layout coefficients and grid samples; the solver's dealiased
nonlinear term (:mod:`nsvlab.sim`) is built on it too, under both rules.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

import numpy as np

from .fields import (
    Lattice,
    ScalarSpectralField,
    VelocityField,
    gradient,
    support_radius,
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


def _corner_blocks(n_small: int, n_big: int):
    """(small, big) index pairs of the 8 corner blocks holding the shared modes."""
    h = (n_small + 1) // 2  # labels 0..h-1 lead each axis; the negative ones trail
    axis = ((slice(0, h), slice(0, h)), (slice(h, n_small), slice(n_big - n_small + h, n_big)))
    for pairs in itertools.product(axis, repeat=3):
        yield tuple(zip(*pairs))


def embed_coefficients(c: np.ndarray, n_pad: int) -> np.ndarray:
    """Embed fft-layout coefficients into a larger lattice (zero padding)."""
    n = c.shape[0]
    if n_pad < n:
        raise ValueError(f"cannot embed n={n} into smaller n_pad={n_pad}")
    out = np.zeros((n_pad,) * 3, dtype=np.complex128)
    for small, big in _corner_blocks(n, n_pad):
        out[big] = c[small]
    return out


def restrict_coefficients(c: np.ndarray, n_small: int) -> np.ndarray:
    """Crop fft-layout coefficients to a smaller lattice (mode truncation)."""
    n = c.shape[0]
    if n_small > n:
        raise ValueError(f"cannot restrict n={n} to larger n_small={n_small}")
    out = np.empty((n_small,) * 3, dtype=c.dtype)
    for small, big in _corner_blocks(n_small, n):
        out[small] = c[big]
    return out


def to_grid(c: np.ndarray, n_grid: int) -> np.ndarray:
    """Real grid samples of fft-layout coefficients, zero-padded to n_grid^3."""
    if n_grid != c.shape[0]:
        c = embed_coefficients(c, n_grid)
    return np.real(np.fft.ifftn(c)) * float(n_grid**3)


def from_grid(values: np.ndarray, n_out: int) -> np.ndarray:
    """Fft-layout coefficients of grid samples, truncated to n_out^3 modes."""
    n_grid = values.shape[0]
    c = np.fft.fftn(values)
    if n_out != n_grid:
        c = restrict_coefficients(c, n_out)
    return c / float(n_grid**3)


def multiply(f: ScalarSpectralField, g: ScalarSpectralField) -> ScalarSpectralField:
    """Exact product f*g, returned on the padded lattice."""
    if f.lattice != g.lattice:
        raise ValueError("factors live on different lattices")
    require_band_limited(f)
    require_band_limited(g)
    lat_pad = pad_lattice(f.lattice)
    n_pad = lat_pad.n
    values = to_grid(f.coefficients, n_pad) * to_grid(g.coefficients, n_pad)
    return ScalarSpectralField(lat_pad, from_grid(values, n_pad))


def advect(u: VelocityField, g):
    """Transport term u . grad(g), exact, on the padded lattice.

    For a scalar g returns a ScalarSpectralField; for a VelocityField
    returns a tuple of three scalar fields (the transported components are
    not divergence-free, so they are not wrapped as a velocity).
    """
    lat = u.lattice
    require_band_limited(u)
    lat_pad = pad_lattice(lat)
    n_pad = lat_pad.n
    u_phys = [to_grid(c.coefficients, n_pad) for c in u.components]

    def one(scalar: ScalarSpectralField) -> ScalarSpectralField:
        if scalar.lattice != lat:
            raise ValueError("fields live on different lattices")
        require_band_limited(scalar)
        total = np.zeros((n_pad,) * 3)
        for j, dg in enumerate(gradient(scalar)):
            total += u_phys[j] * to_grid(dg.coefficients, n_pad)
        return ScalarSpectralField(lat_pad, from_grid(total, n_pad))

    if isinstance(g, ScalarSpectralField):
        return one(g)
    if isinstance(g, VelocityField):
        return tuple(one(c) for c in g.components)
    raise TypeError(f"expected a spectral field, got {type(g).__name__}")
