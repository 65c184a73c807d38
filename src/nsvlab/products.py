"""Alias-free pointwise products of band-limited spectral fields.

Products are formed on a zero-padded lattice of at least 3n/2 points per
axis and are kept there.  When both factors are band-limited to
|k| <= k_unit * n/3, every product mode (content up to 2n/3 per axis) is
representable below the padded Nyquist (3n/4), so the result is the exact
complete convolution of the inputs: no aliasing, no truncation.  Inputs
with broader support raise :class:`AliasingError` rather than silently
returning a contaminated product.

:func:`to_grid` and :func:`from_grid` (defined in :mod:`nsvlab.fields`
and re-exported here) are the package's one transform pair.  Through it one
private kernel, ``_flux_divergence``, forms div(u (x) g) from half-layout
stacks ``(., n, n, n//2 + 1)`` for the solver's nonlinear term, :func:`advect`
and the inequality lab's trilinear and commutator forms.  :func:`multiply`
and :func:`advect` expand only their outputs to the full layout.  The padded
embed drops the inputs' Nyquist planes, which band-limited factors hold at
zero.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .fields import (
    Lattice,
    ScalarSpectralField,
    VelocityField,
    _embed,
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
    lat_pad, (a, b) = _padded((f, g))
    values = to_grid(a, lat_pad.n) * to_grid(b, lat_pad.n)
    return ScalarSpectralField(lat_pad, full_spectrum(from_grid(values, lat_pad.n), lat_pad.n))


def _flux_divergence(u: np.ndarray, gs, n_grid: int, lattice_out: Lattice) -> list[np.ndarray]:
    """div(u (x) g) for each half-layout stack g of gs, on lattice_out.

    u is a (3, n, n, n//2+1) stack and each g an (m, n, n, n//2+1) stack.
    The factors are sampled on an n_grid^3 grid (n, or :func:`padded_size`
    for exact products); each distinct product u_j g_i is transformed once,
    truncated to lattice_out (the n-point or the padded lattice), and
    component i of the result is sum_j d_j(u_j g_i).  For g = u the six
    symmetric products are shared.  For divergence-free u this is u . grad(g).
    """
    n_out = lattice_out.n
    kd = [half_spectrum(k) for k in lattice_out.k_deriv]
    u_grids = [to_grid(c, n_grid) for c in u]
    out = []
    for g in gs:
        g_grids = u_grids if g is u else [to_grid(c, n_grid) for c in g]
        fluxes = {}
        div = np.empty((len(g), n_out, n_out, n_out // 2 + 1), dtype=np.complex128)
        for i, g_i in enumerate(g_grids):
            total = np.zeros(div.shape[1:], dtype=np.complex128)
            for j, u_j in enumerate(u_grids):
                key = (min(i, j), max(i, j))
                flux = fluxes.pop(key) if key in fluxes else from_grid(u_j * g_i, n_out)
                if g is u and j > i:
                    fluxes[key] = flux  # u_i u_j again at (j, i)
                total += kd[j] * flux
            div[i] = 1j * total
        out.append(div)
    return out


def _padded(fields) -> tuple[Lattice, np.ndarray]:
    """The padded lattice of band-limited scalar fields, and the stack of
    their half-layout coefficients embedded in it."""
    for f in fields:
        require_band_limited(f)
    lat_pad = pad_lattice(fields[0].lattice)
    stack = [_embed(half_spectrum(f.coefficients), lat_pad.n, half=True) for f in fields]
    return lat_pad, np.stack(stack)


def advect(u: VelocityField, g):
    """Transport term u . grad(g), exact, on the padded lattice.

    Formed as div(u (x) g), which equals u . grad(g) because u is
    divergence-free, as :class:`VelocityField` requires.  For a scalar g
    returns a ScalarSpectralField; for a VelocityField returns a tuple of
    three scalar fields (the transported components are not
    divergence-free, so they are not wrapped as a velocity).
    """
    scalar = isinstance(g, ScalarSpectralField)
    if not (scalar or isinstance(g, VelocityField)):
        raise TypeError(f"expected a spectral field, got {type(g).__name__}")
    if g.lattice != u.lattice:
        raise ValueError("fields live on different lattices")
    lat_pad, u_pad = _padded(u.components)
    g_pad = u_pad if g is u else _padded((g,) if scalar else g.components)[1]
    [div] = _flux_divergence(u_pad, [g_pad], lat_pad.n, lat_pad)
    out = tuple(ScalarSpectralField(lat_pad, c) for c in full_spectrum(div, lat_pad.n))
    return out[0] if scalar else out
