"""Alias-free pointwise products of band-limited spectral fields.

A product of factors whose nonzero coefficients have |m_i| <= K holds
modes |m_i| <= 2K, which an even grid of M >= 4K + 2 points per axis
represents below its Nyquist plane.  Every product here is formed on the
smallest such grid whose size is 5-smooth (a fast FFT length), never
larger than the 3n/2 padded grid of :func:`padded_size`: factors
band-limited to |k| <= k_unit * n/3 have content up to 2n/3 per axis,
below the padded Nyquist (3n/4).  The result is therefore the exact
complete convolution of the inputs: no aliasing, no truncation.  Inputs
with broader support raise :class:`AliasingError` rather than silently
returning a contaminated product.  :func:`multiply` and :func:`advect`
still return on :func:`pad_lattice`, into which the product embeds
exactly.

:func:`to_grid` and :func:`from_grid` (defined in :mod:`nsvlab.fields`
and re-exported here) are the package's one transform pair, ``numpy.fft``
passes one axis at a time.  Through it one
private kernel, ``_flux_divergence``, forms div(u (x) g) from half-layout
stacks ``(., n, n, n//2 + 1)`` for the solver's nonlinear term, :func:`advect`
and the inequality lab's trilinear and commutator forms, and
:func:`multiply` and :func:`advect` return its half-layout output as fields.
Each factor enters as its field's stack cropped to its support lattice, the
smallest that holds its nonzero labels below the Nyquist planes; the
transform pair embeds it on the product grid and truncates each product
back, touching only the lines that hold a label.  The kernel's transforms
are independent of each other; on two or more CPUs every second one is
queued on one worker thread, the caller takes back any the worker has not
started, and the results are summed in a fixed order, so the bytes do not
depend on the thread that formed them.
"""

from __future__ import annotations

from functools import lru_cache, partial

import numpy as np

from .fields import (
    Lattice,
    ScalarSpectralField,
    _embed,
    _grid_blocks,
    _product_coefficients,
    _restrict,
    _spectral,
    _support,
    embed_coefficients,
    from_grid,
    restrict_coefficients,
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


# one Lattice per (n, period), so the cached grids of a product lattice are built once
_shared_lattice = lru_cache(maxsize=None)(Lattice)


def pad_lattice(lattice: Lattice) -> Lattice:
    """The padded lattice of ``lattice``, shared so its cached grids are built once."""
    return _shared_lattice(padded_size(lattice.n), lattice.period)


def _fast_even_size(m: int) -> int:
    """Smallest even 5-smooth integer >= m."""
    m += m % 2
    while True:
        rest = m
        for p in (2, 3, 5):
            while rest % p == 0:
                rest //= p
        if rest == 1:
            return m
        m += 2


def exactness_limit(lattice: Lattice) -> float:
    """Largest support radius for which padded products are exact."""
    return lattice.k_unit * (lattice.n / 3.0)


def require_band_limited(f, limit: float | None = None) -> None:
    _band_extent(f, limit)


def _band_extent(f, limit: float | None = None) -> int:
    """Raise AliasingError unless f is band-limited to ``limit``; return the
    largest |m_i| of its nonzero coefficients."""
    radius, extent = _support(_spectral(f))
    if limit is None:
        limit = exactness_limit(f.lattice)
    if radius > limit * (1.0 + 1e-12):
        raise AliasingError(
            f"field support |k| <= {radius:.6g} exceeds the exact-product "
            f"limit {limit:.6g}; band-limit the input first"
        )
    return extent


def multiply(f: ScalarSpectralField, g: ScalarSpectralField) -> ScalarSpectralField:
    """Exact product f*g, returned on the padded lattice."""
    if f.lattice != g.lattice:
        raise ValueError("factors live on different lattices")
    _, lat, ([a], [b]) = _padded((f, g))
    values = to_grid(a, lat.n) * to_grid(b, lat.n)
    [product] = _on_pad_lattice(from_grid(values, lat.n)[None], f.lattice)
    return product


def _flux_divergence(u: np.ndarray, gs, n_grid: int, lattice_out: Lattice) -> list[np.ndarray]:
    """div(u (x) g) for each half-layout stack g of gs, on lattice_out.

    u is a (3, n, n, n//2+1) stack and each g an (m, n, n, n//2+1) stack.
    The factors are sampled on an n_grid^3 grid (n, or the size of the
    product lattice of ``_padded`` for exact products); each distinct
    product u_j g_i is transformed once, truncated to lattice_out (the
    n-point lattice, or the support or product lattice of ``_padded``),
    and component i of the result is sum_j d_j(u_j g_i).  For g = u the
    six symmetric products are shared.  For divergence-free u this is
    u . grad(g).

    The factors' grids are independent transforms, and so are the
    products' coefficients; each set runs through :func:`_alternately`.
    The sums are then taken in the order above, so the result does not
    depend on which thread ran which transform.
    """
    if len(u) != 3:
        raise TypeError(f"the transporting field must be a velocity, got {len(u)} component(s)")
    n_out = lattice_out.n
    kd = lattice_out._half.k_deriv
    products = _alternately(_product_tasks(u, gs, n_grid, n_out))
    out = []
    for g in gs:
        fluxes, div = {}, []  # div's rows are stacked last, when the products' memory is free
        for i in range(len(g)):
            total = np.zeros((n_out, n_out, n_out // 2 + 1), dtype=np.complex128)
            for j in range(3):
                key = (min(i, j), max(i, j))
                flux = fluxes.pop(key) if key in fluxes else next(products)
                if g is u and j > i:
                    fluxes[key] = flux  # u_i u_j again at (j, i)
                total += kd[j] * flux
            total *= 1j
            div.append(total)
        out.append(np.stack(div))
    return out


def _product_tasks(u: np.ndarray, gs, n_grid: int, n_out: int) -> list:
    """Sample the factors of :func:`_flux_divergence`, then return one task
    per distinct product u_j g_i, in the order its sums first need them.

    Each task holds its own lists of its factors' row blocks and empties
    them as it forms its product.  Once this function returns, those lists
    hold the only references, so each block is freed after its last product.
    """
    stacks = [u] + [g for g in gs if g is not u]
    grids = list(_alternately([partial(_grid_blocks, c, n_grid) for s in stacks for c in s]))
    u_grids, own = grids[:3], iter(grids[3:])
    g_grids = [u_grids if g is u else [next(own) for _ in g] for g in gs]
    factors = {}
    for k, g in enumerate(gs):
        for i in range(len(g)):
            for j in range(3):
                key = (k, min(i, j), max(i, j)) if g is u else (k, i, j)
                factors.setdefault(key, (u_grids[j], g_grids[k][i]))
    return [partial(_product_coefficients, [*a], [*b], n_out) for a, b in factors.values()]


def _two_cpus() -> bool:
    """Whether this process may run on two or more CPUs."""
    import os

    if hasattr(os, "sched_getaffinity"):  # elsewhere than Linux, count the machine's CPUs
        return len(os.sched_getaffinity(0)) >= 2
    return (os.cpu_count() or 1) >= 2


@lru_cache(maxsize=None)
def _worker(pid: int):
    """The process's one worker thread, started on its first task.  It is
    kept, so its memory is reused rather than held by a new thread per
    call; the key is the process id, so a forked child starts its own."""
    from concurrent.futures import ThreadPoolExecutor

    return ThreadPoolExecutor(max_workers=1, thread_name_prefix="nsvlab-transforms")


def _taken(future, task):
    """The result of ``task``, queued on the worker as ``future``: run on
    the caller if the worker has not started it, so the caller never waits
    behind other work queued on the worker."""
    return task() if future.cancel() else future.result()


def _alternately(tasks: list):
    """Yield the results of independent callables, in order.

    Where :func:`_two_cpus` allows, every second task is queued on the
    worker thread while the caller runs the others, each as its result is
    asked for; a queued task the worker has not started by then runs on the
    caller (:func:`_taken`).  A task's result does not depend on the thread
    that runs it.
    """
    if len(tasks) < 2 or not _two_cpus():
        yield from (task() for task in tasks)
        return
    import os

    theirs = [_worker(os.getpid()).submit(task) for task in tasks[1::2]]
    try:
        for k, task in enumerate(tasks[::2]):
            yield task()
            if k < len(theirs):
                yield _taken(theirs[k], tasks[2 * k + 1])
    finally:
        for future in theirs:
            future.cancel()


def _one_ahead(tasks: list):
    """Yield the results of independent callables, in order.

    Where :func:`_two_cpus` allows, task k + 1 is queued on the worker
    thread while the caller holds result k, and is taken back by the caller
    if the worker has not started it when its result is asked for
    (:func:`_taken`).  An error in a task comes out where its result is
    asked for.
    """
    if len(tasks) < 2 or not _two_cpus():
        yield from (task() for task in tasks)
        return
    import os

    worker, future = _worker(os.getpid()), None
    try:
        for k, task in enumerate(tasks):
            result = task() if future is None else _taken(future, task)
            future = worker.submit(tasks[k + 1]) if k + 1 < len(tasks) else None
            yield result
    finally:
        if future is not None:
            future.cancel()


def _padded(fields) -> tuple[Lattice, Lattice, list[np.ndarray]]:
    """The support and product lattices of band-limited fields, and each
    field's half-layout stack on the support lattice.

    K is the largest |m_i| of any nonzero coefficient.  The support lattice
    has size max(2K + 2, 8), at most the fields' own n, and holds every
    such label below its Nyquist planes.  The product lattice has the
    smallest even 5-smooth size M >= 4K + 2 (at least 8), capped at
    :func:`padded_size`; products of the fields are exact on it, and the
    transform pair embeds the support stacks on its grid.  The factors'
    coefficients keep their mode labels: the input lattice is cropped,
    which drops only zeros, so the same field on any lattice gives the
    same stacks.
    """
    extent = max(_band_extent(f) for f in fields)
    lattice = fields[0].lattice
    n_support = min(lattice.n, max(2 * extent + 2, 8))
    m = min(padded_size(lattice.n), _fast_even_size(max(4 * extent + 2, 8)))
    stacks = [_restrict(f._stack, n_support, half=True) for f in fields]
    return _shared_lattice(n_support, lattice.period), _shared_lattice(m, lattice.period), stacks


def _on_pad_lattice(stack: np.ndarray, lattice: Lattice) -> tuple[ScalarSpectralField, ...]:
    """Product coefficients, a half-layout stack on the product lattice, as
    fields on ``pad_lattice(lattice)``; exact, since the product lattice is
    never larger and the product lies below its Nyquist planes."""
    lat_pad = pad_lattice(lattice)
    if stack.shape[1] != lat_pad.n:
        stack = _embed(stack, lat_pad.n, half=True)
    return tuple(ScalarSpectralField._from_half(lat_pad, c) for c in stack)


def advect(u: VelocityField, g):
    """Transport term u . grad(g), exact, on the padded lattice.

    Formed as div(u (x) g), which equals u . grad(g) because u is
    divergence-free, as :class:`VelocityField` requires.  For a scalar g
    returns a ScalarSpectralField; for a VelocityField returns a tuple of
    three scalar fields (the transported components are not
    divergence-free, so they are not wrapped as a velocity).
    """
    if _spectral(g).lattice != u.lattice:
        raise ValueError("fields live on different lattices")
    _, lat, stacks = _padded((u,) if g is u else (u, g))
    [div] = _flux_divergence(stacks[0], [stacks[-1]], lat.n, lat)
    out = _on_pad_lattice(div, u.lattice)
    return out[0] if isinstance(g, ScalarSpectralField) else out
