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

:func:`to_grid` and :func:`from_grid` (defined in :mod:`nsvlab.fields` and
re-exported here) are the package's one transform pair, ``numpy.fft``
passes one axis at a time.  Through it one private plan runner,
``_divergences``, forms sums of derivatives of products of half-layout
components ``(n, n, n//2 + 1)`` for the solver's nonlinear term,
:func:`advect` and the inequality lab's trilinear and commutator forms.  A
plan names its factors, its products (a*b, or a*b - c*d) and, per output
row, its (derivative, product) terms; the solver's plan, five trace-free
products, is in :mod:`nsvlab.sim`, and ``_flux_divergence`` builds the
lab's, div(u (x) g), whose six symmetric products u_i u_j are shared when
g is u.  :func:`multiply` and :func:`advect` return half-layout products
as fields.  Each factor enters as its field's stack cropped to its support
lattice, the smallest that holds its nonzero labels below the Nyquist
planes; the transform pair embeds it on the product grid and truncates
each product back, touching only the lines that hold a label.  The
runner's grids, products and sums are :class:`_Once` cells, which
:func:`_alternately` splits between the caller and one worker thread (on
one CPU they run at once); an error in any of them comes out of the
runner, and the results are summed in a fixed order, so the bytes do not
depend on the thread that formed them.
"""

from __future__ import annotations

from functools import lru_cache, partial

import numpy as np

from .fields import (
    Lattice,
    ScalarSpectralField,
    VelocityField,
    _grid_blocks,
    _product_coefficients,
    _resized,
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
    and component i of the result is sum_j d_j(u_j g_i).  For divergence-
    free u this is u . grad(g).  The plan for :func:`_divergences` has one
    factor per component of each distinct stack and one product per
    unordered pair of factors (so g = u shares its six), in the order the
    sums first need them.
    """
    if len(u) != 3:
        raise TypeError(f"the transporting field must be a velocity, got {len(u)} component(s)")
    factors, first = [], {}  # the index of each distinct stack's first factor
    for s in (u, *gs):
        if id(s) not in first:
            first[id(s)] = len(factors)
            factors.extend(s)
    pairs, rows = {}, []
    for g in gs:
        for i in range(first[id(g)], first[id(g)] + len(g)):
            rows.append([(j, pairs.setdefault((min(i, j), max(i, j)), len(pairs)))
                         for j in range(3)])
    out = _divergences(factors, list(pairs), rows, n_grid, lattice_out)
    return np.split(out, np.cumsum([len(g) for g in gs])[:-1])


def _divergences(factors, products, rows, n_grid: int, lattice_out: Lattice) -> np.ndarray:
    """Sums of derivatives of products of half-layout components, on lattice_out.

    Each of ``factors`` is sampled on an n_grid^3 grid.  Each entry of
    ``products`` is formed there once, in the order given, and its
    coefficients truncated to lattice_out: ``(a, b)`` is factor a times
    factor b, and ``(a, b, c, d)`` is a*b - c*d.  Row r of the returned
    stack is 1j * sum kd_j P_p over the ``(j, p)`` terms of ``rows[r]``, a
    derivative axis j and a product index p, summed from zero in the
    row's order.

    One plan of :class:`_Once` cells runs through :func:`_alternately`: a
    grid per factor, then the products, each waiting only for its own
    grids, then one sum per row, which waits only for its own products and
    writes its row.  A grid is dropped once its last product has taken it,
    and a product once its last sum has, so no grid outlives its products.
    Each sum is taken in its row's order, so the bytes do not depend on
    which thread ran which task.
    """
    n_out = lattice_out.n
    kd = lattice_out._half.k_deriv
    taken = [f for product in products for f in product]  # a grid's uses: its products' reads
    grids = [_Once(partial(_grid_blocks, c, n_grid), taken.count(f)) for f, c in enumerate(factors)]
    taken = [p for terms in rows for _, p in terms]  # a product's uses: its sums' reads
    cells = [_Once(partial(_product, [grids[f] for f in product], n_out), taken.count(p))
             for p, product in enumerate(products)]
    out = np.empty((len(rows), n_out, n_out, n_out // 2 + 1), dtype=np.complex128)
    sums = [_Once(partial(_summed, total, [(kd[j], cells[p]) for j, p in terms]))
            for total, terms in zip(out, rows)]
    _alternately([*grids, *cells, *sums])
    return out


def _summed(total: np.ndarray, terms) -> None:
    """total = 1j * (kd_0 * flux_0 + kd_1 * flux_1 + ...), summed from zero
    in the order of ``terms``, pairs of a derivative wavenumber and the
    :class:`_Once` of a product's coefficients."""
    total[...] = 0.0
    scratch = np.empty_like(total)
    for kd, product in terms:
        total += np.multiply(kd, product(), out=scratch)
    total *= 1j


def _product(cells, n_out: int) -> np.ndarray:
    """The coefficients of the product of the grids that ``cells`` hold."""
    return _product_coefficients([cell() for cell in cells], n_out)


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


class _Once:
    """A task run at most once, by the first thread that asks for it; a
    thread that asks while another runs it waits for that run.

    The result is dropped after ``uses`` calls.  An error in the task is
    kept and raised to every caller, so it comes out where the result is
    asked for, not on the thread that happened to run the task.
    """

    def __init__(self, task, uses: int = 1) -> None:
        import threading

        self.uses = uses
        self._task, self._lock = task, threading.Lock()
        self._result = self._error = None

    def _run(self) -> None:  # with the lock held
        if self._task is not None:
            task, self._task = self._task, None
            try:
                self._result = task()
            except BaseException as error:
                self._error = error
                if not isinstance(error, Exception):
                    raise  # an interrupt or exit goes on at once

    def start(self) -> None:
        """Run the task unless a thread has claimed it; never wait."""
        if self._lock.acquire(blocking=False):
            try:
                self._run()
            finally:
                self._lock.release()

    def cancel(self) -> None:
        """Drop the task unless a thread has claimed it; wait for a run in progress."""
        with self._lock:
            self._task = None

    def wait(self) -> None:
        """Run the task here unless a thread has claimed it, else wait for
        that run; raise its error.  Not a use: the result is kept for the
        calls that count."""
        with self._lock:
            self._run()
        if self._error is not None:  # set only by the run, which has ended
            raise self._error

    def __call__(self):
        """The task's result, run here unless a thread has claimed it."""
        with self._lock:
            self._run()
            self.uses -= 1
            result, error = self._result, self._error
            if self.uses == 0:
                self._result = None
        if error is not None:
            raise error
        return result


def _started(cells) -> None:
    """Start each :class:`_Once` in turn (:meth:`_Once.start`)."""
    for cell in cells:
        cell.start()


def _alternately(cells: list) -> None:
    """Run every :class:`_Once` of ``cells``, and raise the first error in
    their order.

    One job, queued :func:`_behind` the worker (on one CPU, run at once),
    starts every second cell and the caller the others; the caller then
    waits for every cell in order (:meth:`_Once.wait`), so it runs any the
    worker has not started, and cancels the job.  A cell may call a
    :class:`_Once` that other cells share (a sum its products, a product
    its grids): it runs there unless a thread has claimed it, else it is
    waited for.  Each shared cell waits only for cells a level below it, so
    two threads never wait for each other, and no result depends on the
    thread that formed it.  The waits are not uses, so a shared result is
    dropped at its last use, as its callers count it.
    """
    job = _behind(partial(_started, cells[1::2]))
    try:
        _started(cells[::2])
        for cell in cells:
            cell.wait()
    finally:
        job.cancel()


def _behind(task) -> _Once:
    """``task`` as a :class:`_Once`, queued behind the worker thread's queue
    where :func:`_two_cpus` allows, else run here at once: the package's one
    way onto the worker.  The caller asks for its result later, and runs it
    then if the worker has not started it; an error in the task comes out
    there.  :meth:`_Once.cancel` drops it if unclaimed, or waits for it."""
    cell = _Once(task)
    if _two_cpus():
        import os

        _worker(os.getpid()).submit(cell.start)
    else:
        cell.start()
    return cell


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
    stacks = [_resized(f._stack, n_support, half=True) for f in fields]
    return _shared_lattice(n_support, lattice.period), _shared_lattice(m, lattice.period), stacks


def _on_pad_lattice(stack: np.ndarray, lattice: Lattice) -> tuple[ScalarSpectralField, ...]:
    """Product coefficients, a half-layout stack on the product lattice, as
    fields on ``pad_lattice(lattice)``; exact, since the product lattice is
    never larger and the product lies below its Nyquist planes."""
    lat_pad = pad_lattice(lattice)
    if stack.shape[1] != lat_pad.n:
        stack = _resized(stack, lat_pad.n, half=True)
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
