"""Spectral representation of real periodic fields on a cubic 3D lattice.

A field is stored by its Fourier-series coefficients ``c_k`` in the
convention

    f(x) = sum_k c_k exp(i k . x),    k = (2*pi/L) * m,  m integer triple,

with mode components ``m_i`` running over ``[-n/2, n/2)`` in the layout of
``numpy.fft`` (index ``j`` holds mode ``j`` for ``j < n/2`` and ``j - n``
otherwise).  Real-valued fields satisfy the Hermitian symmetry
``c_{-k} = conj(c_k)``; every constructor here preserves it.

Derivatives use a copy of the wavenumber grid whose Nyquist component is
zeroed, so odd-order derivatives of real fields stay real.  Norms and
Fourier multipliers use the true wavenumbers.

Because a real field's coefficients are Hermitian, the half
``(n, n, n//2 + 1)`` with ``m_3 >= 0`` (:func:`half_spectrum`) determines
them, and :func:`full_spectrum` rebuilds the rest by conjugate reflection.
A scalar and a velocity field hold the same thing: one read-only stack of
half layouts ``(m, n, n, n//2 + 1)``, m = 1 for a scalar and 3 for a
velocity, whose shell sums, arithmetic and largest coefficient their one
base class owns.  Every norm, transform, product, snapshot and solver step
reads that stack and none asks which kind of field holds it;
:class:`Lattice` serves its wavenumber grids.  This module alone knows the
full ``(n, n, n)`` layout: the public constructor takes it, and
:attr:`ScalarSpectralField.coefficients` and the public lattice grids
build it on demand.  :func:`to_grid` and :func:`from_grid`
are the package's one transform pair between half-layout coefficients and
grid samples.  Each runs ``numpy.fft`` one axis at a time, complex passes
along axes 0 and 1 and a real pass along axis 2, in the order of scipy's
n-d real FFTs, whose bits it gives.  Between a lattice and a larger grid
(zero padding, truncation) the complex passes skip the lines that are zero
on input or dropped on output, and the real pass runs one block of rows at
a time.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property
from itertools import product as _iter_product

import numpy as np

__all__ = [
    "TWO_PI",
    "NonzeroMeanError",
    "EmptyBandError",
    "Lattice",
    "ScalarSpectralField",
    "VelocityField",
    "to_physical",
    "to_spectral",
    "hermitian_defect",
    "hermitianize",
    "embed_coefficients",
    "restrict_coefficients",
    "to_grid",
    "from_grid",
    "gradient",
    "divergence",
    "leray_project",
    "taylor_green",
    "random_band_limited",
    "truncate",
    "support_radius",
]

TWO_PI = 2.0 * math.pi

# Relative threshold below which a mean coefficient counts as zero.
MEAN_TOLERANCE = 1e-13


class NonzeroMeanError(ValueError):
    """An operation that requires a zero-mean field received c_0 != 0."""


class EmptyBandError(ValueError):
    """A requested wavenumber band contains no lattice mode."""


def _check_mean(field, what: str) -> None:
    """Raise NonzeroMeanError when the field's largest component |c_0|
    exceeds MEAN_TOLERANCE times its largest |c|."""
    moments = field._moments
    mean = max(moduli[0] for moduli in moments.moduli)
    if mean > MEAN_TOLERANCE * max(moments.peak, 1e-300):
        raise NonzeroMeanError(f"{what}: nonzero mean (|c_0| = {mean:.3e})")


@dataclass(frozen=True)
class Lattice:
    """Cubic periodic lattice: ``n`` modes per axis on a box of edge ``period``."""

    n: int
    period: float = TWO_PI

    def __post_init__(self) -> None:
        if not isinstance(self.n, (int, np.integer)):
            raise ValueError(f"lattice size must be an integer, got {self.n!r}")
        if self.n < 8 or self.n % 2 != 0:
            raise ValueError(f"lattice size must be even and >= 8, got {self.n}")
        if not (math.isfinite(self.period) and self.period > 0):
            raise ValueError(f"period must be finite and positive, got {self.period}")
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "period", float(self.period))

    @property
    def shape(self) -> tuple[int, int, int]:
        return (self.n, self.n, self.n)

    @property
    def k_unit(self) -> float:
        """Wavenumber of the fundamental mode, 2*pi/period."""
        return TWO_PI / self.period

    @property
    def nyquist(self) -> float:
        """Magnitude of the largest resolvable axis wavenumber, k_unit * n/2."""
        return self.k_unit * (self.n // 2)

    @property
    def spacing(self) -> float:
        """Physical grid spacing, period / n."""
        return self.period / self.n

    @cached_property
    def modes(self) -> np.ndarray:
        """Integer mode numbers along one axis in fft layout."""
        m = np.fft.fftfreq(self.n, d=1.0 / self.n).astype(np.int64)
        m.setflags(write=False)
        return m

    @cached_property
    def _full(self) -> _Grids:
        return _grids(self, self.n)

    @cached_property
    def _half(self) -> _Grids:
        """The grids of the half layout ``(n, n, n//2 + 1)``, the one fields hold."""
        return _grids(self, self.n // 2 + 1)

    @property
    def k(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """True wavenumbers per axis, shaped for broadcasting."""
        return self._full.k

    @property
    def k_deriv(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Derivative wavenumbers: Nyquist component zeroed per axis."""
        return self._full.k_deriv

    @property
    def ksq(self) -> np.ndarray:
        return self._full.ksq

    @property
    def ksq_deriv(self) -> np.ndarray:
        """|k|^2 under the derivative convention (Nyquist components zeroed)."""
        return self._full.ksq_deriv

    @property
    def inv_ksq_deriv(self) -> np.ndarray:
        """1/|k|^2 under the derivative convention, 0 where that |k| vanishes."""
        return self._full.inv_ksq_deriv

    @property
    def kmag(self) -> np.ndarray:
        return self._full.kmag

    @property
    def shells(self) -> tuple[np.ndarray, np.ndarray]:
        """``(index, radius)``: the distinct |k| values and each mode's shell.

        ``radius`` ascends strictly (shell 0 is the zero mode) and
        ``radius[index] == kmag.ravel()`` exactly, so a band cut at any
        radius contains whole shells.  Norms and band sums reduce each mode
        onto its shell and sum across shells.
        """
        return self._full.shells

    @cached_property
    def _shell_counts(self) -> np.ndarray:
        """Number of lattice modes on each shell of :attr:`shells`."""
        [counts] = _shell_sums(self, [np.ones(self._half.shape)])
        counts.setflags(write=False)
        return counts

    def mode_index(self, m1: int, m2: int, m3: int) -> tuple[int, int, int]:
        """Array index of integer mode (m1, m2, m3)."""
        half = self.n // 2
        for m in (m1, m2, m3):
            if not (-half <= m < half):
                raise ValueError(f"mode {(m1, m2, m3)} outside [-{half}, {half})")
        return (m1 % self.n, m2 % self.n, m3 % self.n)

    def zeros(self) -> np.ndarray:
        return np.zeros(self.shape, dtype=np.complex128)


# The wavenumber grids of one coefficient layout, read-only: the last axis
# holds its first `width` fft-layout labels (n for the full layout, n//2 + 1
# for the half).  `shells` is (flattened shell index, ascending distinct |k|);
# both layouts have the same radii.
_Grids = namedtuple("_Grids", "shape k k_deriv ksq ksq_deriv inv_ksq_deriv kmag shells")


def _grids(lattice: Lattice, width: int) -> _Grids:
    n = lattice.n
    axis = lattice.k_unit * lattice.modes.astype(np.float64)
    deriv = axis.copy()
    deriv[n // 2] = 0.0  # derivative wavenumbers: Nyquist component zeroed
    k, k_deriv = (
        (k1d.reshape(n, 1, 1), k1d.reshape(1, n, 1), k1d[:width].reshape(1, 1, width))
        for k1d in (_read_only(axis), _read_only(deriv))
    )
    ksq, ksq_deriv = (_read_only(kx * kx + ky * ky + kz * kz) for kx, ky, kz in (k, k_deriv))
    inv_ksq_deriv = np.divide(1.0, ksq_deriv, out=np.zeros_like(ksq_deriv), where=ksq_deriv > 0)
    kmag = _read_only(np.sqrt(ksq))
    radius, index = np.unique(kmag.ravel(), return_inverse=True)
    shells = (_read_only(index), _read_only(radius))
    return _Grids((n, n, width), k, k_deriv, ksq, ksq_deriv, _read_only(inv_ksq_deriv), kmag, shells)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _shell_sums(lattice: Lattice, terms) -> list[np.ndarray]:
    """Per component, the sum of its half-layout per-mode terms over each |k|
    shell.  A mode counts twice, for itself and its conjugate partner -k,
    except on the m_3 = 0 and Nyquist planes, whose partners are half-layout
    modes too."""
    multiplicity = np.full(lattice.n // 2 + 1, 2.0)
    multiplicity[[0, -1]] = 1.0
    return [np.bincount(lattice._half.shells[0], np.ravel(multiplicity * t)) for t in terms]


# per component, its shell sums of |c|^2 and of |c|; and the max |c| of all
_ShellMoments = namedtuple("_ShellMoments", "squares moduli peak")


def _shell_moments(lattice: Lattice, stack: np.ndarray) -> _ShellMoments:
    """The one per-shell pass over a field's half-layout stack; every norm reads it.

    Shell 0 holds only the zero mode, so ``moduli[i][0]`` is component i's |c_0|.
    """
    mags = np.abs(stack)
    squares, moduli = (_shell_sums(lattice, t) for t in (mags**2.0, mags))
    return _ShellMoments(squares, moduli, float(mags.max()))


def _conj_reflect(coefficients: np.ndarray, width: int | None = None) -> np.ndarray:
    """Coefficients of conj(f): index k holds conj(c_{-k}); given ``width``,
    only the first ``width`` labels of the last axis."""
    n = coefficients.shape[0]
    idx = (-np.arange(n)) % n
    return np.conj(coefficients[np.ix_(idx, idx, idx[:width])])


def hermitianize(coefficients: np.ndarray) -> np.ndarray:
    """Project a coefficient array onto the Hermitian (real-field) part."""
    return 0.5 * (coefficients + _conj_reflect(coefficients))


@dataclass(frozen=True, init=False, eq=False)
class _SpectralField:
    """What every field holds: its lattice and one read-only half-layout
    stack ``(m, n, n, n//2 + 1)`` with ``m_3 >= 0``, m = 1 for a scalar and
    3 for a velocity.  Norms, checks, products and snapshots read the stack
    and never ask which kind of field holds it."""

    lattice: Lattice
    _stack: np.ndarray

    @classmethod
    def _from_half(cls, lattice: Lattice, half: np.ndarray):
        """The field of half-layout coefficients, a scalar's ``(n, n, n//2+1)``
        or a stack, held without a copy: the caller hands ``half`` over and
        writes to it no more."""
        if not np.isfinite(half).all():
            raise ValueError("coefficients contain non-finite values")
        field = object.__new__(cls)
        field._hold(lattice, half.reshape((-1,) + half.shape[-3:]))
        return field

    def _hold(self, lattice: Lattice, stack: np.ndarray) -> None:
        stack.setflags(write=False)
        object.__setattr__(self, "lattice", lattice)
        object.__setattr__(self, "_stack", stack)

    @cached_property
    def _moments(self) -> _ShellMoments:
        """Shell moments of the stack, cached: the coefficients are read-only."""
        return _shell_moments(self.lattice, self._stack)

    def max_abs_coefficient(self) -> float:
        return float(np.abs(self._stack).max())

    def _combine(self, other, op):
        if type(other) is not type(self):
            return NotImplemented
        if other.lattice != self.lattice:
            raise ValueError("fields live on different lattices")
        return self._from_half(self.lattice, op(self._stack, other._stack))

    def __add__(self, other):
        return self._combine(other, np.add)

    def __sub__(self, other):
        return self._combine(other, np.subtract)

    def __mul__(self, scalar: float):
        return self._from_half(self.lattice, self._stack * float(scalar))

    __rmul__ = __mul__


def _spectral(f) -> _SpectralField:
    """``f``, which must be a spectral field: the readers' one type check."""
    if not isinstance(f, _SpectralField):
        raise TypeError(f"expected a spectral field, got {type(f).__name__}")
    return f


class ScalarSpectralField(_SpectralField):
    """Real periodic scalar field stored by Fourier-series coefficients.

    The field holds only the read-only half ``(n, n, n//2 + 1)`` with
    ``m_3 >= 0``, which determines a real field.  The constructor takes a
    full-layout array and keeps that half; :attr:`coefficients` rebuilds
    the full layout from it.
    """

    def __init__(self, lattice: Lattice, coefficients: np.ndarray) -> None:
        arr = np.asarray(coefficients, dtype=np.complex128)
        if arr.shape != lattice.shape:
            raise ValueError(
                f"coefficient shape {arr.shape} does not match lattice {lattice.shape}"
            )
        if not np.isfinite(arr).all():
            raise ValueError("coefficients contain non-finite values")
        self._hold(lattice, half_spectrum(arr)[None].copy())

    @property
    def _half(self) -> np.ndarray:
        return self._stack[0]

    @cached_property
    def coefficients(self) -> np.ndarray:
        """The full ``(n, n, n)`` layout, rebuilt from the half by conjugate
        reflection on first read; read-only."""
        return _read_only(full_spectrum(self._half, self.lattice.n))

    @property
    def mean(self) -> complex:
        """Series mean, the k = 0 coefficient."""
        return complex(self._half[0, 0, 0])

    def __neg__(self) -> "ScalarSpectralField":
        return self._from_half(self.lattice, -self._stack)


class VelocityField(_SpectralField):
    """Divergence-free, zero-mean velocity field of three scalar components,
    held as one ``(3, n, n, n//2 + 1)`` stack.

    The constructor does not verify the invariants (factories do); use
    :meth:`divergence_defect` and :meth:`mean_magnitude` to check them.
    """

    def __init__(self, components) -> None:
        comps = tuple(components)
        if len(comps) != 3:
            raise ValueError(f"expected 3 components, got {len(comps)}")
        if any(c.lattice != comps[0].lattice for c in comps[1:]):
            raise ValueError("components live on different lattices")
        self._hold(comps[0].lattice, np.stack([c._half for c in comps]))

    @cached_property
    def components(self) -> tuple[ScalarSpectralField, ScalarSpectralField, ScalarSpectralField]:
        """The three components, read-only scalar views of the stack."""
        return tuple(ScalarSpectralField._from_half(self.lattice, c) for c in self._stack)

    def coefficient_stack(self) -> np.ndarray:
        """Writable (3, n, n, n) copy of the component coefficients."""
        return full_spectrum(self._stack, self.lattice.n)

    def mean_magnitude(self) -> float:
        return max(abs(complex(c)) for c in self._stack[:, 0, 0, 0])

    def divergence_defect(self) -> float:
        """max_k |k . c(k)| / max_k |k| |c(k)|, 0 for the zero field.

        Uses the derivative wavevector, matching :func:`divergence`.
        """
        grids = self.lattice._half
        kx, ky, kz = grids.k_deriv
        c1, c2, c3 = self._stack
        num = np.abs(kx * c1 + ky * c2 + kz * c3)
        den = np.sqrt(grids.ksq_deriv) * np.sqrt(
            np.abs(c1) ** 2 + np.abs(c2) ** 2 + np.abs(c3) ** 2
        )
        scale = float(den.max())
        if scale == 0.0:
            return 0.0
        return float(num.max()) / scale


Field = ScalarSpectralField | VelocityField


def half_spectrum(a: np.ndarray) -> np.ndarray:
    """View of the m_3 >= 0 half of a full-layout (or broadcastable) array.

    Lattice grids shaped for broadcasting slice to their half layout too:
    an axis of length 1 stays whole.
    """
    return a[..., : a.shape[-1] // 2 + 1]


def full_spectrum(half: np.ndarray, n: int) -> np.ndarray:
    """Full-layout coefficients rebuilt from their half by conjugate reflection.

    The last axis gains the m_3 < 0 modes, index j holding conj(c_{-k});
    the m_3 = 0 and Nyquist planes are copied as they are.  Leading axes
    (a component stack) are carried through.
    """
    h = n // 2 + 1
    idx = (-np.arange(n)) % n
    out = np.empty(half.shape[:-1] + (n,), dtype=np.complex128)
    out[..., :h] = half
    out[..., h:] = np.conj(half[..., idx[:, None], idx, n - h : 0 : -1])
    return out


def _resized(c: np.ndarray, m: int, half: bool) -> np.ndarray:
    """Coefficients on the last three axes embedded into, or cropped to, an
    m-point lattice, in c's dtype; leading axes (a component stack) are
    carried through.

    The labels the two sizes share are copied (:func:`_kept`).  Full
    layout: every label of the smaller lattice.  Half layout: the m_3 >= 0
    labels, and the Nyquist planes of an even smaller lattice are left out
    (their partner labels would be distinct modes on the larger one).
    """
    n = c.shape[-3]
    small = min(n, m)
    lead = (small + 1) // 2  # labels 0..lead-1 lead each axis
    axis = _kept(lead, n, m, tail=lead - 1 if half else small // 2)
    out = np.zeros(c.shape[:-3] + (m, m, m // 2 + 1 if half else m), dtype=c.dtype)
    for pairs in _iter_product(axis, axis, axis[:1] if half else axis):
        source, target = zip(*pairs)
        out[(..., *target)] = c[(..., *source)]
    return out


def embed_coefficients(c: np.ndarray, n_pad: int) -> np.ndarray:
    """Embed fft-layout coefficients into a larger lattice (zero padding)."""
    n = c.shape[-3]
    if n_pad < n:
        raise ValueError(f"cannot embed n={n} into smaller n_pad={n_pad}")
    return _resized(c.astype(np.complex128, copy=False), n_pad, half=False)


def restrict_coefficients(c: np.ndarray, n_small: int) -> np.ndarray:
    """Crop fft-layout coefficients to a smaller lattice (mode truncation)."""
    n = c.shape[-3]
    if n_small > n:
        raise ValueError(f"cannot restrict n={n} to larger n_small={n_small}")
    return _resized(c, n_small, half=False)


def to_grid(c: np.ndarray, n_grid: int) -> np.ndarray:
    """Real samples on an n_grid^3 grid of half-layout coefficients (n, n, n//2+1).

    Unscaled inverse passes: along axes 0 and then 1 in place, then the
    real pass along axis 2.  Zero-pads when n_grid > n; that embed drops
    the Nyquist planes of the input, which the three-halves rule and the
    band-limited products hold at zero anyway, and the padded grid skips
    the zero lines (:func:`_padded_grid`).
    """
    if n_grid == c.shape[0]:
        lines = np.fft.ifft(c, axis=0, norm="forward")
        np.fft.ifft(lines, axis=1, norm="forward", out=lines)
        return np.fft.irfftn(lines, s=(n_grid,), axes=(2,), norm="forward")
    return _padded_grid(c, n_grid)


def from_grid(values: np.ndarray, n_out: int) -> np.ndarray:
    """Half-layout coefficients of real grid samples, truncated to n_out modes.

    The real pass along axis 2, the 1/n^3 scale, then unscaled passes
    along axes 0 and then 1 in place.  Truncation drops the Nyquist planes
    of the n_out lattice, like :func:`to_grid`'s embed, and a truncating
    transform keeps only the lines it returns (:func:`_padded_coefficients`).
    """
    if n_out == values.shape[0]:
        lines = np.fft.rfftn(values, axes=(2,))
        _scale(lines, n_out)
        for axis in (0, 1):
            np.fft.fft(lines, axis=axis, out=lines)
        return lines
    return _padded_coefficients([values], values.shape[0], n_out)


def _scale(lines: np.ndarray, n_grid: int) -> None:
    """Scale the real and imaginary parts of ``lines`` by 1/n_grid^3 in place."""
    parts = lines.view(np.float64)
    np.multiply(parts, 1.0 / n_grid**3, out=parts)


def _grid_blocks(c: np.ndarray, n_grid: int) -> list[np.ndarray]:
    """:func:`to_grid`'s samples as row blocks along axis 0: the whole grid
    when n_grid is c's own size, else views of the padded grid's row quarters."""
    grid = to_grid(c, n_grid)
    return [grid] if n_grid == c.shape[0] else np.array_split(grid, 4)


def _product_coefficients(factors: list[list[np.ndarray]], n_out: int) -> np.ndarray:
    """:func:`from_grid` of the product a*b of two grids, or of the
    difference a*b - c*d of two such products, each grid given as the row
    blocks of :func:`_grid_blocks` in ``factors``.  The product is formed
    one block at a time, as the transform reads it, so a padded product
    never exists whole.  When n_out is the grid's own size nothing is
    truncated, and the blocks are joined for one n-d transform, which
    keeps the Nyquist planes.
    """
    n_grid = factors[0][0].shape[1]
    blocks = (_block_product(*parts) for parts in zip(*factors))
    if n_out < n_grid:
        return _padded_coefficients(blocks, n_grid, n_out)
    return from_grid(np.concatenate(list(blocks)) if len(factors[0]) > 1 else next(blocks), n_out)


def _block_product(a, b, c=None, d=None) -> np.ndarray:
    """a*b, less c*d if given."""
    product = a * b
    if c is not None:
        product -= c * d
    return product


def _kept(lead: int, m_from: int, m_to: int, tail: int | None = None):
    """(from, to) slice pairs of the labels 0..lead-1 and -tail..-1 on an
    m_from-point and an m_to-point fft-layout axis: the labels an embed
    fills and a truncation keeps, by default with no Nyquist label (tail
    lead - 1)."""
    tail = lead - 1 if tail is None else tail
    return (
        (slice(0, lead), slice(0, lead)),
        (slice(m_from - tail, m_from), slice(m_to - tail, m_to)),
    )


def _padded_grid(c: np.ndarray, n_grid: int) -> np.ndarray:
    """:func:`to_grid` of c on a larger grid.

    The kept lines of c are copied, slice by slice, onto the columns of a
    compact array, whose axis 1 holds only the 2*lead - 1 kept labels;
    the complex pass along axis 0 runs there.  Those columns are then
    copied onto the n_grid columns of the next array for the pass along
    axis 1, and the real pass along axis 2 writes one row half of the grid
    at a time.  Each line meets the same unscaled 1-D transform that the
    own-size inverse of the embedded coefficients applies to it, so the
    samples are its bits.
    """
    n = c.shape[0]
    if n_grid < n:
        raise ValueError(f"cannot embed n={n} into smaller n_pad={n_grid}")
    lead = (n + 1) // 2
    compact = 2 * lead - 1
    columns = np.zeros((n_grid, compact, lead), dtype=np.complex128)
    for rows, grid_rows in _kept(lead, n, n_grid):
        for cols, compact_cols in _kept(lead, n, compact):
            columns[grid_rows, compact_cols] = c[rows, cols, :lead]
    np.fft.ifft(columns, axis=0, norm="forward", out=columns)
    lines = np.zeros((n_grid, n_grid, lead), dtype=np.complex128)
    for compact_cols, grid_cols in _kept(lead, compact, n_grid):
        lines[:, grid_cols] = columns[:, compact_cols]
    del columns
    np.fft.ifft(lines, axis=1, norm="forward", out=lines)
    grid = np.empty((n_grid, n_grid, n_grid))
    half = n_grid // 2
    for rows in (slice(0, half), slice(half, n_grid)):
        np.fft.irfftn(lines[rows], s=(n_grid,), axes=(2,), norm="forward", out=grid[rows])
    return grid


def _padded_coefficients(blocks, n_grid: int, n_out: int) -> np.ndarray:
    """:func:`from_grid` of an n_grid^3 grid, given as an iterable of its
    row blocks along axis 0 in order, truncated to n_out < n_grid modes.

    The real pass along axis 2 reads one block at a time and keeps the
    columns of kept labels.  Their real and imaginary parts are then
    scaled by 1/n_grid^3 once (:func:`_scale`).  The complex pass along
    axis 0 transforms those columns' lines; the rows of kept labels are
    copied, slice by slice, into a compact array for the pass along axis
    1, whose kept columns are copied into the result.  Every kept
    coefficient holds the own-size forward transform's bits.
    """
    if n_out > n_grid:
        raise ValueError(f"cannot restrict n={n_grid} to larger n_small={n_out}")
    lead = (n_out + 1) // 2
    lines = np.empty((n_grid, n_grid, lead), dtype=np.complex128)
    start = 0
    for block in blocks:
        lines[start : start + len(block)] = np.fft.rfftn(block, axes=(2,))[..., :lead]
        start += len(block)
        del block  # before the next block is formed
    _scale(lines, n_grid)
    np.fft.fft(lines, axis=0, out=lines)
    compact = 2 * lead - 1
    rows = np.empty((compact, n_grid, lead), dtype=np.complex128)
    for grid_rows, compact_rows in _kept(lead, n_grid, compact):
        rows[compact_rows] = lines[grid_rows]
    del lines
    np.fft.fft(rows, axis=1, out=rows)
    out = np.zeros((n_out, n_out, n_out // 2 + 1), dtype=np.complex128)
    for compact_rows, out_rows in _kept(lead, compact, n_out):
        for grid_cols, out_cols in _kept(lead, n_grid, n_out):
            out[out_rows, out_cols, :lead] = rows[compact_rows, grid_cols]
    return out


def to_physical(f: ScalarSpectralField) -> np.ndarray:
    """Real grid samples of the field at the n^3 lattice points."""
    return to_grid(f._half, f.lattice.n)


def hermitian_defect(f: ScalarSpectralField) -> float:
    """max |Im f| / max |Re f| over the grid of :attr:`~ScalarSpectralField.coefficients`;
    0 for the zero field.

    A field holds only its m_3 >= 0 half, and the m_3 < 0 modes of its
    full layout reflect that half, so the defect measures what the half
    itself holds of a non-Hermitian part: the asymmetry within the m_3 = 0
    and Nyquist planes.  The package's one complex n-d transform,
    ``numpy.fft.ifftn`` of the full layout: it must see the imaginary part
    of the inverse, which the real pair (:func:`to_grid`) never forms.
    """
    n = f.lattice.n
    values = np.fft.ifftn(f.coefficients) * float(n**3)
    scale = float(np.abs(values.real).max())
    if scale == 0.0:
        return float(np.abs(values.imag).max())
    return float(np.abs(values.imag).max()) / scale


def to_spectral(samples: np.ndarray, period: float = TWO_PI) -> ScalarSpectralField:
    """Field whose series interpolates real grid samples on an n^3 grid."""
    arr = np.asarray(samples, dtype=np.float64)
    if arr.ndim != 3 or len(set(arr.shape)) != 1:
        raise ValueError(f"samples must form a cube, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError("samples contain non-finite values")
    lattice = Lattice(arr.shape[0], period)
    return ScalarSpectralField._from_half(lattice, from_grid(arr, lattice.n))


def gradient(f: ScalarSpectralField) -> tuple[ScalarSpectralField, ...]:
    """Spectral gradient; Nyquist derivative components are zeroed."""
    lat = f.lattice
    return tuple(ScalarSpectralField._from_half(lat, 1j * kd * f._half) for kd in lat._half.k_deriv)


def divergence(u: VelocityField) -> ScalarSpectralField:
    lat = u.lattice
    out = np.zeros(lat._half.shape, dtype=np.complex128)
    for kd, comp in zip(lat._half.k_deriv, u._stack):
        out += 1j * kd * comp
    return ScalarSpectralField._from_half(lat, out)


def leray_project(candidate) -> VelocityField:
    """Project a candidate velocity onto its divergence-free part.

    Accepts a :class:`VelocityField` or a sequence of three scalar fields.
    The mean must already vanish; the k = 0 mode is left untouched.
    """
    if not isinstance(candidate, VelocityField):
        comps = tuple(candidate)
        if len(comps) != 3 or not all(isinstance(c, ScalarSpectralField) for c in comps):
            raise TypeError("expected a VelocityField or three scalar fields")
        candidate = VelocityField(comps)
    _check_mean(candidate, "velocity candidate")
    lat = candidate.lattice
    return VelocityField._from_half(lat, project_arrays(candidate._stack, lat))


def project_arrays(stack: np.ndarray, lattice: Lattice) -> np.ndarray:
    """Leray projection on a half-layout (3, n, n, n//2+1) stack.

    Uses the derivative wavevector so that projecting a gradient gives 0
    and the divergence of the output vanishes mode by mode; pure-Nyquist
    modes (derivative wavevector zero) pass through untouched.
    """
    out = stack.copy()
    _project(out, lattice)
    return out


def _project(stack: np.ndarray, lattice: Lattice, rows: slice = slice(None)) -> None:
    """:func:`project_arrays` in place, with two scratch arrays; ``stack``
    holds the first-axis ``rows`` of the lattice's half layout."""
    kx, ky, kz = lattice._half.k_deriv
    kx = kx[rows]
    factor = kx * stack[0]
    scratch = np.multiply(ky, stack[1])
    factor += scratch
    factor += np.multiply(kz, stack[2], out=scratch)
    factor *= lattice._half.inv_ksq_deriv[rows]
    for k, component in zip((kx, ky, kz), stack):
        component -= np.multiply(k, factor, out=scratch)


def taylor_green(lattice: Lattice) -> VelocityField:
    """Fundamental Taylor-Green vortex on the given lattice.

    u = (cos x1 sin x2 sin x3, -sin x1 cos x2 sin x3, 0) in box coordinates;
    all sixteen nonzero coefficients have magnitude 1/8 and |m| = sqrt(3).
    """
    stack = np.zeros((3,) + lattice.shape, dtype=np.complex128)
    for s1, s2, s3 in _iter_product((1, -1), repeat=3):
        idx = lattice.mode_index(s1, s2, s3)
        stack[(0, *idx)] = -s2 * s3 / 8.0
        stack[(1, *idx)] = s1 * s3 / 8.0
    return VelocityField._from_half(lattice, half_spectrum(stack).copy())


def random_band_limited(
    lattice: Lattice,
    kmin: float,
    kmax: float,
    decay: float = 1.0,
    seed: int = 0,
) -> VelocityField:
    """Random divergence-free field supported on kmin <= |k| <= kmax.

    Coefficient magnitudes scale like |k|^(-decay); phases come from a
    seeded generator, so equal seeds give bit-identical fields.
    """
    if not (0.0 < kmin <= kmax):
        raise ValueError(f"need 0 < kmin <= kmax, got ({kmin}, {kmax})")
    if kmax > lattice.nyquist:
        raise ValueError(f"kmax {kmax} exceeds the lattice Nyquist {lattice.nyquist}")
    kmag = lattice._half.kmag
    band = (kmag >= kmin) & (kmag <= kmax)
    if not band.any():
        raise EmptyBandError(f"no lattice mode with {kmin} <= |k| <= {kmax}")
    amplitude = np.zeros(kmag.shape)
    amplitude[band] = kmag[band] ** (-decay)
    rng = np.random.default_rng(seed)
    stack = np.empty((3,) + kmag.shape, dtype=np.complex128)
    h = kmag.shape[-1]
    for i in range(3):
        z = rng.standard_normal(lattice.shape) + 1j * rng.standard_normal(lattice.shape)
        # the half of hermitianize(z), formed on the half only
        stack[i] = 0.5 * (z[..., :h] + _conj_reflect(z, h)) * amplitude
    return VelocityField._from_half(lattice, project_arrays(stack, lattice))


def truncate(f: Field, radius: float, side: str) -> Field:
    """Spectral truncation at |k| = radius; the boundary shell is LOW.

    side="low" keeps |k| <= radius, side="high" keeps |k| > radius; the two
    parts sum back to the original field exactly.
    """
    if side not in ("low", "high"):
        raise ValueError(f"side must be 'low' or 'high', got {side!r}")
    if not (math.isfinite(radius) and radius >= 0.0):
        raise ValueError(f"radius must be finite and >= 0, got {radius}")
    keep_low = f.lattice._half.kmag <= radius
    keep = keep_low if side == "low" else ~keep_low
    return f._from_half(f.lattice, np.where(keep, f._stack, 0.0))


def support_radius(f: Field) -> float:
    """Largest |k| carrying a coefficient above roundoff; 0 if none."""
    return _support(f)[0]


def _support(f: Field) -> tuple[float, int]:
    """:func:`support_radius` and the largest |m_i| of any nonzero
    coefficient (0 for the zero field), from one pass over the moduli.
    Roundoff is judged against each component's own largest |c|."""
    mags = np.abs(f._stack)
    nonzero = mags > 0.0
    if not nonzero.any():
        return 0.0, 0
    significant = (mags > 1e-14 * mags.max(axis=(1, 2, 3), keepdims=True)).any(axis=0)
    labels = np.abs(f.lattice.modes)
    hits = (nonzero.any(axis=axes) for axes in ((0, 2, 3), (0, 1, 3), (0, 1, 2)))
    extent = max(int(labels[: len(hit)][hit].max()) for hit in hits)
    return float(f.lattice._half.kmag[significant].max()), extent
