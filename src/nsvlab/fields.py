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

Fields hold the full ``(n, n, n)`` layout.  Because a real field's
coefficients are Hermitian, the half ``(n, n, n//2 + 1)`` with
``m_3 >= 0`` (:func:`half_spectrum`) determines them, and
:func:`full_spectrum` rebuilds the rest by conjugate reflection.
:func:`to_grid` and :func:`from_grid` are the package's one transform pair
between coefficients and grid samples; they work on that half layout with
real-to-complex FFTs, and the solver and the padded products run on it
internally.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import product as _iter_product

import numpy as np
import scipy.fft

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

    def _axis_k(self, zero_nyquist: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        m = self.modes.astype(np.float64)
        if zero_nyquist:
            m = m.copy()
            m[self.n // 2] = 0.0
        k1d = self.k_unit * m
        out = (
            k1d.reshape(self.n, 1, 1),
            k1d.reshape(1, self.n, 1),
            k1d.reshape(1, 1, self.n),
        )
        for a in out:
            a.setflags(write=False)
        return out

    @cached_property
    def k(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """True wavenumbers per axis, shaped for broadcasting."""
        return self._axis_k(zero_nyquist=False)

    @cached_property
    def k_deriv(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Derivative wavenumbers: Nyquist component zeroed per axis."""
        return self._axis_k(zero_nyquist=True)

    @cached_property
    def ksq(self) -> np.ndarray:
        kx, ky, kz = self.k
        out = kx * kx + ky * ky + kz * kz
        out.setflags(write=False)
        return out

    @cached_property
    def ksq_deriv(self) -> np.ndarray:
        """|k|^2 under the derivative convention (Nyquist components zeroed)."""
        kx, ky, kz = self.k_deriv
        out = kx * kx + ky * ky + kz * kz
        out.setflags(write=False)
        return out

    @cached_property
    def inv_ksq_deriv(self) -> np.ndarray:
        """1/|k|^2 under the derivative convention, 0 where that |k| vanishes."""
        ksq = self.ksq_deriv
        out = np.divide(1.0, ksq, out=np.zeros_like(ksq), where=ksq > 0)
        out.setflags(write=False)
        return out

    @cached_property
    def kmag(self) -> np.ndarray:
        out = np.sqrt(self.ksq)
        out.setflags(write=False)
        return out

    @cached_property
    def shells(self) -> tuple[np.ndarray, np.ndarray]:
        """``(index, radius)``: the distinct |k| values and each mode's shell.

        ``radius`` ascends strictly (shell 0 is the zero mode) and
        ``radius[index] == kmag.ravel()`` exactly, so a band cut at any
        radius contains whole shells.  Norms and band sums reduce each mode
        onto its shell and sum across shells.
        """
        radius, index = np.unique(self.kmag.ravel(), return_inverse=True)
        index.setflags(write=False)
        radius.setflags(write=False)
        return index, radius

    def mode_index(self, m1: int, m2: int, m3: int) -> tuple[int, int, int]:
        """Array index of integer mode (m1, m2, m3)."""
        half = self.n // 2
        for m in (m1, m2, m3):
            if not (-half <= m < half):
                raise ValueError(f"mode {(m1, m2, m3)} outside [-{half}, {half})")
        return (m1 % self.n, m2 % self.n, m3 % self.n)

    def zeros(self) -> np.ndarray:
        return np.zeros(self.shape, dtype=np.complex128)


def _conj_reflect(coefficients: np.ndarray) -> np.ndarray:
    """Coefficients of conj(f): index k holds conj(c_{-k})."""
    n = coefficients.shape[0]
    idx = (-np.arange(n)) % n
    return np.conj(coefficients[np.ix_(idx, idx, idx)])


def hermitianize(coefficients: np.ndarray) -> np.ndarray:
    """Project a coefficient array onto the Hermitian (real-field) part."""
    return 0.5 * (coefficients + _conj_reflect(coefficients))


@dataclass(frozen=True)
class ScalarSpectralField:
    """Real periodic scalar field stored by Fourier-series coefficients."""

    lattice: Lattice
    coefficients: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.coefficients, dtype=np.complex128, copy=True)
        if arr.shape != self.lattice.shape:
            raise ValueError(
                f"coefficient shape {arr.shape} does not match lattice {self.lattice.shape}"
            )
        if not np.isfinite(arr).all():
            raise ValueError("coefficients contain non-finite values")
        arr.setflags(write=False)
        object.__setattr__(self, "coefficients", arr)

    @property
    def mean(self) -> complex:
        """Series mean, the k = 0 coefficient."""
        return complex(self.coefficients[0, 0, 0])

    def max_abs_coefficient(self) -> float:
        return float(np.abs(self.coefficients).max())

    def __add__(self, other: "ScalarSpectralField") -> "ScalarSpectralField":
        self._check_same_lattice(other)
        return ScalarSpectralField(self.lattice, self.coefficients + other.coefficients)

    def __sub__(self, other: "ScalarSpectralField") -> "ScalarSpectralField":
        self._check_same_lattice(other)
        return ScalarSpectralField(self.lattice, self.coefficients - other.coefficients)

    def __mul__(self, scalar: float) -> "ScalarSpectralField":
        return ScalarSpectralField(self.lattice, self.coefficients * float(scalar))

    __rmul__ = __mul__

    def __neg__(self) -> "ScalarSpectralField":
        return ScalarSpectralField(self.lattice, -self.coefficients)

    def _check_same_lattice(self, other: "ScalarSpectralField") -> None:
        if other.lattice != self.lattice:
            raise ValueError("fields live on different lattices")


@dataclass(frozen=True)
class VelocityField:
    """Divergence-free, zero-mean velocity field as three scalar components.

    The constructor does not verify the invariants (factories do); use
    :meth:`divergence_defect` and :meth:`mean_magnitude` to check them.
    """

    components: tuple[ScalarSpectralField, ScalarSpectralField, ScalarSpectralField]

    def __post_init__(self) -> None:
        comps = tuple(self.components)
        if len(comps) != 3:
            raise ValueError(f"expected 3 components, got {len(comps)}")
        if any(c.lattice != comps[0].lattice for c in comps[1:]):
            raise ValueError("components live on different lattices")
        object.__setattr__(self, "components", comps)

    @property
    def lattice(self) -> Lattice:
        return self.components[0].lattice

    def coefficient_stack(self) -> np.ndarray:
        """Writable (3, n, n, n) copy of the component coefficients."""
        return np.stack([c.coefficients for c in self.components])

    def mean_magnitude(self) -> float:
        return max(abs(c.mean) for c in self.components)

    def max_abs_coefficient(self) -> float:
        return max(c.max_abs_coefficient() for c in self.components)

    def divergence_defect(self) -> float:
        """max_k |k . c(k)| / max_k |k| |c(k)|, 0 for the zero field.

        Uses the derivative wavevector, matching :func:`divergence`.
        """
        lat = self.lattice
        kx, ky, kz = lat.k_deriv
        c1, c2, c3 = (c.coefficients for c in self.components)
        num = np.abs(kx * c1 + ky * c2 + kz * c3)
        den = np.sqrt(lat.ksq_deriv) * np.sqrt(
            np.abs(c1) ** 2 + np.abs(c2) ** 2 + np.abs(c3) ** 2
        )
        scale = float(den.max())
        if scale == 0.0:
            return 0.0
        return float(num.max()) / scale

    def __add__(self, other: "VelocityField") -> "VelocityField":
        return VelocityField(tuple(a + b for a, b in zip(self.components, other.components)))

    def __sub__(self, other: "VelocityField") -> "VelocityField":
        return VelocityField(tuple(a - b for a, b in zip(self.components, other.components)))

    def __mul__(self, scalar: float) -> "VelocityField":
        return VelocityField(tuple(c * scalar for c in self.components))

    __rmul__ = __mul__


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


def _blocks(n_small: int, n_big: int, half: bool):
    """(small, big) index pairs of the blocks holding the modes two sizes share.

    Full layout: 8 corner blocks, every label of the small lattice.  Half
    layout: 4 blocks with m_3 >= 0, and the Nyquist planes of an even small
    lattice are left out (their partner labels would be distinct modes on
    the big one).
    """
    lead = (n_small + 1) // 2  # labels 0..lead-1 lead each axis
    trail = (n_small - 1) // 2 if half else n_small // 2  # the negative ones trail
    axis = (
        (slice(0, lead), slice(0, lead)),
        (slice(n_small - trail, n_small), slice(n_big - trail, n_big)),
    )
    for pairs in _iter_product(axis, axis, axis[:1] if half else axis):
        yield tuple(zip(*pairs))


def _embed(c: np.ndarray, n_big: int, half: bool) -> np.ndarray:
    n = c.shape[0]
    if n_big < n:
        raise ValueError(f"cannot embed n={n} into smaller n_pad={n_big}")
    out = np.zeros((n_big, n_big, n_big // 2 + 1 if half else n_big), dtype=np.complex128)
    for small, big in _blocks(n, n_big, half):
        out[big] = c[small]
    return out


def _restrict(c: np.ndarray, n_small: int, half: bool) -> np.ndarray:
    n = c.shape[0]
    if n_small > n:
        raise ValueError(f"cannot restrict n={n} to larger n_small={n_small}")
    out = np.zeros((n_small, n_small, n_small // 2 + 1 if half else n_small), dtype=c.dtype)
    for small, big in _blocks(n_small, n, half):
        out[small] = c[big]
    return out


def embed_coefficients(c: np.ndarray, n_pad: int) -> np.ndarray:
    """Embed fft-layout coefficients into a larger lattice (zero padding)."""
    return _embed(c, n_pad, half=False)


def restrict_coefficients(c: np.ndarray, n_small: int) -> np.ndarray:
    """Crop fft-layout coefficients to a smaller lattice (mode truncation)."""
    return _restrict(c, n_small, half=False)


def to_grid(c: np.ndarray, n_grid: int) -> np.ndarray:
    """Real samples on an n_grid^3 grid of half-layout coefficients (n, n, n//2+1).

    Zero-pads when n_grid > n; that embed drops the Nyquist planes of the
    input, which the three-halves rule and the band-limited products hold
    at zero anyway.
    """
    if n_grid != c.shape[0]:
        c = _embed(c, n_grid, half=True)
    return scipy.fft.irfftn(c, s=(n_grid,) * 3, axes=(0, 1, 2), norm="forward")


def from_grid(values: np.ndarray, n_out: int) -> np.ndarray:
    """Half-layout coefficients of real grid samples, truncated to n_out modes.

    Truncation drops the Nyquist planes of the n_out lattice, like
    :func:`to_grid`'s embed.
    """
    c = scipy.fft.rfftn(values, axes=(0, 1, 2), norm="forward")
    if n_out != values.shape[0]:
        c = _restrict(c, n_out, half=True)
    return c


def to_physical(f: ScalarSpectralField) -> np.ndarray:
    """Real grid samples of the field at the n^3 lattice points.

    Reads the half layout only, so it relies on the Hermitian symmetry every
    constructor keeps; use :func:`hermitian_defect` to measure it.
    """
    return to_grid(half_spectrum(f.coefficients), f.lattice.n)


def hermitian_defect(f: ScalarSpectralField) -> float:
    """max |Im f| / max |Re f| over the grid; 0 for the zero field.

    The one complex n-d ``numpy.fft`` call in the package: it must see the
    imaginary part of the inverse transform, which the real pair
    (:func:`to_grid`) never forms.
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
    return ScalarSpectralField(lattice, full_spectrum(from_grid(arr, lattice.n), lattice.n))


def gradient(f: ScalarSpectralField) -> tuple[ScalarSpectralField, ...]:
    """Spectral gradient; Nyquist derivative components are zeroed."""
    lat = f.lattice
    return tuple(
        ScalarSpectralField(lat, 1j * kd * f.coefficients) for kd in lat.k_deriv
    )


def divergence(u: VelocityField) -> ScalarSpectralField:
    lat = u.lattice
    out = lat.zeros()
    for kd, comp in zip(lat.k_deriv, u.components):
        out += 1j * kd * comp.coefficients
    return ScalarSpectralField(lat, out)


def _as_component_arrays(candidate) -> tuple[Lattice, list[np.ndarray]]:
    if isinstance(candidate, VelocityField):
        comps = candidate.components
    else:
        comps = tuple(candidate)
        if len(comps) != 3 or not all(isinstance(c, ScalarSpectralField) for c in comps):
            raise TypeError("expected a VelocityField or three scalar fields")
        if any(c.lattice != comps[0].lattice for c in comps[1:]):
            raise ValueError("components live on different lattices")
    return comps[0].lattice, [c.coefficients for c in comps]


def leray_project(candidate) -> VelocityField:
    """Project a candidate velocity onto its divergence-free part.

    Accepts a :class:`VelocityField` or a sequence of three scalar fields.
    The mean must already vanish; the k = 0 mode is left untouched.
    """
    lat, arrays = _as_component_arrays(candidate)
    scale = max(float(np.abs(a).max()) for a in arrays)
    mean_mag = max(abs(complex(a[0, 0, 0])) for a in arrays)
    if mean_mag > MEAN_TOLERANCE * max(scale, 1e-300):
        raise NonzeroMeanError(
            f"velocity candidate has nonzero mean (|c_0| = {mean_mag:.3e})"
        )
    projected = project_arrays(np.stack(arrays), lat)
    return VelocityField(tuple(ScalarSpectralField(lat, c) for c in projected))


def project_arrays(stack: np.ndarray, lattice: Lattice) -> np.ndarray:
    """Leray projection on a raw (3, n, n, n) or half-layout (3, n, n, n//2+1) stack.

    Uses the derivative wavevector so that projecting a gradient gives 0
    and the divergence of the output vanishes mode by mode; pure-Nyquist
    modes (derivative wavevector zero) pass through untouched.
    """
    width = stack.shape[-1]
    kx, ky, kz = (k[..., :width] for k in lattice.k_deriv)
    factor = kx * stack[0] + ky * stack[1] + kz * stack[2]
    factor *= lattice.inv_ksq_deriv[..., :width]
    out = np.empty_like(stack)
    out[0] = stack[0] - kx * factor
    out[1] = stack[1] - ky * factor
    out[2] = stack[2] - kz * factor
    return out


def taylor_green(lattice: Lattice) -> VelocityField:
    """Fundamental Taylor-Green vortex on the given lattice.

    u = (cos x1 sin x2 sin x3, -sin x1 cos x2 sin x3, 0) in box coordinates;
    all sixteen nonzero coefficients have magnitude 1/8 and |m| = sqrt(3).
    """
    c1 = lattice.zeros()
    c2 = lattice.zeros()
    c3 = lattice.zeros()
    for s1, s2, s3 in _iter_product((1, -1), repeat=3):
        idx = lattice.mode_index(s1, s2, s3)
        c1[idx] = -s2 * s3 / 8.0
        c2[idx] = s1 * s3 / 8.0
    return VelocityField(
        (
            ScalarSpectralField(lattice, c1),
            ScalarSpectralField(lattice, c2),
            ScalarSpectralField(lattice, c3),
        )
    )


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
    band = (lattice.kmag >= kmin) & (lattice.kmag <= kmax)
    if not band.any():
        raise EmptyBandError(f"no lattice mode with {kmin} <= |k| <= {kmax}")
    amplitude = np.zeros(lattice.shape)
    amplitude[band] = lattice.kmag[band] ** (-decay)
    rng = np.random.default_rng(seed)
    stack = np.empty((3,) + lattice.shape, dtype=np.complex128)
    for i in range(3):
        z = rng.standard_normal(lattice.shape) + 1j * rng.standard_normal(lattice.shape)
        stack[i] = hermitianize(z) * amplitude
    stack = project_arrays(stack, lattice)
    return VelocityField(tuple(ScalarSpectralField(lattice, c) for c in stack))


def truncate(f: Field, radius: float, side: str) -> Field:
    """Spectral truncation at |k| = radius; the boundary shell is LOW.

    side="low" keeps |k| <= radius, side="high" keeps |k| > radius; the two
    parts sum back to the original field exactly.
    """
    if side not in ("low", "high"):
        raise ValueError(f"side must be 'low' or 'high', got {side!r}")
    if not (math.isfinite(radius) and radius >= 0.0):
        raise ValueError(f"radius must be finite and >= 0, got {radius}")
    if isinstance(f, VelocityField):
        return VelocityField(tuple(truncate(c, radius, side) for c in f.components))
    keep_low = f.lattice.kmag <= radius
    keep = keep_low if side == "low" else ~keep_low
    return ScalarSpectralField(f.lattice, np.where(keep, f.coefficients, 0.0))


def support_radius(f: Field) -> float:
    """Largest |k| carrying a coefficient above roundoff; 0 if none."""
    if isinstance(f, VelocityField):
        return max(support_radius(c) for c in f.components)
    mags = np.abs(f.coefficients)
    scale = float(mags.max())
    if scale == 0.0:
        return 0.0
    significant = mags > 1e-14 * scale
    return float(f.lattice.kmag[significant].max())
