import math
import struct

import numpy as np
import pytest

from nsvlab.fields import (
    Lattice,
    from_grid,
    full_spectrum,
    half_spectrum,
    random_band_limited,
    taylor_green,
    to_grid,
)
from nsvlab.products import padded_size
from nsvlab.snapshot import MAGIC


@pytest.fixture(scope="session")
def lat8():
    return Lattice(8)


@pytest.fixture(scope="session")
def lat16():
    return Lattice(16)


@pytest.fixture(scope="session")
def lat32():
    return Lattice(32)


@pytest.fixture(scope="session")
def tg16(lat16):
    return taylor_green(lat16)


@pytest.fixture(scope="session")
def random16(lat16):
    # band-limited to n/3 so every product in the suite is alias-free
    return random_band_limited(lat16, 1.0, lat16.k_unit * (16 // 3), 1.5, seed=404)


def dft_oracle(coefficients: np.ndarray, period: float) -> np.ndarray:
    """Direct evaluation of sum_k c_k e^{ik.x} on the grid; O(n^6)."""
    n = coefficients.shape[0]
    modes = np.fft.fftfreq(n, d=1.0 / n).astype(int)
    x = np.arange(n) * (period / n)
    phase = np.exp(2j * np.pi / period * np.outer(modes, x))  # (mode, point)
    out = np.einsum("abc,ax,by,cz->xyz", coefficients, phase, phase, phase)
    return out


def transport_oracle(u, components) -> list[np.ndarray]:
    """u . grad(g) for each scalar field g of components, in convective form.

    u and the three derivatives of g are sampled on the padded grid (3
    inverse transforms per transported component), multiplied, summed and
    transformed back: full-layout coefficients on the padded lattice,
    independent of the div(u (x) g) kernel of the package.
    """
    lat = u.lattice
    n_pad = padded_size(lat.n)
    u_grids = [to_grid(half_spectrum(c.coefficients), n_pad) for c in u.components]
    out = []
    for g in components:
        c = half_spectrum(g.coefficients)
        total = np.zeros((n_pad,) * 3)
        for u_j, kd in zip(u_grids, lat.k_deriv):
            total += u_j * to_grid(1j * half_spectrum(kd) * c, n_pad)
        out.append(full_spectrum(from_grid(total, n_pad), n_pad))
    return out


def big_n_snapshot(path):
    """A valid header that claims three n=1024 components, before 1024
    bytes of payload: 1056 bytes in all."""
    path.write_bytes(struct.pack("<8sIIIId", MAGIC, 1, 3, 1024, 0, 2 * math.pi) + bytes(1024))
    return path
