"""Binary container for field snapshots.

Layout (little-endian):

    bytes 0-7    magic b"NSVFLD01"
    uint32       container version (1)
    uint32       component count (1 scalar, 3 velocity)
    uint32       n (modes per axis)
    uint32       reserved, written as 0
    float64      period
    complex128   components x n^3 coefficients, row-major over integer
                 wavenumbers m1, m2, m3 each running -n/2 ... n/2-1

Nothing follows the last component; a reader checks the file's size
against its header before it allocates, so a header whose n disagrees
with its payload is an error, not a silent misread or a huge allocation.

The on-disk mode order is the centered (shifted) order, not the fft
layout, so the file is self-describing without knowing numpy conventions.
"""

from __future__ import annotations

import struct

import numpy as np

from .fields import Lattice, ScalarSpectralField, VelocityField, _iter_product, _spectral
from .fields import full_spectrum

__all__ = ["SnapshotFormatError", "write_snapshot", "read_snapshot", "MAGIC"]

MAGIC = b"NSVFLD01"
VERSION = 1
_HEADER = struct.Struct("<8sIIIId")


class SnapshotFormatError(ValueError):
    """A snapshot file is malformed or of an unsupported version."""


def write_snapshot(path, field) -> None:
    lattice = _spectral(field).lattice
    components = full_spectrum(field._stack, lattice.n)
    header = _HEADER.pack(
        MAGIC, VERSION, len(components), lattice.n, 0, lattice.period
    )
    with open(path, "wb") as fh:
        fh.write(header)
        for c in components:
            np.fft.fftshift(c).astype("<c16", copy=False).tofile(fh)


def read_snapshot(path):
    """Read a snapshot; returns ScalarSpectralField or VelocityField."""
    import os

    with open(path, "rb") as fh:
        raw = fh.read(_HEADER.size)
        if len(raw) < _HEADER.size:
            raise SnapshotFormatError("file shorter than the snapshot header")
        magic, version, ncomp, n, _reserved, period = _HEADER.unpack(raw)
        if magic != MAGIC:
            raise SnapshotFormatError(f"bad magic {magic!r}; not a snapshot file")
        if version != VERSION:
            raise SnapshotFormatError(f"unsupported snapshot version {version}")
        if ncomp not in (1, 3):
            raise SnapshotFormatError(f"component count must be 1 or 3, got {ncomp}")
        lattice = Lattice(int(n), float(period))
        count, h = n**3, n // 2
        size, expected = os.fstat(fh.fileno()).st_size, _HEADER.size + ncomp * count * 16
        if size != expected:
            fault = "file truncated" if size < expected else "bytes left"
            raise SnapshotFormatError(f"{ncomp} components of n={n} take {expected} bytes, "
                                      f"the file {size}: {fault}; header and payload disagree")
        stack = np.empty((ncomp, n, n, h + 1), dtype=np.complex128)
        # (half-layout, centered) slice pairs: the centered m < 0 and m >= 0
        # halves trade places, and the last axis keeps m_3 >= 0 and puts
        # m_3 = -n/2 at its Nyquist index
        swap = ((slice(None, h), slice(h, None)), (slice(h, None), slice(None, h)))
        last = ((slice(None, h), slice(h, None)), (slice(h, None), slice(None, 1)))
        for i in range(ncomp):
            data = np.fromfile(fh, dtype="<c16", count=count)
            if not np.isfinite(data).all():
                raise ValueError("coefficients contain non-finite values")
            cube = data.reshape((n, n, n))
            for (d0, c0), (d1, c1), (d2, c2) in _iter_product(swap, swap, last):
                stack[i, d0, d1, d2] = cube[c0, c1, c2]
    return (VelocityField if ncomp == 3 else ScalarSpectralField)._from_half(lattice, stack)
