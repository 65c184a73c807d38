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

Nothing follows the last component; a reader rejects leftover bytes, so a
header whose n disagrees with its payload is an error, not a silent
misread.

The on-disk mode order is the centered (shifted) order, not the fft
layout, so the file is self-describing without knowing numpy conventions.
"""

from __future__ import annotations

import struct

import numpy as np

from .fields import Lattice, ScalarSpectralField, VelocityField, _spectral
from .fields import full_spectrum, half_spectrum

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
        count = n**3
        stack = np.empty((ncomp, n, n, n // 2 + 1), dtype=np.complex128)
        for i in range(ncomp):
            data = np.fromfile(fh, dtype="<c16", count=count)
            if data.size != count:
                raise SnapshotFormatError(
                    f"component {i}: expected {count} coefficients, file truncated"
                )
            if not np.isfinite(data).all():
                raise ValueError("coefficients contain non-finite values")
            stack[i] = half_spectrum(np.fft.ifftshift(data.reshape((n, n, n))))
        if fh.read(1):
            raise SnapshotFormatError(
                f"bytes left after {ncomp} components of n={n}; header and payload disagree"
            )
    return (VelocityField if ncomp == 3 else ScalarSpectralField)._from_half(lattice, stack)
