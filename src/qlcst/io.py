"""Binary persistence (QSG1 signals, QCF1 coefficients) and exports.

All multi-byte fields are little-endian.  Quaternion payloads are float64,
row-major, components interleaved scalar-first (w, x, y, z).  Coefficient
payloads are converted to and from the in-memory planes one u1 slab at a
time, so the full interleaved tensor is never held.
"""

import os
import struct

import numpy as np

from .errors import (BadMagic, BadParameter, NonFinite, TrailingBytes,
                     TruncatedFile, VersionMismatch)
from .signal import Grid1D, Grid2D, QSignal2D
from .qlcst import QLCSTCoefficients

SIGNAL_MAGIC = b"QSG1"
COEFF_MAGIC = b"QCF1"
VERSION = 1

_SIG_HEADER = struct.Struct("<4sHIIdddd")
_COEFF_HEADER = struct.Struct("<4sHIIIIdddddddd")


def write_signal(path, f):
    """Write a QSignal2D (or spectrum) as a QSG1 file."""
    g = f.grid
    header = _SIG_HEADER.pack(SIGNAL_MAGIC, VERSION, g.axis1.n, g.axis2.n,
                              g.axis1.origin, g.axis2.origin,
                              g.axis1.spacing, g.axis2.spacing)
    payload = np.ascontiguousarray(f.data, dtype="<f8").tobytes()
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(payload)


def _read_exact(fh, n, what):
    buf = fh.read(n)
    if len(buf) != n:
        raise TruncatedFile("file ends inside %s" % what)
    return buf


def _check_payload_size(fh, nbytes):
    """Refuse a file whose remainder is not exactly the header-declared
    payload, before anything is allocated or read, so an absurd header count
    never reaches the read as a huge request."""
    left = os.fstat(fh.fileno()).st_size - fh.tell()
    if left < nbytes:
        raise TruncatedFile("file ends inside payload")
    if left > nbytes:
        raise TrailingBytes("%d bytes follow the payload" % (left - nbytes))


def _check_finite(values, what):
    if not np.all(np.isfinite(values)):
        raise NonFinite("non-finite value in the %s" % what)


def read_signal(path):
    """Read a QSG1 file back into a QSignal2D."""
    with open(path, "rb") as fh:
        raw = _read_exact(fh, _SIG_HEADER.size, "header")
        magic, version, n1, n2, o1, o2, d1, d2 = _SIG_HEADER.unpack(raw)
        if magic != SIGNAL_MAGIC:
            raise BadMagic("unexpected magic %r" % magic)
        if version != VERSION:
            raise VersionMismatch("unsupported signal version %d" % version)
        _check_finite((o1, o2, d1, d2), "header")
        nbytes = n1 * n2 * 4 * 8
        _check_payload_size(fh, nbytes)
        payload = _read_exact(fh, nbytes, "payload")
    data = np.frombuffer(payload, dtype="<f8").reshape(n1, n2, 4).astype(float)
    _check_finite(data, "payload")
    grid = Grid2D(Grid1D(n1, o1, d1), Grid1D(n2, o2, d2))
    return QSignal2D(data, grid)


def write_coefficients(path, c):
    """Write QLCSTCoefficients as a QCF1 file (grids + payload only)."""
    u, w = c.ugrid, c.wgrid
    header = _COEFF_HEADER.pack(
        COEFF_MAGIC, VERSION, u.axis1.n, u.axis2.n, w.axis1.n, w.axis2.n,
        u.axis1.origin, u.axis2.origin, u.axis1.spacing, u.axis2.spacing,
        w.axis1.origin, w.axis2.origin, w.axis1.spacing, w.axis2.spacing)
    slab = np.empty((u.axis2.n,) + w.shape + (4,))
    with open(path, "wb") as fh:
        fh.write(header)
        for i in range(u.axis1.n):
            fh.write(c.u1_slab(i, slab).astype("<f8", copy=False).tobytes())


def read_coefficients(path):
    """Read a QCF1 file; window/matrix metadata is not stored in the file."""
    with open(path, "rb") as fh:
        raw = _read_exact(fh, _COEFF_HEADER.size, "header")
        fields = _COEFF_HEADER.unpack(raw)
        magic, version = fields[0], fields[1]
        if magic != COEFF_MAGIC:
            raise BadMagic("unexpected magic %r" % magic)
        if version != VERSION:
            raise VersionMismatch("unsupported coefficient version %d" % version)
        nu1, nu2, nw1, nw2 = fields[2:6]
        uo1, uo2, ud1, ud2, wo1, wo2, wd1, wd2 = fields[6:]
        _check_finite(fields[6:], "header")
        slab_bytes = nu2 * nw1 * nw2 * 4 * 8
        # The planes are allocated up front, so a wrong size is refused first.
        _check_payload_size(fh, nu1 * slab_bytes)
        ugrid = Grid2D(Grid1D(nu1, uo1, ud1), Grid1D(nu2, uo2, ud2))
        wgrid = Grid2D(Grid1D(nw1, wo1, wd1), Grid1D(nw2, wo2, wd2))
        c = QLCSTCoefficients.empty(ugrid, wgrid)
        for i in range(nu1):
            slab = np.frombuffer(_read_exact(fh, slab_bytes, "payload"),
                                 dtype="<f8")
            _check_finite(slab, "payload")
            c.set_u1_slab(i, slab.reshape(nu2, nw1, nw2, 4))
    return c


def coefficient_slice(c, fixed, index):
    """Magnitude of a 2D slice of the 4D coefficients.

    fixed = "u": freeze the position index, return the (w1, w2) magnitude map.
    fixed = "w": freeze the frequency index, return the (u1, u2) map.
    """
    if fixed not in ("u", "w"):
        raise ValueError("fixed must be 'u' or 'w'")
    i, j = index
    for k, n in zip(index, (c.ugrid if fixed == "u" else c.wgrid).shape):
        if not 0 <= k < n:
            raise BadParameter("%s index %d is outside [0, %d)" % (fixed, k, n))
    a4, b4 = c.views4()
    if fixed == "u":
        a, b = a4[i, :, j], b4[i, :, j]
    else:
        a, b = a4[:, i, :, j], b4[:, i, :, j]
    return np.sqrt(a.real ** 2 + a.imag ** 2 + b.real ** 2 + b.imag ** 2)


def export_slice_csv(path, mag):
    with open(path, "w", newline="") as fh:
        for row in mag:
            fh.write(",".join("%.17g" % v for v in row) + "\n")


def export_slice_pgm(path, mag):
    """8-bit P5 PGM of a magnitude map, linear min-max scaled."""
    lo = float(mag.min())
    hi = float(mag.max())
    scale = 255.0 / (hi - lo) if hi > lo else 0.0
    pix = np.round((mag - lo) * scale).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(b"P5\n%d %d\n255\n" % (pix.shape[1], pix.shape[0]))
        fh.write(pix.tobytes())
