"""Binary persistence (QSG1 signals, QCF2 coefficients) and exports.

All multi-byte fields are little-endian.  A QSG1 file is SIGNAL_HEADER (the
point counts, origins and spacings of the grid) and a float64 payload,
row-major, components interleaved scalar-first (w, x, y, z).  A QCF2 file is
COEFF_HEADER (the u and w grids, both matrices (A, B, C, D), the window's
WINDOW_CODES index and sigma), then for each u1 the a and the b row block of
the planes (nw1 x nu2*nw2 complex128 each), then, for a custom-table window,
the table as a QSG1 record.  QCF1 files (no window or matrices) are refused.
"""

import os
import struct
from dataclasses import astuple

import numpy as np

from .errors import (BadMagic, BadParameter, NonFinite, TrailingBytes,
                     TruncatedFile, VersionMismatch)
from .lct import validate_param
from .signal import Grid1D, Grid2D, QSignal2D
from .qlcst import QLCSTCoefficients
from .window import WindowSpec

SIGNAL_MAGIC = b"QSG1"
COEFF_MAGIC = b"QCF2"
VERSION = 1

SIGNAL_HEADER = struct.Struct("<4sHIIdddd")
COEFF_HEADER = struct.Struct("<4sHIIIIdddddddd8dH2d")
WINDOW_CODES = ("fixed-gaussian", "s-gaussian", "constant", "custom-table")


def _grid_fields(g):
    return (g.axis1.origin, g.axis2.origin, g.axis1.spacing, g.axis2.spacing)


def _grid(n1, n2, o1, o2, d1, d2):
    return Grid2D(Grid1D(n1, o1, d1), Grid1D(n2, o2, d2))


def _write_signal_record(fh, f):
    fh.write(SIGNAL_HEADER.pack(SIGNAL_MAGIC, VERSION, *f.grid.shape,
                                *_grid_fields(f.grid)))
    fh.write(np.ascontiguousarray(f.data, dtype="<f8"))


def write_signal(path, f):
    """Write a QSignal2D (or spectrum) as a QSG1 file."""
    with open(path, "wb") as fh:
        _write_signal_record(fh, f)


def _header_fields(fh, header, magic, what):
    """The fields after magic and version of the header at the file position."""
    raw = fh.read(header.size)
    if raw[:4] == b"QCF1":
        raise VersionMismatch("QCF1 files hold no window or matrices and are no "
                              "longer read; regenerate it with `qlcst qlcst`")
    if len(raw) != header.size:
        raise TruncatedFile("file ends inside header")
    fields = header.unpack(raw)
    if fields[0] != magic:
        raise BadMagic("unexpected magic %r" % fields[0])
    if fields[1] != VERSION:
        raise VersionMismatch("unsupported %s version %d" % (what, fields[1]))
    return fields[2:]


def _check_payload_size(fh, nbytes, more=False):
    """Refuse a file whose remainder is not exactly the header-declared
    payload (at least it, if a record follows), before anything is allocated,
    so an absurd header count never reaches the read as a huge request."""
    left = os.fstat(fh.fileno()).st_size - fh.tell()
    if left < nbytes:
        raise TruncatedFile("file ends inside payload")
    if left > nbytes and not more:
        raise TrailingBytes("%d bytes follow the payload" % (left - nbytes))


def _check_finite(values, what):
    if not np.all(np.isfinite(values)):
        raise NonFinite("non-finite value in the %s" % what)


def _read_payload(fh, out):
    """Fill the array out from the file in one contiguous read."""
    if fh.readinto(out) != out.nbytes:
        raise TruncatedFile("file ends inside payload")
    _check_finite(out, "payload")


def _read_signal_record(fh):
    n1, n2, *grid = _header_fields(fh, SIGNAL_HEADER, SIGNAL_MAGIC, "signal")
    _check_finite(grid, "header")
    _check_payload_size(fh, n1 * n2 * 4 * 8)
    data = np.empty((n1, n2, 4), dtype="<f8")
    _read_payload(fh, data)
    return QSignal2D(data, _grid(n1, n2, *grid))


def read_signal(path):
    """Read a QSG1 file back into a QSignal2D."""
    with open(path, "rb") as fh:
        return _read_signal_record(fh)


def write_coefficients(path, c):
    """Write QLCSTCoefficients as a QCF2 file."""
    u, w, win = c.ugrid, c.wgrid, c.window
    header = COEFF_HEADER.pack(
        COEFF_MAGIC, VERSION, *u.shape, *w.shape, *_grid_fields(u),
        *_grid_fields(w), *astuple(c.m1), *astuple(c.m2),
        WINDOW_CODES.index(win.family), *win.sigma)
    with open(path, "wb") as fh:
        fh.write(header)
        for start in range(0, len(c.a), w.axis1.n):
            for plane in (c.a, c.b):
                fh.write(plane[start:start + w.axis1.n].astype("<c16", copy=False))
        if win.family == "custom-table":
            _write_signal_record(fh, win.table)


def read_coefficients(path):
    """Read a QCF2 file into complete QLCSTCoefficients: planes, grids,
    matrices and window, each checked before the planes are allocated."""
    with open(path, "rb") as fh:
        fields = _header_fields(fh, COEFF_HEADER, COEFF_MAGIC, "coefficient")
        nu1, nu2, nw1, nw2 = fields[:4]
        _check_finite(fields[4:20] + fields[21:], "header")
        if fields[20] >= len(WINDOW_CODES):
            raise BadParameter("unknown window family code %d" % fields[20])
        family = WINDOW_CODES[fields[20]]
        shape = (nu1 * nw1, nu2 * nw2)
        _check_payload_size(fh, 32 * shape[0] * shape[1],
                            more=family == "custom-table")
        ugrid, wgrid = _grid(nu1, nu2, *fields[4:8]), _grid(nw1, nw2, *fields[8:12])
        m1, m2 = validate_param(*fields[12:16]), validate_param(*fields[16:20])
        a, b = np.empty(shape, dtype="<c16"), np.empty(shape, dtype="<c16")
        for start in range(0, shape[0], nw1):
            for plane in (a, b):
                _read_payload(fh, plane[start:start + nw1])
        table = _read_signal_record(fh) if family == "custom-table" else None
    return QLCSTCoefficients(a, b, ugrid, wgrid,
                             WindowSpec(family, fields[21:], table), m1, m2)


def coefficient_slice(c, fixed, index):
    """Magnitude of a 2D slice of the 4D coefficients.

    fixed = "u": freeze the position index, return the (w1, w2) magnitude map.
    fixed = "w": freeze the frequency index, return the (u1, u2) map.
    """
    if fixed not in ("u", "w"):
        raise BadParameter("fixed must be 'u' or 'w', got %r" % (fixed,))
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
