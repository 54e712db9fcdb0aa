"""Binary persistence (QSG1 signals, QCF2 coefficients) and exports.

All multi-byte fields are little-endian.  A QSG1 file is SIGNAL_HEADER (the
point counts, origins and spacings of the grid) and a float64 payload,
row-major, components interleaved scalar-first (w, x, y, z).  A QCF2 file is
COEFF_HEADER (the u and w grids, both matrices (A, B, C, D), the window's
WINDOW_CODES index and sigma), then for each u1 the a and the b row block of
the planes (nw1 x nu2*nw2 complex128 each), then, for a custom-table window,
the table as a QSG1 record.  QCF1 files (no window or matrices) are refused.

Coefficient files are streamed: write_coefficients writes any coefficient
source one u1 row at a time from its tile_factors() in row order (one group
of all tiles), each row joined from its column tiles in one reused row
buffer (an unstored analysis is computed row by row as it is written, each
tile as tiles() computes it), and open_coefficients gives a file source
whose tile_factors() reads the row blocks of coefficients._row_blocks, so
neither holds a coefficient set; read_coefficients is the file's stored()
planes, refused beyond the memory limit, and coefficient_slice the
magnitude of its slice_planes().  Readers check the header, the file size,
the matrices and the window before anything is allocated, a file that
changed since it was opened before any payload is read, and every payload
value as it is read; the writer checks every value before it is written.
Every output (a signal, a coefficient file, an exported slice) is written
under a temporary name and renamed to the output when complete, so a failed
write leaves none and an old output as it was.
"""

import contextlib
import os
import struct
from dataclasses import astuple, dataclass

import numpy as np

from .coefficients import _row_blocks, _Source
from .errors import (BadMagic, BadParameter, NonFinite, QlcstError,
                     TrailingBytes, TruncatedFile, VersionMismatch)
from .lct import ParamMatrix, validate_param
from .signal import Grid1D, Grid2D, QSignal2D
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
    """Write a QSignal2D (or spectrum) as a QSG1 file (_replacing), or NonFinite."""
    _check_finite(f.data, "signal")
    with _replacing(path) as fh:
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
    """NonFinite unless every value is finite, tested on the float view of
    complex values (0.023 s per 170 MB against 0.029 s for the complex test,
    2-core Xeon)."""
    values = np.asarray(values)
    if values.dtype.kind == "c":
        values = values.view(values.real.dtype)
    if not np.isfinite(values).all():
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


@contextlib.contextmanager
def _replacing(path):
    """A binary file handle whose bytes become `path` only if the block ends
    without an exception.  They are written under a temporary name in the
    output's directory (created with the ordinary mode of open(path, "wb"))
    and renamed to the output; on any exception the temporary file is
    removed, so a failed write leaves no partial output and an old output
    as it was.  An output that exists and is no regular file (a device or a
    pipe) cannot be replaced and is written in place."""
    target = os.path.realpath(path)
    if os.path.exists(target) and not os.path.isfile(target):
        with open(target, "wb") as fh:
            yield fh
        return
    tmp = os.path.join(os.path.dirname(target), ".%s.%s.tmp"
                       % (os.path.basename(target), os.urandom(6).hex()))
    fh = open(tmp, "xb")
    try:
        with fh:
            yield fh
        # The old output is removed, not renamed over: ext4 flushes a file
        # renamed over another to disk (auto_da_alloc), which cost 0.07 s
        # per 170 MB file on an ext4 virtio disk.
        with contextlib.suppress(FileNotFoundError):
            os.remove(target)
        os.rename(tmp, target)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def write_coefficients(path, c):
    """Write the coefficients of any source as a QCF2 file: a stored set, an
    unstored qlcst_analysis or an open file.  The payload is written one u1
    row at a time from c.tile_factors() of one group, row order, each row
    joined tile by tile into one reused (nw1, nu2*nw2) buffer: a stored
    set's or a file's rows as they are, an analysis's rows k[u1 rows] @ a
    computed as tiles() computes them, so no block product is held.  Every
    row is checked before it is written, so non-finite coefficients raise
    NonFinite, and a failed write leaves no file (_replacing)."""
    u, w, win = c.ugrid, c.wgrid, c.window
    header = COEFF_HEADER.pack(
        COEFF_MAGIC, VERSION, *u.shape, *w.shape, *_grid_fields(u),
        *_grid_fields(w), *astuple(c.m1), *astuple(c.m2),
        WINDOW_CODES.index(win.family), *win.sigma)
    nw1, groups = w.axis1.n, c._groups(whole=True)
    row = np.empty((nw1, c.plane_shape[1]), dtype=complex)
    with _replacing(path) as fh:
        fh.write(header)
        # the tiles of one row block at a time, taken without reading ahead
        for block in zip(*[c.tile_factors(groups)] * len(groups[0])):
            rows = block[0][0]
            for start in range(0, rows.stop - rows.start, nw1):
                u1 = slice(start, start + nw1)
                for i in range(2):  # per u1: the a row, then the b row
                    for _, cols, k, *parts in block:
                        if k is None:
                            row[:, cols] = parts[i][u1]
                        else:
                            np.matmul(k[u1], parts[i], out=row[:, cols])
                    _check_finite(row, "coefficients")
                    fh.write(row.astype("<c16", copy=False))
        if win.family == "custom-table":
            _write_signal_record(fh, win.table)


def _identity(fh):
    """(device, inode, size, mtime) of an open file: a file rewritten or
    replaced since differs in at least one of them."""
    st = os.fstat(fh.fileno())
    return st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns


@dataclass
class CoefficientFile(_Source):
    """A QCF2 file as a coefficient source, made by open_coefficients, which
    checks everything but the payload and records the file's _identity.
    Each tile_factors() pass reopens the path and refuses a file whose
    identity changed since, before any payload is read; it reads the row
    blocks of _row_blocks into two buffers that it reuses, checking every
    value, and yields views of their tiles, row blocks outer, so a tile stays
    valid only until the next block is read."""

    path: str
    ugrid: Grid2D
    wgrid: Grid2D
    window: WindowSpec
    m1: ParamMatrix
    m2: ParamMatrix
    identity: tuple

    def tile_factors(self, groups):
        nrows, ncols = self.plane_shape
        nw1 = self.wgrid.axis1.n
        blocks = _row_blocks(nrows, nw1)
        bufs = [np.empty((blocks[0].stop, ncols), dtype="<c16") for _ in range(2)]
        with open(self.path, "rb") as fh:
            if _identity(fh) != self.identity:
                raise QlcstError("%s changed since it was opened" % self.path)
            fh.seek(COEFF_HEADER.size)
            for rows in blocks:
                n = rows.stop - rows.start
                for row in range(0, n, nw1):
                    for buf in bufs:
                        _read_payload(fh, buf[row:row + nw1])
                for cols in sum(groups, []):
                    yield rows, cols, None, bufs[0][:n, cols], bufs[1][:n, cols]


def open_coefficients(path):
    """Open a QCF2 file as a CoefficientFile.  The header, the file size, the
    matrices, the window family and a table window's record are checked
    here, before any plane row is read."""
    with open(path, "rb") as fh:
        fields = _header_fields(fh, COEFF_HEADER, COEFF_MAGIC, "coefficient")
        nu1, nu2, nw1, nw2 = fields[:4]
        _check_finite(fields[4:20] + fields[21:], "header")
        if fields[20] >= len(WINDOW_CODES):
            raise BadParameter("unknown window family code %d" % fields[20])
        family = WINDOW_CODES[fields[20]]
        payload = 32 * nu1 * nw1 * nu2 * nw2
        _check_payload_size(fh, payload, more=family == "custom-table")
        ugrid, wgrid = _grid(nu1, nu2, *fields[4:8]), _grid(nw1, nw2, *fields[8:12])
        m1, m2 = validate_param(*fields[12:16]), validate_param(*fields[16:20])
        table = None
        if family == "custom-table":
            fh.seek(payload, os.SEEK_CUR)
            table = _read_signal_record(fh)
        return CoefficientFile(os.path.abspath(path), ugrid, wgrid,
                               WindowSpec(family, fields[21:], table), m1, m2,
                               _identity(fh))


def read_coefficients(path):
    """Read a QCF2 file into complete QLCSTCoefficients: its stored() planes,
    everything checked by open_coefficients and tile_factors()."""
    return open_coefficients(path).stored()


def coefficient_slice(c, fixed, index):
    """Magnitude of a 2D slice of the 4D coefficients of any source
    (c.slice_planes, which checks fixed and index).

    fixed = "u": freeze the position index, return the (w1, w2) magnitude map.
    fixed = "w": freeze the frequency index, return the (u1, u2) map.
    A magnitude above the float range, of finite components, is NonFinite.
    """
    a, b = c.slice_planes(fixed, index)
    mag = np.hypot(np.abs(a), np.abs(b))  # no square overflows
    _check_finite(mag, "slice magnitude")
    return mag


def export_slice_csv(path, mag):
    """CSV of a magnitude map, one row per line (_replacing)."""
    with _replacing(path) as fh:
        for row in mag:
            fh.write((",".join("%.17g" % v for v in row) + "\n").encode())


def export_slice_pgm(path, mag):
    """8-bit P5 PGM of a magnitude map, linear min-max scaled (_replacing)."""
    lo = float(mag.min())
    hi = float(mag.max())
    # divided by the range first: 255 / (hi - lo) overflows for a subnormal range
    scaled = (mag - lo) / (hi - lo) * 255.0 if hi > lo else np.zeros_like(mag)
    pix = np.round(scaled).astype(np.uint8)
    with _replacing(path) as fh:
        fh.write(b"P5\n%d %d\n255\n" % (pix.shape[1], pix.shape[0]))
        fh.write(pix.tobytes())
