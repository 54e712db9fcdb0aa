"""Binary persistence (QSG1 signals, QCF3 coefficients) and exports.

All multi-byte fields are little-endian.  A QSG1 file is SIGNAL_HEADER (the
point counts, origins and spacings of the grid) and a float64 payload,
row-major, components interleaved scalar-first (w, x, y, z).  A QCF3 file is
COEFF_HEADER (the point counts, origins and spacings of the u, w and signal
grids, both matrices (A, B, C, D), the column tile width in u2 groups, the
window's WINDOW_CODES index and sigma), then, for each column tile of that
width (coefficients._col_tiles) and each u1 in order, the a and then the b
segment of the tile (nw1 x |tile| complex128 each), then, for a custom-table
window, the table as a QSG1 record.  QCF1 and QCF2 files, superseded, are
refused by one rule.

Coefficient files are streamed: write_coefficients writes any coefficient
source tile by tile from its tiles() (an unstored analysis is computed tile
by tile as it is written), and open_coefficients gives a file source whose
tile_factors() reads the row blocks of coefficients._row_blocks of one tile
at a time, so neither holds a coefficient set; read_coefficients is the
file's stored() planes, refused beyond the memory limit, and
coefficient_slice the magnitude of its slice_planes().  Readers check the
header, the file size, the tile width, the grids, the matrices and the
window before anything is allocated, a file that changed since it was
opened before any payload is read, and every payload value as it is read;
the writer checks every value before it is written.  Every output (a
signal, a coefficient file, an exported slice) is written under a temporary
name and renamed to the output when complete, so a failed write leaves none
and an old output as it was.
"""

import contextlib
import math
import os
import struct
from dataclasses import astuple, dataclass

import numpy as np

from .coefficients import _col_tiles, _row_blocks, _Source
from .errors import (BadMagic, BadParameter, NonFinite, QlcstError, TooLarge,
                     TrailingBytes, TruncatedFile, VersionMismatch)
from .lct import ParamMatrix, validate_param
from .signal import Grid1D, Grid2D, QSignal2D
from .window import WindowSpec

SIGNAL_MAGIC = b"QSG1"
COEFF_MAGIC = b"QCF3"
VERSION = 1

SIGNAL_HEADER = struct.Struct("<4sHIIdddd")
COEFF_HEADER = struct.Struct("<4sH6I12d8dIH2d")
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
    if raw[:4] in (b"QCF1", b"QCF2"):  # the superseded coefficient formats
        raise VersionMismatch("%s files are a superseded format and no longer "
                              "read; regenerate it with `qlcst qlcst`" % raw[:4].decode())
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
def _replacing(path, size=0):
    """A binary file handle whose bytes become `path` only if the block ends
    without an exception.  They are written under a temporary name in the
    output's directory (created with the ordinary mode of open(path, "wb"))
    and renamed to the output; on any exception the temporary file is
    removed, so a failed write leaves no partial output and an old output
    as it was.  An output of `size` bytes beyond the free space of the
    directory's file system is refused (TooLarge) before anything is
    written.  An output that exists and is no regular file (a device or a
    pipe) cannot be replaced and is written in place."""
    target = os.path.realpath(path)
    if os.path.exists(target) and not os.path.isfile(target):
        with open(target, "wb") as fh:
            yield fh
        return
    if size:
        st = os.statvfs(os.path.dirname(target))
        if size > st.f_bavail * st.f_frsize:
            raise TooLarge("an output of %.3g GB does not fit in the %.3g GB free "
                           "on %s" % (size / 1e9, st.f_bavail * st.f_frsize / 1e9,
                                      os.path.dirname(target)))
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
    """Write the coefficients of any source as a QCF3 file: a stored set, an
    unstored qlcst_analysis or an open file.  The payload is written
    straight from c.tiles(), column tile outer, for each u1 row of a tile's
    row block its a and then its b segment: a stored set's or a file's
    entries as they are, an analysis's tile products as tiles() computes
    them.  Every tile is checked before it is written, so non-finite
    coefficients raise NonFinite; a file beyond the free space of the
    output's file system is refused (TooLarge) before anything is written,
    and a failed write leaves no file (_replacing)."""
    u, w, x, win = c.ugrid, c.wgrid, c.signal_grid, c.window
    header = COEFF_HEADER.pack(
        COEFF_MAGIC, VERSION, *u.shape, *w.shape, *x.shape, *_grid_fields(u),
        *_grid_fields(w), *_grid_fields(x), *astuple(c.m1), *astuple(c.m2),
        c.col_tiles()[0].stop // w.axis2.n, WINDOW_CODES.index(win.family),
        *win.sigma)
    with _replacing(path, len(header) + 32 * math.prod(u.shape + w.shape)) as fh:
        fh.write(header)
        for rows, _, *planes in c.tiles():
            for plane in planes:
                _check_finite(plane, "coefficients")
            for start in range(0, rows.stop - rows.start, w.axis1.n):
                for plane in planes:  # per u1: the a segment, then the b segment
                    fh.write(np.ascontiguousarray(plane[start:start + w.axis1.n],
                                                  "<c16"))
        if win.family == "custom-table":
            _write_signal_record(fh, win.table)


def _identity(fh):
    """(device, inode, size, mtime) of an open file: a file rewritten or
    replaced since differs in at least one of them."""
    st = os.fstat(fh.fileno())
    return st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns


@dataclass
class CoefficientFile(_Source):
    """A QCF3 file as a coefficient source, made by open_coefficients, which
    checks everything but the payload and records the file's _identity.
    Its column tiles are those of its header's width, whatever TILE_COLS.
    Each tile_factors() pass reopens the path and refuses a file whose
    identity changed since, before any payload is read; it reads every
    tile's row blocks (_row_blocks), in the order they lie on disk, into two
    buffers that it reuses, checking every value, and yields views of those
    of the tiles asked for, so a tile stays valid only until the next block
    is read."""

    path: str
    ugrid: Grid2D
    wgrid: Grid2D
    signal_grid: Grid2D
    window: WindowSpec
    m1: ParamMatrix
    m2: ParamMatrix
    tile_width: int
    identity: tuple

    def col_tiles(self):
        return _col_tiles(self.ugrid.axis2.n, self.wgrid.axis2.n, self.tile_width)

    def tile_factors(self, tiles=None):
        nw1, cols = self.wgrid.axis1.n, self.col_tiles()
        blocks = _row_blocks(self.plane_shape[0], nw1)
        bufs = np.empty((2, blocks[0].stop * cols[0].stop), dtype="<c16")
        with open(self.path, "rb") as fh:
            if _identity(fh) != self.identity:
                raise QlcstError("%s changed since it was opened" % self.path)
            fh.seek(COEFF_HEADER.size)
            for tile in cols:
                for rows in blocks:
                    a, b = (buf[:(rows.stop - rows.start) * (tile.stop - tile.start)]
                            .reshape(-1, tile.stop - tile.start) for buf in bufs)
                    for row in range(0, len(a), nw1):
                        for plane in (a, b):
                            _read_payload(fh, plane[row:row + nw1])
                    if tile in (tiles or cols):
                        yield rows, tile, None, a, b


def open_coefficients(path):
    """Open a QCF3 file as a CoefficientFile.  The header (its tile width
    within [1, N_u2]), the file size, the grids, the matrices, the window
    family and a table window's record are checked here, before any plane
    row is read."""
    with open(path, "rb") as fh:
        fields = _header_fields(fh, COEFF_HEADER, COEFF_MAGIC, "coefficient")
        counts, floats, (width, code), sigma = (fields[:6], fields[6:26], fields[26:28],
                                                fields[28:])
        _check_finite(floats + sigma, "header")
        if code >= len(WINDOW_CODES):
            raise BadParameter("unknown window family code %d" % code)
        if not 1 <= width <= counts[1]:
            raise BadParameter("column tile width %d is not within [1, %d] u2 groups"
                               % (width, counts[1]))
        family = WINDOW_CODES[code]
        payload = 32 * math.prod(counts[:4])
        _check_payload_size(fh, payload, more=family == "custom-table")
        ugrid, wgrid, sgrid = (_grid(*counts[2 * i:2 * i + 2], *floats[4 * i:4 * i + 4])
                               for i in range(3))
        m1, m2 = validate_param(*floats[12:16]), validate_param(*floats[16:20])
        table = None
        if family == "custom-table":
            fh.seek(payload, os.SEEK_CUR)
            table = _read_signal_record(fh)
        return CoefficientFile(os.path.abspath(path), ugrid, wgrid, sgrid,
                               WindowSpec(family, sigma, table), m1, m2, width,
                               _identity(fh))


def read_coefficients(path):
    """Read a QCF3 file into complete QLCSTCoefficients: its stored() planes,
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
