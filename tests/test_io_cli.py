import errno
import math
import os
import shlex
import stat
import struct
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
from numpy.polynomial.hermite import hermval
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlcst.cli import cli_main
from qlcst.errors import (BadMagic, BadParameter, NonFinite, QlcstError,
                          SpacingError, TooLarge, TrailingBytes, TruncatedFile,
                          VersionMismatch)
from qlcst.generators import _hermite_mode, gen_signal
from qlcst.io import (COEFF_HEADER, COEFF_MAGIC, SIGNAL_HEADER, SIGNAL_MAGIC,
                      WINDOW_CODES, coefficient_slice, export_slice_pgm,
                      open_coefficients, read_coefficients, read_signal,
                      write_coefficients, write_signal, _write_signal_record)
from qlcst.lct import validate_param
from qlcst.qlcst import (QLCSTCoefficients, qlcst_analysis, qlcst_forward,
                         qlcst_reconstruct)
from qlcst.signal import Grid1D, Grid2D, QSignal2D, fft_output_axis, relative_l2
from qlcst.verify import MATRIX_CASES
from qlcst.window import fixed_gaussian, s_gaussian, table_window, window_eval

FOURIER = validate_param(0, 1, -1, 0)


def random_signal(rng, n1=6, n2=5):
    g = Grid2D(Grid1D.centered(3.0, n1), Grid1D.centered(2.0, n2))
    return QSignal2D(rng.standard_normal(g.shape + (4,)), g)


def test_signal_roundtrip_bitwise(tmp_path):
    rng = np.random.default_rng(30)
    for i in range(100):
        f = random_signal(rng)
        path = tmp_path / ("s%d.qsg" % i)
        write_signal(path, f)
        back = read_signal(path)
        assert np.array_equal(back.data, f.data)
        assert back.grid == f.grid


def test_signal_header_layout(tmp_path):
    f = gen_signal("gaussian", Grid2D.centered(2.0, 4))
    path = tmp_path / "s.qsg"
    write_signal(path, f)
    raw = path.read_bytes()
    magic, version, n1, n2 = SIGNAL_HEADER.unpack_from(raw)[:4]
    assert magic == SIGNAL_MAGIC and version == 1 and (n1, n2) == (4, 4)
    assert len(raw) == SIGNAL_HEADER.size + 4 * 4 * 4 * 8


def test_bad_magic(tmp_path):
    path = tmp_path / "bad.qsg"
    f = gen_signal("gaussian", Grid2D.centered(2.0, 4))
    write_signal(path, f)
    raw = bytearray(path.read_bytes())
    raw[:4] = b"XXXX"
    path.write_bytes(bytes(raw))
    with pytest.raises(BadMagic):
        read_signal(path)


def test_truncated_file(tmp_path):
    path = tmp_path / "trunc.qsg"
    f = gen_signal("gaussian", Grid2D.centered(2.0, 4))
    write_signal(path, f)
    raw = path.read_bytes()
    path.write_bytes(raw[:len(raw) - 7])
    with pytest.raises(TruncatedFile):
        read_signal(path)


def coefficient_file(tmp_path):
    g = Grid2D.centered(4.0, 4)
    c = qlcst_forward(gen_signal("gaussian", g), fixed_gaussian(1, 1),
                      FOURIER, FOURIER)
    path = tmp_path / "c.qcf"
    write_coefficients(path, c)
    return path


def signal_file(tmp_path):
    path = tmp_path / "s.qsg"
    write_signal(path, gen_signal("gaussian", Grid2D.centered(2.0, 4)))
    return path


READERS = pytest.mark.parametrize(
    "make, read", [(signal_file, read_signal), (coefficient_file, read_coefficients)],
    ids=["signal", "coefficients"])


@READERS
def test_trailing_bytes_rejected(tmp_path, make, read):
    path = make(tmp_path)
    path.write_bytes(path.read_bytes() + b"\0")
    with pytest.raises(TrailingBytes):
        read(path)


@READERS
@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("where", ["header", "payload"])
def test_non_finite_rejected(tmp_path, make, read, value, where):
    path = make(tmp_path)
    raw = bytearray(path.read_bytes())
    if where == "payload":
        raw[-8:] = struct.pack("<d", value)
    else:  # the first origin, the first float of the header
        header = SIGNAL_HEADER if read is read_signal else COEFF_HEADER
        fields = list(header.unpack_from(raw))
        fields[next(i for i, v in enumerate(fields) if isinstance(v, float))] = value
        raw[:header.size] = header.pack(*fields)
    path.write_bytes(bytes(raw))
    with pytest.raises(NonFinite):
        read(path)


DEFECTS = ("none", "magic", "version", "count", "header", "payload", "size")
MATRICES = ((0.0, 1.0, -1.0, 0.0), (1.0, 2.0, 0.0, 1.0), (0.5, 1.0, -0.75, 0.5))
BAD_MATRICES = ((1.0, 1.0, 1.0, 1.0), (1.0, 0.0, 0.0, 1.0))  # det 0; B = 0


def _file_with_one_defect(draw, header, magic, counts, defect, meta=(), tail=b"",
                          npayload=None):
    """Bytes of a file in a header layout (magic, version, counts, grid
    floats, then the meta fields), its payload of four floats per product of
    the first npayload counts (all of them by default) and a tail record,
    with at most one defect: a wrong magic or version, a point count below
    2, a non-finite grid or payload value, or the file cut short or
    extended."""
    if defect == "count":
        counts[draw(st.integers(0, len(counts) - 1))] = draw(st.integers(0, 1))
    nfloats = 2 * len(counts)
    grid = draw(st.lists(st.floats(0.01, 10.0), min_size=nfloats, max_size=nfloats))
    nvalues = int(np.prod(counts[:npayload])) * 4
    values = draw(st.lists(st.floats(-1e3, 1e3), min_size=nvalues,
                           max_size=nvalues))
    bad = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    if defect == "header":
        grid[draw(st.integers(0, nfloats - 1))] = bad
    if defect == "payload" and values:
        values[draw(st.integers(0, nvalues - 1))] = bad
    raw = (header.pack(b"XXXX" if defect == "magic" else magic,
                       2 if defect == "version" else 1, *counts, *grid, *meta)
           + struct.pack("<%dd" % nvalues, *values) + tail)
    if defect == "size":
        cut = draw(st.integers(-9, 9).filter(bool))
        raw = raw[:len(raw) + cut] if cut < 0 else raw + bytes(cut)
    return raw


@st.composite
def qsg_bytes(draw):
    counts = [draw(st.integers(2, 4)) for _ in range(2)]
    return _file_with_one_defect(draw, SIGNAL_HEADER, SIGNAL_MAGIC, counts,
                                 draw(st.sampled_from(DEFECTS)))


@st.composite
def qcf_bytes(draw):
    """A QCF3 file of any window family and column tile width, a table
    window with a valid QSG1 table record, or one defect: those of
    _file_with_one_defect (whose counts and grid floats are those of the u,
    w and signal grids, so an empty or non-finite signal grid is drawn), a
    matrix with det != 1 or B = 0, an unknown window family code, or a tile
    width of 0 or wider than N_u2.  The widths are (1, 1), which every
    family takes, or drawn, which only the fixed gaussian takes."""
    defect = draw(st.sampled_from(DEFECTS + ("matrix", "family", "tile width")))
    counts = [draw(st.integers(2, 3)) for _ in range(6)]
    width = draw(st.integers(1, counts[1]))
    if defect == "tile width":
        width = draw(st.sampled_from([0, counts[1] + 1, 2 ** 32 - 1]))
    m1, m2 = draw(st.sampled_from(MATRICES)), draw(st.sampled_from(MATRICES))
    if defect == "matrix":
        m1 = draw(st.sampled_from(BAD_MATRICES))
    code = draw(st.integers(0, len(WINDOW_CODES) - 1))
    if defect == "family":
        code = draw(st.integers(len(WINDOW_CODES), 2 ** 16 - 1))
    sigma = draw(st.one_of(st.just([1.0, 1.0]),
                           st.lists(st.floats(0.1, 5.0), min_size=2, max_size=2)))
    tail = b""
    if code < len(WINDOW_CODES) and WINDOW_CODES[code] == "custom-table":
        tail = _file_with_one_defect(draw, SIGNAL_HEADER, SIGNAL_MAGIC,
                                     [2, 3], "none")
    return _file_with_one_defect(draw, COEFF_HEADER, COEFF_MAGIC, counts, defect,
                                 (*m1, *m2, width, code, *sigma), tail, npayload=4)


def drained(path):
    """open_coefficients(path) after every block of it has been read, each
    checked to be finite stored entries that continue the last, column tile
    outer: a tile's row blocks cover the plane rows in order, and the tiles
    the plane columns."""
    src = open_coefficients(path)
    row = col = 0
    for rows, cols, k, a, b in src.tile_factors():
        assert k is None and rows.start == row and cols.start == col
        assert a.shape == b.shape == (rows.stop - row, cols.stop - col)
        assert np.all(np.isfinite(a)) and np.all(np.isfinite(b))
        row, col = ((0, cols.stop) if rows.stop == src.plane_shape[0]
                    else (rows.stop, col))
    assert (row, col) == (0, src.plane_shape[1])
    return src


@settings(max_examples=300, deadline=None)
@given(raw=st.one_of(st.binary(max_size=200), qsg_bytes(), qcf_bytes()))
def test_readers_accept_valid_or_raise_qlcst_error(tmp_path_factory, raw):
    """Any bytes give a finite object matching its header, or a QlcstError;
    for a coefficient file, both the whole read and the drained file
    source."""
    path = tmp_path_factory.mktemp("fuzz") / "f.bin"
    path.write_bytes(raw)
    for read in (read_signal, read_coefficients, drained):
        try:
            obj = read(path)
        except QlcstError:
            continue
        if read is read_signal:
            assert obj.data.shape == obj.grid.shape + (4,)
            assert np.all(np.isfinite(obj.data))
            continue
        if read is read_coefficients:
            assert np.all(np.isfinite(obj.a)) and np.all(np.isfinite(obj.b))
        assert obj.window.family in WINDOW_CODES


@pytest.mark.parametrize("n", [2 ** 31, 3_000_000])
def test_absurd_signal_header(tmp_path, n):
    """A header whose point counts exceed the file is refused before any
    read is attempted, also through the CLI."""
    path = tmp_path / "bad.qsg"
    path.write_bytes(SIGNAL_HEADER.pack(SIGNAL_MAGIC, 1, n, n,
                                        0.0, 0.0, 1.0, 1.0) + bytes(32))
    with pytest.raises(TruncatedFile):
        read_signal(path)
    assert cli_main(["qlct", "--fast", "-i", str(path),
                     "-o", str(tmp_path / "out.qsg"),
                     "--m1", "0,1,-1,0", "--m2", "0,1,-1,0"]) == 1


@pytest.mark.parametrize("n", [2 ** 31, 3_000_000])
def test_absurd_coefficient_header(tmp_path, capsys, n):
    """The coefficient twin of test_absurd_signal_header: counts far beyond
    the file are refused before the planes are allocated, also through
    export and reconstruct."""
    path = tmp_path / "bad.qcf"
    path.write_bytes(COEFF_HEADER.pack(COEFF_MAGIC, 1, n, n, n, n, n, n,
                                       *(0.0, 0.0, 1.0, 1.0) * 3,
                                       *MATRICES[0], *MATRICES[0], 1, 0, 1.0, 1.0)
                     + bytes(64))
    with pytest.raises(TruncatedFile):
        read_coefficients(path)
    out = tmp_path / "out"
    assert cli_main(["export", "-i", str(path), "-o", str(out),
                     "--slice", "u", "--index", "0,0"]) == 1
    assert cli_main(["reconstruct", "-i", str(path), "-o", str(out)]) == 1
    assert capsys.readouterr().err.count("error: file ends inside payload") == 2
    assert not out.exists()


def test_version_mismatch(tmp_path):
    path = tmp_path / "vers.qsg"
    f = gen_signal("gaussian", Grid2D.centered(2.0, 4))
    write_signal(path, f)
    raw = bytearray(path.read_bytes())
    raw[4:6] = struct.pack("<H", 9)
    path.write_bytes(bytes(raw))
    with pytest.raises(VersionMismatch):
        read_signal(path)


def test_coefficient_roundtrip(tmp_path):
    g = Grid2D.centered(4.0, 6)
    f = gen_signal("gaussian", g)
    c = qlcst_forward(f, fixed_gaussian(1, 1), FOURIER, FOURIER)
    path = tmp_path / "c.qcf"
    write_coefficients(path, c)
    assert path.read_bytes()[:4] == COEFF_MAGIC
    back = read_coefficients(path)
    assert np.array_equal(back.data, c.data)
    assert back.ugrid == c.ugrid and back.wgrid == c.wgrid
    assert (back.window, back.m1, back.m2) == (c.window, c.m1, c.m2)


def lattice_table(g):
    """fixed-gauss:1,1 sampled at every offset u - x of the grid g, so the
    table lookup lands on lattice points and matches the separable window."""
    lat = Grid1D(2 * g.axis1.n - 1, -(g.axis1.n - 1) * g.axis1.spacing,
                 g.axis1.spacing)
    t = lat.points
    table = window_eval(fixed_gaussian(1, 1), (t[:, None], t[None, :]), (1.0, 1.0))
    return QSignal2D(table, Grid2D(lat, lat))


@pytest.mark.parametrize("table", [False, True], ids=["fixed-gauss", "table"])
def test_coefficient_file_is_header_plus_planar_payload(tmp_path, monkeypatch, table):
    """QCF3 bytes are the header (the u, w and signal grids, matrices, tile
    width, window), then for each column tile (two of two u2 groups here,
    at TILE_COLS = 8) and each u1 the tile's a and b segments as
    complex128, then a table window's QSG1 record; reading restores planes
    and metadata bit for bit, and a rewrite gives the same bytes."""
    monkeypatch.setattr("qlcst.coefficients.TILE_COLS", 8)
    g = Grid2D(Grid1D.centered(3.0, 5), Grid1D.centered(2.0, 4))
    rng = np.random.default_rng(31)
    f = QSignal2D(rng.standard_normal(g.shape + (4,)), g)
    m1, m2 = MATRIX_CASES[1][1]()
    window = table_window(lattice_table(g)) if table else fixed_gaussian(0.5, 2)
    c = qlcst_forward(f, window, m1, m2)
    path = tmp_path / "c.qcf"
    write_coefficients(path, c)
    raw = path.read_bytes()
    u, w = c.ugrid, c.wgrid
    assert COEFF_HEADER.unpack_from(raw) == (
        COEFF_MAGIC, 1, 5, 4, 5, 4, 5, 4,
        *(v for x in (u, w, g)
          for v in (x.axis1.origin, x.axis2.origin, x.axis1.spacing, x.axis2.spacing)),
        m1.a, m1.b, m1.c, m1.d, m2.a, m2.b, m2.c, m2.d, 2,
        WINDOW_CODES.index(window.family), *window.sigma)
    tiles = [slice(0, 8), slice(8, 16)]
    assert c.col_tiles() == tiles
    blocks = b"".join(p[i * 5:(i + 1) * 5, cols].astype("<c16").tobytes()
                      for cols in tiles for i in range(5) for p in (c.a, c.b))
    tpath = tmp_path / "t.qsg"
    write_signal(tpath, lattice_table(g))
    record = tpath.read_bytes() if table else b""
    assert raw == raw[:COEFF_HEADER.size] + blocks + record
    back = read_coefficients(path)
    assert np.array_equal(back.a, c.a) and np.array_equal(back.b, c.b)
    assert (back.ugrid, back.wgrid, back.signal_grid) == (c.ugrid, c.wgrid, g)
    assert (back.window, back.m1, back.m2) == (window, m1, m2)
    for src in (back, open_coefficients(path)):
        again = tmp_path / "again.qcf"
        write_coefficients(again, src)
        assert again.read_bytes() == raw


def test_qcf1_file_refused(tmp_path, capsys):
    path = coefficient_file(tmp_path)
    raw = bytearray(path.read_bytes())
    raw[:4] = b"QCF1"
    path.write_bytes(bytes(raw))
    with pytest.raises(VersionMismatch, match="QCF1.*regenerate"):
        read_coefficients(path)
    out = tmp_path / "r.qsg"
    assert cli_main(["reconstruct", "-i", str(path), "-o", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: QCF1 ")
    assert not out.exists()


def test_qcf2_file_refused(tmp_path, capsys):
    """A QCF2 file, whose payload stored whole u1 rows and whose header held
    no signal grid or tile width, is refused by the one rule for superseded
    formats: VersionMismatch saying to regenerate it, and exit 1 with one
    error line and no output."""
    n = 4
    qcf2_header = struct.Struct("<4sHIIIIdddddddd8dH2d")
    path = tmp_path / "c.qcf"
    path.write_bytes(qcf2_header.pack(b"QCF2", 1, n, n, n, n, *(0.0, 0.0, 1.0, 1.0) * 2,
                                      *MATRICES[0], *MATRICES[0], 0, 1.0, 1.0)
                     + bytes(32 * n ** 4))
    with pytest.raises(VersionMismatch, match="QCF2.*regenerate it with `qlcst qlcst`"):
        open_coefficients(path)
    out = tmp_path / "r.qsg"
    assert cli_main(["reconstruct", "-i", str(path), "-o", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: QCF2 ")
    assert not out.exists()


# The QCF3 header fields of the tile width, the signal grid's second count,
# its first origin and its first spacing (COEFF_HEADER.unpack order).
HEADER_DEFECTS = {"tile-width-0": (28, 0), "tile-width-above-n-u2": (28, 5),
                  "signal-count-0": (7, 0), "signal-count-1": (7, 1),
                  "signal-origin-nan": (16, math.nan),
                  "signal-spacing-inf": (18, math.inf), "signal-spacing-0": (18, 0.0)}


@pytest.mark.parametrize("field, value", HEADER_DEFECTS.values(), ids=HEADER_DEFECTS.keys())
def test_coefficient_header_defects_refused(tmp_path, capsys, monkeypatch, field, value):
    """A tile width of 0 or wider than N_u2 (4 here) and a signal grid that
    is empty, not finite or not increasing are refused by open_coefficients
    with a QlcstError before any payload is read, and export exits 1 with
    one error line and no output."""
    path = coefficient_file(tmp_path)
    raw = bytearray(path.read_bytes())
    fields = list(COEFF_HEADER.unpack_from(raw))
    fields[field] = value
    raw[:COEFF_HEADER.size] = COEFF_HEADER.pack(*fields)
    path.write_bytes(bytes(raw))

    def unread(fh, out):
        raise AssertionError("payload read")
    monkeypatch.setattr("qlcst.io._read_payload", unread)
    with pytest.raises(QlcstError):
        open_coefficients(path)
    out = tmp_path / "s.csv"
    capsys.readouterr()
    assert cli_main(["export", "-i", str(path), "-o", str(out), "--slice", "u",
                     "--index", "0,0"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert not out.exists()


def test_truncated_coefficient_file(tmp_path):
    g = Grid2D.centered(4.0, 4)
    c = qlcst_forward(gen_signal("gaussian", g), fixed_gaussian(1, 1),
                      FOURIER, FOURIER)
    path = tmp_path / "c.qcf"
    write_coefficients(path, c)
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(TruncatedFile):
        read_coefficients(path)


def test_coefficient_file_truncated_while_read(tmp_path):
    """A file cut short after a tile_factors() pass has begun, past the
    check of the file's identity, ends inside the payload of its last
    block."""
    path = tmp_path / "c.qcf"
    write_coefficients(path, qlcst_analysis(gen_signal("gaussian", Grid2D.centered(8.0, 12)),
                                            fixed_gaussian(1, 1), FOURIER, FOURIER))
    src = open_coefficients(path)
    blocks = src.tile_factors()
    next(blocks)
    os.truncate(path, os.path.getsize(path) - 8)
    with pytest.raises(TruncatedFile, match="file ends inside payload"):
        for _ in blocks:
            pass


def test_coefficient_file_changed_after_open_refused(tmp_path, monkeypatch):
    """A path rewritten after open_coefficients, here at other widths, is
    refused by the held file source before any payload is read, so its
    energy and window never mix two files."""
    f = gen_signal("gaussian", Grid2D.centered(8.0, 8))
    path = tmp_path / "c.qcf"
    write_coefficients(path, qlcst_analysis(f, fixed_gaussian(1, 1), FOURIER, FOURIER))
    src = open_coefficients(path)
    write_coefficients(path, qlcst_analysis(f, fixed_gaussian(0.3, 0.3), FOURIER, FOURIER))

    def unread(fh, out):
        raise AssertionError("payload read")
    monkeypatch.setattr("qlcst.io._read_payload", unread)
    with pytest.raises(QlcstError, match="changed since it was opened"):
        src.energy()
    monkeypatch.undo()
    reopened = open_coefficients(path)
    assert reopened.window == fixed_gaussian(0.3, 0.3)
    assert reopened.energy() == qlcst_analysis(f, fixed_gaussian(0.3, 0.3),
                                               FOURIER, FOURIER).energy()


def test_widths_on_a_family_without_widths_refused(tmp_path, capsys):
    """A QCF3 header with the s-gauss code and widths (5, -3) names no
    window: open_coefficients raises BadParameter, and export exits 1 with
    one error line and no output.  The (1, 1) widths the library writes for
    every family but the fixed gaussian open."""
    path = tmp_path / "c.qcf"
    write_coefficients(path, qlcst_analysis(gen_signal("gaussian", Grid2D.centered(8.0, 8)),
                                            s_gaussian(), FOURIER, FOURIER))
    assert open_coefficients(path).window == s_gaussian()
    raw = bytearray(path.read_bytes())
    fields = list(COEFF_HEADER.unpack_from(raw))
    fields[-2:] = 5.0, -3.0
    raw[:COEFF_HEADER.size] = COEFF_HEADER.pack(*fields)
    path.write_bytes(bytes(raw))
    with pytest.raises(BadParameter, match="takes no widths"):
        open_coefficients(path)
    out = tmp_path / "s.csv"
    assert cli_main(["export", "-i", str(path), "-o", str(out), "--slice", "u",
                     "--index", "0,0"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: the s-gaussian window takes no widths")
    assert not out.exists()


def test_coefficient_slices():
    g = Grid2D.centered(4.0, 5)
    f = gen_signal("gaussian", g)
    c = qlcst_forward(f, fixed_gaussian(1, 1), FOURIER, FOURIER)
    u_slice = coefficient_slice(c, "u", (2, 2))
    assert u_slice.shape == c.wgrid.shape
    w_slice = coefficient_slice(c, "w", (1, 3))
    assert w_slice.shape == c.ugrid.shape
    want = np.sqrt(np.sum(c.data[2, 2] ** 2, axis=-1))
    assert np.allclose(u_slice, want)
    want = np.sqrt(np.sum(c.data[:, :, 1, 3] ** 2, axis=-1))
    assert np.allclose(w_slice, want)
    with pytest.raises(QlcstError):
        coefficient_slice(c, "x", (0, 0))


def test_hermite_parity():
    g = Grid2D.centered(4.0, 16)
    f = gen_signal("hermite", g, n=(1, 0))
    # odd in x1, even in x2 on the symmetric midpoint grid
    assert np.allclose(f.data[::-1, :], -f.data, atol=1e-12)
    assert np.allclose(f.data[:, ::-1], f.data, atol=1e-12)


@pytest.mark.parametrize("n", [24, 32, 64])
def test_hermite_recurrence_matches_closed_form(n):
    """H_k(x) e^{-x^2/2} / sqrt(2^k k! sqrt(pi)) for every order k <= 30."""
    x = Grid1D.centered(8.0, n).points
    for k in range(31):
        coeffs = np.zeros(k + 1)
        coeffs[k] = 1.0
        want = (hermval(x, coeffs) * np.exp(-x * x / 2.0)
                / math.sqrt(2.0 ** k * math.factorial(k) * math.sqrt(math.pi)))
        assert np.max(np.abs(_hermite_mode(k, x) - want)) <= 1e-14


def test_impulse_value():
    g = Grid2D.centered(4.0, 8)
    f = gen_signal("impulse", g)
    nz = np.nonzero(f.data)
    assert len(nz[0]) == 1
    assert f.data[nz][0] == 1.0 / g.cell


@pytest.mark.parametrize("kind, grid, kwargs", [
    ("boxcar", Grid2D.centered(4.0, 4), {}),
    ("gaussian", (4, 4), {}),
    ("dilated-gaussian", Grid2D.centered(4.0, 4), {"a": 0.0}),
], ids=["unknown-kind", "not-a-grid2d", "dilation-zero"])
def test_gen_signal_refusals(kind, grid, kwargs):
    with pytest.raises(BadParameter):
        gen_signal(kind, grid, **kwargs)


def test_signal_write_failure_keeps_old_output(tmp_path, monkeypatch):
    """A signal write that fails after its header (here: the disk fills up)
    leaves an old output as it was and no temporary file."""
    out = tmp_path / "f.qsg"
    out.write_bytes(b"old")

    def header_then_full_disk(fh, f):
        fh.write(SIGNAL_HEADER.pack(SIGNAL_MAGIC, 1, *f.grid.shape, 0, 0, 1, 1))
        raise OSError(errno.ENOSPC, "No space left on device")
    monkeypatch.setattr("qlcst.io._write_signal_record", header_then_full_disk)
    with pytest.raises(OSError):
        write_signal(out, gen_signal("gaussian", Grid2D.centered(4.0, 4)))
    assert out.read_bytes() == b"old"
    assert _only_files(tmp_path, ["f.qsg"])


# --- CLI ---------------------------------------------------------------


def test_cli_pipeline(tmp_path):
    fpath = str(tmp_path / "f.qsg")
    Fpath = str(tmp_path / "F.qsg")
    assert cli_main(["gen", "--kind", "gaussian", "--sigma", "1",
                     "--n", "16", "--extent", "8", "-o", fpath]) == 0
    assert cli_main(["qlct", "-i", fpath, "-o", Fpath,
                     "--m1", "0,1,-1,0", "--m2", "0,1,-1,0", "--fast"]) == 0
    spec = read_signal(Fpath)
    assert spec.grid.shape == (16, 16)


def test_cli_qlcst_and_export(tmp_path):
    fpath = str(tmp_path / "f.qsg")
    cpath = str(tmp_path / "c.qcf")
    rpath = str(tmp_path / "r.qsg")
    cli_main(["gen", "--kind", "gaussian", "--n", "16", "-o", fpath])
    assert cli_main(["qlcst", "-i", fpath, "-o", cpath, "--m1", "0,1,-1,0",
                     "--m2", "0,1,-1,0", "--window", "fixed-gauss:1,1"]) == 0
    assert cli_main(["reconstruct", "-i", cpath, "-o", rpath,
                     "--m1", "0,1,-1,0", "--m2", "0,1,-1,0",
                     "--window", "fixed-gauss:1,1"]) == 0
    pgm = tmp_path / "s.pgm"
    assert cli_main(["export", "-i", cpath, "-o", str(pgm), "--slice", "u",
                     "--index", "8,8", "--format", "pgm"]) == 0
    assert pgm.read_bytes().startswith(b"P5\n16 16\n255\n")


@pytest.mark.parametrize("index", ["99,99", "-1,-1", "0,12"])
def test_cli_export_index_out_of_range(tmp_path, capsys, index):
    fpath = str(tmp_path / "f.qsg")
    cpath = str(tmp_path / "c.qcf")
    cli_main(["gen", "--kind", "gaussian", "--n", "12", "-o", fpath])
    cli_main(["qlcst", "-i", fpath, "-o", cpath, "--m1", "0,1,-1,0",
              "--m2", "0,1,-1,0", "--window", "fixed-gauss:1,1"])
    capsys.readouterr()
    for fixed in ("u", "w"):
        out = tmp_path / ("s%s.csv" % fixed)
        assert cli_main(["export", "-i", cpath, "-o", str(out), "--slice", fixed,
                         "--index=" + index]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()


def test_cli_export_large_coefficients_finite(tmp_path, capsys):
    """Coefficients of a signal of 1e200, whose squares overflow, export as
    finite magnitudes, the hypot of the two plane moduli, for both slice
    kinds.  Planes of 1e308+1e308j, every component finite, have magnitudes
    beyond the float range: their export exits 1 with one error line and
    writes no file, in either format."""
    g = Grid2D.centered(4.0, 8)
    fpath, cpath = str(tmp_path / "f.qsg"), str(tmp_path / "c.qcf")
    write_signal(fpath, QSignal2D(np.full(g.shape + (4,), 1e200), g))
    assert cli_main(["qlcst", "-i", fpath, "-o", cpath, "--m1", "0,1,-1,0",
                     "--m2", "0,1,-1,0", "--window", "fixed-gauss:1,1"]) == 0
    c = open_coefficients(cpath)
    for fixed, index in (("u", (3, 4)), ("w", (2, 5))):
        out = tmp_path / ("s%s.csv" % fixed)
        assert cli_main(["export", "-i", cpath, "-o", str(out), "--slice", fixed,
                         "--index", "%d,%d" % index]) == 0
        got = np.loadtxt(out, delimiter=",", ndmin=2)
        a, b = c.slice_planes(fixed, index)
        want = np.hypot(np.abs(a), np.abs(b))
        assert np.all(np.isfinite(got)) and got.max() > 1e154
        assert np.array_equal(got, want)
    huge = np.full(c.plane_shape, 1e308 + 1e308j)
    write_coefficients(cpath, QLCSTCoefficients(huge, huge, c.ugrid, c.wgrid,
                                                c.window, c.m1, c.m2, c.signal_grid))
    capsys.readouterr()
    for fixed, fmt in (("u", "csv"), ("u", "pgm"), ("w", "csv")):
        out = tmp_path / ("huge.%s" % fmt)
        assert cli_main(["export", "-i", cpath, "-o", str(out), "--slice", fixed,
                         "--index", "0,0", "--format", fmt]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: non-finite value")
        assert not out.exists()


@pytest.mark.parametrize("mag, want", [
    ([[1.0, 2.0], [1.5, 2.0]], [0, 255, 128, 255]),
    ([[0.0, 1e-320], [5e-321, 1e-320]], [0, 255, 128, 255]),
    ([[3.0, 3.0], [3.0, 3.0]], [0, 0, 0, 0]),
], ids=["normal", "subnormal", "constant"])
def test_export_slice_pgm_scales_min_to_max(tmp_path, mag, want):
    """The PGM pixels are (mag - lo) / (hi - lo) * 255, rounded: the same for
    a range of subnormals, whose 255 / (hi - lo) overflows, as for normal
    values; a constant map is all 0."""
    path = tmp_path / "s.pgm"
    export_slice_pgm(str(path), np.array(mag))
    assert path.read_bytes() == b"P5\n2 2\n255\n" + bytes(want)


@pytest.mark.parametrize("index", [(1,), (1, 2, 3), (1.5, 2), "12", 3, None])
def test_coefficient_slice_index_not_two_integers(monkeypatch, index):
    """An index that is not two integers raises BadParameter before any block
    of the source is read."""
    def unread(self, tiles=None):
        raise AssertionError("a block was read")
    monkeypatch.setattr("qlcst.qlcst.QLCSTAnalysis.tile_factors", unread)
    c = qlcst_analysis(gen_signal("gaussian", Grid2D.centered(4.0, 5)),
                       fixed_gaussian(1, 1), FOURIER, FOURIER)
    for fixed in ("u", "w"):
        with pytest.raises(BadParameter, match="two integers i,j"):
            coefficient_slice(c, fixed, index)


@pytest.mark.parametrize("index", ["1", "1,2,3", "a,b", "1.5,2", ""])
def test_cli_export_index_not_two_integers(tmp_path, capsys, index):
    """--index must be two integers i,j: anything else exits 1 with one
    error line that says so, and writes no output."""
    fpath, cpath = str(tmp_path / "f.qsg"), str(tmp_path / "c.qcf")
    cli_main(["gen", "--kind", "gaussian", "--n", "6", "-o", fpath])
    cli_main(["qlcst", "-i", fpath, "-o", cpath, "--m1", "0,1,-1,0",
              "--m2", "0,1,-1,0", "--window", "fixed-gauss:1,1"])
    capsys.readouterr()
    out = tmp_path / "s.csv"
    assert cli_main(["export", "-i", cpath, "-o", str(out), "--slice", "u",
                     "--index=" + index]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert "two integers i,j" in err[0]
    assert not out.exists()


@pytest.mark.parametrize("args, form", [(args, None) for args in [
    ["--kind", "hermite", "--modes", "1"],
    ["--kind", "hermite", "--modes=-1,0"],
    ["--kind", "gaussian", "--n", "0"],
    ["--kind", "gaussian", "--n", "-4"],
    ["--kind", "gaussian", "--n2", "0"],
    ["--kind", "gaussian", "--sigma", "0"],
    ["--kind", "shifted-gaussian", "--sigma", "0"],
    ["--kind", "chirp", "--sigma", "-1"],
    ["--kind", "shifted-gaussian", "--center", "1"],
    ["--kind", "shifted-gaussian", "--center", "nan,0"],
    ["--kind", "gaussian", "--extent", "1e308"],
    ["--kind", "dilated-gaussian", "--a", "1e200"],
    ["--kind", "hermite", "--modes", "3,0", "--extent", "1e200"],
    ["--kind", "chirp", "--extent", "1e200"],
    ["--kind", "hermite", "--modes", "8,0", "--n", "8"],
    ["--kind", "hermite", "--modes", "0," + "9" * 30],
    ["--kind", "impulse", "--extent", "1e-300"],
    ["--kind", "gaussian", "--n", "9" * 30],
]] + [(["--kind", "shifted-gaussian", "--center", text], "two numbers x1,x2")
      for text in ("a,1", ",2", "1e5,1,,2")]
  + [(["--kind", "hermite", "--modes", text], "two integers n1,n2")
     for text in ("nan,1", "1e5,0", "0.678,8", ",")],
    ids=["one-mode", "negative-mode", "n-zero", "n-negative", "n2-zero",
         "gauss-sigma-zero", "shifted-sigma-zero", "chirp-sigma-negative",
         "one-center", "nan-center", "overflowing-extent", "underflowing-dilation",
         "underflowing-hermite", "overflowing-chirp", "mode-order-at-n",
         "mode-order-huge", "impulse-cell-underflow", "n-beyond-memory",
         "center-a", "center-empty", "center-four", "modes-nan", "modes-1e5",
         "modes-fraction", "modes-empty"])
def test_cli_gen_bad_parameters(tmp_path, capsys, args, form):
    """Each exits 1 with one error line and no file; a --center or --modes
    text that is not two numbers (integers) is named by its expected form,
    never by Python's own conversion message."""
    out = tmp_path / "f.qsg"
    assert cli_main(["gen"] + args + ["-o", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert "could not convert" not in err[0] and "invalid literal" not in err[0]
    assert form is None or err[0] == "error: expected %s, got %r" % (form, args[-1])
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["qlct", "--m1", "1,1e300,0,1", "--m2", "0,1,-1,0"],
    ["qlct", "--fast", "--m1", "1,1e300,0,1", "--m2", "0,1,-1,0"],
    ["qlct", "--inverse", "--m1", "0,1,-1,0", "--m2", "1,1e300,0,1"],
    ["qlcst", "--m1", "1,1e300,0,1", "--m2", "0,1,-1,0",
     "--window", "fixed-gauss:1,1"],
], ids=["direct", "fast", "inverse", "qlcst"])
def test_cli_overflowing_phases_refused(tmp_path, capsys, argv):
    """B = 1e300 is a valid matrix whose kernel phases overflow on the grid:
    exit 1 with one error line and no output, and no warning (which the
    tests turn into an error)."""
    fpath, out = tmp_path / "f.qsg", tmp_path / "o.bin"
    write_signal(fpath, gen_signal("gaussian", Grid2D.centered(4.0, 8)))
    assert cli_main(argv + ["-i", str(fpath), "-o", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert _only_files(tmp_path, ["f.qsg"])


def test_write_signal_refuses_non_finite_samples(tmp_path):
    """What read_signal would refuse is not written."""
    f = gen_signal("gaussian", Grid2D.centered(4.0, 4))
    f.data[1, 2, 3] = np.inf
    with pytest.raises(NonFinite):
        write_signal(tmp_path / "f.qsg", f)
    assert _only_files(tmp_path, [])


@pytest.mark.parametrize("value", [complex(np.nan, 0), complex(0, np.nan),
                                   complex(np.inf, 0), complex(0, -np.inf)])
def test_write_coefficients_refuses_non_finite_values(tmp_path, value):
    """A non-finite value in either part of one coefficient raises NonFinite
    and leaves no file, from a stored set and from its file read back."""
    c = qlcst_forward(gen_signal("gaussian", Grid2D.centered(4.0, 4)),
                      fixed_gaussian(1, 1), FOURIER, FOURIER)
    write_coefficients(tmp_path / "c.qcf", c)
    raw = bytearray((tmp_path / "c.qcf").read_bytes())
    at = len(raw) - 16 * 5  # the real and imaginary parts of one value
    raw[at:at + 16] = struct.pack("<2d", value.real, value.imag)
    (tmp_path / "bad.qcf").write_bytes(bytes(raw))
    with pytest.raises(NonFinite, match="payload"):
        read_coefficients(tmp_path / "bad.qcf")
    a, b = c.a.copy(), c.b.copy()
    b[-1, -5] = value
    bad = QLCSTCoefficients(a, b, c.ugrid, c.wgrid, c.window, c.m1, c.m2,
                            c.signal_grid)
    with pytest.raises(NonFinite, match="coefficients"):
        write_coefficients(tmp_path / "out.qcf", bad)
    assert _only_files(tmp_path, ["c.qcf", "bad.qcf"])


def test_cli_qlcst_of_overflowing_coefficients_refused(tmp_path, capsys):
    """An 8x8 signal whose samples are all 1e308 is finite and written, but
    its coefficients overflow: qlcst exits 1 with one error line and writes
    no file, where it once wrote a file that export then refused."""
    g = Grid2D.centered(4.0, 8)
    write_signal(tmp_path / "f.qsg", QSignal2D(np.full(g.shape + (4,), 1e308), g))
    capsys.readouterr()
    assert cli_main(["qlcst", "-i", str(tmp_path / "f.qsg"), "-o",
                     str(tmp_path / "c.qcf"), "--m1", "0,1,-1,0", "--m2", "0,1,-1,0",
                     "--window", "fixed-gauss:1,1"]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: non-finite value in the coefficients"]
    assert _only_files(tmp_path, ["f.qsg"])


def test_cli_main_lets_a_bug_propagate(tmp_path, monkeypatch):
    """cli_main turns refusals into exit 1, but not a bug: a ValueError from
    inside a command propagates with its traceback."""
    def bug(*args, **kwargs):
        raise ValueError("a bug")
    monkeypatch.setattr("qlcst.cli.gen_signal", bug)
    with pytest.raises(ValueError, match="a bug"):
        cli_main(["gen", "--kind", "gaussian", "-o", str(tmp_path / "f.qsg")])


def test_cli_gen_high_hermite_order(tmp_path):
    """Order 200 is past where 2^n n! overflows a float; the recurrence
    keeps the mode finite and orthonormal."""
    out = str(tmp_path / "f.qsg")
    assert cli_main(["gen", "--kind", "hermite", "--modes", "200,0",
                     "--n", "1024", "--n2", "128", "--extent", "40",
                     "-o", out]) == 0
    f = read_signal(out)
    assert np.all(np.isfinite(f.data))
    assert abs(f.energy() - 1.0) < 1e-10


def test_cli_table_window(tmp_path):
    """qlcst --window table:PATH with fixed-gauss:1,1 sampled at every
    offset u - x reproduces the separable coefficients."""
    g = Grid2D.centered(8.0, 8)
    f = gen_signal("gaussian", g)
    fpath = str(tmp_path / "f.qsg")
    tpath = str(tmp_path / "t.qsg")
    cpath = str(tmp_path / "c.qcf")
    write_signal(fpath, f)
    write_signal(tpath, lattice_table(g))
    assert cli_main(["qlcst", "-i", fpath, "-o", cpath, "--m1", "0,1,-1,0",
                     "--m2", "0,1,-1,0", "--window", "table:" + tpath]) == 0
    want = qlcst_forward(f, fixed_gaussian(1, 1), FOURIER, FOURIER)
    assert relative_l2(read_coefficients(cpath).data, want.data) < 1e-10
    rpath = str(tmp_path / "r.qsg")
    assert cli_main(["reconstruct", "-i", cpath, "-o", rpath, "--m1", "0,1,-1,0",
                     "--m2", "0,1,-1,0", "--window", "table:" + tpath]) == 0
    assert relative_l2(read_signal(rpath).data, f.data) < 1e-8


@pytest.mark.parametrize("value", [np.nan, 1e300], ids=["nan", "square-overflows"])
def test_cli_table_window_with_non_finite_squares_refused(tmp_path, capsys, value):
    """A table with a NaN sample (refused by the reader) or a sample whose
    square overflows (refused by the window): exit 1, one error line, no
    coefficient file.  The table is written by the record writer, since
    write_signal refuses a NaN sample itself."""
    g = Grid2D.centered(8.0, 8)
    fpath, tpath = str(tmp_path / "f.qsg"), str(tmp_path / "t.qsg")
    write_signal(fpath, gen_signal("gaussian", g))
    table = lattice_table(g)
    table.data[3, 4, 0] = value
    with open(tpath, "wb") as fh:
        _write_signal_record(fh, table)
    assert cli_main(["qlcst", "-i", fpath, "-o", str(tmp_path / "c.qcf"),
                     "--m1", "0,1,-1,0", "--m2", "0,1,-1,0",
                     "--window", "table:" + tpath]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert _only_files(tmp_path, ["f.qsg", "t.qsg"])


def _matrix_text(m):
    return ",".join(repr(v) for v in (m.a, m.b, m.c, m.d))


@pytest.mark.parametrize("case", MATRIX_CASES, ids=[c[0] for c in MATRIX_CASES])
@pytest.mark.parametrize("window", ["fixed-gauss:1,1", "table"])
def test_cli_reconstruct_reads_file_metadata(tmp_path, case, window):
    """reconstruct needs no matrix or window options: the file holds them."""
    g = Grid2D.centered(8.0, 16)
    f = gen_signal("gaussian", g)
    fpath, cpath, rpath = (str(tmp_path / n) for n in ("f.qsg", "c.qcf", "r.qsg"))
    write_signal(fpath, f)
    if window == "table":
        window = "table:" + str(tmp_path / "t.qsg")
        write_signal(tmp_path / "t.qsg", lattice_table(g))
    m1, m2 = case[1]()
    assert cli_main(["qlcst", "-i", fpath, "-o", cpath, "--m1", _matrix_text(m1),
                     "--m2", _matrix_text(m2), "--window", window]) == 0
    assert cli_main(["reconstruct", "-i", cpath, "-o", rpath]) == 0
    assert relative_l2(read_signal(rpath).data, f.data) < 1e-3


@pytest.mark.parametrize("window, given", [
    ("fixed-gauss:1,1", ["--m1", "0,2,-0.5,0", "--window", "fixed-gauss:0.5,0.5"]),
    ("fixed-gauss:1,1", ["--m2", "1,2,0,1"]),
    ("fixed-gauss:1,1", ["--window", "s-gauss"]),
    ("table:t.qsg", ["--window", "table:other.qsg"]),
    ("table:t.qsg", ["--window", "fixed-gauss:1,1"]),
], ids=["matrix-and-window", "m2", "family", "other-table", "table-vs-gauss"])
def test_cli_reconstruct_mismatch_refused(tmp_path, capsys, monkeypatch,
                                          window, given):
    """An option that differs from the file's value exits 1 with one error
    line and writes nothing; the file's own values still exit 0."""
    monkeypatch.chdir(tmp_path)
    g = Grid2D.centered(8.0, 16)
    write_signal("f.qsg", gen_signal("gaussian", g))
    write_signal("t.qsg", lattice_table(g))
    write_signal("other.qsg", lattice_table(Grid2D.centered(8.0, 6)))
    same = ["--m1", "0,1,-1,0", "--m2", "0,1,-1,0", "--window", window]
    assert cli_main(["qlcst", "-i", "f.qsg", "-o", "c.qcf"] + same) == 0
    capsys.readouterr()
    assert cli_main(["reconstruct", "-i", "c.qcf", "-o", "r.qsg"] + given) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: --")
    assert not (tmp_path / "r.qsg").exists()
    assert cli_main(["reconstruct", "-i", "c.qcf", "-o", "r.qsg"] + same) == 0


def test_cli_reconstruct_coarse_u_grid(tmp_path):
    """fixed-gauss:1,1 coefficients on the N=8 grid (u spacing 2) reconstruct
    the signal: the synthesis divides by the frame sum of that grid."""
    fpath, cpath, rpath = (str(tmp_path / n) for n in ("f.qsg", "c.qcf", "r.qsg"))
    cli_main(["gen", "--kind", "gaussian", "--n", "8", "-o", fpath])
    assert cli_main(["qlcst", "-i", fpath, "-o", cpath, "--m1", "0,1,-1,0",
                     "--m2", "0,1,-1,0", "--window", "fixed-gauss:1,1"]) == 0
    assert cli_main(["reconstruct", "-i", cpath, "-o", rpath]) == 0
    assert relative_l2(read_signal(rpath).data, read_signal(fpath).data) < 1e-12


def test_cli_reconstruct_uncovered_x_refused(tmp_path, capsys):
    """A table that reaches some x of the grid from no u: exit 1, one error
    line, no file."""
    fpath, tpath, cpath, rpath = (str(tmp_path / n)
                                  for n in ("f.qsg", "t.qsg", "c.qcf", "r.qsg"))
    cli_main(["gen", "--kind", "gaussian", "--n", "8", "-o", fpath])
    far = Grid2D(Grid1D(3, 10.0, 1.0), Grid1D(3, 10.0, 1.0))
    write_signal(tpath, QSignal2D(np.ones(far.shape + (4,)), far))
    assert cli_main(["qlcst", "-i", fpath, "-o", cpath, "--m1", "0,1,-1,0",
                     "--m2", "0,1,-1,0", "--window", "table:" + tpath]) == 0
    capsys.readouterr()
    assert cli_main(["reconstruct", "-i", cpath, "-o", rpath]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: the window reaches some x")
    assert not (tmp_path / "r.qsg").exists()


@pytest.mark.parametrize("wgrid", [Grid2D.centered(2.0, 8), Grid2D.centered(math.pi, 8),
                                   Grid2D.centered(2 * math.pi, 16)],
                         ids=["centered-2-8", "8-points-twice-dual-spacing",
                              "twice-dual-spacing"])
def test_cli_reconstruct_w_grid_not_dual_refused(tmp_path, capsys, wgrid):
    """Coefficients on a w grid that is not dual to their u grid (the dual
    w spacing is 2*pi/16 here; dual_ratio 0.64, 1 with too few points, 2
    with too few points): exit 1, one error line, no file."""
    cpath, rpath = tmp_path / "c.qcf", tmp_path / "r.qsg"
    write_coefficients(cpath, qlcst_analysis(
        gen_signal("gaussian", Grid2D.centered(8.0, 16)), fixed_gaussian(1, 1),
        FOURIER, FOURIER, wgrid=wgrid))
    capsys.readouterr()
    assert cli_main(["reconstruct", "-i", str(cpath), "-o", str(rpath)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: the w grid is not dual")
    assert not rpath.exists()


@pytest.mark.parametrize("s", [2, 3])
def test_reconstruct_refuses_a_u_grid_off_the_signal_lattice(tmp_path, capsys, s):
    """With the signal grid itself as the u grid and N_w = s*N points at the
    dual w spacing, dual_ratio is s: the w sum is a delta of weight s on a
    lattice s times finer than the signal's, and synthesis returned s^2 * f
    (4*f, 9*f) with exit 0.  The coefficients record the signal grid, whose
    sub-grid of stride s the u grid is not, so synthesis is refused from a
    stored set, an analysis and a file, and `qlcst reconstruct` of the file
    exits 1 with one error line and no output."""
    n = 16
    g = Grid2D.centered(8.0, n)
    dw = [fft_output_axis(a, FOURIER.b).spacing for a in (g.axis1, g.axis2)]
    wgrid = Grid2D(*(Grid1D(s * n, -0.5 * (s * n - 1) * d, d) for d in dw))
    analysis = qlcst_analysis(gen_signal("gaussian", g), fixed_gaussian(1, 1),
                              FOURIER, FOURIER, wgrid=wgrid)
    cpath, rpath = tmp_path / "c.qcf", tmp_path / "r.qsg"
    write_coefficients(cpath, analysis)
    for src in (analysis.stored(), analysis, open_coefficients(cpath)):
        with pytest.raises(SpacingError, match="not a sub-grid of stride %d" % s):
            qlcst_reconstruct(src)
    capsys.readouterr()
    assert cli_main(["reconstruct", "-i", str(cpath), "-o", str(rpath)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: the u grid is not a sub-grid")
    assert not rpath.exists()


@pytest.mark.parametrize("widths", ["inf,1", "1e-300,1", "1e200,1e200",
                                    "1e-150,1e-150", "1e150,1e150", "a,1"])
def test_cli_qlcst_refuses_non_finite_widths(tmp_path, capsys, widths):
    """Widths that are no numbers, or whose profile or its square is not a
    finite normal float: exit 1, one error line, no file."""
    fpath, cpath = str(tmp_path / "f.qsg"), str(tmp_path / "c.qcf")
    cli_main(["gen", "--kind", "gaussian", "--n", "8", "-o", fpath])
    capsys.readouterr()
    assert cli_main(["qlcst", "-i", fpath, "-o", cpath, "--m1", "0,1,-1,0",
                     "--m2", "0,1,-1,0", "--window", "fixed-gauss:" + widths]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert not (tmp_path / "c.qcf").exists()


def test_cli_readme_commands(tmp_path, monkeypatch):
    """Every qlcst command of the README's CLI block exits 0, in order."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line)[1:] for line in block.splitlines()
                if line.startswith("qlcst ")]
    assert len(commands) >= 5
    monkeypatch.chdir(tmp_path)
    for args in commands:
        assert cli_main(args) == 0, args


def test_cli_qlcst_needs_no_planes(tmp_path, monkeypatch):
    """The CLI writes its coefficients from the unstored analysis, so with
    physical memory taken as 1 MB, where qlcst_forward refuses the 2 MB N=16
    set, `qlcst qlcst` still exits 0 and writes the stored set's bytes;
    read_coefficients refuses the file's planes as qlcst_forward does."""
    fpath, cpath, want = (str(tmp_path / n) for n in ("f.qsg", "c.qcf", "w.qcf"))
    cli_main(["gen", "--kind", "gaussian", "--n", "16", "-o", fpath])
    write_coefficients(want, qlcst_forward(read_signal(fpath), fixed_gaussian(1, 1),
                                           FOURIER, FOURIER))
    monkeypatch.setattr("qlcst.coefficients._physical_memory", lambda: 10 ** 6)
    assert cli_main(["qlcst", "-i", fpath, "-o", cpath, "--m1", "0,1,-1,0",
                     "--m2", "0,1,-1,0", "--window", "fixed-gauss:1,1"]) == 0
    assert Path(cpath).read_bytes() == Path(want).read_bytes()
    with pytest.raises(TooLarge):
        read_coefficients(cpath)


def _only_files(directory, names):
    return sorted(p.name for p in directory.iterdir()) == sorted(names)


def test_cli_qlcst_failure_leaves_no_file(tmp_path, capsys):
    """The s-gaussian is undefined at w = 0, which an odd grid samples: the
    analysis fails at its first block, after the output was opened.  Exit
    1, one error line, and neither the output nor a temporary file."""
    fpath, cpath = str(tmp_path / "f.qsg"), str(tmp_path / "c.qcf")
    cli_main(["gen", "--kind", "gaussian", "--n", "9", "-o", fpath])
    capsys.readouterr()
    assert cli_main(["qlcst", "-i", fpath, "-o", cpath, "--m1", "0,1,-1,0",
                     "--m2", "0,1,-1,0", "--window", "s-gauss"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: s-gaussian window undefined")
    assert _only_files(tmp_path, ["f.qsg"])


def test_cli_qlcst_refuses_stacked_terms_beyond_memory(tmp_path, capsys, monkeypatch):
    """qlcst --window table:PATH with a full-rank 31 x 31 table at N=16,
    whose 4.6 MB of stacked window terms exceed physical memory (taken as
    1 MB), exits 1 with one error line before any kernel is built, and
    leaves no output file; so does reconstruct of a file of that window,
    whose synthesis holds as much."""
    fpath, tpath, kpath = (str(tmp_path / n) for n in ("f.qsg", "t.qsg", "k.qcf"))
    cli_main(["gen", "--kind", "gaussian", "--n", "16", "-o", fpath])
    write_signal(tpath, QSignal2D(np.random.default_rng(5).standard_normal((31, 31, 4)),
                                  Grid2D.centered(15.5, 31)))
    qlcst_args = ["qlcst", "-i", fpath, "--m1", "0,1,-1,0", "--m2", "0,1,-1,0",
                  "--window", "table:" + tpath]
    assert cli_main(qlcst_args + ["-o", kpath]) == 0  # made with all the memory
    capsys.readouterr()

    def allocated(*_):
        raise AssertionError("a kernel was built")

    monkeypatch.setattr("qlcst.coefficients._physical_memory", lambda: 10 ** 6)
    monkeypatch.setattr("qlcst.qlcst._kernel", allocated)
    for argv in (qlcst_args + ["-o", str(tmp_path / "c.qcf")],
                 ["reconstruct", "-i", kpath, "-o", str(tmp_path / "r.qsg")]):
        assert cli_main(argv) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: stacked window terms of ")
    assert _only_files(tmp_path, ["f.qsg", "t.qsg", "k.qcf"])


def test_cli_qlcst_write_failing_mid_payload_leaves_no_file(tmp_path, capsys,
                                                           monkeypatch):
    """A write that fails after the header and the first block (here: the
    disk fills up) exits 1 with one error line; an output that existed is
    left as it was and no temporary file remains."""
    fpath, cpath = str(tmp_path / "f.qsg"), tmp_path / "c.qcf"
    cli_main(["gen", "--kind", "gaussian", "--n", "16", "-o", fpath])
    cpath.write_bytes(b"old")
    tile_factors = qlcst_analysis(read_signal(fpath), fixed_gaussian(1, 1), FOURIER,
                                  FOURIER).tile_factors

    def first_block_then_full_disk(self, tiles=None):
        for i, block in enumerate(tile_factors(tiles)):  # one tile: each is a row block
            if i:
                raise OSError(errno.ENOSPC, "No space left on device")
            yield block
    monkeypatch.setattr("qlcst.qlcst.QLCSTAnalysis.tile_factors",
                        first_block_then_full_disk)
    capsys.readouterr()
    assert cli_main(["qlcst", "-i", fpath, "-o", str(cpath), "--m1", "0,1,-1,0",
                     "--m2", "0,1,-1,0", "--window", "fixed-gauss:1,1"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].endswith("No space left on device")
    assert cpath.read_bytes() == b"old"
    assert _only_files(tmp_path, ["f.qsg", "c.qcf"])


def test_coefficient_write_through_link_and_fifo(tmp_path):
    """A symlinked output has its target replaced and stays a link; a FIFO,
    which no rename can replace, is written in place and stays a FIFO.
    Neither leaves a temporary file."""
    c = qlcst_forward(gen_signal("gaussian", Grid2D.centered(4.0, 4)),
                      fixed_gaussian(1, 1), FOURIER, FOURIER)
    want = tmp_path / "want.qcf"
    write_coefficients(want, c)
    real, link, fifo = (tmp_path / n for n in ("real.qcf", "link.qcf", "fifo"))
    real.write_bytes(b"old")
    link.symlink_to(real)
    write_coefficients(link, c)
    assert link.is_symlink() and real.read_bytes() == want.read_bytes()
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()),
                              daemon=True)
    reader.start()
    write_coefficients(fifo, c)
    reader.join(timeout=10)
    assert not reader.is_alive() and got == [want.read_bytes()]
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)
    assert _only_files(tmp_path, ["want.qcf", "real.qcf", "link.qcf", "fifo"])


def test_cli_qlct_non_finite_matrix_refused(tmp_path, capsys):
    fpath, out = str(tmp_path / "f.qsg"), tmp_path / "F.qsg"
    cli_main(["gen", "--kind", "gaussian", "--n", "8", "-o", fpath])
    capsys.readouterr()
    assert cli_main(["qlct", "--fast", "-i", fpath, "-o", str(out),
                     "--m1", "nan,1,-1,0", "--m2", "0,1,-1,0"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: matrix entries")
    assert not out.exists()


STREAM_GRIDS = {"5x4": Grid2D(Grid1D.centered(3.0, 5), Grid1D.centered(2.0, 4)),
                "17x17": Grid2D.centered(4.0, 17),
                "18x16": Grid2D(Grid1D.centered(4.0, 18), Grid1D.centered(3.0, 16))}


@pytest.mark.parametrize("case", MATRIX_CASES, ids=[c[0] for c in MATRIX_CASES])
@pytest.mark.parametrize("gname, wname", [
    ("5x4", "fixed-gauss"), ("5x4", "table"), ("17x17", "fixed-gauss"),
    ("17x17", "table"), ("18x16", "fixed-gauss"), ("18x16", "s-gauss")])
def test_streamed_file_matches_stored(tmp_path, case, gname, wname):
    """The file written from the unstored analysis has the bytes of the one
    written from qlcst_forward.  Read back as a file source, block by block
    (17 and 18 u1 rows are 3 blocks, the last one partial, as for the stored
    set), it gives the stored set's slices and reconstruction bit for bit."""
    g = STREAM_GRIDS[gname]
    f = QSignal2D(np.random.default_rng(32).standard_normal(g.shape + (4,)), g)
    window = {"fixed-gauss": fixed_gaussian(0.5, 2), "s-gauss": s_gaussian(),
              "table": table_window(lattice_table(g))}[wname]
    m1, m2 = case[1]()
    stored = qlcst_forward(f, window, m1, m2)
    want, got = tmp_path / "want.qcf", tmp_path / "got.qcf"
    write_coefficients(want, stored)
    write_coefficients(got, qlcst_analysis(f, window, m1, m2))
    assert got.read_bytes() == want.read_bytes()
    src = open_coefficients(got)
    for fixed, index in (("u", (0, 1)), ("u", (g.axis1.n - 1, 0)), ("w", (1, 2))):
        assert np.array_equal(coefficient_slice(src, fixed, index),
                              coefficient_slice(stored, fixed, index))
    if not window.w_dependent:
        assert np.array_equal(qlcst_reconstruct(src).data,
                              qlcst_reconstruct(stored).data)


def test_cli_payload_defect_outside_slice_refused(tmp_path, capsys):
    """A non-finite value in the last u1 block, which the u-slice at u1 = 0
    does not use, still makes export (either slice) and reconstruct exit 1
    with one error line and no file."""
    fpath, cpath = str(tmp_path / "f.qsg"), tmp_path / "c.qcf"
    cli_main(["gen", "--kind", "gaussian", "--n", "16", "-o", fpath])
    assert cli_main(["qlcst", "-i", fpath, "-o", str(cpath), "--m1", "0,1,-1,0",
                     "--m2", "0,1,-1,0", "--window", "fixed-gauss:1,1"]) == 0
    raw = bytearray(cpath.read_bytes())
    raw[-8:] = struct.pack("<d", np.nan)
    cpath.write_bytes(bytes(raw))
    capsys.readouterr()
    out = tmp_path / "out"
    for args in (["export", "--slice", "u", "--index", "0,0"],
                 ["export", "--slice", "w", "--index", "0,0"], ["reconstruct"]):
        assert cli_main(args + ["-i", str(cpath), "-o", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: non-finite value in the payload"]
        assert not out.exists()


@pytest.mark.parametrize("command", ["qlcst", "reconstruct", "export-u", "export-w"])
def test_cli_traced_peak(tmp_path, monkeypatch, command):
    """The CLI holds the row blocks of one column tile, never a coefficient
    set, nor even one plane: at N=32 each command's traced peak stays below
    0.15 of the 33.5 MB set with the default one tile (whole rows), and
    below 0.05 of it with four tiles of 256 columns.  (The two buffers of
    one ROW_BLOCK = 2 block of one tile are 2/32 = 0.0625 of the set with
    one tile and 1/64 with four; the peaks read 0.067 to 0.115 and 0.019 to
    0.042 of it, qlcst's tile buffers and mu2 stage and reconstruct's
    synthesis being the largest.  With whole u1 rows in the file and
    whole-row mu2 factors in the writer they read 0.061 to 0.103 with four
    tiles.)"""
    fpath, cpath, out = (str(tmp_path / n) for n in ("f.qsg", "c.qcf", "out"))
    cli_main(["gen", "--kind", "gaussian", "--n", "32", "-o", fpath])
    make = ["qlcst", "-i", fpath, "-o", cpath, "--m1", "0,1,-1,0",
            "--m2", "0,1,-1,0", "--window", "fixed-gauss:1,1"]
    argv = {"qlcst": make,
            "reconstruct": ["reconstruct", "-i", cpath, "-o", out],
            "export-u": ["export", "-i", cpath, "-o", out, "--slice", "u",
                         "--index", "16,16"],
            "export-w": ["export", "-i", cpath, "-o", out, "--slice", "w",
                         "--index", "16,16"]}[command]
    for tile_cols, bound in ((1024, 0.15), (256, 0.05)):
        monkeypatch.setattr("qlcst.coefficients.TILE_COLS", tile_cols)
        if command != "qlcst":
            assert cli_main(make) == 0
        tracemalloc.start()
        try:
            assert cli_main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound * 2 * 32 ** 4 * 16


def test_cli_zero_b_rejected(tmp_path):
    fpath = str(tmp_path / "f.qsg")
    cli_main(["gen", "--kind", "gaussian", "--n", "8", "-o", fpath])
    code = cli_main(["qlct", "-i", fpath, "-o", str(tmp_path / "x.qsg"),
                     "--m1", "1,0,0,1", "--m2", "0,1,-1,0"])
    assert code == 1


def test_cli_usage_error():
    assert cli_main(["frobnicate"]) == 1
    assert cli_main(["qlct"]) == 1


def test_cli_missing_input(tmp_path):
    code = cli_main(["qlct", "-i", str(tmp_path / "none.qsg"),
                     "-o", str(tmp_path / "out.qsg"),
                     "--m1", "0,1,-1,0", "--m2", "0,1,-1,0"])
    assert code == 1


def test_cli_memory_error(tmp_path, monkeypatch):
    def exhausted(path):
        raise MemoryError()
    monkeypatch.setattr("qlcst.io.read_signal", exhausted)
    assert cli_main(["qlct", "-i", str(tmp_path / "f.qsg"),
                     "-o", str(tmp_path / "out.qsg"),
                     "--m1", "0,1,-1,0", "--m2", "0,1,-1,0"]) == 1


def test_cli_verify_exit_code():
    assert cli_main(["verify", "special-case"]) == 0


def test_cli_module_exits_with_the_command_code(tmp_path):
    """python -m qlcst.cli exits with cli_main's code: 1 and one error line
    for an export of a missing input, 0 for a passing verify suite."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))

    def run(*args):
        return subprocess.run([sys.executable, "-m", "qlcst.cli", *args], env=env,
                              capture_output=True, text=True, timeout=120)

    done = run("export", "-i", str(tmp_path / "none.qcf"), "-o", str(tmp_path / "out"),
               "--slice", "u", "--index", "0,0")
    assert done.returncode == 1
    err = done.stderr.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert not (tmp_path / "out").exists()
    assert run("verify", "special-case").returncode == 0
