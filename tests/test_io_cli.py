import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlcst.cli import cli_main
from qlcst.errors import (BadMagic, NonFinite, QlcstError, TrailingBytes,
                          TruncatedFile, VersionMismatch)
from qlcst.generators import gen_signal
from qlcst.io import (COEFF_MAGIC, SIGNAL_MAGIC, coefficient_slice,
                      export_signal_csv, read_coefficients, read_signal,
                      write_coefficients, write_signal)
from qlcst.lct import validate_param
from qlcst.qlcst import qlcst_forward
from qlcst.signal import Grid1D, Grid2D, QSignal2D, relative_l2
from qlcst.window import fixed_gaussian, window_eval

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
    magic, version, n1, n2 = struct.unpack_from("<4sHII", raw)
    assert magic == SIGNAL_MAGIC and version == 1 and (n1, n2) == (4, 4)
    assert len(raw) == struct.calcsize("<4sHIIdddd") + 4 * 4 * 4 * 8


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
        at = len(raw) - 8
    else:  # the first origin, right after magic, version and counts
        at = struct.calcsize("<4sHII" if read is read_signal else "<4sHIIII")
    raw[at:at + 8] = struct.pack("<d", value)
    path.write_bytes(bytes(raw))
    with pytest.raises(NonFinite):
        read(path)


def _file_with_one_defect(draw, fmt, magic, counts, nfloats):
    """A file in the given header layout with at most one defect: a wrong
    magic or version, a point count below 2, a non-finite header or payload
    value, or a payload cut short or extended."""
    defect = draw(st.sampled_from(
        ["none", "magic", "version", "count", "header", "payload", "size"]))
    if defect == "count":
        counts[draw(st.integers(0, len(counts) - 1))] = draw(st.integers(0, 1))
    grid = draw(st.lists(st.floats(0.01, 10.0), min_size=nfloats, max_size=nfloats))
    nvalues = int(np.prod(counts)) * 4
    values = draw(st.lists(st.floats(-1e3, 1e3), min_size=nvalues,
                           max_size=nvalues))
    bad = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    if defect == "header":
        grid[draw(st.integers(0, nfloats - 1))] = bad
    if defect == "payload" and values:
        values[draw(st.integers(0, nvalues - 1))] = bad
    raw = (struct.pack(fmt, b"XXXX" if defect == "magic" else magic,
                       2 if defect == "version" else 1, *counts, *grid)
           + struct.pack("<%dd" % nvalues, *values))
    if defect == "size":
        cut = draw(st.integers(-9, 9).filter(bool))
        raw = raw[:len(raw) + cut] if cut < 0 else raw + bytes(cut)
    return raw


@st.composite
def qsg_bytes(draw):
    counts = [draw(st.integers(2, 4)) for _ in range(2)]
    return _file_with_one_defect(draw, "<4sHIIdddd", SIGNAL_MAGIC, counts, 4)


@st.composite
def qcf_bytes(draw):
    counts = [draw(st.integers(2, 3)) for _ in range(4)]
    return _file_with_one_defect(draw, "<4sHIIIIdddddddd", COEFF_MAGIC,
                                 counts, 8)


@settings(max_examples=300, deadline=None)
@given(raw=st.one_of(st.binary(max_size=200), qsg_bytes(), qcf_bytes()))
def test_readers_accept_valid_or_raise_qlcst_error(tmp_path_factory, raw):
    """Any bytes give a finite object matching its header, or a QlcstError."""
    path = tmp_path_factory.mktemp("fuzz") / "f.bin"
    path.write_bytes(raw)
    for read in (read_signal, read_coefficients):
        try:
            obj = read(path)
        except QlcstError:
            continue
        if read is read_signal:
            assert obj.data.shape == obj.grid.shape + (4,)
            assert np.all(np.isfinite(obj.data))
        else:
            assert np.all(np.isfinite(obj.a)) and np.all(np.isfinite(obj.b))


@pytest.mark.parametrize("n", [2 ** 31, 3_000_000])
def test_absurd_signal_header(tmp_path, n):
    """A header whose point counts exceed the file is refused before any
    read is attempted, also through the CLI."""
    path = tmp_path / "bad.qsg"
    path.write_bytes(struct.pack("<4sHIIdddd", SIGNAL_MAGIC, 1, n, n,
                                 0.0, 0.0, 1.0, 1.0) + bytes(32))
    with pytest.raises(TruncatedFile):
        read_signal(path)
    assert cli_main(["qlct", "--fast", "-i", str(path),
                     "-o", str(tmp_path / "out.qsg"),
                     "--m1", "0,1,-1,0", "--m2", "0,1,-1,0"]) == 1


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


def test_coefficient_file_is_header_plus_interleaved_payload(tmp_path):
    """QCF1 bytes are the header and the interleaved (u1, u2, w1, w2, 4)
    float64 payload; reading them back restores the planes bit for bit."""
    g = Grid2D(Grid1D.centered(3.0, 5), Grid1D.centered(2.0, 4))
    rng = np.random.default_rng(31)
    f = QSignal2D(rng.standard_normal(g.shape + (4,)), g)
    c = qlcst_forward(f, fixed_gaussian(1, 1), FOURIER, FOURIER)
    path = tmp_path / "c.qcf"
    write_coefficients(path, c)
    raw = path.read_bytes()
    size = struct.calcsize("<4sHIIIIdddddddd")
    assert raw[size:] == c.data.astype("<f8").tobytes()
    back = read_coefficients(path)
    assert np.array_equal(back.a, c.a) and np.array_equal(back.b, c.b)
    again = tmp_path / "again.qcf"
    write_coefficients(again, back)
    assert again.read_bytes() == raw


def test_truncated_coefficient_file(tmp_path):
    g = Grid2D.centered(4.0, 4)
    c = qlcst_forward(gen_signal("gaussian", g), fixed_gaussian(1, 1),
                      FOURIER, FOURIER)
    path = tmp_path / "c.qcf"
    write_coefficients(path, c)
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(TruncatedFile):
        read_coefficients(path)


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


def test_csv_export(tmp_path):
    f = gen_signal("gaussian", Grid2D.centered(2.0, 4))
    path = tmp_path / "f.csv"
    export_signal_csv(path, f)
    lines = path.read_text().splitlines()
    assert lines[0] == "x1,x2,qw,qx,qy,qz"
    assert len(lines) == 1 + 16
    first = [float(v) for v in lines[1].split(",")]
    assert first[0] == f.grid.axis1.points[0]


def test_hermite_parity():
    g = Grid2D.centered(4.0, 16)
    f = gen_signal("hermite", g, n=(1, 0))
    # odd in x1, even in x2 on the symmetric midpoint grid
    assert np.allclose(f.data[::-1, :], -f.data, atol=1e-12)
    assert np.allclose(f.data[:, ::-1], f.data, atol=1e-12)


def test_impulse_value():
    g = Grid2D.centered(4.0, 8)
    f = gen_signal("impulse", g)
    nz = np.nonzero(f.data)
    assert len(nz[0]) == 1
    assert f.data[nz][0] == 1.0 / g.cell


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
    cli_main(["gen", "--kind", "gaussian", "--n", "12", "-o", fpath])
    assert cli_main(["qlcst", "-i", fpath, "-o", cpath, "--m1", "0,1,-1,0",
                     "--m2", "0,1,-1,0", "--window", "fixed-gauss:1,1"]) == 0
    assert cli_main(["reconstruct", "-i", cpath, "-o", rpath,
                     "--m1", "0,1,-1,0", "--m2", "0,1,-1,0",
                     "--window", "fixed-gauss:1,1"]) == 0
    pgm = tmp_path / "s.pgm"
    assert cli_main(["export", "-i", cpath, "-o", str(pgm), "--slice", "u",
                     "--index", "6,6", "--format", "pgm"]) == 0
    assert pgm.read_bytes().startswith(b"P5\n12 12\n255\n")


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


@pytest.mark.parametrize("args", [
    ["--kind", "hermite", "--modes", "1"],
    ["--kind", "hermite", "--modes=-1,0"],
    ["--kind", "gaussian", "--n", "0"],
    ["--kind", "gaussian", "--n", "-4"],
    ["--kind", "gaussian", "--sigma", "0"],
    ["--kind", "shifted-gaussian", "--sigma", "0"],
    ["--kind", "chirp", "--sigma", "-1"],
    ["--kind", "shifted-gaussian", "--center", "1"],
], ids=["one-mode", "negative-mode", "n-zero", "n-negative", "gauss-sigma-zero",
        "shifted-sigma-zero", "chirp-sigma-negative", "one-center"])
def test_cli_gen_bad_parameters(tmp_path, capsys, args):
    out = tmp_path / "f.qsg"
    assert cli_main(["gen"] + args + ["-o", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_cli_table_window(tmp_path):
    """qlcst --window table:PATH with fixed-gauss:1,1 sampled at every
    offset u - x reproduces the separable coefficients."""
    g = Grid2D.centered(8.0, 8)
    f = gen_signal("gaussian", g)
    fpath = str(tmp_path / "f.qsg")
    tpath = str(tmp_path / "t.qsg")
    cpath = str(tmp_path / "c.qcf")
    write_signal(fpath, f)
    lat = Grid1D(2 * g.axis1.n - 1, -(g.axis1.n - 1) * g.axis1.spacing,
                 g.axis1.spacing)
    t = lat.points
    table = window_eval(fixed_gaussian(1, 1), (t[:, None], t[None, :]), (1.0, 1.0))
    write_signal(tpath, QSignal2D(table, Grid2D(lat, lat)))
    assert cli_main(["qlcst", "-i", fpath, "-o", cpath, "--m1", "0,1,-1,0",
                     "--m2", "0,1,-1,0", "--window", "table:" + tpath]) == 0
    want = qlcst_forward(f, fixed_gaussian(1, 1), FOURIER, FOURIER)
    assert relative_l2(read_coefficients(cpath).data, want.data) < 1e-10
    rpath = str(tmp_path / "r.qsg")
    assert cli_main(["reconstruct", "-i", cpath, "-o", rpath, "--m1", "0,1,-1,0",
                     "--m2", "0,1,-1,0", "--window", "table:" + tpath]) == 0
    assert relative_l2(read_signal(rpath).data, f.data) < 1e-8


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
