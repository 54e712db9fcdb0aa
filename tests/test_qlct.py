import math
import tracemalloc

import numpy as np
import pytest

import qlcst.qlct as qlct_module
from qlcst.cli import cli_main
from qlcst.errors import GridMismatch, SpacingError, TooLarge, ZeroSignal
from qlcst.generators import gen_signal, random_hermite_combo
from qlcst.io import write_signal
from qlcst.lct import kernel_eval, validate_param
from qlcst.qlct import (plancherel_gap, qlct_fast_forward, qlct_fast_inverse,
                        qlct_forward, qlct_inverse)
from qlcst.quaternion import qconj, qmul, qnorm
from qlcst.signal import (Grid1D, Grid2D, QSignal2D, QSpectrum2D,
                          fft_output_grid, relative_l2)

FOURIER = validate_param(0, 1, -1, 0)
# Matrices with A != D, where the inverse kernel conj(K(x, u)) differs from
# the negated phase with swapped arguments.
SKEW1 = validate_param(0.8, -1.5, 0.4, 0.5)
SKEW2 = validate_param(2, 1, 0, 0.5)


def small_grid(n=16, extent=8.0):
    return Grid2D.centered(extent, n)


def test_impulse_spectrum_is_kernel_product():
    grid = small_grid()
    f = gen_signal("impulse", grid)
    i = int(np.argmin(np.abs(grid.axis1.points)))
    j = int(np.argmin(np.abs(grid.axis2.points)))
    x0 = grid.axis1.points[i]
    y0 = grid.axis2.points[j]
    m1 = validate_param(1, 1, 0, 1)
    m2 = FOURIER
    spec = qlct_forward(f, m1, m2)
    k1 = kernel_eval(m1, 1, x0, spec.grid.axis1.points[:, None])
    k2 = kernel_eval(m2, 2, y0, spec.grid.axis2.points[None, :])
    want = qmul(k1[:, None], k2[None, :])[:, 0]
    assert relative_l2(spec.data, want) < 1e-12
    # constant modulus 1/(2 pi sqrt(|B1 B2|))
    mags = qnorm(spec.data)
    assert np.allclose(mags, 1.0 / (2.0 * math.pi), rtol=1e-12)


def test_zero_signal_maps_to_zero():
    grid = small_grid()
    f = QSignal2D(np.zeros(grid.shape + (4,)), grid)
    assert np.all(qlct_forward(f, FOURIER, FOURIER).data == 0.0)
    F = QSpectrum2D(np.zeros(grid.shape + (4,)), grid)
    assert np.all(qlct_inverse(F, FOURIER, FOURIER, grid).data == 0.0)


@pytest.mark.parametrize("abcd", [
    (0, 1, -1, 0),
    (math.cos(math.pi / 3), math.sin(math.pi / 3),
     -math.sin(math.pi / 3), math.cos(math.pi / 3)),
])
def test_roundtrip_direct(abcd):
    m = validate_param(*abcd)
    grid = small_grid(24)
    f = gen_signal("gaussian", grid)
    F = qlct_forward(f, m, m)
    back = qlct_inverse(F, m, m, grid)
    assert relative_l2(back.data, f.data) < 1e-6
    default = qlct_inverse(F, m, m)  # onto the FFT-compatible grid of F's
    assert default.grid == fft_output_grid(F.grid, m.b, m.b)
    assert relative_l2(default.data, f.data) < 1e-6


@pytest.mark.parametrize("fast", [True, False], ids=["fast", "direct"])
def test_roundtrip_a_neq_d(fast):
    grid = small_grid(32)
    f = random_hermite_combo(grid, seed=3)
    forward, inverse = ((qlct_fast_forward, qlct_fast_inverse) if fast
                        else (qlct_forward, qlct_inverse))
    for m1, m2 in [(SKEW1, SKEW1), (SKEW2, SKEW2), (SKEW1, SKEW2)]:
        back = inverse(forward(f, m1, m2), m1, m2, grid)
        assert relative_l2(back.data, f.data) < 1e-10


def literal_riemann(k1, data, k2, cell):
    """out[i, j] = sum over (p, q) of k1[p, i] * data[p, q] * k2[q, j] * cell,
    one output point at a time."""
    out = np.empty((k1.shape[1], k2.shape[1], 4))
    for i in range(k1.shape[1]):
        for j in range(k2.shape[1]):
            term = qmul(qmul(k1[:, i][:, None, :], data), k2[:, j][None, :, :])
            out[i, j] = term.sum(axis=(0, 1)) * cell
    return out


def test_direct_oracle_is_independent(monkeypatch):
    """qlct_forward/qlct_inverse run without the symplectic split, the
    right-mu2 rule or any FFT, and equal the per-point Riemann sum."""
    def unavailable(*args, **kwargs):
        raise AssertionError("the direct oracle used the fast path")
    for name in ("symplectic_split", "symplectic_join", "right_mu2"):
        monkeypatch.setattr(qlct_module, name, unavailable)
    monkeypatch.setattr(np.fft, "fft", unavailable)
    monkeypatch.setattr(np.fft, "ifft", unavailable)
    grid = small_grid(8)
    rng = np.random.default_rng(13)
    f = QSignal2D(rng.standard_normal(grid.shape + (4,)), grid)
    m1, m2 = SKEW1, SKEW2
    spec = qlct_forward(f, m1, m2)
    x1, x2 = grid.axis1.points, grid.axis2.points
    u1, u2 = spec.grid.axis1.points, spec.grid.axis2.points
    want = literal_riemann(kernel_eval(m1, 1, x1[:, None], u1[None, :]),
                           f.data,
                           kernel_eval(m2, 2, x2[:, None], u2[None, :]),
                           grid.cell)
    assert relative_l2(spec.data, want) < 1e-13
    F = QSpectrum2D(rng.standard_normal(grid.shape + (4,)), spec.grid)
    back = qlct_inverse(F, m1, m2, grid)
    want = literal_riemann(
        qconj(kernel_eval(m1, 1, x1[None, :], u1[:, None])), F.data,
        qconj(kernel_eval(m2, 2, x2[None, :], u2[:, None])),
        spec.grid.cell)
    assert relative_l2(back.data, want) < 1e-13


def test_direct_oracle_rectangular_grids():
    """A 12x10 signal onto a 6x8 grid and back, against the per-point sum:
    the row and column counts of every GEMM operand differ."""
    rng = np.random.default_rng(17)
    xgrid = Grid2D(Grid1D.centered(6.0, 12), Grid1D.centered(5.0, 10))
    ugrid = Grid2D(Grid1D.centered(4.0, 6), Grid1D.centered(7.0, 8))
    x1, x2 = xgrid.axis1.points, xgrid.axis2.points
    u1, u2 = ugrid.axis1.points, ugrid.axis2.points
    f = QSignal2D(rng.standard_normal(xgrid.shape + (4,)), xgrid)
    spec = qlct_forward(f, SKEW1, SKEW2, ugrid)
    want = literal_riemann(kernel_eval(SKEW1, 1, x1[:, None], u1[None, :]), f.data,
                           kernel_eval(SKEW2, 2, x2[:, None], u2[None, :]),
                           xgrid.cell)
    assert spec.data.shape == (6, 8, 4)
    assert relative_l2(spec.data, want) < 1e-13
    back = qlct_inverse(spec, SKEW1, SKEW2, xgrid)
    want = literal_riemann(
        qconj(kernel_eval(SKEW1, 1, x1[None, :], u1[:, None])), spec.data,
        qconj(kernel_eval(SKEW2, 2, x2[None, :], u2[:, None])), ugrid.cell)
    assert back.data.shape == (12, 10, 4)
    assert relative_l2(back.data, want) < 1e-13


def test_fast_matches_direct_random():
    grid = small_grid(16)
    rng = np.random.default_rng(10)
    matrices = [FOURIER, validate_param(1, 2, 0, 1),
                validate_param(0.8, -1.5, 0.4, 0.5)]
    for i in range(6):
        f = QSignal2D(rng.standard_normal(grid.shape + (4,)), grid)
        m1 = matrices[i % 3]
        m2 = matrices[(i + 1) % 3]
        err = relative_l2(qlct_fast_forward(f, m1, m2).data,
                          qlct_forward(f, m1, m2).data)
        assert err < 1e-10


def test_fast_impulse_matches_direct():
    grid = small_grid()
    f = gen_signal("impulse", grid)
    err = relative_l2(qlct_fast_forward(f, FOURIER, FOURIER).data,
                      qlct_forward(f, FOURIER, FOURIER).data)
    assert err < 1e-12


def test_fast_rejects_incompatible_spacing():
    grid = small_grid()
    f = gen_signal("gaussian", grid)
    bad = Grid2D(Grid1D(grid.axis1.n, 0.0, 0.1), grid.axis2)
    with pytest.raises(SpacingError):
        qlct_fast_forward(f, FOURIER, FOURIER, bad)
    # The chirp-FFT maps n points to n: another count is refused, also with
    # the FFT spacing.
    out = fft_output_grid(grid, 1.0, 1.0)
    fewer = Grid2D(Grid1D(grid.axis1.n - 1, out.axis1.origin, out.axis1.spacing),
                   out.axis2)
    with pytest.raises(SpacingError):
        qlct_fast_forward(f, FOURIER, FOURIER, fewer)


def test_fast_inverse_roundtrip():
    grid = small_grid(32)
    f = gen_signal("hermite", grid, n=(1, 0))
    for m in (FOURIER, validate_param(1, 2, 0, 1)):
        F = qlct_fast_forward(f, m, m)
        back = qlct_fast_inverse(F, m, m, grid)
        assert relative_l2(back.data, f.data) < 1e-10


def test_plancherel():
    grid = small_grid(32)
    assert plancherel_gap(gen_signal("gaussian", grid), FOURIER, FOURIER) < 1e-6
    combo = random_hermite_combo(grid, seed=3)
    assert plancherel_gap(combo, FOURIER, FOURIER) < 1e-4


def test_plancherel_zero_signal():
    grid = small_grid()
    zero = QSignal2D(np.zeros(grid.shape + (4,)), grid)
    with pytest.raises(ZeroSignal):
        plancherel_gap(zero, FOURIER, FOURIER)


def test_real_scalar_linearity():
    grid = small_grid()
    rng = np.random.default_rng(11)
    f = QSignal2D(rng.standard_normal(grid.shape + (4,)), grid)
    g = QSignal2D(rng.standard_normal(grid.shape + (4,)), grid)
    alpha, beta = 1.7, -0.4
    comb = QSignal2D(alpha * f.data + beta * g.data, grid)
    lhs = qlct_fast_forward(comb, FOURIER, FOURIER).data
    rhs = (alpha * qlct_fast_forward(f, FOURIER, FOURIER).data
           + beta * qlct_fast_forward(g, FOURIER, FOURIER).data)
    assert relative_l2(lhs, rhs) < 1e-12


def test_quaternion_scalar_linearity_reported():
    """Left quaternion scalars do not commute past the left kernel; the
    residual is reported for the record, not asserted small."""
    grid = small_grid()
    rng = np.random.default_rng(12)
    f = QSignal2D(rng.standard_normal(grid.shape + (4,)), grid)
    alpha = np.array([0.3, 0.5, -0.2, 0.7])
    scaled = QSignal2D(qmul(np.broadcast_to(alpha, f.data.shape), f.data), grid)
    lhs = qlct_fast_forward(scaled, FOURIER, FOURIER).data
    rhs = qmul(np.broadcast_to(alpha, lhs.shape),
               qlct_fast_forward(f, FOURIER, FOURIER).data)
    residual = relative_l2(lhs, rhs)
    print("quaternion-scalar linearity residual (not asserted): %.3e" % residual)
    assert np.isfinite(residual)


def test_fft_output_grid_spacing():
    grid = small_grid(16)
    out = fft_output_grid(grid, 2.0, -1.0)
    want1 = 2.0 * math.pi * 2.0 / (16 * grid.axis1.spacing)
    want2 = 2.0 * math.pi * 1.0 / (16 * grid.axis2.spacing)
    assert abs(out.axis1.spacing - want1) < 1e-14
    assert abs(out.axis2.spacing - want2) < 1e-14


def test_qlct_refuses_a_grid_that_is_no_grid2d():
    f = gen_signal("gaussian", small_grid(8))
    for op in (qlct_forward, qlct_fast_forward):
        with pytest.raises(GridMismatch):
            op(f, FOURIER, FOURIER, (8, 8))


@pytest.mark.parametrize("spacing", [0.0, -0.5])
def test_grid_refuses_non_positive_spacing(spacing):
    with pytest.raises(GridMismatch):
        Grid1D(4, 0.0, spacing)


@pytest.mark.parametrize("make", [
    lambda: Grid1D(8.5, 0.0, 1.0),
    lambda: Grid1D("8", 0.0, 1.0),
    lambda: Grid1D.centered(8.0, 2.5),
    lambda: gen_signal("gaussian", Grid2D.centered(8.0, 2.5)),
    lambda: random_hermite_combo(Grid2D.centered(8.0, 8.0)),
], ids=["float", "string", "centered-float", "gen-signal", "hermite-combo"])
def test_grid_refuses_a_non_integer_count(make):
    """A point count that is no integer is refused with GridMismatch, also
    by the generators, which would otherwise fail inside numpy."""
    with pytest.raises(GridMismatch):
        make()


def test_grid_stores_an_integer_count():
    """Any integer, a numpy one too, is accepted and stored as an int."""
    for g in (Grid1D(np.int64(8), 0.0, 1.0), Grid1D.centered(8.0, np.int64(8))):
        assert type(g.n) is int and g.n == 8
    assert Grid1D(np.int64(8), 0.0, 1.0) == Grid1D(8, 0.0, 1.0)


def test_signal_refuses_data_of_another_shape():
    with pytest.raises(GridMismatch):
        QSignal2D(np.zeros((4, 5, 4)), small_grid(4))


def test_signal_is_not_equal_to_another_type():
    f = gen_signal("gaussian", small_grid(4))
    assert (f == 5) is False and f != 5


@pytest.mark.parametrize("n_in, n_out", [((96, 40), (56, 120)), ((20, 150), (150, 20))])
def test_oracle_memory_estimate_is_its_traced_peak(monkeypatch, n_in, n_out):
    """The refusal's estimate of the direct sum is, to 1%, the tracemalloc
    peak of both directions on rectangular grids."""
    need = []
    monkeypatch.setattr(qlct_module, "_refuse_beyond_memory",
                        lambda what, ncomplex: need.append(16 * ncomplex))
    grid_in = Grid2D(Grid1D.centered(4.0, n_in[0]), Grid1D.centered(3.0, n_in[1]))
    grid_out = Grid2D(Grid1D.centered(4.0, n_out[0]), Grid1D.centered(3.0, n_out[1]))
    f = random_hermite_combo(grid_in, seed=2)
    for op, x in ((qlct_forward, f), (qlct_inverse, QSpectrum2D(f.data, grid_in))):
        tracemalloc.start()
        try:
            op(x, SKEW1, SKEW2, grid_out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert abs(peak - need[-1]) <= 0.01 * need[-1]


def test_oracle_refused_beyond_memory(monkeypatch, tmp_path, capsys):
    """Beyond physical memory both directions of the direct sum raise
    TooLarge before any kernel table is built, and the CLI exits 1 with one
    error line and writes no file; the chirp-FFT path is not refused."""
    def unbuilt(*args):
        raise AssertionError("a kernel table was built")

    monkeypatch.setattr("qlcst.coefficients._physical_memory", lambda: 10 ** 5)
    f = gen_signal("gaussian", small_grid(32))  # 448 B * 32^2 = 459 kB
    path = tmp_path / "f.qsg"
    write_signal(path, f)
    with monkeypatch.context() as patch:
        patch.setattr(qlct_module, "kernel_eval", unbuilt)
        for op in (qlct_forward, qlct_inverse):
            with pytest.raises(TooLarge):
                op(f, FOURIER, FOURIER)
    argv = ["qlct", "-i", str(path), "--m1", "0,1,-1,0", "--m2", "0,1,-1,0"]
    for extra in ([], ["--inverse"]):
        out = tmp_path / "out.qsg"
        assert cli_main(argv + ["-o", str(out)] + extra) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert not out.exists()
        assert cli_main(argv + ["-o", str(out), "--fast"] + extra) == 0
        assert out.exists()
        out.unlink()
