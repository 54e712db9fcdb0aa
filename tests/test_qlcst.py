import itertools
import math
import resource
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qlcst.errors import (AdmissibilityError, BadParameter, DegenerateAngle,
                          GridMismatch, SpacingError, TooLarge, Undersampled,
                          ZeroSignal, ZeroWindow)
from qlcst.coefficients import ROW_BLOCK, TILE_COLS, _col_tiles, _row_blocks
from qlcst.generators import gen_signal, random_hermite_combo
from qlcst.io import open_coefficients, write_coefficients
from qlcst.lct import kernel_const, kernel_eval, kernel_phase, validate_param
from qlcst.qlct import qlct_fast_forward, qlct_forward, qlct_inverse
from qlcst.qlcst import (PROFILE_FLOOR, QLCSTAnalysis, QLCSTCoefficients,
                         _analysis_tiles, _contract, _floor, _kernel,
                         _phase_matrix, _right_contract, _streamed_rel_l2,
                         _w_adjoints, covariance_residuals,
                         energy_identity_gap, marginal_qlct_gap,
                         orthogonality_form, qlcst_analysis, qlcst_forward,
                         qlcst_pointwise_inverse, qlcst_reconstruct,
                         special_case_matrix)
from qlcst.quaternion import (qconj, qmul, qnorm, qnormsq, symplectic_join,
                              symplectic_split)
from qlcst.signal import (Grid1D, Grid2D, QSignal2D, QSpectrum2D, dual_ratio,
                          fft_output_grid, relative_l2)
from qlcst.uncertainty import (heisenberg_report, lemma_41_gap,
                               log_uncertainty_report, spectral_dispersion,
                               spectral_log_moment)
from qlcst.verify import MATRIX_CASES, run_suite
from qlcst.window import (constant_window, fixed_gaussian, lambda_psi,
                          s_gaussian, table_window, window_eval, window_terms)

FOURIER = validate_param(0, 1, -1, 0)


def grid(n=16, extent=8.0):
    return Grid2D.centered(extent, n)


def quadrature(f, win, m1, m2, u1, u2, w1, w2):
    """Riemann sum of K1(x1, w1) * f(x) * conj(Psi(u - x, w)) * K2(x2, w2)
    by generic quaternion products at every (u1, u2, w1, w2) of the given
    point vectors; returns a (len(u1), len(u2), len(w1), len(w2), 4) array."""
    def axis(v, k):
        return np.reshape(np.asarray(v, dtype=float),
                          [-1 if i == k else 1 for i in range(6)])
    x1 = axis(f.grid.axis1.points, 4)
    x2 = axis(f.grid.axis2.points, 5)
    w1 = axis(w1, 2)
    w2 = axis(w2, 3)
    psi = window_eval(win, (axis(u1, 0) - x1, axis(u2, 1) - x2), (w1, w2))
    k1 = kernel_eval(m1, 1, x1, w1)
    k2 = kernel_eval(m2, 2, x2, w2)
    term = qmul(qmul(k1, qmul(f.data, qconj(psi))), k2)
    return term.sum(axis=(4, 5)) * f.grid.cell


def offset_lattice(g):
    """The (2n - 1)^2 grid of every offset u - x between points of g."""
    def axis(ax):
        return Grid1D(2 * ax.n - 1, -(ax.n - 1) * ax.spacing, ax.spacing)
    return Grid2D(axis(g.axis1), axis(g.axis2))


def lattice_table(win, g):
    """win sampled on the offset lattice of g as a table window, so every
    lookup lands on a table point."""
    lat = offset_lattice(g)
    x = (lat.axis1.points[:, None], lat.axis2.points[None, :])
    return table_window(QSignal2D(window_eval(win, x, (1.0, 1.0)), lat))


# A quaternion-valued table whose points fall between the u - x offsets of
# grid(8), so every lookup interpolates.
OFF_LATTICE_TABLE = table_window(QSignal2D(
    np.random.default_rng(41).standard_normal((9, 7, 4)),
    Grid2D(Grid1D.centered(5.0, 9), Grid1D.centered(4.0, 7))))
# Its scalar part: a real-valued table.
REAL_TABLE = table_window(QSignal2D(OFF_LATTICE_TABLE.table.data * [1, 0, 0, 0],
                                    OFF_LATTICE_TABLE.table.grid))


def test_constant_window_reduces_to_qlct():
    g = grid()
    f = gen_signal("gaussian", g)
    c = qlcst_forward(f, constant_window(), FOURIER, FOURIER)
    q = qlct_fast_forward(f, FOURIER, FOURIER)
    for i in (0, 7, 15):
        for j in (0, 8, 15):
            assert relative_l2(c.data[i, j], q.data) < 1e-10


def test_zero_signal_zero_coefficients():
    g = grid(8)
    zero = QSignal2D(np.zeros(g.shape + (4,)), g)
    c = qlcst_forward(zero, fixed_gaussian(1, 1), FOURIER, FOURIER)
    assert np.all(c.data == 0.0)


def test_brute_force_oracle_points():
    """Coefficients match an independent per-point quadrature at 5 (u, w)."""
    g = grid(12)
    f = gen_signal("gaussian", g)
    win = fixed_gaussian(1, 1)
    c = qlcst_forward(f, win, FOURIER, FOURIER)
    rng = np.random.default_rng(20)
    for _ in range(5):
        iu1, iu2 = rng.integers(0, g.axis1.n, 2)
        iw1, iw2 = rng.integers(0, c.wgrid.axis1.n, 2)
        want = quadrature(f, win, FOURIER, FOURIER,
                          c.ugrid.axis1.points[[iu1]], c.ugrid.axis2.points[[iu2]],
                          c.wgrid.axis1.points[[iw1]],
                          c.wgrid.axis2.points[[iw2]])[0, 0, 0, 0]
        got = c.data[iu1, iu2, iw1, iw2]
        assert np.linalg.norm(got - want) / np.linalg.norm(want) < 1e-10


def test_generic_path_matches_separable():
    """The per-point quaternion quadrature agrees with the matrix-product
    path at every (u, w) for a Gaussian signal under the Fourier case."""
    g = grid(8)
    f = gen_signal("gaussian", g)
    win = fixed_gaussian(1, 1)
    c = qlcst_forward(f, win, FOURIER, FOURIER)
    want = quadrature(f, win, FOURIER, FOURIER,
                      c.ugrid.axis1.points, c.ugrid.axis2.points,
                      c.wgrid.axis1.points, c.wgrid.axis2.points)
    assert relative_l2(want, c.data) < 1e-12


@pytest.mark.parametrize("case", [name for name, _ in MATRIX_CASES])
@pytest.mark.parametrize("win", [fixed_gaussian(1, 1), s_gaussian(),
                                 constant_window(), OFF_LATTICE_TABLE],
                         ids=["fixed-gauss", "s-gauss", "constant",
                              "table-off-lattice"])
def test_separable_matches_generic_all_windows(win, case):
    """The kernel-matrix contraction agrees with the per-point quaternion
    quadrature at every (u, w) for every window family under every
    verification matrix case."""
    m1, m2 = dict(MATRIX_CASES)[case]()
    g = grid(8)
    f = random_hermite_combo(g, seed=3)
    c = qlcst_forward(f, win, m1, m2)
    want = quadrature(f, win, m1, m2, c.ugrid.axis1.points, c.ugrid.axis2.points,
                      c.wgrid.axis1.points, c.wgrid.axis2.points)
    assert relative_l2(c.data, want) < 1e-12


@pytest.mark.parametrize("case", [name for name, _ in MATRIX_CASES])
def test_lattice_table_matches_separable(case):
    """fixed-gauss:1,1 sampled on the offset lattice, a one-term table,
    gives the built-in window's coefficients."""
    m1, m2 = dict(MATRIX_CASES)[case]()
    g = grid(8)
    f = random_hermite_combo(g, seed=4)
    win = fixed_gaussian(1, 1)
    want = qlcst_forward(f, win, m1, m2)
    got = qlcst_forward(f, lattice_table(win, g), m1, m2)
    assert relative_l2(got.data, want.data) < 1e-10


def test_table_window_slices_are_qlcts_of_masked_products():
    """For a quaternion-valued table, C(u, .) is the direct QLCT of
    f * conj(Psi(u - .)) at each u."""
    g = grid(8)
    f = random_hermite_combo(g, seed=5)
    m1, m2 = dict(MATRIX_CASES)["fractional(pi/3)"]()
    c = qlcst_forward(f, OFF_LATTICE_TABLE, m1, m2)
    x1 = g.axis1.points[:, None]
    x2 = g.axis2.points[None, :]
    for iu1, iu2 in [(0, 0), (3, 5), (7, 2)]:
        u = (g.axis1.points[iu1], g.axis2.points[iu2])
        psi = window_eval(OFF_LATTICE_TABLE, (u[0] - x1, u[1] - x2), None)
        masked = QSignal2D(qmul(f.data, qconj(psi)), g)
        want = qlct_forward(masked, m1, m2, c.wgrid)
        assert relative_l2(c.data[iu1, iu2], want.data) < 1e-10


@settings(max_examples=25, deadline=None)
@given(n=st.integers(6, 12), shape=st.tuples(st.integers(3, 12), st.integers(3, 12)),
       lattice=st.booleans(),
       stretch=st.tuples(st.floats(0.3, 1.7), st.floats(0.3, 1.7)),
       case=st.sampled_from([name for name, _ in MATRIX_CASES]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_random_table_terms_match_quadrature(n, shape, lattice, stretch, case, seed):
    """For random quaternion tables, on and off the u - x lattice, the planes
    match the per-point quadrature and synthesis returns f.  The table's
    singular values run from 1 down to 1e-10, so a term that the eps * max
    SVD cutoff keeps but a looser one would drop shows at 1e-12."""
    m1, m2 = dict(MATRIX_CASES)[case]()
    g = grid(n)
    rng = np.random.default_rng(seed)

    def axis(m, ax, s):
        if lattice:  # points on the offsets k * spacing, around 0
            return Grid1D(m, -(m // 2) * ax.spacing, ax.spacing)
        spacing = s * ax.spacing
        return Grid1D(m, -(m - 1) / 2 * spacing + rng.uniform(-0.5, 0.5) * spacing,
                      spacing)

    n1, n2 = shape
    k = min(n1, 4 * n2)
    sv = np.concatenate([[1.0, 1e-10], rng.uniform(1e-3, 1.0, k - 2)])
    u = np.linalg.qr(rng.standard_normal((n1, k)))[0]
    v = np.linalg.qr(rng.standard_normal((4 * n2, k)))[0]
    table = ((u * sv) @ v.T).reshape(n1, n2, 4)
    win = table_window(QSignal2D(table, Grid2D(axis(n1, g.axis1, stretch[0]),
                                              axis(n2, g.axis2, stretch[1]))))
    f = random_hermite_combo(g, seed=seed % 1000)
    c = qlcst_forward(f, win, m1, m2)
    rows = [0, n // 2, n - 1]
    want = quadrature(f, win, m1, m2, c.ugrid.axis1.points[rows],
                      c.ugrid.axis2.points, c.wgrid.axis1.points,
                      c.wgrid.axis2.points)
    assert relative_l2(c.data[rows], want) < 1e-12
    x1, u2, x2 = (g.axis1.points[:, None, None], g.axis2.points[None, :, None],
                  g.axis2.points[None, None, :])
    frame = sum(qnormsq(window_eval(win, (u1 - x1, u2 - x2), None)).sum(axis=1)
                for u1 in g.axis1.points)
    if frame.min() > 1e-6 * frame.max():
        rec = qlcst_reconstruct(c)
        assert relative_l2(rec.data, f.data) < 1e-12


def test_table_term_counts():
    """A sampled fixed gaussian is one term and OFF_LATTICE_TABLE at most 9;
    a zero table has none, so its planes are zero, it has no lambda and
    synthesis finds no u reaching any x."""
    y = np.zeros((1, 1, 1))

    def terms(win):
        p, q = window_terms(win, y, 1.0, y, 1.0)
        assert len(p) == len(q)
        return len(p)

    assert terms(lattice_table(fixed_gaussian(1, 1), grid(32))) == 1
    assert terms(OFF_LATTICE_TABLE) <= 9
    zero = table_window(QSignal2D(np.zeros((5, 4, 4)),
                                  Grid2D(Grid1D.centered(3.0, 5), Grid1D.centered(2.0, 4))))
    assert terms(zero) == 0
    c = qlcst_forward(random_hermite_combo(grid(8), seed=6), zero, FOURIER, FOURIER)
    assert not c.a.any() and not c.b.any()
    with pytest.raises(ZeroWindow):
        lambda_psi(zero)
    with pytest.raises(Undersampled):
        qlcst_reconstruct(c)


def from_data(data, ugrid, wgrid):
    """Planes built from an interleaved (u1, u2, w1, w2, 4) array."""
    shape = (ugrid.axis1.n * wgrid.axis1.n, ugrid.axis2.n * wgrid.axis2.n)
    a, b = (p.transpose(0, 2, 1, 3).reshape(shape)
            for p in symplectic_split(data))
    return QLCSTCoefficients(a, b, ugrid, wgrid, fixed_gaussian(1, 1),
                             FOURIER, FOURIER)


def test_planes_interleaved_roundtrip_bitexact():
    ugrid = Grid2D(Grid1D.centered(2.0, 3), Grid1D.centered(1.0, 4))
    wgrid = Grid2D(Grid1D.centered(3.0, 5), Grid1D.centered(1.5, 2))
    rng = np.random.default_rng(40)
    data = rng.standard_normal(ugrid.shape + wgrid.shape + (4,))
    data[0, 1, 2] = [1.0, 0.0, -0.0, 5e-324]
    c = from_data(data, ugrid, wgrid)
    assert c.a.shape == c.b.shape == (3 * 5, 4 * 2)
    assert np.array_equal(c.data, data)
    assert np.array_equal(np.signbit(c.data), np.signbit(data))
    a4, b4 = c.views4()
    assert a4[2, 4, 1, 0] == data[2, 1, 4, 0, 0] + 1j * data[2, 1, 4, 0, 1]
    assert b4[2, 4, 1, 0] == data[2, 1, 4, 0, 2] + 1j * data[2, 1, 4, 0, 3]
    back = from_data(c.data, ugrid, wgrid)
    assert np.array_equal(back.a, c.a) and np.array_equal(back.b, c.b)
    with pytest.raises(ValueError):
        c.data[0, 0, 0, 0, 0] = 1.0


def axis_terms(window, u, x, w):
    """window_terms of window with both axes at the offsets u - x and w."""
    y = u[:, None, None] - x
    return window_terms(window, y, w[:, None], y, w[:, None])


def test_s_gaussian_kernel_has_no_subnormals():
    """The profile floor stores the s-gaussian tails as exact zeros, and
    compares |p|, so the negative entries of a signed table survive while
    its subnormal ones are zeroed."""
    g = grid(64)
    x = g.axis1.points
    w = fft_output_grid(g, 1.0, 1.0).axis1.points
    p, _ = axis_terms(s_gaussian(), x, x, w)
    k = _kernel(_floor(p), _phase_matrix(FOURIER, x, w))
    parts = np.abs(k.view(float))
    assert np.all((parts == 0.0) | (parts >= np.finfo(float).tiny))
    assert np.count_nonzero(parts == 0.0) > 0

    t = np.zeros((3, 6, 4))
    t[..., 0] = np.outer([1.0, -2.0, 0.5], [1.0, -1.0, 5e-310, -0.5, 2.0, -3e-310])
    signed = table_window(QSignal2D(t, Grid2D(Grid1D.centered(2.0, 3),
                                              Grid1D.centered(3.0, 6))))
    x = signed.table.grid.axis2.points
    _, q = axis_terms(signed, x, x, np.ones(4))
    q = q[:, 0]
    assert np.any(q < 0.0) and np.any((q != 0.0) & (np.abs(q) < np.finfo(float).tiny))
    kept = np.abs(q) >= PROFILE_FLOOR * np.abs(q).max()
    k = _kernel(_floor(q), _phase_matrix(FOURIER, x, np.ones(4)))
    parts = np.abs(k.view(float))
    assert np.all((parts == 0.0) | (parts >= np.finfo(float).tiny))
    assert np.array_equal(k != 0.0, np.broadcast_to(kept[0], (6, 4, 6)).reshape(k.shape))


def test_x_only_window_product_identity():
    """With a window depending only on x, the coefficients coincide with the
    QLCT of the pointwise product f(x) * G(u - x) at each u."""
    g = grid(8)
    f = gen_signal("gaussian", g)
    wgrid = fft_output_grid(g, 1.0, 1.0)

    def gamma(x1, x2):
        return np.exp(-((x1 + 0.3) ** 2 + x2 * x2) / 4.0)

    lat = offset_lattice(g)
    table = np.zeros(lat.shape + (4,))
    table[..., 0] = gamma(lat.axis1.points[:, None], lat.axis2.points[None, :])
    c = qlcst_forward(f, table_window(QSignal2D(table, lat)), FOURIER, FOURIER,
                      g, wgrid)
    x1 = g.axis1.points[:, None]
    x2 = g.axis2.points[None, :]
    for iu1, iu2 in [(0, 0), (3, 5), (7, 2)]:
        u = (g.axis1.points[iu1], g.axis2.points[iu2])
        masked = QSignal2D(f.data * gamma(u[0] - x1, u[1] - x2)[..., None], g)
        want = qlct_forward(masked, FOURIER, FOURIER, wgrid)
        assert relative_l2(c.data[iu1, iu2], want.data) < 1e-10


def test_pointwise_inverse_constant_window():
    g = grid(24)
    f = gen_signal("gaussian", g)
    c = qlcst_forward(f, constant_window(), FOURIER, FOURIER)
    rec = qlcst_pointwise_inverse(c, (0, 0), g)
    assert relative_l2(rec.data, f.data) < 1e-6


def test_pointwise_inverse_masked_product():
    g = grid(24)
    f = gen_signal("gaussian", g)
    win = fixed_gaussian(1, 1)
    c = qlcst_forward(f, win, FOURIER, FOURIER)
    iu = (g.axis1.n // 2, g.axis2.n // 2)
    u = (g.axis1.points[iu[0]], g.axis2.points[iu[1]])
    rec = qlcst_pointwise_inverse(c, iu, g)
    assert qlcst_pointwise_inverse(c, iu) == rec  # xgrid defaults to C.ugrid
    x1 = g.axis1.points[:, None]
    x2 = g.axis2.points[None, :]
    psi = window_eval(win, (u[0] - x1, u[1] - x2), (1.0, 1.0))
    want = qmul(f.data, qconj(psi))
    assert relative_l2(rec.data, want) < 1e-5


@pytest.mark.parametrize("index", [(-1, 0), (8, 0), (1.5, 0), (1,), (1, 2, 3)])
def test_pointwise_inverse_refuses_bad_index(index):
    """An index pair outside the N=8 u grid, or not two integers, raises
    BadParameter, from a stored set and an unstored analysis alike."""
    args = (gen_signal("gaussian", grid(8)), fixed_gaussian(1, 1), FOURIER, FOURIER)
    for src in (qlcst_forward(*args), qlcst_analysis(*args)):
        with pytest.raises(BadParameter):
            qlcst_pointwise_inverse(src, index)


@pytest.mark.parametrize("case", [name for name, _ in MATRIX_CASES])
def test_pointwise_inverse_any_grid(case):
    """On a w grid that breaks the FFT spacing relation, and onto an x grid
    other than the u grid, the pointwise inverse is the direct inverse QLCT
    of the coefficient slice."""
    m1, m2 = dict(MATRIX_CASES)[case]()
    g = grid(8)
    f = random_hermite_combo(g, seed=7)
    wgrid = Grid2D(Grid1D.centered(3.0, 10), Grid1D.centered(2.5, 7))
    xgrid = Grid2D(Grid1D.centered(6.0, 9), Grid1D.centered(7.0, 6))
    c = qlcst_forward(f, fixed_gaussian(1, 1), m1, m2, wgrid=wgrid)
    for iu in [(0, 0), (3, 5), (7, 2)]:
        want = qlct_inverse(QSpectrum2D(c.data[iu], wgrid), m1, m2, xgrid)
        got = qlcst_pointwise_inverse(c, iu, xgrid)
        assert got.grid == xgrid
        assert relative_l2(got.data, want.data) < 1e-12


def test_reconstruct_roundtrip_small():
    g = grid(16)
    f = gen_signal("gaussian", g)
    c = qlcst_forward(f, fixed_gaussian(1, 1), FOURIER, FOURIER)
    rec = qlcst_reconstruct(c)
    assert relative_l2(rec.data, f.data) < 1e-3


@pytest.mark.parametrize("case", [name for name, _ in MATRIX_CASES])
@pytest.mark.parametrize("lattice", [True, False], ids=["lattice", "off-lattice"])
def test_table_reconstruct_identity(case, lattice):
    """Table-window synthesis divides by the frame sum of the u grid, so it
    returns f itself, also for a table whose lookups all interpolate."""
    m1, m2 = dict(MATRIX_CASES)[case]()
    g = grid(8)
    f = random_hermite_combo(g, seed=6)
    win = lattice_table(fixed_gaussian(1, 1), g) if lattice else OFF_LATTICE_TABLE
    rec = qlcst_reconstruct(qlcst_forward(f, win, m1, m2))
    assert relative_l2(rec.data, f.data) < 1e-12


@pytest.mark.parametrize("window", [fixed_gaussian(1, 1), OFF_LATTICE_TABLE],
                         ids=["fixed-gauss", "table"])
def test_reconstruct_from_unstored_analysis(tmp_path, window):
    """Synthesis sums C.tiles() by column tile, the same sums for every
    source, so the unstored analysis of the N=8 Gaussian reconstructs to the bits of the
    stored set; the pointwise inverse reads C.slice_planes(), so the stored
    set, the analysis and its open file give the same bits."""
    g = grid(8)
    f = gen_signal("gaussian", g)
    args = (f, window, FOURIER, FOURIER)
    stored, unstored = qlcst_forward(*args), qlcst_analysis(*args)
    want = qlcst_reconstruct(stored)
    got = qlcst_reconstruct(unstored)
    assert np.array_equal(got.data, want.data)
    assert relative_l2(got.data, f.data) < 1e-14
    write_coefficients(tmp_path / "c.qcf", stored)
    sources = (stored, unstored, open_coefficients(tmp_path / "c.qcf"))
    for iu in [(0, 0), (3, 5), (7, 7)]:
        ref = qlcst_pointwise_inverse(stored, iu)
        for src in sources:
            assert np.array_equal(qlcst_pointwise_inverse(src, iu).data, ref.data)


def test_reconstruct_zero_coefficients():
    g = grid(16)
    zero = QSignal2D(np.zeros(g.shape + (4,)), g)
    c = qlcst_forward(zero, fixed_gaussian(1, 1), FOURIER, FOURIER)
    assert np.all(qlcst_reconstruct(c).data == 0.0)


def test_reconstruct_rejects_adaptive_window():
    g = grid(8)
    f = gen_signal("gaussian", g)
    c = qlcst_forward(f, s_gaussian(), FOURIER, FOURIER)
    with pytest.raises(AdmissibilityError):
        qlcst_reconstruct(c)


def test_orthogonality_zero_partner():
    g = grid(8)
    f = gen_signal("gaussian", g)
    zero = QSignal2D(np.zeros(g.shape + (4,)), g)
    win = fixed_gaussian(1, 1)
    cf = qlcst_forward(f, win, FOURIER, FOURIER)
    cz = qlcst_forward(zero, win, FOURIER, FOURIER)
    assert float(qnorm(orthogonality_form(cf, cz))) == 0.0


def test_energy_identity_and_scale_invariance():
    g = grid(16)
    f = gen_signal("gaussian", g)
    win = fixed_gaussian(1, 1)
    c = qlcst_forward(f, win, FOURIER, FOURIER)
    gap = energy_identity_gap(c, f)
    assert gap < 1e-3
    f2 = QSignal2D(2.0 * f.data, g)
    c2 = qlcst_forward(f2, win, FOURIER, FOURIER)
    assert abs(energy_identity_gap(c2, f2) - gap) < 1e-12


def test_energy_identity_hermite_combo():
    g = grid(24)
    f = random_hermite_combo(g, seed=5)
    c = qlcst_forward(f, fixed_gaussian(1, 1), FOURIER, FOURIER)
    assert energy_identity_gap(c, f) < 5e-3


def test_energy_identity_zero_signal():
    g = grid(8)
    zero = QSignal2D(np.zeros(g.shape + (4,)), g)
    c = qlcst_forward(zero, fixed_gaussian(1, 1), FOURIER, FOURIER)
    with pytest.raises(ZeroSignal):
        energy_identity_gap(c, zero)


def test_marginal_zero_signal_guarded():
    g = grid(8)
    zero = QSignal2D(np.zeros(g.shape + (4,)), g)
    assert marginal_qlct_gap(qlcst_analysis(zero, s_gaussian(), FOURIER, FOURIER),
                             zero) == 0.0


def test_marginal_holds_no_coefficient_set():
    """The marginal sums the producer's blocks as they come: its traced peak
    on the wide-u grid of the marginal suite stays below a quarter of the
    coefficient set that grid would need."""
    f = gen_signal("gaussian", grid(32))
    wide_u = Grid2D.centered(24.0, 96)
    wgrid = fft_output_grid(f.grid, FOURIER.b, FOURIER.b)
    one_set = 2 * wide_u.axis1.n * wide_u.axis2.n * wgrid.axis1.n * wgrid.axis2.n * 16
    tracemalloc.start()
    try:
        gap = marginal_qlct_gap(
            qlcst_analysis(f, s_gaussian(), FOURIER, FOURIER, ugrid=wide_u), f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.25 * one_set
    assert gap < 1e-3


def test_marginal_matches_whole_set_sum():
    """The streamed marginal equals the u sum of the stored planes, on a u
    grid whose N_u1 the block size does not divide."""
    f = random_hermite_combo(grid(12), seed=3)
    ugrid = Grid2D(Grid1D.centered(8.0, 2 * ROW_BLOCK + 3), Grid1D.centered(6.0, 10))
    for window in (fixed_gaussian(1, 0.7), OFF_LATTICE_TABLE):
        c = qlcst_forward(f, window, FOURIER, FOURIER, ugrid=ugrid)
        a4, b4 = c.views4()
        marg = symplectic_join(a4.sum(axis=(0, 2)), b4.sum(axis=(0, 2))) * ugrid.cell
        want = relative_l2(marg, qlct_fast_forward(f, FOURIER, FOURIER).data)
        got = marginal_qlct_gap(qlcst_analysis(f, window, FOURIER, FOURIER,
                                               ugrid=ugrid), f)
        assert want > 1e-3
        assert math.isclose(got, want, rel_tol=1e-12)


def sum_axes_marginal_gap(C, f):
    """The reduction that marginal_qlct_gap replaced, kept as the reference:
    each tile summed over u1 and u2 by sum(axis=(0, 2)), into one partial
    per column tile, the partials then added in tile order."""
    nw1, nw2 = C.wgrid.shape
    partials = {}
    for _, cols, *planes in C.tiles():
        acc = partials.setdefault(cols.start, [np.zeros((nw1, nw2), dtype=complex)
                                               for _ in range(2)])
        for h, p in zip(acc, planes):
            h += p.reshape(-1, nw1, p.shape[1] // nw2, nw2).sum(axis=(0, 2))
    marg = [sum(h) for h in zip(*(partials[k] for k in sorted(partials)))]
    marg = symplectic_join(*marg) * C.ugrid.cell
    return relative_l2(marg, qlct_forward(f, C.m1, C.m2, C.wgrid).data)


def test_marginal_matches_sum_axes_reference():
    """On both grids of the marginal suite, the einsum reduction gives the
    gap of the sum(axis=(0, 2)) reduction."""
    f = gen_signal("gaussian", grid(32))
    for window, kw in ((s_gaussian(), dict(ugrid=Grid2D.centered(24.0, 96))),
                       (fixed_gaussian(0.05, 0.05),
                        dict(ugrid=Grid2D.centered(8.0, 256),
                             wgrid=Grid2D.centered(2.0, 8)))):
        C = qlcst_analysis(f, window, FOURIER, FOURIER, **kw)
        assert math.isclose(marginal_qlct_gap(C, f), sum_axes_marginal_gap(C, f),
                            rel_tol=1e-12)


def test_covariance_small():
    g = grid(24)
    f = gen_signal("gaussian", g)
    rep = covariance_residuals(f, fixed_gaussian(1, 1), FOURIER, FOURIER,
                               alpha=(2.0 * g.axis1.spacing, 0.0), s=(1.0, 1.0))
    assert rep.parity < 1e-10
    assert rep.shift < 5e-3
    assert rep.modulation < 1e-2


@pytest.mark.parametrize("win", [fixed_gaussian(1, 1), s_gaussian()],
                         ids=["fixed-gauss", "s-gauss"])
def test_covariance_shift_exact_on_shifted_grid(win):
    """The shift identity's right side is evaluated at u - alpha itself, so
    no u boundary rows are lost and the residual is at roundoff."""
    g = grid(24)
    f = gen_signal("gaussian", g)
    rep = covariance_residuals(f, win, FOURIER, FOURIER,
                               alpha=(2.0 * g.axis1.spacing, 0.0))
    assert rep.shift < 1e-10


def test_covariance_table_window_matches_separable():
    """The covariance residuals of fixed-gauss:1,1 sampled on the offset
    lattice equal those of the separable window and meet the suite
    tolerances."""
    g = grid(16)
    f = gen_signal("gaussian", g)
    win = fixed_gaussian(1, 1)
    want = covariance_residuals(f, win, FOURIER, FOURIER)
    got = covariance_residuals(f, lattice_table(win, g), FOURIER, FOURIER)
    for name in ("parity", "shift", "modulation"):
        assert abs(getattr(got, name) - getattr(want, name)) < 1e-12
    assert got.parity < 1e-10
    assert got.shift < 1e-3
    assert got.modulation < 1e-2


@pytest.mark.parametrize("win", [fixed_gaussian(1, 1), s_gaussian()],
                         ids=["fixed-gauss", "s-gauss"])
@pytest.mark.parametrize("abcd", [(2, 1, 1, 1), (0.5, 1, -1, 0)],
                         ids=["2,1,1,1", "0.5,1,-1,0"])
def test_covariance_modulation_a_ne_d(win, abcd):
    """With A != D the modulation identity holds to roundoff with the
    kernel evaluated at (x, w - sB); the printed order K(w - sB, x) misses by
    the phase (A - D)(t^2 - x^2)/2B, an O(1) residual."""
    m = validate_param(*abcd)
    rep = covariance_residuals(gen_signal("gaussian", grid(32)), win, m, m)
    assert rep.modulation < 1e-12


@pytest.mark.parametrize("abcd", [(0, 1, -1, 0), (2, 1, 1, 1)],
                         ids=["fourier", "2,1,1,1"])
def test_covariance_table_windows(abcd):
    """Parity, shift and modulation hold for a real-valued table, here
    REAL_TABLE.  For the quaternion-valued OFF_LATTICE_TABLE parity holds,
    but the right factors exp(mu2 s2 x2) of the modulation and
    exp(mu2 A2 x2 alpha2/B2) of the shift do not commute with conj(Psi): its
    modulation fails, and its shift fails when A2 * alpha2 != 0."""
    m = validate_param(*abcd)
    f = gen_signal("gaussian", grid(16))
    real = covariance_residuals(f, REAL_TABLE, m, m)
    quat = covariance_residuals(f, OFF_LATTICE_TABLE, m, m)
    for rep in (real, quat):
        assert rep.parity < 1e-10 and rep.shift < 1e-10
    assert real.modulation < 1e-12
    assert quat.modulation > 0.5
    real, quat = (covariance_residuals(f, win, m, m, alpha=(0.0, 1.0)).shift
                  for win in (REAL_TABLE, OFF_LATTICE_TABLE))
    assert real < 1e-12
    assert quat > 0.5 if m.a else quat < 1e-10


SHIFT_CASES = dict(MATRIX_CASES, **{"2,1,1,1": lambda: (validate_param(2, 1, 1, 1),) * 2})


@pytest.mark.parametrize("win", [fixed_gaussian(1, 1), s_gaussian(), REAL_TABLE],
                         ids=["fixed-gauss", "s-gauss", "real-table"])
@pytest.mark.parametrize("case", list(SHIFT_CASES))
def test_covariance_shift_off_grid(case, win):
    """The shift's left side analyses f's samples on the x grid moved by
    +alpha, which is T_alpha f exactly, so an alpha of no whole number of
    grid steps holds to roundoff, also with A != D."""
    m1, m2 = SHIFT_CASES[case]()
    f = gen_signal("gaussian", grid(16))
    rep = covariance_residuals(f, win, m1, m2, alpha=(0.37, -1.3))
    assert rep.shift < 1e-12


def test_special_case_matrices():
    m1, m2 = special_case_matrix("stockwell")
    assert (m1.a, m1.b, m1.c, m1.d) == (0.0, 1.0, -1.0, 0.0)
    assert m1 == m2
    f1, _ = special_case_matrix("fractional", math.pi / 2)
    assert abs(f1.a) < 1e-12 and abs(f1.b - 1.0) < 1e-12
    fr, _ = special_case_matrix("fresnel", 2.0)
    assert (fr.a, fr.b, fr.c, fr.d) == (1.0, 2.0, 0.0, 1.0)
    with pytest.raises(DegenerateAngle):
        special_case_matrix("fractional", 0.0)
    with pytest.raises(DegenerateAngle):
        special_case_matrix("fractional", math.pi)
    with pytest.raises(BadParameter):
        special_case_matrix("fresnel", 0.0)
    with pytest.raises(BadParameter):
        special_case_matrix("unknown")
    for args in (("fractional",), ("fresnel",), ("fractional", "abc"),
                 ("fractional", math.inf), ("fractional", math.nan),
                 ("fresnel", -math.inf), ("fresnel", "1e400")):
        with pytest.raises(BadParameter):
            special_case_matrix(*args)


def test_real_scalar_linearity():
    g = grid(8)
    rng = np.random.default_rng(21)
    f = QSignal2D(rng.standard_normal(g.shape + (4,)), g)
    h = QSignal2D(rng.standard_normal(g.shape + (4,)), g)
    win = fixed_gaussian(1, 1)
    comb = QSignal2D(0.6 * f.data - 1.2 * h.data, g)
    lhs = qlcst_forward(comb, win, FOURIER, FOURIER).data
    rhs = (0.6 * qlcst_forward(f, win, FOURIER, FOURIER).data
           - 1.2 * qlcst_forward(h, win, FOURIER, FOURIER).data)
    assert relative_l2(lhs, rhs) < 1e-12


@pytest.mark.parametrize("window", [fixed_gaussian(1, 0.7), s_gaussian(),
                                    constant_window()],
                         ids=["fixed-gauss", "s-gauss", "constant"])
@pytest.mark.parametrize("case", [name for name, _ in MATRIX_CASES])
def test_forward_blocks_match_one_contraction(window, case):
    """The planes filled block by block equal the single whole-plane
    contraction bit for bit, on a u grid whose N_u1 the block size does not
    divide, as qlcst_forward fills them and under custom kernel matrices."""
    m1, m2 = dict(MATRIX_CASES)[case]()
    g = grid(12)
    f = random_hermite_combo(g, seed=2)
    ugrid = Grid2D(Grid1D.centered(8.0, 2 * ROW_BLOCK + 3), Grid1D.centered(6.0, 10))
    assert ugrid.axis1.n % ROW_BLOCK
    wgrid = fft_output_grid(g, m1.b, m2.b)
    x1, x2 = g.axis1.points, g.axis2.points
    w1, w2 = wgrid.axis1.points, wgrid.axis2.points
    # kernel matrices of phase tables offset from the forward ones
    e1 = kernel_const(m1) * np.exp(1j * (kernel_phase(m1, x1[None, :], w1[:, None]) + 0.3))
    e2 = kernel_const(m2) * np.exp(1j * (kernel_phase(m2, x2[None, :], w2[:, None]) - 0.2))
    a, b = symplectic_split(f.data)

    def kernels(e1, e2):
        """K1 and K2 of the one-term window, (u, w) rows by x columns."""
        p, q = window_terms(window, ugrid.axis1.points[:, None, None] - x1,
                            w1[:, None], ugrid.axis2.points[:, None, None] - x2,
                            w2[:, None])
        return _kernel(_floor(p), e1), _kernel(_floor(q[:, 0]), e2)

    c = qlcst_forward(f, window, m1, m2, ugrid)
    want = _contract(a * g.cell, b * g.cell,
                     *kernels(_phase_matrix(m1, x1, w1), _phase_matrix(m2, x2, w2)))
    assert all(np.array_equal(p, q) for p, q in zip((c.a, c.b), want))
    want = _contract(a * g.cell, b * g.cell, *kernels(e1, e2))
    got = [np.empty_like(c.a), np.empty_like(c.b)]
    u = (ugrid.axis1.points, ugrid.axis2.points)
    whole = [_col_tiles(len(u[1]), len(w2))]
    for rows, cols, k, *planes in _analysis_tiles(f, window, u, (w1, w2), e1, e2, whole):
        for out, p in zip(got, planes):
            np.matmul(k, p, out=out[rows, cols])
    assert all(np.array_equal(p, q) for p, q in zip(got, want))


def _full_rel_l2(got, want):
    num = sum(np.linalg.norm(g - w) ** 2 for g, w in zip(got, want))
    denom = sum(np.linalg.norm(w) ** 2 for w in want)
    return math.sqrt(num / denom) if denom else math.sqrt(num)


@pytest.mark.parametrize("window", [fixed_gaussian(1, 1), OFF_LATTICE_TABLE],
                         ids=["fixed-gauss", "table"])
def test_streamed_residual_matches_full_formula(window):
    """The block-by-block residuals of two producers against a third equal
    the whole-array formula, also against a zero reference, on a u grid
    whose last row block is clipped, so the reused block buffers serve
    blocks of two sizes."""
    g = grid(8)
    f, h, k = (random_hermite_combo(g, seed=seed) for seed in (8, 9, 10))
    zero = QSignal2D(np.zeros(g.shape + (4,)), g)
    ugrid = Grid2D(Grid1D.centered(8.0, 2 * ROW_BLOCK + 3), g.axis2)
    wgrid = fft_output_grid(g, FOURIER.b, FOURIER.b)

    def tiles(f):
        analysis = qlcst_analysis(f, window, FOURIER, FOURIER, ugrid, wgrid)
        return analysis.tile_factors(analysis._groups())

    def planes(f):
        c = qlcst_forward(f, window, FOURIER, FOURIER, ugrid, wgrid)
        return c.a, c.b

    want = [_full_rel_l2(planes(f), planes(h)), _full_rel_l2(planes(k), planes(h))]
    assert min(want) > 0.1
    got = [_streamed_rel_l2(tiles(h), tiles(x)) for x in (f, k)]
    assert all(math.isclose(x, y, rel_tol=1e-12) for x, y in zip(got, want))
    got = _streamed_rel_l2(tiles(zero), tiles(f))
    assert math.isclose(got, _full_rel_l2(planes(f), planes(zero)), rel_tol=1e-12)


def test_streamed_residual_refuses_misaligned_blocks():
    """Producers of another u1 count, whose row blocks differ in number, are
    refused by the strict zip instead of being zipped row against wrong
    row."""
    g = grid(8)
    f = gen_signal("gaussian", g)
    wgrid = fft_output_grid(g, FOURIER.b, FOURIER.b)
    longer = Grid2D(Grid1D.centered(8.0, 2 * ROW_BLOCK + 1), g.axis2)

    def tiles(ugrid=g):
        analysis = qlcst_analysis(f, fixed_gaussian(1, 1), FOURIER, FOURIER, ugrid, wgrid)
        return analysis.tile_factors(analysis._groups())

    for want, got in ((tiles(), tiles(longer)), (tiles(longer), tiles())):
        with pytest.raises(ValueError):
            _streamed_rel_l2(want, got)


@pytest.mark.parametrize("window", [fixed_gaussian(1, 0.7), s_gaussian(),
                                    OFF_LATTICE_TABLE],
                         ids=["fixed-gauss", "s-gauss", "table"])
def test_reversed_blocks_are_reversed_planes(window):
    """Reversed u and w points with the reversed rows of the kernel matrices
    yield the planes with both axes reversed, in the same row blocks, on a u
    grid whose N_u1 the block size does not divide, under the forward kernel
    matrices and under custom ones.  The products may differ from the
    forward ones only in their last bits."""
    g = grid(12)
    f = random_hermite_combo(g, seed=5)
    ugrid = Grid2D(Grid1D.centered(8.0, 2 * ROW_BLOCK + 3), Grid1D.centered(6.0, 10))
    assert ugrid.axis1.n % ROW_BLOCK
    wgrid = fft_output_grid(g, FOURIER.b, FOURIER.b)
    u = (ugrid.axis1.points, ugrid.axis2.points)
    w = (wgrid.axis1.points, wgrid.axis2.points)
    forward = [_phase_matrix(FOURIER, x, ws)
               for x, ws in zip((g.axis1.points, g.axis2.points), w)]
    # w-dependent phase offsets, so the order of the kernel rows shows
    custom = [e * np.exp(1j * c * ws[:, None]) for e, c, ws in zip(forward, (0.3, -0.2), w)]
    shape = tuple(nu * nw for nu, nw in zip(ugrid.shape, wgrid.shape))

    def planes(u, w, e):
        out = [np.empty(shape, dtype=complex) for _ in range(2)]
        whole = [_col_tiles(len(u[1]), len(w[1]))]
        for rows, cols, k, *ps in _analysis_tiles(f, window, u, w, *e, whole):
            for o, p in zip(out, ps):
                o[rows, cols] = k @ p
        return out

    def rev(v):
        return [x[::-1] for x in v]

    for e in (forward, custom):
        want = [p[::-1, ::-1] for p in planes(u, w, e)]
        for p, q in zip(planes(rev(u), rev(w), rev(e)), want):
            assert np.linalg.norm(p - q) <= 1e-15 * np.linalg.norm(q)


def test_covariance_holds_one_coefficient_set():
    """covariance_residuals streams both sides of every check, so its traced
    peak stays below 0.75 of one coefficient set."""
    g = grid(32)  # spacing 0.5: the shift alpha = 1 is 2 steps
    f = gen_signal("gaussian", g)
    win = fixed_gaussian(1, 1)
    wgrid = fft_output_grid(g, FOURIER.b, FOURIER.b)
    one_set = 2 * g.axis1.n * g.axis2.n * wgrid.axis1.n * wgrid.axis2.n * 16
    tracemalloc.start()
    try:
        rep = covariance_residuals(f, win, FOURIER, FOURIER)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.75 * one_set
    assert rep.parity < 1e-10 and rep.shift < 1e-3 and rep.modulation < 1e-2


def one_set(n):
    """Bytes of the two planes of an N x N coefficient set on the default
    grids: 33.5 MB at N=32, 10.6 MB at N=24."""
    return 2 * n ** 4 * 16


def test_analysis_rows_reuse_block_buffers():
    """tiles() of an analysis computes every tile into the same two buffers,
    each tile equal to the stored entries; a stored set yields the same row
    and column slices as views of its planes."""
    g = grid(8)
    f = random_hermite_combo(g, seed=4)
    ugrid = Grid2D(Grid1D.centered(8.0, 2 * ROW_BLOCK + 3), g.axis2)
    args = (f, fixed_gaussian(1, 0.7), FOURIER, FOURIER, ugrid)
    stored = qlcst_forward(*args)
    seen = []
    for rows, cols, a, b in qlcst_analysis(*args).tiles():
        assert (np.array_equal(a, stored.a[rows, cols])
                and np.array_equal(b, stored.b[rows, cols]))
        seen.append((rows, a, b))
    assert len(seen) == len(_row_blocks(len(stored.a), stored.wgrid.axis1.n))
    assert all(np.shares_memory(a, seen[0][1]) and np.shares_memory(b, seen[0][2])
               for _, a, b in seen[1:])
    got = list(stored.tiles())
    assert [rows for rows, *_ in got] == [rows for rows, *_ in seen]
    for rows, cols, a, b in got:
        assert np.shares_memory(a, stored.a) and np.shares_memory(b, stored.b)
        assert (np.array_equal(a, stored.a[rows, cols])
                and np.array_equal(b, stored.b[rows, cols]))


def formula_mu2_factors(C):
    """The mu2 factors of the analysis C term by term by the formula of
    right_mu2, each in new arrays: (p + q)*0.5 and (p - q)*(-0.5j) of
    p = (a + ib) @ K2^T and q = conj(conj(a - ib) @ K2^T)."""
    (x1, x2), (u1, u2), (w1, w2) = ((g.axis1.points, g.axis2.points)
                                    for g in (C.f.grid, C.ugrid, C.wgrid))
    _, q = window_terms(C.window, u1[:, None, None] - x1, w1[:, None],
                        u2[:, None, None] - x2, w2[:, None])
    fu = np.concatenate([qmul(C.f.data, qconj(e)) for e in np.eye(4)[:q.shape[1]]],
                        axis=1)
    a, b = (h * C.f.grid.cell for h in symplectic_split(fu))
    e2 = _phase_matrix(C.m2, x2, w2)
    planes = [[], []]
    for q_r in q:
        k2 = _kernel(_floor(q_r), e2)
        p_ = (a + 1j * b) @ k2.T
        q_ = np.conj(np.conj(a - 1j * b) @ k2.T)
        planes[0].append((p_ + q_) * 0.5)
        planes[1].append((p_ - q_) * -0.5j)
    return [np.concatenate(h) for h in planes]


@pytest.mark.parametrize("window", [fixed_gaussian(1, 0.7), s_gaussian(),
                                    OFF_LATTICE_TABLE],
                         ids=["one-term", "s-gauss", "table"])
def test_mu2_stage_is_the_formula(window):
    """The mu2 factors that the producer forms in place, in the rows of each
    term of its stacks, are the bits of the right_mu2 formula evaluated in
    new arrays."""
    m = dict(MATRIX_CASES)["fractional(pi/3)"]()[0]
    C = qlcst_analysis(random_hermite_combo(grid(16), seed=5), window, FOURIER, m)
    _, _, _, *got = next(C.tile_factors(C._groups(whole=True)))
    want = formula_mu2_factors(C)
    assert all(np.array_equal(x, y) for x, y in zip(got, want))


@pytest.mark.parametrize("n", [32, 48])
def test_mu2_stage_traced_peak(n):
    """The mu2 stage of the producer holds, at its traced peak, at most 1.7
    times what it keeps for the blocks (the mu2 factors and the first K1
    rows): one term's products go straight into the stacks and are combined
    there through one temporary, made after K2 is freed.  It read 1.58 and
    1.50 at N = 32 and 48 (fixed-gauss(1,1), Fourier); forming the planes
    in new arrays read 3.33 and 3.39."""
    C = qlcst_analysis(gen_signal("gaussian", grid(n)), fixed_gaussian(1, 1),
                       FOURIER, FOURIER)
    whole = C._groups(whole=True)
    next(C.tile_factors(whole))  # lazy set-up done before tracing
    tracemalloc.start()
    try:
        tiles = C.tile_factors(whole)
        first = next(tiles)
        keeps, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert first[2] is not None and peak <= 1.7 * keeps


def streamed_working_set(n, tile_cols, temporaries):
    """Bytes a streamed reduction of the N x N one-term analysis may hold at
    its traced peak, for tiles of W columns: one column block of mu2
    factors (2*N*W complex), two tile buffers (2*ROW_BLOCK*N*W), one term's
    mu2 temporary (its K2 rows of the tile or P - Q, N*W), the reduction's
    own temporaries of a tile (temporaries*N*W), the K1 rows of one block
    (ROW_BLOCK*N^2), one partial of N^2 per column tile and plane, and 12
    signal-sized arrays, plus numpy's cast buffers (0.26 MB)."""
    width = _col_tiles(n, n)[0].stop
    ntiles = len(_col_tiles(n, n))
    assert width <= 1.5 * tile_cols
    return 16 * ((2 + 2 * ROW_BLOCK + 1 + temporaries) * n * width
                 + (ROW_BLOCK + 2 * ntiles + 12) * n * n) + 2 ** 18


WORKING_SET_CASES = [pytest.param(48, TILE_COLS, id="48"),
                     pytest.param(64, TILE_COLS, id="64"),
                     pytest.param(48, 256, id="48-8-tiles")]


def traced_peak(fn, *args):
    """fn(*args) and the tracemalloc peak of the call."""
    tracemalloc.start()
    try:
        out = fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, peak


@pytest.mark.parametrize("n, tile_cols", WORKING_SET_CASES)
def test_streamed_energy_working_set(monkeypatch, n, tile_cols):
    """A streamed energy holds one column block of mu2 factors, not whole
    rows, besides the tile buffers, the K1 rows of one block and arrays the
    size of the signal (streamed_working_set): so its traced peak holds at
    two sizes and with eight narrow tiles.  Whole-row factors exceed it."""
    monkeypatch.setattr("qlcst.coefficients.TILE_COLS", tile_cols)
    f = gen_signal("gaussian", grid(n))
    gap, peak = traced_peak(energy_identity_gap, qlcst_analysis(
        f, fixed_gaussian(1, 1), FOURIER, FOURIER), f)
    assert gap < 1e-12
    assert peak < streamed_working_set(n, tile_cols, 0)


@pytest.mark.parametrize("n, tile_cols", WORKING_SET_CASES)
def test_streamed_lemma41_working_set(monkeypatch, n, tile_cols):
    """lemma_41_gap holds the working set of a streamed energy and the
    w-inverse of one u1 row of a tile: its split planes, their P and Q, the
    K1 products, the scaled results and |.|^2 (6*N*W)."""
    monkeypatch.setattr("qlcst.coefficients.TILE_COLS", tile_cols)
    f = gen_signal("gaussian", grid(n))
    gaps, peak = traced_peak(lemma_41_gap, qlcst_analysis(
        f, fixed_gaussian(1, 1), FOURIER, FOURIER), f)
    assert max(gaps) < 1e-10
    assert peak < streamed_working_set(n, tile_cols, 6)


@pytest.mark.parametrize("n, tile_cols", WORKING_SET_CASES)
def test_streamed_marginal_working_set(monkeypatch, n, tile_cols):
    """marginal_qlct_gap holds the working set of a streamed energy, its
    partials of two planes per tile, then the direct oracle's QLCT."""
    monkeypatch.setattr("qlcst.coefficients.TILE_COLS", tile_cols)
    f = gen_signal("gaussian", grid(n))
    gap, peak = traced_peak(marginal_qlct_gap, qlcst_analysis(
        f, fixed_gaussian(1, 1), FOURIER, FOURIER), f)
    assert gap < 1e-3
    assert peak < streamed_working_set(n, tile_cols, 0)


@pytest.mark.parametrize("n, n1", [(33, 33), (12, 2 * ROW_BLOCK + 3)])
def test_analysis_against_file_with_partial_last_block(tmp_path, n, n1):
    """Whenever the block size does not divide N_u1, every block an analysis
    or a QCF2 file yields lies inside the plane, so the two line up: the
    form of an analysis against the file of a second one equals the form
    against that analysis itself."""
    g = grid(n)
    ugrid = Grid2D(Grid1D.centered(8.0, n1), g.axis2)
    assert n1 % ROW_BLOCK
    f, h = (random_hermite_combo(g, seed=seed) for seed in (11, 12))
    window = fixed_gaussian(1, 0.7)
    cf, ch = (qlcst_analysis(x, window, FOURIER, FOURIER, ugrid) for x in (f, h))
    write_coefficients(tmp_path / "h.qcf", ch)
    fh = open_coefficients(tmp_path / "h.qcf")
    nrows, step = cf.plane_shape[0], ROW_BLOCK * cf.wgrid.axis1.n
    for src in (cf, fh):
        assert [(rows.start, rows.stop)
                for rows, *_ in src.tile_factors(src._groups(whole=True))] == [
            (start, min(start + step, nrows)) for start in range(0, nrows, step)]
    want = orthogonality_form(cf, ch)
    got = orthogonality_form(cf, fh)
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


@pytest.mark.parametrize("case", [name for name, _ in MATRIX_CASES])
@pytest.mark.parametrize("n, n1, window, tile_cols", [
    (12, 2 * ROW_BLOCK + 3, fixed_gaussian(1, 0.7), TILE_COLS),
    (12, 2 * ROW_BLOCK + 3, OFF_LATTICE_TABLE, TILE_COLS),
    (33, 33, fixed_gaussian(1, 0.7), TILE_COLS),
    (12, 2 * ROW_BLOCK + 3, OFF_LATTICE_TABLE, 1),
    (33, 33, fixed_gaussian(1, 0.7), 1),
    (12, 2 * ROW_BLOCK + 3, fixed_gaussian(1, 0.7), 40),
    (33, 33, fixed_gaussian(1, 0.7), 40)],
    ids=["12-fixed-gauss", "12-table", "33-fixed-gauss", "12-table-one-group",
         "33-fixed-gauss-one-group", "12-fixed-gauss-3-tiles", "33-fixed-gauss-clipped"])
def test_every_source_gives_the_same_bits(tmp_path, monkeypatch, case, n, n1, window,
                                          tile_cols):
    """A stored set, the unstored analysis and its open QCF2 file yield the
    same tiles, so every reduction, synthesis, slice and written file is
    the same bits from each, and each cross form of two of them is the form
    of the analysis with itself: on a u grid of the first N_u1 signal points
    of axis 1, N_u1 one the block size does not divide, and at an odd N;
    with column tiles of the whole row (TILE_COLS), of one u2 group, and of
    a few groups, at N=33 with a clipped last tile."""
    monkeypatch.setattr("qlcst.coefficients.TILE_COLS", tile_cols)
    assert [t.stop - t.start for t in _col_tiles(n, n)] == {
        TILE_COLS: [n * n], 1: [n] * n,
        40: [4 * n] * 3 if n == 12 else [2 * n] * 16 + [n]}[tile_cols]
    m1, m2 = dict(MATRIX_CASES)[case]()
    g = grid(n)
    f = random_hermite_combo(g, seed=9)
    ugrid = Grid2D(Grid1D(n1, g.axis1.origin, g.axis1.spacing), g.axis2)
    if n1 != n:  # a centered grid of n1 points is not dual
        with pytest.raises(SpacingError):
            qlcst_reconstruct(qlcst_analysis(
                f, window, m1, m2, Grid2D(Grid1D.centered(8.0, n1), g.axis2)))
    stored, analysis = (make(f, window, m1, m2, ugrid)
                        for make in (qlcst_forward, qlcst_analysis))
    write_coefficients(tmp_path / "c.qcf", stored)
    sources = (stored, analysis, open_coefficients(tmp_path / "c.qcf"))
    nu1, nu2 = ugrid.shape

    def outputs(C, path):
        scalars = [C.energy(), spectral_dispersion(C, 1), spectral_dispersion(C, 2),
                   heisenberg_report(C, f, 1).ratio, heisenberg_report(C, f, 2).ratio,
                   energy_identity_gap(C, f), marginal_qlct_gap(C, f),
                   *lemma_41_gap(C, f)]
        if n % 2 == 0:  # an odd N puts a w point on the origin
            scalars.append(spectral_log_moment(C))
        arrays = [C.density(), orthogonality_form(C, C), qlcst_reconstruct(C).data,
                  *(qlcst_pointwise_inverse(C, iu).data
                    for iu in ((0, 1), (nu1 - 1, nu2 // 2))),
                  *C.slice_planes("u", (nu1 - 1, 0)), *C.slice_planes("w", (1, 2))]
        write_coefficients(path, C)
        return scalars, arrays, path.read_bytes()

    want_scalars, want_arrays, want_bytes = outputs(stored, tmp_path / "0.qcf")
    for i, src in enumerate(sources[1:], 1):
        scalars, arrays, raw = outputs(src, tmp_path / ("%d.qcf" % i))
        assert scalars == want_scalars
        assert all(np.array_equal(x, y) for x, y in zip(arrays, want_arrays))
        assert raw == want_bytes
    want = orthogonality_form(analysis, analysis)
    for cf, cg in itertools.permutations(sources, 2):
        assert np.array_equal(orthogonality_form(cf, cg), want)


@pytest.mark.parametrize("n, n1", [(12, 7), (33, 33)])
def test_block_size_changes_no_bits(tmp_path, monkeypatch, n, n1):
    """The stored planes of qlcst_forward and the QCF2 bytes written from an
    unstored analysis are the same bits at ROW_BLOCK = 1, 2 and 4: on the
    first N_u1 = 7 signal points of an N=12 grid, where the last block of 2
    and of 4 rows is clipped, and at an odd N=33."""
    g = grid(n)
    f = random_hermite_combo(g, seed=15)
    ugrid = Grid2D(Grid1D(n1, g.axis1.origin, g.axis1.spacing), g.axis2)
    args = (f, fixed_gaussian(1, 0.7), FOURIER, FOURIER, ugrid)
    got = []
    for size in (1, 2, 4):
        monkeypatch.setattr("qlcst.coefficients.ROW_BLOCK", size)
        analysis = qlcst_analysis(*args)
        assert len(list(analysis.tile_factors(analysis._groups()))) == -(-n1 // size)
        stored = qlcst_forward(*args)
        write_coefficients(tmp_path / "c.qcf", analysis)
        got.append((stored.a, stored.b, (tmp_path / "c.qcf").read_bytes()))
    for a, b, raw in got[1:]:
        assert np.array_equal(a, got[0][0]) and np.array_equal(b, got[0][1])
        assert raw == got[0][2]


def test_u_slice_of_an_analysis_computes_one_block():
    """A u slice of an unstored analysis reads every row block of the one
    column tile that holds its u2 group (tile_factors), and no full-width
    block, but computes the product of only the one block that holds its u1
    row, and gives the stored slice's bits; a w slice computes every block."""
    g = grid(8)
    f = random_hermite_combo(g, seed=3)
    ugrid = Grid2D(Grid1D.centered(8.0, 3 * ROW_BLOCK + 1), g.axis2)
    args = (f, fixed_gaussian(1, 0.7), FOURIER, FOURIER, ugrid)
    stored, analysis = qlcst_forward(*args), qlcst_analysis(*args)
    nblocks = len(_row_blocks(analysis.plane_shape[0], analysis.wgrid.axis1.n))
    assert nblocks == 4
    products, read = [], []

    class Counted(np.ndarray):
        """A block's kernel rows, which count the products taken with them."""

        def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
            products.append(ufunc)
            return getattr(ufunc, method)(*map(np.asarray, inputs), **kwargs)

    tile_factors = analysis.tile_factors

    def counted_tiles(groups):
        for rows, cols, k, a, b in tile_factors(groups):
            read.append((rows, cols))
            yield rows, cols, k.view(Counted), a, b

    analysis.tile_factors = counted_tiles
    cols = _col_tiles(ugrid.axis2.n, analysis.wgrid.axis2.n)
    assert cols == [slice(0, analysis.plane_shape[1])]
    for i in range(ugrid.axis1.n):
        products.clear()
        read.clear()
        got = analysis.slice_planes("u", (i, 2))
        assert products == [np.matmul] * 2
        assert [c for _, c in read] == cols * nblocks
        assert np.array_equal(got, stored.slice_planes("u", (i, 2)))
    products.clear()
    got = analysis.slice_planes("w", (1, 2))
    assert products == [np.matmul] * (2 * nblocks)
    assert np.array_equal(got, stored.slice_planes("w", (1, 2)))


def test_u_slice_of_an_analysis_builds_one_tile_of_factors(monkeypatch):
    """At N=48 with eight column tiles of 288 columns, a u slice of an
    unstored analysis and its pointwise inverse give the bits of the stored
    set's and hold, at their traced peak, one tile's mu2 factors and one
    mu2 temporary of its size, one block of K1 rows and 20 signal-sized
    arrays (1.47 MB): not the 3.5 MB of full-width factors, with which the
    slice read 5.7 MB."""
    monkeypatch.setattr("qlcst.coefficients.TILE_COLS", 256)
    n = 48
    width = [t.stop - t.start for t in _col_tiles(n, n)]
    assert width == [288] * 8
    f = random_hermite_combo(grid(n), seed=3)
    args = (f, fixed_gaussian(1, 0.7), FOURIER, FOURIER)
    stored, analysis = qlcst_forward(*args), qlcst_analysis(*args)
    bound = 16 * (3 * n * width[0] + ROW_BLOCK * n * n + 20 * n * n)
    for read in (lambda c: c.slice_planes("u", (n - 1, n // 2)),
                 lambda c: qlcst_pointwise_inverse(c, (5, n - 1)).data):
        want = read(stored)
        tracemalloc.start()
        try:
            got = read(analysis)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(got, want)
        assert peak < bound


def full_rank_table(n):
    """A random quaternion table of (2n - 1)^2 points at unit spacing, of
    full rank: R = 2n - 1 terms."""
    r = 2 * n - 1
    return table_window(QSignal2D(np.random.default_rng(5).standard_normal((r, r, 4)),
                                  Grid2D.centered(r / 2, r)))


# R = 31 terms, whose stacked mu2 factors take 4.1 MB at N = 16 and the K1
# rows of one block 0.25 MB.
FULL_RANK_TABLE = full_rank_table(16)


def test_analysis_refuses_stacked_terms_beyond_memory(monkeypatch, tmp_path):
    """The stacked window terms of the analysis grow as R*N^3.  Beyond
    physical memory (taken as 1 MB) they are refused with TooLarge, by the
    rule that refuses planes, before they or any kernel are allocated; with
    10 MB taken, the analysis runs and gives the unpatched bits, and so it
    does with 5.3 MB, between what it allocates,
    R*N_x1*(2*N_u2*N_w2 + min(ROW_BLOCK, N_u1)*N_w1)*16 bytes for the stacked
    mu2 factors and one block of K1 rows (4.3 MB), and the 6.1 MB of the mu2
    factors and a whole K1.  The synthesis of a stored set, an analysis and
    a file holds as much, its two accumulated sums and one block of K1^H
    columns, and is refused and runs at the same thresholds."""
    f = gen_signal("gaussian", grid(16))
    args = (f, FULL_RANK_TABLE, FOURIER, FOURIER)
    r, n = 31, 16
    need = r * n * (2 * n * n + min(ROW_BLOCK, n) * n) * 16
    assert need < 53 * 10 ** 5 < r * n * (2 * n * n + n * n) * 16
    want = qlcst_analysis(*args).density()
    stored = qlcst_forward(*args)
    write_coefficients(tmp_path / "c.qcf", stored)
    sources = (stored, qlcst_analysis(*args), open_coefficients(tmp_path / "c.qcf"))
    want_rec = qlcst_reconstruct(stored).data
    for memory in (10 ** 7, 53 * 10 ** 5):
        monkeypatch.setattr("qlcst.coefficients._physical_memory", lambda: memory)
        assert np.array_equal(qlcst_analysis(*args).density(), want)
        for c in sources:
            assert np.array_equal(qlcst_reconstruct(c).data, want_rec)

    def allocated(*_):
        raise AssertionError("a kernel was built")

    monkeypatch.setattr("qlcst.coefficients._physical_memory", lambda: 10 ** 6)
    monkeypatch.setattr("qlcst.qlcst._kernel", allocated)
    tracemalloc.start()
    try:
        with pytest.raises(TooLarge, match="stacked window terms of %.3g GB"
                           % (need / 1e9)):
            qlcst_analysis(*args).energy()
        with pytest.raises(TooLarge, match="stacked window terms"):
            covariance_residuals(*args)
        for c in sources:
            with pytest.raises(TooLarge, match="stacked window terms of %.3g GB"
                               % (need / 1e9)):
                qlcst_reconstruct(c)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6  # the stacked mu2 factors alone take 4.1 MB


def test_tile_outer_refusal_counts_one_tile(monkeypatch):
    """The refusal charges each producer the mu2 factors it holds: one
    column tile's, 2*R*N_x1*|tile|, when tiles are outer, whole rows' in row
    order.  With four tiles of 64 columns at N = 16 under the full-rank
    table and a memory limit of 2.5 MB, between the 1.3 MB of one tile's
    factors and one block of K1 rows and the 4.3 MB of whole rows',
    covariance_residuals and qlcst_forward (whose 2.1 MB planes fit) run
    and give the unlimited bits, while the analysis's tiles in one group of
    whole rows, and the synthesis with its whole-row K1^H sums, are
    refused."""
    monkeypatch.setattr("qlcst.coefficients.TILE_COLS", 64)
    r, n = 31, 16
    assert [t.stop - t.start for t in _col_tiles(n, n)] == [64] * 4
    args = (gen_signal("gaussian", grid(n)), FULL_RANK_TABLE, FOURIER, FOURIER)
    one_tile, rows = (r * n * (2 * cols + ROW_BLOCK * n) * 16 for cols in (64, n * n))
    limit = 25 * 10 ** 5
    assert one_tile < limit < rows and one_set(n) < limit
    want_rep, want = covariance_residuals(*args), qlcst_forward(*args)
    monkeypatch.setattr("qlcst.coefficients._memory_limits",
                        lambda: [("a test limit", limit)])
    assert covariance_residuals(*args) == want_rep
    got = qlcst_forward(*args)
    assert np.array_equal(got.a, want.a) and np.array_equal(got.b, want.b)
    message = "stacked window terms of %.3g GB" % (rows / 1e9)
    with pytest.raises(TooLarge, match=message):
        analysis = qlcst_analysis(*args)
        next(analysis.tile_factors(analysis._groups(whole=True)))
    with pytest.raises(TooLarge, match=message):
        qlcst_reconstruct(got)


@pytest.mark.parametrize("window", [fixed_gaussian(1, 0.7), OFF_LATTICE_TABLE],
                         ids=["fixed-gauss", "table"])
def test_k1_is_built_one_block_at_a_time(monkeypatch, window):
    """The producer and the synthesis build the K1 (K1^H) rows of one block
    at a time: with N_u1 = 3*ROW_BLOCK + 1 (x2 of another length, so the K2
    are told apart) no kernel of the x1 axis has more than ROW_BLOCK*N_w1
    rows, and those of one pass cover the N_u1*N_w1 plane rows once."""
    g = Grid2D(Grid1D.centered(8.0, 3 * ROW_BLOCK + 1), Grid1D.centered(6.0, 10))
    f = random_hermite_combo(g, seed=13)
    args = (f, window, FOURIER, FOURIER)
    nrows, step = g.axis1.n ** 2, ROW_BLOCK * g.axis1.n  # N_w1 = N_x1 = N_u1
    built = []

    def recorded(prof, e, out=None):
        """_kernel, recording the rows of each K1 or K1^H (N_x1 columns of e)."""
        k = _kernel(prof, e, out)
        if e.shape[1] == g.axis1.n:
            built.append(len(k))
        return k

    monkeypatch.setattr("qlcst.qlcst._kernel", recorded)
    for run, passes in ((lambda: qlcst_analysis(*args).energy(), 1),
                        (lambda: qlcst_forward(*args), 1),
                        (lambda: qlcst_reconstruct(qlcst_analysis(*args)), 2),
                        (lambda: covariance_residuals(*args), 6)):
        built.clear()
        run()
        assert max(built) == step and sum(built) == passes * nrows


def whole_k1_planes(C):
    """The planes of the analysis C by one whole stacked K1 of the window's
    terms, of which each block takes its rows, the mu2 factors a and b being
    those of the producer."""
    x, u, w = ((g.axis1.points, g.axis2.points) for g in (C.f.grid, C.ugrid, C.wgrid))
    p, _ = window_terms(C.window, u[0][:, None, None] - x[0], w[0][:, None],
                        u[1][:, None, None] - x[1], w[1][:, None])
    k1 = _kernel(_floor(p), _phase_matrix(C.m1, x[0], w[0]))
    planes = [np.empty(C.plane_shape, dtype=complex) for _ in range(2)]
    for rows, cols, _, *parts in C.tile_factors(C._groups()):
        for plane, part in zip(planes, parts):
            np.matmul(k1[rows], part, out=plane[rows, cols])
    return planes


def whole_k1h_reconstruct(C):
    """qlcst_reconstruct with one whole stacked K1^H, of which each block
    takes its columns."""
    g = C.ugrid
    x1s, x2s = g.axis1.points, g.axis2.points
    p, q = window_terms(C.window, x1s[:, None, None] - x1s, 1.0,
                        x2s[:, None, None] - x2s, 1.0)
    e1h, e2h = _w_adjoints(C, g)
    k1h = _kernel(_floor(p), e1h.T).T
    acc = [np.zeros((len(k1h), C.plane_shape[1]), dtype=complex) for _ in range(2)]
    for rows, cols, *planes in C.tiles():
        for h, plane in zip(acc, planes):
            h[:, cols] += k1h[:, rows] @ plane
    out = np.zeros(g.shape + (4,))
    for r, q_r in enumerate(q):
        a, b = (h[r * len(x1s):(r + 1) * len(x1s)] for h in acc)
        adj = symplectic_join(*_right_contract(a, b, _kernel(_floor(q_r), e2h.T).T))
        for c, e in enumerate(np.eye(4)[:len(q_r)]):
            out += qmul(adj[:, c * len(x2s):(c + 1) * len(x2s)], e)
    out *= C.wgrid.cell
    frame = np.einsum("rsx,rsy->xy", np.einsum("ruwx,suwx->rsx", p, p),
                      np.einsum("rcuwx,scuwx->rsx", q, q))
    return out / frame[..., None]


@pytest.mark.parametrize("window", [
    fixed_gaussian(1, 0.7), s_gaussian(),
    lattice_table(fixed_gaussian(1, 0.7), grid(16)), FULL_RANK_TABLE],
    ids=["fixed-gauss", "s-gauss", "lattice-table", "full-rank-table"])
def test_block_k1_gives_the_whole_k1_bits(tmp_path, window):
    """The K1 rows built per block are the rows of the whole K1, so the
    planes of a stored set, an analysis and its QCF2 file, and every
    synthesis from them, are the bits of the whole-K1 algorithm, on a u grid
    of the first N_u1 = 3*ROW_BLOCK + 1 signal points of axis 1."""
    g = grid(16)
    f = random_hermite_combo(g, seed=14)
    nu1 = 3 * ROW_BLOCK + 1
    ugrid = Grid2D(Grid1D(nu1, g.axis1.origin, g.axis1.spacing), g.axis2)
    m = dict(MATRIX_CASES)["fractional(pi/3)"]()[0]
    if not window.w_dependent:  # a centered grid of nu1 points is not dual
        with pytest.raises(SpacingError):
            qlcst_reconstruct(qlcst_analysis(
                f, window, FOURIER, m, Grid2D(Grid1D.centered(8.0, nu1), g.axis2)))
    analysis = qlcst_analysis(f, window, FOURIER, m, ugrid)
    stored = analysis.stored()
    write_coefficients(tmp_path / "c.qcf", analysis)
    sources = (stored, analysis, open_coefficients(tmp_path / "c.qcf"))
    want = whole_k1_planes(analysis)
    for src in sources:
        got = [np.empty(src.plane_shape, dtype=complex) for _ in range(2)]
        for rows, cols, *planes in src.tiles():
            for out, plane in zip(got, planes):
                out[rows, cols] = plane
        assert all(np.array_equal(x, y) for x, y in zip(got, want))
    if not window.w_dependent:
        for src in sources:
            assert np.array_equal(qlcst_reconstruct(src).data,
                                  whole_k1h_reconstruct(src))


def test_k1_floor_comes_from_the_whole_profile():
    """An s-gaussian on a u grid reaching far past the x grid: the profile
    peaks of its outer blocks lie far below that of the whole profile, and
    floored per block their tails would keep entries that PROFILE_FLOOR of
    the whole peak zeroes, changing whole plane rows.  The producer floors
    the whole profile, so each block's K1 rows are those of the whole K1."""
    g = grid(12)
    f = random_hermite_combo(g, seed=13)
    # 13 u points at ROW_BLOCK = 2: with 7 or 9 no block's own floor differs
    ugrid = Grid2D(Grid1D.centered(40.0, 6 * ROW_BLOCK + 1), g.axis2)
    analysis = qlcst_analysis(f, s_gaussian(), FOURIER, FOURIER, ugrid)
    x1, u1, w1 = (gr.axis1.points for gr in (g, ugrid, analysis.wgrid))
    p, _ = axis_terms(s_gaussian(), u1, x1, w1)
    e1 = _phase_matrix(FOURIER, x1, w1)
    whole = _kernel(_floor(p.copy()), e1)
    # the K1 rows copied: the producer builds each block's into one buffer
    blocks = [(rows, k.copy(), a) for rows, _, k, a, _ in
              analysis.tile_factors(analysis._groups(whole=True))]
    per_block = np.concatenate([
        _kernel(_floor(p[:, rows.start // len(w1):rows.stop // len(w1)].copy()), e1)
        for rows, *_ in blocks])
    a = blocks[0][2]
    assert not np.array_equal(per_block @ a, whole @ a)
    assert all(np.array_equal(k, whole[rows]) for rows, k, *_ in blocks)


def two_product_rel_l2(want, got):
    """The residual of _streamed_rel_l2 by two products per plane tile,
    the reference and the other side, and their difference."""
    num = denom = 0.0
    for (_, _, k, *planes), (_, _, gk, *gots) in zip(want, got, strict=True):
        for plane, other in zip(planes, gots):
            ref = k @ plane
            diff = gk @ other - ref
            denom += np.vdot(ref, ref).real
            num += np.vdot(diff, diff).real
    return math.sqrt(num / denom if denom else num)


@pytest.mark.parametrize("n, window", [
    (48, fixed_gaussian(1, 1)),
    (16, lattice_table(fixed_gaussian(1, 1), grid(16))),
    (16, FULL_RANK_TABLE)],
    ids=["covariance-suite", "lattice-table", "full-rank-table"])
def test_streamed_residual_matches_two_products(monkeypatch, n, window):
    """Each check of covariance_residuals gives, to 1e-15, the residual of
    two products per block, on the covariance suite's case, a one-term
    table and a full-rank table."""
    streamed, got = _streamed_rel_l2, []

    def kept(tiles):
        """The producer's tiles as a list, each tile's mu2 factors copied
        once and each block's K1 rows, so that they outlive the next tile."""
        out, last = [], None
        for rows, cols, k, *planes in tiles:
            if cols != last:
                held, last = [p.copy() for p in planes], cols
            out.append((rows, cols, k.copy(), *held))
        return out

    def both(want, other):
        want, other = kept(want), kept(other)
        got.append((streamed(iter(want), iter(other)),
                    two_product_rel_l2(iter(want), iter(other))))
        return got[-1][0]

    monkeypatch.setattr("qlcst.qlcst._streamed_rel_l2", both)
    m1, m2 = special_case_matrix("stockwell")
    covariance_residuals(gen_signal("gaussian", Grid2D.centered(8.0, n)), window, m1, m2)
    assert len(got) == 3
    assert all(abs(x - y) <= 1e-15 for x, y in got)


@pytest.mark.parametrize("n", [12, 16])
def test_many_term_covariance_holds_no_stack(n):
    """Under the full-rank (2N - 1)^2 table (R = 2N - 1) the traced peak of
    covariance_residuals stays below 1.6 times the mu2 factors of its two
    producers, 2 * 2*R*N_x1*N_u2*N_w2*16 bytes: besides them a check holds
    blocks only, no R-sized stack of the planes and no R*N_x1-square Gram
    matrix.  It reads 1.42 at N = 12 and 1.28 at N = 16; with the stack and
    the Gram matrix it read 2.81 and 2.73."""
    r = 2 * n - 1
    window = full_rank_table(n)
    f = gen_signal("gaussian", grid(n))
    tracemalloc.start()
    try:
        rep = covariance_residuals(f, window, FOURIER, FOURIER)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.parity < 1e-10
    assert peak < 1.6 * 2 * (2 * r * n ** 3 * 16)


@pytest.mark.parametrize("n, window, tile_cols", [
    (48, fixed_gaussian(1, 1), TILE_COLS), (16, FULL_RANK_TABLE, 64)],
    ids=["covariance-suite", "full-rank-table-4-tiles"])
def test_covariance_holds_one_column_block(monkeypatch, n, window, tile_cols):
    """covariance_residuals runs column tile outer, so at its traced peak it
    holds, in complex values, for tiles of W columns: one tile's mu2
    factors of both producers (4*R*N*W), two tile buffers
    (2*ROW_BLOCK*N*W), one term's mu2 temporaries (its K2 rows of the tile
    and P - Q, (C + 1)*N*W), the one reused block of K1 rows of each
    producer (2*R*ROW_BLOCK*N^2), both producers' window terms
    (R*(1 + C)*N^2) and 24 signal-sized arrays, plus numpy's cast buffers
    (0.26 MB).  None of it grows as N^3 at a fixed W: on the covariance
    suite's case (two tiles) and under the full-rank table with four tiles
    it reads 8.9 and 3.6 MB against bounds of 10.2 and 3.7 MB; with each
    block's K1 rows built anew while the last were held it read 8.9 and
    4.1 MB, with whole-row factors 11.5 and 10.0 MB."""
    monkeypatch.setattr("qlcst.coefficients.TILE_COLS", tile_cols)
    width = _col_tiles(n, n)[0].stop
    assert 1 < len(_col_tiles(n, n))
    f = gen_signal("gaussian", grid(n))
    _, q = axis_terms(window, *[f.grid.axis1.points] * 3)
    r, c = q.shape[:2]
    bound = 16 * (4 * r * n * width + 2 * ROW_BLOCK * n * width + (c + 1) * n * width
                  + 2 * r * ROW_BLOCK * n * n + r * (1 + c) * n * n + 24 * n * n) + 2 ** 18
    tracemalloc.start()
    try:
        rep = covariance_residuals(f, window, FOURIER, FOURIER)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.parity < 1e-10
    assert peak < bound


# Residuals of covariance_residuals as recorded when its sides were still
# row-block producers of qlcst_analysis, on random_hermite_combo(grid(n),
# seed=3) with s = (1, -0.5): (n, window, matrix pair, alpha, residuals).
RECORDED_COVARIANCE = [
    (16, fixed_gaussian(1, 1), special_case_matrix("stockwell"), (1.0, 0.0),
     (6.953479933760447e-16, 4.302046816229797e-16, 4.0203424329547917e-16)),
    (12, REAL_TABLE, (validate_param(2, 1, 1, 1), validate_param(0.5, 1, -1, 0)),
     (0.37, -1.3),
     (3.624687713763245e-15, 9.626966475832837e-16, 6.452148937591524e-16)),
    (16, s_gaussian(), special_case_matrix("stockwell"), (0.5, -1.0),
     (9.116250169956965e-16, 5.758384646227716e-16, 3.9738620819792455e-16)),
]


@pytest.mark.parametrize("n, window, pair, alpha, want", RECORDED_COVARIANCE,
                         ids=["fixed-gauss", "real-table", "s-gauss"])
def test_covariance_needs_no_analysis_object(monkeypatch, n, window, pair,
                                             alpha, want):
    """covariance_residuals builds all six sides from _analysis_tiles
    itself: with qlcst_analysis and QLCSTAnalysis.tile_factors raising, it still
    gives the recorded residuals, each at roundoff."""
    def refuse(*args, **kwargs):
        raise AssertionError("covariance_residuals used the analysis object")

    monkeypatch.setattr("qlcst.qlcst.qlcst_analysis", refuse)
    monkeypatch.setattr(QLCSTAnalysis, "tile_factors", refuse)
    rep = covariance_residuals(random_hermite_combo(grid(n), seed=3), window,
                               *pair, alpha=alpha, s=(1.0, -0.5))
    got = (rep.parity, rep.shift, rep.modulation)
    assert all(abs(x - y) <= 1e-14 and x <= 1e-14 for x, y in zip(got, want))


SUITE_PEAK_BOUNDS = {
    "marginal": 100e6,
    "covariance": 0.13 * one_set(48),
    "orthogonality": one_set(32),
    "energy": one_set(32),
    "heisenberg": one_set(32),
    "log-uncertainty": one_set(32),
    "lemma41": one_set(24),
}


@pytest.mark.parametrize("suite", list(SUITE_PEAK_BOUNDS))
def test_verify_suite_traced_peak(suite):
    """The suites that once held whole coefficient sets only to reduce them
    stay below their bound of traced allocations: one coefficient set of the
    suite's grid, or 100 MB for the wide-u marginal.  The covariance (N=48)
    holds two block products per check and stays below 0.13 of its 170 MB
    set (it reads about 0.053)."""
    tracemalloc.start()
    try:
        passed, _ = run_suite(suite)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert passed
    assert peak < SUITE_PEAK_BOUNDS[suite]


def test_orthogonality_refuses_other_window_or_matrices():
    """Two sources of one signal under another window or other matrices (the
    same grids) give no orthogonality form and are refused, stored or
    streamed; a stored set against a streamed one gives the bits of the
    form of two analyses."""
    f = gen_signal("gaussian", grid(8))
    other = validate_param(0.5, 1, -1, 0)
    for make in (qlcst_forward, qlcst_analysis):
        base = make(f, fixed_gaussian(1, 1), FOURIER, FOURIER)
        for win, m in ((fixed_gaussian(0.3, 0.3), other),
                       (fixed_gaussian(0.3, 0.3), FOURIER),
                       (fixed_gaussian(1, 1), other)):
            with pytest.raises(GridMismatch):
                orthogonality_form(base, make(f, win, m, m))
    args = (f, fixed_gaussian(1, 1), FOURIER, FOURIER)
    assert np.array_equal(orthogonality_form(qlcst_forward(*args), qlcst_analysis(*args)),
                          orthogonality_form(qlcst_analysis(*args), qlcst_analysis(*args)))


def test_orthogonality_one_pass_per_source(monkeypatch):
    """orthogonality_form(C, C) reads each block of C once and gives the
    bits of the form against a second analysis of the same signal; the
    orthogonality suite thus runs 3 analyses per matrix case."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return _analysis_tiles(*args, **kwargs)

    f = random_hermite_combo(grid(8), seed=3)
    args = (f, fixed_gaussian(1, 0.7), FOURIER, FOURIER)
    C = qlcst_analysis(*args)
    monkeypatch.setattr("qlcst.qlcst._analysis_tiles", counted)
    want = orthogonality_form(C, qlcst_analysis(*args))
    assert len(calls) == 2
    assert np.array_equal(orthogonality_form(C, C), want)
    assert len(calls) == 3
    calls.clear()
    passed, _ = run_suite("orthogonality")
    assert passed and len(calls) == 3 * len(MATRIX_CASES)


def test_run_suite_refuses_unknown_name():
    with pytest.raises(BadParameter):
        run_suite("no-such-suite")


@settings(max_examples=20, deadline=None)
@given(n=st.integers(6, 24), case=st.sampled_from([name for name, _ in MATRIX_CASES]),
       window=st.one_of(
           st.tuples(st.floats(0.25, 3.0), st.floats(0.25, 3.0)).map(
               lambda sigma: fixed_gaussian(*sigma)),
           st.just(s_gaussian()), st.just(OFF_LATTICE_TABLE)),
       seed=st.integers(0, 2 ** 32 - 2))
def test_stored_and_streamed_reductions_agree(n, case, window, seed):
    """Every reduction of the unstored analysis gives the bits of that of the
    stored set, whose row blocks are the same, on a u grid whose N_u1 the
    block size does not divide; the lambda-scaled checks for w-independent
    windows only."""
    assume(n % 2 == 0 or not window.w_dependent)  # the s-gaussian needs w != 0
    m1, m2 = dict(MATRIX_CASES)[case]()
    g = grid(n)
    f, h = (random_hermite_combo(g, seed=seed + i) for i in (0, 1))
    f = QSignal2D(f.data / math.sqrt(f.energy()), g)
    ugrid = Grid2D(Grid1D.centered(8.0, n + (n % ROW_BLOCK == 0)), g.axis2)
    assert ugrid.axis1.n % ROW_BLOCK

    def reductions(make):
        C, Ch = (make(x, window, m1, m2, ugrid) for x in (f, h))
        out = [spectral_dispersion(C, 1), spectral_dispersion(C, 2),
               marginal_qlct_gap(C, f), *orthogonality_form(C, C),
               *orthogonality_form(C, Ch)]
        if n % 2 == 0:  # an odd N puts a w point on the origin
            out.append(spectral_log_moment(C))
        if not window.w_dependent:
            out += [energy_identity_gap(C, f), *lemma_41_gap(C, f)]
        return C.density(), out

    want_density, want = reductions(qlcst_forward)
    got_density, got = reductions(qlcst_analysis)
    assert np.array_equal(got_density, want_density)
    assert got == want


def test_checks_need_no_coefficient_set(monkeypatch):
    """With physical memory taken as 1 MB, qlcst_forward refuses the 2 MB
    N=16 set, while every check of the energy, heisenberg, log-uncertainty,
    lemma41 and marginal suites runs on the unstored analysis of the same
    inputs and gives the bits of the stored run."""
    f = random_hermite_combo(grid(16), seed=6)
    args = (f, fixed_gaussian(1, 1), FOURIER, FOURIER)

    def checks(C):
        return [energy_identity_gap(C, f), heisenberg_report(C, f, 1).ratio,
                heisenberg_report(C, f, 2).ratio, log_uncertainty_report(C, f).gap,
                *lemma_41_gap(C, f), marginal_qlct_gap(C, f)]

    want = checks(qlcst_forward(*args))
    monkeypatch.setattr("qlcst.coefficients._physical_memory", lambda: 10 ** 6)
    with pytest.raises(TooLarge):
        qlcst_forward(*args)
    assert checks(qlcst_analysis(*args)) == want


def cgroup_tree(tmp_path, table, limits):
    """A cgroup table listing `table` and, under a mount, the limit files
    {relative path: text}, for _CGROUP_TABLE and _CGROUP_MOUNT."""
    (tmp_path / "cgroup").write_text(table)
    for rel, text in limits.items():
        (tmp_path / "mnt" / rel).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / "mnt" / rel).write_text(text)
    return str(tmp_path / "cgroup"), str(tmp_path / "mnt")


@pytest.mark.parametrize("table, limits, name", [
    ("0::/grp\n", {"grp/memory.max": "1000000\n"}, r"cgroup limit \(memory\.max\)"),
    ("4:memory:/grp\n0::/\n", {"memory/grp/memory.limit_in_bytes": "1000000\n",
                               "memory.max": "max\n"},
     r"cgroup limit \(memory\.limit_in_bytes\)"),
    ("2:cpu,memory:/\n", {"memory/memory.limit_in_bytes": "1000000\n"},
     r"cgroup limit \(memory\.limit_in_bytes\)"),
], ids=["v2", "v1", "v1-root"])
def test_refusal_reads_the_cgroup_limit(monkeypatch, tmp_path, table, limits, name):
    """A cgroup memory limit below physical memory refuses the 2 MB N=16 set
    and is named in the message; files that read "max", are missing or
    list no memory group are ignored, and so is an unreadable table."""
    args = (gen_signal("gaussian", grid(16)), fixed_gaussian(1, 1), FOURIER, FOURIER)
    paths = cgroup_tree(tmp_path, table, limits)
    monkeypatch.setattr("qlcst.coefficients._CGROUP_TABLE", paths[0])
    monkeypatch.setattr("qlcst.coefficients._CGROUP_MOUNT", paths[1])
    with pytest.raises(TooLarge, match="0.001 GB of the " + name):
        qlcst_forward(*args)
    for rel in limits:
        (tmp_path / "mnt" / rel).write_text("max\n")
    qlcst_forward(*args)
    for rel in limits:
        (tmp_path / "mnt" / rel).unlink()
    qlcst_forward(*args)
    monkeypatch.setattr("qlcst.coefficients._CGROUP_TABLE", str(tmp_path / "none"))
    for rel in limits:
        (tmp_path / "mnt" / rel).write_text("1000000\n")
    qlcst_forward(*args)


def test_refusal_reads_the_address_space_limit(monkeypatch):
    """A soft RLIMIT_AS below physical memory refuses the 2 MB N=16 set and
    is named; an unlimited one is ignored; where physical memory is the
    smallest limit, the message names it."""
    args = (gen_signal("gaussian", grid(16)), fixed_gaussian(1, 1), FOURIER, FOURIER)
    hard = resource.RLIM_INFINITY
    monkeypatch.setattr(resource, "getrlimit", lambda which: (10 ** 6, hard))
    with pytest.raises(TooLarge,
                       match=r"0.001 GB of the address-space limit \(RLIMIT_AS\)"):
        qlcst_forward(*args)
    monkeypatch.setattr("qlcst.coefficients._physical_memory", lambda: 5 * 10 ** 5)
    with pytest.raises(TooLarge, match="0.0005 GB of physical memory"):
        qlcst_forward(*args)
    monkeypatch.setattr("qlcst.coefficients._physical_memory", lambda: 10 ** 7)
    monkeypatch.setattr(resource, "getrlimit", lambda which: (hard, hard))
    qlcst_forward(*args)


@pytest.mark.parametrize("n", [16, 32, 48])
def test_table_energy_identity(n):
    """lambda of a table integrates its bilinear interpolant, which is what
    the transform uses, so the energy gap of a rough off-lattice table falls
    below 1e-2 (it was 0.54 for every N with the sample sum)."""
    f = gen_signal("gaussian", grid(n))
    c = qlcst_forward(f, OFF_LATTICE_TABLE, FOURIER, FOURIER)
    assert energy_identity_gap(c, f) < 1e-2


def test_planes_must_match_grids():
    """Planes of another shape than the grids give raise GridMismatch."""
    c = qlcst_forward(gen_signal("gaussian", grid(4)), fixed_gaussian(1, 1),
                      FOURIER, FOURIER)
    for a, b in [(c.a[:-1], c.b), (c.a, c.b[:, :-1]), (c.a.ravel(), c.b)]:
        with pytest.raises(GridMismatch, match="do not match grids"):
            QLCSTCoefficients(a, b, c.ugrid, c.wgrid, c.window, c.m1, c.m2)


def test_planes_read_only_and_density_cached():
    """Writes to a plane are refused, and density() is computed once: energy,
    both dispersions and the log moment equal their uncached values, summed
    over the same row blocks."""
    g = grid(16)
    f = random_hermite_combo(g, seed=4)
    c = qlcst_forward(f, fixed_gaussian(1, 1), FOURIER, FOURIER)
    for plane in (c.a, c.b, *c.views4()):
        with pytest.raises(ValueError):
            plane[0, 0] = 1.0
    nw1, nw2 = c.wgrid.shape
    acc = np.zeros((nw1, 2 * nw2))
    for rows in _row_blocks(len(c.a), nw1):
        for plane in (c.a[rows], c.b[rows]):
            parts = plane.view(float).reshape(-1, nw1, g.axis2.n, 2 * nw2)
            acc += np.einsum("abcd,abcd->bd", parts, parts)
    uncached = acc.reshape(nw1, nw2, 2).sum(axis=-1)
    density = c.density()
    assert density is c.density()
    assert not density.flags.writeable
    assert np.array_equal(density, uncached)
    fresh = QLCSTCoefficients(c.a, c.b, c.ugrid, c.wgrid, c.window, c.m1, c.m2)
    assert fresh._density is None
    for fn in (lambda C: C.energy(), lambda C: spectral_dispersion(C, 1),
               lambda C: spectral_dispersion(C, 2), spectral_log_moment):
        assert fn(c) == fn(fresh)
    assert c.energy() == float(np.sum(uncached) * c.cell4)


@pytest.mark.parametrize("case", [name for name, _ in MATRIX_CASES])
def test_reconstruct_coarse_u_grid(case):
    """fixed-gauss:1,1 on u grids of spacing 2, 4/3 and 1 (N=8, 12, 16 over
    [-8, 8]), where the frame sum is 0.61 to 1.37 lambda, reconstructs f to
    roundoff."""
    m1, m2 = dict(MATRIX_CASES)[case]()
    for n in (8, 12, 16):
        f = gen_signal("gaussian", grid(n))
        rec = qlcst_reconstruct(qlcst_forward(f, fixed_gaussian(1, 1), m1, m2))
        assert relative_l2(rec.data, f.data) < 1e-12


def coarse_table(g):
    """fixed-gauss:1,1 sampled on the grid g itself as a table window, so
    the u - x offsets of g fall between its samples."""
    x = (g.axis1.points[:, None], g.axis2.points[None, :])
    return table_window(QSignal2D(window_eval(fixed_gaussian(1, 1), x, (1.0, 1.0)),
                                  g))


@pytest.mark.parametrize("case", [name for name, _ in MATRIX_CASES])
@pytest.mark.parametrize("n, win", [
    (16, constant_window()),
    (8, OFF_LATTICE_TABLE),
    (8, coarse_table(grid(8))),
], ids=["constant", "table-off-lattice", "table-coarse"])
def test_reconstruct_windows_far_from_lambda(case, n, win):
    """Windows whose frame sum on the u grid is far from lambda (relative L2
    errors 0.556, 0.560 and 0.424 when dividing by lambda) reconstruct f."""
    m1, m2 = dict(MATRIX_CASES)[case]()
    f = gen_signal("gaussian", grid(n))
    rec = qlcst_reconstruct(qlcst_forward(f, win, m1, m2))
    assert relative_l2(rec.data, f.data) < 1e-12


@settings(max_examples=30, deadline=None)
@given(n=st.integers(6, 24), case=st.sampled_from([name for name, _ in MATRIX_CASES]),
       sigma=st.tuples(st.floats(0.25, 3.0), st.floats(0.25, 3.0)),
       seed=st.integers(0, 2 ** 32 - 1))
def test_reconstruct_inverts_forward(n, case, sigma, seed):
    """Synthesis inverts analysis for every fixed-gaussian width and u
    spacing, under every verification matrix case."""
    m1, m2 = dict(MATRIX_CASES)[case]()
    f = random_hermite_combo(grid(n), seed=seed)
    rec = qlcst_reconstruct(qlcst_forward(f, fixed_gaussian(*sigma), m1, m2))
    assert relative_l2(rec.data, f.data) < 1e-11


# Ones on [10, 12]^2: from x1 = 7 or x2 = 7 of grid(8) every offset u - x is
# at most 0, so no u reaches those x.
FAR_TABLE = table_window(QSignal2D(np.ones((3, 3, 4)),
                                   Grid2D(Grid1D(3, 10.0, 1.0), Grid1D(3, 10.0, 1.0))))


def test_reconstruct_refuses_uncovered_x():
    """A table that reaches some x from no u leaves the frame sum zero
    there, and reconstruction is refused."""
    f = gen_signal("gaussian", grid(8))
    with pytest.raises(Undersampled):
        qlcst_reconstruct(qlcst_forward(f, FAR_TABLE, FOURIER, FOURIER))


# w grids on which grid(16) under FOURIER, whose dual w spacing is 2*pi/16,
# is not dual: Grid2D.centered(e, n) has the spacing 2*e/n.
NOT_DUAL_W = {"half-dual-spacing": Grid2D.centered(math.pi / 2, 16),
              "centered-2-8": Grid2D.centered(2.0, 8),
              "8-points-twice-dual-spacing": Grid2D.centered(math.pi, 8),
              "twice-dual-spacing": Grid2D.centered(2 * math.pi, 16)}


@pytest.mark.parametrize("wgrid", NOT_DUAL_W.values(), ids=NOT_DUAL_W.keys())
def test_reconstruct_refuses_a_w_grid_not_dual_to_u(tmp_path, wgrid):
    """A w grid on which dual_ratio is None makes the w sum no delta on the
    u grid, and synthesis would return a wrong f without an error: 0.272
    and 0.134 from f where s = 1/2 and s = 0.64 are no whole numbers; 2.0e-7
    from f (0.39 under fixed-gauss:3,3) at s = 1 with 8 < 16 points; 4*f at
    s = 2 with 16 < 31 points.  It is refused from a stored set, an
    analysis and a file."""
    analysis = qlcst_analysis(gen_signal("gaussian", grid(16)), fixed_gaussian(1, 1),
                              FOURIER, FOURIER, wgrid=wgrid)
    write_coefficients(tmp_path / "c.qcf", analysis)
    for src in (analysis.stored(), analysis, open_coefficients(tmp_path / "c.qcf")):
        with pytest.raises(SpacingError):
            qlcst_reconstruct(src)


@settings(max_examples=200, deadline=None)
@given(nx=st.integers(2, 24), nw=st.integers(2, 64), log_b=st.floats(-11, 9),
       sign=st.sampled_from([-1.0, 1.0]), dx=st.floats(0.05, 4.0),
       s=st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0]))
def test_dual_ratio_matches_the_kernel_sum(nx, nw, log_b, sign, dx, s):
    """dual_ratio against the kernel sum dx * dw * E^H E on the x axis, for
    the matrices (0, B, -1/B, 0), whose phases -x*w/B stay small for every
    B: at s = 1 it accepts exactly when the sum is the identity to 1e-9, and
    every s it accepts is the drawn s, with the sum s times the identity."""
    b = sign * 10.0 ** log_b
    dw = 2.0 * math.pi * abs(b) * s / (dx * nw)
    x, w = (Grid1D(n, -0.5 * (n - 1) * d, d) for n, d in ((nx, dx), (nw, dw)))
    e = _phase_matrix(validate_param(0, b, -1.0 / b, 0), x.points, w.points)
    gram = dx * dw * (e.conj().T @ e)
    k = dual_ratio(x, w, b)
    if s == 1.0:
        assert (k == 1) == (np.abs(gram - np.eye(nx)).max() <= 1e-9)
    if k is not None:
        assert k == s and np.abs(gram - k * np.eye(nx)).max() <= 1e-9 * k


@pytest.mark.parametrize("case", [name for name, _ in MATRIX_CASES])
def test_reconstruct_on_every_second_signal_point(case):
    """A u grid of every second signal point gives s = 2 per axis: the w sum
    is still a delta on it, and synthesis returns f at those points."""
    m1, m2 = dict(MATRIX_CASES)[case]()
    g = grid(16)
    f = random_hermite_combo(g, seed=5)
    ugrid = Grid2D(*(Grid1D(a.n // 2, a.origin, 2.0 * a.spacing)
                     for a in (g.axis1, g.axis2)))
    rec = qlcst_reconstruct(qlcst_analysis(f, fixed_gaussian(1, 1), m1, m2, ugrid))
    assert relative_l2(rec.data, f.data[::2, ::2]) <= 1e-12


def test_forward_refuses_planes_beyond_memory():
    """An absurd u grid is refused before the planes or kernels exist."""
    f = gen_signal("gaussian", grid(16))
    huge = Grid2D.centered(8.0, 10 ** 6)
    tracemalloc.start()
    try:
        with pytest.raises(TooLarge):
            qlcst_forward(f, fixed_gaussian(1, 1), FOURIER, FOURIER, ugrid=huge)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6
