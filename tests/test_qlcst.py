import math

import numpy as np
import pytest

from qlcst.errors import (AdmissibilityError, BadParameter, DegenerateAngle,
                          ZeroSignal)
from qlcst.generators import gen_signal, random_hermite_combo
from qlcst.lct import KernelSpec, kernel_eval, validate_param
from qlcst.qlct import qlct_fast_forward, qlct_forward, qlct_inverse
from qlcst.qlcst import (QLCSTCoefficients, _axis_kernel,
                         covariance_residuals, energy_identity_gap,
                         marginal_qlct_gap, orthogonality_form,
                         qlcst_forward,
                         qlcst_pointwise_inverse, qlcst_reconstruct,
                         shift_signal, special_case_matrix)
from qlcst.quaternion import qconj, qmul, qnorm, qnormsq
from qlcst.signal import (Grid1D, Grid2D, QSignal2D, QSpectrum2D,
                          fft_output_grid, relative_l2)
from qlcst.verify import MATRIX_CASES
from qlcst.window import (constant_window, fixed_gaussian, lambda_psi,
                          s_gaussian, table_window, window_eval)

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
    k1 = kernel_eval(KernelSpec(m1, 1), x1, w1)
    k2 = kernel_eval(KernelSpec(m2, 2), x2, w2)
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
    """fixed-gauss:1,1 sampled on the offset lattice gives the separable
    path's coefficients through the table path."""
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


def from_data(data, ugrid, wgrid):
    """Planes filled from an interleaved (u1, u2, w1, w2, 4) array."""
    c = QLCSTCoefficients.empty(ugrid, wgrid)
    for i in range(ugrid.axis1.n):
        c.set_u1_slab(i, data[i])
    return c


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


def test_s_gaussian_kernel_has_no_subnormals():
    g = grid(64)
    w = fft_output_grid(g, 1.0, 1.0).axis1.points
    k = _axis_kernel(s_gaussian(), 1, FOURIER, g.axis1.points, g.axis1.points, w)
    parts = np.abs(k.view(float))
    assert np.all((parts == 0.0) | (parts >= np.finfo(float).tiny))
    assert np.count_nonzero(parts == 0.0) > 0


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
    x1 = g.axis1.points[:, None]
    x2 = g.axis2.points[None, :]
    psi = window_eval(win, (u[0] - x1, u[1] - x2), (1.0, 1.0))
    want = qmul(f.data, qconj(psi))
    assert relative_l2(rec.data, want) < 1e-5


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
    """Table-window synthesis equals (1/lam) * sum_u f(x) |Psi(u - x)|^2 du,
    the exact discrete image of f under analysis and synthesis."""
    m1, m2 = dict(MATRIX_CASES)[case]()
    g = grid(8)
    f = random_hermite_combo(g, seed=6)
    win = lattice_table(fixed_gaussian(1, 1), g) if lattice else OFF_LATTICE_TABLE
    rec = qlcst_reconstruct(qlcst_forward(f, win, m1, m2))
    x1 = g.axis1.points[:, None, None, None]
    x2 = g.axis2.points[None, :, None, None]
    u1 = g.axis1.points[None, None, :, None]
    u2 = g.axis2.points[None, None, None, :]
    mass = qnormsq(window_eval(win, (u1 - x1, u2 - x2), None)).sum(axis=(2, 3))
    want = f.data * (mass * g.cell / lambda_psi(win).lam)[..., None]
    assert relative_l2(rec.data, want) < 1e-12


def test_reconstruct_zero_coefficients():
    g = grid(8)
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
    c = qlcst_forward(zero, s_gaussian(), FOURIER, FOURIER)
    assert marginal_qlct_gap(c, zero, FOURIER, FOURIER) == 0.0


def test_covariance_small():
    g = grid(24)
    f = gen_signal("gaussian", g)
    rep = covariance_residuals(f, fixed_gaussian(1, 1), FOURIER, FOURIER,
                               alpha=(2.0 * g.axis1.spacing, 0.0), s=(1.0, 1.0))
    assert rep.parity < 1e-10
    assert rep.shift < 5e-3
    assert rep.modulation_best < 1e-2


def test_covariance_table_window_matches_separable():
    """The covariance residuals of fixed-gauss:1,1 sampled on the offset
    lattice equal those of the separable window and meet the suite
    tolerances."""
    g = grid(16)
    f = gen_signal("gaussian", g)
    win = fixed_gaussian(1, 1)
    want = covariance_residuals(f, win, FOURIER, FOURIER)
    got = covariance_residuals(f, lattice_table(win, g), FOURIER, FOURIER)
    for name in ("parity", "shift", "modulation_printed", "modulation_derived"):
        assert abs(getattr(got, name) - getattr(want, name)) < 1e-12
    assert got.parity < 1e-10
    assert got.shift < 1e-3
    assert got.modulation_best < 1e-2


def test_shift_signal():
    g = grid(8)
    f = gen_signal("gaussian", g)
    shifted = shift_signal(f, (g.axis1.spacing, 0.0))
    assert np.allclose(shifted.data[1:], f.data[:-1])
    assert np.all(shifted.data[0] == 0.0)
    with pytest.raises(BadParameter):
        shift_signal(f, (0.4 * g.axis1.spacing, 0.0))


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
