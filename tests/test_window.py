import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlcst.errors import AdmissibilityError, BadParameter, ZeroFrequency, ZeroWindow
from qlcst.quaternion import qnormsq
from qlcst.signal import Grid1D, Grid2D, QSignal2D
from qlcst.window import (WindowSpec, constant_window, fixed_gaussian,
                          lambda_psi, parse_window, reflect, s_gaussian,
                          table_window, window_axis_profile, window_eval)


def quad_integral(spec, w=(1.0, 1.0), extent=10.0):
    g = Grid2D.centered(extent, 128)
    x1 = g.axis1.points[:, None]
    x2 = g.axis2.points[None, :]
    vals = window_eval(spec, (x1, x2), w)
    return float(np.sum(vals[..., 0]) * g.cell)


def test_fixed_gaussian_origin_value():
    got = window_eval(fixed_gaussian(1, 1), (0.0, 0.0), (1.0, 1.0))
    assert abs(got[0] - 1.0 / (2.0 * math.pi)) < 1e-10
    assert np.all(got[1:] == 0.0)


def test_s_gaussian_origin_value():
    got = window_eval(s_gaussian(), (0.0, 0.0), (1.0, 1.0))
    assert abs(got[0] - 1.0 / (2.0 * math.pi)) < 1e-10


@pytest.mark.parametrize("spec,w,extent", [
    (fixed_gaussian(1, 1), (1.0, 1.0), 10.0),
    (fixed_gaussian(0.5, 2.0), (1.0, 1.0), 14.0),  # wide tail needs more room
    (s_gaussian(), (1.0, 1.0), 10.0),
    (s_gaussian(), (2.0, 0.7), 14.0),
])
def test_unit_integral(spec, w, extent):
    assert abs(quad_integral(spec, w, extent) - 1.0) < 1e-8


def test_s_gaussian_needs_w():
    with pytest.raises(BadParameter):
        window_eval(s_gaussian(), (0.0, 0.0), None)


def test_s_gaussian_zero_frequency():
    with pytest.raises(ZeroFrequency):
        window_eval(s_gaussian(), (0.0, 0.0), (0.0, 1.0))


def test_lambda_fixed_gaussian_closed_form():
    assert not fixed_gaussian(1, 1).w_dependent
    for s1, s2 in ((1.0, 1.0), (0.5, 2.0)):
        assert lambda_psi(fixed_gaussian(s1, s2)) == 1.0 / (4.0 * math.pi * s1 * s2)


@settings(max_examples=50, deadline=None)
@given(sigma=st.tuples(st.floats(0.02, 20.0), st.floats(0.02, 20.0)))
def test_lambda_fixed_gaussian_any_width(sigma):
    """lambda matches a quadrature of |Psi|^2 on a grid scaled to the window,
    256 points per axis over 12 widths each side, at every width."""
    spec = fixed_gaussian(*sigma)
    g = Grid2D(*(Grid1D.centered(12.0 * s, 256) for s in sigma))
    vals = window_eval(spec, (g.axis1.points[:, None], g.axis2.points[None, :]), (1.0, 1.0))
    want = float(np.sum(qnormsq(vals)) * g.cell)
    assert abs(lambda_psi(spec) - want) <= 1e-12 * want


def test_zero_table_window():
    g = Grid2D.centered(2.0, 8)
    zero = QSignal2D(np.zeros(g.shape + (4,)), g)
    with pytest.raises(ZeroWindow):
        lambda_psi(table_window(zero))


def test_table_window_lookup_and_reflect():
    g = Grid2D.centered(2.0, 16)
    x1 = g.axis1.points[:, None]
    x2 = g.axis2.points[None, :]
    data = np.zeros(g.shape + (4,))
    data[..., 0] = np.exp(-(x1 + 0.5) ** 2 - x2 * x2)
    spec = table_window(QSignal2D(data, g))
    # exact at sample points
    got = window_eval(spec, (x1, x2), (1.0, 1.0))
    assert np.allclose(got, data, atol=1e-12)
    # zero outside the table
    outside = window_eval(spec, (10.0, 0.0), (1.0, 1.0))
    assert np.all(outside == 0.0)
    # parity: reflected window evaluated at x equals original at -x
    refl = reflect(spec)
    got_r = window_eval(refl, (x1, x2), (1.0, 1.0))
    want_r = window_eval(spec, (-x1, -x2), (1.0, 1.0))
    assert np.allclose(got_r, want_r, atol=1e-12)


def test_constant_window():
    got = window_eval(constant_window(), (3.0, -2.0), (1.0, 1.0))
    assert np.allclose(got, [1.0, 0.0, 0.0, 0.0])


def test_parse_window():
    spec = parse_window("fixed-gauss:0.5,2")
    assert spec.family == "fixed-gaussian" and spec.sigma == (0.5, 2.0)
    assert parse_window("s-gauss").family == "s-gaussian"
    with pytest.raises(BadParameter):
        parse_window("boxcar")
    with pytest.raises(BadParameter):
        parse_window("fixed-gauss:1")


def test_bad_window_parameters():
    """An unknown family, bad widths, widths on a family that has none and a
    table on a family other than custom-table are refused, and so is the
    per-axis profile of a table, which is not separable; the default (1, 1)
    widths of every other family are accepted."""
    with pytest.raises(BadParameter):
        fixed_gaussian(-1.0, 1.0)
    table = QSignal2D(np.ones((2, 2, 4)), Grid2D.centered(1.0, 2))
    for family, sigma, tab in [("boxcar", (1.0, 1.0), None),
                               ("s-gaussian", (5.0, -3.0), None),
                               ("constant", (2.0, 1.0), None),
                               ("custom-table", (0.5, 0.5), table),
                               ("custom-table", (1.0, 1.0), None),
                               ("fixed-gaussian", (1.0, 1.0), table),
                               ("s-gaussian", (1.0, 1.0), table)]:
        with pytest.raises(BadParameter):
            WindowSpec(family, sigma, tab)
    with pytest.raises(BadParameter):
        window_axis_profile(table_window(table), 1, 0.0, 1.0)
    for text in ("fixed-gauss:a,1", "fixed-gauss:1", "fixed-gauss:1,2,3"):
        with pytest.raises(BadParameter, match="fixed-gauss:s1,s2"):
            parse_window(text)
    assert WindowSpec("s-gaussian", (1.0, 1.0)) == s_gaussian()
    assert WindowSpec("custom-table", (1.0, 1.0), table) == table_window(table)


def test_norm_squared_integral_matches_lambda():
    """Independent quadrature of |Psi|^2 agrees with lambda_psi."""
    g = Grid2D.centered(10.0, 200)
    x1 = g.axis1.points[:, None]
    x2 = g.axis2.points[None, :]
    vals = window_eval(fixed_gaussian(1, 1), (x1, x2), (1.0, 1.0))
    direct = float(np.sum(qnormsq(vals)) * g.cell)
    assert abs(direct - lambda_psi(fixed_gaussian(1, 1))) < 1e-10


@pytest.mark.parametrize("spec", [fixed_gaussian(1, 1), fixed_gaussian(0.5, 2.0)],
                         ids=["fixed(1,1)", "fixed(0.5,2)"])
def test_lambda_is_the_2d_quadrature(spec):
    """The closed form equals the 256^2 quadrature of |Psi(x)|^2 over
    [-12, 12]^2 to roundoff."""
    g = Grid2D.centered(12.0, 256)
    vals = window_eval(spec, (g.axis1.points[:, None], g.axis2.points[None, :]), (1.0, 1.0))
    want = float(np.sum(qnormsq(vals)) * g.cell)
    assert abs(lambda_psi(spec) - want) <= 1e-14 * want


def _simpson_nodes(ax):
    """Cell ends and midpoints from one cell before the first sample to one
    after the last, with the composite Simpson weights of those cells."""
    x = ax.origin + ax.spacing * (np.arange(2 * ax.n + 3) / 2.0 - 1.0)
    wts = np.full(len(x), 2.0)
    wts[1::2] = 4.0
    wts[[0, -1]] = 1.0
    return x, wts * ax.spacing / 6.0


@pytest.mark.parametrize("grid", [
    Grid2D(Grid1D.centered(5.0, 9), Grid1D.centered(4.0, 7)),
    Grid2D(Grid1D(2, 0.3, 0.5), Grid1D(3, -1.0, 0.25)),
], ids=["9x7", "2x3"])
def test_table_lambda_integrates_the_interpolant(grid):
    """lambda of a table equals a 3x3 Simpson rule on every cell of the
    bilinear interpolant, whose |Psi|^2 is bi-quadratic there, so the rule
    is exact; the edge samples ramp to zero over one cell beyond the table."""
    rng = np.random.default_rng(41)
    spec = table_window(QSignal2D(rng.standard_normal(grid.shape + (4,)), grid))
    (x1, w1), (x2, w2) = _simpson_nodes(grid.axis1), _simpson_nodes(grid.axis2)
    vals = qnormsq(window_eval(spec, (x1[:, None], x2[None, :]), None))
    want = float(np.sum(w1[:, None] * w2[None, :] * vals))
    assert abs(lambda_psi(spec) - want) <= 1e-12 * want


def test_lambda_refuses_constant_window():
    """The constant window is not square integrable and the s-gaussian's
    |Psi|^2 integral scales with |w1 w2|: neither has a lambda."""
    for spec in (constant_window(), s_gaussian()):
        with pytest.raises(AdmissibilityError):
            lambda_psi(spec)


@pytest.mark.parametrize("spec,dependent", [
    (fixed_gaussian(1, 1), False),
    (fixed_gaussian(0.5, 2.0), False),
    (s_gaussian(), True),
    (constant_window(), False),
    (table_window(QSignal2D(np.ones((4, 5, 4)), Grid2D(Grid1D.centered(2.0, 4),
                                                       Grid1D.centered(2.0, 5)))),
     False),
], ids=["fixed(1,1)", "fixed(0.5,2)", "s-gauss", "constant", "table"])
def test_w_dependence_by_family(spec, dependent):
    assert spec.w_dependent is dependent


@pytest.mark.parametrize("spec", [
    fixed_gaussian(1, 0.7),
    constant_window(),
    table_window(QSignal2D(np.arange(60.0).reshape(3, 5, 4),
                           Grid2D(Grid1D.centered(2.0, 3), Grid1D.centered(2.0, 5)))),
], ids=["fixed-gauss", "constant", "table"])
def test_w_independent_window_takes_no_w(spec):
    """A window that does not depend on w evaluates with w = None, to the
    values it has at any w."""
    x = (np.linspace(-2, 2, 7)[:, None], np.linspace(-1, 1, 5)[None, :])
    want = window_eval(spec, x, (0.3, -2.0))
    assert want.shape == (7, 5, 4)
    assert np.array_equal(window_eval(spec, x, None), want)


def test_table_windows_compare_by_value():
    """Table windows are equal when their tables have the same grid and
    samples, and unequal after a one-sample change or on another grid."""
    g = Grid2D(Grid1D.centered(2.0, 4), Grid1D.centered(1.0, 3))
    rng = np.random.default_rng(7)
    t = QSignal2D(rng.standard_normal(g.shape + (4,)), g)
    assert table_window(t) == table_window(QSignal2D(t.data.copy(), g))
    changed = t.data.copy()
    changed[1, 2, 3] = np.nextafter(changed[1, 2, 3], np.inf)
    assert table_window(t) != table_window(QSignal2D(changed, g))
    moved = Grid2D(g.axis1, Grid1D(3, g.axis2.origin, 2 * g.axis2.spacing))
    assert table_window(t) != table_window(QSignal2D(t.data, moved))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 1e300],
                         ids=["nan", "inf", "-inf", "square-overflows"])
def test_table_with_non_finite_squares_refused(value):
    """A table sample that is not finite, or whose square overflows, is
    refused when the window is made, before any analysis sees it."""
    g = Grid2D.centered(2.0, 4)
    data = np.ones(g.shape + (4,))
    data[1, 2, 3] = value
    with pytest.raises(BadParameter):
        table_window(QSignal2D(data, g))
    data[1, 2, 3] = 1e150  # its square is finite
    assert table_window(QSignal2D(data, g)).table.data[1, 2, 3] == 1e150
