import math

import numpy as np
import pytest

from qlcst.errors import BadParameter, ZeroFrequency, ZeroWindow
from qlcst.quaternion import qnormsq
from qlcst.signal import Grid1D, Grid2D, QSignal2D
from qlcst.window import (constant_window, fixed_gaussian, lambda_psi,
                          parse_window, reflect, s_gaussian, table_window,
                          window_eval)


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


def test_s_gaussian_zero_frequency():
    with pytest.raises(ZeroFrequency):
        window_eval(s_gaussian(), (0.0, 0.0), (0.0, 1.0))


def test_lambda_fixed_gaussian_closed_form():
    adm = lambda_psi(fixed_gaussian(1, 1))
    assert abs(adm.lam - 0.0795774715) < 1e-9
    assert not adm.w_dependent
    adm2 = lambda_psi(fixed_gaussian(0.5, 2.0))
    assert abs(adm2.lam - 1.0 / (4.0 * math.pi * 0.5 * 2.0)) < 1e-9


def test_lambda_s_gaussian():
    adm = lambda_psi(s_gaussian(), (1.0, 1.0))
    assert abs(adm.lam - 0.0795774715) < 1e-9
    assert adm.w_dependent
    # lam scales as |w1 w2|
    for w in [(2.0, 1.0), (0.5, 3.0), (1.5, -2.0)]:
        got = lambda_psi(s_gaussian(), w).lam
        want = abs(w[0] * w[1]) / (4.0 * math.pi)
        assert abs(got - want) / want < 1e-6


def test_lambda_fixed_gaussian_w_invariant():
    vals = [lambda_psi(fixed_gaussian(1, 1), w).lam
            for w in [(0.3, 2.0), (5.0, -1.0), (1.0, 1.0)]]
    assert max(vals) - min(vals) < 1e-12


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
    with pytest.raises(BadParameter):
        fixed_gaussian(-1.0, 1.0)


def test_norm_squared_integral_matches_lambda():
    """Independent quadrature of |Psi|^2 agrees with lambda_psi."""
    g = Grid2D.centered(10.0, 200)
    x1 = g.axis1.points[:, None]
    x2 = g.axis2.points[None, :]
    vals = window_eval(fixed_gaussian(1, 1), (x1, x2), (1.0, 1.0))
    direct = float(np.sum(qnormsq(vals)) * g.cell)
    assert abs(direct - lambda_psi(fixed_gaussian(1, 1)).lam) < 1e-10


@pytest.mark.parametrize("spec,w", [
    (fixed_gaussian(1, 1), (1.0, 1.0)),
    (fixed_gaussian(0.5, 2.0), (1.0, 1.0)),
    (s_gaussian(), (1.0, 1.0)),
    (s_gaussian(), (2.0, 0.7)),
    (s_gaussian(), (0.5, -3.0)),
    (constant_window(), (1.0, 1.0)),
], ids=["fixed(1,1)", "fixed(0.5,2)", "s-gauss(1,1)", "s-gauss(2,0.7)",
        "s-gauss(0.5,-3)", "constant"])
def test_lambda_is_the_2d_quadrature(spec, w):
    """The per-axis product equals the 256^2 quadrature of |Psi(x, w)|^2
    over [-12, 12]^2 to roundoff."""
    g = Grid2D.centered(12.0, 256)
    vals = window_eval(spec, (g.axis1.points[:, None], g.axis2.points[None, :]), w)
    want = float(np.sum(qnormsq(vals)) * g.cell)
    assert abs(lambda_psi(spec, w).lam - want) <= 1e-14 * want


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
    assert lambda_psi(spec).w_dependent is dependent
