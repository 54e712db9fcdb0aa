import math

import numpy as np
import pytest

from qlcst.errors import BadParameter, DeterminantError, QlcstError, ZeroBError
from qlcst.lct import (kernel_const, kernel_eval, parse_matrix, parse_numbers,
                       validate_param)
from qlcst.quaternion import qconj, qmul, qnorm
from qlcst.signal import Grid1D


def test_determinant_rejected():
    with pytest.raises(DeterminantError):
        validate_param(1, 1, 1, 1)


def test_overflowing_determinant_rejected():
    """Finite entries whose products overflow give det = inf - inf = NaN,
    which the tolerance test refuses instead of passing."""
    with pytest.raises(DeterminantError, match="nan"):
        parse_matrix("1e300,1e300,1e300,1e300")


def test_zero_b_rejected():
    with pytest.raises(ZeroBError):
        validate_param(1, 0, 0, 1)


def test_parse_matrix():
    m = parse_matrix("0,1,-1,0")
    assert (m.a, m.b, m.c, m.d) == (0.0, 1.0, -1.0, 0.0)
    for text in ("1,2,3", "1,2", "0,1,-1,0,5", "0,one,-1,0", ""):
        with pytest.raises(QlcstError):
            parse_matrix(text)


@pytest.mark.parametrize("text, count, kind", [
    ("1,2,3", 2, float), ("1", 2, float), ("", 1, float), ("1,,2", 3, float),
    (",", 2, int), ("a,1", 2, float), ("0.5,1", 2, int), ("1e5,0", 2, int),
    ("nan,1", 2, int), ("1;2", 2, float)])
def test_parse_numbers_refusal_names_the_form(text, count, kind):
    with pytest.raises(BadParameter) as info:
        parse_numbers(text, count, kind, "the form")
    assert str(info.value) == "expected the form, got %r" % text


def test_parse_numbers_reads_as_float_and_int_do():
    assert parse_numbers(" 2,-0,1e-300", 3, float, "f") == (2.0, -0.0, 1e-300)
    assert parse_numbers("007,-3", 2, int, "i") == (7, -3)
    assert type(parse_numbers("1,2", 2, int, "i")[0]) is int


@pytest.mark.parametrize("text", ["nan,1,-1,0", "1,nan,0,1", "inf,1,-1,0",
                                  "1,inf,0,1", "-inf,1,-1,0"])
def test_non_finite_matrix_rejected(text):
    """A NaN or infinite entry makes det NaN, which no tolerance test
    refuses; the entries themselves are checked."""
    with pytest.raises(QlcstError, match="must be finite"):
        parse_matrix(text)


def test_kernel_at_origin_fourier():
    m = validate_param(0, 1, -1, 0)
    got = kernel_eval(m, 1, 0.0, 0.0)
    assert np.allclose(got, [0.2820947918, -0.2820947918, 0, 0], atol=1e-9)


def test_kernel_fresnel_point():
    # phase at x=u=1 for (1,1,0,1): 1/2 - 1 + 1/2 - pi/4 = -pi/4
    m = validate_param(1, 1, 0, 1)
    got = kernel_eval(m, 2, 1.0, 1.0)
    assert np.allclose(got, [0.2820947918, 0, -0.2820947918, 0], atol=1e-9)


@pytest.mark.parametrize("abcd", [(0, 1, -1, 0), (1, 2, 0, 1), (1, -1, 2, -1)])
def test_kernel_unimodular(abcd):
    m = validate_param(*abcd)
    rng = np.random.default_rng(4)
    x = rng.uniform(-5, 5, 100)
    u = rng.uniform(-5, 5, 100)
    mags = qnorm(kernel_eval(m, 1, x, u))
    assert np.allclose(mags, kernel_const(m), rtol=1e-12)


def test_fourier_phase_convention():
    """(0,1,-1,0) kernel equals (1/sqrt(2 pi)) exp(-mu (x u + pi/4))."""
    m = validate_param(0, 1, -1, 0)
    rng = np.random.default_rng(5)
    x = rng.uniform(-3, 3, 50)
    u = rng.uniform(-3, 3, 50)
    got = kernel_eval(m, 1, x, u)
    theta = -(x * u + math.pi / 4.0)
    want = np.zeros(x.shape + (4,))
    want[..., 0] = np.cos(theta)
    want[..., 1] = np.sin(theta)
    want /= math.sqrt(2.0 * math.pi)
    assert np.allclose(got, want, atol=1e-12)


@pytest.mark.parametrize("abcd", [(0, 1, -1, 0), (1, 2, 0, 1),
                                  (0.8, -1.5, 0.4, 0.5)])
def test_discrete_delta_identity(abcd):
    """sum_x Kinv(u',x) K(x,u) dx concentrates on u = u', also for A != D.

    Gaussian-windowed comparison on a 64-point grid: every off-diagonal entry
    stays below 10 * diagonal / N.
    """
    m = validate_param(*abcd)
    n = 64
    axis = Grid1D.centered(8.0, n)
    # matched transform-domain axis so the x-sum realizes the delta
    du = 2.0 * math.pi * abs(m.b) / (n * axis.spacing)
    uaxis = Grid1D(n, -0.5 * (n - 1) * du, du)
    x = axis.points
    u = uaxis.points
    fwd = kernel_eval(m, 1, x[:, None], u[None, :])
    inv = qconj(fwd)
    # wide Gaussian window in x regularizes the truncated oscillatory sum
    win = np.exp(-x * x / (2.0 * 64.0))[:, None, None, None]
    # delta[k, l] ~ sum_x Kinv(u_k, x) win(x) K(x, u_l) dx
    prod = qmul(inv[:, :, None, :], fwd[:, None, :, :]) * win
    delta = qnorm(prod.sum(axis=0) * axis.spacing)
    diag = np.diag(delta)
    off = delta - np.diag(diag)
    assert off.max() < 10.0 * diag.max() / n

