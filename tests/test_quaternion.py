import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from qlcst.errors import BasisAxisError
from qlcst.quaternion import (MU1, MU2, MU3, ONE, qconj, qexp_axis,
                              qleft_matrix, qmul, qnorm, qnormsq, qright_matrix,
                              quat, right_mu2, symplectic_join,
                              symplectic_split)
from qlcst.signal import Grid1D, Grid2D, QSignal2D, sandwich_phase

EPS = np.finfo(float).eps
# Components are zero or of moderate size, so no product underflows into
# the subnormal range, where relative accuracy is not float64 accuracy.
COMPONENT = st.one_of(st.just(0.0), st.floats(1e-6, 1e3), st.floats(-1e3, -1e-6))
QUATERNION = st.lists(COMPONENT, min_size=4, max_size=4).map(np.array)
ANGLE = st.floats(-10.0, 10.0)


def test_basis_products():
    assert np.allclose(qmul(MU1, MU2), MU3)
    assert np.allclose(qmul(MU2, MU1), -MU3)
    assert np.allclose(qmul(MU1, MU1), -ONE)
    assert np.allclose(qmul(MU2, MU2), -ONE)
    assert np.allclose(qmul(MU3, MU3), -ONE)


def test_mul_expansion():
    got = qmul(quat(1, 1, 0, 0), quat(1, 0, 1, 0))
    assert np.allclose(got, quat(1, 1, 1, 1))


def test_norm_identity():
    q = quat(1, 1, 1, 1)
    assert np.allclose(qmul(q, qconj(q)), 4.0 * ONE)
    assert qnormsq(q) == 4.0


def test_conj():
    assert np.allclose(qconj(MU1), -MU1)
    assert np.allclose(qconj(ONE), ONE)
    # anti-automorphism on the basis: conj(mu1*mu2) = conj(mu2)*conj(mu1)
    assert np.allclose(qconj(qmul(MU1, MU2)), qmul(qconj(MU2), qconj(MU1)))
    assert np.allclose(qconj(MU3), -MU3)


def test_conj_antiautomorphism_random():
    rng = np.random.default_rng(0)
    p = rng.standard_normal((50, 4))
    q = rng.standard_normal((50, 4))
    assert np.allclose(qconj(qmul(p, q)), qmul(qconj(q), qconj(p)))


def test_modulus_multiplicative():
    rng = np.random.default_rng(1)
    p = rng.standard_normal((200, 4))
    q = rng.standard_normal((200, 4))
    lhs = qnorm(qmul(p, q))
    rhs = qnorm(p) * qnorm(q)
    assert np.max(np.abs(lhs - rhs) / rhs) < 4 * np.finfo(float).eps


@pytest.mark.parametrize("axis,theta,want", [
    (1, 0.0, ONE),
    (1, np.pi / 2, MU1),
    (2, -np.pi / 4, quat(0.7071067812, 0, -0.7071067812, 0)),
])
def test_exp_axis(axis, theta, want):
    assert np.allclose(qexp_axis(axis, theta), want, atol=1e-10)


def test_exp_axis_rejects_other_axes():
    with pytest.raises(BasisAxisError):
        qexp_axis(3, 1.0)


def test_split_examples():
    a, b = symplectic_split(quat(1, 1, 1, 1))
    assert a == 1 + 1j and b == 1 + 1j
    a, b = symplectic_split(MU2)
    assert a == 0 and b == 1


def test_split_join_roundtrip():
    rng = np.random.default_rng(2)
    q = rng.standard_normal((1000, 4))
    assert np.array_equal(symplectic_join(*symplectic_split(q)), q)


@settings(deadline=None)
@given(arrays(float, (3, 2, 4), elements=COMPONENT),
       st.lists(ANGLE, min_size=3, max_size=3),
       st.lists(ANGLE, min_size=2, max_size=2))
def test_sandwich_via_split(q, theta1, theta2):
    """sandwich_phase, which goes through the symplectic split and
    right_mu2, equals exp(mu1*theta1) * q * exp(mu2*theta2) by direct qmul."""
    g = Grid2D(Grid1D.centered(1.0, 3), Grid1D.centered(1.0, 2))
    direct = qmul(qmul(qexp_axis(1, np.array(theta1))[:, None], q),
                  qexp_axis(2, np.array(theta2))[None, :])
    got = sandwich_phase(QSignal2D(q, g), theta1, theta2).data
    scale = qnorm(q)[..., None]
    assert np.all(np.abs(got - direct) <= 16 * EPS * scale)


@settings(deadline=None)
@given(QUATERNION, QUATERNION, QUATERNION)
def test_qmul_associative(p, q, r):
    lhs = qmul(qmul(p, q), r)
    rhs = qmul(p, qmul(q, r))
    assert np.max(np.abs(lhs - rhs)) <= 32 * EPS * qnorm(p) * qnorm(q) * qnorm(r)


@settings(deadline=None)
@given(QUATERNION, QUATERNION)
def test_modulus_multiplicative_property(p, q):
    rhs = qnorm(p) * qnorm(q)
    assert abs(qnorm(qmul(p, q)) - rhs) <= 16 * EPS * rhs


@settings(deadline=None)
@given(QUATERNION, QUATERNION, QUATERNION)
def test_product_matrices_apply_qmul(p, q, r):
    """qleft_matrix(p) @ r = p*r and qright_matrix(q) @ r = r*q to a few ulp
    of the product of the moduli."""
    tol = 8 * EPS * qnorm(r)
    assert np.max(np.abs(qleft_matrix(p) @ r - qmul(p, r))) <= tol * qnorm(p)
    assert np.max(np.abs(qright_matrix(q) @ r - qmul(r, q))) <= tol * qnorm(q)


@settings(deadline=None)
@given(QUATERNION, QUATERNION)
def test_left_matrix_is_multiplicative(p, q):
    """qleft_matrix(p) @ qleft_matrix(q) = qleft_matrix(p*q)."""
    got = qleft_matrix(p) @ qleft_matrix(q)
    assert np.max(np.abs(got - qleft_matrix(qmul(p, q)))) <= (
        16 * EPS * qnorm(p) * qnorm(q))


@settings(deadline=None)
@given(arrays(float, st.tuples(st.integers(1, 5), st.just(4)),
              elements=st.floats(allow_nan=False)))
def test_split_join_roundtrip_bitexact(q):
    """Signed zeros, subnormals and infinities survive split and join."""
    back = symplectic_join(*symplectic_split(q))
    assert back.tobytes() == q.tobytes()


def test_right_mu2_matches_right_products():
    """right_mu2 with the map g -> g @ K^T, K = c*exp(i*theta), equals the
    sum over x of q(x) * c(x, k) * exp(mu2*theta(x, k)) by direct qmul."""
    rng = np.random.default_rng(4)
    q = rng.standard_normal((3, 5, 4))
    theta = rng.uniform(-4.0, 4.0, (6, 5))
    c = rng.uniform(0.5, 2.0, (6, 5))
    k = c * np.exp(1j * theta)
    factors = c[..., None] * qexp_axis(2, theta)               # (k, x, 4)
    direct = qmul(q[:, None], factors[None]).sum(axis=2)      # (row, k, 4)
    a, b = right_mu2(*symplectic_split(q), lambda g, out: np.matmul(g, k.T, out=out))
    assert np.max(np.abs(symplectic_join(a, b) - direct)) < 1e-14
