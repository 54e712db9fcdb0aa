import numpy as np
import pytest

from qlcst.errors import BasisAxisError
from qlcst.quaternion import (MU1, MU2, MU3, ONE, qconj, qexp_axis, qmul,
                              qnorm, qnormsq, quat, right_mu2,
                              symplectic_join, symplectic_split)


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


def test_sandwich_via_split():
    """exp(mu1 a) q exp(mu2 b) agrees between direct qmul and split arithmetic."""
    rng = np.random.default_rng(3)
    q = rng.standard_normal((100, 4))
    alpha, beta = 0.7, -1.3
    direct = qmul(qmul(qexp_axis(1, alpha), q), qexp_axis(2, beta))
    a, b = symplectic_split(q)
    a = np.exp(1j * alpha) * a
    b = np.exp(1j * alpha) * b
    co, si = np.cos(beta), np.sin(beta)
    via_split = symplectic_join(a * co - b * si, a * si + b * co)
    assert np.max(np.abs(direct - via_split)) < 8 * np.finfo(float).eps


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
    a, b = right_mu2(*symplectic_split(q), lambda g: g @ k.T)
    assert np.max(np.abs(symplectic_join(a, b) - direct)) < 1e-14
