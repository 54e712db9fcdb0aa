"""Quaternion arithmetic on scalar-first (w, x, y, z) component arrays.

A quaternion q = w + x*mu1 + y*mu2 + z*mu3 is stored as a numpy array whose
last axis has length 4, in scalar-first order.  All functions broadcast over
leading axes, so an (N1, N2, 4) array is a 2D field of quaternions.

The basis satisfies mu1*mu2 = mu3 and mu2*mu1 = -mu3 (Hamilton convention).
"""

import numpy as np

from .errors import BasisAxisError

ONE = np.array([1.0, 0.0, 0.0, 0.0])
MU1 = np.array([0.0, 1.0, 0.0, 0.0])
MU2 = np.array([0.0, 0.0, 1.0, 0.0])
MU3 = np.array([0.0, 0.0, 0.0, 1.0])


def quat(w=0.0, x=0.0, y=0.0, z=0.0):
    """Build a single quaternion as a length-4 array."""
    return np.array([w, x, y, z], dtype=float)


def qmul(p, q):
    """Hamilton product p*q, broadcasting over leading axes."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    pw, px, py, pz = p[..., 0], p[..., 1], p[..., 2], p[..., 3]
    qw, qx, qy, qz = q[..., 0], q[..., 1], q[..., 2], q[..., 3]
    return np.stack([
        pw * qw - px * qx - py * qy - pz * qz,
        pw * qx + px * qw + py * qz - pz * qy,
        pw * qy - px * qz + py * qw + pz * qx,
        pw * qz + px * qy - py * qx + pz * qw,
    ], axis=-1)


def qconj(q):
    """Quaternion conjugate: negates the mu1, mu2, mu3 components."""
    q = np.asarray(q, dtype=float)
    out = q.copy()
    out[..., 1:] = -out[..., 1:]
    return out


def qnormsq(q):
    """Squared modulus w^2 + x^2 + y^2 + z^2."""
    q = np.asarray(q, dtype=float)
    return np.sum(q * q, axis=-1)


def qnorm(q):
    """Modulus |q|."""
    return np.sqrt(qnormsq(q))


def qexp_axis(axis, theta):
    """cos(theta) + mu_axis * sin(theta) for axis 1 or 2.

    theta may be an array; the result gains a trailing component axis.
    Only the two axes used by the two-sided transform are accepted.
    """
    if axis not in (1, 2):
        raise BasisAxisError("axis must be 1 (mu1) or 2 (mu2), got %r" % (axis,))
    theta = np.asarray(theta, dtype=float)
    out = np.zeros(theta.shape + (4,))
    out[..., 0] = np.cos(theta)
    out[..., axis] = np.sin(theta)
    return out


def symplectic_split(q):
    """Split q = a + b*mu2 into the pair (a, b) of mu1-subfield complexes.

    a = w + x*mu1 and b = y + z*mu1, returned as numpy complex arrays with
    the real axis standing for the scalar part and the imaginary axis for mu1.
    The components are reinterpreted, not added, so signed zeros, subnormals
    and infinities are kept bit for bit.
    """
    pairs = np.ascontiguousarray(q, dtype=float).view(complex)
    return pairs[..., 0].copy(), pairs[..., 1].copy()


def symplectic_join(a, b):
    """Inverse of symplectic_split: reassemble q = a + b*mu2."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    a, b = np.broadcast_arrays(a, b)
    out = np.empty(a.shape + (4,))
    out[..., 0] = a.real
    out[..., 1] = a.imag
    out[..., 2] = b.real
    out[..., 3] = b.imag
    return out


def right_mu2(a, b, transform):
    """Planes of the right products (a + b*mu2) * exp(mu2*theta) under a
    complex-linear map.

    transform applies exp(i*theta) with real weights along the last axis of
    a mu1-complex array (a phase table, a kernel matrix or a chirp-FFT).  A
    right exp(mu2*theta) is diagonal on P = a + i*b, which gains exp(i*theta),
    and on Q = a - i*b, which gains exp(-i*theta) (the orthogonal 2D planes
    split of Hitzer & Sangwine), so P goes through transform and Q through
    its conjugate map conj(transform(conj(Q))).
    """
    p = transform(a + 1j * b)
    q = np.conj(transform(np.conj(a - 1j * b)))
    return (p + q) * 0.5, (p - q) * -0.5j
