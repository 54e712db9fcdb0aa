"""Parameter matrices and pointwise kernels of the linear canonical transform.

A kernel is the unimodular phase exp(mu*(A/(2B) x^2 - xu/B + D/(2B) u^2 - pi/4))
scaled by 1/sqrt(2*pi*|B|).  The inverse transform uses the adjoint kernel
K^-1(u, x) = conj(K(x, u)), the negated phase at the same (x, u).  The B = 0
delta branch is excluded.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import BadParameter, DeterminantError, ZeroBError
from .quaternion import qexp_axis

DET_TOL = 1e-12
ZERO_B_TOL = 1e-12


@dataclass(frozen=True)
class ParamMatrix:
    """Validated LCT parameter quadruple (A, B, C, D): finite, det = 1, B != 0."""

    a: float
    b: float
    c: float
    d: float

    def __post_init__(self):
        if not all(map(math.isfinite, (self.a, self.b, self.c, self.d))):
            raise BadParameter("matrix entries (%r, %r, %r, %r) must be finite"
                               % (self.a, self.b, self.c, self.d))
        det = self.a * self.d - self.b * self.c
        if not abs(det - 1.0) <= DET_TOL:  # a NaN det too
            raise DeterminantError(
                "det(M) = %.17g differs from 1 by more than %g" % (det, DET_TOL))
        if abs(self.b) <= ZERO_B_TOL:
            raise ZeroBError("B = %.17g: the B = 0 branch is not supported" % self.b)


def validate_param(a, b, c, d):
    """Validate (a, b, c, d) and return a ParamMatrix, or raise."""
    return ParamMatrix(float(a), float(b), float(c), float(d))


def parse_numbers(text, count, kind, form):
    """The `count` comma-separated fields of the CLI value text, each read by
    kind (float or int).  A wrong count, an empty or an unreadable field
    raises BadParameter("expected <form>, got <text>")."""
    fields = text.split(",")
    try:
        if len(fields) == count:
            return tuple(kind(p) for p in fields)
    except ValueError:
        pass
    raise BadParameter("expected %s, got %r" % (form, text))


def parse_matrix(text):
    """Parse the CLI form "A,B,C,D" into a validated ParamMatrix."""
    return validate_param(*parse_numbers(text, 4, float, "four numbers A,B,C,D"))


def kernel_phase(m, x, u):
    """Phase A/(2B) x^2 - xu/B + D/(2B) u^2 - pi/4 of the forward kernel."""
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    return (m.a * x * x / (2.0 * m.b) - x * u / m.b
            + m.d * u * u / (2.0 * m.b) - math.pi / 4.0)


def kernel_const(m):
    """Kernel magnitude 1/sqrt(2*pi*|B|)."""
    return 1.0 / math.sqrt(2.0 * math.pi * abs(m.b))


def kernel_eval(m, axis, x, u):
    """The forward kernel c * exp(mu_axis * phase(x, u)) pointwise, as a
    quaternion array; axis 1 is the left (mu1) side, 2 the right (mu2).  The
    inversion kernel is its conjugate, qconj(kernel_eval(m, axis, x, u))."""
    return kernel_const(m) * qexp_axis(axis, kernel_phase(m, x, u))
