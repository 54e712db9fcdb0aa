"""Parameter matrices and pointwise kernels of the linear canonical transform.

A kernel is the unimodular phase exp(mu*(A/(2B) x^2 - xu/B + D/(2B) u^2 - pi/4))
scaled by 1/sqrt(2*pi*|B|).  The inverse transform uses the adjoint kernel
K^-1(u, x) = conj(K(x, u)), the negated phase at the same (x, u).  The B = 0
delta branch is excluded.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DeterminantError, ZeroBError
from .quaternion import qexp_axis

DET_TOL = 1e-12
ZERO_B_TOL = 1e-12


@dataclass(frozen=True)
class ParamMatrix:
    """Validated LCT parameter quadruple (A, B, C, D) with det = 1, B != 0."""

    a: float
    b: float
    c: float
    d: float

    def __post_init__(self):
        det = self.a * self.d - self.b * self.c
        if abs(det - 1.0) > DET_TOL:
            raise DeterminantError(
                "det(M) = %.17g differs from 1 by more than %g" % (det, DET_TOL))
        if abs(self.b) <= ZERO_B_TOL:
            raise ZeroBError("B = %.17g: the B = 0 branch is not supported" % self.b)


def validate_param(a, b, c, d):
    """Validate (a, b, c, d) and return a ParamMatrix, or raise."""
    return ParamMatrix(float(a), float(b), float(c), float(d))


def parse_matrix(text):
    """Parse the CLI form "A,B,C,D" into a validated ParamMatrix."""
    parts = text.split(",")
    if len(parts) != 4:
        raise ValueError("expected 4 comma-separated values, got %r" % text)
    return validate_param(*(float(p) for p in parts))


@dataclass(frozen=True)
class KernelSpec:
    """A kernel side: matrix, phase axis (1=left/mu1, 2=right/mu2), direction."""

    m: ParamMatrix
    axis: int
    direction: str = "forward"

    def __post_init__(self):
        if self.axis not in (1, 2):
            raise ValueError("axis must be 1 or 2")
        if self.direction not in ("forward", "inverse"):
            raise ValueError("direction must be 'forward' or 'inverse'")


def kernel_phase(m, x, u):
    """Phase A/(2B) x^2 - xu/B + D/(2B) u^2 - pi/4 of the forward kernel."""
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    return (m.a * x * x / (2.0 * m.b) - x * u / m.b
            + m.d * u * u / (2.0 * m.b) - math.pi / 4.0)


def kernel_const(m):
    """Kernel magnitude 1/sqrt(2*pi*|B|)."""
    return 1.0 / math.sqrt(2.0 * math.pi * abs(m.b))


def kernel_eval(spec, x, u):
    """Evaluate the kernel pointwise as a quaternion array.

    Forward: c * exp(mu_axis * phase(x, u)).  Inverse: the kernel used by the
    inversion integral, c * exp(-mu_axis * phase(x, u)) = conj(K(x, u)), with
    x the signal point and u the spectrum point as in the forward case.
    """
    theta = kernel_phase(spec.m, x, u)
    if spec.direction == "inverse":
        theta = -theta
    return kernel_const(spec.m) * qexp_axis(spec.axis, theta)
