"""Deterministic test-signal generators on midpoint grids."""

import math

import numpy as np
from numpy.polynomial.hermite import hermval

from .errors import BadParameter
from .signal import Grid2D, QSignal2D, sandwich_phase

KINDS = ("gaussian", "shifted-gaussian", "dilated-gaussian", "hermite",
         "chirp", "impulse")


def _hermite_mode(n, x):
    """Orthonormal 1D Hermite function H_n(x) exp(-x^2/2) / normalizer."""
    coeffs = np.zeros(n + 1)
    coeffs[n] = 1.0
    norm = math.sqrt((2.0 ** n) * math.factorial(n) * math.sqrt(math.pi))
    return hermval(x, coeffs) * np.exp(-x * x / 2.0) / norm


def gen_signal(kind, grid, sigma=1.0, center=(2.0, 0.0), a=1.0, n=(1, 0),
               rate=(0.5, -0.3)):
    """Generate a QSignal2D of the requested kind on the given grid.

    gaussian:          exp(-|x|^2 / (2 sigma^2))
    shifted-gaussian:  gaussian translated to `center`
    dilated-gaussian:  a * exp(-a^2 |x|^2 / 2)
    hermite:           product of orthonormal Hermite modes n = (n1, n2)
    chirp:             quaternion chirp phases around a Gaussian envelope
    impulse:           single sample of value 1/cell nearest the origin
    """
    if kind not in KINDS:
        raise BadParameter("unknown generator kind %r" % kind)
    if not isinstance(grid, Grid2D):
        raise BadParameter("generator needs a Grid2D")
    if kind in ("gaussian", "shifted-gaussian", "chirp") and not sigma > 0:
        raise BadParameter("sigma must be positive")
    if kind == "hermite" and (len(n) != 2 or min(n) < 0):
        raise BadParameter("hermite wants two non-negative mode orders, got %r"
                           % (n,))
    if kind == "shifted-gaussian" and len(center) != 2:
        raise BadParameter("center wants two coordinates, got %r" % (center,))
    x1 = grid.axis1.points[:, None]
    x2 = grid.axis2.points[None, :]
    data = np.zeros(grid.shape + (4,))
    if kind == "gaussian":
        data[..., 0] = np.exp(-(x1 * x1 + x2 * x2) / (2.0 * sigma * sigma))
    elif kind == "shifted-gaussian":
        d1 = x1 - center[0]
        d2 = x2 - center[1]
        data[..., 0] = np.exp(-(d1 * d1 + d2 * d2) / (2.0 * sigma * sigma))
    elif kind == "dilated-gaussian":
        if not a > 0:
            raise BadParameter("dilation factor must be positive")
        data[..., 0] = a * np.exp(-a * a * (x1 * x1 + x2 * x2) / 2.0)
    elif kind == "hermite":
        data[..., 0] = np.outer(_hermite_mode(n[0], grid.axis1.points),
                                _hermite_mode(n[1], grid.axis2.points))
    elif kind == "chirp":
        data[..., 0] = np.exp(-(x1 * x1 + x2 * x2) / (2.0 * sigma * sigma))
        env = QSignal2D(data, grid)
        return sandwich_phase(env,
                              rate[0] * grid.axis1.points ** 2,
                              rate[1] * grid.axis2.points ** 2)
    elif kind == "impulse":
        i = int(np.argmin(np.abs(grid.axis1.points)))
        j = int(np.argmin(np.abs(grid.axis2.points)))
        data[i, j, 0] = 1.0 / grid.cell
    return QSignal2D(data, grid)


def random_hermite_combo(grid, order=3, seed=0):
    """Seeded band-limited signal: random quaternion mix of Hermite modes."""
    rng = np.random.default_rng(seed)
    data = np.zeros(grid.shape + (4,))
    for n1 in range(order):
        for n2 in range(order):
            mode = np.outer(_hermite_mode(n1, grid.axis1.points),
                            _hermite_mode(n2, grid.axis2.points))
            data += mode[..., None] * rng.standard_normal(4)
    return QSignal2D(data, grid)
