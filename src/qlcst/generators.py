"""Deterministic test-signal generators on midpoint grids."""

import math

import numpy as np

from .coefficients import _refuse_beyond_memory
from .errors import BadParameter
from .signal import Grid2D, QSignal2D, sandwich_phase

KINDS = ("gaussian", "shifted-gaussian", "dilated-gaussian", "hermite",
         "chirp", "impulse")


def _hermite_mode(n, x):
    """Orthonormal 1D Hermite function H_n(x) exp(-x^2/2) / sqrt(2^n n! sqrt(pi)),
    by the three-term recurrence
    psi_{k+1} = sqrt(2/(k+1)) x psi_k - sqrt(k/(k+1)) psi_{k-1},
    which stays finite at every order (2^n n! overflows a float at n = 171)."""
    prev = np.zeros_like(x)
    cur = math.pi ** -0.25 * np.exp(-x * x / 2.0)
    for k in range(n):
        prev, cur = cur, (math.sqrt(2.0 / (k + 1)) * x * cur
                          - math.sqrt(k / (k + 1)) * prev)
    return cur


@np.errstate(all="ignore")  # bad samples are refused below, not warned about
def gen_signal(kind, grid, sigma=1.0, center=(2.0, 0.0), a=1.0, n=(1, 0)):
    """Generate a QSignal2D of the requested kind on the given grid.

    gaussian:          exp(-|x|^2 / (2 sigma^2))
    shifted-gaussian:  gaussian translated to `center`
    dilated-gaussian:  a * exp(-a^2 |x|^2 / 2)
    hermite:           product of orthonormal Hermite modes n = (n1, n2),
                       each order below its axis's point count
    chirp:             quaternion chirp phases 0.5 x1^2, -0.3 x2^2 around a
                       Gaussian envelope
    impulse:           single sample of value 1/cell nearest the origin

    Parameters that make any sample non-finite, or every sample zero (each
    kind is nonzero by construction), raise BadParameter, and a grid whose
    samples exceed the memory limit raises TooLarge before they are made.
    """
    if kind not in KINDS:
        raise BadParameter("unknown generator kind %r" % kind)
    if not isinstance(grid, Grid2D):
        raise BadParameter("generator needs a Grid2D")
    if kind in ("gaussian", "shifted-gaussian", "chirp") and not sigma > 0:
        raise BadParameter("sigma must be positive")
    if kind == "hermite" and not (len(n) == 2 and 0 <= n[0] < grid.axis1.n
                                  and 0 <= n[1] < grid.axis2.n):
        raise BadParameter("hermite wants two non-negative mode orders below "
                           "the point counts %r, got %r" % (grid.shape, n))
    if kind == "shifted-gaussian" and len(center) != 2:
        raise BadParameter("center wants two coordinates, got %r" % (center,))
    _refuse_beyond_memory("signal samples", 2 * math.prod(grid.shape))  # 32 B each
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
        data = sandwich_phase(QSignal2D(data, grid),
                              0.5 * grid.axis1.points ** 2,
                              -0.3 * grid.axis2.points ** 2).data
    elif kind == "impulse":
        i = int(np.argmin(np.abs(grid.axis1.points)))
        j = int(np.argmin(np.abs(grid.axis2.points)))
        data[i, j, 0] = np.divide(1.0, grid.cell)
    if not np.all(np.isfinite(data)):
        raise BadParameter("%s parameters give non-finite samples" % kind)
    if not np.any(data):
        raise BadParameter("%s parameters give an all-zero signal" % kind)
    return QSignal2D(data, grid)


def random_hermite_combo(grid, seed=0):
    """Seeded band-limited signal: random quaternion mix of Hermite modes 0..2."""
    rng = np.random.default_rng(seed)
    data = np.zeros(grid.shape + (4,))
    for n1 in range(3):
        for n2 in range(3):
            mode = np.outer(_hermite_mode(n1, grid.axis1.points),
                            _hermite_mode(n2, grid.axis2.points))
            data += mode[..., None] * rng.standard_normal(4)
    return QSignal2D(data, grid)
