"""Window functions for the S-style transform and their admissibility data.

Built-in families are real-valued and separable:

* fixed-gaussian(s1, s2):  (1/(2*pi*s1*s2)) * exp(-x1^2/(2 s1^2) - x2^2/(2 s2^2))
* s-gaussian:              (|w1 w2|/(2*pi)) * exp(-(x1^2 w1^2 + x2^2 w2^2)/2)

Both integrate to 1.  A custom quaternion-valued window can be supplied as a
sampled table (a QSignal2D); it is interpolated bilinearly and treated as zero
outside its grid.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import BadParameter, ZeroFrequency, ZeroWindow
from .quaternion import qnormsq
from .signal import Grid1D, Grid2D, QSignal2D

# Quadrature grid used for admissibility and normalization integrals.
QUAD_EXTENT = 12.0
QUAD_N = 256


@dataclass(frozen=True)
class WindowSpec:
    family: str                      # "fixed-gaussian" | "s-gaussian" | "custom-table"
    sigma: tuple = (1.0, 1.0)        # fixed-gaussian widths
    table: Optional[QSignal2D] = None

    def __post_init__(self):
        if self.family not in ("fixed-gaussian", "s-gaussian", "custom-table",
                               "constant"):
            raise BadParameter("unknown window family %r" % self.family)
        if self.family == "fixed-gaussian" and not all(s > 0 for s in self.sigma):
            raise BadParameter("fixed-gaussian widths must be positive")
        if self.family == "custom-table" and self.table is None:
            raise BadParameter("custom-table window needs a sampled table")

    @property
    def separable(self):
        return self.family in ("fixed-gaussian", "s-gaussian", "constant")


@dataclass(frozen=True)
class Admissibility:
    lam: float
    w_dependent: bool


def fixed_gaussian(s1=1.0, s2=1.0):
    return WindowSpec("fixed-gaussian", (float(s1), float(s2)))


def s_gaussian():
    return WindowSpec("s-gaussian")


def table_window(signal):
    return WindowSpec("custom-table", table=signal)


def constant_window():
    """Psi = 1 everywhere: the degenerate window of the multiplication-operator
    property.  Not normalizable; excluded from admissibility-based operations."""
    return WindowSpec("constant")


def parse_window(text):
    """Parse the CLI window syntax "fixed-gauss:s1,s2" | "s-gauss" | "table:PATH"."""
    if text == "s-gauss":
        return s_gaussian()
    if text.startswith("fixed-gauss:"):
        parts = text.split(":", 1)[1].split(",")
        if len(parts) != 2:
            raise BadParameter("fixed-gauss wants two widths, got %r" % text)
        return fixed_gaussian(float(parts[0]), float(parts[1]))
    if text.startswith("table:"):
        from .io import read_signal
        return table_window(read_signal(text.split(":", 1)[1]))
    raise BadParameter("unknown window syntax %r" % text)


def window_axis_profile(spec, axis, x, w):
    """Per-axis factor psi_axis(x, w_axis) of a separable window.

    psi_1(x1, w1) * psi_2(x2, w2) = Psi(x, w); x and w broadcast together.
    """
    x = np.asarray(x, dtype=float)
    w = np.asarray(w, dtype=float)
    if spec.family == "fixed-gaussian":
        s = spec.sigma[axis - 1]
        p = np.exp(-x * x / (2.0 * s * s))
        if axis == 1:
            p /= 2.0 * math.pi * spec.sigma[0] * spec.sigma[1]
        return p
    if spec.family == "s-gaussian":
        if np.any(w == 0.0):
            raise ZeroFrequency("s-gaussian window undefined at zero frequency")
        p = np.abs(w) * np.exp(-x * x * w * w / 2.0)
        if axis == 1:
            p /= 2.0 * math.pi
        return p
    if spec.family == "constant":
        return np.ones_like(x)
    raise BadParameter("window family %r is not separable" % spec.family)


def _table_lookup(table, x1, x2):
    """Bilinear interpolation of a sampled quaternion table, zero outside."""
    g1, g2 = table.grid.axis1, table.grid.axis2
    i = (x1 - g1.origin) / g1.spacing
    j = (x2 - g2.origin) / g2.spacing
    i0 = np.floor(i).astype(int)
    j0 = np.floor(j).astype(int)
    fi = i - i0
    fj = j - j0
    out = np.zeros(np.broadcast(i0, j0).shape + (4,))
    for di in (0, 1):
        for dj in (0, 1):
            ii = i0 + di
            jj = j0 + dj
            ok = (ii >= 0) & (ii < g1.n) & (jj >= 0) & (jj < g2.n)
            wgt = np.where(di, fi, 1.0 - fi) * np.where(dj, fj, 1.0 - fj)
            vals = table.data[np.clip(ii, 0, g1.n - 1), np.clip(jj, 0, g2.n - 1)]
            out += (wgt * ok)[..., None] * vals
    return out


def window_eval(spec, x, w):
    """Evaluate Psi(x, w) as a quaternion array; x = (x1, x2) broadcastable."""
    x1 = np.asarray(x[0], dtype=float)
    x2 = np.asarray(x[1], dtype=float)
    if spec.separable:
        vals = (window_axis_profile(spec, 1, x1, w[0])
                * window_axis_profile(spec, 2, x2, w[1]))
        out = np.zeros(np.shape(vals) + (4,))
        out[..., 0] = vals
        return out
    return _table_lookup(spec.table, x1, x2)


def reflect(spec):
    """The parity-operated window P(Psi)(x) = Psi(-x)."""
    if spec.separable:
        return spec  # built-in families are even
    flipped = QSignal2D(spec.table.data[::-1, ::-1].copy(), _negated_grid(spec.table.grid))
    return table_window(flipped)


def _negated_grid(grid):
    def neg(ax):
        return Grid1D(ax.n, -(ax.origin + (ax.n - 1) * ax.spacing), ax.spacing)

    return Grid2D(neg(grid.axis1), neg(grid.axis2))


def lambda_psi(spec, w=(1.0, 1.0)):
    """Admissibility constant lam = integral |Psi(x, w)|^2 dx.

    A separable window's integral is the product of its two per-axis
    quadratures (Fubini); a table is summed on its own grid.  Of the
    families only the s-gaussian depends on w.
    """
    if spec.separable:
        x = Grid1D.centered(QUAD_EXTENT, QUAD_N)
        lam = 1.0
        for axis in (1, 2):
            p = window_axis_profile(spec, axis, x.points, w[axis - 1])
            lam *= float(np.sum(p * p) * x.spacing)
    else:
        lam = float(np.sum(qnormsq(spec.table.data)) * spec.table.grid.cell)
    if lam == 0.0:
        raise ZeroWindow("window is identically zero on the quadrature grid")
    return Admissibility(lam, spec.family == "s-gaussian")
