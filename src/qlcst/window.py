"""Window functions for the S-style transform and their admissibility data.

Built-in families are real-valued and separable:

* fixed-gaussian(s1, s2):  (1/(2*pi*s1*s2)) * exp(-x1^2/(2 s1^2) - x2^2/(2 s2^2))
* s-gaussian:              (|w1 w2|/(2*pi)) * exp(-(x1^2 w1^2 + x2^2 w2^2)/2)

Both integrate to 1.  A custom quaternion-valued window can be supplied as a
sampled table (a QSignal2D) whose samples have finite squares; it is
interpolated bilinearly and treated as zero outside its grid.

The operators contract every window as a short sum of separable terms
(window_terms); a table is split into them by one real SVD of its samples.

Only a w-independent, square-integrable window has lam = integral |Psi(x)|^2:
the fixed gaussian, 1/(4 pi s1 s2) exactly, and a table (lambda_psi).
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import AdmissibilityError, BadParameter, ZeroFrequency, ZeroWindow
from .lct import parse_numbers
from .signal import Grid1D, Grid2D, QSignal2D


@dataclass(frozen=True)
class WindowSpec:
    family: str                      # "fixed-gaussian" | "s-gaussian" | "custom-table"
    sigma: tuple = (1.0, 1.0)        # fixed-gaussian widths; (1, 1) on the others
    table: Optional[QSignal2D] = None

    def __post_init__(self):
        if self.family not in ("fixed-gaussian", "s-gaussian", "custom-table",
                               "constant"):
            raise BadParameter("unknown window family %r" % self.family)
        if self.family == "fixed-gaussian":
            # s^2 and the squared peak (2 pi s1 s2)^-2 must be positive normals.
            s1, s2 = np.asarray(self.sigma, dtype=float)
            with np.errstate(all="ignore"):  # refused below, not warned about
                vals = np.array([s1, s2, s1 * s1, s2 * s2, (2.0 * np.pi * s1 * s2) ** -2])
            if not np.all(np.isfinite(vals) & (vals >= np.finfo(float).tiny)):
                raise BadParameter("fixed-gaussian widths %r give no finite profile" % (self.sigma,))
        elif tuple(self.sigma) != (1.0, 1.0):
            raise BadParameter("the %s window takes no widths, got %r"
                               % (self.family, self.sigma))
        if (self.family == "custom-table") != (self.table is not None):
            raise BadParameter("a custom-table window needs a sampled table, "
                               "and no other window takes one")
        if self.table is not None:
            # A sample whose square is finite is finite itself.
            with np.errstate(over="ignore"):
                finite = np.all(np.isfinite(np.square(self.table.data)))
            if not finite:
                raise BadParameter("a table window needs samples whose squares "
                                   "are finite")

    @property
    def separable(self):
        return self.family in ("fixed-gaussian", "s-gaussian", "constant")

    @property
    def w_dependent(self):
        """Whether Psi depends on w, so that it has no lambda and no synthesis."""
        return self.family == "s-gaussian"


def fixed_gaussian(s1=1.0, s2=1.0):
    return WindowSpec("fixed-gaussian", (float(s1), float(s2)))


def s_gaussian():
    return WindowSpec("s-gaussian")


def table_window(signal):
    return WindowSpec("custom-table", table=signal)


def constant_window():
    """Psi = 1 everywhere: the degenerate window of the multiplication-operator
    property.  Not square integrable: lambda_psi refuses it, synthesis needs
    no lambda."""
    return WindowSpec("constant")


def parse_window(text):
    """Parse the CLI window syntax "fixed-gauss:s1,s2" | "s-gauss" | "table:PATH"."""
    if text == "s-gauss":
        return s_gaussian()
    if text.startswith("fixed-gauss:"):
        return fixed_gaussian(*parse_numbers(text[len("fixed-gauss:"):], 2, float,
                                             "fixed-gauss:s1,s2 with two numbers"))
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
        # in place, in the order of |w| * exp(-x*x*w*w/2), so that only the
        # profile is of its (x, w) shape
        p = np.multiply(-x * x, w, out=np.empty(np.broadcast_shapes(x.shape, w.shape)))
        p *= w
        p /= 2.0
        np.exp(p, out=p)
        p *= np.abs(w)
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


def _hat_interp(ax, v, x):
    """sum_i v[..., i] * h_i(x), h_i the hat function of sample i of ax, by
    which _table_lookup interpolates each axis.  Shape v.shape[:-1] + x.shape."""
    t = (x - ax.origin) / ax.spacing
    i = np.arange(ax.n).reshape((-1,) + (1,) * t.ndim)
    return np.tensordot(v, np.maximum(1.0 - np.abs(t - i), 0.0), axes=1)


def window_terms(spec, y1, w1, y2, w2):
    """The window as R separable terms, Psi(y, w) = sum_r p_r(y1, w1) *
    sum_c e_c q_rc(y2, w2): the real arrays p (R, *shape1) and q (R, C, *shape2),
    C <= 4 leading quaternion components.  A built-in family is one real term.
    A table is split by one real SVD of its samples as an (n1, C*n2) matrix,
    C = 1 if it is real and 4 otherwise, dropping singular values <= eps * max,
    so R <= min(n1, C*n2); the singular vectors are interpolated by the hat
    functions of _table_lookup, so the terms sum to its bilinear table."""
    if spec.family != "custom-table":
        return (window_axis_profile(spec, 1, y1, w1)[None],
                window_axis_profile(spec, 2, y2, w2)[None, None])
    t, g = spec.table.data, spec.table.grid
    ncomp = 4 if np.any(t[..., 1:]) else 1
    u, s, vt = np.linalg.svd(t[..., :ncomp].reshape(g.axis1.n, -1),
                             full_matrices=False)
    keep = s > np.finfo(float).eps * s[0]
    p = (u[:, keep] * s[keep]).T  # (R, n1)
    q = vt[keep].reshape(-1, g.axis2.n, ncomp).swapaxes(1, 2)  # (R, C, n2)
    return _hat_interp(g.axis1, p, y1), _hat_interp(g.axis2, q, y2)


def window_eval(spec, x, w):
    """Evaluate Psi(x, w) as a quaternion array; x = (x1, x2) broadcastable.
    w may be None for every window that does not depend on it."""
    x1 = np.asarray(x[0], dtype=float)
    x2 = np.asarray(x[1], dtype=float)
    if w is None:
        if spec.w_dependent:
            raise BadParameter("the %s window needs the frequency w" % spec.family)
        w = (0.0, 0.0)  # any value: Psi does not depend on it
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


def _hat_gram(t, spacing):
    """spacing * G @ t along axis 0, G the Gram matrix of the unit hat
    functions of the samples: integral h_i h_k = 2/3 (i = k), 1/6 (|i - k| = 1).
    The edge samples keep their whole hat, as _table_lookup ramps them to
    zero over one cell beyond the table."""
    out = t * (2.0 / 3.0)
    out[1:] += t[:-1] / 6.0
    out[:-1] += t[1:] / 6.0
    return out * spacing


def lambda_psi(spec):
    """The admissibility constant lam = integral |Psi(x)|^2 dx, a float.

    A fixed gaussian's is 1/(4 pi s1 s2) exactly.  A table's is the exact
    integral of its bilinear interpolant, sum_c sum(T_c * (G1 @ T_c @ G2))
    over the quaternion components, with G the hat-function Gram matrices
    (_hat_gram).  The s-gaussian (WindowSpec.w_dependent) and the constant
    window, not square integrable, raise AdmissibilityError."""
    if spec.w_dependent or spec.family == "constant":
        raise AdmissibilityError("the %s window has no admissibility constant"
                                 % spec.family)
    if spec.family == "fixed-gaussian":
        return 1.0 / (4.0 * math.pi * spec.sigma[0] * spec.sigma[1])
    t, g = spec.table.data, spec.table.grid
    lam = float(np.sum(t * _hat_gram(_hat_gram(t, g.axis1.spacing).swapaxes(0, 1),
                                     g.axis2.spacing).swapaxes(0, 1)))
    if lam == 0.0:
        raise ZeroWindow("window is identically zero")
    return lam
