"""Uniform grids, quaternion-valued 2D sample arrays and two-sided phases."""

import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import GridMismatch
from .quaternion import qnormsq, right_mu2, symplectic_join, symplectic_split


def _check_count(n):
    """n as an int, refused unless it is an integer of at least 2."""
    try:
        n = operator.index(n)
    except TypeError:
        raise GridMismatch("grid needs an integer point count, got %r" % (n,)) from None
    if n < 2:
        raise GridMismatch("grid needs at least 2 points, got %d" % n)
    return n


@dataclass(frozen=True)
class Grid1D:
    """n uniformly spaced points origin + k*spacing, k = 0..n-1."""

    n: int
    origin: float
    spacing: float

    def __post_init__(self):
        object.__setattr__(self, "n", _check_count(self.n))  # frozen: stored as an int
        if not (math.isfinite(self.origin) and math.isfinite(self.spacing)):
            raise GridMismatch("grid origin %r and spacing %r must be finite"
                               % (self.origin, self.spacing))
        if not (self.spacing > 0.0):
            raise GridMismatch("grid spacing must be positive, got %r" % self.spacing)

    @property
    def points(self):
        return self.origin + self.spacing * np.arange(self.n)

    @classmethod
    def centered(cls, extent, n):
        """Midpoint grid covering [-extent, extent]; no sample falls on 0."""
        n = _check_count(n)
        spacing = 2.0 * extent / n
        return cls(n, -extent + 0.5 * spacing, spacing)


@dataclass(frozen=True)
class Grid2D:
    axis1: Grid1D
    axis2: Grid1D

    @property
    def shape(self):
        return (self.axis1.n, self.axis2.n)

    @property
    def cell(self):
        return self.axis1.spacing * self.axis2.spacing

    @classmethod
    def centered(cls, extent, n):
        g = Grid1D.centered(extent, n)
        return cls(g, g)


def fft_output_axis(axis, b):
    """Centered output axis with the FFT-compatible spacing 2*pi*|B|/(n*dx):
    the n-point axis whose dual_ratio with axis is 1."""
    spacing = 2.0 * math.pi * abs(b) / (axis.n * axis.spacing)
    origin = -0.5 * (axis.n - 1) * spacing
    return Grid1D(axis.n, origin, spacing)


def dual_ratio(x_axis, w_axis, b):
    """The whole number s = dx * N_w * dw / (2*pi*|B|) when the w axis is
    dual to x_axis, else None.

    Dual means s is within 1e-9 * s of round(s) >= 1 and
    N_w >= s * (N_x - 1) + 1: the w sum of the kernel products
    exp(i*(x - x')*w/B) * dx * dw / (2*pi*|B|) is then a delta of weight s
    on the lattice of step dx/s, of which x_axis is every s-th point, with
    no alias (period N_w * dx / s) on it, so it is s times the identity on
    x_axis.  For s = 1 the count condition reads N_w >= N_x.
    """
    s = x_axis.spacing * w_axis.n * w_axis.spacing / (2.0 * math.pi * abs(b))
    k = round(s) if math.isfinite(s) else 0
    dual = k >= 1 and abs(s - k) <= 1e-9 * s and w_axis.n >= k * (x_axis.n - 1) + 1
    return k if dual else None


def is_subgrid(axis, of, s):
    """Whether axis is a sub-grid of stride s of the axis `of`: its spacing
    is s times that of `of` (to 1e-9 of it, as dual_ratio rounds s), its
    first point is a point of `of` (to 1e-9 of a step) and its last point
    lies within `of`.  A u axis of dual_ratio s must be one of the signal
    axis, for the delta of weight s to fall on the samples of the signal."""
    k = (axis.origin - of.origin) / of.spacing  # the first point, in steps of `of`
    return (abs(axis.spacing - s * of.spacing) <= 1e-9 * axis.spacing
            and abs(k - np.round(k)) <= 1e-9 * max(1.0, abs(k))
            and -0.5 < k < of.n - 0.5 - s * (axis.n - 1))


def fft_output_grid(grid, b1, b2):
    """Per-axis FFT-compatible spectrum grid for matrices with B = b1, b2."""
    return Grid2D(fft_output_axis(grid.axis1, b1), fft_output_axis(grid.axis2, b2))


@dataclass(eq=False)
class QSignal2D:
    """Quaternion samples on a uniform 2D grid.

    data has shape (n1, n2, 4) with scalar-first quaternion components.
    Two signals of one class are equal when their grids and samples are.
    """

    data: np.ndarray
    grid: Grid2D

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=float)
        if self.data.shape != self.grid.shape + (4,):
            raise GridMismatch(
                "data shape %r does not match grid shape %r"
                % (self.data.shape, self.grid.shape + (4,)))

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.grid == other.grid and np.array_equal(self.data, other.data)

    def energy(self):
        """Riemann-sum L2 energy sum(|f|^2) * dx1 * dx2."""
        return float(np.sum(qnormsq(self.data)) * self.grid.cell)


class QSpectrum2D(QSignal2D):
    """A QSignal2D indexed by the transform-domain grid."""


def sandwich_phase(f, theta1, theta2):
    """exp(mu1*theta1(x1)) * f * exp(mu2*theta2(x2)) per sample."""
    e1 = np.exp(1j * np.asarray(theta1, dtype=float))[:, None]
    e2 = np.exp(1j * np.asarray(theta2, dtype=float))
    a, b = symplectic_split(f.data)
    planes = right_mu2(a * e1, b * e1, lambda g, out: np.multiply(g, e2, out=out))
    return QSignal2D(symplectic_join(*planes), f.grid)


def relative_l2(got, want):
    """Relative L2 distance ||got - want|| / ||want|| over component arrays."""
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    denom = np.linalg.norm(want.ravel())
    if denom == 0.0:
        return float(np.linalg.norm(got.ravel()))
    return float(np.linalg.norm((got - want).ravel()) / denom)
