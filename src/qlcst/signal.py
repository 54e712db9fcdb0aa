"""Uniform grids, quaternion-valued 2D sample arrays and two-sided phases."""

import math
from dataclasses import dataclass

import numpy as np

from .errors import GridMismatch
from .quaternion import qnormsq, right_mu2, symplectic_join, symplectic_split


def _check_count(n):
    if n < 2:
        raise GridMismatch("grid needs at least 2 points, got %d" % n)


@dataclass(frozen=True)
class Grid1D:
    """n uniformly spaced points origin + k*spacing, k = 0..n-1."""

    n: int
    origin: float
    spacing: float

    def __post_init__(self):
        _check_count(self.n)
        if not (self.spacing > 0.0):
            raise GridMismatch("grid spacing must be positive, got %r" % self.spacing)

    @property
    def points(self):
        return self.origin + self.spacing * np.arange(self.n)

    @classmethod
    def centered(cls, extent, n):
        """Midpoint grid covering [-extent, extent]; no sample falls on 0."""
        _check_count(n)
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
    """Centered output axis with the FFT-compatible spacing 2*pi*|B|/(n*dx)."""
    spacing = 2.0 * math.pi * abs(b) / (axis.n * axis.spacing)
    origin = -0.5 * (axis.n - 1) * spacing
    return Grid1D(axis.n, origin, spacing)


def fft_output_grid(grid, b1, b2):
    """Per-axis FFT-compatible spectrum grid for matrices with B = b1, b2."""
    return Grid2D(fft_output_axis(grid.axis1, b1), fft_output_axis(grid.axis2, b2))


@dataclass
class QSignal2D:
    """Quaternion samples on a uniform 2D grid.

    data has shape (n1, n2, 4) with scalar-first quaternion components.
    """

    data: np.ndarray
    grid: Grid2D

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=float)
        if self.data.shape != self.grid.shape + (4,):
            raise GridMismatch(
                "data shape %r does not match grid shape %r"
                % (self.data.shape, self.grid.shape + (4,)))

    def energy(self):
        """Riemann-sum L2 energy sum(|f|^2) * dx1 * dx2."""
        return float(np.sum(qnormsq(self.data)) * self.grid.cell)

    def norm(self):
        return math.sqrt(self.energy())


class QSpectrum2D(QSignal2D):
    """A QSignal2D indexed by the transform-domain grid."""


def sandwich_phase(f, theta1, theta2):
    """exp(mu1*theta1(x1)) * f * exp(mu2*theta2(x2)) per sample."""
    e1 = np.exp(1j * np.asarray(theta1, dtype=float))[:, None]
    e2 = np.exp(1j * np.asarray(theta2, dtype=float))
    a, b = symplectic_split(f.data)
    return QSignal2D(symplectic_join(*right_mu2(a * e1, b * e1, lambda g: g * e2)),
                     f.grid)


def relative_l2(got, want):
    """Relative L2 distance ||got - want|| / ||want|| over component arrays."""
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    denom = np.linalg.norm(want.ravel())
    if denom == 0.0:
        return float(np.linalg.norm(got.ravel()))
    return float(np.linalg.norm((got - want).ravel()) / denom)
