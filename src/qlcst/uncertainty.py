"""Dispersion functionals and the Heisenberg-type / logarithmic inequalities.

All reports are "compute both sides by quadrature" objects; nothing is proved
symbolically.  Each takes C, stored or from qlcst_analysis, then f, and reads
the window, matrices and C.density() or C.tiles() from C; lemma_41_gap checks
both axes from one pass over C.tiles().  The lower-bound constant of the
Heisenberg check uses |B_s| as the per-axis factor, matching the
transform-domain scaling of the underlying canonical-transform inequality.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import BadParameter, NonFinite, ZeroSignal
from .quaternion import qnormsq
from .window import lambda_psi
from .qlcst import _w_inverse_rows

# Bernoulli numbers B_2 .. B_14 for the asymptotic digamma tail.
_BERNOULLI = (1.0 / 6, -1.0 / 30, 1.0 / 42, -1.0 / 30,
              5.0 / 66, -691.0 / 2730, 7.0 / 6)


def digamma(x):
    """Digamma via the shift recurrence and the asymptotic series.

    Valid for x > 0; accuracy well below 1e-12 after shifting to x >= 12.
    """
    if not x > 0.0:
        raise BadParameter("digamma implemented for positive arguments only, "
                           "got %r" % (x,))
    acc = 0.0
    while x < 12.0:
        acc -= 1.0 / x
        x += 1.0
    inv2 = 1.0 / (x * x)
    tail = 0.0
    power = inv2
    for n, b2n in enumerate(_BERNOULLI, start=1):
        tail += b2n / (2.0 * n) * power
        power *= inv2
    return acc + math.log(x) - 0.5 / x - tail


def digamma_constant():
    """psi(1/2) - ln 2, the constant of the logarithmic lower bound."""
    return digamma(0.5) - math.log(2.0)


def _axis_sq(grid, s):
    """x_s^2 on grid, as an (n1, 1) or (1, n2) vector that broadcasts over it."""
    if s == 1:
        return np.square(grid.axis1.points)[:, None]
    if s == 2:
        return np.square(grid.axis2.points)[None, :]
    raise BadParameter("axis must be 1 or 2, got %r" % (s,))


def spatial_dispersion(f, s):
    """Second moment integral x_s^2 |f|^2 dx."""
    return float(np.sum(_axis_sq(f.grid, s) * qnormsq(f.data)) * f.grid.cell)


def spectral_dispersion(C, s):
    """Second moment integral w_s^2 |C|^2 over the full (u, w) domain."""
    return float(np.sum(C.density() * _axis_sq(C.wgrid, s)) * C.cell4)


def _log_quadrature(grid, density, cell, name):
    """Integral of ln|r| * density over a 2D grid, r the planar radius; a
    grid point at the origin gives -inf or, where the density is 0 there,
    NaN, and either is refused."""
    r = np.hypot(grid.axis1.points[:, None], grid.axis2.points[None, :])
    with np.errstate(divide="ignore", invalid="ignore"):
        vals = np.log(r) * density
    out = float(np.sum(vals) * cell)
    if not math.isfinite(out):
        raise NonFinite("ln|%s| quadrature hit a grid point at the origin" % name)
    return out


def spatial_log_moment(f):
    """Integral of ln|x| |f(x)|^2 dx with |x| the planar radius."""
    return _log_quadrature(f.grid, qnormsq(f.data), f.grid.cell, "x")


def spectral_log_moment(C):
    """Integral of ln|w| |C|^2 over the full (u, w) domain."""
    return _log_quadrature(C.wgrid, C.density(), C.cell4, "w")


@dataclass
class DispersionReport:
    axis: int
    spatial: float
    spectral: float
    lhs: float
    rhs: float
    ratio: float


@dataclass
class LogUncertaintyReport:
    spectral_log: float
    spatial_log: float
    bound: float
    gap: float


def heisenberg_report(C, f, s):
    """Both sides of the dispersion-product inequality for axis s, for the
    coefficients C of f under C.window and the matrices C.m1, C.m2.

    lhs = sqrt(spectral) * sqrt(spatial); rhs = |B_s| * sqrt(lam)/2 * ||f||^2.
    """
    lam = lambda_psi(C.window)
    energy = f.energy()
    if energy == 0.0:
        raise ZeroSignal("uncertainty report undefined for the zero signal")
    spatial = spatial_dispersion(f, s)
    spectral = spectral_dispersion(C, s)
    bs = abs((C.m1 if s == 1 else C.m2).b)
    lhs = math.sqrt(spectral) * math.sqrt(spatial)
    rhs = bs * math.sqrt(lam) / 2.0 * energy
    return DispersionReport(s, spatial, spectral, lhs, rhs, lhs / rhs)


def log_uncertainty_report(C, f):
    """Both sides of the logarithmic inequality for the coefficients C of f;
    gap = lhs - bound."""
    lam = lambda_psi(C.window)
    energy = f.energy()
    if energy == 0.0:
        raise ZeroSignal("uncertainty report undefined for the zero signal")
    spectral_log = spectral_log_moment(C)
    spatial_log = lam * spatial_log_moment(f)
    bound = digamma_constant() * lam * energy
    return LogUncertaintyReport(spectral_log, spatial_log, bound,
                                spectral_log + spatial_log - bound)


def _lemma_41_rhs(C, f):
    """The (u, x) double integrals of x_1^2 and of x_2^2 times |inverse QLCT
    over w of C(u, .)|^2, from one pass of the inverse, taken for one u1 row
    of one tile at a time (_w_inverse_rows), whose |.|^2 is formed once for
    both axes."""
    xsq = [_axis_sq(f.grid, s)[:, None, :] for s in (1, 2)]
    acc = [0.0, 0.0]
    for a, b in _w_inverse_rows(C, f.grid):
        sq = a.real ** 2 + a.imag ** 2 + b.real ** 2 + b.imag ** 2
        acc = [v + float(np.sum(x * sq)) for v, x in zip(acc, xsq)]
    return tuple(v * f.grid.cell * C.ugrid.cell for v in acc)


def lemma_41_gap(C, f):
    """Relative gaps (axis 1, axis 2) of the moment identity, for the
    coefficients C of f: lam * integral x_s^2 |f|^2 dx  vs  the (u, x)
    double integral of x_s^2 |inverse-QLCT of the w-slice|^2.  As in
    relative_l2, a gap whose reference side is 0 (f zero or on the line
    x_s = 0) is the absolute |rhs|.
    """
    lam = lambda_psi(C.window)
    lhs = [lam * spatial_dispersion(f, s) for s in (1, 2)]
    return tuple(abs(lh - rh) / abs(lh) if lh else abs(rh)
                 for lh, rh in zip(lhs, _lemma_41_rhs(C, f)))
