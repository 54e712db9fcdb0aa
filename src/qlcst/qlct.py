"""Two-sided quaternion linear canonical transform of 2D signals.

Two evaluation routes are provided and kept deliberately independent:

* qlct_forward / qlct_inverse: plain Riemann-sum quadrature with generic
  quaternion arithmetic, one output row at a time (O(N^3) products, O(N^2)
  memory).  Slow, trusted; it uses no symplectic split and no FFT.
* qlct_fast_forward / qlct_fast_inverse: per-axis chirp-FFT factorization on
  the symplectic components.  Requires the FFT-compatible spectrum spacing
  du = 2*pi*|B| / (n * dx) on each axis.
"""

import math

import numpy as np

from .errors import GridMismatch, SpacingError, ZeroSignal
from .lct import KernelSpec, kernel_eval
from .quaternion import qmul, right_mu2, symplectic_join, symplectic_split
from .signal import Grid2D, QSignal2D, QSpectrum2D, fft_output_grid

SPACING_TOL = 1e-9


def _check_grid(grid):
    if not isinstance(grid, Grid2D):
        raise GridMismatch("expected a Grid2D, got %r" % (grid,))


def _riemann(k1, data, k2, cell):
    """Double Riemann sum out[i, j] = sum over (p, q) of
    k1[p, i] * data[p, q] * k2[q, j] * cell by generic quaternion products.

    Each output row sums over p first and then takes every column j at once
    (right multiplication distributes over the p sum), so the temporaries
    stay O(N^2).
    """
    out = np.empty((k1.shape[1], k2.shape[1], 4))
    for i in range(k1.shape[1]):
        left = qmul(k1[:, i][:, None, :], data).sum(axis=0)
        out[i] = qmul(left[:, None, :], k2).sum(axis=0) * cell
    return out


def qlct_forward(f, m1, m2, ugrid=None):
    """Direct Riemann-sum forward transform onto ugrid.

    For each output point: sum over x of K1(x1,u1) * f(x) * K2(x2,u2), with
    the mu1 kernel multiplied on the left and the mu2 kernel on the right.
    """
    if ugrid is None:
        ugrid = fft_output_grid(f.grid, m1.b, m2.b)
    _check_grid(ugrid)
    # Kernel tables: (n_x, n_u, 4)
    k1 = kernel_eval(KernelSpec(m1, 1), f.grid.axis1.points[:, None],
                     ugrid.axis1.points[None, :])
    k2 = kernel_eval(KernelSpec(m2, 2), f.grid.axis2.points[:, None],
                     ugrid.axis2.points[None, :])
    return QSpectrum2D(_riemann(k1, f.data, k2, f.grid.cell), ugrid)


def qlct_inverse(F, m1, m2, xgrid=None):
    """Direct Riemann-sum inverse transform onto xgrid.

    Uses the inversion kernels conj(K(x, u)): the mu1 factor on the left and
    the mu2 factor on the right.
    """
    if xgrid is None:
        xgrid = fft_output_grid(F.grid, m1.b, m2.b)
    _check_grid(xgrid)
    # Kernel tables: (n_u, n_x, 4)
    k1 = kernel_eval(KernelSpec(m1, 1, "inverse"), xgrid.axis1.points[None, :],
                     F.grid.axis1.points[:, None])
    k2 = kernel_eval(KernelSpec(m2, 2, "inverse"), xgrid.axis2.points[None, :],
                     F.grid.axis2.points[:, None])
    return QSignal2D(_riemann(k1, F.data, k2, F.grid.cell), xgrid)


def _axis_phase_transform(g, axis, in_axis, out_axis, m, sign):
    """FFT evaluation of sum_j g_j exp(i*sign*phase(x, u)) * d(in) * const.

    phase(x, u) = A/(2B) x^2 - xu/B + D/(2B) u^2 - pi/4 with x the signal
    point: on in_axis for the forward kernel (sign +1), on out_axis for the
    inverse kernel conj(K(x, u)) (sign -1).  Needs matching point counts and
    the FFT spacing relation.
    """
    ma, mb, md = (m.a, m.b, m.d) if sign > 0 else (m.d, m.b, m.a)
    n = in_axis.n
    if out_axis.n != n:
        raise SpacingError("fast path needs equal in/out point counts")
    want = 2.0 * math.pi * abs(mb) / (n * in_axis.spacing)
    if abs(out_axis.spacing - want) > SPACING_TOL:
        raise SpacingError(
            "output spacing %.17g violates the FFT relation (want %.17g)"
            % (out_axis.spacing, want))
    x = in_axis.points
    u = out_axis.points
    k = np.arange(n)
    pre = np.exp(1j * sign * (ma * x * x / (2.0 * mb) - x * u[0] / mb))
    post = np.exp(1j * sign * (md * u * u / (2.0 * mb) - math.pi / 4.0
                               - x[0] * k * out_axis.spacing / mb))
    shape = [1] * g.ndim
    shape[axis] = n
    gp = g * pre.reshape(shape)
    if sign * np.sign(mb) > 0:
        core = np.fft.fft(gp, axis=axis)
    else:
        core = np.fft.ifft(gp, axis=axis) * n
    const = in_axis.spacing / math.sqrt(2.0 * math.pi * abs(mb))
    return core * post.reshape(shape) * const


def _fast(F, m1, m2, out_grid, sign):
    """(data, grid) of the chirp-FFT transform of F onto out_grid (default:
    the FFT-compatible grid).  The mu1 kernel runs along axis 0 of both
    symplectic planes and the mu2 kernel along axis 1 through right_mu2;
    sign +1 is the forward kernel, -1 the inverse kernel conj(K(x, u))."""
    if out_grid is None:
        out_grid = fft_output_grid(F.grid, m1.b, m2.b)
    _check_grid(out_grid)
    a, b = (_axis_phase_transform(p, 0, F.grid.axis1, out_grid.axis1, m1, sign)
            for p in symplectic_split(F.data))
    a, b = right_mu2(a, b, lambda g: _axis_phase_transform(
        g, 1, F.grid.axis2, out_grid.axis2, m2, sign))
    return symplectic_join(a, b), out_grid


def qlct_fast_forward(f, m1, m2, ugrid=None):
    """Chirp-FFT forward transform; equals qlct_forward on compatible grids."""
    return QSpectrum2D(*_fast(f, m1, m2, ugrid, +1))


def qlct_fast_inverse(F, m1, m2, xgrid=None):
    """Chirp-FFT inverse transform with the kernels conj(K(x, u))."""
    return QSignal2D(*_fast(F, m1, m2, xgrid, -1))


def plancherel_gap(f, m1, m2, fast=True):
    """Relative gap |energy(f) - energy(QLCT f)| / energy(f)."""
    ef = f.energy()
    if ef == 0.0:
        raise ZeroSignal("Plancherel gap undefined for the zero signal")
    forward = qlct_fast_forward if fast else qlct_forward
    es = forward(f, m1, m2).energy()
    return abs(ef - es) / ef
