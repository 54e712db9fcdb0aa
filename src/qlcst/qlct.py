"""Two-sided quaternion linear canonical transform of 2D signals.

Two evaluation routes are provided and kept deliberately independent:

* qlct_forward / qlct_inverse: plain Riemann-sum quadrature, each kernel
  product being the real 4x4 matrix of the Hamilton product, so the sum is
  two real GEMMs (O(N^3) flops, O(N^2) memory).  Trusted; it uses no
  symplectic split, no right-mu2 rule and no FFT.
* qlct_fast_forward / qlct_fast_inverse: per-axis chirp-FFT factorization on
  the symplectic components.  Requires, on each axis, the spectrum grid of
  signal.fft_output_axis: equal point counts and signal.dual_ratio 1.
"""

import math

import numpy as np

from .coefficients import _refuse_beyond_memory
from .errors import GridMismatch, SpacingError, ZeroSignal
from .lct import kernel_eval
from .quaternion import (qconj, qleft_matrix, qright_matrix, right_mu2,
                         symplectic_join, symplectic_split)
from .signal import (Grid2D, QSignal2D, QSpectrum2D, dual_ratio, fft_output_axis,
                     fft_output_grid)


def _check_grid(grid):
    if not isinstance(grid, Grid2D):
        raise GridMismatch("expected a Grid2D, got %r" % (grid,))


def _left_matrices(k1):
    """The real 4x4 matrices of the left products by the kernel table k1
    (p, i, 4), built in GEMM order, rows (i, component) and columns (p,
    component), one row component a at a time: the a-th rows of the basis
    matrices contract the table's components."""
    l1 = np.empty((k1.shape[1], 4, len(k1), 4))
    basis = qleft_matrix(np.eye(4))  # [k, a, b]: the left product by e_k
    for a in range(4):
        np.matmul(k1.transpose(1, 0, 2), basis[:, a], out=l1[:, a])
    return l1.reshape(4 * k1.shape[1], -1)


def _right_matrices(k2):
    """The real 4x4 matrices of the right products by the kernel table k2
    (q, j, 4), built in GEMM order, rows (component, q) and columns (j,
    component), one column component b at a time."""
    r2 = np.empty((4, len(k2), k2.shape[1], 4))
    basis = qright_matrix(np.eye(4))  # [k, a, b]: the right product by e_k
    for b in range(4):
        np.matmul(k2, basis[..., b], out=r2[b])
    return r2.reshape(4 * len(k2), -1)


def _riemann(l1, data, r2, cell):
    """Double Riemann sum out[i, j] = sum over (p, q) of
    k1[p, i] * data[p, q] * k2[q, j] * cell as two real GEMMs,
    out = (L1 @ D) @ R2, with L1 = _left_matrices(k1), R2 =
    _right_matrices(k2) and D the data with rows (p, component)."""
    n_i = len(l1) // 4
    left = l1 @ data.transpose(0, 2, 1).reshape(l1.shape[1], -1)
    return (left.reshape(n_i, -1) @ r2).reshape(n_i, -1, 4) * cell


def _direct(F, m1, m2, out_grid, sign):
    """(data, grid) of the direct Riemann sum of F onto out_grid (default:
    the FFT-compatible grid) with the forward kernels K(x, u), x on F's grid
    (sign +1), or the inversion kernels conj(K(x, u)), x on out_grid (sign
    -1): the mu1 kernel multiplied on the left and the mu2 kernel on the right.
    Refused beyond the memory limit before any kernel table is built, at the
    largest live set of the stages in complex values, p x q points onto
    i x j: each kernel table 2 per point pair, alive only until its 4x4
    product matrices (8) are built, the reordered data 2*p*q, the left
    product 2*i*q, the result twice 2*i*j: 352 B*N^2 on N x N grids, within
    0.13% of the traced peak of both directions at 96x40 -> 56x120 and
    20x150 -> 150x20.
    """
    if out_grid is None:
        out_grid = fft_output_grid(F.grid, m1.b, m2.b)
    _check_grid(out_grid)
    (p, q), (i, j) = F.grid.shape, out_grid.shape
    _refuse_beyond_memory("direct-sum kernel matrices", max(
        10 * p * i, 8 * p * i + 10 * q * j,
        8 * (p * i + q * j) + 2 * i * q + max(2 * p * q, 4 * i * j)))

    def table(axis, m, a, b):
        """The kernel table (n_in, n_out, 4) of one axis."""
        x, u = a.points[:, None], b.points[None, :]
        return (kernel_eval(m, axis, x, u) if sign > 0
                else qconj(kernel_eval(m, axis, u, x)))

    l1 = _left_matrices(table(1, m1, F.grid.axis1, out_grid.axis1))
    r2 = _right_matrices(table(2, m2, F.grid.axis2, out_grid.axis2))
    return _riemann(l1, F.data, r2, F.grid.cell), out_grid


def qlct_forward(f, m1, m2, ugrid=None):
    """Direct Riemann-sum forward transform onto ugrid: for each output
    point, sum over x of K1(x1,u1) * f(x) * K2(x2,u2)."""
    return QSpectrum2D(*_direct(f, m1, m2, ugrid, +1))


def qlct_inverse(F, m1, m2, xgrid=None):
    """Direct Riemann-sum inverse transform onto xgrid with the inversion
    kernels conj(K(x, u))."""
    return QSignal2D(*_direct(F, m1, m2, xgrid, -1))


def _axis_phase_transform(g, axis, in_axis, out_axis, m, sign, out=None):
    """FFT evaluation of sum_j g_j exp(i*sign*phase(x, u)) * d(in) * const,
    into out (a new array if None).

    phase(x, u) = A/(2B) x^2 - xu/B + D/(2B) u^2 - pi/4 with x the signal
    point: on in_axis for the forward kernel (sign +1), on out_axis for the
    inverse kernel conj(K(x, u)) (sign -1).  Needs equal point counts and
    dual_ratio 1 (the spacing of fft_output_axis), else SpacingError.
    """
    ma, mb, md = (m.a, m.b, m.d) if sign > 0 else (m.d, m.b, m.a)
    n = in_axis.n
    if out_axis.n != n or dual_ratio(in_axis, out_axis, mb) != 1:
        raise SpacingError("fast path needs %d output points at the FFT spacing %.17g"
                           % (n, fft_output_axis(in_axis, mb).spacing))
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
    return np.multiply(core * post.reshape(shape), const, out=out)


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
    a, b = right_mu2(a, b, lambda g, out: _axis_phase_transform(
        g, 1, F.grid.axis2, out_grid.axis2, m2, sign, out))
    return symplectic_join(a, b), out_grid


def qlct_fast_forward(f, m1, m2, ugrid=None):
    """Chirp-FFT forward transform; equals qlct_forward on compatible grids."""
    return QSpectrum2D(*_fast(f, m1, m2, ugrid, +1))


def qlct_fast_inverse(F, m1, m2, xgrid=None):
    """Chirp-FFT inverse transform with the kernels conj(K(x, u))."""
    return QSignal2D(*_fast(F, m1, m2, xgrid, -1))


def plancherel_gap(f, m1, m2):
    """Relative gap |energy(f) - energy(QLCT f)| / energy(f), with the QLCT
    taken by the chirp-FFT path."""
    ef = f.energy()
    if ef == 0.0:
        raise ZeroSignal("Plancherel gap undefined for the zero signal")
    es = qlct_fast_forward(f, m1, m2).energy()
    return abs(ef - es) / ef
