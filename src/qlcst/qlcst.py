"""The quaternion linear canonical S-transform and its verification operations.

The analysis operator computes, for every output tuple (u, w),

    C(u, w) = sum_x K1(x1, w1) * f(x) * conj(Psi(u - x, w)) * K2(x2, w2) * cell

with the mu1 kernel on the left and the mu2 kernel on the right.

Coefficients are stored as the two mu1-complex planes of the symplectic
split C = a + b*mu2 (a = w + x*mu1, b = y + z*mu1, with the complex unit i
standing for mu1).  Each plane is one C-contiguous (nu1*nw1, nu2*nw2) matrix
whose row index is (u1, w1) and whose column index is (u2, w2), so the
interleaved (u1, u2, w1, w2, 4) array is a pure reordering of their bits.

A left factor exp(mu1*t) multiplies both planes by exp(i*t); a right factor
exp(mu2*t) is diagonal on P = a + i*b and Q = a - i*b (quaternion.right_mu2).
For a real separable window each axis therefore reduces to one complex
kernel matrix K[(u, w), x] = psi(u - x, w) * c * exp(i*theta(x, w)), and the
analysis is the contraction K1 @ (f * cell) @ K2^T with K2 applied through
right_mu2 before the large K1 product; synthesis is the adjoint contraction.
A sampled-table window does not depend on w, so each u-slice is the QLCT of
f * conj(Psi(u - .)): the same contraction with the plain kernel matrices
c * exp(i*theta(x, w)), which costs O(N^5).  Both analyses come from one
producer of u1 row blocks (_analysis_blocks); the planes are filled from it
in place, while the marginal and covariance checks reduce its blocks as
they come (both sides of a covariance identity, the parity base in reversed
order) and never hold a coefficient set.  The inverse over w of a u-slice,
on any grid and for any window, is that contraction with the adjoint
matrices conj(E)^T.
Synthesis divides the adjoint sum by the frame sum sum_u |Psi(u - x)|^2 of
the u grid, not by lambda, which makes it exact on any u spacing.
a and b are kept rather than P and Q because (w - z, w + z) does not round
trip through float64, while a and b hold the interleaved components exactly.
"""

import itertools
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import (AdmissibilityError, BadParameter, DegenerateAngle,
                     GridMismatch, SpacingError, TooLarge, Undersampled,
                     ZeroSignal)
from .lct import ParamMatrix, kernel_const, kernel_phase, validate_param
from .quaternion import (qconj, qmul, qnormsq, right_mu2, symplectic_join,
                         symplectic_split)
from .signal import (Grid1D, Grid2D, QSignal2D, fft_output_grid, relative_l2,
                     sandwich_phase)
from .window import (WindowSpec, lambda_psi, reflect, window_axis_profile,
                     window_eval)
from .qlct import qlct_fast_forward, qlct_forward

# Window-profile entries below this fraction of the peak are stored as exact
# zeros: the s-gaussian tails underflow to subnormals, which stall BLAS.
PROFILE_FLOOR = 1e-200

# u1 rows per block of the separable analysis.  From about 4 rows up a block
# product runs as fast as the whole-plane GEMM and gives the same bits.
ROW_BLOCK = 8


@dataclass
class QLCSTCoefficients:
    """Coefficients C(u, w) as the symplectic planes a, b with the grids,
    window and matrices that produced them.  Each plane is a
    (nu1*nw1, nu2*nw2) matrix in (u1, w1, u2, w2) order; `data` builds the
    interleaved (u1, u2, w1, w2, 4) array.  The planes are read-only once
    constructed (also the arrays passed in, where they needed no copy)."""

    a: np.ndarray
    b: np.ndarray
    ugrid: Grid2D
    wgrid: Grid2D
    window: WindowSpec
    m1: ParamMatrix
    m2: ParamMatrix
    _density: np.ndarray = field(default=None, init=False, repr=False,
                                 compare=False)

    def __post_init__(self):
        want = (self.ugrid.axis1.n * self.wgrid.axis1.n,
                self.ugrid.axis2.n * self.wgrid.axis2.n)
        self.a = np.ascontiguousarray(self.a, dtype=complex)
        self.b = np.ascontiguousarray(self.b, dtype=complex)
        if self.a.shape != want or self.b.shape != want:
            raise GridMismatch("coefficient planes %r, %r do not match grids %r"
                               % (self.a.shape, self.b.shape, want))
        # Read-only, so the cached density can never go stale.
        self.a.flags.writeable = False
        self.b.flags.writeable = False

    def views4(self):
        """The planes as (u1, w1, u2, w2) views."""
        shape = (self.ugrid.axis1.n, self.wgrid.axis1.n,
                 self.ugrid.axis2.n, self.wgrid.axis2.n)
        return self.a.reshape(shape), self.b.reshape(shape)

    @property
    def data(self):
        """Interleaved (u1, u2, w1, w2, 4) copy of the coefficients."""
        a4, b4 = self.views4()
        out = symplectic_join(a4.transpose(0, 2, 1, 3), b4.transpose(0, 2, 1, 3))
        out.flags.writeable = False
        return out

    @property
    def cell4(self):
        return self.ugrid.cell * self.wgrid.cell

    def density(self):
        """u-integrated squared modulus S[w1, w2] = sum_u |C(u, w)|^2,
        computed on the first call and returned read-only from then on."""
        if self._density is None:
            nw1, nw2 = self.wgrid.shape
            acc = np.zeros((nw1, 2 * nw2))
            for plane in (self.a, self.b):
                parts = plane.view(float).reshape(
                    self.ugrid.axis1.n, nw1, self.ugrid.axis2.n, 2 * nw2)
                acc += np.einsum("abcd,abcd->bd", parts, parts)
            self._density = acc.reshape(nw1, nw2, 2).sum(axis=-1)
            self._density.flags.writeable = False
        return self._density

    def energy(self):
        return float(np.sum(self.density()) * self.cell4)


def _phase_matrix(m, x, w, theta=None):
    """The plain (len(w), len(x)) kernel matrix E[w, x] = c * exp(i*theta[w, x]).

    theta defaults to the forward kernel phase table kernel_phase(m, x, w).
    """
    if theta is None:
        theta = kernel_phase(m, x[None, :], w[:, None])
    return kernel_const(m) * np.exp(1j * theta)


def _axis_kernel(window, axis, m, u, x, w, theta=None):
    """One axis of a separable analysis kernel as a (len(u)*len(w), len(x))
    matrix K[(u, w), x] = psi_axis(u - x, w) * E[w, x] (see _phase_matrix)."""
    prof = window_axis_profile(window, axis, u[:, None, None] - x[None, None, :],
                               w[None, :, None])
    prof[prof < PROFILE_FLOOR * prof.max()] = 0.0
    return (prof * _phase_matrix(m, x, w, theta)).reshape(-1, len(x))


def _axis_kernels(window, m1, m2, ugrid, xgrid, wgrid, theta1=None, theta2=None):
    return (_axis_kernel(window, 1, m1, ugrid.axis1.points, xgrid.axis1.points,
                         wgrid.axis1.points, theta1),
            _axis_kernel(window, 2, m2, ugrid.axis2.points, xgrid.axis2.points,
                         wgrid.axis2.points, theta2))


def _right_contract(a, b, k2):
    """Planes of (a + b*mu2) @ K2^T: the mu2 matrix k2 contracts the last
    axis; axis 0 stays the rows and the axes between are flattened into the
    columns."""
    a, b = right_mu2(a, b, lambda g: g @ k2.T)
    return a.reshape(len(a), -1), b.reshape(len(b), -1)


def _contract(a, b, k1, k2):
    """Planes of K1 @ (a + b*mu2) @ K2^T: the mu1 matrix k1 contracts axis 0
    and the mu2 matrix k2 the last axis (_right_contract)."""
    a, b = _right_contract(a, b, k2)
    return k1 @ a, k1 @ b


def _analysis_blocks(f, window, m1, m2, ugrid, wgrid, theta1=None, theta2=None,
                     reverse=False):
    """Yield the analysis planes in blocks of u1 rows as (rows, k, a, b): the
    plane rows `rows` of the block are k @ a and k @ b.

    A separable window contracts the mu2 side f * cell @ K2^T once and each
    block takes its rows of K1 (ROW_BLOCK u1 rows at a time).  A table window
    does not depend on w, so C(u, .) is the QLCT of g_u = f * conj(Psi(u - .))
    onto wgrid: for one u1 at a time the g_u of every u2 are stacked as
    (x1, u2, x2) and contracted with the plain kernel matrices, which gives
    the (w1, (u2, w2)) rows of that u1.  theta1/theta2 override the per-axis
    (w, x) kernel phase tables; used by the covariance checks.  reverse
    yields the planes with both axes reversed, P[::-1, ::-1], in the same
    row blocks: the rows of the left factor and the columns of the right
    ones are reversed (contiguous copies, so every product stays a GEMM).
    """
    nw1 = wgrid.axis1.n
    if window.separable:
        k1, k2 = _axis_kernels(window, m1, m2, ugrid, f.grid, wgrid, theta1, theta2)
        a, b = symplectic_split(f.data)
        a, b = _right_contract(a * f.grid.cell, b * f.grid.cell, k2)
        if reverse:
            k1, a, b = k1[::-1].copy(), a[:, ::-1].copy(), b[:, ::-1].copy()
        step = ROW_BLOCK * nw1
        for start in range(0, len(k1), step):
            rows = slice(start, start + step)
            yield rows, k1[rows], a, b
        return
    x1 = f.grid.axis1.points[:, None, None]
    x2 = f.grid.axis2.points[None, None, :]
    u1s = ugrid.axis1.points[::-1] if reverse else ugrid.axis1.points
    u2 = ugrid.axis2.points[None, :, None]
    e1 = _phase_matrix(m1, f.grid.axis1.points, wgrid.axis1.points, theta1)
    e2 = _phase_matrix(m2, f.grid.axis2.points, wgrid.axis2.points, theta2)
    if reverse:
        e1 = e1[::-1].copy()
    fc = f.data[:, None] * f.grid.cell
    for i, u1 in enumerate(u1s):
        psi = window_eval(window, (u1 - x1, u2 - x2), None)  # no w dependence
        a, b = _right_contract(*symplectic_split(qmul(fc, qconj(psi))), e2)
        if reverse:
            a, b = a[:, ::-1].copy(), b[:, ::-1].copy()
        yield slice(i * nw1, (i + 1) * nw1), e1, a, b


def _physical_memory():
    """Bytes of physical memory of the machine."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def _forward(f, window, m1, m2, ugrid, wgrid, theta1=None, theta2=None):
    """Planes (a, b) of the analysis, filled in place from _analysis_blocks.

    Planes larger than physical memory are refused before anything is
    allocated.
    """
    shape = (ugrid.axis1.n * wgrid.axis1.n, ugrid.axis2.n * wgrid.axis2.n)
    need = 2 * shape[0] * shape[1] * np.dtype(complex).itemsize
    have = _physical_memory()
    if need > have:
        raise TooLarge("coefficient planes of %.3g GB do not fit in the %.3g GB "
                       "of physical memory" % (need / 1e9, have / 1e9))
    a, b = np.empty(shape, dtype=complex), np.empty(shape, dtype=complex)
    for rows, k, ra, rb in _analysis_blocks(f, window, m1, m2, ugrid, wgrid,
                                            theta1, theta2):
        np.matmul(k, ra, out=a[rows])
        np.matmul(k, rb, out=b[rows])
    return a, b


def qlcst_forward(f, window, m1, m2, ugrid=None, wgrid=None):
    """Analysis operator producing QLCSTCoefficients.

    Defaults: ugrid = signal grid, wgrid = FFT-compatible spectrum grid.
    """
    if ugrid is None:
        ugrid = f.grid
    if wgrid is None:
        wgrid = fft_output_grid(f.grid, m1.b, m2.b)
    return QLCSTCoefficients(*_forward(f, window, m1, m2, ugrid, wgrid),
                             ugrid, wgrid, window, m1, m2)


def _w_adjoints(C, xgrid):
    """The adjoint kernel matrices conj(E1)^T and conj(E2)^T, (x, w) each,
    that take a w-slice of C back to xgrid."""
    return (_phase_matrix(C.m1, xgrid.axis1.points, C.wgrid.axis1.points).conj().T,
            _phase_matrix(C.m2, xgrid.axis2.points, C.wgrid.axis2.points).conj().T)


def qlcst_pointwise_inverse(C, u_index, xgrid=None):
    """Inverse QLCT over w of the coefficient slice at one position index,
    onto any xgrid (default: C.ugrid).

    Recovers the w-integrated masked product f(x) * conj(Psi(u - x, w)).
    """
    if xgrid is None:
        xgrid = C.ugrid
    iu1, iu2 = u_index
    a4, b4 = C.views4()
    a, b = _contract(a4[iu1, :, iu2], b4[iu1, :, iu2], *_w_adjoints(C, xgrid))
    return QSignal2D(symplectic_join(a, b) * C.wgrid.cell, xgrid)


def _w_inverse_rows(C, xgrid):
    """Yield, for each u1 in turn, the planes (a, b) of shape (x1, u2, x2) of
    the inverse QLCT over w of every slice C(u1, u2, .) onto xgrid: the
    contraction of qlcst_pointwise_inverse for a whole u1 row of the planes
    at once, so the memory beyond C stays O(N^3).
    """
    e1h, e2h = _w_adjoints(C, xgrid)
    nw1 = C.wgrid.axis1.n
    rows_in = (nw1, C.ugrid.axis2.n, C.wgrid.axis2.n)
    rows_out = (xgrid.axis1.n, C.ugrid.axis2.n, xgrid.axis2.n)
    for i in range(C.ugrid.axis1.n):
        rows = slice(i * nw1, (i + 1) * nw1)
        a, b = _contract(C.a[rows].reshape(rows_in), C.b[rows].reshape(rows_in),
                         e1h, e2h)
        yield (a.reshape(rows_out) * C.wgrid.cell,
               b.reshape(rows_out) * C.wgrid.cell)


def qlcst_reconstruct(C):
    """Synthesis onto the u grid: the adjoint sum over (u, w) of
    Kinv1(x1,w1) * C(u,w) * Psi(u-x,w) * Kinv2(x2,w2), the inverse kernels
    being the negated-phase forward kernels, divided pointwise by the frame
    sum F(x) = sum_u |Psi(u - x)|^2 (du cancels in the quotient).

    The w sum over the FFT-compatible grid is a discrete delta, so the
    adjoint sum is f(x) * F(x) and the quotient is f for every w-independent
    window on any u spacing (the canonical dual frame).  A separable window
    sums by K1^H @ P @ conj(K2), K1^H @ Q @ K2 and F is an outer product of
    per-axis sums; a table window inverts one u1 row over w at a time.  An x
    that no u reaches (F(x) <= eps * max F) is refused.
    """
    if C.window.w_dependent:
        raise AdmissibilityError(
            "reconstruction needs a window that does not depend on the frequency")
    g = C.ugrid
    if C.window.separable:
        k1, k2 = _axis_kernels(C.window, C.m1, C.m2, g, g, C.wgrid)
        k1h = k1.conj().T
        a, b = right_mu2(k1h @ C.a, k1h @ C.b, lambda h: h @ k2.conj())
        out = symplectic_join(a, b) * C.wgrid.cell
        frame = np.outer(*(np.sum(window_axis_profile(
            C.window, s, ax.points[:, None] - ax.points, 1.0) ** 2, axis=0)
            for s, ax in ((1, g.axis1), (2, g.axis2))))
    else:
        x1 = g.axis1.points[:, None, None]
        x2 = g.axis2.points[None, None, :]
        u2 = g.axis2.points[None, :, None]
        out, frame = np.zeros(g.shape + (4,)), np.zeros(g.shape)
        for u1, (a, b) in zip(g.axis1.points, _w_inverse_rows(C, g)):
            psi = window_eval(C.window, (u1 - x1, u2 - x2), None)  # no w dependence
            out += qmul(symplectic_join(a, b), psi).sum(axis=1)
            frame += qnormsq(psi).sum(axis=1)
    if frame.min() <= np.finfo(float).eps * frame.max():
        raise Undersampled("the window reaches some x of the %d x %d grid from "
                           "no u: its frame sum vanishes there" % g.shape)
    return QSignal2D(out / frame[..., None], g)


def orthogonality_form(Cf, Cg):
    """Quaternion value of the double integral of Cf * conj(Cg) over (w, u).

    (a1 + b1 mu2) conj(a2 + b2 mu2) = (a1 a2* + b1 b2*) + (b1 a2 - a1 b2) mu2.
    """
    if Cf.ugrid != Cg.ugrid or Cf.wgrid != Cg.wgrid:
        raise GridMismatch("coefficient grids differ")
    first = np.vdot(Cg.a, Cf.a) + np.vdot(Cg.b, Cf.b)
    second = (np.dot(Cf.b.ravel(), Cg.a.ravel())
              - np.dot(Cf.a.ravel(), Cg.b.ravel()))
    return symplectic_join(first, second) * Cf.cell4


def energy_identity_gap(C, f):
    """Relative gap of the energy identity: integral |C|^2 vs lam * ||f||^2."""
    denom = lambda_psi(C.window) * f.energy()
    if denom == 0.0:
        raise ZeroSignal("energy identity undefined for the zero signal")
    return abs(C.energy() - denom) / denom


def marginal_qlct_gap(f, window, m1, m2, ugrid=None, wgrid=None):
    """Relative L2 gap between the u-marginal sum_u C(u, w) * du of the
    analysis of f and the QLCT of f under m1, m2 (0 for the zero signal),
    on the grids of qlcst_forward.

    The analysis is streamed: each producer block's rows k @ a, k @ b are
    summed over u1 and u2 as they come, so no coefficient set is held.
    """
    if ugrid is None:
        ugrid = f.grid
    if wgrid is None:
        wgrid = fft_output_grid(f.grid, m1.b, m2.b)
    nw1, nw2 = wgrid.shape
    marg = [np.zeros((nw1, nw2), dtype=complex) for _ in range(2)]
    for _, k, *planes in _analysis_blocks(f, window, m1, m2, ugrid, wgrid):
        for acc, p in zip(marg, planes):
            acc += (k @ p).reshape(-1, nw1, ugrid.axis2.n, nw2).sum(axis=(0, 2))
    marg = symplectic_join(*marg) * ugrid.cell
    try:
        ref = qlct_fast_forward(f, m1, m2, wgrid)
    except SpacingError:
        ref = qlct_forward(f, m1, m2, wgrid)
    return relative_l2(marg, ref.data)


# --- signal manipulation helpers used by the covariance checks -------------

def modulate(f, s):
    """The two-sided modulation exp(mu1 s1 x1) f exp(mu2 s2 x2)."""
    return sandwich_phase(f, s[0] * f.grid.axis1.points, s[1] * f.grid.axis2.points)


def _integer_shift(alpha, spacing):
    k = alpha / spacing
    ki = round(k)
    if abs(k - ki) > 1e-9:
        raise BadParameter(
            "shift %.17g is not an integer number of grid steps" % alpha)
    return ki


def _shift_slices(k, n):
    """(destination, source) slices moving an axis of length n by k steps;
    what moves past either end is dropped."""
    k = max(-n, min(n, k))
    if k >= 0:
        return slice(k, None), slice(None, n - k)
    return slice(None, n + k), slice(-k, None)


def shift_signal(f, alpha):
    """f(x - alpha) for a grid-aligned alpha, zero-filled at the boundary."""
    d1, s1 = _shift_slices(_integer_shift(alpha[0], f.grid.axis1.spacing),
                           f.grid.axis1.n)
    d2, s2 = _shift_slices(_integer_shift(alpha[1], f.grid.axis2.spacing),
                           f.grid.axis2.n)
    data = np.zeros_like(f.data)
    data[d1, d2] = f.data[s1, s2]
    return QSignal2D(data, f.grid)


def _sqnorm(x):
    return float(np.vdot(x, x).real)


def _streamed_rel_l2(want, *gots):
    """relative_l2, over the quaternion components, of the planes of each
    _analysis_blocks producer in gots against those of the producer want,
    accumulated block by block so that no coefficient set is ever held.
    Each want block is computed once for all gots.  Returns one residual per
    got; producers whose row blocks do not line up raise GridMismatch."""
    nums = [0.0] * len(gots)
    denom = 0.0
    for blocks in itertools.zip_longest(want, *gots):
        if None in blocks or any(b[0] != blocks[0][0] for b in blocks):
            raise GridMismatch("the compared producers' row blocks do not line up")
        (_, k, *planes), *others = blocks
        for j, plane in enumerate(planes):  # one product of want at a time
            ref = k @ plane
            denom += _sqnorm(ref)
            for i, (_, gk, *got) in enumerate(others):
                diff = gk @ got[j]
                diff -= ref
                nums[i] += _sqnorm(diff)
                del diff
            del ref
    if denom == 0.0:
        return [math.sqrt(num) for num in nums]
    return [math.sqrt(num / denom) for num in nums]


@dataclass
class CovarianceReport:
    parity: float
    shift: float
    modulation_printed: float
    modulation_derived: float

    @property
    def modulation_best(self):
        return min(self.modulation_printed, self.modulation_derived)


def covariance_residuals(f, window, m1, m2, alpha=(1.0, 0.0), s=(1.0, 1.0)):
    """Relative L2 residuals of the parity, shift and modulation covariances,
    on the default grids of qlcst_forward.

    The shift identity is checked in its derivation-consistent form, with the
    auxiliary signal built as the two-sided product
    exp(mu1 A1 t1 alpha1/B1) f exp(mu2 A2 t2 alpha2/B2), whose coefficients
    are evaluated directly at (u - alpha, w).  The w-dependent
    phase factors exp(mu1*phi1(w1)) * . * exp(mu2*phi2(w2)) of both sides
    are added to the kernel phase tables, since they multiply the mu1 kernel
    on the left and the mu2 kernel on the right.  The modulation
    identity is evaluated for both readings of the kernel argument order
    (as printed, and with the frequency shift in the standard slot) and both
    residuals are reported.
    """
    ugrid, wgrid = f.grid, fft_output_grid(f.grid, m1.b, m2.b)
    w1pts = wgrid.axis1.points
    w2pts = wgrid.axis2.points
    x1 = f.grid.axis1.points
    x2 = f.grid.axis2.points

    def blocks(g, u, theta1, theta2, phi1, phi2):
        """Blocks of exp(mu1*phi1) * (analysis of g on the u grid under the
        kernel phase tables theta) * exp(mu2*phi2), with phi depending on w
        only."""
        return _analysis_blocks(g, window, m1, m2, u, wgrid,
                                theta1 + phi1[:, None], theta2 + phi2[:, None])

    # Each check streams both of its sides block by block
    # (_streamed_rel_l2), so no coefficient set is ever held whole.

    # Parity: transform of the reflected signal under the reflected window
    # equals the coefficients sampled at (-u, -w); on centered midpoint grids
    # negation reverses every index axis, which reverses both plane axes, so
    # the base side is produced reversed.
    f_ref = QSignal2D(f.data[::-1, ::-1].copy(), f.grid)
    [parity] = _streamed_rel_l2(
        _analysis_blocks(f, window, m1, m2, ugrid, wgrid, reverse=True),
        _analysis_blocks(f_ref, reflect(window), m1, m2, ugrid, wgrid))

    # Shift covariance.
    f_tilde = sandwich_phase(f,
                             m1.a * x1 * alpha[0] / m1.b,
                             m2.a * x2 * alpha[1] / m2.b)
    # The window keeps its w; only its u - x argument moves with the grid.
    u_minus_alpha = Grid2D(*(Grid1D(ax.n, ax.origin - t, ax.spacing)
                             for ax, t in zip((ugrid.axis1, ugrid.axis2), alpha)))
    [shift] = _streamed_rel_l2(
        _analysis_blocks(shift_signal(f, alpha), window, m1, m2, ugrid, wgrid),
        blocks(f_tilde, u_minus_alpha,
               kernel_phase(m1, x1[None, :], w1pts[:, None]),
               kernel_phase(m2, x2[None, :], w2pts[:, None]),
               (m1.a * alpha[0] ** 2 - 2.0 * alpha[0] * w1pts) / (2.0 * m1.b),
               (m2.a * alpha[1] ** 2 - 2.0 * alpha[1] * w2pts) / (2.0 * m2.b)))

    # Modulation covariance: the forward contraction with the kernel phase
    # tables shifted by s*B in the frequency argument; both readings share
    # one pass over the modulated signal's side.
    t1 = (w1pts - s[0] * m1.b)[:, None]
    t2 = (w2pts - s[1] * m2.b)[:, None]

    def modulated(theta1, theta2):
        return blocks(f, ugrid, theta1, theta2,
                      m1.d / 2.0 * (2.0 * w1pts * s[0] - m1.b * s[0] ** 2),
                      m2.d / 2.0 * (2.0 * w2pts * s[1] - m2.b * s[1] ** 2))

    modulation_derived, modulation_printed = _streamed_rel_l2(
        _analysis_blocks(modulate(f, s), window, m1, m2, ugrid, wgrid),
        modulated(kernel_phase(m1, x1[None, :], t1),
                  kernel_phase(m2, x2[None, :], t2)),
        modulated(kernel_phase(m1, t1, x1[None, :]),
                  kernel_phase(m2, t2, x2[None, :])))

    return CovarianceReport(parity, shift, modulation_printed, modulation_derived)


def special_case_matrix(kind, value=None):
    """Matrix pairs for the named special transforms.

    "fractional" (angle theta != n*pi), "fresnel" (B != 0), "stockwell".
    """
    if kind == "stockwell":
        m = validate_param(0.0, 1.0, -1.0, 0.0)
        return m, m
    if kind == "fractional":
        theta = float(value)
        if abs(math.sin(theta)) <= 1e-12:
            raise DegenerateAngle("fractional angle must not be a multiple of pi")
        m = validate_param(math.cos(theta), math.sin(theta),
                           -math.sin(theta), math.cos(theta))
        return m, m
    if kind == "fresnel":
        bval = float(value)
        if bval == 0.0:
            raise BadParameter("Fresnel parameter B must be nonzero")
        m = validate_param(1.0, bval, 0.0, 1.0)
        return m, m
    raise BadParameter("unknown special case %r" % kind)
