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
producer of u1 row blocks (_analysis_blocks).  Every check reads C.blocks(),
(rows, k, a, b) with plane rows _rows(k, a) and _rows(k, b): a stored
QLCSTCoefficients yields its planes as one block (k None), an unstored
qlcst_analysis the producer's blocks, so checks on it hold no coefficient
set; qlcst_forward fills its planes from them in place.  The inverse over w
of a u-slice, on any grid and for any window, is that contraction with the
adjoint matrices conj(E)^T.
Synthesis divides the adjoint sum by the frame sum sum_u |Psi(u - x)|^2 of
the u grid, not by lambda, which makes it exact on any u spacing.
a and b are kept rather than P and Q because (w - z, w + z) does not round
trip through float64, while a and b hold the interleaved components exactly.
"""

import itertools
import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import (AdmissibilityError, BadParameter, DegenerateAngle,
                     GridMismatch, TooLarge, Undersampled, ZeroSignal)
from .lct import ParamMatrix, kernel_const, kernel_phase, validate_param
from .quaternion import (qconj, qmul, qnormsq, right_mu2, symplectic_join,
                         symplectic_split)
from .signal import (Grid1D, Grid2D, QSignal2D, fft_output_grid, relative_l2,
                     sandwich_phase)
from .window import (WindowSpec, lambda_psi, reflect, window_axis_profile,
                     window_eval)
from .qlct import qlct_forward

# Window-profile entries below this fraction of the peak are stored as exact
# zeros: the s-gaussian tails underflow to subnormals, which stall BLAS.
PROFILE_FLOOR = 1e-200

# u1 rows per block of the separable analysis.  From about 4 rows up a block
# product runs as fast as the whole-plane GEMM and gives the same bits.
ROW_BLOCK = 8


def _rows(k, plane):
    """Plane rows of a block: k @ plane, or the stored rows if k is None."""
    return plane if k is None else k @ plane


class _Source:
    """Grids, window, matrices and blocks() of coefficients, stored or not;
    the reductions over blocks() are computed once per object."""

    _density = None

    @property
    def cell4(self):
        return self.ugrid.cell * self.wgrid.cell

    def density(self):
        """u-integrated squared modulus S[w1, w2] = sum_u |C(u, w)|^2,
        computed on the first call and returned read-only from then on."""
        if self._density is None:
            nw1, nw2 = self.wgrid.shape
            acc = np.zeros((nw1, 2 * nw2))
            for _, k, *planes in self.blocks():
                for plane in planes:
                    parts = _rows(k, plane).view(float).reshape(
                        -1, nw1, self.ugrid.axis2.n, 2 * nw2)
                    acc += np.einsum("abcd,abcd->bd", parts, parts)
            self._density = acc.reshape(nw1, nw2, 2).sum(axis=-1)
            self._density.flags.writeable = False
        return self._density

    def energy(self):
        return float(np.sum(self.density()) * self.cell4)


@dataclass
class QLCSTCoefficients(_Source):
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

    def blocks(self):
        yield slice(None), None, self.a, self.b

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


@dataclass
class QLCSTAnalysis(_Source):
    """The analysis of f, unstored: blocks() computes the plane rows as they
    are read (_analysis_blocks, with its theta1, theta2, reverse overrides)."""

    f: QSignal2D
    window: WindowSpec
    m1: ParamMatrix
    m2: ParamMatrix
    ugrid: Grid2D
    wgrid: Grid2D

    def blocks(self, **overrides):
        return _analysis_blocks(self.f, self.window, self.m1, self.m2,
                                self.ugrid, self.wgrid, **overrides)


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
    row blocks: the u and w points and the theta rows are reversed once, and
    every kernel is built on them.
    """
    u1s, u2s, w1s, w2s = (ax.points for ax in (ugrid.axis1, ugrid.axis2,
                                               wgrid.axis1, wgrid.axis2))
    if reverse:
        u1s, u2s, w1s, w2s = u1s[::-1], u2s[::-1], w1s[::-1], w2s[::-1]
        theta1, theta2 = (None if t is None else t[::-1] for t in (theta1, theta2))
    x1s, x2s = f.grid.axis1.points, f.grid.axis2.points
    nw1 = len(w1s)
    if window.separable:
        k1 = _axis_kernel(window, 1, m1, u1s, x1s, w1s, theta1)
        k2 = _axis_kernel(window, 2, m2, u2s, x2s, w2s, theta2)
        a, b = symplectic_split(f.data)
        a, b = _right_contract(a * f.grid.cell, b * f.grid.cell, k2)
        step = ROW_BLOCK * nw1
        for start in range(0, len(k1), step):
            rows = slice(start, start + step)
            yield rows, k1[rows], a, b
        return
    x1, x2, u2 = x1s[:, None, None], x2s[None, None, :], u2s[None, :, None]
    e1 = _phase_matrix(m1, x1s, w1s, theta1)
    e2 = _phase_matrix(m2, x2s, w2s, theta2)
    fc = f.data[:, None] * f.grid.cell
    for i, u1 in enumerate(u1s):
        psi = window_eval(window, (u1 - x1, u2 - x2), None)  # no w dependence
        a, b = _right_contract(*symplectic_split(qmul(fc, qconj(psi))), e2)
        yield slice(i * nw1, (i + 1) * nw1), e1, a, b


def _physical_memory():
    """Bytes of physical memory of the machine."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def qlcst_analysis(f, window, m1, m2, ugrid=None, wgrid=None):
    """The unstored analysis of f, which the checks read like stored
    coefficients.  Defaults: ugrid = signal grid, wgrid = FFT-compatible
    spectrum grid."""
    return QLCSTAnalysis(f, window, m1, m2, f.grid if ugrid is None else ugrid,
                         fft_output_grid(f.grid, m1.b, m2.b) if wgrid is None else wgrid)


def qlcst_forward(f, window, m1, m2, ugrid=None, wgrid=None):
    """Analysis operator producing QLCSTCoefficients: the planes of
    qlcst_analysis (same defaults) filled in place from its blocks.  Planes
    larger than physical memory are refused before anything is allocated."""
    src = qlcst_analysis(f, window, m1, m2, ugrid, wgrid)
    shape = tuple(u * w for u, w in zip(src.ugrid.shape, src.wgrid.shape))
    need = 2 * shape[0] * shape[1] * np.dtype(complex).itemsize
    have = _physical_memory()
    if need > have:
        raise TooLarge("coefficient planes of %.3g GB do not fit in the %.3g GB "
                       "of physical memory" % (need / 1e9, have / 1e9))
    a, b = np.empty(shape, dtype=complex), np.empty(shape, dtype=complex)
    for rows, k, ra, rb in src.blocks():
        np.matmul(k, ra, out=a[rows])
        np.matmul(k, rb, out=b[rows])
    return QLCSTCoefficients(a, b, src.ugrid, src.wgrid, window, m1, m2)


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
    if not isinstance(C, QLCSTCoefficients):
        raise BadParameter("the pointwise inverse reads stored coefficients: "
                           "pass qlcst_forward(...), not qlcst_analysis(...)")
    if xgrid is None:
        xgrid = C.ugrid
    iu1, iu2 = u_index
    a4, b4 = C.views4()
    a, b = _contract(a4[iu1, :, iu2], b4[iu1, :, iu2], *_w_adjoints(C, xgrid))
    return QSignal2D(symplectic_join(a, b) * C.wgrid.cell, xgrid)


def _w_inverse_rows(C, xgrid):
    """Yield, for each u1 in turn, the planes (a, b) of shape (x1, u2, x2) of
    the inverse QLCT over w of every slice C(u1, u2, .) onto xgrid: the
    contraction of qlcst_pointwise_inverse for each u1 row of C.blocks()."""
    e1h, e2h = _w_adjoints(C, xgrid)
    nw1 = C.wgrid.axis1.n
    rows_in = (nw1, C.ugrid.axis2.n, C.wgrid.axis2.n)
    rows_out = (xgrid.axis1.n, C.ugrid.axis2.n, xgrid.axis2.n)
    for _, k, *planes in C.blocks():
        for a, b in zip(*(_rows(k, p).reshape((-1,) + rows_in) for p in planes)):
            a, b = _contract(a, b, e1h, e2h)
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
    per-axis sums; a table window inverts one u1 row over w at a time.  Both
    sum over C.blocks(), so C may be stored or unstored.  An x that no u
    reaches (F(x) <= eps * max F) is refused.
    """
    if C.window.w_dependent:
        raise AdmissibilityError(
            "reconstruction needs a window that does not depend on the frequency")
    g = C.ugrid
    if C.window.separable:
        k1, k2 = _axis_kernels(C.window, C.m1, C.m2, g, g, C.wgrid)
        k1h = k1.conj().T
        acc = [0, 0]
        for rows, k, *planes in C.blocks():
            for i, p in enumerate(planes):
                acc[i] += k1h[:, rows] @ _rows(k, p)
        a, b = right_mu2(*acc, lambda h: h @ k2.conj())
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


def _zip_blocks(*producers):
    """The producers' blocks side by side; rows that do not line up (also a
    stored set against an analysis) raise GridMismatch."""
    for blocks in itertools.zip_longest(*producers):
        if None in blocks or any(b[0] != blocks[0][0] for b in blocks):
            raise GridMismatch("the zipped producers' row blocks do not line up")
        yield blocks


def orthogonality_form(Cf, Cg):
    """Quaternion value of the double integral of Cf * conj(Cg) over (w, u),
    for two sources of the same grids, window and matrices.

    (a1 + b1 mu2) conj(a2 + b2 mu2) = (a1 a2* + b1 b2*) + (b1 a2 - a1 b2) mu2.
    Cg is Cf reads each block of Cf once for both sides.
    """
    if any(getattr(Cf, name) != getattr(Cg, name)
           for name in ("ugrid", "wgrid", "window", "m1", "m2")):
        raise GridMismatch("coefficient grids, window or matrices differ")
    first = second = 0
    pairs = (((blk, blk) for blk in Cf.blocks()) if Cg is Cf
             else _zip_blocks(Cf.blocks(), Cg.blocks()))
    for (_, kf, *pf), (_, kg, *pg) in pairs:
        af, bf = (_rows(kf, p) for p in pf)
        ag, bg = (af, bf) if Cg is Cf else (_rows(kg, p) for p in pg)
        first += np.vdot(ag, af) + np.vdot(bg, bf)
        second += np.dot(bf.ravel(), ag.ravel()) - np.dot(af.ravel(), bg.ravel())
        del af, bf, ag, bg  # freed before the next block's products
    return symplectic_join(first, second) * Cf.cell4


def energy_identity_gap(C, f):
    """Relative gap of the energy identity: integral |C|^2 vs lam * ||f||^2."""
    denom = lambda_psi(C.window) * f.energy()
    if denom == 0.0:
        raise ZeroSignal("energy identity undefined for the zero signal")
    return abs(C.energy() - denom) / denom


def marginal_qlct_gap(C, f):
    """Relative L2 gap between the u-marginal sum_u C(u, w) * du of the
    coefficients C of f, summed block by block, and the QLCT of f under
    C.m1, C.m2 onto C.wgrid by the direct oracle, which shares no code with
    the fast path (0 for the zero signal)."""
    nw1, nw2 = C.wgrid.shape
    marg = [np.zeros((nw1, nw2), dtype=complex) for _ in range(2)]
    for _, k, *planes in C.blocks():
        for acc, p in zip(marg, planes):
            acc += _rows(k, p).reshape(-1, nw1, C.ugrid.axis2.n, nw2).sum(axis=(0, 2))
    marg = symplectic_join(*marg) * C.ugrid.cell
    return relative_l2(marg, qlct_forward(f, C.m1, C.m2, C.wgrid).data)


# --- signal manipulation helpers used by the covariance checks -------------

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


def _streamed_rel_l2(want, got):
    """relative_l2, over the quaternion components, of the planes of the
    _analysis_blocks producer got against those of the producer want,
    accumulated block by block so that no coefficient set is ever held.
    Producers whose row blocks do not line up raise GridMismatch."""
    num = denom = 0.0
    for (_, k, *planes), (_, gk, *gots) in _zip_blocks(want, got):
        for plane, other in zip(planes, gots):  # one product of each at a time
            ref = k @ plane
            denom += _sqnorm(ref)
            diff = gk @ other
            diff -= ref
            num += _sqnorm(diff)
            del ref, diff
    return math.sqrt(num / denom if denom else num)


@dataclass
class CovarianceReport:
    parity: float
    shift: float
    modulation: float


def covariance_residuals(f, window, m1, m2, alpha=(1.0, 0.0), s=(1.0, 1.0)):
    """Relative L2 residuals of the parity, shift and modulation covariances,
    on the default grids of qlcst_analysis, which produces every side.

    The shift identity is checked in its derivation-consistent form, with the
    auxiliary signal built as the two-sided product
    exp(mu1 A1 t1 alpha1/B1) f exp(mu2 A2 t2 alpha2/B2), whose coefficients
    are evaluated directly at (u - alpha, w).  The modulation identity
    evaluates the kernel at (x, w - s*B), the frequency shift in the
    frequency slot, and the window at w.  The w-dependent phase factors
    exp(mu1*phi1(w1)) * . * exp(mu2*phi2(w2)) of both identities are added
    to the kernel phase tables, since they multiply the mu1 kernel on the
    left and the mu2 kernel on the right.
    """
    base = qlcst_analysis(f, window, m1, m2)
    ugrid, wgrid = base.ugrid, base.wgrid
    w1pts, w2pts = wgrid.axis1.points, wgrid.axis2.points
    x1, x2 = f.grid.axis1.points, f.grid.axis2.points

    def blocks(g, u, t1, t2, phi1, phi2):
        """Blocks of exp(mu1*phi1) * (analysis of g on the u grid with the
        kernels evaluated at the frequencies t) * exp(mu2*phi2), with phi
        depending on w only."""
        return qlcst_analysis(g, window, m1, m2, u, wgrid).blocks(
            theta1=kernel_phase(m1, x1[None, :], t1[:, None]) + phi1[:, None],
            theta2=kernel_phase(m2, x2[None, :], t2[:, None]) + phi2[:, None])

    # Each check streams both of its sides block by block
    # (_streamed_rel_l2), so no coefficient set is ever held whole.

    # Parity: transform of the reflected signal under the reflected window
    # equals the coefficients sampled at (-u, -w); on centered midpoint grids
    # negation reverses every index axis, which reverses both plane axes, so
    # the base side is produced reversed.
    f_ref = QSignal2D(f.data[::-1, ::-1].copy(), f.grid)
    parity = _streamed_rel_l2(
        base.blocks(reverse=True),
        qlcst_analysis(f_ref, reflect(window), m1, m2).blocks())

    # Shift covariance.
    f_tilde = sandwich_phase(f,
                             m1.a * x1 * alpha[0] / m1.b,
                             m2.a * x2 * alpha[1] / m2.b)
    # The window keeps its w; only its u - x argument moves with the grid.
    u_minus_alpha = Grid2D(*(Grid1D(ax.n, ax.origin - t, ax.spacing)
                             for ax, t in zip((ugrid.axis1, ugrid.axis2), alpha)))
    shift = _streamed_rel_l2(
        qlcst_analysis(shift_signal(f, alpha), window, m1, m2).blocks(),
        blocks(f_tilde, u_minus_alpha, w1pts, w2pts,
               (m1.a * alpha[0] ** 2 - 2.0 * alpha[0] * w1pts) / (2.0 * m1.b),
               (m2.a * alpha[1] ** 2 - 2.0 * alpha[1] * w2pts) / (2.0 * m2.b)))

    # Modulation covariance: the analysis of exp(mu1 s1 x1) f exp(mu2 s2 x2)
    # against that of f with the kernels at w - s*B.
    modulation = _streamed_rel_l2(
        qlcst_analysis(sandwich_phase(f, s[0] * x1, s[1] * x2),
                       window, m1, m2).blocks(),
        blocks(f, ugrid, w1pts - s[0] * m1.b, w2pts - s[1] * m2.b,
               m1.d / 2.0 * (2.0 * w1pts * s[0] - m1.b * s[0] ** 2),
               m2.d / 2.0 * (2.0 * w2pts * s[1] - m2.b * s[1] ** 2)))

    return CovarianceReport(parity, shift, modulation)


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
