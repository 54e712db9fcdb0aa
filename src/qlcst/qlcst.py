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
c * exp(i*theta(x, w)), which costs O(N^5).  The inverse over w of a
u-slice, on any grid and for any window, is that contraction with the
adjoint matrices conj(E)^T; the table synthesis sums inv_u(x) * Psi(u - x).
a and b are kept rather than P and Q because (w - z, w + z) does not round
trip through float64, while a and b hold the interleaved components exactly.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (AdmissibilityError, BadParameter, DegenerateAngle,
                     GridMismatch, SpacingError, ZeroSignal)
from .lct import kernel_const, kernel_phase, validate_param
from .quaternion import qconj, qmul, right_mu2, symplectic_join, symplectic_split
from .signal import (Grid2D, QSignal2D, fft_output_grid, relative_l2,
                     sandwich_phase)
from .window import lambda_psi, reflect, window_axis_profile, window_eval
from .qlct import qlct_fast_forward, qlct_forward

# Window-profile entries below this fraction of the peak are stored as exact
# zeros: the s-gaussian tails underflow to subnormals, which stall BLAS.
PROFILE_FLOOR = 1e-200


@dataclass
class QLCSTCoefficients:
    """Coefficients C(u, w) as the symplectic planes a, b with grid/config
    metadata.  Each plane is a (nu1*nw1, nu2*nw2) matrix in (u1, w1, u2, w2)
    order; `data` builds the interleaved (u1, u2, w1, w2, 4) array."""

    a: np.ndarray
    b: np.ndarray
    ugrid: Grid2D
    wgrid: Grid2D
    window: Optional[object] = None
    m1: Optional[object] = None
    m2: Optional[object] = None

    def __post_init__(self):
        want = (self.ugrid.axis1.n * self.wgrid.axis1.n,
                self.ugrid.axis2.n * self.wgrid.axis2.n)
        self.a = np.ascontiguousarray(self.a, dtype=complex)
        self.b = np.ascontiguousarray(self.b, dtype=complex)
        if self.a.shape != want or self.b.shape != want:
            raise GridMismatch("coefficient planes %r, %r do not match grids %r"
                               % (self.a.shape, self.b.shape, want))

    @classmethod
    def empty(cls, ugrid, wgrid, window=None, m1=None, m2=None):
        """Uninitialized planes for the given grids, to be filled by slabs."""
        shape = (ugrid.axis1.n * wgrid.axis1.n, ugrid.axis2.n * wgrid.axis2.n)
        return cls(np.empty(shape, dtype=complex), np.empty(shape, dtype=complex),
                   ugrid, wgrid, window, m1, m2)

    def views4(self):
        """The planes as (u1, w1, u2, w2) views."""
        shape = (self.ugrid.axis1.n, self.wgrid.axis1.n,
                 self.ugrid.axis2.n, self.wgrid.axis2.n)
        return self.a.reshape(shape), self.b.reshape(shape)

    def u1_slab(self, i, out):
        """Write the interleaved (u2, w1, w2, 4) components at position index
        u1 = i into out and return it."""
        a4, b4 = self.views4()
        pairs = out.view(complex)
        pairs[..., 0] = a4[i].transpose(1, 0, 2)
        pairs[..., 1] = b4[i].transpose(1, 0, 2)
        return out

    def set_u1_slab(self, i, slab):
        """Store interleaved (u2, w1, w2, 4) components at u1 = i."""
        pairs = np.ascontiguousarray(slab, dtype=float).view(complex)
        a4, b4 = self.views4()
        a4[i] = pairs[..., 0].transpose(1, 0, 2)
        b4[i] = pairs[..., 1].transpose(1, 0, 2)

    @property
    def data(self):
        """Interleaved (u1, u2, w1, w2, 4) copy of the coefficients."""
        out = np.empty(self.ugrid.shape + self.wgrid.shape + (4,))
        for i in range(self.ugrid.axis1.n):
            self.u1_slab(i, out[i])
        out.flags.writeable = False
        return out

    @property
    def cell4(self):
        return self.ugrid.cell * self.wgrid.cell

    def density(self):
        """u-integrated squared modulus S[w1, w2] = sum_u |C(u, w)|^2."""
        nw1, nw2 = self.wgrid.shape
        acc = np.zeros((nw1, 2 * nw2))
        for plane in (self.a, self.b):
            parts = plane.view(float).reshape(
                self.ugrid.axis1.n, nw1, self.ugrid.axis2.n, 2 * nw2)
            acc += np.einsum("abcd,abcd->bd", parts, parts)
        return acc.reshape(nw1, nw2, 2).sum(axis=-1)

    def energy(self):
        return float(np.sum(self.density()) * self.cell4)


def _default_grids(f, m1, m2, ugrid, wgrid):
    if ugrid is None:
        ugrid = f.grid
    if wgrid is None:
        wgrid = fft_output_grid(f.grid, m1.b, m2.b)
    return ugrid, wgrid


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


def _contract(a, b, k1, k2):
    """Planes of K1 @ (a + b*mu2) @ K2^T: the mu1 matrix k1 contracts axis 0
    and the mu2 matrix k2 the last axis; the axes between are kept and
    flattened into the columns."""
    a, b = right_mu2(a, b, lambda g: g @ k2.T)
    return k1 @ a.reshape(len(a), -1), k1 @ b.reshape(len(b), -1)


def _separable_forward(f, window, m1, m2, ugrid, wgrid, theta1=None, theta2=None):
    """Planes (a, b) of the analysis for a real separable window."""
    k1, k2 = _axis_kernels(window, m1, m2, ugrid, f.grid, wgrid, theta1, theta2)
    a, b = symplectic_split(f.data)
    return _contract(a * f.grid.cell, b * f.grid.cell, k1, k2)


def _table_forward(f, window, m1, m2, ugrid, wgrid, theta1=None, theta2=None):
    """Planes (a, b) of the analysis for a sampled-table window, one u1 row
    at a time.

    The table does not depend on w, so C(u, .) is the QLCT of
    g_u = f * conj(Psi(u - .)) onto wgrid.  For one u1 the products g_u of
    every u2 are stacked as (x1, u2, x2) and contracted with the plain kernel
    matrices, which yields the (w1, (u2, w2)) rows of the planes directly.
    """
    x1 = f.grid.axis1.points[:, None, None]
    x2 = f.grid.axis2.points[None, None, :]
    u2 = ugrid.axis2.points[None, :, None]
    e1 = _phase_matrix(m1, f.grid.axis1.points, wgrid.axis1.points, theta1)
    e2 = _phase_matrix(m2, f.grid.axis2.points, wgrid.axis2.points, theta2)
    fc = f.data[:, None] * f.grid.cell
    nw1 = wgrid.axis1.n
    shape = (ugrid.axis1.n * nw1, ugrid.axis2.n * wgrid.axis2.n)
    a, b = np.empty(shape, dtype=complex), np.empty(shape, dtype=complex)
    for i, u1 in enumerate(ugrid.axis1.points):
        psi = window_eval(window, (u1 - x1, u2 - x2), None)  # no w dependence
        rows = slice(i * nw1, (i + 1) * nw1)
        a[rows], b[rows] = _contract(*symplectic_split(qmul(fc, qconj(psi))),
                                     e1, e2)
    return a, b


def _forward(f, window, m1, m2, ugrid, wgrid, theta1=None, theta2=None):
    """Planes (a, b) of the analysis on the path the window family allows.

    theta1/theta2 override the per-axis (w, x) kernel phase tables; used by
    the covariance checks.
    """
    path = _separable_forward if window.separable else _table_forward
    return path(f, window, m1, m2, ugrid, wgrid, theta1, theta2)


def qlcst_forward(f, window, m1, m2, ugrid=None, wgrid=None):
    """Analysis operator producing QLCSTCoefficients.

    Defaults: ugrid = signal grid, wgrid = FFT-compatible spectrum grid.
    """
    ugrid, wgrid = _default_grids(f, m1, m2, ugrid, wgrid)
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


def _table_reconstruct(C, xgrid):
    """Sum over u of inv_u(x) * Psi(u - x) * du for a sampled-table window,
    where inv_u is the inverse QLCT over w of C(u, .) (_w_inverse_rows)."""
    x1 = xgrid.axis1.points[:, None, None]
    x2 = xgrid.axis2.points[None, None, :]
    u2 = C.ugrid.axis2.points[None, :, None]
    out = np.zeros(xgrid.shape + (4,))
    for u1, (a, b) in zip(C.ugrid.axis1.points, _w_inverse_rows(C, xgrid)):
        psi = window_eval(C.window, (u1 - x1, u2 - x2), None)  # no w dependence
        out += qmul(symplectic_join(a, b), psi).sum(axis=1)
    return out * C.ugrid.cell


def qlcst_reconstruct(C, xgrid=None):
    """Synthesis: f = (1/lam) * sum over (u, w) of
    Kinv1(x1,w1) * C(u,w) * Psi(u-x,w) * Kinv2(x2,w2), with the inverse
    kernels taken as the negated-phase forward kernels at (x, w): the
    adjoint contraction K1^H @ P @ conj(K2) and K1^H @ Q @ K2.  A table
    window does not depend on w, so its sum over w is the inverse QLCT of
    each u-slice (_table_reconstruct).
    """
    adm = lambda_psi(C.window)
    if adm.w_dependent:
        raise AdmissibilityError(
            "reconstruction needs a frequency-independent admissibility constant")
    if xgrid is None:
        xgrid = C.ugrid
    if not C.window.separable:
        return QSignal2D(_table_reconstruct(C, xgrid) / adm.lam, xgrid)
    k1, k2 = _axis_kernels(C.window, C.m1, C.m2, C.ugrid, xgrid, C.wgrid)
    k1h = k1.conj().T
    a, b = right_mu2(k1h @ C.a, k1h @ C.b, lambda g: g @ k2.conj())
    scale = C.ugrid.cell * C.wgrid.cell / adm.lam
    return QSignal2D(symplectic_join(a * scale, b * scale), xgrid)


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
    lam = lambda_psi(C.window).lam
    denom = lam * f.energy()
    if denom == 0.0:
        raise ZeroSignal("energy identity undefined for the zero signal")
    return abs(C.energy() - denom) / denom


def marginal_qlct_gap(C, f, m1, m2):
    """Relative L2 gap between the u-marginal of C and the QLCT of f."""
    a4, b4 = C.views4()
    marg = symplectic_join(a4.sum(axis=(0, 2)), b4.sum(axis=(0, 2))) * C.ugrid.cell
    try:
        ref = qlct_fast_forward(f, m1, m2, C.wgrid)
    except SpacingError:
        ref = qlct_forward(f, m1, m2, C.wgrid)
    if f.energy() == 0.0:
        return 0.0
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


def _shift_u(C, k1, k2):
    """Planes of C(u - k*du, w), zero-filled at the u boundary."""
    d1, s1 = _shift_slices(k1, C.ugrid.axis1.n)
    d2, s2 = _shift_slices(k2, C.ugrid.axis2.n)
    out = []
    for plane in C.views4():
        moved = np.zeros_like(plane)
        moved[d1, :, d2] = plane[s1, :, s2]
        out.append(moved.reshape(C.a.shape))
    return out


def _planes_rel_l2(got, want):
    """relative_l2 of two (a, b) plane pairs over their quaternion components."""
    num = sum(np.linalg.norm(g - w) ** 2 for g, w in zip(got, want))
    denom = sum(np.linalg.norm(w) ** 2 for w in want)
    if denom == 0.0:
        return math.sqrt(num)
    return math.sqrt(num / denom)


@dataclass
class CovarianceReport:
    parity: float
    shift: float
    modulation_printed: float
    modulation_derived: float

    @property
    def modulation_best(self):
        return min(self.modulation_printed, self.modulation_derived)


def covariance_residuals(f, window, m1, m2, alpha=(1.0, 0.0), s=(1.0, 1.0),
                         ugrid=None, wgrid=None):
    """Relative L2 residuals of the parity, shift and modulation covariances.

    The shift identity is checked in its derivation-consistent form, with the
    auxiliary signal built as the two-sided product
    exp(mu1 A1 t1 alpha1/B1) f exp(mu2 A2 t2 alpha2/B2).  The w-dependent
    phase factors exp(mu1*phi1(w1)) * . * exp(mu2*phi2(w2)) of both sides
    are added to the kernel phase tables, since they multiply the mu1 kernel
    on the left and the mu2 kernel on the right.  The modulation
    identity is evaluated for both readings of the kernel argument order
    (as printed, and with the frequency shift in the standard slot) and both
    residuals are reported.
    """
    ugrid, wgrid = _default_grids(f, m1, m2, ugrid, wgrid)
    w1pts = wgrid.axis1.points
    w2pts = wgrid.axis2.points
    x1 = f.grid.axis1.points
    x2 = f.grid.axis2.points

    def forward(g, theta1, theta2, phi1, phi2):
        """Planes of exp(mu1*phi1) * (analysis of g under the kernel phase
        tables theta) * exp(mu2*phi2), with phi depending on w only."""
        return _forward(g, window, m1, m2, ugrid, wgrid,
                        theta1 + phi1[:, None], theta2 + phi2[:, None])

    # The planes are large at desk scale; intermediates are dropped as soon
    # as each residual is in hand.

    # Parity: transform of the reflected signal under the reflected window
    # equals the coefficients sampled at (-u, -w); on centered midpoint grids
    # negation reverses every index axis, which reverses both plane axes.
    base = qlcst_forward(f, window, m1, m2, ugrid, wgrid)
    f_ref = QSignal2D(f.data[::-1, ::-1].copy(), f.grid)
    c_ref = qlcst_forward(f_ref, reflect(window), m1, m2, ugrid, wgrid)
    parity = _planes_rel_l2((c_ref.a, c_ref.b),
                            (base.a[::-1, ::-1], base.b[::-1, ::-1]))
    del base, c_ref

    # Shift covariance.
    lhs = qlcst_forward(shift_signal(f, alpha), window, m1, m2, ugrid, wgrid)
    f_tilde = sandwich_phase(f,
                             m1.a * x1 * alpha[0] / m1.b,
                             m2.a * x2 * alpha[1] / m2.b)
    k1 = _integer_shift(alpha[0], ugrid.axis1.spacing)
    k2 = _integer_shift(alpha[1], ugrid.axis2.spacing)
    # The phase depends on w only, so it commutes with the shift in u.
    rhs = forward(f_tilde, kernel_phase(m1, x1[None, :], w1pts[:, None]),
                  kernel_phase(m2, x2[None, :], w2pts[:, None]),
                  (m1.a * alpha[0] ** 2 - 2.0 * alpha[0] * w1pts) / (2.0 * m1.b),
                  (m2.a * alpha[1] ** 2 - 2.0 * alpha[1] * w2pts) / (2.0 * m2.b))
    rhs = _shift_u(QLCSTCoefficients(*rhs, ugrid, wgrid), k1, k2)
    shift = _planes_rel_l2(rhs, (lhs.a, lhs.b))
    del lhs, rhs

    # Modulation covariance: the forward contraction with the kernel phase
    # tables shifted by s*B in the frequency argument.
    lhs_mod = qlcst_forward(modulate(f, s), window, m1, m2, ugrid, wgrid)
    t1 = (w1pts - s[0] * m1.b)[:, None]
    t2 = (w2pts - s[1] * m2.b)[:, None]

    def residual(theta1, theta2):
        out = forward(f, theta1, theta2,
                      m1.d / 2.0 * (2.0 * w1pts * s[0] - m1.b * s[0] ** 2),
                      m2.d / 2.0 * (2.0 * w2pts * s[1] - m2.b * s[1] ** 2))
        return _planes_rel_l2(out, (lhs_mod.a, lhs_mod.b))

    modulation_derived = residual(kernel_phase(m1, x1[None, :], t1),
                                  kernel_phase(m2, x2[None, :], t2))
    modulation_printed = residual(kernel_phase(m1, t1, x1[None, :]),
                                  kernel_phase(m2, t2, x2[None, :]))

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
