"""The quaternion linear canonical S-transform and its verification operations.

The analysis operator computes, for every output tuple (u, w),

    C(u, w) = sum_x K1(x1, w1) * f(x) * conj(Psi(u - x, w)) * K2(x2, w2) * cell

with the mu1 kernel on the left and the mu2 kernel on the right.

Coefficients are the two mu1-complex planes a, b of the symplectic split
C = a + b*mu2, in the layout and tile protocol of the coefficients module.

A left factor exp(mu1*t) multiplies both planes by exp(i*t); a right factor
exp(mu2*t) is diagonal on P = a + i*b and Q = a - i*b (quaternion.right_mu2).
Every window is a short sum of separable terms (window.window_terms),
Psi = sum_r p_r(y1, w1) * sum_c e_c q_rc(y2, w2) with p_r and q_rc real, which
commute with the quaternion units.  Each axis of a term is thus a complex
kernel matrix K[(u, w), x] = prof(u - x, w) * c * exp(i*theta(x, w)), and the
analysis is sum_r K1_r @ sum_c (f * conj(e_c) * cell) @ K2_rc^T, each K2_rc
applied through right_mu2 first; synthesis is the adjoint contraction,
right-multiplied by e_c.  A built-in window is one real term; a table has
R <= min(n1, 4*n2), and cost and memory grow with R: the stacked mu2
factors of whole rows as R*N^3, those of one column tile as R*N*TILE_COLS,
the K1_r rows of one block (all that is built of them) as R*N^2.  The mu2
factors follow one rule, one column tile (coefficients._col_tiles) at a
time against only that tile's K2 rows (_mu2_tile), on every path, because
a GEMM split by columns need not give the bits of the whole product; each
term's P and Q products are formed in its rows of the tile's factors and
combined there in place, after K2 is freed (right_mu2).  One producer,
_analysis_tiles, takes the column tiles grouped by the factors it holds at
once and yields each group's row blocks in row order: one tile per group
holds one column block of factors and serves every reduction, stored() (so
qlcst_forward fills its planes in place from it), u slices and
covariance_residuals; one group of all tiles holds whole rows and yields
the row order of a file, for the QCF2 writer and the orthogonality form of
two sources.  Every reduction sums by column tile, whatever order its
source yields (coefficients._tile_partials), so a stored set, a QCF2 file
and an unstored qlcst_analysis give the same bits.  The producer is a pure
contraction of data: it takes the output points and the per-axis kernel
matrices, which the analysis builds from its grids and _phase_matrix, and
covariance_residuals by one side rule for all six sides, with reversed
points (parity) or shifted kernel phases (shift, modulation), so it needs
no analysis object.  Its shift analyses f's own samples on the x grid moved
by alpha, the shifted signal exactly.  The pointwise inverse reads
C.slice_planes(), so it too takes any source; on an unstored analysis that
computes the mu2 factors of one tile and the u1 row of one block.
Synthesis divides the adjoint sum by the frame sum sum_u |Psi(u - x)|^2 of
the u grid, not by lambda: exact on every u grid dual to the w grid
(signal.dual_ratio).
a and b are kept rather than P and Q because (w - z, w + z) does not round
trip through float64, while a and b hold the interleaved components exactly.
"""

import math
from dataclasses import dataclass

import numpy as np

from .coefficients import (ROW_BLOCK, QLCSTCoefficients, _col_tiles, _product,
                           _refuse_beyond_memory, _row_blocks, _Source, _split4,
                           _tile_partials, _tile_sum)
from .errors import (AdmissibilityError, BadParameter, DegenerateAngle,
                     GridMismatch, NonFinite, SpacingError, Undersampled, ZeroSignal)
from .lct import ParamMatrix, kernel_const, kernel_phase, validate_param
from .quaternion import (qconj, qmul, right_mu2, symplectic_join,
                         symplectic_split)
from .signal import (Grid1D, Grid2D, QSignal2D, dual_ratio, fft_output_grid,
                     relative_l2, sandwich_phase)
from .window import WindowSpec, lambda_psi, reflect, window_terms
from .qlct import qlct_forward

# Window-profile entries below this fraction of the peak are stored as exact
# zeros: the s-gaussian tails underflow to subnormals, which stall BLAS.
PROFILE_FLOOR = 1e-200


@dataclass
class QLCSTAnalysis(_Source):
    """The analysis of f, unstored: tile_factors() yields the factors of
    the planes group by group (_analysis_tiles), and tiles() computes them
    as they are read."""

    f: QSignal2D
    window: WindowSpec
    m1: ParamMatrix
    m2: ParamMatrix
    ugrid: Grid2D
    wgrid: Grid2D

    def tile_factors(self, groups):
        (x1, x2), u, (w1, w2) = (_points(g) for g in (self.f.grid, self.ugrid,
                                                       self.wgrid))
        return _analysis_tiles(self.f, self.window, u, (w1, w2),
                               _phase_matrix(self.m1, x1, w1),
                               _phase_matrix(self.m2, x2, w2), groups)


def _points(grid):
    """The point vectors of both axes of grid."""
    return grid.axis1.points, grid.axis2.points


def _phase_matrix(m, x, w):
    """The plain (len(w), len(x)) kernel matrix E[w, x] = c * exp(i*theta[w, x])
    of the phases theta = kernel_phase(m, x, w); NonFinite if they overflow."""
    e = kernel_const(m) * np.exp(1j * kernel_phase(m, x[None, :], w[:, None]))
    if not np.all(np.isfinite(e)):
        raise NonFinite("the kernel phases of %r overflow on this grid" % (m,))
    return e


def _floor(prof):
    """prof with its entries whose modulus is below PROFILE_FLOOR of their
    profile's peak set to exact zeros, in place; prof[r] is profile r and
    its peak is taken over the whole of it."""
    mag = np.abs(prof)
    prof[mag < PROFILE_FLOOR * mag.max(axis=tuple(range(1, prof.ndim)),
                                       keepdims=True)] = 0.0
    return prof


def _floored_terms(window, y1, w1, y2, w2):
    """window_terms with every profile floored (_floor) over its whole
    extent: p per term, q per term and component.  The kernels are built
    only from these, so the kernel of some u rows of a profile is those
    rows of its whole kernel."""
    p, q = window_terms(window, y1, w1, y2, w2)
    for prof in (p, *q):
        _floor(prof)
    return p, q


def _kernel(prof, e, out=None):
    """The kernel matrices of R profiles side by side,
    K[(u, w), (r, x)] = prof[r, u, w, x] * e[w, x], with prof broadcasting
    over w, from _floored_terms, and e from _phase_matrix; in the front of
    the flat complex buffer out, if given."""
    prof, e = np.moveaxis(prof, 0, 2), e[:, None, :]
    shape = np.broadcast_shapes(prof.shape, e.shape)
    k = (np.empty(shape, dtype=complex) if out is None
         else out[:math.prod(shape)].reshape(shape))
    # cast by assignment, then multiplied in place: the bits of
    # np.multiply(prof, e) with half its ufunc buffers (0.13 MB, not 0.26),
    # which are part of the mu2 stage's traced peak
    k[...] = prof
    k *= e
    return k.reshape(k.shape[0] * k.shape[1], -1)


def _times(m):
    """The transform g -> g @ m of right_mu2, which alone holds m once its
    caller holds none, so right_mu2 frees m before its temporary."""
    return lambda g, out: np.matmul(g, m, out=out)


def _right_contract(a, b, k2):
    """Planes of (a + b*mu2) @ K2^T: the mu2 matrix k2 contracts the last
    axis; axis 0 stays the rows and the axes between are flattened into the
    columns."""
    a, b = right_mu2(a, b, _times(k2.T))
    return a.reshape(len(a), -1), b.reshape(len(b), -1)


def _contract(a, b, k1, k2):
    """Planes of K1 @ (a + b*mu2) @ K2^T: the mu1 matrix k1 contracts axis 0
    and the mu2 matrix k2 the last axis (_right_contract)."""
    a, b = _right_contract(a, b, k2)
    return k1 @ a, k1 @ b


def _refuse_stacked_terms(nterms, nx1, ncols, nu1, nw1):
    """Refuse beyond the memory limit (TooLarge, by the rule of
    coefficients._refuse_beyond_memory) what the analysis and the synthesis
    hold of the R = nterms terms of a window on N_x1 = nx1 points, with
    N_u1 = nu1 and N_w1 = nw1 output points on axis 1: two R*N_x1 by ncols
    planes (the analysis's mu2 factors of the plane columns of its widest
    group of tiles, all N_u2*N_w2 in one group; the synthesis's accumulated
    K1^H sums) and the K1 rows (K1^H columns) of the largest block, R*N_x1
    by min(ROW_BLOCK, N_u1)*N_w1."""
    _refuse_beyond_memory("stacked window terms", nterms * nx1 * (
        2 * ncols + min(ROW_BLOCK, nu1) * nw1))


def _analysis_terms(f, window, u, w, ncols):
    """(p, q, g) of the analysis of f at the output points u = (u1, u2) and
    w = (w1, w2): the window's floored terms (_floored_terms) and the split
    products g = (a, b) of f * conj(e_c) * cell for the C components of the
    terms, side by side; refused (_refuse_stacked_terms) for mu2 factors of
    ncols plane columns before g or any factor exists."""
    (u1s, u2s), (w1s, w2s) = u, w
    x1s, x2s = _points(f.grid)
    p, q = _floored_terms(window, u1s[:, None, None] - x1s, w1s[:, None],
                          u2s[:, None, None] - x2s, w2s[:, None])
    _refuse_stacked_terms(len(q), len(x1s), ncols, len(u1s), len(w1s))
    g = tuple(h * f.grid.cell for h in symplectic_split(np.concatenate(
        [qmul(f.data, qconj(e)) for e in np.eye(4)[:q.shape[1]]], axis=1)))
    return p, q, g


def _mu2_tile(g, q, e2, cols, nw2, out):
    """The mu2 factors of the plane columns cols, one column tile of whole
    u2 groups (nw2 columns each), into the two R*N_x1 by len(cols) arrays
    out: the rows of term r are sum_c g @ K2_rc^T over the tile's rows of
    the K2_rc only, each one product with the K2_rc side by side.  Each
    term's K2 rows are built for its own products only, which right_mu2
    forms in the term's rows of out and combines there after freeing them.
    The one mu2 rule of every path: a GEMM split by columns need not give
    the bits of the whole product, so every factor is that of its tile."""
    (ga, gb), groups = g, slice(cols.start // nw2, cols.stop // nw2)
    for r, q_r in enumerate(q):
        rows = slice(r * len(ga), (r + 1) * len(ga))
        # no *args call: its argument tuple would hold K2 past right_mu2's del
        right_mu2(ga, gb, _times(_kernel(q_r[:, groups], e2).T),
                  (out[0][rows], out[1][rows]))


def _k1_rows(p, e1, rows, nw1, out=None):
    """The K1 rows of the plane rows `rows` (nw1 per u1 row), side by side
    over the terms, from the profiles p floored over their whole extent, so
    they are the rows of the whole K1_r; in the front of out, if given."""
    return _kernel(p[:, rows.start // nw1:rows.stop // nw1], e1, out)


def _analysis_tiles(f, window, u, w, e1, e2, groups):
    """Yield the analysis planes of f at the output points u = (u1, u2) and
    w = (w1, w2) under the per-axis (w, x) kernel matrices e1 and e2 (the
    forward ones are _phase_matrix), as (rows, cols, k, a, b): for each
    group of column tiles of `groups` (of _col_tiles, the first tile the
    widest) in turn, each row block rows (coefficients._row_blocks) and,
    inner, each tile cols of the group: the plane entries [rows, cols] are
    k @ a and k @ b.

    The window's terms (window_terms) give the K1_r side by side in k, and
    their mu2 factors, on top of each other in a and b, so k @ a is the sum
    over terms.  A group's factors are formed tile by tile by the one rule
    _mu2_tile, R*N_x1 by len(cols) each, in two reused buffers, valid only
    until the next group; each block's K1 rows are built once per group
    into one reused buffer (_k1_rows), valid only until the next block.  So
    one tile per group holds one column block of factors, and one group of
    all tiles whole rows, in the row order of a file.  The widest group's
    factors and one block of K1 rows are refused beyond the memory limit
    before either exists (_refuse_stacked_terms).  Reversed points and
    kernel rows give the planes reversed.
    """
    (u1s, _), (w1s, w2s) = u, w
    nw1, blocks = len(w1s), _row_blocks(len(u1s) * len(w1s), len(w1s))
    width = max(sum(c.stop - c.start for c in group) for group in groups)
    p, q, g = _analysis_terms(f, window, u, w, width)
    n = len(q) * len(g[0])
    # both planes in one allocation: glibc mapped separate ones afresh for
    # each analysis, 60k minor page faults (0.13 s) per verify pass, not 11k
    bufs = np.empty((2, n * width), dtype=complex)
    kbuf = np.empty(len(p) * blocks[0].stop * len(g[0]), dtype=complex)
    for group in groups:
        factors, first = [], group[0].start
        for cols in group:  # each tile's factors in its segment of the buffers
            seg = slice(n * (cols.start - first), n * (cols.stop - first))
            a, b = (buf[seg].reshape(n, cols.stop - cols.start) for buf in bufs)
            _mu2_tile(g, q, e2, cols, len(w2s), (a, b))
            factors.append((cols, a, b))
        for rows in blocks:
            k = _k1_rows(p, e1, rows, nw1, kbuf)
            for cols, a, b in factors:
                yield rows, cols, k, a, b


def qlcst_analysis(f, window, m1, m2, ugrid=None, wgrid=None):
    """The unstored analysis of f, which the checks read like stored
    coefficients.  Defaults: ugrid = signal grid, wgrid = FFT-compatible
    spectrum grid."""
    return QLCSTAnalysis(f, window, m1, m2, f.grid if ugrid is None else ugrid,
                         fft_output_grid(f.grid, m1.b, m2.b) if wgrid is None else wgrid)


def qlcst_forward(f, window, m1, m2, ugrid=None, wgrid=None):
    """Analysis operator producing QLCSTCoefficients: the stored() planes of
    qlcst_analysis (same defaults), filled in place from its tiles and
    refused beyond the memory limit."""
    return qlcst_analysis(f, window, m1, m2, ugrid, wgrid).stored()


def _w_adjoints(C, xgrid):
    """The adjoint kernel matrices conj(E1)^T and conj(E2)^T, (x, w) each,
    that take a w-slice of C back to xgrid."""
    return (_phase_matrix(C.m1, xgrid.axis1.points, C.wgrid.axis1.points).conj().T,
            _phase_matrix(C.m2, xgrid.axis2.points, C.wgrid.axis2.points).conj().T)


def qlcst_pointwise_inverse(C, u_index, xgrid=None):
    """Inverse QLCT over w of the coefficient slice of any source at one
    position index pair (C.slice_planes, which checks it), onto any xgrid
    (default: C.ugrid): the direct inverse QLCT of the slice on any w and x
    grid.

    It equals the masked product f(x) * conj(Psi(u - x)) of a w-independent
    window only when the w grid is dual to xgrid (signal.dual_ratio of each
    x axis, w axis and B is a whole number s) and xgrid is every s-th signal
    point, as on the default grids.  On other grids it is still the inverse
    of the slice, but not the masked product, and nothing is refused.
    """
    if xgrid is None:
        xgrid = C.ugrid
    a, b = _contract(*C.slice_planes("u", u_index), *_w_adjoints(C, xgrid))
    return QSignal2D(symplectic_join(a, b) * C.wgrid.cell, xgrid)


def _w_inverse_rows(C, xgrid):
    """Yield, for each u1 row of each tile of C.tiles() in turn, the tile
    cols and the planes (a, b) of shape (x1, u2, x2), u2 over the tile's, of
    the inverse QLCT over w of every slice C(u1, u2, .) onto xgrid: the
    contraction of qlcst_pointwise_inverse."""
    e1h, e2h = _w_adjoints(C, xgrid)
    nw1, nw2 = C.wgrid.shape
    shape = (xgrid.axis1.n, -1, xgrid.axis2.n)
    for _, cols, *planes in C.tiles():
        for a, b in zip(*(_split4(p, nw1, nw2) for p in planes)):
            a, b = _contract(a, b, e1h, e2h)
            yield (cols, a.reshape(shape) * C.wgrid.cell,
                   b.reshape(shape) * C.wgrid.cell)


def qlcst_reconstruct(C):
    """Synthesis onto the u grid: the adjoint sum over (u, w) of
    Kinv1(x1,w1) * C(u,w) * Kinv2(x2,w2) * Psi(u-x), the inverse kernels
    being the negated-phase forward kernels, divided pointwise by the frame
    sum F(x) = sum_u |Psi(u - x)|^2 (du cancels in the quotient).

    The w sum is a discrete delta on the u grid, so the adjoint sum is
    f(x) * F(x) and the quotient f for every w-independent window (the
    canonical dual frame), when the grids are dual: signal.dual_ratio of
    each u axis, w axis and B is a whole number s (1 on the default grids,
    s on every s-th signal point).  Other w grids are refused (SpacingError)
    before a kernel is built.  The coefficients do not record the signal
    grid, so a u grid moved off the signal lattice, or the signal grid
    itself with an s >= 2, passes undetected.  Over the window's
    terms (window_terms) the adjoint sum is sum_rc (K1_r^H @ P @ conj(K2_rc),
    K1_r^H @ Q @ K2_rc) * e_c, with the K1_r^H @ P summed over C.tiles(), so
    C may be stored or unstored, each sum kept by column tile
    (coefficients._tile_partials); each block builds only its own columns of
    the K1_r^H (_k1_rows), from profiles floored once over their whole
    extent.  Each tile's sums are then contracted with that tile's columns
    of the adjoint K2_rc, and the results added into the output in tile
    order, so no sum is joined into whole rows.  The kernels are built on
    the adjoint phase matrices of _w_adjoints and the mu2 side is
    contracted by _right_contract, as in the analysis.  The two accumulated
    sums and one block of K1^H columns are the analysis's stacked terms in
    row order, refused beyond the memory limit by its rule
    (_refuse_stacked_terms, TooLarge) before a kernel is built.  F is the
    Gram form sum_rs G1_rs(x1) * G2_rs(x2) of the per-axis sums of the term
    products.  An x that no u reaches (F(x) <= eps * max F) is refused.
    """
    if C.window.w_dependent:
        raise AdmissibilityError(
            "reconstruction needs a window that does not depend on the frequency")
    g = C.ugrid
    for u, w, m in ((g.axis1, C.wgrid.axis1, C.m1), (g.axis2, C.wgrid.axis2, C.m2)):
        if dual_ratio(u, w, m.b) is None:
            raise SpacingError("the w grid is not dual to the u grid (signal.dual_ratio)")
    x1s, x2s = _points(g)
    p, q = _floored_terms(C.window, x1s[:, None, None] - x1s, 1.0,
                          x2s[:, None, None] - x2s, 1.0)  # no w dependence
    nw1, nw2 = C.wgrid.shape
    _refuse_stacked_terms(len(q), len(x1s), C.plane_shape[1], len(x1s), nw1)
    # real profiles: conj(K) is the kernel of conj(E), built with no copy
    e1h, e2h = _w_adjoints(C, g)

    def products():
        built = None  # the row block whose K1^H columns k1h holds
        for rows, cols, *planes in C.tiles():
            if rows != built:
                k1h, built = _k1_rows(p, e1h.T, rows, nw1).T, rows
            yield cols, (k1h @ plane for plane in planes)

    out = np.zeros(g.shape + (4,))
    for cols, sums in _tile_partials(products()):
        groups = slice(cols.start // nw2, cols.stop // nw2)
        for r, q_r in enumerate(q):
            a, b = (h[r * len(x1s):(r + 1) * len(x1s)] for h in sums)
            adj = symplectic_join(*_right_contract(
                a, b, _kernel(q_r[:, groups], e2h.T).T))
            for c, e in enumerate(np.eye(4)[:len(q_r)]):  # (x1, (c, x2)) columns
                out += qmul(adj[:, c * len(x2s):(c + 1) * len(x2s)], e)
    out *= C.wgrid.cell
    frame = np.einsum("rsx,rsy->xy", np.einsum("ruwx,suwx->rsx", p, p),
                      np.einsum("rcuwx,scuwx->rsx", q, q))
    if frame.min() <= np.finfo(float).eps * frame.max():
        raise Undersampled("the window reaches some x of the %d x %d grid from "
                           "no u: its frame sum vanishes there" % g.shape)
    return QSignal2D(out / frame[..., None], g)


def orthogonality_form(Cf, Cg):
    """Quaternion value of the double integral of Cf * conj(Cg) over (w, u),
    for two sources, stored or streamed, of the same grids, window and
    matrices, summed by column tile (coefficients._tile_sum).

    (a1 + b1 mu2) conj(a2 + b2 mu2) = (a1 a2* + b1 b2*) + (b1 a2 - a1 b2) mu2.
    Cg is Cf reads each tile of Cf once for both sides; two sources are
    zipped in the row order of a file (one group of tiles), so that their
    tiles line up.
    """
    if any(getattr(Cf, name) != getattr(Cg, name)
           for name in ("ugrid", "wgrid", "window", "m1", "m2")):
        raise GridMismatch("coefficient grids, window or matrices differ")
    whole = Cf._groups(whole=True)
    pairs = (((tile, tile) for tile in Cf.tiles()) if Cg is Cf
             else zip(Cf.tiles(whole), Cg.tiles(whole), strict=True))

    def form(cols, fs, gs):
        # flattened once: a stored set's tiles narrower than its rows are copied
        af, bf, ag, bg = (np.ravel(t) for t in (*fs, *gs))
        return cols, [np.array([np.vdot(ag, af) + np.vdot(bg, bf),
                                np.dot(bf, ag) - np.dot(af, bg)])]

    (first, second), = _tile_sum(form(cols, fs, gs)
                                 for (_, cols, *fs), (_, _, *gs) in pairs)
    return symplectic_join(first, second) * Cf.cell4


def energy_identity_gap(C, f):
    """Relative gap of the energy identity: integral |C|^2 vs lam * ||f||^2."""
    denom = lambda_psi(C.window) * f.energy()
    if denom == 0.0:
        raise ZeroSignal("energy identity undefined for the zero signal")
    return abs(C.energy() - denom) / denom


def marginal_qlct_gap(C, f):
    """Relative L2 gap between the u-marginal sum_u C(u, w) * du of the
    coefficients C of f, summed by column tile (coefficients._tile_sum),
    and the QLCT of f under C.m1, C.m2 onto C.wgrid by the direct oracle,
    which shares no code with the fast path (0 for the zero signal)."""
    nw1, nw2 = C.wgrid.shape
    marg = _tile_sum((cols, [np.einsum("abcd->bd", _split4(p, nw1, nw2))
                             for p in planes]) for _, cols, *planes in C.tiles())
    marg = symplectic_join(*marg) * C.ugrid.cell
    return relative_l2(marg, qlct_forward(f, C.m1, C.m2, C.wgrid).data)


def _streamed_rel_l2(want, got):
    """relative_l2, over the quaternion components, of the planes of the
    _analysis_tiles producer got against those of the producer want, one
    tile per group, accumulated one plane tile at a time, so that no
    coefficient set and no full-width mu2 factors are ever held, and of the
    K1 rows only each producer's one reused block.  Both producers are
    built on the same point counts and groups, so their tiles line up.
    Each tile gives, for each plane, two products into two reused tile
    buffers: the reference k @ a and the difference gk @ ga - k @ a.
    """
    num = denom = 0.0
    bufs = None
    for (_, _, k, *planes), (_, _, gk, *gots) in zip(want, got, strict=True):
        if bufs is None:  # the first tile of the first block is the largest
            bufs = np.empty((2, len(k) * planes[0].shape[1]), dtype=complex)
        for plane, other in zip(planes, gots):
            ref = _product(k, plane, bufs[0])
            diff = _product(gk, other, bufs[1])
            diff -= ref
            denom += np.vdot(ref, ref).real
            num += np.vdot(diff, diff).real
    return math.sqrt(num / denom if denom else num)


@dataclass
class CovarianceReport:
    parity: float
    shift: float
    modulation: float


def covariance_residuals(f, window, m1, m2, alpha=(1.0, 0.0), s=(1.0, 1.0)):
    """Relative L2 residuals of the parity, shift and modulation covariances,
    on the default grids of qlcst_analysis.

    Every side of every identity comes from one rule, side(g, u, w, t, phi,
    window): the _analysis_tiles producer of g under window at the points
    u and w, with the kernel matrices _phase_matrix(m, x points of g, t) *
    exp(i*phi(w)), the kernel at the frequencies t times the w-dependent
    phase factor exp(mu1*phi1) * . * exp(mu2*phi2) of the identity, which
    multiplies the mu1 kernel on the left and the mu2 kernel on the right.
    The shift identity's left side analyses f's own samples placed on the x
    grid moved by +alpha, which is T_alpha f exactly for any real alpha.  Its
    right side is checked in the derivation-consistent form, with the
    auxiliary signal built as the two-sided product
    exp(mu1 A1 t1 alpha1/B1) f exp(mu2 A2 t2 alpha2/B2), whose coefficients
    are evaluated directly at (u - alpha, w).  The modulation identity
    evaluates the kernel at (x, w - s*B), the frequency shift in the
    frequency slot, and the window at w.  Each check zips the producers of
    its two sides one column tile per group (_analysis_tiles,
    _streamed_rel_l2), which holds, besides one column tile's mu2 factors
    and one block of K1 rows of each, two tile products.
    """
    x = u = _points(f.grid)  # the default u grid is f's grid
    w = _points(fft_output_grid(f.grid, m1.b, m2.b))
    w1, w2 = w
    groups = [[t] for t in _col_tiles(len(u[1]), len(w2))]
    no_phase = (0.0, 0.0)

    def moved(t):
        """f's grid with the origin of each axis moved by t."""
        return Grid2D(*(Grid1D(ax.n, ax.origin + d, ax.spacing)
                        for ax, d in zip((f.grid.axis1, f.grid.axis2), t)))

    def side(g, u, w, t, phi, window):
        return _analysis_tiles(g, window, u, w, *(
            _phase_matrix(m, xs, ts) * np.exp(1j * np.reshape(ph, (-1, 1)))
            for m, xs, ts, ph in zip((m1, m2), _points(g.grid), t, phi)), groups)

    # Parity: transform of the reflected signal under the reflected window
    # equals the coefficients sampled at (-u, -w); on centered midpoint grids
    # negation reverses every index axis, which reverses both plane axes, so
    # f's side is produced at the reversed u and w points, with the kernel
    # rows of the reversed w.
    u_rev, w_rev = ([pts[::-1] for pts in v] for v in (u, w))
    f_ref = QSignal2D(f.data[::-1, ::-1].copy(), f.grid)
    parity = _streamed_rel_l2(side(f, u_rev, w_rev, w_rev, no_phase, window),
                              side(f_ref, u, w, w, no_phase, reflect(window)))

    # Shift covariance.  The window keeps its w; only its u - x argument
    # moves with the grid.
    f_tilde = sandwich_phase(f, m1.a * x[0] * alpha[0] / m1.b,
                             m2.a * x[1] * alpha[1] / m2.b)
    shift = _streamed_rel_l2(
        side(QSignal2D(f.data, moved(alpha)), u, w, w, no_phase, window),
        side(f_tilde, _points(moved([-d for d in alpha])), w, w,
             ((m1.a * alpha[0] ** 2 - 2.0 * alpha[0] * w1) / (2.0 * m1.b),
              (m2.a * alpha[1] ** 2 - 2.0 * alpha[1] * w2) / (2.0 * m2.b)), window))

    # Modulation covariance: the analysis of exp(mu1 s1 x1) f exp(mu2 s2 x2)
    # against that of f with the kernels at w - s*B.
    modulation = _streamed_rel_l2(
        side(sandwich_phase(f, s[0] * x[0], s[1] * x[1]), u, w, w, no_phase, window),
        side(f, u, w, (w1 - s[0] * m1.b, w2 - s[1] * m2.b),
             (m1.d / 2.0 * (2.0 * w1 * s[0] - m1.b * s[0] ** 2),
              m2.d / 2.0 * (2.0 * w2 * s[1] - m2.b * s[1] ** 2)), window))

    return CovarianceReport(parity, shift, modulation)


def special_case_matrix(kind, value=None):
    """Matrix pairs for the named special transforms.

    "fractional" (finite angle theta != n*pi), "fresnel" (finite B != 0),
    "stockwell".
    """
    if kind == "stockwell":
        m = validate_param(0.0, 1.0, -1.0, 0.0)
        return m, m
    if kind not in ("fractional", "fresnel"):
        raise BadParameter("unknown special case %r" % kind)
    try:  # a missing or non-numeric value
        v = float(value)
    except (TypeError, ValueError):
        v = math.nan
    if not math.isfinite(v):
        raise BadParameter("%s wants a finite number, got %r" % (kind, value))
    if kind == "fractional":
        if abs(math.sin(v)) <= 1e-12:
            raise DegenerateAngle("fractional angle must not be a multiple of pi")
        m = validate_param(math.cos(v), math.sin(v), -math.sin(v), math.cos(v))
    elif v == 0.0:
        raise BadParameter("Fresnel parameter B must be nonzero")
    else:
        m = validate_param(1.0, v, 0.0, 1.0)
    return m, m
