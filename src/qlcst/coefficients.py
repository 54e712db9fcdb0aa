"""Q-LCST coefficient sources: the block protocol and the stored set.

Coefficients are the two mu1-complex planes of the symplectic split
C = a + b*mu2 (a = w + x*mu1, b = y + z*mu1, with the complex unit i standing
for mu1).  Each plane is one C-contiguous (nu1*nw1, nu2*nw2) matrix whose row
index is (u1, w1) and whose column index is (u2, w2), so the interleaved
(u1, u2, w1, w2, 4) array is a pure reordering of their bits.

A source has grids, window and matrices and yields its planes from
blocks() as (rows, k, a, b): the plane rows `rows` are k @ a and k @ b (a and
b if k is None), which rows() yields as (rows, a, b), valid only until the
next block.  Every source yields the row blocks of _row_blocks, ROW_BLOCK u1
rows at a time: a stored QLCSTCoefficients as views of its planes, the
unstored analysis (qlcst.qlcst_analysis) as block products and a QCF2 file
(io.open_coefficients) as rows read into reused buffers.  So a reduction over
rows() holds no coefficient set the source does not hold already, the blocks
of any two sources on the same grids line up, and every block-summed
reduction gives the same bits from any source.  The QCF2 writer
(io.write_coefficients) reads blocks() itself and computes an analysis one
u1 row at a time, the rows of a block product bit for bit.  Every source is
made whole by one stored(), which alone allocates planes, and is sliced by
one slice_planes(), which alone checks a slice index.  One rule
(_refuse_beyond_memory) refuses the planes, and the stacked window terms of
the analysis and the synthesis, beyond physical memory.  This module imports
no operator code.
"""

import math
import operator
import os
from dataclasses import dataclass

import numpy as np

from .errors import BadParameter, GridMismatch, TooLarge
from .lct import ParamMatrix
from .quaternion import symplectic_join
from .signal import Grid2D
from .window import WindowSpec

# u1 rows per block of every source.  The block GEMMs of one plane give the
# bits of one whole-plane GEMM and took 5.9/5.4/5.0/4.4 ms at N=32,
# 30.5/27.6/27.3/27.2 ms at N=48 and 108/98/96/90 ms at N=64 in
# 1-row/2-row/4-row/whole blocks (medians of 25, interleaved, 2-core Xeon,
# OpenBLAS); 2 rows is the smallest block that keeps the GEMM rate, and it
# halves the two buffers of rows() and a file's read buffers against 4.
ROW_BLOCK = 2


def _row_blocks(nrows, nw1):
    """The plane-row slices of ROW_BLOCK u1 rows (nw1 plane rows each) that
    cover nrows plane rows, the last one clipped to the plane."""
    step = ROW_BLOCK * nw1
    return [slice(start, min(start + step, nrows))
            for start in range(0, nrows, step)]


def _physical_memory():
    """Bytes of physical memory of the machine."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def _refuse_beyond_memory(what, ncomplex):
    """Raise TooLarge when ncomplex complex values of `what` exceed physical
    memory: the one memory rule, applied before the values are allocated."""
    need = ncomplex * np.dtype(complex).itemsize
    have = _physical_memory()
    if need > have:
        raise TooLarge("%s of %.3g GB do not fit in the %.3g GB of physical memory"
                       % (what, need / 1e9, have / 1e9))


class _Source:
    """Grids, window, matrices and blocks() of coefficients, stored or not;
    the reductions over rows() are computed once per object."""

    _density = None

    @property
    def plane_shape(self):
        """(nu1*nw1, nu2*nw2), the shape of each plane."""
        return (self.ugrid.axis1.n * self.wgrid.axis1.n,
                self.ugrid.axis2.n * self.wgrid.axis2.n)

    @property
    def cell4(self):
        return self.ugrid.cell * self.wgrid.cell

    def rows(self):
        """Yield (rows, a, b) for each block, k @ a and k @ b computed into two
        buffers allocated once per pass: valid only until the next block."""
        bufs = None
        for rows, k, *planes in self.blocks():
            if k is not None:  # the first block is the largest
                bufs = bufs or [np.empty((len(k), p.shape[1]), dtype=complex)
                                for p in planes]
                planes = [np.matmul(k, p, out=buf[:len(k)])
                          for p, buf in zip(planes, bufs)]
            yield (rows, *planes)

    def density(self):
        """u-integrated squared modulus S[w1, w2] = sum_u |C(u, w)|^2,
        computed on the first call and returned read-only from then on."""
        if self._density is None:
            nw1, nw2 = self.wgrid.shape
            acc = np.zeros((nw1, 2 * nw2))
            for _, *planes in self.rows():
                for plane in planes:
                    parts = plane.view(float).reshape(
                        -1, nw1, self.ugrid.axis2.n, 2 * nw2)
                    acc += np.einsum("abcd,abcd->bd", parts, parts)
            self._density = acc.reshape(nw1, nw2, 2).sum(axis=-1)
            self._density.flags.writeable = False
        return self._density

    def energy(self):
        return float(np.sum(self.density()) * self.cell4)

    def stored(self):
        """The coefficients as QLCSTCoefficients, the planes filled in place
        from blocks(): the one allocation of planes.  Planes larger than
        physical memory are refused before anything is allocated."""
        _refuse_beyond_memory("coefficient planes", 2 * math.prod(self.plane_shape))
        planes = [np.empty(self.plane_shape, dtype=complex) for _ in range(2)]
        for rows, k, *parts in self.blocks():
            for plane, part in zip(planes, parts):
                if k is None:
                    plane[rows] = part
                else:
                    np.matmul(k, part, out=plane[rows])
        return QLCSTCoefficients(*planes, self.ugrid, self.wgrid, self.window,
                                 self.m1, self.m2)

    def slice_planes(self, fixed, index):
        """The complex planes (a, b) of a 2D slice of the coefficients, the
        one reader of slices and the one check of their index.

        fixed = "u": freeze the position index pair, return (w1, w2) arrays.
        fixed = "w": freeze the frequency index pair, return (u1, u2) arrays.
        Every block is read, so a file checks every value, and only the slice
        is kept; a u slice computes the product of the one block that holds
        its u1 row.
        """
        if fixed not in ("u", "w"):
            raise BadParameter("fixed must be 'u' or 'w', got %r" % (fixed,))
        try:
            i, j = (operator.index(k) for k in index)
        except (TypeError, ValueError):
            raise BadParameter("index must be two integers i,j, got %r"
                               % (index,)) from None
        frozen, kept = ((self.ugrid, self.wgrid) if fixed == "u"
                        else (self.wgrid, self.ugrid))
        for k, n in zip((i, j), frozen.shape):
            if not 0 <= k < n:
                raise BadParameter("%s index %d is outside [0, %d)" % (fixed, k, n))
        (_, nu2), (nw1, nw2) = self.ugrid.shape, self.wgrid.shape
        out = np.empty((2,) + kept.shape, dtype=complex)
        if fixed == "w":
            for rows, *planes in self.rows():
                a4, b4 = (p.reshape(-1, nw1, nu2, nw2) for p in planes)
                out[:, rows.start // nw1:rows.stop // nw1] = (a4[:, i, :, j],
                                                              b4[:, i, :, j])
            return out
        for rows, k, *planes in self.blocks():
            first = rows.start // nw1  # the block's first u1 row
            if first <= i < rows.stop // nw1:
                a4, b4 = ((p if k is None else k @ p).reshape(-1, nw1, nu2, nw2)
                          for p in planes)
                out[:] = a4[i - first, :, j], b4[i - first, :, j]
        return out


@dataclass
class QLCSTCoefficients(_Source):
    """Coefficients C(u, w) as the symplectic planes a, b with the grids,
    window and matrices that produced them.  Each plane is a
    (nu1*nw1, nu2*nw2) matrix in (u1, w1, u2, w2) order; `data` builds the
    interleaved (u1, u2, w1, w2, 4) array.  blocks() yields views of the
    planes in the row blocks of _row_blocks, as every source does.  The
    planes are read-only once constructed (also the arrays passed in, where
    they needed no copy)."""

    a: np.ndarray
    b: np.ndarray
    ugrid: Grid2D
    wgrid: Grid2D
    window: WindowSpec
    m1: ParamMatrix
    m2: ParamMatrix

    def __post_init__(self):
        want = self.plane_shape
        self.a = np.ascontiguousarray(self.a, dtype=complex)
        self.b = np.ascontiguousarray(self.b, dtype=complex)
        if self.a.shape != want or self.b.shape != want:
            raise GridMismatch("coefficient planes %r, %r do not match grids %r"
                               % (self.a.shape, self.b.shape, want))
        # Read-only, so the cached density can never go stale.
        self.a.flags.writeable = False
        self.b.flags.writeable = False

    def blocks(self):
        for rows in _row_blocks(len(self.a), self.wgrid.axis1.n):
            yield rows, None, self.a[rows], self.b[rows]

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
