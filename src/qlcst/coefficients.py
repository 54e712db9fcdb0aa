"""Q-LCST coefficient sources: the block protocol and the stored set.

Coefficients are the two mu1-complex planes of the symplectic split
C = a + b*mu2 (a = w + x*mu1, b = y + z*mu1, with the complex unit i standing
for mu1).  Each plane is one C-contiguous (nu1*nw1, nu2*nw2) matrix whose row
index is (u1, w1) and whose column index is (u2, w2), so the interleaved
(u1, u2, w1, w2, 4) array is a pure reordering of their bits.

A source has grids, window and matrices and yields its planes from
blocks() as (rows, k, a, b): the plane rows `rows` are k @ a and k @ b (a and
b if k is None), which rows() yields as (rows, a, b), valid only until the
next block.  A stored QLCSTCoefficients yields its planes as one block; the
unstored analysis (qlcst.qlcst_analysis) and a QCF2 file
(io.open_coefficients) yield ROW_BLOCK u1 rows at a time, so a reduction over
rows() never holds a coefficient set.  This module imports no operator code.
"""

from dataclasses import dataclass

import numpy as np

from .errors import GridMismatch
from .lct import ParamMatrix
from .quaternion import symplectic_join
from .signal import Grid2D
from .window import WindowSpec

# u1 rows per block of the analysis and of a file read.  The block GEMMs of
# one plane give the bits of one whole-plane GEMM and took 5.2/5.7/6.2 ms at
# N=32, 36/37/37 ms at N=48 and 115/123/116 ms at N=64 in 4-row/8-row/whole
# blocks (medians of 25, 2-core Xeon, OpenBLAS); at 4 rows the two buffers
# of rows() take what one fresh 8-row product took.
ROW_BLOCK = 4


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
        yield slice(0, len(self.a)), None, self.a, self.b

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
