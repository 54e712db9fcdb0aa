"""Q-LCST coefficient sources: the tile protocol and the stored set.

Coefficients are the two mu1-complex planes of the symplectic split
C = a + b*mu2 (a = w + x*mu1, b = y + z*mu1, with the complex unit i standing
for mu1).  Each plane is one C-contiguous (nu1*nw1, nu2*nw2) matrix whose row
index is (u1, w1) and whose column index is (u2, w2), so the interleaved
(u1, u2, w1, w2, 4) array is a pure reordering of their bits.

A source has grids, window and matrices and one generator,
tile_factors(groups), which yields its planes as (rows, cols, k, a, b): the
plane entries [rows, cols] are k @ a and k @ b (a and b if k is None), for
the row blocks of _row_blocks (ROW_BLOCK u1 rows each) and the column tiles
of whole u2 groups of _col_tiles (at least TILE_COLS columns each).  groups
are those tiles grouped by the mu2 factors an analysis holds at once.  A
stored QLCSTCoefficients (views of its planes) and a QCF2 file
(io.open_coefficients, rows read into reused buffers) hold whole rows and
yield row order whatever the groups; the unstored analysis
(qlcst.qlcst_analysis) yields group by group, each group's row blocks in
row order.  One tile per group (_groups(), the default) holds one column
block of factors; one group of all tiles (_groups(whole=True)) holds whole
rows and yields the row order of a file, which the QCF2 writer and the
orthogonality form of two sources read.  tiles() yields the products
(rows, cols, a, b): views for a stored set or a file, the products in two
reused tile buffers for an analysis, valid only until the next tile.  So a
reduction holds no coefficient set the source does not hold already.

Every plane value of every source is one of those tile products, and an
analysis's mu2 factors are those of one tile on every path
(qlcst._mu2_tile), because a GEMM split by columns need not give the bits
of the whole product; so the tiles of any two sources on the same grids
have the same bits.  Every reduction sums by one rule (_tile_partials):
each column tile's terms, its row blocks in row order, into that tile's own
partial, then the partials in tile order, so it gives the same bits from
every source in every order.  Every source is made whole by one stored(),
which alone allocates planes, and is sliced by one slice_planes(), which
alone checks a slice index.  One rule (_refuse_beyond_memory) refuses the
planes, and the stacked window terms of the analysis and the synthesis,
beyond the smallest memory limit in force (_memory_limits).  This module
imports no operator code.
"""

import math
import operator
import os
import resource
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
# halves the tile buffers of tiles() and a file's read buffers against 4.
ROW_BLOCK = 2


def _row_blocks(nrows, nw1):
    """The plane-row slices of ROW_BLOCK u1 rows (nw1 plane rows each) that
    cover nrows plane rows, the last one clipped to the plane."""
    step = ROW_BLOCK * nw1
    return [slice(start, min(start + step, nrows))
            for start in range(0, nrows, step)]


# Plane columns per tile, at least, in every tile but a clipped last one.
# Block GEMMs keep their rate from 1024 columns on: 63-72 against 59-68 GF/s
# at N=64 (1024 columns against the whole 4096-column row), 68-70 against
# 67-69 at N=48 (1152 against 2304), while cutting N=32's 1024 columns to
# 512 dropped it from 52-57 to 46-47 GF/s (medians of 5, 2-core Xeon,
# OpenBLAS), so rows of N <= 32 stay one tile.
TILE_COLS = 1024


def _col_tiles(nu2, nw2):
    """The plane-column slices of whole u2 groups (nw2 columns each) that
    cover nu2*nw2 columns in max(1, nu2*nw2 // TILE_COLS) tiles or fewer,
    each of the same number of groups but the last, which is clipped to
    the plane: so every tile but the last has at least TILE_COLS columns."""
    ncols = nu2 * nw2
    step = -(-nu2 // max(1, ncols // TILE_COLS)) * nw2
    return [slice(start, min(start + step, ncols))
            for start in range(0, ncols, step)]


def _product(k, part, buf):
    """k @ part computed into the front of the flat buffer buf, as a
    C-contiguous matrix: the one block product of every tile."""
    return np.matmul(k, part, out=buf[:len(k) * part.shape[1]].reshape(len(k), -1))


def _split4(tile, nw1, nw2):
    """The (u1, w1, u2, w2) view of a tile of plane rows and columns."""
    return tile.reshape(-1, nw1, tile.shape[1] // nw2, nw2)


def _tile_partials(items):
    """[(cols, partials)] in tile order, by the one summation rule of every
    reduction: for each (cols, terms) of items, each term added into its
    column tile's own partial, a tile's items in the order they come, which
    is row order from every source whatever the order of its tiles.  The
    first terms of a tile, new arrays, become its partials; later ones are
    taken one at a time and added in place, so one is held at a time."""
    partials = {}
    for cols, terms in items:
        if cols.start in partials:
            terms = iter(terms)
            for acc in partials[cols.start][1]:
                acc += next(terms)
        else:
            partials[cols.start] = cols, list(terms)
    return [partials[start] for start in sorted(partials)]


def _tile_sum(items):
    """The sum of each term of items (_tile_partials): the partials of the
    tiles added in tile order."""
    return [sum(terms) for terms in zip(*(p for _, p in _tile_partials(items)))]


# Where this process's cgroups are listed and where their files are mounted.
_CGROUP_TABLE = "/proc/self/cgroup"
_CGROUP_MOUNT = "/sys/fs/cgroup"


def _physical_memory():
    """Bytes of physical memory of the machine."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def _cgroup_files():
    """The memory limit files of this process's cgroups, as _CGROUP_TABLE
    lists them: memory.max of its v2 group and memory.limit_in_bytes of its
    v1 memory group (none if the table is unreadable)."""
    try:
        with open(_CGROUP_TABLE) as fh:
            entries = [line.rstrip("\n").split(":", 2) for line in fh]
    except OSError:
        return []
    files = []
    for _, controllers, group in (e for e in entries if len(e) == 3):
        if not controllers:
            files.append(_CGROUP_MOUNT + group.rstrip("/") + "/memory.max")
        elif "memory" in controllers.split(","):
            files.append(_CGROUP_MOUNT + "/memory" + group.rstrip("/")
                         + "/memory.limit_in_bytes")
    return files


def _memory_limits():
    """(name, bytes) of every memory limit in force, all only read:
    physical memory, the soft RLIMIT_AS and the cgroup limits
    (_cgroup_files).  A limit that is unlimited (RLIM_INFINITY, "max") or
    unreadable is left out."""
    limits = [("physical memory", _physical_memory())]
    soft = resource.getrlimit(resource.RLIMIT_AS)[0]
    if soft != resource.RLIM_INFINITY:
        limits.append(("the address-space limit (RLIMIT_AS)", soft))
    for path in _cgroup_files():
        try:
            with open(path) as fh:
                limits.append(("the cgroup limit (%s)" % os.path.basename(path),
                               int(fh.read())))
        except (OSError, ValueError):  # unreadable, or "max"
            pass
    return limits


def _refuse_beyond_memory(what, ncomplex):
    """Raise TooLarge when ncomplex complex values of `what` exceed the
    smallest memory limit in force (_memory_limits), named in the message:
    the one memory rule, applied before the values are allocated."""
    need = ncomplex * np.dtype(complex).itemsize
    name, have = min(_memory_limits(), key=lambda limit: limit[1])
    if need > have:
        raise TooLarge("%s of %.3g GB do not fit in the %.3g GB of %s"
                       % (what, need / 1e9, have / 1e9, name))


class _Source:
    """Grids, window, matrices and tile_factors() of coefficients, stored or
    not; the reductions over tiles() are computed once per object."""

    _density = None

    @property
    def plane_shape(self):
        """(nu1*nw1, nu2*nw2), the shape of each plane."""
        return (self.ugrid.axis1.n * self.wgrid.axis1.n,
                self.ugrid.axis2.n * self.wgrid.axis2.n)

    @property
    def cell4(self):
        return self.ugrid.cell * self.wgrid.cell

    def _groups(self, whole=False):
        """The column tiles of the planes (_col_tiles), grouped by the mu2
        factors an analysis holds at once: one tile per group, or, whole,
        all tiles in one group, which yields the row order of a file."""
        tiles = _col_tiles(self.ugrid.axis2.n, self.wgrid.axis2.n)
        return [tiles] if whole else [[t] for t in tiles]

    def tiles(self, groups=None):
        """Yield (rows, cols, a, b) for each tile of tile_factors(groups),
        one tile per group by default: the plane entries [rows, cols], as
        views, or k @ a and k @ b in two tile buffers allocated once per
        pass, valid only until the next tile."""
        bufs = None
        for rows, cols, k, *parts in self.tile_factors(groups or self._groups()):
            if k is not None:  # the first tile of the first block is the largest
                if bufs is None:
                    bufs = np.empty((2, len(k) * parts[0].shape[1]), dtype=complex)
                parts = [_product(k, p, buf) for p, buf in zip(parts, bufs)]
            yield (rows, cols, *parts)

    def density(self):
        """u-integrated squared modulus S[w1, w2] = sum_u |C(u, w)|^2, summed
        by column tile (_tile_sum), computed on the first call and returned
        read-only from then on."""
        if self._density is None:
            nw1, nw2 = self.wgrid.shape
            parts = ((cols, _split4(plane, nw1, nw2).view(float))
                     for _, cols, *planes in self.tiles() for plane in planes)
            acc, = _tile_sum((cols, [np.einsum("abcd,abcd->bd", part, part)])
                             for cols, part in parts)
            self._density = acc.reshape(nw1, nw2, 2).sum(axis=-1)
            self._density.flags.writeable = False
        return self._density

    def energy(self):
        return float(np.sum(self.density()) * self.cell4)

    def stored(self):
        """The coefficients as QLCSTCoefficients, the planes filled in place
        tile by tile from tile_factors(), one tile per group: the one
        allocation of planes.  Planes beyond the memory limit are refused
        before anything is allocated."""
        _refuse_beyond_memory("coefficient planes", 2 * math.prod(self.plane_shape))
        planes = [np.empty(self.plane_shape, dtype=complex) for _ in range(2)]
        for rows, cols, k, *parts in self.tile_factors(self._groups()):
            for plane, part in zip(planes, parts):
                if k is None:
                    plane[rows, cols] = part
                else:  # the products of tiles(), bit for bit
                    np.matmul(k, part, out=plane[rows, cols])
        return QLCSTCoefficients(*planes, self.ugrid, self.wgrid, self.window,
                                 self.m1, self.m2)

    def slice_planes(self, fixed, index):
        """The complex planes (a, b) of a 2D slice of the coefficients, the
        one reader of slices and the one check of their index.

        fixed = "u": freeze the position index pair, return (w1, w2) arrays.
        fixed = "w": freeze the frequency index pair, return (u1, u2) arrays.
        Every block is read, so a file checks every value, and only the slice
        is kept; a u slice reads the one column tile that holds its u2 group
        (tile_factors of that tile alone, so an analysis computes the mu2
        factors of that tile only) and computes, of the one block that holds
        its u1 row, that row's product.
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
        nw1, nw2 = self.wgrid.shape
        out = np.empty((2,) + kept.shape, dtype=complex)
        if fixed == "w":
            for rows, cols, *planes in self.tiles():
                a4, b4 = (_split4(p, nw1, nw2) for p in planes)
                out[:, rows.start // nw1:rows.stop // nw1,
                    cols.start // nw2:cols.stop // nw2] = a4[:, i, :, j], b4[:, i, :, j]
            return out
        group = next(g for g in self._groups() if j * nw2 < g[0].stop)
        for rows, cols, k, *planes in self.tile_factors([group]):
            first = rows.start // nw1  # the block's first u1 row
            if first <= i < rows.stop // nw1:
                u1 = slice((i - first) * nw1, (i - first + 1) * nw1)
                out[:] = [_split4(p[u1] if k is None else k[u1] @ p,
                                  nw1, nw2)[0, :, j - cols.start // nw2]
                          for p in planes]
        return out


@dataclass
class QLCSTCoefficients(_Source):
    """Coefficients C(u, w) as the symplectic planes a, b with the grids,
    window and matrices that produced them.  Each plane is a
    (nu1*nw1, nu2*nw2) matrix in (u1, w1, u2, w2) order; `data` builds the
    interleaved (u1, u2, w1, w2, 4) array.  tile_factors() yields views of
    the planes' tiles, row blocks outer.  The planes are read-only once
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

    def tile_factors(self, groups):
        for rows in _row_blocks(len(self.a), self.wgrid.axis1.n):
            for cols in sum(groups, []):
                yield rows, cols, None, self.a[rows, cols], self.b[rows, cols]

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
