"""Q1 finite element testbed on the unit square.

Discretizes -div(sigma grad u) = 0 with u = 1 on the left edge, u = -1
on the right edge and natural boundary conditions top and bottom, on a
uniform quadrilateral mesh. The conductivity sigma is piecewise
constant per element and driven by a channel geometry: three horizontal
high-conductivity channels, two boundary blocks, and six ports that
connect channel ends to the blocks. Opening and closing ports between
consecutive solves produces the locally modified system sequences the
solvers operate on.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .linalg import SparseSymMatrix

# Reference stiffness of the bilinear element on a square cell with unit
# conductivity, node order (SW, SE, NE, NW). Scale invariant in 2D.
K_REF = np.array(
    [
        [4.0, -1.0, -2.0, -1.0],
        [-1.0, 4.0, -1.0, -2.0],
        [-2.0, -1.0, 4.0, -1.0],
        [-1.0, -2.0, -1.0, 4.0],
    ]
) / 6.0


@dataclass(frozen=True)
class Grid:
    """Uniform m x m element grid on the unit square.

    Nodes are indexed (i, j) with node id j * (m + 1) + i; elements are
    indexed (ex, ey) with element id ey * m + ex. Nodes on the left and
    right edges (i = 0 and i = m) carry Dirichlet data, the rest are
    free, with free index j * (m - 1) + (i - 1).
    """

    m: int

    def __post_init__(self):
        if self.m < 2:
            raise ValueError("grid needs at least 2 elements per side")

    @property
    def h(self):
        return 1.0 / self.m

    @property
    def n_nodes(self):
        return (self.m + 1) ** 2

    @property
    def n_elements(self):
        return self.m * self.m

    @property
    def n_free(self):
        return (self.m - 1) * (self.m + 1)

    def free_index(self, i, j):
        """Free index of nodes (i, j); callers must keep 1 <= i <= m - 1."""
        return np.asarray(j) * (self.m - 1) + (np.asarray(i) - 1)

    def element_id(self, ex, ey):
        return np.asarray(ey) * self.m + np.asarray(ex)

    def element_xy(self, e):
        e = np.asarray(e)
        return e % self.m, e // self.m

    def element_centers(self):
        """Center coordinate arrays (cx, cy), each shaped (m, m) as [ey, ex]."""
        c = (np.arange(self.m) + 0.5) * self.h
        return np.meshgrid(c, c)

    @cached_property
    def assembly_plan(self):
        """The sparsity and summation order ``assemble`` gives every system
        on this grid, built once per grid object.

        Returns ``(order, starts, n_ff, pattern, coupling, free,
        dirichlet, g)``. ``order`` takes the element matrix entries of
        free rows, flattened by element, stably sorted by (block, row,
        column), so each (row, column) sum runs in element order and
        entries (i, j) and (j, i) are bitwise equal; sum s runs from
        ``starts[s]`` to ``starts[s + 1]``. Block 0, the first ``n_ff``
        sums, is ``A`` row by row, block 1 the free-Dirichlet coupling
        ``C``; their read-only int32 ``(indices, indptr)`` are ``pattern``
        and ``coupling``. So sum s is entry s of ``A``'s data for s below
        ``n_ff``, and entry ``s - n_ff`` of ``C``'s data after.
        """
        ii = np.arange(self.n_nodes) % (self.m + 1)
        is_free = (ii >= 1) & (ii <= self.m - 1)
        free, diri = np.flatnonzero(is_free), np.flatnonzero(~is_free)
        n = len(free)
        local = np.empty(self.n_nodes, dtype=np.int64)  # row of A, or column of C
        local[free], local[diri] = np.arange(n), np.arange(len(diri))
        enodes = _element_nodes(self, np.arange(self.n_elements))
        d, loc = ~is_free[enodes], local[enodes]
        # block 0: free-free, 1: free-Dirichlet, 2: Dirichlet rows, cut off after the sort
        block = np.maximum(2 * d[:, :, None], d[:, None, :])
        key = ((block * n + loc[:, :, None]) * self.n_nodes + loc[:, None, :]).ravel()
        order = np.argsort(key, kind="stable")[: np.count_nonzero(block < 2)]
        key = key[order]
        starts = np.flatnonzero(np.r_[True, np.diff(key) != 0, True])
        r, c = np.divmod(key[starts[:-1]], self.n_nodes)
        c, ptr = c.astype(np.int32), np.searchsorted(r, np.arange(2 * n + 1)).astype(np.int32)
        n_ff = int(ptr[n])
        pattern, coupling = (c[:n_ff], ptr[: n + 1]), (c[n_ff:], ptr[n:] - n_ff)
        g = np.where(ii[diri] == 0, 1.0, -1.0)
        for a in (*pattern, *coupling, free, diri, g):
            a.flags.writeable = False
        return order.astype(np.int32), starts.astype(np.int32), n_ff, pattern, coupling, free, diri, g


def _closed_intersects(a, b):
    return a[0] <= b[1] and b[0] <= a[1] and a[2] <= b[3] and b[2] <= a[3]


@dataclass(frozen=True)
class ChannelGeometry:
    """Channel/block/port layout of the conductivity field.

    All rectangles are half open, [xlo, xhi) x [ylo, yhi), and sampled
    at element centers. Channels are horizontal strips of ``channel_height``
    centered at ``channel_centers``; the boundary blocks span [0, x_left)
    and [x_right, 1) over ``block_y``. Port p (1-based) bridges channel
    ((p - 1) mod n_channels) to the left block for p <= n_channels and
    to the right block otherwise, occupying the x-gap of ``port_length``
    between block edge and channel end.
    """

    sigma_low: float = 1.0
    sigma_high: float = 1.0e5 + 1.0
    channel_centers: tuple = (0.52, 0.50, 0.48)
    channel_height: float = 0.01
    x_left: float = 0.105
    x_right: float = 0.892
    block_y: tuple = (0.3, 0.7)
    port_length: float = 0.01

    def __post_init__(self):
        self.validate()

    @property
    def n_channels(self):
        return len(self.channel_centers)

    @property
    def n_ports(self):
        return 2 * self.n_channels

    def channel_strip(self, c):
        return (c - 0.5 * self.channel_height, c + 0.5 * self.channel_height)

    def channel_rects(self):
        x0 = self.x_left + self.port_length
        x1 = self.x_right - self.port_length
        return [(x0, x1) + self.channel_strip(c) for c in self.channel_centers]

    def block_rects(self):
        ylo, yhi = self.block_y
        if ylo >= yhi:
            return []
        return [(0.0, self.x_left, ylo, yhi), (self.x_right, 1.0, ylo, yhi)]

    def port_rect(self, p):
        nc = self.n_channels
        if not 1 <= p <= 2 * nc:
            raise ValueError(f"port index {p} out of range 1..{2 * nc}")
        strip = self.channel_strip(self.channel_centers[(p - 1) % nc])
        if p <= nc:
            return (self.x_left, self.x_left + self.port_length) + strip
        return (self.x_right - self.port_length, self.x_right) + strip

    def validate(self):
        if self.sigma_low <= 0 or self.sigma_high <= 0:
            raise ValueError("conductivities must be positive")
        if self.n_channels == 0:
            return self
        if self.channel_height <= 0 or self.port_length <= 0:
            raise ValueError("channel height and port length must be positive")
        if not 0 < self.x_left < self.x_right < 1:
            raise ValueError("block edges must satisfy 0 < x_left < x_right < 1")
        if self.x_left + self.port_length > self.x_right - self.port_length:
            raise ValueError("ports leave no room for channels")
        centers = sorted(self.channel_centers)
        for a, b in zip(centers, centers[1:]):
            if b - a < self.channel_height:
                raise ValueError("channels must be pairwise disjoint")
        rects = self.channel_rects() + self.block_rects() + [self.port_rect(p) for p in range(1, self.n_ports + 1)]
        for r in rects:
            if not (0 <= r[0] <= r[1] <= 1 and 0 <= r[2] <= r[3] <= 1):
                raise ValueError(f"rectangle {r} leaves the unit square")
        # each port must bridge exactly its channel and one block
        # (touching edges count: the half-open rectangles tile exactly)
        channels = self.channel_rects()
        blocks = self.block_rects()
        for p in range(1, self.n_ports + 1):
            pr = self.port_rect(p)
            if sum(_closed_intersects(pr, c) for c in channels) != 1:
                raise ValueError(f"port {p} does not meet exactly one channel")
            if sum(_closed_intersects(pr, b) for b in blocks) != 1:
                raise ValueError(f"port {p} does not meet exactly one boundary block")
        return self

    @classmethod
    def empty(cls, sigma_low=1.0):
        """Geometry with no channels, blocks, or ports: constant sigma."""
        return cls(sigma_low=sigma_low, channel_centers=(), block_y=(0.0, 0.0))


@dataclass(frozen=True)
class ModificationSchedule:
    """Open-port sets per step of the solve sequence."""

    open_ports: tuple

    def __post_init__(self):
        object.__setattr__(self, "open_ports", tuple(frozenset(s) for s in self.open_ports))

    def __len__(self):
        return len(self.open_ports)

    def __iter__(self):
        return iter(self.open_ports)

    def validate(self, geometry):
        for k, ports in enumerate(self.open_ports, start=1):
            bad = [p for p in ports if not 1 <= p <= geometry.n_ports]
            if bad:
                raise ValueError(f"step {k} opens invalid ports {sorted(bad)}")
        return self


DEFAULT_SCHEDULE = ModificationSchedule(({2, 5}, {5}, frozenset(), {1}, {1, 5}))


@dataclass(frozen=True)
class CoefficientField:
    """Element-wise conductivity values, shaped (m, m) as [ey, ex]."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.shape != (self.grid.m, self.grid.m):
            raise ValueError(f"values shape {v.shape} does not match grid {self.grid.m}")
        if not (np.isfinite(v) & (v > 0)).all():
            raise ValueError("invalid coefficient: conductivity values must be positive and finite")
        object.__setattr__(self, "values", v)


def build_coefficient(grid, geometry, open_ports=()):
    """Sample the geometry with the given open ports at element centers."""
    bad = [p for p in open_ports if not 1 <= p <= geometry.n_ports]
    if bad:
        raise ValueError(f"invalid ports {sorted(bad)}")
    cx, cy = grid.element_centers()
    mask = np.zeros((grid.m, grid.m), dtype=bool)
    rects = geometry.channel_rects() + geometry.block_rects()
    rects += [geometry.port_rect(p) for p in sorted(set(open_ports))]
    for xlo, xhi, ylo, yhi in rects:
        mask |= (cx >= xlo) & (cx < xhi) & (cy >= ylo) & (cy < yhi)
    values = np.where(mask, geometry.sigma_high, geometry.sigma_low)
    return CoefficientField(grid, values)


def schedule_fields(grid, geometry, schedule):
    """Coefficient fields along a schedule with their change sets.

    Returns one (field, changed_elements) pair per step; changed
    elements are the ids whose sigma differs from the previous step
    (step 1 compares against the all-ports-closed base field).
    """
    schedule.validate(geometry)
    out = []
    prev = build_coefficient(grid, geometry, ())
    for ports in schedule:
        cur = build_coefficient(grid, geometry, ports)
        changed = np.flatnonzero(cur.values.ravel() != prev.values.ravel())
        out.append((cur, changed))
        prev = cur
    return out


@dataclass
class LinearSystem:
    """Assembled SPD system over the free nodes with Dirichlet lift."""

    grid: Grid
    A: SparseSymMatrix
    f: np.ndarray
    free_nodes: np.ndarray  # grid node ids, ascending
    dirichlet_nodes: np.ndarray
    dirichlet_values: np.ndarray
    coupling: sp.csr_matrix  # C, free rows by Dirichlet columns: f = -C g

    @property
    def n(self):
        return self.A.n

    def reconstruct(self, x):
        """Re-insert Dirichlet values, giving the full nodal vector."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.n,):
            raise ValueError(f"free vector length {x.shape} does not match {self.n}")
        full = np.empty(self.grid.n_nodes)
        full[self.free_nodes] = x
        full[self.dirichlet_nodes] = self.dirichlet_values
        return full


def _element_nodes(grid, e):
    """Node ids (SW, SE, NE, NW) per element, shaped (len(e), 4)."""
    ex, ey = grid.element_xy(np.asarray(e, dtype=np.int64))
    sw = ey * (grid.m + 1) + ex
    return np.stack([sw, sw + 1, sw + grid.m + 2, sw + grid.m + 1], axis=-1)


def assemble(grid, coefficient, previous=None):
    """Assemble stiffness and Dirichlet-lifted load over the free nodes.

    ``previous``, a ``(system, coefficient)`` pair assembled on this grid,
    sets the system up in proportion to the change: only the sums that
    an element whose conductivity differs adds to are summed again, in
    the plan's order, and the others are copied from ``system``. The
    result is bitwise that of assembling afresh.
    """
    if coefficient.grid != grid:
        raise ValueError("coefficient field belongs to a different grid")
    order, starts, n_ff, pattern, coupling, free, diri, g = grid.assembly_plan
    if previous is None:
        vals = coefficient.values.reshape(-1, 1) * K_REF.ravel()
        data = np.add.reduceat(vals.ravel()[order], starts[:-1])
        a, c = data[:n_ff], data[n_ff:]
    else:
        system, before = previous
        if system.grid != grid or before.grid != grid:
            raise ValueError("previous system belongs to a different grid")
        s = _sums_of(grid, np.flatnonzero(coefficient.values.ravel() != before.values.ravel()))
        u, v = starts[s], starts[s + 1]
        entry = order[_ranges(u, v)]  # element * 16 + position in K_REF
        vals = coefficient.values.ravel()[entry // 16] * K_REF.ravel()[entry % 16]
        sums = np.add.reduceat(vals, np.cumsum(v - u) - (v - u))
        a, c = system.A.to_scipy().data.copy(), system.coupling.data.copy()
        k = np.searchsorted(s, n_ff)
        a[s[:k]], c[s[k:] - n_ff] = sums[:k], sums[k:]
    n = len(free)
    A = SparseSymMatrix(sp.csr_matrix((a, *pattern), shape=(n, n)))
    C = sp.csr_matrix((c, *coupling), shape=(n, len(diri)))
    return LinearSystem(grid, A, -(C @ g), free, diri, g, C)


def _ranges(lo, hi):
    """The concatenation of ``arange(lo[k], hi[k])`` over k."""
    size = hi - lo
    return np.repeat(lo - np.cumsum(size) + size, size) + np.arange(size.sum())


def _sums_of(grid, elements):
    """The sums of ``grid.assembly_plan`` that the matrices of ``elements`` add to, ascending.

    Each is found by its row and column in ``A`` or ``C``, through their
    patterns: the plan keeps no map from elements to sums.
    """
    _, _, n_ff, pattern, coupling, *_ = grid.assembly_plan
    enodes = _element_nodes(grid, elements)
    i, j = enodes % (grid.m + 1), enodes // (grid.m + 1)
    d = (i == 0) | (i == grid.m)
    loc = np.where(d, 2 * j + (i == grid.m), grid.free_index(i, j))  # row of A, or column of C
    rows, cols = np.broadcast_arrays(loc[:, :, None], loc[:, None, :])
    dr, dc = np.broadcast_arrays(d[:, :, None], d[:, None, :])
    ff, fd = ~(dr | dc), ~dr & dc
    return np.unique(np.r_[_positions(pattern, rows[ff], cols[ff]), n_ff + _positions(coupling, rows[fd], cols[fd])])


def _positions(pattern, rows, cols):
    """Positions of the entries (rows, cols) in a CSR ``(indices, indptr)`` with sorted rows.

    Only the rows asked for are searched; every entry must be in the pattern.
    """
    indices, indptr = pattern
    r = np.unique(rows)
    at = _ranges(indptr[r], indptr[r + 1])
    key = np.repeat(r, indptr[r + 1] - indptr[r]).astype(np.int64) << 32 | indices[at]
    return at[np.searchsorted(key, rows.astype(np.int64) << 32 | cols)]


@dataclass(frozen=True)
class NeumannPlan:
    """The pattern ``assemble_local_neumann`` gives an element subset.

    ``at`` holds the CSR position of every entry of the per-element
    flattened ``sigma_e K_REF``, one past the last for an entry of a
    dropped Dirichlet node; ``indices`` and ``indptr`` are the CSR
    pattern, ``digest`` its ``_pattern_digest``, and ``free`` the
    free-node index of each row, ascending.
    """

    elements: np.ndarray
    at: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray
    digest: bytes
    free: np.ndarray


def _pattern_digest(indices, indptr):
    """blake2b digest of the square CSR pattern ``(indices, indptr)`` of float64 values.

    Equal for equal patterns only, shape and index types included, so a
    matrix's values hashed after it identify the matrix byte for byte.
    """
    h = hashlib.blake2b()
    n = len(indptr) - 1
    h.update(repr(((n, n), "<f8", [(a.dtype.str, a.size) for a in (indptr, indices)])).encode())
    h.update(indptr)
    h.update(indices)
    return h.digest()


def neumann_plan(grid, elements):
    """The local Neumann pattern of an element subset, for ``assemble_local_neumann``."""
    elements = np.asarray(elements, dtype=np.int64).ravel()
    if len(elements) == 0:
        raise ValueError("element set must be non-empty")
    if elements.min() < 0 or elements.max() >= grid.n_elements:
        raise ValueError("element id out of range")
    enodes = _element_nodes(grid, elements)
    ii = enodes % (grid.m + 1)
    nodes = np.unique(enodes[(ii >= 1) & (ii <= grid.m - 1)])
    local = np.full(grid.n_nodes, -1, dtype=np.int64)
    local[nodes] = np.arange(len(nodes))
    loc = local[enodes]  # (ne, 4), -1 marks dropped Dirichlet nodes
    lr = np.broadcast_to(loc[:, :, None], loc.shape + (4,))
    lc = np.broadcast_to(loc[:, None, :], loc.shape + (4,))
    m = (lr >= 0) & (lc >= 0)
    n = len(nodes)
    key, at = np.unique(lr[m] * n + lc[m], return_inverse=True)
    rows, cols = np.divmod(key, n)
    indptr = np.searchsorted(rows, np.arange(n + 1))
    free = grid.free_index(nodes % (grid.m + 1), nodes // (grid.m + 1))
    # narrow integers, int32 as scipy keeps them: a plan lives as long as its decomposition
    spot = np.full(m.size, len(key), dtype=np.min_scalar_type(len(key)))
    spot[m.ravel()] = at
    cols, indptr = cols.astype(np.int32), indptr.astype(np.int32)
    return NeumannPlan(elements.astype(np.int32), spot, cols, indptr, _pattern_digest(cols, indptr), free)


def assemble_local_neumann(grid, coefficient, elements):
    """Stiffness over an element subset with no boundary treatment.

    ``elements`` holds element ids, or their ``neumann_plan``, which
    leaves one gather and one sum per call. Global Dirichlet nodes are
    dropped; rows and columns follow the returned ascending list of
    free-node indices. The matrix is a scipy CSR matrix, bitwise
    symmetric, banded with bandwidth about the width of the element
    subset in nodes, and its entries are bitwise those of adding the
    element matrices into a dense array in element order.
    """
    plan = elements if isinstance(elements, NeumannPlan) else neumann_plan(grid, elements)
    vals = coefficient.values.ravel()[plan.elements][:, None] * K_REF.ravel()
    # np.add.at sums each entry's element contributions in element order,
    # as a dense accumulation does; assemble's reduceat may pair them
    # differently and change the last bit. The extra last entry takes
    # the dropped ones.
    data = np.zeros(len(plan.indices) + 1)
    np.add.at(data, plan.at, vals.ravel())
    n = len(plan.free)
    return sp.csr_matrix((data[:-1], plan.indices, plan.indptr), shape=(n, n)), plan.free


@dataclass
class SequenceProblem:
    """One step of a sequence of locally modified systems."""

    system: LinearSystem
    coefficient: CoefficientField
    changed_elements: np.ndarray  # element ids whose sigma differs from the previous step


def problem_sequence(grid, geometry, schedule):
    """Assembled systems along a modification schedule, each from the one before."""
    out = []
    for field_k, changed in schedule_fields(grid, geometry, schedule):
        previous = (out[-1].system, out[-1].coefficient) if out else None
        out.append(SequenceProblem(assemble(grid, field_k, previous), field_k, changed))
    return out
