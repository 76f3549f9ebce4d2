"""Overlapping domain decomposition and the GenEO coarse space.

Subdomains are an s x s layout of element blocks extended by a fixed
overlap (clipped at the domain boundary); a subdomain's index set holds
the free nodes of its extended element block. The index sets stand end
to end in one array, through which vectors move between the grid and
the subdomains. The partition of unity, local residual energies and
each step's changed subdomains are read from one sparse node-subdomain
incidence matrix S of the index sets; the subdomain pairs that A
couples, from the pattern of S^T |A| S. Over those pairs the reduced
system (``solver.ReducedSystem``) assembles its Galerkin matrix from
dense local blocks. The coarse space collects, per subdomain, the
weighted eigenvectors of the local Neumann-vs-weighted pencil with
eigenvalues below a threshold. Pencils whose inputs agree up to a
symmetry of the square are solved once per sequence, and local
matrices computed from the same inputs factored once.
"""
from __future__ import annotations

import hashlib
import warnings
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .fem import _element_nodes, assemble_local_neumann, neumann_plan
from .linalg import factorize, sym_gen_eig


@dataclass(frozen=True)
class Subdomain:
    extended: tuple  # element ranges ((c0, c1), (r0, r1)), inclusive: the Neumann element set
    indices: np.ndarray  # free-node index set, ascending


class Decomposition:
    """Uniform overlapping decomposition of a Grid.

    Index set i is the segment ``segments[i]``, from ``bounds[i]`` to
    ``bounds[i + 1]``, of the read-only array ``stacked``; ``index_sets[i]``
    and the subdomain's ``indices`` are views of it.
    """

    def __init__(self, grid, layout, subdomains):
        self.grid = grid
        self.layout = layout
        self.stacked = np.concatenate([s.indices for s in subdomains])
        self.stacked.flags.writeable = False
        self.bounds = np.r_[0, np.cumsum([len(s.indices) for s in subdomains])]
        self.segments = [slice(a, b) for a, b in zip(self.bounds[:-1].tolist(), self.bounds[1:].tolist())]
        self.index_sets = [self.stacked[s] for s in self.segments]
        self.subdomains = [replace(s, indices=idx) for s, idx in zip(subdomains, self.index_sets)]
        S = sp.csc_matrix((np.ones(len(self.stacked)), self.stacked, self.bounds), shape=(grid.n_free, len(subdomains)))
        self.incidence = S.tocsr()  # S[p, i] = 1 when free node p lies in subdomain i's index set

    @property
    def n_subdomains(self):
        return len(self.subdomains)

    def gather(self, v):
        """``v[stacked]``: a vector over the free nodes restricted to every index set."""
        if v.shape != (self.grid.n_free,):
            raise ValueError(f"vector of shape {v.shape} does not match {self.grid.n_free} free nodes")
        return v[self.stacked]

    def scatter(self, u):
        """The transpose of ``gather``: each node sums its entries of u in subdomain order."""
        return np.bincount(self.stacked, weights=u, minlength=self.grid.n_free)

    def extended_elements(self, i):
        (c0, c1), (r0, r1) = self.subdomains[i].extended
        ex, ey = np.meshgrid(np.arange(c0, c1 + 1), np.arange(r0, r1 + 1))
        return self.grid.element_id(ex, ey).ravel()

    @cached_property
    def neumann_plans(self):
        """Each subdomain's ``neumann_plan`` of its extended block, built on first use.

        Blocks of one shape that touch the same Dirichlet edges have the
        same local pattern, shifted, so they share one; the free nodes of
        an extended block are its index set.
        """
        plans, shapes = [], {}
        for i, s in enumerate(self.subdomains):
            (c0, c1), (r0, r1) = s.extended
            shape = (c1 - c0, r1 - r0, c0 == 0, c1 == self.grid.m - 1)
            elements = self.extended_elements(i)
            if shape not in shapes:
                shapes[shape] = neumann_plan(self.grid, elements)
            plans.append(replace(shapes[shape], elements=elements.astype(np.int32), free=s.indices))
        return plans

    @cached_property
    def coupling(self):
        """The ``Coupling`` of the index sets, built on first use."""
        return Coupling(self)


def build_decomposition(grid, layout, overlap):
    """Partition the grid into layout x layout subdomains with overlap.

    The layout must divide the element count per side and the overlap
    must be at least one element.
    """
    m = grid.m
    if layout < 1 or m % layout != 0:
        raise ValueError(f"layout {layout} does not divide grid size {m}")
    if overlap < 1:
        raise ValueError(f"overlap must be at least 1, got {overlap}")
    w = m // layout
    subdomains = []
    for q in range(layout):
        for p in range(layout):
            # subdomain q * layout + p: element block (p, q) widened by the overlap, clipped
            ec = (max(p * w - overlap, 0), min((p + 1) * w - 1 + overlap, m - 1))
            er = (max(q * w - overlap, 0), min((q + 1) * w - 1 + overlap, m - 1))
            ni = np.arange(max(ec[0], 1), min(ec[1] + 1, m - 1) + 1)
            nj = np.arange(er[0], er[1] + 2)
            ij, jj = np.meshgrid(ni, nj)
            idx = grid.free_index(ij, jj).ravel()
            subdomains.append(Subdomain((ec, er), idx))
    return Decomposition(grid, layout, subdomains)


@dataclass
class PartitionOfUnity:
    """Inverse multiplicity weights, restricted to each index set."""

    local: list


def build_partition_of_unity(dec):
    counts = np.diff(dec.incidence.indptr)  # subdomains holding each free node
    if (counts == 0).any():
        raise ValueError("index sets do not cover all free nodes")
    weights = 1.0 / counts
    return PartitionOfUnity([weights[idx] for idx in dec.index_sets])


def detect_changed_subdomains(changed_elements, dec):
    """Subdomains whose index set holds a free node of a changed element.

    These are exactly the subdomains whose A_i = A[idx_i, idx_i] the
    change can alter, elements just outside the extended block included.
    """
    grid = dec.grid
    changed_elements = np.asarray(changed_elements, dtype=np.int64).ravel()
    if len(changed_elements) and (changed_elements.min() < 0 or changed_elements.max() >= grid.n_elements):
        raise ValueError("element id out of range")
    nodes = _element_nodes(grid, changed_elements).ravel()
    i, j = nodes % (grid.m + 1), nodes // (grid.m + 1)
    free = (i >= 1) & (i <= grid.m - 1)
    rows = dec.incidence[grid.free_index(i[free], j[free])]
    return np.unique(rows.indices).astype(np.int64)


class Coupling:
    """The subdomain pairs that A couples, as maps between dense local blocks.

    ``ext_i`` is subdomain i's index set plus every free node A couples
    to it, the rows of ``A[ext_i, idx_i]``. ``pairs[i]`` lists ``(j, r,
    off, s)`` for each subdomain j whose index set meets ``ext_i``, the
    pattern of column i of ``S^T |A| S`` with S the incidence matrix.
    Their shared nodes, ascending, lie in the positions ``r`` (a slice)
    of ``idx_j``, at offsets ``off`` within it (None when they fill it),
    and at the positions ``shared[i][s]`` of ``ext_i``. Two index sets
    need not meet for A to couple them. The maps come from the grid's
    sparsity pattern, which every system assembled on the grid shares,
    and hold no values. So does the plan of each principal submatrix
    ``A_i = A[idx_i, idx_i]``: the entries of ``A[ext_i, idx_i]`` on the
    rows of idx_i, which A's symmetry makes A_i in CSR form.
    """

    def __init__(self, dec):
        # int32 throughout, as the grid's pattern: every count and position fits
        indices, indptr = self.pattern = dec.grid.assembly_plan[3]
        self._indices_buffer = indices.__array_interface__  # its address, dtype, shape and strides
        n, I = dec.grid.n_free, dec.n_subdomains
        first, q = dec.bounds.astype(np.int32), dec.stacked.astype(np.int32)
        sizes = np.diff(first)
        # S with data 1 + the position of each node in its index set
        S = sp.csc_matrix((np.arange(1, len(q) + 1, dtype=np.int32) - np.repeat(first[:-1], sizes), q, first), shape=(n, I))
        E = (sp.csr_matrix((np.ones(len(indices), dtype=np.int32), indices, indptr), shape=(n, n)) @ S).tocsc()
        E.sort_indices()  # |A| S: column i holds ext_i
        # column q of A[ext_i, idx_i] holds row q of A, whose values are
        # bitwise those of the column, and an index set's numbers come in
        # runs of consecutive ones, whose rows of A are contiguous
        starts = np.r_[True, np.diff(q) != 1]
        starts[first[:-1]] = True
        run = np.flatnonzero(starts)
        spans = np.stack([indptr[q[run]], indptr[q[np.r_[run[1:], len(q)] - 1] + 1]], axis=1)
        deg = np.diff(indptr)[q]
        shapes, principals, self._local, self._principal = {}, {}, [], []
        for i, runs in enumerate(np.split(spans, np.searchsorted(run, first[1:-1]))):
            ext = E.indices[E.indptr[i] : E.indptr[i + 1]]
            where = np.empty(ext[-1] - ext[0] + 1, dtype=np.int32)  # position in ext_i, by node number
            where[ext - ext[0]] = np.arange(len(ext), dtype=np.int32)
            rows = where[np.concatenate([indices[u:v] for u, v in runs]) - ext[0]]
            ptr = np.r_[0, np.cumsum(deg[first[i] : first[i + 1]])].astype(np.int32)
            # one copy of each distinct pattern of A[ext_i, idx_i] and of A_i, one per shape of index set
            rows, ptr = shapes.setdefault((rows.tobytes(), ptr.tobytes()), (rows, ptr))
            self._local.append((runs, rows, ptr, (len(ext), len(ptr) - 1)))
            inner = np.full(len(ext), -1, dtype=np.int32)  # position in idx_i of each node of ext_i
            inner[where[q[first[i] : first[i + 1]] - ext[0]]] = np.arange(sizes[i], dtype=np.int32)
            at = inner[rows]
            keep = np.flatnonzero(at >= 0).astype(np.int32)
            sub = (keep, at[keep], np.searchsorted(keep, ptr).astype(np.int32))
            key = tuple(a.tobytes() for a in sub)
            if key not in principals:
                for a in sub:
                    a.flags.writeable = False
                principals[key] = sub
            self._principal.append(principals[key])
        # each node of each ext_i, once per index set j that holds it,
        # grouped by pair (i, j) with the nodes ascending
        Sr = S.tocsr()
        owner = np.repeat(np.arange(I, dtype=np.int32), np.diff(E.indptr))
        hold = np.diff(Sr.indptr)[E.indices]
        start = np.r_[0, np.cumsum(hold)].astype(np.int32)
        s = np.repeat(Sr.indptr[E.indices] - start[:-1], hold) + np.arange(start[-1], dtype=np.int32)
        key = np.repeat(owner * I, hold) + Sr.indices[s]
        # stable: a radix sort whenever the keys fit in 16 bits
        order = np.argsort(key.astype(np.min_scalar_type(I * I)), kind="stable")
        key, a = key[order], (Sr.data[s] - 1)[order]
        cut = np.flatnonzero(np.r_[True, key[1:] != key[:-1], True])
        lo, hi = a[cut[:-1]], a[cut[1:] - 1] + 1
        small = np.min_scalar_type(max(sizes.max(), np.diff(E.indptr).max()))
        a = (a - np.repeat(lo, np.diff(cut))).astype(small)
        b = np.repeat(np.arange(E.nnz, dtype=np.int32) - E.indptr[owner], hold)[order].astype(small)
        bound = np.searchsorted(key, np.arange(I + 1) * I)
        self.shared = [b[u:v] for u, v in zip(bound[:-1], bound[1:])]
        self.pairs = [[] for _ in range(I)]
        ij = np.divmod(key[cut[:-1]], I)
        for u, v, i, j, l, h in zip(cut[:-1].tolist(), cut[1:].tolist(), *(x.tolist() for x in (*ij, lo, hi))):
            self.pairs[i].append((j, slice(l, h), None if h - l == v - u else a[u:v], slice(u - bound[i], v - bound[i])))

    def _data(self, A, i):
        """The values of ``A[ext_i, idx_i]``: A's rows of idx_i, gathered run by run."""
        csr = A.to_scipy()
        indices, indptr = self.pattern
        # an assembled system holds the grid's read-only arrays: its indptr, and a view of
        # its indices on the same buffer, which reads the same
        shared = csr.indptr is indptr and csr.indices.__array_interface__ == self._indices_buffer
        if not (shared or np.array_equal(csr.indptr, indptr) and np.array_equal(csr.indices, indices)):
            raise ValueError("matrix does not have the sparsity pattern of the grid")
        return np.concatenate([csr.data[u:v] for u, v in self._local[i][0].tolist()])

    def local(self, A, i):
        """``A[ext_i, idx_i]`` of a system matrix on the grid, in CSC form."""
        _, rows, ptr, shape = self._local[i]
        return sp.csc_matrix((self._data(A, i), rows, ptr), shape=shape)

    def principal(self, A, i):
        """``A_i = A[idx_i, idx_i]`` of a system matrix on the grid, in CSR form.

        The values are a fresh array, bitwise those of A, and the index
        arrays are read-only and shared by the index sets of one shape.
        """
        keep, indices, indptr = self._principal[i]
        n = len(indptr) - 1
        return sp.csr_matrix((self._data(A, i)[keep], indices, indptr), shape=(n, n))


def _inputs(dec, coefficient, i):
    """Subdomain i's inputs, as two arrays over its extended block.

    ``window`` holds the conductivity of every element that touches the
    index set, ``[ey, ex]``: the block and a ring of one element, with 0
    for ring elements outside the grid. ``at`` holds, on the block's
    node rectangle ``[j, i]``, each node's position in the index set,
    and -1 for the Dirichlet nodes it drops. The window's shape and its
    zeros fix the block's shape and the grid edges that clip it, and so
    ``at``.
    """
    m = dec.grid.m
    (c0, c1), (r0, r1) = dec.subdomains[i].extended
    (y0, y1), (x0, x1) = (max(r0 - 1, 0), min(r1 + 2, m)), (max(c0 - 1, 0), min(c1 + 2, m))
    window = np.zeros((r1 - r0 + 3, c1 - c0 + 3))
    window[y0 - r0 + 1 : y1 - r0 + 1, x0 - c0 + 1 : x1 - c0 + 1] = coefficient.values[y0:y1, x0:x1]
    a, b = max(c0, 1) - c0, min(c1 + 1, m - 1) - c0 + 1
    at = np.full((r1 - r0 + 2, c1 - c0 + 2), -1, dtype=np.int64)
    at[:, a:b] = np.arange(len(dec.subdomains[i].indices)).reshape(r1 - r0 + 2, b - a)
    return window, at


def _input_digest(dec, coefficient, i):
    """blake2b digest of what subdomain i's local matrix A_i is computed from.

    It takes the window of ``_inputs`` as it lies on the grid. Equal
    digests give bitwise-equal matrices, because equal inputs go through
    the same arithmetic: ``A_i`` is a function of the conductivity on
    the window and of the node rectangle, the element stiffness
    ``K_REF`` being the same at every grid spacing.
    """
    window, _ = _inputs(dec, coefficient, i)
    return hashlib.blake2b(repr(window.shape).encode() + window.tobytes()).digest()


def _symmetries(a):
    """``a`` under the 8 symmetries of the square: transpose, then flip y, then flip x."""
    for t in (a, a.T):
        for u in (t, t[::-1]):
            yield u
            yield u[:, ::-1]


def _pencil_key(dec, coefficient, D, i):
    """Subdomain i's GenEO pencil up to a symmetry of the square: its digest and node order.

    The inputs of ``_inputs``, with the weights D on the node rectangle
    (0 at dropped nodes), are taken under each symmetry g of the square;
    the least ``(shape, window, weights)`` bytes, the first g to reach
    them, make the digest. ``K_neu`` is a function of the conductivity on
    the block and of its free nodes, ``D A_i D + delta I`` of the window
    and of D, and ``K_REF`` is invariant under g. So two subdomains with
    one digest have pencils ``P K P^T`` and ``P B P^T`` of each other in
    exact arithmetic. ``perm`` lists the index-set positions in the
    order g takes the nodes to: ``V[perm]`` is V in that common frame.
    """
    window, at = _inputs(dec, coefficient, i)
    weights = np.append(D, 0.0)[at]
    best = None
    for w, d, p in zip(_symmetries(window), _symmetries(weights), _symmetries(at)):
        key = (w.shape, w.tobytes(), d.tobytes())
        if best is None or key < best[0]:
            best = key, p
    (shape, w, d), p = best
    perm = p.ravel()
    return hashlib.blake2b(repr(shape).encode() + w + d).digest(), perm[perm >= 0]


class CoarseSpace:
    """Per-subdomain coarse vector blocks, concatenated column-wise.

    ``pencils`` maps each GenEO pencil solved so far, by tau and the
    ``_pencil_key`` digest of its subdomain, to its kept eigenvectors
    before weighting, in the digest's common node order;
    ``build_geneo_coarse`` hands it on to the next coarse space it builds
    from this one.
    """

    def __init__(self, dec, blocks, pencils=None):
        self.dec = dec
        self.blocks = blocks  # list of (n_i, m_i) arrays
        self.counts = np.array([b.shape[1] for b in blocks], dtype=np.int64)
        self.n0 = int(self.counts.sum())
        ends = np.cumsum(self.counts).tolist()
        self.columns = [slice(a, b) for a, b in zip([0] + ends, ends)]  # the columns of block i
        self.pencils = {} if pencils is None else pencils


def build_geneo_coarse(dec, pou, system, coefficient, tau, previous=None, recompute=None):
    """Assemble the GenEO coarse space for the current system.

    For each subdomain to (re)compute, assembles the local Neumann
    matrix ``K_neu`` of ``coefficient`` over the subdomain's extended
    element block, solves the pencil
    ``K_neu p = lambda (D A_i D + delta I) p`` with delta a 1e-12
    relative diagonal regularization, keeps eigenvectors with snapped
    eigenvalue strictly below tau, and stores the weighted vectors
    D_i p as coarse columns. Both pencil matrices stay sparse, so that
    ``sym_gen_eig`` can take its ARPACK path on large subdomains; the
    vectors are B-orthonormal and ordered by ascending eigenvalue on
    either path. With ``previous`` given, blocks outside ``recompute``
    are carried over.

    Each pencil is solved once per chain of coarse spaces and symmetry
    of the square: the kept vectors are stored under tau and the
    subdomain's ``_pencil_key`` digest, in its common node order, and
    reused by every later subdomain, in this build or one passed
    ``previous``, whose inputs are the same up to a reflection or
    rotation (interior subdomains that see the same coefficient pattern,
    shifted or mirrored, and port states a sequence visits again). A
    reused pencil is not assembled. Its pencil is the solved one,
    permuted, in exact arithmetic, so the vectors it reads back are
    B-orthonormal eigenvectors of its own pencil up to roundoff; the
    subdomain that solved a pencil reads its own solve back bitwise.
    """
    if recompute is None:
        recompute = np.arange(dec.n_subdomains)
    recompute = set(int(i) for i in np.asarray(recompute).ravel())
    if previous is None and len(recompute) != dec.n_subdomains:
        raise ValueError("partial recompute needs a previous coarse space")
    pencils = {} if previous is None else previous.pencils
    blocks = []
    for i in range(dec.n_subdomains):
        if i not in recompute:
            blocks.append(previous.blocks[i])
            continue
        D = pou.local[i]
        digest, perm = _pencil_key(dec, coefficient, D, i)
        key = (tau, digest)
        if key not in pencils:
            K_neu, _ = assemble_local_neumann(dec.grid, coefficient, dec.neumann_plans[i])
            B = dec.coupling.principal(system.A, i)  # fresh values, scaled in place to D A_i D + delta I
            rows = np.repeat(np.arange(len(D)), np.diff(B.indptr))
            B.data *= D[rows]
            B.data *= D[B.indices]
            diag = rows == B.indices
            B.data[diag] += 1e-12 * max(B.data[diag].max(), 0.0)
            w, P = sym_gen_eig(K_neu, B, upper=tau)
            w = np.maximum(w, 0.0)  # SPSD pencil: negative values are roundoff
            # indexing copies, so eigh's n x n work array is not kept
            pencils[key] = P[np.ix_(perm, w < tau)]
        # in P's Fortran order: the layout sets the roundoff of every later product
        V = np.empty(pencils[key].shape, order="F")
        V[perm] = pencils[key]
        blocks.append(D[:, None] * V)
    coarse = CoarseSpace(dec, blocks, pencils)
    if coarse.n0 == 0:
        warnings.warn("GenEO selected no vectors; coarse space is empty", stacklevel=2)
    return coarse


@dataclass
class LocalOperators:
    """Factorized local Dirichlet matrices plus the coarse space.

    Each local matrix A_i on an index set of ``coarse.dec`` is factored by
    banded Cholesky in the natural (ascending) node order of its index set,
    where its bandwidth is about the subdomain's width in nodes. The caller
    keeps them current: ``refresh`` after each change of system. The
    coarse Galerkin matrix is not here: it is the coarse block of a
    ``ReducedSystem``, whose factor ``_coarse_factor`` gives the
    preconditioner.

    Subdomains whose A_i are computed from the same inputs share one
    factor object: ``build`` and ``refresh`` take the coefficient field
    that A is assembled from, and ``shared`` maps the ``_input_digest``
    of each subdomain factored since ``build`` to its factor.
    """

    factors: list
    coarse: CoarseSpace
    shared: dict

    @classmethod
    def build(cls, A, coefficient, coarse):
        shared = {}
        factors = [_local_factor(A, coefficient, coarse.dec, i, shared) for i in range(coarse.dec.n_subdomains)]
        return cls(factors, coarse, shared)

    def refresh(self, A, coefficient, coarse, changed):
        """Refactor the changed subdomains and take the new coarse space."""
        for i in np.asarray(changed, dtype=np.int64).ravel():
            self.factors[i] = _local_factor(A, coefficient, coarse.dec, i, self.shared)
        self.coarse = coarse


def _local_factor(A, coefficient, dec, i, shared):
    """The factor of subdomain i's A_i in ``shared`` under its input digest, factored on first use."""
    key = _input_digest(dec, coefficient, i)
    if key not in shared:
        shared[key] = factorize(dec.coupling.principal(A, i))
    return shared[key]


def _coarse_factor(M, cols):
    """The factor of the coarse Galerkin matrix R0^T A R0 held in a reduced system's M.

    ``cols`` holds each subdomain's coarse columns of M, a slice per
    subdomain in subdomain order, so that the factor numbers them as
    ``CoarseSpace.columns`` does.
    """
    q = np.r_[tuple(cols)]
    return factorize(M[np.ix_(q, q)])


def apply_as_preconditioner(r, ops, coarse_factor):
    """Two-level additive Schwarz application M^-1 r.

    r is gathered onto the stacked index sets, each segment overwritten
    by its local solve plus its coarse part, and the segments summed by
    one scatter. ``ops`` must be built or refreshed for r's system and
    ``coarse_factor`` be the ``_coarse_factor`` of its coarse space on
    that system; an empty coarse space adds exact zeros.
    """
    coarse = ops.coarse
    dec = coarse.dec
    u = dec.gather(np.asarray(r, dtype=np.float64))
    c = coarse_factor.solve(np.concatenate([b.T @ u[s] for b, s in zip(coarse.blocks, dec.segments)]))
    for b, s, q, F in zip(coarse.blocks, dec.segments, coarse.columns, ops.factors):
        u[s] = F.solve(u[s]) + b @ c[q]
    return dec.scatter(u)
