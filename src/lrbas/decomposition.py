"""Overlapping domain decomposition and the GenEO coarse space.

Subdomains are an s x s layout of element blocks extended by a fixed
overlap (clipped at the domain boundary); a subdomain's index set holds
the free nodes of its extended element block. The neighbours, the
inverse multiplicity weights of the partition of unity, local residual
energies and each step's changed subdomains are read from one sparse
node-subdomain incidence matrix of the index sets. The coarse space
collects, per subdomain, the weighted eigenvectors of the local
Neumann-vs-weighted pencil with eigenvalues below a threshold. Pencils
and local matrices with the same bytes are solved and factored once per
sequence.
"""
from __future__ import annotations

import hashlib
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .fem import _element_nodes, assemble_local_neumann
from .linalg import Factorization, SparseSymMatrix, factorize, sym_gen_eig


@dataclass(frozen=True)
class Subdomain:
    extended: tuple  # element ranges ((c0, c1), (r0, r1)), inclusive: the Neumann element set
    indices: np.ndarray  # free-node index set, ascending


class Decomposition:
    """Uniform overlapping decomposition of a Grid."""

    def __init__(self, grid, layout, subdomains):
        self.grid = grid
        self.layout = layout
        self.subdomains = subdomains
        sizes = [len(s.indices) for s in subdomains]
        csc = (np.ones(sum(sizes)), np.concatenate(self.index_sets), np.r_[0, np.cumsum(sizes)])
        S = sp.csc_matrix(csc, shape=(grid.n_free, len(sizes)))
        self.incidence = S.tocsr()  # S[p, i] = 1 when free node p lies in subdomain i's index set
        # per subdomain, a sorted tuple of the subdomains whose index sets meet
        # its own, itself included: the pattern of S^T S, whose indices a
        # sparse product does not promise to sort
        G = (S.T @ S).tocsr()
        G.sort_indices()
        self.neighbors = [tuple(G.indices[a:b].tolist()) for a, b in zip(G.indptr, G.indptr[1:])]

    @property
    def n_subdomains(self):
        return len(self.subdomains)

    @property
    def index_sets(self):
        return [s.indices for s in self.subdomains]

    def extended_elements(self, i):
        (c0, c1), (r0, r1) = self.subdomains[i].extended
        ex, ey = np.meshgrid(np.arange(c0, c1 + 1), np.arange(r0, r1 + 1))
        return self.grid.element_id(ex, ey).ravel()


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


def lift(dec, blocks):
    """Lift (subdomain, (n_i, m) column array) pairs, in order, into one sparse (n_free, k) matrix."""
    blocks = [(dec.subdomains[i].indices, b) for i, b in blocks]
    lengths = np.repeat([len(idx) for idx, _ in blocks], [b.shape[1] for _, b in blocks])
    data = np.concatenate([b.T.ravel() for _, b in blocks])
    rows = np.concatenate([np.tile(idx, b.shape[1]) for idx, b in blocks])
    return sp.csc_matrix((data, rows, np.r_[0, np.cumsum(lengths)]), shape=(dec.grid.n_free, len(lengths)))


def _digest(*matrices):
    """blake2b digest of CSR matrices: their shapes, index arrays and values, byte for byte."""
    h = hashlib.blake2b()
    for M in matrices:
        arrays = (M.indptr, M.indices, M.data)
        h.update(repr((M.shape, [(a.dtype.str, a.size) for a in arrays])).encode())
        for a in arrays:
            h.update(a)
    return h.digest()


class CoarseSpace:
    """Per-subdomain coarse vector blocks, concatenated column-wise.

    ``pencils`` maps each GenEO pencil solved so far, by tau and digest,
    to its kept eigenvectors before weighting; ``build_geneo_coarse``
    hands it on to the next coarse space it builds from this one.
    """

    def __init__(self, dec, blocks, pencils=None):
        self.blocks = blocks  # list of (n_i, m_i) arrays
        self.counts = np.array([b.shape[1] for b in blocks], dtype=np.int64)
        self.n0 = int(self.counts.sum())
        self.matrix = lift(dec, enumerate(blocks))
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

    Each distinct pencil is solved once per chain of coarse spaces: the
    kept vectors are stored under a digest of both matrices' exact bytes
    and reused by every later subdomain, in this build or one passed
    ``previous``, whose pencil has the same bytes (interior subdomains
    that see the same coefficient pattern, shifted, and port states a
    sequence visits again). Equal bytes go into the same deterministic
    solve, so the blocks are those of solving every pencil.
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
        idx = dec.subdomains[i].indices
        K_neu, _ = assemble_local_neumann(dec.grid, coefficient, dec.extended_elements(i))
        D = pou.local[i]
        B = system.A.submatrix(idx)  # a copy, scaled in place to D A_i D + delta I
        rows = np.repeat(np.arange(len(idx)), np.diff(B.indptr))
        B.data *= D[rows]
        B.data *= D[B.indices]
        diag = rows == B.indices
        B.data[diag] += 1e-12 * max(B.data[diag].max(), 0.0)
        key = (tau, _digest(K_neu, B))
        if key not in pencils:
            w, P = sym_gen_eig(K_neu, B, upper=tau)
            w = np.maximum(w, 0.0)  # SPSD pencil: negative values are roundoff
            # boolean indexing copies, so eigh's n x n work array is not kept
            pencils[key] = P[:, w < tau]
        blocks.append(D[:, None] * pencils[key])
    coarse = CoarseSpace(dec, blocks, pencils)
    if coarse.n0 == 0:
        warnings.warn("GenEO selected no vectors; coarse space is empty", stacklevel=2)
    return coarse


@dataclass
class LocalOperators:
    """Factorized local Dirichlet matrices plus the coarse space and matrix.

    Each local matrix A_i is factored by banded Cholesky in the natural
    (ascending) node order of its index set, where its bandwidth is about
    the subdomain's width in nodes. ``coarse_matrix`` is the dense
    ``R0^T A R0`` of ``coarse``, which the preconditioner factors and the
    reduced systems start from. The caller keeps them current: ``refresh``
    after each change of system.

    Subdomains whose A_i have the same bytes share one factor object:
    ``shared`` maps the digest of each A_i factored since ``build`` to
    its factor.
    """

    index_sets: list
    factors: list
    coarse: CoarseSpace
    coarse_matrix: np.ndarray
    coarse_factor: Factorization
    shared: dict

    @classmethod
    def build(cls, A, index_sets, coarse):
        shared = {}
        factors = [_local_factor(A.submatrix(idx), shared) for idx in index_sets]
        return cls(index_sets, factors, coarse, *_coarse_factor(A, coarse), shared)

    def refresh(self, A, coarse, changed):
        """Refactor changed subdomains and the coarse matrix for a new system."""
        for i in np.asarray(changed, dtype=np.int64).ravel():
            self.factors[i] = _local_factor(A.submatrix(self.index_sets[i]), self.shared)
        self.coarse = coarse
        self.coarse_matrix, self.coarse_factor = _coarse_factor(A, coarse)


def _local_factor(A_i, shared):
    """The factor of A_i in ``shared`` under its digest, factored on first use."""
    key = _digest(A_i)
    if key not in shared:
        shared[key] = factorize(A_i)
    return shared[key]


def _coarse_factor(A, coarse):
    """The dense coarse Galerkin matrix R0^T A R0 and its factorization."""
    R0T = coarse.matrix
    A0 = (R0T.T @ (A.to_scipy() @ R0T)).toarray()
    return A0, factorize(A0)


def apply_as_preconditioner(r, ops):
    """Two-level additive Schwarz application M^-1 r.

    ``ops`` must be built or refreshed for r's system; an empty coarse space adds exact zeros.
    """
    r = np.asarray(r, dtype=np.float64)
    R0T = ops.coarse.matrix
    z = R0T @ ops.coarse_factor.solve(R0T.T @ r)
    for idx, F in zip(ops.index_sets, ops.factors):
        z[idx] += F.solve(r[idx])
    return z
