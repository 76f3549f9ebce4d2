"""Overlapping domain decomposition and the GenEO coarse space.

Subdomains are an s x s layout of element blocks extended by a fixed
overlap (clipped at the domain boundary); a subdomain's index set holds
the free nodes of its extended element block. The partition of unity
uses inverse multiplicity weights. The coarse space collects, per
subdomain, the weighted eigenvectors of the local Neumann-vs-weighted
pencil with eigenvalues below a threshold.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .linalg import Factorization, SparseSymMatrix, factorize, sym_gen_eig


@dataclass(frozen=True)
class Subdomain:
    p: int
    q: int
    owned: tuple  # element ranges ((c0, c1), (r0, r1)), inclusive
    extended: tuple
    indices: np.ndarray  # free-node index set, ascending


class Decomposition:
    """Uniform overlapping decomposition of a Grid."""

    def __init__(self, grid, layout, overlap, subdomains, neighbors):
        self.grid = grid
        self.layout = layout
        self.overlap = overlap
        self.subdomains = subdomains
        self.neighbors = neighbors  # per subdomain: sorted tuple, includes self

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
            oc = (p * w, (p + 1) * w - 1)
            orr = (q * w, (q + 1) * w - 1)
            ec = (max(oc[0] - overlap, 0), min(oc[1] + overlap, m - 1))
            er = (max(orr[0] - overlap, 0), min(orr[1] + overlap, m - 1))
            ni = np.arange(max(ec[0], 1), min(ec[1] + 1, m - 1) + 1)
            nj = np.arange(er[0], er[1] + 2)
            ij, jj = np.meshgrid(ni, nj)
            idx = grid.free_index(ij, jj).ravel()
            subdomains.append(Subdomain(p, q, (oc, orr), (ec, er), idx))

    # neighborhood by index-set intersection; the sets are rectangles in
    # node space so interval overlap decides it
    boxes = []
    for s in subdomains:
        (c0, c1), (r0, r1) = s.extended
        boxes.append((max(c0, 1), min(c1 + 1, m - 1), r0, r1 + 1))
    neighbors = []
    for a in boxes:
        nb = [
            j
            for j, b in enumerate(boxes)
            if a[0] <= b[1] and b[0] <= a[1] and a[2] <= b[3] and b[2] <= a[3]
        ]
        neighbors.append(tuple(nb))
    return Decomposition(grid, layout, overlap, subdomains, neighbors)


@dataclass
class PartitionOfUnity:
    """Inverse multiplicity weights over the free nodes."""

    weights: np.ndarray  # full free-node vector
    local: list  # weights restricted to each index set


def build_partition_of_unity(dec):
    n = dec.grid.n_free
    counts = np.zeros(n, dtype=np.int64)
    for idx in dec.index_sets:
        counts[idx] += 1
    if (counts == 0).any():
        raise ValueError("index sets do not cover all free nodes")
    weights = 1.0 / counts
    return PartitionOfUnity(weights, [weights[idx] for idx in dec.index_sets])


def detect_changed_subdomains(changed_elements, dec):
    """Subdomains whose extended element block meets the changed elements."""
    changed_elements = np.asarray(changed_elements, dtype=np.int64).ravel()
    if len(changed_elements) == 0:
        return np.zeros(0, dtype=np.int64)
    ex, ey = dec.grid.element_xy(changed_elements)
    hit = []
    for i, s in enumerate(dec.subdomains):
        (c0, c1), (r0, r1) = s.extended
        if ((ex >= c0) & (ex <= c1) & (ey >= r0) & (ey <= r1)).any():
            hit.append(i)
    return np.asarray(hit, dtype=np.int64)


class CoarseSpace:
    """Per-subdomain coarse vector blocks, concatenated column-wise."""

    def __init__(self, dec, blocks):
        self.blocks = blocks  # list of (n_i, m_i) arrays
        self.counts = np.array([b.shape[1] for b in blocks], dtype=np.int64)
        self.offsets = np.concatenate([[0], np.cumsum(self.counts)])
        self.n0 = int(self.offsets[-1])
        n = dec.grid.n_free
        rows, cols, data = [], [], []
        for i, b in enumerate(blocks):
            if b.shape[1] == 0:
                continue
            idx = dec.subdomains[i].indices
            rows.append(np.tile(idx, b.shape[1]))
            cols.append(np.repeat(self.offsets[i] + np.arange(b.shape[1]), len(idx)))
            data.append(b.T.ravel())
        if rows:
            self.matrix = sp.csr_matrix(
                (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))), shape=(n, self.n0)
            )
        else:
            self.matrix = sp.csr_matrix((n, 0))

    def restrict(self, r):
        """R_0 r: coefficients of r against the coarse columns."""
        return self.matrix.T @ r

    def prolong(self, c):
        """R_0^T c: the coarse vector with coefficients c."""
        return self.matrix @ c


def build_geneo_coarse(dec, pou, system, neumanns, tau, previous=None, recompute=None):
    """Assemble the GenEO coarse space for the current system.

    For each subdomain to (re)compute, solves the pencil
    ``K_neu p = lambda (D A_i D + delta I) p`` with delta a 1e-12
    relative diagonal regularization, keeps eigenvectors with snapped
    eigenvalue strictly below tau, and stores the weighted vectors
    D_i p as coarse columns. Both pencil matrices stay sparse, so that
    ``sym_gen_eig`` can take its ARPACK path on large subdomains; the
    vectors are B-orthonormal and ordered by ascending eigenvalue on
    either path. ``neumanns`` maps subdomain id to the (sparse matrix,
    index list) pair from the local Neumann assembly; with ``previous``
    given, blocks outside ``recompute`` are carried over.
    """
    if recompute is None:
        recompute = np.arange(dec.n_subdomains)
    recompute = set(int(i) for i in np.asarray(recompute).ravel())
    if previous is None and len(recompute) != dec.n_subdomains:
        raise ValueError("partial recompute needs a previous coarse space")
    blocks = []
    for i in range(dec.n_subdomains):
        if i not in recompute:
            blocks.append(previous.blocks[i])
            continue
        idx = dec.subdomains[i].indices
        K_neu, nidx = neumanns[i]
        if not np.array_equal(nidx, idx):
            raise ValueError(f"neumann matrix of subdomain {i} is over a different index set")
        D = pou.local[i]
        B = sp.diags(D) @ system.A.submatrix(idx) @ sp.diags(D)
        delta = 1e-12 * max(B.diagonal().max(), 0.0)
        w, P = sym_gen_eig(K_neu, B + delta * sp.identity(len(idx)), upper=tau)
        w = np.maximum(w, 0.0)  # SPSD pencil: negative values are roundoff
        sel = w < tau
        blocks.append(D[:, None] * P[:, sel])
    coarse = CoarseSpace(dec, blocks)
    if coarse.n0 == 0:
        warnings.warn("GenEO selected no vectors; coarse space is empty", stacklevel=2)
    return coarse


@dataclass
class LocalOperators:
    """Factorized local Dirichlet matrices plus the coarse matrix.

    Each local matrix A_i is factored by banded Cholesky in the natural
    (ascending) node order of its index set, where its bandwidth is about
    the subdomain's width in nodes; the coarse matrix is dense.
    """

    index_sets: list
    factors: list
    coarse: CoarseSpace
    coarse_factor: Factorization
    version: object = None

    @classmethod
    def build(cls, A, index_sets, coarse, version=None):
        factors = [factorize(A.submatrix(idx)) for idx in index_sets]
        return cls(index_sets, factors, coarse, _coarse_factor(A, coarse), version)

    def refresh(self, A, coarse, changed, version=None):
        """Refactor changed subdomains and the coarse matrix for a new system."""
        for i in np.asarray(changed, dtype=np.int64).ravel():
            self.factors[i] = factorize(A.submatrix(self.index_sets[i]))
        self.coarse = coarse
        self.coarse_factor = _coarse_factor(A, coarse)
        self.version = version
        return self


def _coarse_factor(A, coarse):
    if coarse is None or coarse.n0 == 0:
        return factorize(np.zeros((0, 0)))
    R0T = coarse.matrix
    A0 = (R0T.T @ (A.to_scipy() @ R0T)).toarray()
    return factorize(A0)


def apply_as_preconditioner(r, ops, version=None):
    """Two-level additive Schwarz application M^-1 r."""
    if version is not None and ops.version != version:
        raise ValueError(f"local operators are for version {ops.version}, expected {version}")
    r = np.asarray(r, dtype=np.float64)
    z = np.zeros_like(r)
    if ops.coarse is not None and ops.coarse.n0:
        z += ops.coarse.prolong(ops.coarse_factor.solve(ops.coarse.restrict(r)))
    for idx, F in zip(ops.index_sets, ops.factors):
        z[idx] += F.solve(r[idx])
    return z
