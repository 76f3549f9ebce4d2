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

from .fem import assemble_local_neumann
from .linalg import Factorization, SparseSymMatrix, factorize, sym_gen_eig


@dataclass(frozen=True)
class Subdomain:
    extended: tuple  # element ranges ((c0, c1), (r0, r1)), inclusive
    indices: np.ndarray  # free-node index set, ascending


class Decomposition:
    """Uniform overlapping decomposition of a Grid."""

    def __init__(self, grid, layout, subdomains, neighbors):
        self.grid = grid
        self.layout = layout
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
            # subdomain q * layout + p: element block (p, q) widened by the overlap, clipped
            ec = (max(p * w - overlap, 0), min((p + 1) * w - 1 + overlap, m - 1))
            er = (max(q * w - overlap, 0), min((q + 1) * w - 1 + overlap, m - 1))
            ni = np.arange(max(ec[0], 1), min(ec[1] + 1, m - 1) + 1)
            nj = np.arange(er[0], er[1] + 2)
            ij, jj = np.meshgrid(ni, nj)
            idx = grid.free_index(ij, jj).ravel()
            subdomains.append(Subdomain((ec, er), idx))

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
    return Decomposition(grid, layout, subdomains, neighbors)


@dataclass
class PartitionOfUnity:
    """Inverse multiplicity weights, restricted to each index set."""

    local: list


def build_partition_of_unity(dec):
    n = dec.grid.n_free
    counts = np.zeros(n, dtype=np.int64)
    for idx in dec.index_sets:
        counts[idx] += 1
    if (counts == 0).any():
        raise ValueError("index sets do not cover all free nodes")
    weights = 1.0 / counts
    return PartitionOfUnity([weights[idx] for idx in dec.index_sets])


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


def lift(dec, blocks):
    """Lift (subdomain, (n_i, m) column array) pairs, in order, into one sparse (n_free, k) matrix."""
    rows, cols, data, k = [], [], [], 0
    for i, b in blocks:
        idx = dec.subdomains[i].indices
        rows.append(np.tile(idx, b.shape[1]))
        cols.append(np.repeat(np.arange(k, k + b.shape[1]), len(idx)))
        data.append(b.T.ravel())
        k += b.shape[1]
    return sp.csc_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))), shape=(dec.grid.n_free, k)
    )


class CoarseSpace:
    """Per-subdomain coarse vector blocks, concatenated column-wise."""

    def __init__(self, dec, blocks):
        self.blocks = blocks  # list of (n_i, m_i) arrays
        self.counts = np.array([b.shape[1] for b in blocks], dtype=np.int64)
        self.n0 = int(self.counts.sum())
        self.matrix = lift(dec, enumerate(blocks))


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
        K_neu, _ = assemble_local_neumann(dec.grid, coefficient, dec.extended_elements(i))
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
    """Factorized local Dirichlet matrices plus the coarse space and matrix.

    Each local matrix A_i is factored by banded Cholesky in the natural
    (ascending) node order of its index set, where its bandwidth is about
    the subdomain's width in nodes. ``coarse_matrix`` is the dense
    ``R0^T A R0`` of ``coarse``, which the preconditioner factors and the
    reduced systems start from. The caller keeps them current: ``refresh``
    after each change of system.
    """

    index_sets: list
    factors: list
    coarse: CoarseSpace
    coarse_matrix: np.ndarray
    coarse_factor: Factorization

    @classmethod
    def build(cls, A, index_sets, coarse):
        factors = [factorize(A.submatrix(idx)) for idx in index_sets]
        return cls(index_sets, factors, coarse, *_coarse_factor(A, coarse))

    def refresh(self, A, coarse, changed):
        """Refactor changed subdomains and the coarse matrix for a new system."""
        for i in np.asarray(changed, dtype=np.int64).ravel():
            self.factors[i] = factorize(A.submatrix(self.index_sets[i]))
        self.coarse = coarse
        self.coarse_matrix, self.coarse_factor = _coarse_factor(A, coarse)


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
