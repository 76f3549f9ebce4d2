"""Tests for the reduced basis solver, its enrichment loop, and the CG baselines."""
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import lrbas.solver
from lrbas.decomposition import (
    CoarseSpace,
    Coupling,
    LocalOperators,
    build_decomposition,
    build_geneo_coarse,
    build_partition_of_unity,
)
from lrbas.fem import (
    DEFAULT_SCHEDULE,
    ChannelGeometry,
    Grid,
    ModificationSchedule,
    assemble,
    build_coefficient,
    problem_sequence,
)
from lrbas.linalg import ConvergenceFailure, IndefiniteMatrixError
from lrbas.solver import (
    STRATEGIES,
    LocalBasis,
    ReducedSystem,
    SolverOptions,
    append_snapshot,
    local_residual_norms,
    lrbas_solve_one,
    pcg,
    pou_snapshot_guess,
    run_sequence,
    select_enrichment,
    transition_bases,
)

SMALL_GEOMETRY = ChannelGeometry(
    channel_centers=(0.6, 0.5, 0.4),
    channel_height=0.05,
    x_left=0.1,
    x_right=0.9,
    port_length=0.05,
)

# Same layout at contrast 10: keeps the reduced systems well conditioned,
# so identities stated at solver tolerances are measurable as such.
MILD_GEOMETRY = ChannelGeometry(
    sigma_high=11.0,
    channel_centers=(0.6, 0.5, 0.4),
    channel_height=0.05,
    x_left=0.1,
    x_right=0.9,
    port_length=0.05,
)


def empty_coarse(dec):
    return CoarseSpace(dec, [np.zeros((len(idx), 0)) for idx in dec.index_sets])


def empty_ops(system, dec):
    return LocalOperators.build(system.A, empty_coarse(dec))


def empty_bases(dec):
    return [LocalBasis(len(s.indices)) for s in dec.subdomains]


def geneo_stack(m, layout, overlap, open_ports=(), tau=0.5, geometry=SMALL_GEOMETRY):
    """System, decomposition, PoU, coarse space, and local operators."""
    grid = Grid(m)
    dec = build_decomposition(grid, layout, overlap)
    pou = build_partition_of_unity(dec)
    field = build_coefficient(grid, geometry, open_ports)
    system = assemble(grid, field)
    coarse = build_geneo_coarse(dec, pou, system, field, tau)
    ops = LocalOperators.build(system.A, coarse)
    return system, dec, pou, coarse, ops


def dense_coarse(dec, coarse):
    """The coarse prolongation R0 as a dense matrix: each block on its index set."""
    R0 = np.zeros((dec.grid.n_free, coarse.n0))
    for i, (idx, b) in enumerate(zip(dec.index_sets, coarse.blocks)):
        R0[idx, coarse.columns[i]] = b
    return R0


def owners(rs):
    """The subdomain of each column of a reduced system, -1 for a coarse column."""
    owner = np.full(len(rs.rhs), -1)
    for i, q in enumerate(rs.cols):
        owner[q] = i
    return owner


def columns_of(rs, j):
    """Subdomain j's columns of a reduced system: its coarse block's, then its basis vectors'."""
    return np.r_[rs.coarse_cols[j], rs.cols[j]]


def matching_columns(rs, fresh):
    """``at`` such that column j of ``fresh`` is column ``at[j]`` of ``rs``, subdomain by subdomain."""
    at = np.empty(len(fresh.rhs), dtype=np.int64)
    for j in range(fresh.dec.n_subdomains):
        at[columns_of(fresh, j)] = columns_of(rs, j)
    return at


def coarse_block(rs):
    """The coarse Galerkin block of a reduced system's M, its columns in subdomain order."""
    q = np.r_[tuple(rs.coarse_cols)]
    return rs.M[np.ix_(q, q)]


def snapshot_system(system, dec, ops, snaps):
    """The reduced system over snapshot bases, as ``run_sequence`` builds it for pcg-guess."""
    return ReducedSystem(system, dec, ops, snaps, pivot_tol=lrbas.solver._SNAPSHOT_PIVOT_TOL)


def lifted(dec, bases):
    """The basis vectors, each lifted to the whole grid, subdomain by subdomain."""
    cols = []
    for s, b in zip(dec.subdomains, bases):
        lift = np.zeros((dec.grid.n_free, b.shape[1]))
        lift[s.indices] = b
        cols.append(lift)
    return np.hstack(cols)


# a 40 x 40 port walk whose changes wander over subdomains 4, 7, 8 and 11
# of a 4 x 4 layout and then come back to them
CARRY_WALK = ModificationSchedule(({2, 5}, {2, 3, 5}, {3, 5}, {3}, {1, 3}, {1, 3, 6}, {1, 6}))


def reduced_space_matrix(dec, coarse, bases):
    """Dense matrix whose columns span coarse plus all local basis vectors."""
    cols = [dense_coarse(dec, coarse)] if coarse.n0 else []
    for s, b in zip(dec.subdomains, bases):
        if b.dim:
            lift = np.zeros((dec.grid.n_free, b.dim))
            lift[s.indices] = b.vectors
            cols.append(lift)
    if not cols:
        return np.zeros((dec.grid.n_free, 0))
    return np.hstack(cols)


class SparseBorder:
    """The reduced system as it was assembled before the block assembly.

    A reference copy: the columns are lifted into one global sparse W,
    and each update forms ``A @ Y``, ``W^T (AY)`` and ``Y^T (AY)`` as
    sparse products and appends Y to W with ``sp.hstack``. Columns stand
    in the order ``ReducedSystem`` appends them: on construction every
    coarse block, then each subdomain's basis vectors.
    """

    def __init__(self, system, dec, ops, bases):
        self.A, self.f, self.dec, self.bases = system.A.to_scipy(), system.f, dec, bases
        self.W = sp.csc_matrix((dec.grid.n_free, 0))
        self.M, self.rhs = np.zeros((0, 0)), np.zeros(0)
        self.counts = np.zeros(dec.n_subdomains, dtype=np.int64)
        self.update(range(dec.n_subdomains), ops.coarse.blocks)
        self.update(range(dec.n_subdomains))

    def update(self, enriched, coarse_blocks=None):
        blocks = []
        for i in np.unique(np.asarray(enriched, dtype=np.int64)):
            if coarse_blocks is None:
                new = self.bases[i].vectors[:, self.counts[i]:]
                self.counts[i] += new.shape[1]
            else:
                new = coarse_blocks[i]
            if new.shape[1]:
                blocks.append((i, new))
        if not blocks:
            return
        Y = self.lift(self.dec, blocks)
        AY = self.A @ Y
        YAY = Y.T @ AY
        border = (self.W.T @ AY).toarray()
        self.M = np.block([[self.M, border], [border.T, (0.5 * (YAY + YAY.T)).toarray()]])
        self.rhs = np.r_[self.rhs, Y.T @ self.f]
        self.W = sp.hstack([self.W, Y], format="csc")

    @staticmethod
    def lift(dec, blocks):
        """Lift (subdomain, (n_i, m) column array) pairs, in order, into one sparse (n_free, k) matrix."""
        blocks = [(dec.subdomains[i].indices, b) for i, b in blocks]
        lengths = np.repeat([len(idx) for idx, _ in blocks], [b.shape[1] for _, b in blocks])
        data = np.concatenate([b.T.ravel() for _, b in blocks])
        rows = np.concatenate([np.tile(idx, b.shape[1]) for idx, b in blocks])
        return sp.csc_matrix((data, rows, np.r_[0, np.cumsum(lengths)]), shape=(dec.grid.n_free, len(lengths)))


def random_sweeps(dec, bases, systems, rng, sweeps=3):
    """Append random vectors to random subdomains' bases, updating each reduced system per sweep."""
    for _ in range(sweeps):
        enriched = np.flatnonzero(rng.random(dec.n_subdomains) < 0.5)
        for i in enriched:
            bases[i].append(rng.standard_normal(len(dec.index_sets[i])))
        for rs in systems:
            rs.update(enriched)


class TestLocalBasis:
    def test_starts_empty(self):
        b = LocalBasis(5)
        assert b.dim == 0
        assert b.vectors.shape == (5, 0)

    def test_append_normalizes(self):
        b = LocalBasis(3)
        assert b.append(np.array([2.0, 0.0, 0.0]))
        assert np.allclose(b.vectors[:, 0], [1, 0, 0])

    def test_dependent_vector_dropped(self):
        b = LocalBasis(3)
        b.append(np.array([1.0, 0.0, 0.0]))
        assert not b.append(np.array([3.0, 0.0, 0.0]))
        assert b.dim == 1

    def test_zero_vector_dropped(self):
        b = LocalBasis(3)
        assert not b.append(np.zeros(3))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="length"):
            LocalBasis(3, np.zeros((4, 1)))

    def test_append_never_writes_into_a_handed_out_array(self):
        # transition_bases and the carried reduced system hold bases
        # across a step without copies
        rng = np.random.default_rng(4)
        b = LocalBasis(6)
        for _ in range(4):
            handed = b.vectors
            before = handed.copy()
            assert b.append(rng.standard_normal(6))
            assert b.vectors is not handed and np.array_equal(handed, before)
        handed = b.vectors
        assert not b.append(b.vectors @ rng.standard_normal(b.dim))
        assert b.vectors is handed and np.array_equal(b.vectors[:, :4], handed)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_gram_matrix_stays_identity(self, seed):
        rng = np.random.default_rng(seed)
        b = LocalBasis(8)
        for _ in range(12):
            # mix of fresh directions and near-dependent ones
            y = rng.standard_normal(8)
            if b.dim and rng.random() < 0.4:
                y = b.vectors @ rng.standard_normal(b.dim) + 1e-8 * y
            b.append(y)
        gram = b.vectors.T @ b.vectors
        assert np.max(np.abs(gram - np.eye(b.dim))) < 1e-10


class TestResidualSelection:
    def test_zero_residual_no_norms_no_selection(self):
        _, dec, _, _, _ = _CACHE20()
        r = np.zeros(dec.grid.n_free)
        assert np.all(local_residual_norms(r, dec) == 0)
        assert len(select_enrichment(r, dec, 0.0)) == 0

    def test_exclusive_support_hits_one_subdomain(self):
        _, dec, _, _, _ = _CACHE20()
        r = np.zeros(dec.grid.n_free)
        r[dec.grid.free_index(3, 3)] = 2.0  # interior to subdomain 0 only
        loc = local_residual_norms(r, dec)
        assert loc[0] == 2.0 and np.all(loc[1:] == 0)
        assert np.array_equal(select_enrichment(r, dec, 0.25), [0])

    def test_local_norms_match_direct_summation(self):
        system, dec, _, _, _ = _CACHE20()
        rng = np.random.default_rng(4)
        r = rng.standard_normal(system.n)
        loc = local_residual_norms(r, dec)
        for i, s in enumerate(dec.subdomains):
            assert loc[i] == pytest.approx(np.linalg.norm(r[s.indices]), rel=1e-15)
        # overlapping sets double-count energy
        assert np.sum(loc**2) >= r @ r

    def test_threshold_arithmetic_with_hundred_subdomains(self):
        grid = Grid(40)
        dec = build_decomposition(grid, 10, 1)
        assert dec.n_subdomains == 100
        # center nodes of owned blocks lie in exactly one index set
        n33 = grid.free_index(14, 14)  # subdomain (3, 3) -> id 33
        n66 = grid.free_index(26, 26)
        n0 = grid.free_index(2, 2)
        r = np.zeros(grid.n_free)
        r[n33] = np.sqrt(0.003)
        r[n66] = np.sqrt(0.002)
        r[n0] = np.sqrt(1.0 - 0.005)
        assert r @ r == pytest.approx(1.0, rel=1e-14)
        # at eps_loc = 0.25 the per-subdomain threshold is 0.0025
        sel = select_enrichment(r, dec, 0.25)
        assert np.array_equal(sel, [0, 33])
        sel0 = select_enrichment(r, dec, 0.0)
        assert np.array_equal(sel0, [0, 33, 66])

    def test_negative_eps_loc_rejected(self):
        _, dec, _, _, _ = _CACHE20()
        with pytest.raises(ValueError, match="nonnegative"):
            select_enrichment(np.zeros(dec.grid.n_free), dec, -0.1)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_adaptive_selection_is_subset_of_exhaustive(self, seed):
        system, dec, _, _, _ = _CACHE20()
        rng = np.random.default_rng(seed)
        r = rng.standard_normal(system.n) * rng.exponential(1.0, system.n)
        s_adaptive = set(select_enrichment(r, dec, 0.25).tolist())
        s_all = set(select_enrichment(r, dec, 0.0).tolist())
        assert s_adaptive <= s_all


class TestReducedSystem:
    def test_zero_dimensional_system(self):
        system, dec, _, _, _ = _CACHE20()
        rs = ReducedSystem(system, dec, empty_ops(system, dec), empty_bases(dec))
        x, coeff = rs.solve()
        assert np.array_equal(x, np.zeros(system.n))
        assert [len(c) for c in coeff] == [0] * dec.n_subdomains

    def test_coarse_only_system(self):
        system, dec, _, coarse, ops = _CONSTANT12()
        rs = ReducedSystem(system, dec, ops, empty_bases(dec))
        R0 = dense_coarse(dec, coarse)
        A0 = R0.T @ (system.A.to_scipy() @ R0)
        # over empty bases the columns stand as the coarse space numbers
        # them, so M is the coarse matrix that the preconditioner factors
        assert np.array_equal(np.r_[tuple(rs.coarse_cols)], np.arange(coarse.n0))
        # the block assembly sums in another order than the dense product
        assert np.max(np.abs(rs.M - A0)) <= 1e-13 * np.abs(A0).max()
        # each block is formed once and mirrored
        assert np.array_equal(rs.M, rs.M.T)
        x, coeff = rs.solve()
        want = R0 @ np.linalg.solve(A0, R0.T @ system.f)
        assert np.allclose(x, want, atol=1e-10 * np.abs(want).max())
        assert [len(c) for c in coeff] == [0] * dec.n_subdomains

    def test_full_identity_basis_reproduces_exact_solution(self):
        grid = Grid(10)
        field = build_coefficient(grid, ChannelGeometry.empty())
        system = assemble(grid, field)
        dec = build_decomposition(grid, 1, 1)
        bases = [LocalBasis(system.n, np.eye(system.n))]
        rs = ReducedSystem(system, dec, empty_ops(system, dec), bases)
        x, _ = rs.solve()
        want = np.linalg.solve(system.A.to_scipy().toarray(), system.f)
        assert np.allclose(x, want, atol=1e-10 * np.abs(want).max())

    def test_galerkin_identity_after_solve(self):
        system, dec, _, coarse, ops = _MILD20()
        bases = empty_bases(dec)
        rng = np.random.default_rng(1)
        for i, s in enumerate(dec.subdomains):
            for _ in range(3):
                bases[i].append(rng.standard_normal(len(s.indices)))
        rs = ReducedSystem(system, dec, ops, bases)
        x, _ = rs.solve()
        phi = reduced_space_matrix(dec, coarse, bases)
        lhs = phi.T @ (system.A.matvec(x))
        rhs = phi.T @ system.f
        assert np.linalg.norm(lhs - rhs) <= 1e-10 * np.linalg.norm(rhs)

    def test_update_of_nothing_changes_nothing(self):
        system, dec, _, _, ops = _CACHE20()
        bases = empty_bases(dec)
        rs = ReducedSystem(system, dec, ops, bases)
        before, rhs_before = rs.M.copy(), rs.rhs.copy()
        rs.update([])
        assert np.array_equal(before, rs.M)
        assert np.array_equal(rhs_before, rs.rhs)

    def test_single_enrichment_touches_only_its_blocks(self):
        system, dec, _, coarse, ops = _CACHE20()
        rng = np.random.default_rng(2)
        bases = empty_bases(dec)
        for i, s in enumerate(dec.subdomains):
            bases[i].append(rng.standard_normal(len(s.indices)))
        rs = ReducedSystem(system, dec, ops, bases)
        M_before, rhs_before = rs.M.copy(), rs.rhs.copy()
        target = 2
        bases[target].append(rng.standard_normal(len(dec.subdomains[target].indices)))
        rs.update([target])
        # the new column is appended last; in subdomain order it closes the
        # target's block: coarse, then one column per subdomain
        pos = len(rs.rhs) - 1
        old = np.arange(pos)
        assert rs.M.shape == (len(old) + 1, len(old) + 1)
        assert np.array_equal(rs.M[np.ix_(old, old)], M_before)
        assert np.array_equal(rs.rhs[old], rhs_before)
        phi = reduced_space_matrix(dec, coarse, bases)
        at = np.argsort(owners(rs), kind="stable")  # phi column j is rs column at[j]
        assert at[coarse.n0 + target + 1] == pos
        col = phi.T @ system.A.matvec(phi[:, coarse.n0 + target + 1])
        assert np.max(np.abs(rs.M[at, pos] - col)) <= 1e-12 * np.abs(col).max()
        assert np.array_equal(rs.M[:, pos], rs.M[pos, :])
        assert rs.rhs[pos] == pytest.approx(phi[:, coarse.n0 + target + 1] @ system.f, rel=1e-12)

    def test_incremental_update_matches_fresh_assembly(self):
        system, dec, _, _, ops = _CACHE20()
        rng = np.random.default_rng(3)
        bases = empty_bases(dec)
        rs = ReducedSystem(system, dec, ops, bases)
        for sweep in range(3):
            enriched = []
            for i, s in enumerate(dec.subdomains):
                if (i + sweep) % 2 == 0:
                    bases[i].append(rng.standard_normal(len(s.indices)))
                    enriched.append(i)
            rs.update(enriched)
        fresh = ReducedSystem(system, dec, ops, bases)
        # a fresh system forms subdomain by subdomain, the incremental one
        # appended each sweep's vectors: match them by subdomain, each
        # subdomain's in basis order
        at = matching_columns(rs, fresh)
        assert np.array_equal(owners(rs)[at], owners(fresh))
        scale = np.abs(fresh.M).max()
        assert np.max(np.abs(rs.M[np.ix_(at, at)] - fresh.M)) <= 1e-12 * scale
        assert np.max(np.abs(rs.rhs[at] - fresh.rhs)) <= 1e-12 * np.abs(fresh.rhs).max()

    @pytest.mark.parametrize("stack", ["layout2", "layout4"])
    def test_block_border_matches_the_sparse_reference(self, stack):
        system, dec, _, _, ops = _CACHE20() if stack == "layout2" else _LAYOUT4()
        rng = np.random.default_rng(5)
        bases = empty_bases(dec)
        for i, idx in enumerate(dec.index_sets):
            for _ in range(1 + i % 3):
                bases[i].append(rng.standard_normal(len(idx)))
        rs = ReducedSystem(system, dec, ops, bases)
        ref = SparseBorder(system, dec, ops, bases)
        random_sweeps(dec, bases, (rs, ref), rng)
        scale = np.abs(ref.M).max()
        assert rs.M.shape == ref.M.shape
        assert np.max(np.abs(rs.M - ref.M)) <= 1e-13 * scale
        assert np.max(np.abs(rs.rhs - ref.rhs)) <= 1e-13 * np.abs(ref.rhs).max()

    def test_pairs_that_share_no_node_are_assembled(self, neighbors):
        # at 20 x 20, layout 4, overlap 2 one element column separates the
        # index sets of subdomains two apart, and A couples them
        system, dec, _, coarse, ops = _LAYOUT4()
        coupled = [(i, p[0]) for i in range(dec.n_subdomains) for p in dec.coupling.pairs[i]]
        nbrs = neighbors(dec)
        assert sum(j not in nbrs[i] for i, j in coupled) == 96
        rng = np.random.default_rng(6)
        bases = empty_bases(dec)
        rs = ReducedSystem(system, dec, ops, bases)
        random_sweeps(dec, bases, (rs,), rng)
        A = system.A.to_scipy().toarray()
        R0 = dense_coarse(dec, coarse)
        A0 = R0.T @ A @ R0
        assert np.max(np.abs(coarse_block(rs) - A0)) <= 1e-12 * np.abs(A0).max()
        phi = reduced_space_matrix(dec, coarse, bases)
        at = np.argsort(owners(rs), kind="stable")  # phi column j is rs column at[j]
        want = phi.T @ A @ phi
        assert np.max(np.abs(rs.M[np.ix_(at, at)] - want)) <= 1e-12 * np.abs(want).max()
        assert np.max(np.abs(rs.rhs[at] - phi.T @ system.f)) <= 1e-12 * np.abs(phi.T @ system.f).max()
        x, _ = rs.solve()
        c = rs.factor.solve(rs.rhs)[at]
        # relative to the summed magnitudes: the coefficients reach 1e6 and cancel
        assert np.all(np.abs(x - phi @ c) <= 1e-12 * (np.abs(phi) @ np.abs(c)))

    @pytest.mark.parametrize("move_block", [None, 1 << 12])
    def test_growing_room_stays_one_buffer(self, monkeypatch, move_block):
        # the room grows in place: the update's peak stays below the new
        # room, where a new room beside the old one would exceed it
        if move_block is not None:  # many row blocks, moved the last first
            monkeypatch.setattr(lrbas.solver, "_MOVE_BLOCK", move_block)
        system, dec, _, _, ops = _LAYOUT4()
        rng = np.random.default_rng(7)
        bases = empty_bases(dec)
        early, late = range(dec.n_subdomains // 2), range(dec.n_subdomains // 2, dec.n_subdomains)
        for i, count in [(i, 30) for i in early] + [(i, 12) for i in late]:
            for _ in range(count):
                bases[i].append(rng.standard_normal(len(dec.index_sets[i])))
        # the late subdomains' columns come in later: hide them from the build
        vectors = {i: bases[i].vectors for i in late}
        for i in late:
            bases[i].vectors = vectors[i][:, :0]
        tracemalloc.start()
        try:
            rs = ReducedSystem(system, dec, ops, bases)
            for i in late:
                bases[i].vectors = vectors[i]
            old = len(rs._room)
            start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            rs.update(late)
            rise = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert len(rs._room) > old
        assert rise < rs._room.nbytes
        # a fresh build forms each pair from the later subdomain's side, as
        # the update formed the pairs of early and late subdomains: bitwise
        fresh = ReducedSystem(system, dec, ops, bases)
        at = matching_columns(rs, fresh)
        assert np.array_equal(rs.M[np.ix_(at, at)], fresh.M)
        assert np.array_equal(rs.rhs[at], fresh.rhs)

    @pytest.mark.parametrize("move_block", [None, 1 << 8])
    @pytest.mark.parametrize("N, old, size", [(0, 0, 4), (1, 1, 2), (3, 4, 9), (50, 50, 62), (70, 80, 300), (400, 500, 625)])
    def test_grown_room_keeps_every_entry(self, monkeypatch, move_block, N, old, size):
        # rows whose new places overlap their own old ones, and blocks of
        # rows, each moved the last first within one buffer
        if move_block is not None:
            monkeypatch.setattr(lrbas.solver, "_MOVE_BLOCK", move_block)
        rs = object.__new__(ReducedSystem)
        rs._buffer = np.random.default_rng(N).standard_normal(old * old)
        rs._room = rs._buffer.reshape(old, old)
        rs.M = rs._room[:N, :N]
        kept = rs.M.copy()
        rs._grow(N, size)
        assert rs.M is None and rs._room.shape == (size, size)
        assert np.shares_memory(rs._room, rs._buffer) and rs._buffer.size == size * size
        assert np.array_equal(rs._room[:N, :N], kept)

    def test_corrupted_system_reports_indefiniteness(self):
        system, dec, _, _, ops = _CACHE20()
        rs = ReducedSystem(system, dec, ops, empty_bases(dec))
        rs.M = -rs.M
        with pytest.raises(IndefiniteMatrixError, match="reduced system not positive semidefinite"):
            rs.solve()

    def test_corrupted_border_reports_indefiniteness(self):
        system, dec, _, _, ops = _CACHE20()
        bases = empty_bases(dec)
        rs = ReducedSystem(system, dec, ops, bases)
        rs.solve()
        # the next solve factors only the appended column: corrupt it
        bases[1].append(np.random.default_rng(4).standard_normal(len(dec.subdomains[1].indices)))
        rs.update([1])
        rs.M[-1, -1] = -rs.M[-1, -1]
        with pytest.raises(IndefiniteMatrixError, match="reduced system not positive semidefinite"):
            rs.solve()


class TestCarriedSystem:
    @pytest.mark.parametrize(
        "opts",
        [SolverOptions(), SolverOptions(keep_full_bases=True), SolverOptions(strategy="pcg-guess")],
        ids=["reset", "keep-full", "snapshots"],
    )
    def test_carried_system_equals_a_fresh_build(self, monkeypatch, opts):
        grid = Grid(40)
        dec = build_decomposition(grid, 4, 2)
        probs = problem_sequence(grid, SMALL_GEOMETRY, CARRY_WALK)
        rebase, solve = ReducedSystem.rebase, ReducedSystem.solve
        fresh, prefixes, residuals = {}, [], []

        def spy_rebase(rs, system, ops, bases, changed):
            rebase(rs, system, ops, bases, changed)
            if not len(changed):  # a build, which re-bases an empty system
                return rs
            new = fresh[id(rs)] = ReducedSystem(system, dec, ops, bases, rs.pivot_tol)
            at = matching_columns(rs, new)
            assert np.max(np.abs(rs.M[np.ix_(at, at)] - new.M)) <= 1e-14 * np.abs(new.M).max()
            assert np.max(np.abs(rs.rhs[at] - new.rhs)) <= 1e-14 * np.abs(new.rhs).max()
            prefixes.append(rs.prefix is not None)
            return rs

        def spy_solve(rs):
            result = solve(rs)
            new = fresh.pop(id(rs), None)
            if new is not None:  # the first solve since the re-base, and a fresh one
                solve(new)
                residuals.append([np.linalg.norm(s.M @ s.factor.solve(s.rhs) - s.rhs) / np.linalg.norm(s.rhs) for s in (rs, new)])
            return result

        monkeypatch.setattr(ReducedSystem, "rebase", spy_rebase)
        monkeypatch.setattr(ReducedSystem, "solve", spy_solve)
        run_sequence(probs, dec, opts=opts)
        assert len(residuals) == len(probs) - 1
        # the changes wander over new subdomains, then the prefix is carried
        # (until a factor that lost accuracy is replaced, see _misses)
        assert not any(prefixes[:3]) and prefixes[3]
        # dropped columns leave a residual at the drop tolerance's level,
        # and bordering reaches it as a full factor does (measured: within
        # a factor 2.7, and below 1e-13 where nothing is dropped)
        for carried, new in residuals:
            assert carried <= max(10 * new, 1e-10)

    def test_rebase_with_every_subdomain_changed_forms_the_system_again(self):
        system, dec, _, _, ops = _CACHE20()
        rng = np.random.default_rng(7)
        bases = empty_bases(dec)
        for i, idx in enumerate(dec.index_sets):
            for _ in range(1 + i % 2):
                bases[i].append(rng.standard_normal(len(idx)))
        rs = ReducedSystem(system, dec, ops, bases)
        rs.solve()
        rs.rebase(system, ops, bases, np.arange(dec.n_subdomains))
        assert rs.prefix is None and rs.untouched == 0 and rs.touched.all()
        fresh = ReducedSystem(system, dec, ops, bases)
        # both form their columns in the one order: the coarse blocks, then the bases
        assert np.array_equal(matching_columns(rs, fresh), np.arange(len(fresh.rhs)))
        assert np.array_equal(rs.M, fresh.M)
        assert np.array_equal(rs.rhs, fresh.rhs)
        x, _ = rs.solve()
        y, _ = fresh.solve()
        assert np.array_equal(x, y)

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_one_system_per_sequence_forms_again_only_changed_blocks(self, monkeypatch, strategy):
        grid = Grid(40)
        dec = build_decomposition(grid, 4, 2)
        probs = problem_sequence(grid, SMALL_GEOMETRY, CARRY_WALK)
        init, update, rebase, local = ReducedSystem.__init__, ReducedSystem.update, ReducedSystem.rebase, Coupling.local
        log = SimpleNamespace(built=0, updating=False, formed=[], rebases=[])

        def spy_init(rs, *args, **kwargs):
            log.built += 1
            init(rs, *args, **kwargs)

        def spy_update(rs, enriched):
            log.updating = True
            try:
                return update(rs, enriched)
            finally:
                log.updating = False

        def spy_local(coupling, A, i):
            assert log.updating  # the reduced system forms every block, the coarse ones too
            log.formed.append(i)
            return local(coupling, A, i)

        def spy_rebase(rs, system, ops, bases, changed):
            start, empty = len(log.formed), set(np.flatnonzero(rs.counts == 0).tolist())
            rebase(rs, system, ops, bases, changed)
            log.rebases.append((set(np.asarray(changed).tolist()), log.formed[start:], empty))
            return rs

        for name, spy in (("__init__", spy_init), ("update", spy_update), ("rebase", spy_rebase)):
            monkeypatch.setattr(ReducedSystem, name, spy)
        monkeypatch.setattr(Coupling, "local", spy_local)
        run_sequence(probs, dec, opts=SolverOptions(strategy=strategy))
        assert log.built == 1
        # the build is a re-base too, of an empty system on no change
        assert len(log.rebases) == len(probs) and not log.rebases[0][0]
        for changed, formed, empty in log.rebases:
            assert len(formed) == len(set(formed))
            # a block is formed again only for a changed subdomain; an
            # unchanged one is formed when its first basis column comes in
            assert all(i in changed or i in empty for i in formed)
        assert any(changed & set(formed) for changed, formed, _ in log.rebases)

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_carried_coarse_block_is_the_coarse_galerkin_matrix(self, monkeypatch, strategy):
        # the one carried system holds R0^T A R0 on every system, and the
        # PCG strategies factor it for the preconditioner once per system
        grid = Grid(40)
        dec = build_decomposition(grid, 4, 2)
        probs = problem_sequence(grid, SMALL_GEOMETRY, CARRY_WALK)
        rebase, factor = ReducedSystem.rebase, lrbas.solver._coarse_factor
        carried, factored = [], []

        def spy_rebase(rs, *args):  # the build too: it re-bases an empty system
            rebase(rs, *args)
            R0 = dense_coarse(dec, rs.coarse)
            want = R0.T @ (rs.system.A.to_scipy() @ R0)
            got = coarse_block(rs)
            assert np.array_equal(got, got.T)
            assert np.max(np.abs(got - want)) <= 1e-14 * np.abs(want).max()
            carried.append(rs)
            return rs

        def spy_factor(M, cols):
            assert M is carried[-1].M and cols is carried[-1].coarse_cols
            factored.append(len(carried))
            return factor(M, cols)

        monkeypatch.setattr(ReducedSystem, "rebase", spy_rebase)
        monkeypatch.setattr(lrbas.solver, "_coarse_factor", spy_factor)
        run_sequence(probs, dec, opts=SolverOptions(strategy=strategy))
        assert len(carried) == len(probs) and len({id(rs) for rs in carried}) == 1
        assert factored == ([] if strategy == "lrbas" else list(range(1, len(probs) + 1)))


def run_at_blas_threads(threads, tests):
    """Run this file's ``tests`` in a pytest subprocess with OpenBLAS at ``threads``."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", f"{__file__}::{tests}"],
        cwd=Path(__file__).parents[1],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert run.returncode == 0, run.stdout[-3000:] + run.stderr[-3000:]
    assert f"OPENBLAS_NUM_THREADS={threads}" in run.stdout


@pytest.mark.parametrize("threads", ["1", "2"])
def test_carry_tests_pass_at_one_and_two_blas_threads(threads):
    # the roundoff of the carried system's factors depends on the BLAS
    # thread count: a column order once failed a carry test at 2 threads
    # only, while the benchmark pins 1
    run_at_blas_threads(threads, "TestCarriedSystem")


class TestPcg:
    def test_exact_preconditioner_converges_in_one_iteration(self, coarse_factor):
        grid = Grid(10)
        system = assemble(grid, build_coefficient(grid, ChannelGeometry.empty()))
        dec = build_decomposition(grid, 1, 1)
        ops = LocalOperators.build(system.A, empty_coarse(dec))
        x, iters, history = pcg(system, ops, coarse_factor(system, ops), np.zeros(system.n), 1e-10, 50)
        assert iters == 1
        want = np.linalg.solve(system.A.to_scipy().toarray(), system.f)
        assert np.allclose(x, want, atol=1e-8 * np.abs(want).max())

    def test_reported_residuals_are_true_residuals(self, coarse_factor):
        system, dec, _, _, ops = _CACHE20()
        x, iters, history = pcg(system, ops, coarse_factor(system, ops), np.zeros(system.n), 1e-8, 100)
        recomputed = np.linalg.norm(system.f - system.A.matvec(x)) / np.linalg.norm(system.f)
        assert history[-1] == pytest.approx(recomputed, rel=1e-13)
        assert history[-1] <= 1e-8
        assert len(history) == iters + 1

    def test_warm_start_reduces_initial_residual(self, coarse_factor):
        system, dec, _, _, ops = _CACHE20()
        F0 = coarse_factor(system, ops)
        x_exact = np.linalg.solve(system.A.to_scipy().toarray(), system.f)
        _, iters_cold, _ = pcg(system, ops, F0, np.zeros(system.n), 1e-8, 100)
        _, iters_warm, history = pcg(system, ops, F0, 0.999 * x_exact, 1e-8, 100)
        assert history[0] < 1e-2
        assert iters_warm <= iters_cold

    def test_nonconvergence_raises(self, coarse_factor):
        system, dec, _, _, ops = _CACHE20()
        with pytest.raises(ConvergenceFailure, match="pcg stalled at relative residual"):
            pcg(system, ops, coarse_factor(system, ops), np.zeros(system.n), 1e-12, 2)

    def test_nan_preconditioner_fails_at_once(self, monkeypatch, coarse_factor):
        system, dec, _, _, ops = _CACHE20()
        F0 = coarse_factor(system, ops)
        applied = []

        def nan_preconditioner(r, ops, coarse_factor):
            applied.append(1)
            return np.full_like(r, np.nan)

        monkeypatch.setattr(lrbas.solver, "apply_as_preconditioner", nan_preconditioner)
        with pytest.raises(ConvergenceFailure, match="pcg broke down after 0 iterations: p\\^T A p is nan") as exc:
            pcg(system, ops, F0, np.zeros(system.n), 1e-8, 200)
        assert len(applied) <= 2
        assert exc.value.report[0] == 0

    def test_nonfinite_initial_residual_fails_before_any_application(self, monkeypatch, coarse_factor):
        system, dec, _, _, ops = _CACHE20()
        F0 = coarse_factor(system, ops)

        def never(r, ops, coarse_factor):
            raise AssertionError("the preconditioner ran on a non-finite residual")

        monkeypatch.setattr(lrbas.solver, "apply_as_preconditioner", never)
        x0 = np.zeros(system.n)
        x0[0] = np.inf
        with pytest.raises(ConvergenceFailure, match="after 0 iterations: the relative residual is inf"):
            pcg(system, ops, F0, x0, 1e-8, 200)


class TestSnapshotGuess:
    def test_no_previous_solutions_gives_coarse_galerkin(self):
        system, dec, pou, coarse, ops = _CONSTANT12()
        x0 = pou_snapshot_guess(snapshot_system(system, dec, ops, empty_bases(dec)))
        R0 = dense_coarse(dec, coarse)
        A0 = R0.T @ (system.A.to_scipy() @ R0)
        want = R0 @ np.linalg.solve(A0, R0.T @ system.f)
        assert np.allclose(x0, want, atol=1e-10 * np.abs(want).max())

    def test_snapshot_of_identical_system_reproduces_solution(self):
        system, dec, pou, _, ops = _CACHE20()
        A = system.A.to_scipy().toarray()
        x_exact = np.linalg.solve(A, system.f)
        snaps = empty_bases(dec)
        append_snapshot(snaps, dec, pou, x_exact)
        x0 = pou_snapshot_guess(snapshot_system(system, dec, ops, snaps))
        err = x_exact - x0
        rel = np.sqrt(err @ (A @ err)) / np.sqrt(x_exact @ (A @ x_exact))
        assert rel < 1e-8

    def test_guess_never_worse_than_zero_in_energy_norm(self):
        # one previous solution, then a modified operator
        grid = Grid(20)
        dec = build_decomposition(grid, 2, 2)
        pou = build_partition_of_unity(dec)
        probs = problem_sequence(grid, SMALL_GEOMETRY, ModificationSchedule(({2, 5}, {5})))
        prev_x = np.linalg.solve(probs[0].system.A.to_scipy().toarray(), probs[0].system.f)
        coarse = build_geneo_coarse(dec, pou, probs[1].system, probs[1].coefficient, 0.5)
        ops = LocalOperators.build(probs[1].system.A, coarse)
        snaps = empty_bases(dec)
        append_snapshot(snaps, dec, pou, prev_x)
        x0 = pou_snapshot_guess(snapshot_system(probs[1].system, dec, ops, snaps))
        A = probs[1].system.A.to_scipy().toarray()
        x_exact = np.linalg.solve(A, probs[1].system.f)
        e = x_exact - x0
        assert np.sqrt(e @ (A @ e)) <= np.sqrt(x_exact @ (A @ x_exact)) * (1 + 1e-12)

    def test_carried_snapshots_equal_snapshots_rebuilt_from_all_solutions(self, monkeypatch):
        grid = Grid(20)
        dec = build_decomposition(grid, 2, 2)
        pou = build_partition_of_unity(dec)
        probs = problem_sequence(grid, SMALL_GEOMETRY, ModificationSchedule(({2, 5}, {5}, {2})))
        carried = []
        guess = lrbas.solver.pou_snapshot_guess

        def spy(rs):
            carried.append([b.vectors.copy() for b in rs.bases])
            return guess(rs)

        monkeypatch.setattr(lrbas.solver, "pou_snapshot_guess", spy)
        report = run_sequence(probs, dec, pou, SolverOptions(strategy="pcg-guess"))
        assert len(carried) == 3
        for k, bases in enumerate(carried):
            rebuilt = empty_bases(dec)
            for entry in report.entries[:k]:
                append_snapshot(rebuilt, dec, pou, entry.solution)
            assert all(np.array_equal(b, r.vectors) for b, r in zip(bases, rebuilt))
        assert sum(b.shape[1] for b in carried[-1]) > 0


class TestTransitionBases:
    def _basis_pair(self, rng, n=12, start=2, extra=2):
        b0 = LocalBasis(n)
        for _ in range(start):
            b0.append(rng.standard_normal(n))
        b1 = LocalBasis(n, b0.vectors.copy())
        for _ in range(extra):
            b1.append(rng.standard_normal(n))
        return b0, b1

    def test_unenriched_basis_carried_unchanged(self):
        rng = np.random.default_rng(0)
        b0, _ = self._basis_pair(rng, extra=0)
        out = transition_bases([b0.dim], [LocalBasis(b0.n, b0.vectors.copy())], [np.zeros(b0.dim)], keep_full=False)
        assert np.array_equal(out[0].vectors, b0.vectors)

    def test_solution_only_transition_appends_one_vector(self):
        rng = np.random.default_rng(1)
        b0, b1 = self._basis_pair(rng)
        ci = rng.standard_normal(b1.dim)
        out = transition_bases([b0.dim], [b1], [ci], keep_full=False)
        assert out[0].dim == b0.dim + 1
        # the appended direction keeps the solution vector in the span
        sol = b1.vectors @ ci
        proj = out[0].vectors @ (out[0].vectors.T @ sol)
        assert np.allclose(proj, sol, atol=1e-10 * np.linalg.norm(sol))

    def test_dependent_solution_vector_dropped(self):
        rng = np.random.default_rng(2)
        b0, b1 = self._basis_pair(rng)
        ci = np.zeros(b1.dim)
        ci[0] = 1.0  # solution lies in the carried part already
        out = transition_bases([b0.dim], [b1], [ci], keep_full=False)
        assert out[0].dim == b0.dim

    def test_keep_full_carries_entire_basis(self):
        rng = np.random.default_rng(3)
        b0, b1 = self._basis_pair(rng)
        out = transition_bases([b0.dim], [b1], [np.zeros(b1.dim)], keep_full=True)
        assert np.array_equal(out[0].vectors, b1.vectors)

    @pytest.mark.parametrize("keep_full", [False, True])
    def test_carried_bases_are_the_same_objects(self, keep_full):
        # a kept-full or unenriched basis is carried without a copy; a reset
        # one starts from a copy of the initial part, bitwise the same
        rng = np.random.default_rng(4)
        (b0, b1), (c0, c1) = self._basis_pair(rng), self._basis_pair(rng, extra=0)
        out = transition_bases([b0.dim, c0.dim], [b1, c1], [rng.standard_normal(b1.dim), np.zeros(c1.dim)], keep_full)
        assert out[1] is c1
        if keep_full:
            assert out[0] is b1
        else:
            assert out[0] is not b1 and out[0].vectors.flags.c_contiguous
            assert np.array_equal(out[0].vectors[:, : b0.dim], b0.vectors)
            assert not np.shares_memory(out[0].vectors, b1.vectors)


class TestSolveOne:
    def test_invariants_along_the_iteration(self, spy_solver):
        # Galerkin orthogonality, exhaustive-enrichment identity, and
        # energy-norm monotonicity, checked against a dense solve.
        system, dec, pou, coarse, ops = _MILD20()
        opts = SolverOptions(eps=1e-6, eps_loc=0.0)
        bases = empty_bases(dec)
        (x, coeff, iters, corrections, history), log = spy_solver(
            lrbas_solve_one, ReducedSystem(system, dec, ops, bases), ops, opts
        )
        A = system.A.to_scipy().toarray()
        x_exact = np.linalg.solve(A, system.f)
        anorm = lambda v: np.sqrt(max(v @ (A @ v), 0.0))

        residuals = [system.f - system.A.matvec(xt) for xt in log.iterates]
        raw = iter(log.raw_vectors)
        replay = empty_bases(dec)
        errs = []
        for l, (xt, rt) in enumerate(zip(log.iterates, residuals)):
            e = x_exact - xt
            errs.append(anorm(e))
            phi = reduced_space_matrix(dec, coarse, replay)
            if phi.shape[1]:
                # error A-orthogonal to the space of this iteration
                col_norms = np.sqrt(np.maximum(np.sum(phi * (A @ phi), axis=0), 1e-300))
                ortho = np.abs(phi.T @ (A @ e)) / (col_norms * max(errs[-1], 1e-300))
                assert np.max(ortho) < 1e-8
            if l < len(log.selections):
                sel = log.selections[l]
                # every applied correction equals the local solve of the
                # recomputed residual
                for i in sel:
                    idx = dec.subdomains[i].indices
                    Ai = A[np.ix_(idx, idx)]
                    want = np.linalg.solve(Ai, rt[idx])
                    got = next(raw)
                    assert np.linalg.norm(got - want) <= 1e-12 * max(np.linalg.norm(want), 1e-300)
                    replay[i].append(got)
        # exhaustive enrichment: every subdomain with residual mass is selected
        for l, sel in enumerate(log.selections):
            nz = np.flatnonzero(local_residual_norms(residuals[l], dec) > 0)
            assert np.array_equal(sel, nz)
        # nested spaces give non-increasing energy error
        for a, b in zip(errs, errs[1:]):
            assert b <= a * (1 + 1e-10)
        assert history[-1] <= 1e-6
        assert corrections.sum() == sum(len(s) for s in log.selections) == len(log.raw_vectors)
        assert iters == len(history) - 1

    def test_single_subdomain_converges_in_one_sweep(self):
        grid = Grid(10)
        system = assemble(grid, build_coefficient(grid, ChannelGeometry.empty()))
        dec = build_decomposition(grid, 1, 1)
        ops = LocalOperators.build(system.A, empty_coarse(dec))
        opts = SolverOptions(eps=1e-10, eps_loc=0.0)
        x, _, iters, corrections, history = lrbas_solve_one(ReducedSystem(system, dec, ops, empty_bases(dec)), ops, opts)
        assert iters == 1
        assert corrections.sum() == 1
        want = np.linalg.solve(system.A.to_scipy().toarray(), system.f)
        assert np.allclose(x, want, atol=1e-8 * np.abs(want).max())

    def test_max_iter_exhaustion_raises_with_partial_report(self):
        system, dec, _, _, ops = _CACHE20()
        opts = SolverOptions(eps=1e-12, eps_loc=0.25, max_iter=1)
        with pytest.raises(ConvergenceFailure) as info:
            lrbas_solve_one(ReducedSystem(system, dec, ops, empty_bases(dec)), ops, opts)
        iters, corrections, history, x = info.value.report
        assert iters == 1
        assert len(history) == 2
        assert corrections.sum() > 0

    @pytest.mark.parametrize(
        "eps_loc, dependent, cause",
        [(5.0, False, "no subdomain passed the eps_loc test"), (0.25, True, "every correction was dependent")],
        ids=["nothing-selected", "all-dependent"],
    )
    def test_sweep_that_appends_nothing_fails_at_once(self, monkeypatch, eps_loc, dependent, cause):
        system, dec, _, _, ops = _CACHE20()
        if dependent:
            monkeypatch.setattr(LocalBasis, "append", lambda basis, y: False)
        opts = SolverOptions(eps=1e-12, eps_loc=eps_loc, max_iter=200)
        with pytest.raises(ConvergenceFailure, match=cause) as info:
            lrbas_solve_one(ReducedSystem(system, dec, ops, empty_bases(dec)), ops, opts)
        iters, corrections, history, x = info.value.report
        assert iters == 0
        assert len(history) == 1
        assert (corrections.sum() > 0) == dependent

    def test_nan_residual_is_not_converged(self):
        system, dec, _, _, ops = _CACHE20()
        f = system.f.copy()
        f[0] = np.nan
        opts = SolverOptions(max_iter=2)
        with pytest.raises(ConvergenceFailure, match="stalled at relative residual nan"):
            lrbas_solve_one(ReducedSystem(replace(system, f=f), dec, ops, empty_bases(dec)), ops, opts)


def mpcg(A, f, dec, W0, eps, eps_loc, max_iter=50):
    """Dense reference for multipreconditioned CG: Galerkin solutions over growing spans.

    In exact arithmetic, MPCG with full orthogonalization, deflated by the
    columns of W0 and started from their Galerkin solution, gives at step
    j the Galerkin solution over W0 and every search block so far. The
    block of step j holds ``R_i^T A_i^-1 R_i r_j`` for every subdomain
    that ``select_enrichment`` picks on the reference's own residual.
    With ``A = C C^T``, a Householder QR ``C^T W = Q R`` gives that
    solution as ``x = C^-T Q Q^T C^-1 f``, with no Gram-Schmidt sweep to
    lose accuracy. Returns the relative residual history and the iterates.
    """
    C = np.linalg.cholesky(A)
    y = sla.solve_triangular(C, f, lower=True)
    V = C.T @ W0

    def galerkin():
        Q = sla.qr(V, mode="economic")[0]
        return sla.solve_triangular(C, Q @ (Q.T @ y), lower=True, trans=1)

    x = galerkin() if V.shape[1] else np.zeros(len(f))
    r = f - A @ x
    history, iterates = [np.linalg.norm(r) / np.linalg.norm(f)], [x]
    while history[-1] > eps and len(history) <= max_iter:
        selected = select_enrichment(r, dec, eps_loc)
        P = np.zeros((len(f), len(selected)))
        for c, i in enumerate(selected):
            idx = dec.subdomains[i].indices
            P[idx, c] = np.linalg.solve(A[np.ix_(idx, idx)], r[idx])
        V = np.hstack([V, C.T @ P])
        x = galerkin()
        r = f - A @ x
        history.append(np.linalg.norm(r) / np.linalg.norm(f))
        iterates.append(x)
    return history, iterates


class TestMpcgOracle:
    # measured gaps of system 1 (OpenBLAS 1 and 2 threads): residual
    # histories 3.6e-10 (mild) and 1.7e-8 (paper), iterates 9e-14 and
    # 7e-12 in the energy norm
    @pytest.mark.parametrize("eps_loc", [0.0, 0.25])
    @pytest.mark.parametrize(
        "geometry, history_tol", [(MILD_GEOMETRY, 1e-8), (ChannelGeometry(), 1e-6)], ids=["mild", "paper"]
    )
    def test_reduced_solves_are_mpcg_iterates(self, spy_solver, geometry, history_tol, eps_loc):
        # in exact arithmetic, and while no direction is dropped, each
        # reduced solve of a system is an iterate of the coarse-deflated
        # multipreconditioned CG over the selected local corrections
        grid = Grid(40)
        dec = build_decomposition(grid, 4, 2)
        pou = build_partition_of_unity(dec)
        prob = problem_sequence(grid, geometry, DEFAULT_SCHEDULE)[0]
        coarse = build_geneo_coarse(dec, pou, prob.system, prob.coefficient, 0.5)
        ops = LocalOperators.build(prob.system.A, coarse)
        opts = SolverOptions(eps_loc=eps_loc)
        rs = ReducedSystem(prob.system, dec, ops, empty_bases(dec))
        (_, _, iters, _, history), log = spy_solver(lrbas_solve_one, rs, ops, opts)
        A = prob.system.A.to_scipy().toarray()
        want, iterates = mpcg(A, prob.system.f, dec, dense_coarse(dec, coarse), opts.eps, eps_loc)
        assert iters == len(want) - 1 > 0
        assert np.max(np.abs(np.subtract(history, want)) / want) <= history_tol
        energy = lambda v: np.sqrt(v @ (A @ v))
        assert max(energy(x - y) / energy(y) for x, y in zip(log.iterates, iterates, strict=True)) <= 1e-10

    @pytest.mark.parametrize(
        "geometry, history_tol, eps_loc",
        [
            (MILD_GEOMETRY, 1e-8, 0.0),
            (MILD_GEOMETRY, 1e-8, 0.25),
            # at contrast 1e5 the histories part by up to 6.1e-7 (eps_loc 0)
            # and 7.5e-8 (0.25) relative, the iterates by 1.7e-12 in the
            # energy norm (OpenBLAS 1 and 2 threads)
            (SMALL_GEOMETRY, 1e-6, 0.0),
            (SMALL_GEOMETRY, 1e-6, 0.25),
        ],
        ids=["mild-0.0", "mild-0.25", "contrast-0.0", "contrast-0.25"],
    )
    def test_second_system_deflates_the_carried_bases(self, monkeypatch, spy_solver, geometry, history_tol, eps_loc):
        # system 2 starts from the bases carried out of system 1, which the
        # re-based reduced system holds with the new coarse space: its
        # solves are the MPCG iterates deflated by both
        grid = Grid(40)
        dec = build_decomposition(grid, 4, 2)
        probs = problem_sequence(grid, geometry, DEFAULT_SCHEDULE)[:2]
        starts = []
        solve_one = lrbas.solver.lrbas_solve_one

        def spy(rs, ops, opts):
            starts.append((rs.coarse, [b.vectors.copy() for b in rs.bases]))
            return solve_one(rs, ops, opts)

        monkeypatch.setattr(lrbas.solver, "lrbas_solve_one", spy)
        opts = SolverOptions(eps_loc=eps_loc)
        report, log = spy_solver(run_sequence, probs, dec, opts=opts)
        coarse, carried = starts[1]
        assert sum(b.shape[1] for b in carried) > 0
        second = report.entries[1]
        A = probs[1].system.A.to_scipy().toarray()
        deflation = np.hstack([dense_coarse(dec, coarse), lifted(dec, carried)])
        want, iterates = mpcg(A, probs[1].system.f, dec, deflation, opts.eps, eps_loc)
        assert second.iterations == len(want) - 1 > 0
        assert np.max(np.abs(np.subtract(second.residual_history, want)) / want) <= history_tol
        energy = lambda v: np.sqrt(v @ (A @ v))
        got = log.iterates[report.entries[0].coarse_solves :]
        assert max(energy(x - y) / energy(y) for x, y in zip(got, iterates, strict=True)) <= 1e-10


@pytest.mark.parametrize("threads", ["1", "2"])
def test_oracle_tests_pass_at_one_and_two_blas_threads(threads):
    # the reference and the solver round differently at each thread count;
    # the oracle's bounds must hold at both
    run_at_blas_threads(threads, "TestMpcgOracle")


class TestRunSequence:
    def test_all_strategies_match_reference_solutions(self):
        grid = Grid(20)
        dec = build_decomposition(grid, 2, 2)
        probs = problem_sequence(grid, MILD_GEOMETRY, DEFAULT_SCHEDULE)
        exact = [
            np.linalg.solve(p.system.A.to_scipy().toarray(), p.system.f) for p in probs
        ]
        configs = [
            SolverOptions(strategy="pcg"),
            SolverOptions(strategy="pcg-guess"),
            SolverOptions(strategy="lrbas", eps_loc=0.25),
            SolverOptions(strategy="lrbas", eps_loc=0.0),
            SolverOptions(strategy="lrbas", eps_loc=0.25, keep_full_bases=True),
            SolverOptions(strategy="lrbas", eps_loc=0.0, keep_full_bases=True),
        ]
        for opts in configs:
            report = run_sequence(probs, dec, opts=opts)
            assert len(report.entries) == 5
            for entry, want in zip(report.entries, exact):
                rel = np.linalg.norm(entry.solution - want) / np.linalg.norm(want)
                assert rel <= 1e-5, (opts.strategy, opts.eps_loc, entry.k, rel)
                assert entry.final_relative_residual <= opts.eps

    def test_reported_residuals_are_recomputable(self):
        grid = Grid(20)
        dec = build_decomposition(grid, 2, 2)
        probs = problem_sequence(grid, SMALL_GEOMETRY, DEFAULT_SCHEDULE)
        report = run_sequence(probs, dec, opts=SolverOptions(strategy="lrbas"))
        for prob, entry in zip(probs, report.entries):
            r = prob.system.f - prob.system.A.matvec(entry.solution)
            rel = np.linalg.norm(r) / np.linalg.norm(prob.system.f)
            assert entry.final_relative_residual == pytest.approx(rel, rel=1e-13)

    def test_identical_consecutive_systems_are_free(self):
        grid = Grid(20)
        dec = build_decomposition(grid, 2, 2)
        probs = problem_sequence(grid, SMALL_GEOMETRY, ModificationSchedule(({5}, {5})))
        report = run_sequence(probs, dec, opts=SolverOptions(strategy="lrbas"))
        assert report.entries[1].iterations == 0
        assert report.entries[1].total_corrections == 0
        assert report.entries[1].final_relative_residual <= 1e-6

    def test_accounting_conventions(self):
        grid = Grid(20)
        dec = build_decomposition(grid, 2, 2)
        probs = problem_sequence(grid, SMALL_GEOMETRY, ModificationSchedule(({2, 5}, {5})))
        lr = run_sequence(probs, dec, opts=SolverOptions(strategy="lrbas"))
        for entry in lr.entries:
            assert entry.coarse_solves == entry.iterations + 1
            assert len(entry.residual_history) == entry.iterations + 1
        cg = run_sequence(probs, dec, opts=SolverOptions(strategy="pcg"))
        for entry in cg.entries:
            assert np.all(entry.corrections == entry.iterations)
            assert entry.total_corrections == dec.n_subdomains * entry.iterations
            assert entry.coarse_solves == entry.iterations
        cgg = run_sequence(probs, dec, opts=SolverOptions(strategy="pcg-guess"))
        for entry in cgg.entries:
            assert entry.coarse_solves == entry.iterations + 1
        assert cg.total_iterations == sum(e.iterations for e in cg.entries)
        assert cg.total_corrections == sum(e.total_corrections for e in cg.entries)
        assert cg.total_coarse_solves == sum(e.coarse_solves for e in cg.entries)

    def test_nonconvergence_names_the_step(self):
        grid = Grid(20)
        dec = build_decomposition(grid, 2, 2)
        probs = problem_sequence(grid, SMALL_GEOMETRY, ModificationSchedule(({2, 5},)))
        opts = SolverOptions(strategy="lrbas", eps=1e-13, max_iter=2)
        with pytest.raises(ConvergenceFailure, match="step 1"):
            run_sequence(probs, dec, opts=opts)

    def test_keep_full_bases_never_shrink(self, spy_solver):
        grid = Grid(20)
        dec = build_decomposition(grid, 2, 2)
        probs = problem_sequence(grid, SMALL_GEOMETRY, DEFAULT_SCHEDULE)
        opts = SolverOptions(strategy="lrbas", keep_full_bases=True)
        report, log = spy_solver(run_sequence, probs, dec, opts=opts)
        # each step makes one reduced solve per coarse solve; compare the
        # basis part only: the coarse dimension moves when changed
        # subdomains recompute their spectral vectors
        ends = np.cumsum([e.coarse_solves for e in report.entries])[:-1]
        steps = np.split(np.asarray(log.reduced_dims), ends)
        dims = [d - e.geneo_counts.sum() for d, e in zip(steps, report.entries)]
        for prev, cur in zip(dims, dims[1:]):
            assert cur[0] >= prev[-1]

    def test_sequences_share_no_state(self):
        # the per-decomposition structures are built on first use; a second
        # sequence on the same decomposition, or one on a fresh
        # decomposition, must repeat the first bit for bit
        grid = Grid(20)
        walk = ModificationSchedule(({2, 5}, {2, 3, 5}, {3, 5}, {3}, {1, 3}, {1, 3, 6}, {1, 6}))
        probs = problem_sequence(grid, SMALL_GEOMETRY, walk)
        dec = build_decomposition(grid, 4, 2)
        for strategy in ("lrbas", "pcg-guess"):
            opts = SolverOptions(strategy=strategy)
            first = run_sequence(probs, dec, opts=opts)
            assert first.total_iterations > 0
            for other in (run_sequence(probs, dec, opts=opts), run_sequence(probs, build_decomposition(grid, 4, 2), opts=opts)):
                for a, b in zip(first.entries, other.entries, strict=True):
                    assert (a.k, a.iterations, a.coarse_solves) == (b.k, b.iterations, b.coarse_solves)
                    assert a.residual_history == b.residual_history
                    for u, v in ((a.corrections, b.corrections), (a.geneo_counts, b.geneo_counts), (a.solution, b.solution)):
                        assert np.array_equal(u, v)

    def test_geneo_counts_recorded(self):
        grid = Grid(20)
        dec = build_decomposition(grid, 2, 2)
        probs = problem_sequence(grid, SMALL_GEOMETRY, ModificationSchedule(({2, 5},)))
        report = run_sequence(probs, dec, opts=SolverOptions(strategy="lrbas"))
        assert report.entries[0].geneo_counts.shape == (4,)
        assert report.entries[0].geneo_counts.sum() > 0


class TestSolverOptions:
    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError, match="unknown strategy"):
            SolverOptions(strategy="jacobi")

    def test_invalid_numeric_options_rejected(self):
        with pytest.raises(ValueError):
            SolverOptions(eps=0.0)
        with pytest.raises(ValueError):
            SolverOptions(eps_loc=-1.0)
        with pytest.raises(ValueError):
            SolverOptions(max_iter=0)
        with pytest.raises(ValueError):
            SolverOptions(eps=float("nan"))
        for tau in (0.0, -1.0, float("nan")):
            with pytest.raises(ValueError, match="tau must be positive"):
                SolverOptions(tau=tau)
        for name in ("eps", "eps_loc", "tau"):
            with pytest.raises(ValueError, match=f"^{name} must be .* finite"):
                SolverOptions(**{name: float("inf")})


_CACHE = {}


def _CACHE20():
    """Shared 20x20 stack with a two-level coarse space (read-only in tests)."""
    if "s" not in _CACHE:
        _CACHE["s"] = geneo_stack(20, 2, 2, open_ports={2, 5})
    return _CACHE["s"]


def _LAYOUT4():
    """The 20x20 stack on 4x4 subdomains, where A couples index sets that share no node."""
    if "4" not in _CACHE:
        _CACHE["4"] = geneo_stack(20, 4, 2, open_ports={2, 5})
    return _CACHE["4"]


def _MILD20():
    """The 20x20 stack at contrast 10 (well-conditioned reduced systems)."""
    if "m" not in _CACHE:
        _CACHE["m"] = geneo_stack(20, 2, 2, open_ports={2, 5}, geometry=MILD_GEOMETRY)
    return _CACHE["m"]


def _CONSTANT12():
    """Unit-coefficient 3x3 stack whose coarse space is three weighted constants."""
    if "c" not in _CACHE:
        grid = Grid(12)
        dec = build_decomposition(grid, 3, 2)
        pou = build_partition_of_unity(dec)
        field = build_coefficient(grid, ChannelGeometry.empty())
        system = assemble(grid, field)
        coarse = build_geneo_coarse(dec, pou, system, field, 1e-6)
        ops = LocalOperators.build(system.A, coarse)
        _CACHE["c"] = (system, dec, pou, coarse, ops)
    return _CACHE["c"]
