"""Tests for the overlapping decomposition, partition of unity, and coarse space."""
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import eigvalsh_tridiagonal
from scipy.sparse.linalg import ArpackNoConvergence

import lrbas.decomposition
import lrbas.linalg
import lrbas.solver
from lrbas.decomposition import (
    CoarseSpace,
    LocalOperators,
    apply_as_preconditioner,
    build_decomposition,
    build_geneo_coarse,
    build_partition_of_unity,
    detect_changed_subdomains,
)
from lrbas.fem import (
    DEFAULT_SCHEDULE,
    ChannelGeometry,
    CoefficientField,
    Grid,
    ModificationSchedule,
    assemble,
    assemble_local_neumann,
    build_coefficient,
    problem_sequence,
)
from lrbas.fem import _pattern_digest
from lrbas.linalg import SparseSymMatrix, sym_gen_eig
from lrbas.solver import SolverOptions, run_sequence

SMALL_GEOMETRY = ChannelGeometry(
    channel_centers=(0.6, 0.5, 0.4),
    channel_height=0.05,
    x_left=0.1,
    x_right=0.9,
    port_length=0.05,
)


def empty_coarse(dec):
    return CoarseSpace(dec, [np.zeros((len(idx), 0)) for idx in dec.index_sets])


def dense_coarse(dec, coarse):
    """The coarse prolongation R0 as a dense matrix: each block on its index set."""
    R0 = np.zeros((dec.grid.n_free, coarse.n0))
    for i, (idx, b) in enumerate(zip(dec.index_sets, coarse.blocks)):
        R0[idx, coarse.columns[i]] = b
    return R0


def band_to_dense(band):
    """The lower triangular L whose transpose ``band`` holds in LAPACK upper
    band storage, ``band[-1 - d, j] = L[j, j - d]``."""
    n = band.shape[1]
    return sp.dia_matrix((band[::-1], np.arange(len(band))), shape=(n, n)).toarray().T


def bandwidth(M):
    """Largest |i - j| over the stored entries of a sparse matrix."""
    coo = M.tocoo()
    return int(np.abs(coo.row - coo.col).max(initial=0))


def high_contrast_field(grid, seed):
    """Element conductivities log-uniform over ten decades."""
    rng = np.random.default_rng(seed)
    return CoefficientField(grid, 10.0 ** rng.uniform(-5.0, 5.0, (grid.m, grid.m)))


def small_geneo_problem():
    """The 40 x 40, 4 x 4, overlap 2 channel problem with ports 2 and 5 open."""
    grid = Grid(40)
    dec = build_decomposition(grid, 4, 2)
    pou = build_partition_of_unity(dec)
    field = build_coefficient(grid, SMALL_GEOMETRY, open_ports={2, 5})
    system = assemble(grid, field)
    return dec, pou, system, field


def pencil(dec, pou, system, field, i):
    """Subdomain i's GenEO pencil ``K_neu``, ``D A_i D + delta I`` and its weights D."""
    idx = dec.index_sets[i]
    D = pou.local[i]
    A = system.A.to_scipy()
    B = sp.diags(D) @ A[idx][:, idx] @ sp.diags(D)
    B = (B + 1e-12 * B.diagonal().max() * sp.identity(len(idx))).tocsr()
    K, _ = assemble_local_neumann(dec.grid, field, dec.extended_elements(i))
    return K, B, D


def csr_bytes(*matrices):
    """The exact bytes of CSR matrices: equal only for byte-identical matrices."""
    return tuple((M.shape, M.indptr.tobytes(), M.indices.tobytes(), M.data.tobytes()) for M in matrices)


def distinct_pencils(dec, pou, system, field):
    return len({csr_bytes(*pencil(dec, pou, system, field, i)[:2]) for i in range(dec.n_subdomains)})


def principal(A, idx):
    """``A[idx, idx]`` of a system matrix by scipy's indexing, a reference independent of the plans."""
    return A.to_scipy()[idx][:, idx]


def changed_local_matrices(dec, before, after):
    """Subdomains whose A_i differs entrywise between two system matrices."""
    return [
        i for i, idx in enumerate(dec.index_sets) if (principal(before, idx) != principal(after, idx)).nnz
    ]


class TestBuildDecomposition:
    def test_paper_layout_interior_subdomain(self):
        dec = build_decomposition(Grid(200), 10, 4)
        s = dec.subdomains[44]  # (p, q) = (4, 4), away from every boundary
        assert s.extended == ((76, 103), (76, 103))
        assert len(s.indices) == 841  # (20 + 2*4 + 1)^2 nodes, none Dirichlet
        assert len(dec.extended_elements(44)) == 28 * 28

    def test_paper_layout_neighbor_counts(self, neighbors):
        dec = build_decomposition(Grid(200), 10, 4)
        nbrs = neighbors(dec)
        assert len(nbrs[44]) == 9
        assert len(nbrs[0]) == 4
        assert all(i in nbrs[i] for i in range(dec.n_subdomains))
        assert max(len(nb) for nb in nbrs) <= 9

    def test_extended_blocks_clip_at_boundary(self):
        dec = build_decomposition(Grid(200), 10, 4)
        assert dec.subdomains[0].extended == ((0, 23), (0, 23))
        assert dec.subdomains[99].extended == ((176, 199), (176, 199))

    def test_index_sets_cover_free_nodes(self):
        grid = Grid(12)
        dec = build_decomposition(grid, 3, 2)
        covered = np.zeros(grid.n_free, dtype=bool)
        for idx in dec.index_sets:
            covered[idx] = True
        assert covered.all()

    def test_neighbors_match_index_set_intersections(self, neighbors):
        dec = build_decomposition(Grid(40), 4, 2)
        nbrs = neighbors(dec)
        sets = [set(idx.tolist()) for idx in dec.index_sets]
        for i in range(dec.n_subdomains):
            for j in range(dec.n_subdomains):
                intersects = bool(sets[i] & sets[j])
                assert intersects == (j in nbrs[i])
            assert list(nbrs[i]) == sorted(nbrs[i])

    def test_index_sets_are_segments_of_one_stacked_array(self):
        dec = build_decomposition(Grid(20), 4, 2)
        assert np.array_equal(dec.stacked, np.concatenate(dec.index_sets))
        assert not dec.stacked.flags.writeable
        for i, (s, seg) in enumerate(zip(dec.subdomains, dec.segments)):
            assert s.indices is dec.index_sets[i] and np.shares_memory(s.indices, dec.stacked)
            assert (seg.start, seg.stop) == (dec.bounds[i], dec.bounds[i + 1])
            assert np.array_equal(dec.stacked[seg], s.indices)
        # scatter is the transpose of gather
        rng = np.random.default_rng(8)
        v, u = rng.standard_normal(dec.grid.n_free), rng.standard_normal(len(dec.stacked))
        assert u @ dec.gather(v) == pytest.approx(dec.scatter(u) @ v, rel=1e-13)
        want = np.zeros(dec.grid.n_free)
        for idx, seg in zip(dec.index_sets, dec.segments):
            want[idx] += u[seg]
        assert np.array_equal(dec.scatter(u), want)

    @pytest.mark.parametrize("extra", [-1, 1])
    def test_gather_rejects_a_vector_of_another_length(self, extra):
        dec = build_decomposition(Grid(12), 3, 2)
        with pytest.raises(ValueError, match="free nodes"):
            dec.gather(np.zeros(dec.grid.n_free + extra))

    def test_invalid_layout_rejected(self):
        with pytest.raises(ValueError, match="does not divide"):
            build_decomposition(Grid(10), 3, 1)

    def test_zero_overlap_rejected(self):
        with pytest.raises(ValueError, match="overlap"):
            build_decomposition(Grid(10), 2, 0)


class TestCoupling:
    @pytest.mark.parametrize("m, layout, overlap", [(12, 3, 2), (20, 4, 2), (40, 4, 2), (40, 8, 2)])
    def test_pairs_and_maps_follow_the_pattern_of_A(self, m, layout, overlap):
        grid = Grid(m)
        dec = build_decomposition(grid, layout, overlap)
        system = assemble(grid, build_coefficient(grid, SMALL_GEOMETRY, open_ports={2, 5}))
        A = system.A.to_scipy()
        S = dec.incidence
        pattern = abs(S.T @ abs(A) @ S).toarray() > 0
        plan = dec.coupling
        for i, idx in enumerate(dec.index_sets):
            ext = np.flatnonzero(abs(A[:, idx]).sum(axis=1))
            assert np.array_equal(plan.local(system.A, i).toarray(), A[ext][:, idx].toarray())
            assert sorted(p[0] for p in plan.pairs[i]) == np.flatnonzero(pattern[:, i]).tolist()
            for j, r, off, s in plan.pairs[i]:
                shared = np.intersect1d(dec.index_sets[j], ext)
                in_range = dec.index_sets[j][r]
                assert np.array_equal(in_range if off is None else in_range[off], shared)
                assert in_range[0] == shared[0] and in_range[-1] == shared[-1]
                assert np.array_equal(ext[plan.shared[i][s]], shared)

    @pytest.mark.parametrize("m, layout, coupled", [(20, 4, 96), (40, 8, 672)])
    def test_index_sets_that_share_no_node_can_be_coupled(self, neighbors, m, layout, coupled):
        # w - 2 overlap = 1: one element column lies between the index
        # sets of subdomains two apart, and its element couples them
        dec = build_decomposition(Grid(m), layout, 2)
        nbrs = neighbors(dec)
        pairs = [(i, p[0]) for i in range(dec.n_subdomains) for p in dec.coupling.pairs[i]]
        assert sum(j not in nbrs[i] for i, j in pairs) == coupled

    def test_matrix_of_another_pattern_rejected(self):
        grid = Grid(12)
        dec = build_decomposition(grid, 3, 2)
        system = assemble(grid, build_coefficient(grid, SMALL_GEOMETRY))
        other = SparseSymMatrix(sp.identity(grid.n_free, format="csr"))
        assert dec.coupling.local(system.A, 0).shape[1] == len(dec.index_sets[0])
        with pytest.raises(ValueError, match="sparsity pattern"):
            dec.coupling.local(other, 0)

    def test_matrix_on_the_grids_row_pointers_with_other_columns_rejected(self):
        grid = Grid(12)
        dec = build_decomposition(grid, 3, 2)
        A = assemble(grid, build_coefficient(grid, SMALL_GEOMETRY)).A.to_scipy()
        indices = A.indices.copy()
        indices[A.indptr[5] : A.indptr[6]] += 1  # row 5 still sorted and in range
        shifted = SparseSymMatrix(sp.csr_matrix((A.data, indices, A.indptr), shape=A.shape))
        assert shifted.to_scipy().indptr is A.indptr
        for i in range(dec.n_subdomains):
            for gather in (dec.coupling.local, dec.coupling.principal):
                with pytest.raises(ValueError, match="sparsity pattern"):
                    gather(shifted, i)


class TestPrincipalSubmatrix:
    # Coupling.principal gathers A_i = A[idx_i, idx_i] through one plan per
    # shape of index set; scipy's row and column indexing is the reference

    @staticmethod
    def assert_bitwise(got, want):
        assert got.shape == want.shape
        for a, b in ((got.data, want.data), (got.indices, want.indices), (got.indptr, want.indptr)):
            assert a.dtype == b.dtype and np.array_equal(a, b)

    @pytest.mark.parametrize("layout", range(2, 11))
    def test_gathered_matrices_are_scipys_bitwise(self, layout):
        # every subdomain at overlaps 1-4, those clipped at the boundary included
        grid = Grid(4 * layout)
        system = assemble(grid, high_contrast_field(grid, layout))
        for overlap in range(1, 5):
            dec = build_decomposition(grid, layout, overlap)
            for i, idx in enumerate(dec.index_sets):
                A_i, pattern = dec.coupling.principal(system.A, i)
                self.assert_bitwise(A_i, principal(system.A, idx))
                assert pattern == _pattern_digest(A_i.indices, A_i.indptr)

    def test_adjacent_nodes_keep_their_coupling(self):
        grid = Grid(4)
        dec = build_decomposition(grid, 2, 1)
        system = assemble(grid, high_contrast_field(grid, 0))
        A = system.A.to_scipy().toarray()
        for i, idx in enumerate(dec.index_sets):
            A_i = dec.coupling.principal(system.A, i)[0].toarray()
            row = idx // (grid.m - 1)
            for k in np.flatnonzero((np.diff(idx) == 1) & (row[1:] == row[:-1])):  # horizontal neighbours
                assert A_i[k, k + 1] == A[idx[k], idx[k + 1]] != 0.0

    def test_single_subdomain_is_a_copy_of_the_matrix(self):
        grid = Grid(6)
        dec = build_decomposition(grid, 1, 1)
        system = assemble(grid, high_contrast_field(grid, 1))
        A = system.A.to_scipy()
        A_0, _ = dec.coupling.principal(system.A, 0)
        self.assert_bitwise(A_0, A)
        assert not np.shares_memory(A_0.data, A.data)
        A_0.data[:] = 0.0  # GenEO scales its B in place
        assert (A.data != 0.0).all()

    def test_coupling_to_nodes_outside_is_dropped(self):
        grid = Grid(12)
        dec = build_decomposition(grid, 3, 1)
        system = assemble(grid, high_contrast_field(grid, 2))
        A = system.A.to_scipy()
        for i, idx in enumerate(dec.index_sets):
            A_i, _ = dec.coupling.principal(system.A, i)
            outside = np.setdiff1d(np.arange(grid.n_free), idx)
            # A's rows of idx hold A_i's entries and those to nodes outside, which A_i drops
            assert A[idx][:, outside].nnz > 0
            assert A_i.nnz + A[idx][:, outside].nnz == A[idx].nnz
            assert np.array_equal(A_i.toarray(), A.toarray()[np.ix_(idx, idx)])

    def test_matrix_of_another_pattern_rejected(self):
        grid = Grid(12)
        dec = build_decomposition(grid, 3, 2)
        other = SparseSymMatrix(sp.identity(grid.n_free, format="csr"))
        with pytest.raises(ValueError, match="sparsity pattern"):
            dec.coupling.principal(other, 0)

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from([(6, 2), (6, 3), (8, 4), (10, 5), (12, 6)]), st.integers(1, 3), st.integers(0, 2**32 - 1))
    def test_matches_explicit_restriction(self, shape, overlap, seed):
        m, layout = shape
        grid = Grid(m)
        dec = build_decomposition(grid, layout, overlap)
        system = assemble(grid, high_contrast_field(grid, seed))
        A = system.A.to_scipy().toarray()
        for i, idx in enumerate(dec.index_sets):
            R = np.zeros((len(idx), grid.n_free))
            R[np.arange(len(idx)), idx] = 1.0
            assert np.array_equal(dec.coupling.principal(system.A, i)[0].toarray(), R @ A @ R.T)


class TestNeumannPlans:
    @pytest.mark.parametrize("m, layout, overlap", [(40, 4, 2), (20, 4, 2), (100, 10, 2)])
    def test_shared_plans_give_the_direct_assembly_bitwise(self, m, layout, overlap):
        grid = Grid(m)
        dec = build_decomposition(grid, layout, overlap)
        field = build_coefficient(grid, ChannelGeometry(), open_ports={1, 2, 5})
        plans = dec.neumann_plans
        # one pattern per block shape and Dirichlet contact
        assert len({id(p.at) for p in plans}) < dec.n_subdomains
        for i, plan in enumerate(plans):
            K, free = assemble_local_neumann(grid, field, plan)
            ref, ref_free = assemble_local_neumann(grid, field, dec.extended_elements(i))
            assert np.array_equal(free, ref_free) and np.array_equal(free, dec.index_sets[i])
            for a, b in ((K.indptr, ref.indptr), (K.indices, ref.indices), (K.data, ref.data)):
                assert a.dtype == b.dtype and np.array_equal(a, b)


class TestPartitionOfUnity:
    def test_weights_sum_to_one_per_node(self):
        grid = Grid(20)
        dec = build_decomposition(grid, 2, 2)
        pou = build_partition_of_unity(dec)
        total = np.zeros(grid.n_free)
        for i, idx in enumerate(dec.index_sets):
            total[idx] += pou.local[i]
        assert np.max(np.abs(total - 1.0)) < 1e-14

    def test_multiplicity_weights(self):
        grid = Grid(20)
        dec = build_decomposition(grid, 2, 2)
        pou = build_partition_of_unity(dec)

        def weights_at(i, j):
            node = grid.free_index(i, j)
            return [float(w[idx == node][0]) for idx, w in zip(dec.index_sets, pou.local) if node in idx]

        # node (5, 5) lies only in subdomain 0 (extended block ends at 11)
        assert weights_at(5, 5) == [1.0]
        # node (10, 5) lies in the overlap of subdomains 0 and 1 only
        assert weights_at(10, 5) == [0.5, 0.5]
        # node (10, 10) is shared by all four subdomains
        assert weights_at(10, 10) == [0.25] * 4
        assert all(np.all(w > 0) and np.all(w <= 1) for w in pou.local)


class TestDetectChangedSubdomains:
    def test_empty_change_set(self):
        dec = build_decomposition(Grid(20), 2, 2)
        assert len(detect_changed_subdomains([], dec)) == 0

    def test_deep_interior_change_hits_one_subdomain(self):
        grid = Grid(20)
        dec = build_decomposition(grid, 2, 2)
        # element (5, 5) is farther than the overlap from every other block
        changed = detect_changed_subdomains([grid.element_id(5, 5)], dec)
        assert np.array_equal(changed, [0])

    def test_overlap_zone_change_hits_both_subdomains(self):
        grid = Grid(20)
        dec = build_decomposition(grid, 2, 2)
        changed = detect_changed_subdomains([grid.element_id(10, 2)], dec)
        assert np.array_equal(changed, [0, 1])

    def test_port1_region_on_paper_layout(self):
        grid = Grid(200)
        geo = ChannelGeometry()
        dec = build_decomposition(grid, 10, 4)
        base = build_coefficient(grid, geo).values.ravel()
        with1 = build_coefficient(grid, geo, open_ports={1}).values.ravel()
        changed = detect_changed_subdomains(np.flatnonzero(base != with1), dec)
        assert len(changed) <= 4
        assert np.array_equal(changed, [40, 41, 50, 51])

    def test_out_of_range_elements_rejected(self):
        grid = Grid(20)
        dec = build_decomposition(grid, 2, 2)
        for bad in (-1, grid.n_elements):
            with pytest.raises(ValueError, match="out of range"):
                detect_changed_subdomains([grid.element_id(5, 5), bad], dec)

    def test_element_beside_extended_block_changes_neighbor(self):
        # element (7, 0) lies one column left of subdomain 1's extended
        # block (columns 8..21) but shares its nodes in column 8
        grid = Grid(40)
        dec = build_decomposition(grid, 4, 2)
        field = build_coefficient(grid, SMALL_GEOMETRY, open_ports={2, 5})
        values = field.values.copy()
        values[0, 7] *= 10.0
        e = grid.element_id(7, 0)
        assert e not in dec.extended_elements(1)
        before = assemble(grid, field).A
        after = assemble(grid, CoefficientField(grid, values)).A
        flagged = detect_changed_subdomains([e], dec)
        assert np.array_equal(flagged, changed_local_matrices(dec, before, after))
        assert np.array_equal(flagged, [0, 1])

    def test_flags_exactly_the_changed_local_matrices(self, coarse_factor):
        # port 3 changes element row 47; subdomains 50 and 51 start at row 48
        grid = Grid(100)
        dec = build_decomposition(grid, 10, 2)
        probs = problem_sequence(grid, ChannelGeometry(), ModificationSchedule(({2, 5}, {2, 3, 5})))
        flagged = detect_changed_subdomains(probs[1].changed_elements, dec)
        assert np.array_equal(flagged, changed_local_matrices(dec, probs[0].system.A, probs[1].system.A))
        assert np.array_equal(flagged, [40, 41, 50, 51])
        coarse = empty_coarse(dec)
        ops = LocalOperators.build(probs[0].system.A, coarse)
        ops.refresh(probs[1].system.A, coarse, flagged)
        fresh = LocalOperators.build(probs[1].system.A, coarse)
        F0 = coarse_factor(probs[1].system, fresh)
        r = np.random.default_rng(3).standard_normal(probs[1].system.n)
        assert np.allclose(
            apply_as_preconditioner(r, ops, F0),
            apply_as_preconditioner(r, fresh, F0),
            atol=1e-12 * np.abs(r).max(),
        )


class TestGeneoCoarse:
    def test_constant_mode_selected_away_from_dirichlet(self):
        grid = Grid(12)
        dec = build_decomposition(grid, 3, 2)
        pou = build_partition_of_unity(dec)
        field = build_coefficient(grid, ChannelGeometry.empty())
        system = assemble(grid, field)
        cs = build_geneo_coarse(dec, pou, system, field, 1e-6)
        # subdomains not touching x = 0 or x = 1 keep the Neumann kernel:
        # exactly the middle column of the 3x3 layout
        assert np.array_equal(cs.counts, [0, 1, 0, 0, 1, 0, 0, 1, 0])
        # the selected vector is the weighted constant
        b = cs.blocks[4][:, 0]
        w = pou.local[4]
        ratio = b / w
        assert np.max(np.abs(ratio - ratio[0])) < 1e-8 * np.abs(ratio[0])

    def test_zero_threshold_gives_empty_space(self):
        grid = Grid(12)
        dec = build_decomposition(grid, 3, 2)
        pou = build_partition_of_unity(dec)
        field = build_coefficient(grid, ChannelGeometry.empty())
        system = assemble(grid, field)
        with pytest.warns(UserWarning, match="no vectors"):
            cs = build_geneo_coarse(dec, pou, system, field, 0.0)
        assert cs.n0 == 0
        assert dense_coarse(dec, cs).shape == (grid.n_free, 0)

    def test_columns_supported_on_their_subdomain(self):
        grid = Grid(40)
        dec = build_decomposition(grid, 4, 2)
        pou = build_partition_of_unity(dec)
        field = build_coefficient(grid, SMALL_GEOMETRY, open_ports={2, 5})
        system = assemble(grid, field)
        cs = build_geneo_coarse(dec, pou, system, field, 0.5)
        assert cs.n0 == cs.counts.sum() and cs.n0 > 0
        dense = dense_coarse(dec, cs)
        offsets = np.r_[0, np.cumsum(cs.counts)]
        for i in range(dec.n_subdomains):
            assert cs.blocks[i].shape == (len(dec.subdomains[i].indices), cs.counts[i])
            assert (cs.columns[i].start, cs.columns[i].stop) == (offsets[i], offsets[i + 1])
            cols = dense[:, offsets[i] : offsets[i + 1]]
            outside = np.setdiff1d(np.arange(grid.n_free), dec.subdomains[i].indices)
            assert np.all(cols[outside] == 0)

    def test_columns_linearly_independent_in_energy_product(self):
        from lrbas.linalg import factorize

        grid = Grid(40)
        dec = build_decomposition(grid, 4, 2)
        pou = build_partition_of_unity(dec)
        field = build_coefficient(grid, SMALL_GEOMETRY, open_ports={2, 5})
        system = assemble(grid, field)
        cs = build_geneo_coarse(dec, pou, system, field, 0.5)
        R0 = dense_coarse(dec, cs)
        A0 = R0.T @ (system.A.to_scipy() @ R0)
        F = factorize(A0, 1e-10)
        assert len(F.perm[F.rank:]) == 0

    def test_partial_recompute_matches_full_rebuild(self):
        grid = Grid(40)
        dec = build_decomposition(grid, 4, 2)
        pou = build_partition_of_unity(dec)
        probs = problem_sequence(grid, SMALL_GEOMETRY, DEFAULT_SCHEDULE)
        cs1 = build_geneo_coarse(dec, pou, probs[0].system, probs[0].coefficient, 0.5)
        changed = detect_changed_subdomains(probs[1].changed_elements, dec)
        cs2 = build_geneo_coarse(
            dec, pou, probs[1].system, probs[1].coefficient, 0.5, previous=cs1, recompute=changed
        )
        full2 = build_geneo_coarse(dec, pou, probs[1].system, probs[1].coefficient, 0.5)
        assert np.array_equal(cs2.counts, full2.counts)
        assert np.allclose(dense_coarse(dec, cs2) - dense_coarse(dec, full2), 0, atol=1e-12)
        unchanged = np.setdiff1d(np.arange(dec.n_subdomains), changed)
        for i in unchanged:
            assert cs2.blocks[i] is cs1.blocks[i]

    def test_weighted_local_matrix_matches_dense_formula(self):
        # the weighted pencil matrix D A_i D is formed from the sparse
        # block; the coarse vectors must be bitwise those of the dense one
        grid = Grid(40)
        dec = build_decomposition(grid, 4, 2)
        pou = build_partition_of_unity(dec)
        field = build_coefficient(grid, SMALL_GEOMETRY, open_ports={2, 5})
        system = assemble(grid, field)
        cs = build_geneo_coarse(dec, pou, system, field, 0.5)
        A = system.A.to_scipy()
        for i, idx in enumerate(dec.index_sets):
            D = pou.local[i]
            B = A[idx][:, idx].toarray() * D[:, None] * D[None, :]
            B[np.diag_indices_from(B)] += 1e-12 * max(B.diagonal().max(), 0.0)
            K, _ = assemble_local_neumann(grid, field, dec.extended_elements(i))
            w, P = sym_gen_eig(K, B, upper=0.5)
            sel = np.maximum(w, 0.0) < 0.5
            assert np.array_equal(cs.blocks[i], D[:, None] * P[:, sel])

    def test_weighted_pencil_matrix_is_bitwise_the_diagonal_product(self, monkeypatch):
        # B = D A_i D + delta I keeps the CSR arrays of the sparse product
        # formula, so pencil digests, and with them pencil reuse, do not move
        dec, pou, system, field = small_geneo_problem()
        digest = lrbas.decomposition._digest
        weighted = []

        def spy(*pairs):
            if len(pairs) == 2:  # the GenEO pencil (K_neu, B)
                weighted.append(pairs[1])
            return digest(*pairs)

        monkeypatch.setattr(lrbas.decomposition, "_digest", spy)
        build_geneo_coarse(dec, pou, system, field, 0.5)
        # every subdomain, the 12 clipped at the boundary included
        assert len(weighted) == dec.n_subdomains == 16
        A = system.A.to_scipy()
        for i, (pattern, B) in enumerate(weighted):
            D, idx = pou.local[i], dec.index_sets[i]
            ref = sp.diags(D) @ A[idx][:, idx] @ sp.diags(D)
            ref = ref + 1e-12 * max(ref.diagonal().max(), 0.0) * sp.identity(len(D))
            for a, b in ((B.indptr, ref.indptr), (B.indices, ref.indices), (B.data, ref.data)):
                assert a.dtype == b.dtype and np.array_equal(a, b)
            assert B.shape == ref.shape and pattern == _pattern_digest(ref.indices, ref.indptr)
            assert digest((pattern, B)) == digest((pattern, ref))

    def test_arpack_path_matches_dense_eigh(self, request):
        dec, pou, system, field = small_geneo_problem()
        dense = build_geneo_coarse(dec, pou, system, field, 0.5)
        attempts = request.getfixturevalue("force_arpack")
        arpack = build_geneo_coarse(dec, pou, system, field, 0.5)
        # each distinct pencil is solved once (12 of the 16)
        assert len(attempts) == distinct_pencils(dec, pou, system, field) < dec.n_subdomains
        assert all(a is not None for a in attempts)
        assert np.array_equal(arpack.counts, dense.counts)
        for i in range(dec.n_subdomains):
            K, B, _ = pencil(dec, pou, system, field, i)
            w_dense, P_dense = sym_gen_eig(K.toarray(), B.toarray(), upper=0.5)
            w, P = sym_gen_eig(K, B, upper=0.5)
            assert np.count_nonzero(w < 0.5) == np.count_nonzero(w_dense < 0.5)
            assert np.abs(w - w_dense).max() <= 1e-12
            Bd = B.toarray()
            assert np.abs(P.T @ Bd @ P - np.eye(P.shape[1])).max() <= 1e-12
            # the B-orthogonal projectors onto the two spans
            assert np.abs(P @ P.T @ Bd - P_dense @ P_dense.T @ Bd).max() <= 1e-10

    def test_arpack_path_is_deterministic(self, force_arpack):
        dec, pou, system, field = small_geneo_problem()
        attempts = force_arpack
        first = build_geneo_coarse(dec, pou, system, field, 0.5)
        second = build_geneo_coarse(dec, pou, system, field, 0.5)
        assert all(a is not None for a in attempts)
        for a, b in zip(first.blocks, second.blocks):
            assert np.array_equal(a, b)

    def test_arpack_failure_falls_back_to_dense(self, monkeypatch, request):
        dec, pou, system, field = small_geneo_problem()
        dense = build_geneo_coarse(dec, pou, system, field, 0.5)
        attempts = request.getfixturevalue("force_arpack")

        def stalled(*args, **kwargs):
            raise ArpackNoConvergence("injected", np.zeros(0), np.zeros((0, 0)))

        monkeypatch.setattr(lrbas.linalg, "eigsh", stalled)
        fallen = build_geneo_coarse(dec, pou, system, field, 0.5)
        assert attempts == [None] * distinct_pencils(dec, pou, system, field)
        for a, b in zip(fallen.blocks, dense.blocks):
            assert np.array_equal(a, b)

    def test_partial_recompute_requires_previous(self):
        grid = Grid(12)
        dec = build_decomposition(grid, 3, 2)
        pou = build_partition_of_unity(dec)
        field = build_coefficient(grid, ChannelGeometry.empty())
        system = assemble(grid, field)
        with pytest.raises(ValueError, match="previous"):
            build_geneo_coarse(dec, pou, system, field, 0.5, recompute=[1])


def revisiting_sequence():
    """40 x 40, 4 x 4, overlap 2; ports {2, 5}, then {5}, then {2, 5} again."""
    grid = Grid(40)
    dec = build_decomposition(grid, 4, 2)
    schedule = ModificationSchedule(({2, 5}, {5}, {2, 5}))
    return dec, build_partition_of_unity(dec), problem_sequence(grid, SMALL_GEOMETRY, schedule)


def record_geneo(monkeypatch):
    """Per GenEO build of the solver: [coarse space, recomputed subdomains, sym_gen_eig calls]."""
    builds = []
    build, solve = lrbas.solver.build_geneo_coarse, lrbas.decomposition.sym_gen_eig

    def spy_build(*args, recompute=None, **kwargs):
        builds.append([None, np.asarray(recompute), 0])
        builds[-1][0] = build(*args, recompute=recompute, **kwargs)
        return builds[-1][0]

    def spy_solve(*args, **kwargs):
        builds[-1][2] += 1
        return solve(*args, **kwargs)

    monkeypatch.setattr(lrbas.solver, "build_geneo_coarse", spy_build)
    monkeypatch.setattr(lrbas.decomposition, "sym_gen_eig", spy_solve)
    return builds


class TestPencilReuse:
    @pytest.mark.parametrize("path", ["dense", "arpack"])
    def test_revisited_sequence_solves_each_distinct_pencil_once(self, monkeypatch, request, path):
        dec, pou, probs = revisiting_sequence()
        if path == "arpack":
            request.getfixturevalue("force_arpack")
        builds = record_geneo(monkeypatch)
        run_sequence(probs, dec, pou)
        assert len(builds) == 3
        seen = set()
        for prob, (coarse, recompute, calls) in zip(probs, builds):
            for i in range(dec.n_subdomains):
                K, B, D = pencil(dec, pou, prob.system, prob.coefficient, i)
                w, P = sym_gen_eig(K, B, upper=0.5)
                assert np.array_equal(coarse.blocks[i], D[:, None] * P[:, np.maximum(w, 0.0) < 0.5])
            keys = {csr_bytes(*pencil(dec, pou, prob.system, prob.coefficient, i)[:2]) for i in recompute}
            assert calls == len(keys - seen)
            seen |= keys
        # ports {2, 5} again: every recomputed pencil was solved for system 1
        assert len(builds[2][1]) > 0 and builds[2][2] == 0
        recomputed = sum(len(recompute) for _, recompute, _ in builds)
        assert sum(calls for _, _, calls in builds) == len(seen) < recomputed

    def test_each_sequence_starts_without_solved_pencils(self, monkeypatch):
        dec, pou, probs = revisiting_sequence()
        builds = record_geneo(monkeypatch)
        run_sequence(probs, dec, pou)
        first = sum(calls for _, _, calls in builds)
        del builds[:]
        run_sequence(probs, dec, pou)
        assert sum(calls for _, _, calls in builds) == first > 0


def solved_pencils(monkeypatch, grid, layout, overlap, schedule):
    """Every pencil GenEO at tau 0.5 solves along a sequence, each distinct
    one once, with what ``sym_gen_eig`` returned for it: [(K, B, w, P)]."""
    dec = build_decomposition(grid, layout, overlap)
    pou = build_partition_of_unity(dec)
    solved, solve = [], lrbas.decomposition.sym_gen_eig

    def spy(K, B, upper):
        solved.append((K, B, *solve(K, B, upper)))
        return solved[-1][2:]

    monkeypatch.setattr(lrbas.decomposition, "sym_gen_eig", spy)
    coarse = None
    for prob in problem_sequence(grid, ChannelGeometry(), schedule):
        coarse = build_geneo_coarse(dec, pou, prob.system, prob.coefficient, 0.5, previous=coarse)
    return solved


def pcg_condition_number(A, f, precond, rtol=1e-10, max_iter=1000):
    """kappa(M^-1 A) read from the Lanczos tridiagonal of PCG's coefficients
    (Saad, Iterative Methods for Sparse Linear Systems, sec. 6.7.3)."""
    r = f.copy()
    z = precond(r)
    p, rz = z.copy(), r @ z
    alpha, beta = [], [0.0]
    for _ in range(max_iter):
        Ap = A @ p
        alpha.append(rz / (p @ Ap))
        r = r - alpha[-1] * Ap
        if np.linalg.norm(r) <= rtol * np.linalg.norm(f):
            break
        z = precond(r)
        beta.append(r @ z / rz)
        rz = r @ z
        p = z + beta[-1] * p
    alpha = np.array(alpha)
    beta = np.array(beta[: len(alpha)])
    diag = 1.0 / alpha + np.r_[0.0, beta[1:] / alpha[:-1]]
    theta = eigvalsh_tridiagonal(diag, np.sqrt(beta[1:]) / alpha[:-1])
    return theta[-1] / theta[0]


class TestArpackAccuracy:
    @pytest.mark.parametrize(
        "m, layout, overlap, schedule, n_pencils",
        [
            (200, 10, 4, ModificationSchedule(DEFAULT_SCHEDULE.open_ports[:1]), 35),  # paper system 1
            (100, 10, 2, ModificationSchedule(({2, 5}, {2, 3, 5}, {1, 2, 3, 5}, {1, 2, 3, 5, 6})), 47),
        ],
        ids=["paper", "toggle"],
    )
    def test_kept_pairs_match_those_at_full_accuracy(self, monkeypatch, force_arpack, m, layout, overlap,
                                                     schedule, n_pencils):
        solved = solved_pencils(monkeypatch, Grid(m), layout, overlap, schedule)
        assert len(solved) == n_pencils
        assert sum(a is not None for a in force_arpack) >= len(solved) // 2
        monkeypatch.setattr(lrbas.linalg, "_ARPACK_TOL", 0.0)
        for K, B, w, P in solved:
            w_full, _ = sym_gen_eig(K, B, upper=0.5)
            assert len(w) == len(w_full)
            assert np.count_nonzero(np.maximum(w, 0.0) < 0.5) == np.count_nonzero(np.maximum(w_full, 0.0) < 0.5)
            assert np.abs(w - w_full).max(initial=0.0) <= 1e-12
            assert np.abs(P.T @ (B @ P) - np.eye(len(w))).max(initial=0.0) <= 1e-12

    def test_shift_next_to_the_wanted_end_needs_fewer_operator_applications(self, monkeypatch, eigsh_calls):
        # ARPACK on nu = 1 / (lambda + s): a shift of 1 squeezes the wanted
        # lambda <= tau together (1926 against 2795 applications measured)
        schedule = ModificationSchedule(DEFAULT_SCHEDULE.open_ports[:1])
        solved = solved_pencils(monkeypatch, Grid(200), 10, 4, schedule)
        assert len(solved) == 35 and min(K.shape[0] for K, *_ in solved) >= lrbas.linalg._ARPACK_MIN_N
        shifted = sum(call["applications"] for call in eigsh_calls)
        del eigsh_calls[:]
        monkeypatch.setattr(lrbas.linalg, "_ARPACK_SHIFT", 1.0)
        for K, B, w, _ in solved:
            w_one, _ = sym_gen_eig(K, B, upper=0.5)
            assert len(w) == len(w_one)
            assert np.count_nonzero(np.maximum(w, 0.0) < 0.5) == np.count_nonzero(np.maximum(w_one, 0.0) < 0.5)
            assert np.abs(w - w_one).max(initial=0.0) <= 1e-12
        assert shifted <= 0.75 * sum(call["applications"] for call in eigsh_calls)

    def test_two_level_condition_number_does_not_grow_with_the_contrast(self, force_arpack, coarse_factor):
        # GenEO bounds kappa(M^-1 A) by tau and the overlap multiplicity
        # whatever the coefficient; the near-kernel space alone does not
        grid = Grid(100)
        dec = build_decomposition(grid, 10, 2)
        pou = build_partition_of_unity(dec)
        kappa = {}
        for sigma_high in (11.0, 1001.0, 100001.0):
            field = build_coefficient(grid, ChannelGeometry(sigma_high=sigma_high), open_ports={2, 5})
            system = assemble(grid, field)
            A = system.A.to_scipy()
            for tau in (0.5, 1e-9):
                ops = LocalOperators.build(system.A, build_geneo_coarse(dec, pou, system, field, tau))
                F0 = coarse_factor(system, ops)
                kappa[tau, sigma_high] = pcg_condition_number(A, system.f, lambda r: apply_as_preconditioner(r, ops, F0))
        assert any(a is not None for a in force_arpack)
        geneo = [kappa[0.5, s] for s in (11.0, 1001.0, 100001.0)]
        assert max(geneo) <= 1.1 * min(geneo)
        assert kappa[1e-9, 100001.0] >= 100 * kappa[1e-9, 11.0]
        assert kappa[1e-9, 100001.0] >= 100 * max(geneo)


class TestLocalOperators:
    def test_identical_local_matrices_share_one_factor(self, monkeypatch):
        dec, _, system, _ = small_geneo_problem()
        factored = []
        factorize = lrbas.decomposition.factorize
        monkeypatch.setattr(lrbas.decomposition, "factorize", lambda M: factored.append(M) or factorize(M))
        ops = LocalOperators.build(system.A, empty_coarse(dec))
        keys = [csr_bytes(principal(system.A, idx)) for idx in dec.index_sets]
        sparse = [M for M in factored if sp.issparse(M)]
        assert len(sparse) == len(set(keys)) < dec.n_subdomains
        for i in range(dec.n_subdomains):
            for j in range(dec.n_subdomains):
                assert (ops.factors[i] is ops.factors[j]) == (keys[i] == keys[j])

    def test_factor_and_pencil_keys_group_subdomains_as_their_bytes_do(self, monkeypatch):
        # the keys hash each shared pattern once and the values per matrix:
        # along the small paper sequence they must part the factored A_i and
        # the solved pencils exactly as the matrices' own bytes do
        grid = Grid(40)
        dec = build_decomposition(grid, 4, 2)
        pou = build_partition_of_unity(dec)
        probs = problem_sequence(grid, SMALL_GEOMETRY, DEFAULT_SCHEDULE)
        digest, keys = lrbas.decomposition._digest, []
        monkeypatch.setattr(lrbas.decomposition, "_digest", lambda *pairs: keys.append(digest(*pairs)) or keys[-1])
        coarse = ops = None
        factored, pencils = [], []  # (key, bytes), in the order the keys were taken
        for k, prob in enumerate(probs):
            changed = np.arange(dec.n_subdomains) if k == 0 else detect_changed_subdomains(prob.changed_elements, dec)
            keys.clear()
            coarse = build_geneo_coarse(dec, pou, prob.system, prob.coefficient, 0.5, previous=coarse, recompute=changed)
            pencils += zip(keys, (csr_bytes(*pencil(dec, pou, prob.system, prob.coefficient, i)[:2]) for i in changed), strict=True)
            keys.clear()
            if ops is None:
                ops = LocalOperators.build(prob.system.A, coarse)
            else:
                ops.refresh(prob.system.A, coarse, changed)
            factored += zip(keys, (csr_bytes(principal(prob.system.A, dec.index_sets[i])) for i in changed), strict=True)
        assert len(pencils) == dec.n_subdomains + sum(len(detect_changed_subdomains(p.changed_elements, dec)) for p in probs[1:])
        for pairs, table in ((factored, ops.shared), (pencils, coarse.pencils)):
            assert len(set(pairs)) == len({key for key, _ in pairs}) == len({b for _, b in pairs}) == len(table)
        assert {key for _, key in coarse.pencils} == {key for key, _ in pencils}

    def test_local_matrices_match_submatrices(self):
        grid = Grid(20)
        rng = np.random.default_rng(5)
        field = CoefficientField(grid, rng.uniform(0.5, 4.0, (20, 20)))
        system = assemble(grid, field)
        dec = build_decomposition(grid, 2, 2)
        ops = LocalOperators.build(system.A, empty_coarse(dec))
        for idx, F in zip(dec.index_sets, ops.factors):
            want = principal(system.A, idx).toarray()
            got = np.empty_like(want)
            L = band_to_dense(F.lower)
            got[np.ix_(F.perm, F.perm)] = L @ L.T  # P L L^T P^T
            assert np.allclose(got, want, atol=1e-10 * np.abs(want).max())

    def test_local_factors_take_band_storage(self):
        grid = Grid(40)
        dec = build_decomposition(grid, 4, 2)
        system = assemble(grid, build_coefficient(grid, SMALL_GEOMETRY, open_ports={2, 5}))
        ops = LocalOperators.build(system.A, empty_coarse(dec))
        A = system.A.to_scipy()
        for idx, F in zip(dec.index_sets, ops.factors):
            assert F.lower.nbytes <= (bandwidth(A[idx][:, idx]) + 1) * len(idx) * 8

    def test_local_factor_is_the_transposed_band_of_lapacks_lower_factor(self):
        grid = Grid(40)
        dec = build_decomposition(grid, 4, 2)
        system = assemble(grid, build_coefficient(grid, SMALL_GEOMETRY, open_ports={2, 5}))
        ops = LocalOperators.build(system.A, empty_coarse(dec))
        for idx, F in zip(dec.index_sets, ops.factors):
            Ai = principal(system.A, idx).tocoo()
            n, kd = len(idx), bandwidth(Ai)
            low = np.zeros((kd + 1, n))
            below = Ai.row >= Ai.col
            low[Ai.row[below] - Ai.col[below], Ai.col[below]] = Ai.data[below]
            L = sla.cholesky_banded(low, lower=True)
            assert F.lower.shape == L.shape
            assert np.array_equal(band_to_dense(F.lower), sp.dia_matrix((L, -np.arange(kd + 1)), shape=(n, n)).toarray())

    @pytest.mark.parametrize("strategy", ["pcg", "lrbas"])
    def test_no_band_solve_runs_on_a_transposed_lower_band(self, monkeypatch, force_arpack, strategy):
        # LAPACK's transposed solve on a lower band takes about twice as
        # long as the solves on an upper band; GenEO's forward solve on L's
        # lower band is not transposed
        grid = Grid(40)
        dec = build_decomposition(grid, 4, 2)
        probs = problem_sequence(grid, SMALL_GEOMETRY, DEFAULT_SCHEDULE)
        dpbtrs, dtbtrs = lrbas.linalg.dpbtrs, lrbas.linalg.dtbtrs
        kernels = set()  # (band, transposed) of each triangular solve run

        def spy_dpbtrs(ab, b, lower=0, **kwargs):
            # L L^T x = b: L^-1, then L^-T; U^T U x = b: U^-T, then U^-1
            kernels.update({("L", "N"), ("L", "T")} if lower else {("U", "T"), ("U", "N")})
            return dpbtrs(ab, b, lower=lower, **kwargs)

        def spy_dtbtrs(ab, b, uplo="U", trans="N", **kwargs):
            kernels.add((uplo.upper(), trans.upper()))
            return dtbtrs(ab, b, uplo=uplo, trans=trans, **kwargs)

        monkeypatch.setattr(lrbas.linalg, "dpbtrs", spy_dpbtrs)
        monkeypatch.setattr(lrbas.linalg, "dtbtrs", spy_dtbtrs)
        run_sequence(probs, dec, opts=SolverOptions(strategy=strategy))
        # U^-T only from dpbtrs, L^-1 only from GenEO's dtbtrs: both ran
        assert kernels == {("L", "N"), ("U", "N"), ("U", "T")}

    def test_single_subdomain_preconditioner_is_exact_inverse(self, coarse_factor):
        grid = Grid(10)
        field = build_coefficient(grid, ChannelGeometry.empty())
        system = assemble(grid, field)
        dec = build_decomposition(grid, 1, 1)
        ops = LocalOperators.build(system.A, empty_coarse(dec))
        rng = np.random.default_rng(0)
        r = rng.standard_normal(system.n)
        want = np.linalg.solve(system.A.to_scipy().toarray(), r)
        assert np.allclose(apply_as_preconditioner(r, ops, coarse_factor(system, ops)), want, atol=1e-9 * np.abs(want).max())

    def test_zero_residual_maps_to_zero(self, coarse_factor):
        grid = Grid(10)
        system = assemble(grid, build_coefficient(grid, ChannelGeometry.empty()))
        dec = build_decomposition(grid, 2, 1)
        ops = LocalOperators.build(system.A, empty_coarse(dec))
        assert np.array_equal(apply_as_preconditioner(np.zeros(system.n), ops, coarse_factor(system, ops)), 0 * system.f)

    def test_matches_dense_subdomain_sum(self, coarse_factor):
        grid = Grid(8)
        rng = np.random.default_rng(7)
        field = CoefficientField(grid, rng.uniform(0.5, 4.0, (8, 8)))
        system = assemble(grid, field)
        dec = build_decomposition(grid, 2, 2)
        ops = LocalOperators.build(system.A, empty_coarse(dec))
        A = system.A.to_scipy().toarray()
        r = rng.standard_normal(system.n)
        want = np.zeros_like(r)
        for idx in dec.index_sets:
            want[idx] += np.linalg.solve(A[np.ix_(idx, idx)], r[idx])
        assert np.allclose(apply_as_preconditioner(r, ops, coarse_factor(system, ops)), want, atol=1e-11 * np.abs(want).max())

    @pytest.mark.parametrize("extra", [-1, 1])
    def test_residual_of_another_length_rejected(self, extra, coarse_factor):
        dec, _, system, _ = small_geneo_problem()
        ops = LocalOperators.build(system.A, empty_coarse(dec))
        with pytest.raises(ValueError, match="free nodes"):
            apply_as_preconditioner(np.ones(system.n + extra), ops, coarse_factor(system, ops))

    def test_preconditioner_is_symmetric_with_coarse_level(self, coarse_factor):
        grid = Grid(40)
        dec = build_decomposition(grid, 4, 2)
        pou = build_partition_of_unity(dec)
        field = build_coefficient(grid, SMALL_GEOMETRY, open_ports={2, 5})
        system = assemble(grid, field)
        cs = build_geneo_coarse(dec, pou, system, field, 0.5)
        ops = LocalOperators.build(system.A, cs)
        F0 = coarse_factor(system, ops)
        rng = np.random.default_rng(2)
        for _ in range(3):
            r, s = rng.standard_normal((2, system.n))
            a = s @ apply_as_preconditioner(r, ops, F0)
            b = r @ apply_as_preconditioner(s, ops, F0)
            assert abs(a - b) <= 1e-12 * max(abs(a), abs(b))

    def test_refresh_matches_fresh_build(self, coarse_factor):
        grid = Grid(40)
        dec = build_decomposition(grid, 4, 2)
        probs = problem_sequence(grid, SMALL_GEOMETRY, DEFAULT_SCHEDULE)
        coarse = empty_coarse(dec)
        ops = LocalOperators.build(probs[0].system.A, coarse)
        changed = detect_changed_subdomains(probs[1].changed_elements, dec)
        ops.refresh(probs[1].system.A, coarse, changed)
        fresh = LocalOperators.build(probs[1].system.A, coarse)
        F0 = coarse_factor(probs[1].system, fresh)
        rng = np.random.default_rng(3)
        r = rng.standard_normal(probs[1].system.n)
        assert np.allclose(
            apply_as_preconditioner(r, ops, F0),
            apply_as_preconditioner(r, fresh, F0),
            atol=1e-12 * np.abs(r).max(),
        )


class TestChangeSoundness:
    def test_unchanged_subdomain_matrices_are_identical(self):
        grid = Grid(40)
        dec = build_decomposition(grid, 4, 2)
        probs = problem_sequence(grid, SMALL_GEOMETRY, DEFAULT_SCHEDULE)
        for prev, cur in zip(probs, probs[1:]):
            changed = set(detect_changed_subdomains(cur.changed_elements, dec).tolist())
            for i in range(dec.n_subdomains):
                if i in changed:
                    continue
                idx = dec.index_sets[i]
                before = principal(prev.system.A, idx).toarray()
                after = principal(cur.system.A, idx).toarray()
                assert np.array_equal(before, after)


PAPER_GENEO_COUNTS = """
import json
from lrbas.decomposition import build_decomposition, build_geneo_coarse, build_partition_of_unity
from lrbas.fem import DEFAULT_SCHEDULE, ChannelGeometry, Grid, problem_sequence

grid = Grid(200)
dec = build_decomposition(grid, 10, 4)
pou = build_partition_of_unity(dec)
coarse, counts = None, []
for prob in problem_sequence(grid, ChannelGeometry(), DEFAULT_SCHEDULE):
    coarse = build_geneo_coarse(dec, pou, prob.system, prob.coefficient, 0.5, previous=coarse)
    counts.append(coarse.counts.tolist())
print(json.dumps(counts))
"""


SMALL_PCG_HISTORIES = """
import json
from lrbas.decomposition import build_decomposition
from lrbas.fem import DEFAULT_SCHEDULE, ChannelGeometry, Grid, problem_sequence
from lrbas.solver import SolverOptions, run_sequence

grid = Grid(60)
geometry = ChannelGeometry(channel_centers=(0.6, 0.5, 0.4), channel_height=0.05, x_left=0.1, x_right=0.9, port_length=0.05)
problems = problem_sequence(grid, geometry, DEFAULT_SCHEDULE)
report = run_sequence(problems, build_decomposition(grid, 2, 2), opts=SolverOptions(strategy="pcg"))
print(json.dumps([[e.iterations, [float(h) for h in e.residual_history]] for e in report.entries]))
"""


def printed_at_one_and_two_blas_threads(script):
    """The JSON that ``script`` prints, run in a subprocess at OpenBLAS 1 and at 2 threads."""
    root = Path(__file__).parents[1]
    path = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    printed = []
    for threads in ("1", "2"):
        run = subprocess.run(
            [sys.executable, "-c", script],
            cwd=root,
            env=dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=path),
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert run.returncode == 0, run.stderr[-3000:]
        printed.append(json.loads(run.stdout))
    return printed


def test_paper_geneo_counts_are_those_at_one_and_two_blas_threads():
    # the benchmark pins one OpenBLAS thread, the CLI none: the roundoff of
    # ARPACK's operator must not move a keep-or-drop decision
    counts = printed_at_one_and_two_blas_threads(PAPER_GENEO_COUNTS)
    assert len(counts[0]) == len(DEFAULT_SCHEDULE.open_ports) and counts[0] == counts[1]


def test_pcg_histories_are_those_at_one_and_two_blas_threads():
    # every preconditioner application runs the local band solves, whose
    # roundoff must not depend on the thread count. The 2 x 2 subdomains of
    # 60 x 60 have about 1000 unknowns each, so GenEO takes ARPACK, as on
    # the paper's problem; dense eigh, which smaller pencils take, rounds
    # differently at each thread count (ROADMAP item 6: at 40 x 40 with
    # 4 x 4 subdomains the histories part by up to 2.6e-9)
    one, two = printed_at_one_and_two_blas_threads(SMALL_PCG_HISTORIES)
    assert len(one) == len(DEFAULT_SCHEDULE.open_ports)
    for (iterations, history), (iterations_two, history_two) in zip(one, two, strict=True):
        assert iterations == iterations_two > 0
        assert np.allclose(history_two, history, rtol=1e-10, atol=0)
