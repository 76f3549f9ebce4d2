"""Tests for the overlapping decomposition, partition of unity, and coarse space."""
import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import ArpackNoConvergence

import lrbas.linalg
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
    Grid,
    assemble,
    assemble_local_neumann,
    build_coefficient,
    problem_sequence,
)

SMALL_GEOMETRY = ChannelGeometry(
    channel_centers=(0.6, 0.5, 0.4),
    channel_height=0.05,
    x_left=0.1,
    x_right=0.9,
    port_length=0.05,
)


def empty_coarse(dec):
    return CoarseSpace(dec, [np.zeros((len(idx), 0)) for idx in dec.index_sets])


def band_to_dense(band):
    """The lower triangular matrix held in LAPACK lower band storage."""
    n = band.shape[1]
    L = np.zeros((n, n))
    for d in range(min(band.shape[0], n)):
        L[np.arange(d, n), np.arange(n - d)] = band[d, : n - d]
    return L


def bandwidth(M):
    """Largest |i - j| over the stored entries of a sparse matrix."""
    coo = M.tocoo()
    return int(np.abs(coo.row - coo.col).max(initial=0))


def small_geneo_problem():
    """The 40 x 40, 4 x 4, overlap 2 channel problem with ports 2 and 5 open."""
    grid = Grid(40)
    dec = build_decomposition(grid, 4, 2)
    pou = build_partition_of_unity(dec)
    field = build_coefficient(grid, SMALL_GEOMETRY, open_ports={2, 5})
    system = assemble(grid, field)
    return dec, pou, system, field


def force_arpack(monkeypatch):
    """Send every sparse GenEO pencil down the ARPACK path; returns the
    list that receives each ARPACK attempt's result (None: fell back)."""
    monkeypatch.setattr(lrbas.linalg, "_ARPACK_MIN_N", 0)
    attempts = []
    lowest = lrbas.linalg._lowest_by_arpack

    def spy(*args):
        attempts.append(lowest(*args))
        return attempts[-1]

    monkeypatch.setattr(lrbas.linalg, "_lowest_by_arpack", spy)
    return attempts


class TestBuildDecomposition:
    def test_paper_layout_interior_subdomain(self):
        dec = build_decomposition(Grid(200), 10, 4)
        s = dec.subdomains[44]  # (p, q) = (4, 4), away from every boundary
        assert s.extended == ((76, 103), (76, 103))
        assert len(s.indices) == 841  # (20 + 2*4 + 1)^2 nodes, none Dirichlet
        assert len(dec.extended_elements(44)) == 28 * 28

    def test_paper_layout_neighbor_counts(self):
        dec = build_decomposition(Grid(200), 10, 4)
        assert len(dec.neighbors[44]) == 9
        assert len(dec.neighbors[0]) == 4
        assert all(i in dec.neighbors[i] for i in range(dec.n_subdomains))
        assert max(len(nb) for nb in dec.neighbors) <= 9

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

    def test_neighbors_match_index_set_intersections(self):
        dec = build_decomposition(Grid(40), 4, 2)
        sets = [set(idx.tolist()) for idx in dec.index_sets]
        for i in range(dec.n_subdomains):
            for j in range(dec.n_subdomains):
                intersects = bool(sets[i] & sets[j])
                assert intersects == (j in dec.neighbors[i])

    def test_invalid_layout_rejected(self):
        with pytest.raises(ValueError, match="does not divide"):
            build_decomposition(Grid(10), 3, 1)

    def test_zero_overlap_rejected(self):
        with pytest.raises(ValueError, match="overlap"):
            build_decomposition(Grid(10), 2, 0)


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
        assert cs.matrix.shape == (grid.n_free, 0)

    def test_columns_supported_on_their_subdomain(self):
        grid = Grid(40)
        dec = build_decomposition(grid, 4, 2)
        pou = build_partition_of_unity(dec)
        field = build_coefficient(grid, SMALL_GEOMETRY, open_ports={2, 5})
        system = assemble(grid, field)
        cs = build_geneo_coarse(dec, pou, system, field, 0.5)
        assert cs.n0 == cs.counts.sum() and cs.n0 > 0
        dense = cs.matrix.toarray()
        offsets = np.r_[0, np.cumsum(cs.counts)]
        for i in range(dec.n_subdomains):
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
        A0 = (cs.matrix.T @ (system.A.to_scipy() @ cs.matrix)).toarray()
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
        assert np.allclose((cs2.matrix - full2.matrix).toarray(), 0, atol=1e-12)
        unchanged = np.setdiff1d(np.arange(dec.n_subdomains), changed)
        for i in unchanged:
            assert cs2.blocks[i] is cs1.blocks[i]

    def test_weighted_local_matrix_matches_dense_formula(self):
        # the weighted pencil matrix D A_i D is formed from the sparse
        # block; the coarse vectors must be bitwise those of the dense one
        from lrbas.linalg import sym_gen_eig

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

    def test_arpack_path_matches_dense_eigh(self, monkeypatch):
        from lrbas.linalg import sym_gen_eig

        dec, pou, system, field = small_geneo_problem()
        dense = build_geneo_coarse(dec, pou, system, field, 0.5)
        attempts = force_arpack(monkeypatch)
        arpack = build_geneo_coarse(dec, pou, system, field, 0.5)
        assert len(attempts) == dec.n_subdomains and all(a is not None for a in attempts)
        assert np.array_equal(arpack.counts, dense.counts)
        A = system.A.to_scipy()
        for i, idx in enumerate(dec.index_sets):
            D = pou.local[i]
            B = sp.diags(D) @ A[idx][:, idx] @ sp.diags(D)
            B = (B + 1e-12 * B.diagonal().max() * sp.identity(len(idx))).tocsr()
            K, _ = assemble_local_neumann(dec.grid, field, dec.extended_elements(i))
            w_dense, P_dense = sym_gen_eig(K.toarray(), B.toarray(), upper=0.5)
            w, P = sym_gen_eig(K, B, upper=0.5)
            assert np.count_nonzero(w < 0.5) == np.count_nonzero(w_dense < 0.5)
            assert np.abs(w - w_dense).max() <= 1e-12
            Bd = B.toarray()
            assert np.abs(P.T @ Bd @ P - np.eye(P.shape[1])).max() <= 1e-12
            # the B-orthogonal projectors onto the two spans
            assert np.abs(P @ P.T @ Bd - P_dense @ P_dense.T @ Bd).max() <= 1e-10

    def test_arpack_path_is_deterministic(self, monkeypatch):
        dec, pou, system, field = small_geneo_problem()
        attempts = force_arpack(monkeypatch)
        first = build_geneo_coarse(dec, pou, system, field, 0.5)
        second = build_geneo_coarse(dec, pou, system, field, 0.5)
        assert all(a is not None for a in attempts)
        for a, b in zip(first.blocks, second.blocks):
            assert np.array_equal(a, b)

    def test_arpack_failure_falls_back_to_dense(self, monkeypatch):
        dec, pou, system, field = small_geneo_problem()
        dense = build_geneo_coarse(dec, pou, system, field, 0.5)
        attempts = force_arpack(monkeypatch)

        def stalled(*args, **kwargs):
            raise ArpackNoConvergence("injected", np.zeros(0), np.zeros((0, 0)))

        monkeypatch.setattr(lrbas.linalg, "eigsh", stalled)
        fallen = build_geneo_coarse(dec, pou, system, field, 0.5)
        assert attempts == [None] * dec.n_subdomains
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


class TestLocalOperators:
    def test_local_matrices_match_submatrices(self):
        grid = Grid(20)
        rng = np.random.default_rng(5)
        from lrbas.fem import CoefficientField

        field = CoefficientField(grid, rng.uniform(0.5, 4.0, (20, 20)))
        system = assemble(grid, field)
        dec = build_decomposition(grid, 2, 2)
        ops = LocalOperators.build(system.A, dec.index_sets, empty_coarse(dec))
        for idx, F in zip(dec.index_sets, ops.factors):
            want = system.A.submatrix(idx).toarray()
            got = np.empty_like(want)
            L = band_to_dense(F.lower)
            got[np.ix_(F.perm, F.perm)] = L @ L.T  # P L L^T P^T
            assert np.allclose(got, want, atol=1e-10 * np.abs(want).max())

    def test_local_factors_take_band_storage(self):
        grid = Grid(40)
        dec = build_decomposition(grid, 4, 2)
        system = assemble(grid, build_coefficient(grid, SMALL_GEOMETRY, open_ports={2, 5}))
        ops = LocalOperators.build(system.A, dec.index_sets, empty_coarse(dec))
        A = system.A.to_scipy()
        for idx, F in zip(dec.index_sets, ops.factors):
            assert F.lower.nbytes <= (bandwidth(A[idx][:, idx]) + 1) * len(idx) * 8

    def test_single_subdomain_preconditioner_is_exact_inverse(self):
        grid = Grid(10)
        field = build_coefficient(grid, ChannelGeometry.empty())
        system = assemble(grid, field)
        dec = build_decomposition(grid, 1, 1)
        ops = LocalOperators.build(system.A, dec.index_sets, empty_coarse(dec))
        rng = np.random.default_rng(0)
        r = rng.standard_normal(system.n)
        want = np.linalg.solve(system.A.to_scipy().toarray(), r)
        assert np.allclose(apply_as_preconditioner(r, ops), want, atol=1e-9 * np.abs(want).max())

    def test_zero_residual_maps_to_zero(self):
        grid = Grid(10)
        system = assemble(grid, build_coefficient(grid, ChannelGeometry.empty()))
        dec = build_decomposition(grid, 2, 1)
        ops = LocalOperators.build(system.A, dec.index_sets, empty_coarse(dec))
        assert np.array_equal(apply_as_preconditioner(np.zeros(system.n), ops), 0 * system.f)

    def test_matches_dense_subdomain_sum(self):
        grid = Grid(8)
        rng = np.random.default_rng(7)
        from lrbas.fem import CoefficientField

        field = CoefficientField(grid, rng.uniform(0.5, 4.0, (8, 8)))
        system = assemble(grid, field)
        dec = build_decomposition(grid, 2, 2)
        ops = LocalOperators.build(system.A, dec.index_sets, empty_coarse(dec))
        A = system.A.to_scipy().toarray()
        r = rng.standard_normal(system.n)
        want = np.zeros_like(r)
        for idx in dec.index_sets:
            want[idx] += np.linalg.solve(A[np.ix_(idx, idx)], r[idx])
        assert np.allclose(apply_as_preconditioner(r, ops), want, atol=1e-11 * np.abs(want).max())

    def test_preconditioner_is_symmetric_with_coarse_level(self):
        grid = Grid(40)
        dec = build_decomposition(grid, 4, 2)
        pou = build_partition_of_unity(dec)
        field = build_coefficient(grid, SMALL_GEOMETRY, open_ports={2, 5})
        system = assemble(grid, field)
        cs = build_geneo_coarse(dec, pou, system, field, 0.5)
        ops = LocalOperators.build(system.A, dec.index_sets, cs)
        rng = np.random.default_rng(2)
        for _ in range(3):
            r, s = rng.standard_normal((2, system.n))
            a = s @ apply_as_preconditioner(r, ops)
            b = r @ apply_as_preconditioner(s, ops)
            assert abs(a - b) <= 1e-12 * max(abs(a), abs(b))

    def test_refresh_matches_fresh_build(self):
        grid = Grid(40)
        dec = build_decomposition(grid, 4, 2)
        probs = problem_sequence(grid, SMALL_GEOMETRY, DEFAULT_SCHEDULE)
        coarse = empty_coarse(dec)
        ops = LocalOperators.build(probs[0].system.A, dec.index_sets, coarse)
        changed = detect_changed_subdomains(probs[1].changed_elements, dec)
        ops.refresh(probs[1].system.A, coarse, changed)
        fresh = LocalOperators.build(probs[1].system.A, dec.index_sets, coarse)
        rng = np.random.default_rng(3)
        r = rng.standard_normal(probs[1].system.n)
        assert np.allclose(
            apply_as_preconditioner(r, ops),
            apply_as_preconditioner(r, fresh),
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
                before = prev.system.A.submatrix(idx).toarray()
                after = cur.system.A.submatrix(idx).toarray()
                assert np.array_equal(before, after)
