"""Tests for the Q1 finite element testbed."""
import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from lrbas.decomposition import build_decomposition
from lrbas.fem import (
    DEFAULT_SCHEDULE,
    K_REF,
    ChannelGeometry,
    CoefficientField,
    Grid,
    ModificationSchedule,
    assemble,
    assemble_local_neumann,
    build_coefficient,
    problem_sequence,
    schedule_fields,
)
from lrbas.solver import SolverOptions, run_sequence

SMALL_GEOMETRY = ChannelGeometry(
    channel_centers=(0.6, 0.5, 0.4),
    channel_height=0.05,
    x_left=0.1,
    x_right=0.9,
    port_length=0.05,
)


def assert_canonical_symmetric(A):
    """Sorted duplicate-free rows, bitwise symmetric structure and values,
    and a diagonal that is present and positive."""
    csr = A.to_scipy()
    n = csr.shape[0]
    row_of = np.repeat(np.arange(n), np.diff(csr.indptr))
    assert (np.diff(row_of * n + csr.indices) > 0).all()
    t = csr.T.tocsr()
    t.sort_indices()
    assert np.array_equal(t.indptr, csr.indptr) and np.array_equal(t.indices, csr.indices)
    assert np.array_equal(t.data, csr.data)
    assert (csr.diagonal() > 0).all()


def reference_assemble(grid, coefficient):
    """Global assembly by one stable lexsort and reduceat over all element
    triplets, then scipy row and column slicing: the summation order
    ``assemble`` must reproduce bit for bit. Returns (A as CSR, f)."""
    m, n = grid.m, grid.n_nodes
    e = np.arange(grid.n_elements)
    sw = e // m * (m + 1) + e % m
    enodes = np.stack([sw, sw + 1, sw + m + 2, sw + m + 1], axis=1)
    rows, cols = np.repeat(enodes, 4, axis=1).ravel(), np.tile(enodes, 4).ravel()
    vals = (coefficient.values.ravel()[:, None, None] * K_REF[None, :, :]).ravel()
    order = np.lexsort((cols, rows))
    r, c, v = rows[order], cols[order], vals[order]
    starts = np.flatnonzero(np.r_[True, np.diff(r * n + c) != 0])
    full = sp.csr_matrix((np.add.reduceat(v, starts), (r[starts], c[starts])), shape=(n, n))
    ii = np.arange(n) % (m + 1)
    free, diri = np.flatnonzero((ii >= 1) & (ii <= m - 1)), np.flatnonzero((ii == 0) | (ii == m))
    rows_free = full[free]
    return rows_free[:, free].tocsr(), -(rows_free[:, diri] @ np.where(ii[diri] == 0, 1.0, -1.0))


def high_contrast_field(grid, seed):
    """Element conductivities log-uniform over ten decades."""
    rng = np.random.default_rng(seed)
    return CoefficientField(grid, 10.0 ** rng.uniform(-5.0, 5.0, (grid.m, grid.m)))


def reference_element_stiffness():
    """Independent 2x2 Gauss quadrature of the bilinear element stiffness."""
    # shape function gradients on the unit cell, node order SW, SE, NE, NW
    def grads(x, y):
        return np.array(
            [
                [-(1 - y), -(1 - x)],
                [1 - y, -x],
                [y, x],
                [-y, 1 - x],
            ]
        )

    g = (3 - np.sqrt(3)) / 6
    K = np.zeros((4, 4))
    for gx in (g, 1 - g):
        for gy in (g, 1 - g):
            G = grads(gx, gy)
            K += 0.25 * (G @ G.T)
    return K


def port_element_ids(grid, geometry, port):
    """Element ids whose centers lie in the given port rectangle."""
    xlo, xhi, ylo, yhi = geometry.port_rect(port)
    cx, cy = grid.element_centers()
    mask = (cx >= xlo) & (cx < xhi) & (cy >= ylo) & (cy < yhi)
    return np.flatnonzero(mask.ravel())


class TestGrid:
    def test_node_indexing_row_major(self):
        g = Grid(4)
        system = assemble(g, build_coefficient(g, ChannelGeometry.empty()))
        ids = np.arange(25).reshape(5, 5)  # [j, i]: node id j * 5 + i
        assert np.array_equal(system.free_nodes, ids[:, 1:4].ravel())
        assert np.array_equal(system.dirichlet_nodes, ids[:, [0, 4]].ravel())
        assert system.free_nodes[g.free_index(2, 3)] == 3 * 5 + 2

    def test_sizes(self):
        g = Grid(5)
        assert g.h == pytest.approx(0.2)
        assert g.n_nodes == 36
        assert g.n_elements == 25
        assert g.n_free == 4 * 6

    def test_element_indexing_roundtrip(self):
        g = Grid(7)
        e = np.arange(g.n_elements)
        ex, ey = g.element_xy(e)
        assert np.array_equal(g.element_id(ex, ey), e)

    def test_free_index_matches_ascending_node_order(self):
        # free nodes, sorted by node id, must appear at their free_index
        g = Grid(4)
        ii = np.arange(g.n_nodes) % (g.m + 1)
        free = np.flatnonzero((ii >= 1) & (ii <= g.m - 1))
        i, j = free % (g.m + 1), free // (g.m + 1)
        assert np.array_equal(g.free_index(i, j), np.arange(g.n_free))

    def test_element_centers(self):
        g = Grid(2)
        cx, cy = g.element_centers()
        assert cx.shape == (2, 2)
        assert cx[0, 0] == pytest.approx(0.25)
        assert cy[1, 0] == pytest.approx(0.75)

    def test_too_small_grid_rejected(self):
        with pytest.raises(ValueError, match="at least 2"):
            Grid(1)


class TestChannelGeometry:
    def test_default_geometry_valid(self):
        geo = ChannelGeometry()
        assert geo.n_channels == 3
        assert geo.n_ports == 6

    def test_port_rectangles(self):
        geo = ChannelGeometry()
        # port 1: left end of the first channel (center 0.52)
        assert geo.port_rect(1) == pytest.approx((0.105, 0.115, 0.515, 0.525))
        # port 5: right end of the second channel (center 0.50)
        assert geo.port_rect(5) == pytest.approx((0.882, 0.892, 0.495, 0.505))

    def test_port_index_out_of_range(self):
        geo = ChannelGeometry()
        for p in (0, 7, -1):
            with pytest.raises(ValueError, match="out of range"):
                geo.port_rect(p)

    def test_overlapping_channels_rejected(self):
        with pytest.raises(ValueError, match="disjoint"):
            ChannelGeometry(channel_centers=(0.50, 0.505), channel_height=0.01)

    def test_nonpositive_conductivity_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            ChannelGeometry(sigma_low=0.0)

    def test_block_edges_validated(self):
        with pytest.raises(ValueError, match="x_left"):
            ChannelGeometry(x_left=0.9, x_right=0.1)

    def test_empty_geometry(self):
        geo = ChannelGeometry.empty()
        assert geo.n_channels == 0
        assert geo.n_ports == 0
        assert geo.block_rects() == []


class TestBuildCoefficient:
    def test_empty_geometry_gives_constant_field(self):
        grid = Grid(10)
        field = build_coefficient(grid, ChannelGeometry.empty())
        assert np.all(field.values == 1.0)

    def test_base_field_is_two_valued(self):
        grid = Grid(200)
        geo = ChannelGeometry()
        field = build_coefficient(grid, geo)
        assert set(np.unique(field.values)) == {geo.sigma_low, geo.sigma_high}

    def test_channel_and_block_elements_high(self):
        grid = Grid(200)
        geo = ChannelGeometry()
        v = build_coefficient(grid, geo).values
        # mid-channel: x = 0.5 sits in the middle channel (y in [0.495, 0.505))
        assert v[99, 100] == geo.sigma_high and v[100, 100] == geo.sigma_high
        # one element row above the middle channel is the gap to the next one
        assert v[101, 100] == geo.sigma_low
        # boundary blocks
        assert v[80, 0] == geo.sigma_high and v[80, 199] == geo.sigma_high
        # outside the block y-range
        assert v[10, 0] == geo.sigma_low

    def test_closed_ports_low_open_ports_high(self):
        grid = Grid(200)
        geo = ChannelGeometry()
        base = build_coefficient(grid, geo).values.ravel()
        with2 = build_coefficient(grid, geo, open_ports={2}).values.ravel()
        port2 = port_element_ids(grid, geo, 2)
        assert np.all(base[port2] == geo.sigma_low)
        assert np.all(with2[port2] == geo.sigma_high)

    def test_open_ports_add_exactly_their_rectangles(self):
        grid = Grid(200)
        geo = ChannelGeometry()
        base = build_coefficient(grid, geo).values.ravel()
        cur = build_coefficient(grid, geo, open_ports={2, 5}).values.ravel()
        expect = np.union1d(port_element_ids(grid, geo, 2), port_element_ids(grid, geo, 5))
        assert np.array_equal(np.flatnonzero(base != cur), expect)

    def test_invalid_port_rejected(self):
        with pytest.raises(ValueError, match="invalid ports"):
            build_coefficient(Grid(10), ChannelGeometry(), open_ports={9})

    def test_field_shape_validated(self):
        with pytest.raises(ValueError, match="shape"):
            CoefficientField(Grid(4), np.ones((3, 3)))

    def test_nonpositive_values_rejected(self):
        with pytest.raises(ValueError, match="invalid coefficient"):
            CoefficientField(Grid(2), np.array([[1.0, 1.0], [0.0, 1.0]]))

    def test_non_finite_values_rejected(self):
        for bad in (np.inf, np.nan):
            with pytest.raises(ValueError, match="invalid coefficient"):
                CoefficientField(Grid(2), np.array([[1.0, 1.0], [bad, 1.0]]))


class TestScheduleFields:
    def test_default_schedule_port_sets(self):
        assert tuple(DEFAULT_SCHEDULE) == (
            frozenset({2, 5}),
            frozenset({5}),
            frozenset(),
            frozenset({1}),
            frozenset({1, 5}),
        )

    def test_first_step_compared_against_closed_base(self):
        grid = Grid(200)
        geo = ChannelGeometry()
        fields = schedule_fields(grid, geo, DEFAULT_SCHEDULE)
        assert len(fields) == 5
        expect = np.union1d(port_element_ids(grid, geo, 2), port_element_ids(grid, geo, 5))
        assert np.array_equal(fields[0][1], expect)

    def test_step3_changes_are_port5_only(self):
        # the only schedule difference between steps 2 and 3 is port 5 closing
        grid = Grid(200)
        geo = ChannelGeometry()
        fields = schedule_fields(grid, geo, DEFAULT_SCHEDULE)
        assert np.array_equal(fields[2][1], port_element_ids(grid, geo, 5))

    def test_identical_consecutive_steps_change_nothing(self):
        grid = Grid(200)
        geo = ChannelGeometry()
        fields = schedule_fields(grid, geo, ModificationSchedule(({1}, {1})))
        assert len(fields[1][1]) == 0

    def test_changes_confined_to_port_rectangles(self):
        grid = Grid(200)
        geo = ChannelGeometry()
        ports = np.concatenate([port_element_ids(grid, geo, p) for p in range(1, 7)])
        for _, changed in schedule_fields(grid, geo, DEFAULT_SCHEDULE):
            assert np.all(np.isin(changed, ports))

    def test_invalid_port_in_schedule_rejected(self):
        with pytest.raises(ValueError, match="invalid ports"):
            schedule_fields(Grid(10), ChannelGeometry(), ModificationSchedule(({8},)))


class TestAssemble:
    def test_element_stiffness_against_quadrature(self):
        expect = np.array(
            [
                [4.0, -1.0, -2.0, -1.0],
                [-1.0, 4.0, -1.0, -2.0],
                [-2.0, -1.0, 4.0, -1.0],
                [-1.0, -2.0, -1.0, 4.0],
            ]
        ) / 6.0
        assert np.allclose(K_REF, expect, atol=1e-15)
        assert np.allclose(K_REF, reference_element_stiffness(), atol=1e-14)

    def test_constant_coefficient_reproduces_linear_solution(self):
        grid = Grid(30)
        system = assemble(grid, build_coefficient(grid, ChannelGeometry.empty()))
        x = np.linalg.solve(system.A.to_scipy().toarray(), system.f)
        full = system.reconstruct(x)
        nodes = np.arange(grid.n_nodes)
        xs = (nodes % (grid.m + 1)) * grid.h
        assert np.max(np.abs(full - (1 - 2 * xs))) < 1e-10

    def test_solution_invariant_under_coefficient_scaling(self):
        grid = Grid(12)
        sols = []
        for c in (1.0, 3.7, 1e5):
            field = CoefficientField(grid, np.full((12, 12), c))
            system = assemble(grid, field)
            sols.append(np.linalg.solve(system.A.to_scipy().toarray(), system.f))
        assert np.allclose(sols[0], sols[1], atol=1e-10)
        assert np.allclose(sols[0], sols[2], atol=1e-10)

    def test_two_by_two_grid(self):
        grid = Grid(2)
        system = assemble(grid, build_coefficient(grid, ChannelGeometry.empty()))
        A = system.A.to_scipy().toarray()
        assert A.shape == (3, 3)
        assert np.array_equal(A, A.T)
        assert np.all(2 * np.abs(A).diagonal() >= np.abs(A).sum(axis=1))

    def test_matrix_is_symmetric_and_positive_definite(self):
        grid = Grid(8)
        rng = np.random.default_rng(3)
        values = np.where(rng.random((8, 8)) < 0.3, 1e5 + 1.0, 1.0)
        system = assemble(grid, CoefficientField(grid, values))
        assert_canonical_symmetric(system.A)
        assert np.min(scipy.linalg.eigvalsh(system.A.to_scipy().toarray())) > 0

    def test_duplicates_sum_bitwise_symmetrically(self):
        # each entry (i, j) and its mirror (j, i) gather the same element
        # contributions in the same order, so their sums are bitwise equal
        for m in (2, 3, 7, 20):
            grid = Grid(m)
            for seed in range(3):
                system = assemble(grid, high_contrast_field(grid, seed))
                D = system.A.to_scipy().toarray()
                assert np.array_equal(D, D.T)
                assert_canonical_symmetric(system.A)

    def test_load_vector_carries_boundary_lift(self):
        grid = Grid(4)
        geo = ChannelGeometry.empty()
        system = assemble(grid, build_coefficient(grid, geo))
        # independent full assembly from element contributions
        n = grid.n_nodes
        full = np.zeros((n, n))
        for e in range(grid.n_elements):
            ex, ey = grid.element_xy(e)
            sw = ey * (grid.m + 1) + ex
            ids = [sw, sw + 1, sw + grid.m + 2, sw + grid.m + 1]
            full[np.ix_(ids, ids)] += K_REF
        ii = np.arange(n) % (grid.m + 1)
        free = np.flatnonzero((ii >= 1) & (ii <= grid.m - 1))
        diri = np.flatnonzero((ii == 0) | (ii == grid.m))
        g = np.where(ii[diri] == 0, 1.0, -1.0)
        assert np.allclose(system.A.to_scipy().toarray(), full[np.ix_(free, free)], atol=1e-14)
        assert np.allclose(system.f, -full[np.ix_(free, diri)] @ g, atol=1e-14)

    def test_reconstruct_applies_boundary_values(self):
        grid = Grid(3)
        system = assemble(grid, build_coefficient(grid, ChannelGeometry.empty()))
        full = system.reconstruct(np.zeros(system.n))
        ii = np.arange(grid.n_nodes) % (grid.m + 1)
        assert np.all(full[ii == 0] == 1.0)
        assert np.all(full[ii == grid.m] == -1.0)
        with pytest.raises(ValueError, match="length"):
            system.reconstruct(np.zeros(system.n + 1))

    def test_solution_respects_boundary_value_bounds(self):
        grid = Grid(100)
        system = assemble(grid, build_coefficient(grid, ChannelGeometry()))
        x = scipy.sparse.linalg.spsolve(system.A.to_scipy().tocsc(), system.f)
        full = system.reconstruct(x)
        assert np.min(full) >= -1 - 1e-9
        assert np.max(full) <= 1 + 1e-9

    def test_mismatched_grid_rejected(self):
        field = build_coefficient(Grid(4), ChannelGeometry.empty())
        with pytest.raises(ValueError, match="different grid"):
            assemble(Grid(5), field)


class TestAssembleLocalNeumann:
    # rows follow ascending node ids, i.e. (SW, SE, NW, NE) for one element
    ASCENDING = np.ix_([0, 1, 3, 2], [0, 1, 3, 2])

    def test_single_interior_element_is_reference_stiffness(self):
        grid = Grid(4)
        field = build_coefficient(grid, ChannelGeometry.empty())
        K, nodes = assemble_local_neumann(grid, field, [grid.element_id(1, 1)])
        K = K.toarray()
        assert K.shape == (4, 4)
        assert np.allclose(K, K_REF[self.ASCENDING], atol=1e-15)
        assert np.max(np.abs(K @ np.ones(4))) < 1e-12
        i, j = np.array([1, 2, 2, 1]), np.array([1, 1, 2, 2])
        assert np.array_equal(np.sort(nodes), np.sort(grid.free_index(i, j)))

    def test_conductivity_scales_linearly(self):
        grid = Grid(4)
        field = CoefficientField(grid, np.full((4, 4), 7.5))
        K, _ = assemble_local_neumann(grid, field, [grid.element_id(2, 2)])
        assert np.allclose(K.toarray(), 7.5 * K_REF[self.ASCENDING], atol=1e-12)

    def test_whole_grid_matches_global_assembly(self):
        grid = Grid(6)
        rng = np.random.default_rng(11)
        field = CoefficientField(grid, rng.uniform(0.5, 2.0, (6, 6)))
        system = assemble(grid, field)
        K, nodes = assemble_local_neumann(grid, field, np.arange(grid.n_elements))
        assert np.array_equal(nodes, np.arange(grid.n_free))
        assert np.allclose(K.toarray(), system.A.to_scipy().toarray(), atol=1e-12)

    def test_interior_block_has_constant_kernel(self):
        grid = Grid(8)
        field = build_coefficient(grid, ChannelGeometry.empty())
        elements = [grid.element_id(ex, ey) for ex in (3, 4) for ey in (3, 4)]
        K, _ = assemble_local_neumann(grid, field, elements)
        K = K.toarray()
        w = scipy.linalg.eigvalsh(K)
        assert abs(w[0]) < 1e-12
        assert w[1] > 1e-3
        assert np.max(np.abs(K @ np.ones(len(K)))) < 1e-12

    def test_block_touching_boundary_is_positive_definite(self):
        grid = Grid(8)
        field = build_coefficient(grid, ChannelGeometry.empty())
        elements = [grid.element_id(0, ey) for ey in (3, 4)]
        K, _ = assemble_local_neumann(grid, field, elements)
        assert np.min(scipy.linalg.eigvalsh(K.toarray())) > 1e-6

    def test_sparse_matrix_matches_dense_accumulation(self):
        # the sparse assembly must give bitwise the entries that adding
        # every element matrix into a dense array in element order gives
        grid = Grid(40)
        field = build_coefficient(grid, ChannelGeometry(), open_ports={2, 5})
        elements = np.array(
            [grid.element_id(ex, ey) for ey in range(13, 28) for ex in range(0, 15)], dtype=np.int64
        )
        K, _ = assemble_local_neumann(grid, field, elements)
        ex, ey = grid.element_xy(elements)
        sw = ey * (grid.m + 1) + ex
        enodes = np.stack([sw, sw + 1, sw + grid.m + 2, sw + grid.m + 1], axis=-1)
        ii = enodes % (grid.m + 1)
        nodes = np.unique(enodes[(ii >= 1) & (ii <= grid.m - 1)])
        local = np.full(grid.n_nodes, -1)
        local[nodes] = np.arange(len(nodes))
        loc = local[enodes]
        lr = np.broadcast_to(loc[:, :, None], loc.shape + (4,))
        lc = np.broadcast_to(loc[:, None, :], loc.shape + (4,))
        vals = field.values.ravel()[elements][:, None, None] * K_REF[None, :, :]
        keep = (lr >= 0) & (lc >= 0)
        want = np.zeros((len(nodes), len(nodes)))
        np.add.at(want, (lr[keep], lc[keep]), vals[keep])
        assert sp.issparse(K)
        assert np.array_equal(K.toarray(), want)

    def test_empty_element_set_rejected(self):
        grid = Grid(4)
        field = build_coefficient(grid, ChannelGeometry.empty())
        with pytest.raises(ValueError, match="non-empty"):
            assemble_local_neumann(grid, field, [])

    def test_out_of_range_element_rejected(self):
        grid = Grid(4)
        field = build_coefficient(grid, ChannelGeometry.empty())
        with pytest.raises(ValueError, match="out of range"):
            assemble_local_neumann(grid, field, [16])


class TestProblemSequence:
    def test_sequence_matches_per_step_assembly(self):
        grid = Grid(40)
        geo = ChannelGeometry(
            channel_centers=(0.6, 0.5, 0.4),
            channel_height=0.05,
            x_left=0.1,
            x_right=0.9,
            port_length=0.05,
        )
        probs = problem_sequence(grid, geo, DEFAULT_SCHEDULE)
        assert len(probs) == 5
        fields = schedule_fields(grid, geo, DEFAULT_SCHEDULE)
        for prob, (field, changed) in zip(probs, fields):
            assert np.array_equal(prob.changed_elements, changed)
            assert np.array_equal(prob.coefficient.values, field.values)
            expect = assemble(grid, field)
            assert np.allclose(
                prob.system.A.to_scipy().toarray(), expect.A.to_scipy().toarray(), atol=0
            )
            assert np.array_equal(prob.system.f, expect.f)

    def test_unchanged_operator_entries_between_steps(self):
        # consecutive systems differ only in rows/columns touched by changed elements
        grid = Grid(40)
        geo = ChannelGeometry(
            channel_centers=(0.6, 0.5, 0.4),
            channel_height=0.05,
            x_left=0.1,
            x_right=0.9,
            port_length=0.05,
        )
        probs = problem_sequence(grid, geo, DEFAULT_SCHEDULE)
        for prev, cur in zip(probs, probs[1:]):
            diff = cur.system.A.to_scipy() - prev.system.A.to_scipy()
            diff = np.abs(diff.toarray())
            if len(cur.changed_elements) == 0:
                assert np.max(diff) == 0
                continue
            ex, ey = grid.element_xy(cur.changed_elements)
            touched = set()
            for x, y in zip(ex, ey):
                for dx in (0, 1):
                    for dy in (0, 1):
                        if 1 <= x + dx <= grid.m - 1:
                            touched.add(int(grid.free_index(x + dx, y + dy)))
            untouched = np.setdiff1d(np.arange(grid.n_free), sorted(touched))
            assert np.max(diff[np.ix_(untouched, untouched)]) == 0


def assert_bitwise(got, want):
    """Two systems with bitwise equal CSR arrays of A, index types included, and load vectors."""
    A, B = got.A.to_scipy(), want.A.to_scipy()
    for a, b in ((A.data, B.data), (A.indices, B.indices), (A.indptr, B.indptr), (got.f, want.f)):
        assert a.dtype == b.dtype and np.array_equal(a, b)


class TestAssemblyPlan:
    @staticmethod
    def assert_matches_reference(system, grid, coefficient):
        A, (A0, f0) = system.A.to_scipy(), reference_assemble(grid, coefficient)
        for got, want in ((A.indptr, A0.indptr), (A.indices, A0.indices), (A.data, A0.data), (system.f, f0)):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("m", [2, 3, 8, 40])
    def test_random_fields_bitwise_equal_to_reference_assembly(self, m):
        grid = Grid(m)
        for seed in range(3):
            field = high_contrast_field(grid, seed)
            self.assert_matches_reference(assemble(grid, field), grid, field)

    def test_default_schedule_bitwise_equal_to_reference_assembly(self):
        grid = Grid(40)
        for field, _ in schedule_fields(grid, SMALL_GEOMETRY, DEFAULT_SCHEDULE):
            self.assert_matches_reference(assemble(grid, field), grid, field)

    def test_plan_built_once_per_grid_object(self):
        grid = Grid(6)
        assert grid.assembly_plan is grid.assembly_plan
        assert Grid(6).assembly_plan is not grid.assembly_plan

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_assembly_from_the_previous_system_is_a_fresh_one_bitwise(self, data):
        m = data.draw(st.integers(4, 12), label="m")
        elements = st.integers(0, m * m - 1)
        edges = [e for e in range(m * m) if e % m in (0, m - 1)]  # their sums include C's
        changed = data.draw(
            st.one_of(
                st.just([]),
                st.lists(elements, min_size=1, max_size=1),
                st.lists(st.sampled_from(edges), min_size=1, unique=True),
                st.lists(elements, unique=True),
                st.just(list(range(m * m))),
            ),
            label="changed",
        )
        grid = Grid(m)
        before = high_contrast_field(grid, data.draw(st.integers(0, 2**32 - 1), label="seed"))
        values = before.values.copy()
        values.ravel()[changed] = high_contrast_field(grid, len(changed)).values.ravel()[changed]
        field = CoefficientField(grid, values)
        assert_bitwise(assemble(grid, field, (assemble(grid, before), before)), assemble(grid, field))

    @pytest.mark.parametrize("walk", ["default", "port-walk"])
    def test_sequence_systems_are_fresh_assemblies_bitwise(self, walk):
        grid = Grid(40)
        if walk == "default":
            schedule = DEFAULT_SCHEDULE
        else:  # ten systems, each toggling one port of the last
            rng, ports, steps = np.random.default_rng(7), {2, 5}, []
            for _ in range(10):
                steps.append(set(ports))
                ports ^= {int(rng.integers(1, 7))}
            schedule = ModificationSchedule(tuple(steps))
        probs = problem_sequence(grid, SMALL_GEOMETRY, schedule)
        assert len(probs) == len(schedule)
        indices, indptr = grid.assembly_plan[3]
        for prob in probs:
            assert_bitwise(prob.system, assemble(grid, prob.coefficient))
            # one pattern for every system: the fast path of Coupling.local
            A = prob.system.A.to_scipy()
            assert A.indptr is indptr and A.indices.base is indices.base

    def test_previous_system_of_another_grid_rejected(self):
        field = build_coefficient(Grid(4), ChannelGeometry.empty())
        other = build_coefficient(Grid(5), ChannelGeometry.empty())
        with pytest.raises(ValueError, match="different grid"):
            assemble(Grid(4), field, (assemble(Grid(5), other), other))

    def test_systems_share_one_pattern_that_solving_leaves_unchanged(self):
        grid = Grid(20)
        probs = problem_sequence(grid, SMALL_GEOMETRY, ModificationSchedule(({2, 5}, {5}, {1})))
        first = probs[0].system.A.to_scipy()

        def shared(A):
            return np.shares_memory(A.indices, first.indices) and np.shares_memory(A.indptr, first.indptr)

        assert all(shared(prob.system.A.to_scipy()) for prob in probs[1:])
        assert not first.indices.flags.writeable and not first.indptr.flags.writeable
        indices, indptr = first.indices.copy(), first.indptr.copy()
        dec = build_decomposition(grid, 4, 1)
        for strategy in ("lrbas", "pcg-guess"):
            run_sequence(probs, dec, opts=SolverOptions(strategy=strategy))
            assert all(shared(prob.system.A.to_scipy()) for prob in probs)
            assert np.array_equal(first.indices, indices) and np.array_equal(first.indptr, indptr)


class TestProperties:
    @settings(max_examples=20, deadline=None)
    @given(st.floats(min_value=1e-3, max_value=1e6))
    def test_patch_invariance(self, c):
        grid = Grid(6)
        system = assemble(grid, CoefficientField(grid, np.full((6, 6), c)))
        x = np.linalg.solve(system.A.to_scipy().toarray(), system.f)
        full = system.reconstruct(x)
        xs = (np.arange(grid.n_nodes) % (grid.m + 1)) * grid.h
        assert np.max(np.abs(full - (1 - 2 * xs))) < 1e-9

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=2**36 - 1))
    def test_random_two_valued_fields_assemble_spd(self, seed):
        grid = Grid(5)
        rng = np.random.default_rng(seed)
        values = np.where(rng.random((5, 5)) < 0.5, 1e5 + 1.0, 1.0)
        system = assemble(grid, CoefficientField(grid, values))
        assert_canonical_symmetric(system.A)
        assert np.min(scipy.linalg.eigvalsh(system.A.to_scipy().toarray())) > 0

    @settings(max_examples=15, deadline=None)
    @given(
        st.lists(
            st.sets(st.integers(min_value=1, max_value=6)),
            min_size=1,
            max_size=4,
        )
    )
    def test_schedule_changes_stay_in_port_rectangles(self, port_sets):
        grid = Grid(50)
        geo = ChannelGeometry(
            channel_centers=(0.6, 0.5, 0.4),
            channel_height=0.04,
            port_length=0.04,
        )
        ports = np.concatenate([port_element_ids(grid, geo, p) for p in range(1, 7)])
        schedule = ModificationSchedule(tuple(port_sets))
        for _, changed in schedule_fields(grid, geo, schedule):
            assert np.all(np.isin(changed, ports))
