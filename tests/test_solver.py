"""Tests for the reduced basis solver, its enrichment loop, and the CG baselines."""
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lrbas.solver
from lrbas.decomposition import (
    CoarseSpace,
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
    return LocalOperators.build(system.A, dec.index_sets, empty_coarse(dec))


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
    ops = LocalOperators.build(system.A, dec.index_sets, coarse)
    return system, dec, pou, coarse, ops


def reduced_space_matrix(dec, coarse, bases):
    """Dense matrix whose columns span coarse plus all local basis vectors."""
    cols = [coarse.matrix.toarray()] if coarse.n0 else []
    for s, b in zip(dec.subdomains, bases):
        if b.dim:
            lift = np.zeros((dec.grid.n_free, b.dim))
            lift[s.indices] = b.vectors
            cols.append(lift)
    if not cols:
        return np.zeros((dec.grid.n_free, 0))
    return np.hstack(cols)


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
        R0T = coarse.matrix
        A0 = (R0T.T @ (system.A.to_scipy() @ R0T)).toarray()
        # the preconditioner's coarse matrix is the reduced system's coarse block, bit for bit
        assert np.array_equal(ops.coarse_matrix, A0)
        n0 = coarse.n0
        assert np.array_equal(rs.M[:n0, :n0], 0.5 * (A0 + A0.T))
        x, coeff = rs.solve()
        want = R0T @ np.linalg.solve(A0, R0T.T @ system.f)
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
        at = np.argsort(rs.owner, kind="stable")  # phi column j is rs column at[j]
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
        # a fresh system appends subdomain by subdomain; map the
        # incremental one's columns by owner, each owner's in basis order
        at = np.argsort(rs.owner, kind="stable")
        assert np.array_equal(rs.owner[at], fresh.owner)
        scale = np.abs(fresh.M).max()
        assert np.max(np.abs(rs.M[np.ix_(at, at)] - fresh.M)) <= 1e-12 * scale
        assert np.max(np.abs(rs.rhs[at] - fresh.rhs)) <= 1e-12 * np.abs(fresh.rhs).max()

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


class TestPcg:
    def test_exact_preconditioner_converges_in_one_iteration(self):
        grid = Grid(10)
        system = assemble(grid, build_coefficient(grid, ChannelGeometry.empty()))
        dec = build_decomposition(grid, 1, 1)
        ops = LocalOperators.build(system.A, dec.index_sets, empty_coarse(dec))
        x, iters, history = pcg(system, ops, np.zeros(system.n), 1e-10, 50)
        assert iters == 1
        want = np.linalg.solve(system.A.to_scipy().toarray(), system.f)
        assert np.allclose(x, want, atol=1e-8 * np.abs(want).max())

    def test_reported_residuals_are_true_residuals(self):
        system, dec, _, _, ops = _CACHE20()
        x, iters, history = pcg(system, ops, np.zeros(system.n), 1e-8, 100)
        recomputed = np.linalg.norm(system.f - system.A.matvec(x)) / np.linalg.norm(system.f)
        assert history[-1] == pytest.approx(recomputed, rel=1e-13)
        assert history[-1] <= 1e-8
        assert len(history) == iters + 1

    def test_warm_start_reduces_initial_residual(self):
        system, dec, _, _, ops = _CACHE20()
        x_exact = np.linalg.solve(system.A.to_scipy().toarray(), system.f)
        _, iters_cold, _ = pcg(system, ops, np.zeros(system.n), 1e-8, 100)
        _, iters_warm, history = pcg(system, ops, 0.999 * x_exact, 1e-8, 100)
        assert history[0] < 1e-2
        assert iters_warm <= iters_cold

    def test_nonconvergence_raises(self):
        system, dec, _, _, ops = _CACHE20()
        with pytest.raises(ConvergenceFailure, match="pcg stalled at relative residual"):
            pcg(system, ops, np.zeros(system.n), 1e-12, 2)


class TestSnapshotGuess:
    def test_no_previous_solutions_gives_coarse_galerkin(self):
        system, dec, pou, coarse, ops = _CONSTANT12()
        x0 = pou_snapshot_guess(system, dec, ops, empty_bases(dec))
        R0T = coarse.matrix
        A0 = (R0T.T @ (system.A.to_scipy() @ R0T)).toarray()
        want = R0T @ np.linalg.solve(A0, R0T.T @ system.f)
        assert np.allclose(x0, want, atol=1e-10 * np.abs(want).max())

    def test_snapshot_of_identical_system_reproduces_solution(self):
        system, dec, pou, _, ops = _CACHE20()
        A = system.A.to_scipy().toarray()
        x_exact = np.linalg.solve(A, system.f)
        snaps = empty_bases(dec)
        append_snapshot(snaps, dec, pou, x_exact)
        x0 = pou_snapshot_guess(system, dec, ops, snaps)
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
        ops = LocalOperators.build(probs[1].system.A, dec.index_sets, coarse)
        snaps = empty_bases(dec)
        append_snapshot(snaps, dec, pou, prev_x)
        x0 = pou_snapshot_guess(probs[1].system, dec, ops, snaps)
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

        def spy(system, dec, ops, snaps):
            carried.append([b.vectors.copy() for b in snaps])
            return guess(system, dec, ops, snaps)

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
        b1 = b0.copy()
        for _ in range(extra):
            b1.append(rng.standard_normal(n))
        return b0, b1

    def test_unenriched_basis_carried_unchanged(self):
        rng = np.random.default_rng(0)
        b0, _ = self._basis_pair(rng, extra=0)
        out = transition_bases([b0], [b0.copy()], [np.zeros(b0.dim)], keep_full=False)
        assert np.array_equal(out[0].vectors, b0.vectors)

    def test_solution_only_transition_appends_one_vector(self):
        rng = np.random.default_rng(1)
        b0, b1 = self._basis_pair(rng)
        ci = rng.standard_normal(b1.dim)
        out = transition_bases([b0], [b1], [ci], keep_full=False)
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
        out = transition_bases([b0], [b1], [ci], keep_full=False)
        assert out[0].dim == b0.dim

    def test_keep_full_carries_entire_basis(self):
        rng = np.random.default_rng(3)
        b0, b1 = self._basis_pair(rng)
        out = transition_bases([b0], [b1], [np.zeros(b1.dim)], keep_full=True)
        assert np.array_equal(out[0].vectors, b1.vectors)


class TestSolveOne:
    def test_invariants_along_the_iteration(self, spy_solver):
        # Galerkin orthogonality, exhaustive-enrichment identity, and
        # energy-norm monotonicity, checked against a dense solve.
        system, dec, pou, coarse, ops = _MILD20()
        opts = SolverOptions(eps=1e-6, eps_loc=0.0)
        bases = empty_bases(dec)
        (x, coeff, iters, corrections, history), log = spy_solver(
            lrbas_solve_one, system, dec, ops, bases, opts
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
        ops = LocalOperators.build(system.A, dec.index_sets, empty_coarse(dec))
        opts = SolverOptions(eps=1e-10, eps_loc=0.0)
        x, _, iters, corrections, history = lrbas_solve_one(system, dec, ops, empty_bases(dec), opts)
        assert iters == 1
        assert corrections.sum() == 1
        want = np.linalg.solve(system.A.to_scipy().toarray(), system.f)
        assert np.allclose(x, want, atol=1e-8 * np.abs(want).max())

    def test_max_iter_exhaustion_raises_with_partial_report(self):
        system, dec, _, _, ops = _CACHE20()
        opts = SolverOptions(eps=1e-12, eps_loc=0.25, max_iter=1)
        with pytest.raises(ConvergenceFailure) as info:
            lrbas_solve_one(system, dec, ops, empty_bases(dec), opts)
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
            monkeypatch.setattr(LocalBasis, "append", lambda basis, y, drop_tol=1e-10: False)
        opts = SolverOptions(eps=1e-12, eps_loc=eps_loc, max_iter=200)
        with pytest.raises(ConvergenceFailure, match=cause) as info:
            lrbas_solve_one(system, dec, ops, empty_bases(dec), opts)
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
            lrbas_solve_one(replace(system, f=f), dec, ops, empty_bases(dec), opts)


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


_CACHE = {}


def _CACHE20():
    """Shared 20x20 stack with a two-level coarse space (read-only in tests)."""
    if "s" not in _CACHE:
        _CACHE["s"] = geneo_stack(20, 2, 2, open_ports={2, 5})
    return _CACHE["s"]


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
        ops = LocalOperators.build(system.A, dec.index_sets, coarse)
        _CACHE["c"] = (system, dec, pou, coarse, ops)
    return _CACHE["c"]
