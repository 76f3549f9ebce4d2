"""Sparse storage, factorization, and eigensolver tests."""
import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings, strategies as st

import lrbas.linalg
from lrbas.linalg import IndefiniteMatrixError, SparseSymMatrix, factorize, sym_gen_eig


def tridiag(n, d=2.0, o=-1.0):
    M = np.zeros((n, n))
    np.fill_diagonal(M, d)
    idx = np.arange(n - 1)
    M[idx, idx + 1] = o
    M[idx + 1, idx] = o
    return M


def random_spd(rng, n, shift=1.0):
    G = rng.standard_normal((n, n))
    return G @ G.T + shift * np.eye(n)


def random_banded_spd(rng, n, bw):
    """Diagonally dominant, exactly symmetric CSR matrix of bandwidth bw."""
    G = rng.standard_normal((n, n))
    upper = np.triu(G, 1) - np.triu(G, bw + 1)
    off = upper + upper.T
    return sp.csr_matrix(off + np.diag(np.abs(off).sum(axis=1) + 1.0))


def sparse_sym(M):
    return SparseSymMatrix(sp.csr_matrix(M))


def neumann_pencil(rows, cols):
    """Sparse pencil of the singular Neumann Laplacian of a rows x cols grid
    graph against the identity: the lowest eigenvalue is zero, and a
    square grid has double eigenvalues."""

    def path(m):
        main = np.r_[1.0, np.full(m - 2, 2.0), 1.0]
        return sp.diags([-np.ones(m - 1), main, -np.ones(m - 1)], [-1, 0, 1])

    A = sp.kron(path(rows), sp.identity(cols)) + sp.kron(sp.identity(rows), path(cols))
    return A.tocsr(), sp.identity(rows * cols, format="csr")


@pytest.fixture
def eigsh_calls(monkeypatch):
    """Counts the ARPACK calls of sym_gen_eig."""
    calls = []
    eigsh = lrbas.linalg.eigsh

    def counted(*args, **kwargs):
        calls.append(kwargs.get("ncv"))
        return eigsh(*args, **kwargs)

    monkeypatch.setattr(lrbas.linalg, "eigsh", counted)
    return calls


# ---------------------------------------------------------------- storage


class TestSparseSymMatrix:
    def test_matvec_identity(self):
        A = sparse_sym(np.eye(2))
        assert np.array_equal(A.matvec(np.array([3.0, 4.0])), [3.0, 4.0])

    def test_matvec_row_sums(self):
        A = sparse_sym(np.array([[2.0, 1.0], [1.0, 2.0]]))
        assert np.array_equal(A.matvec(np.array([1.0, 1.0])), [3.0, 3.0])

    def test_matvec_tridiagonal(self):
        A = sparse_sym(tridiag(3))
        assert np.array_equal(A.matvec(np.array([1.0, 2.0, 3.0])), [0.0, 0.0, 4.0])

    def test_matvec_dimension_mismatch(self):
        A = sparse_sym(np.eye(2))
        with pytest.raises(ValueError):
            A.matvec(np.ones(3))

    def test_submatrix_adjacent_rows(self):
        A = sparse_sym(tridiag(3))
        assert np.array_equal(A.submatrix(np.array([0, 1])).toarray(), [[2.0, -1.0], [-1.0, 2.0]])

    def test_submatrix_full_is_dense_copy(self):
        M = tridiag(4)
        A = sparse_sym(M)
        assert np.array_equal(A.submatrix(np.arange(4)).toarray(), M)

    def test_submatrix_skipping_a_row_zeroes_coupling(self):
        A = sparse_sym(tridiag(3))
        assert np.array_equal(A.submatrix(np.array([0, 2])).toarray(), [[2.0, 0.0], [0.0, 2.0]])

    def test_submatrix_out_of_range(self):
        A = sparse_sym(tridiag(3))
        with pytest.raises(ValueError):
            A.submatrix(np.array([0, 3]))

    def test_from_coo_sums_duplicates_symmetrically(self):
        # contributions come in mirrored pairs like elementwise assembly;
        # the summed duplicates must come out bitwise symmetric
        rng = np.random.default_rng(7)
        n, reps = 6, 40
        i = rng.integers(0, n, reps)
        j = rng.integers(0, n, reps)
        v = rng.standard_normal(reps)
        rows = np.concatenate([np.stack([i, j], axis=1).ravel(), np.arange(n)])
        cols = np.concatenate([np.stack([j, i], axis=1).ravel(), np.arange(n)])
        vals = np.concatenate([np.repeat(v, 2), np.full(n, 10.0)])
        A = SparseSymMatrix.from_coo(n, rows, cols, vals)
        D = A.submatrix(np.arange(n)).toarray()
        assert np.array_equal(D, D.T)
        csr = A.to_scipy()
        # column indices strictly increasing within each row
        row_of = np.repeat(np.arange(n), np.diff(csr.indptr))
        assert (np.diff(row_of * n + csr.indices) > 0).all()
        # structure and values bitwise symmetric, diagonal present and positive
        t = csr.T.tocsr()
        t.sort_indices()
        assert np.array_equal(t.indptr, csr.indptr) and np.array_equal(t.indices, csr.indices)
        assert np.array_equal(t.data, csr.data)
        assert (csr.diagonal() > 0).all()

    @settings(max_examples=50, deadline=None)
    @given(st.integers(2, 12), st.integers(0, 2**32 - 1))
    def test_matvec_linearity(self, n, seed):
        rng = np.random.default_rng(seed)
        A = sparse_sym(random_spd(rng, n))
        x, y = rng.standard_normal(n), rng.standard_normal(n)
        a, b = rng.standard_normal(2)
        lhs = A.matvec(a * x + b * y)
        rhs = a * A.matvec(x) + b * A.matvec(y)
        scale = max(np.abs(lhs).max(), 1e-30)
        assert np.abs(lhs - rhs).max() <= 1e-12 * scale

    @settings(max_examples=30, deadline=None)
    @given(st.integers(2, 40), st.integers(0, 2**32 - 1))
    def test_submatrix_matches_explicit_restriction(self, n, seed):
        rng = np.random.default_rng(seed)
        M = random_spd(rng, n)
        A = sparse_sym(M)
        k = int(rng.integers(1, n + 1))
        rows = np.sort(rng.choice(n, size=k, replace=False))
        R = np.zeros((k, n))
        R[np.arange(k), rows] = 1.0
        assert np.array_equal(A.submatrix(rows).toarray(), R @ M @ R.T)


# ---------------------------------------------------------------- factorize


class TestFactorize:
    def test_plain_cholesky_two_by_two(self):
        F = factorize(np.array([[4.0, 2.0], [2.0, 5.0]]), 0.0)
        assert np.allclose(F.lower, [[2.0, 0.0], [1.0, 2.0]])
        assert np.array_equal(F.perm, [0, 1])
        assert F.rank == 2

    def test_identity_factors_to_identity(self):
        F = factorize(np.eye(3), 0.0)
        assert np.array_equal(F.lower, np.eye(3))

    def test_rank_one_drops_second_pivot(self):
        F = factorize(np.ones((2, 2)), 1e-12)
        assert F.rank == 1
        assert len(F.perm[F.rank:]) == 1

    def test_negative_pivot_raises(self):
        M = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3, -1
        with pytest.raises(IndefiniteMatrixError, match="not positive semidefinite"):
            factorize(M, 1e-12)

    def test_asymmetric_input_rejected(self):
        with pytest.raises(ValueError):
            factorize(np.array([[1.0, 0.5], [0.0, 1.0]]), 0.0)

    def test_solve_identity(self):
        F = factorize(np.eye(2), 0.0)
        assert np.array_equal(F.solve(np.array([5.0, 6.0])), [5.0, 6.0])

    def test_solve_two_by_two(self):
        M = np.array([[4.0, 2.0], [2.0, 5.0]])
        x = factorize(M, 0.0).solve(np.array([8.0, 9.0]))
        assert np.allclose(x, [1.375, 1.25], atol=1e-12)
        assert np.linalg.norm(M @ x - [8.0, 9.0]) <= 1e-12

    def test_solve_singular_consistent_rhs(self):
        M = np.ones((2, 2))
        F = factorize(M, 1e-12)
        x = F.solve(np.array([1.0, 1.0]))
        assert np.allclose(M @ x, [1.0, 1.0], atol=1e-12)
        assert x[F.perm[F.rank]] == 0.0

    def test_solve_dimension_mismatch(self):
        F = factorize(np.eye(2), 0.0)
        with pytest.raises(ValueError):
            F.solve(np.ones(3))

    def test_reconstruction(self):
        rng = np.random.default_rng(3)
        M = random_spd(rng, 8)
        F = factorize(M, 1e-12)
        LLt = np.empty_like(M)
        LLt[np.ix_(F.perm, F.perm)] = F.lower @ F.lower.T  # P L L^T P^T
        err = np.abs(LLt - M).max()
        assert err <= 1e-10 * np.abs(M).max()

    @settings(max_examples=50, deadline=None)
    @given(st.integers(1, 50), st.integers(0, 2**32 - 1))
    def test_solve_round_trip_random_spd(self, n, seed):
        rng = np.random.default_rng(seed)
        M = random_spd(rng, n)
        b = rng.standard_normal(n)
        x = factorize(M, 1e-12).solve(b)
        assert np.linalg.norm(M @ x - b) <= 1e-9 * np.linalg.norm(b)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(2, 20), st.integers(1, 19), st.integers(0, 2**32 - 1))
    def test_semidefinite_rank_detected(self, n, r, seed):
        rng = np.random.default_rng(seed)
        r = min(r, n - 1)
        G = rng.standard_normal((n, r))
        M = G @ G.T  # rank <= r
        F = factorize(M, 1e-10)
        assert F.rank <= r
        b = M @ rng.standard_normal(n)  # consistent rhs
        x = F.solve(b)
        assert np.linalg.norm(M @ x - b) <= 1e-6 * max(np.linalg.norm(b), 1.0)


class TestFactorizeBordered:
    """``factorize(M, lead=F)`` with F the factor of M's leading block."""

    def test_three_borders_solve_like_a_one_shot_factor(self):
        rng = np.random.default_rng(7)
        M = random_spd(rng, 30)
        b = rng.standard_normal(30)
        F = factorize(M[:12, :12])
        for end in (17, 18, 30):
            F = factorize(M[:end, :end], lead=F)
        assert (F.n, F.rank) == (30, 30)
        want = factorize(M).solve(b)
        assert np.abs(F.solve(b) - want).max() <= 1e-12 * np.abs(want).max()

    def test_repeated_column_is_dropped_and_galerkin_identity_holds_on_kept_rows(self):
        rng = np.random.default_rng(8)
        G = rng.standard_normal((20, 9))
        G = np.hstack([G, G[:, 3:4]])  # column 9 repeats column 3
        M = G.T @ G
        F = factorize(M, lead=factorize(M[:9, :9]))
        assert F.rank == 9
        assert np.array_equal(F.perm[F.rank:], [9])
        b = rng.standard_normal(10)
        x = F.solve(b)
        assert x[9] == 0.0
        kept = F.perm[: F.rank]
        assert np.linalg.norm((M @ x - b)[kept]) <= 1e-10 * np.linalg.norm(b)

    def test_nearly_dependent_border_of_an_ill_conditioned_lead_is_not_reported(self):
        # the border's Schur pivot cancels coefficients of size 1e5, so its
        # roundoff, of either sign, far exceeds the drop tolerance
        for seed in range(10):
            rng = np.random.default_rng(seed)
            G = rng.standard_normal((40, 12))
            r = rng.standard_normal(40)
            G[:, 11] = G[:, 0] + 1e-5 * r  # kept, with a scaled pivot near 1e-10
            W = np.hstack([G, (r + G[:, 1])[:, None]])  # in the span of G
            M = W.T @ W
            F = factorize(M, 1e-12, lead=factorize(M[:12, :12], 1e-12))
            assert F.rank >= 12

    def test_indefinite_trailing_block_raises(self):
        M = np.array([[4.0, 2.0, 0.0], [2.0, 5.0, 3.0], [0.0, 3.0, 1.0]])  # Schur pivot of column 2 is -1.25
        lead = factorize(M[:2, :2])
        with pytest.raises(IndefiniteMatrixError, match="not positive semidefinite"):
            factorize(M, lead=lead)

    def test_nonsymmetric_trailing_block_rejected(self):
        M = np.eye(4)
        M[3, 2] = 0.5
        with pytest.raises(ValueError, match="not symmetric"):
            factorize(M, lead=factorize(M[:2, :2]))

    def test_lead_larger_than_matrix_rejected(self):
        with pytest.raises(ValueError, match="lead"):
            factorize(np.eye(2), lead=factorize(np.eye(3)))


class TestFactorizeSparse:
    @pytest.mark.parametrize("n, bw", [(1, 0), (12, 3), (60, 5), (40, 39)])
    def test_solve_matches_spsolve(self, n, bw):
        rng = np.random.default_rng(n + bw)
        M = random_banded_spd(rng, n, bw)
        b = rng.standard_normal(n)
        want = spla.spsolve(M.tocsc(), b)
        assert np.abs(factorize(M).solve(b) - want).max() <= 1e-12 * np.abs(want).max()

    def test_banded_factor_has_identity_permutation_and_full_rank(self):
        M = random_banded_spd(np.random.default_rng(1), 30, 4)
        F = factorize(M)
        assert np.array_equal(F.perm, np.arange(30))
        assert F.rank == 30 and len(F.perm[F.rank:]) == 0
        assert F.lower.shape == (5, 30)

    def test_asymmetric_input_rejected(self):
        with pytest.raises(ValueError, match="not symmetric"):
            factorize(sp.csr_matrix(np.array([[2.0, 1.0], [0.5, 2.0]])))

    @pytest.mark.parametrize(
        "M",
        [
            [[1.0, 2.0], [2.0, 1.0]],  # eigenvalues 3, -1
            [[1.0, 1.0], [1.0, 1.0]],  # singular
            [[1.0, 0.0], [0.0, 1e-14]],  # pivot below the threshold
        ],
    )
    def test_not_positive_definite_raises(self, M):
        with pytest.raises(IndefiniteMatrixError, match="not positive definite"):
            factorize(sp.csr_matrix(np.array(M)), 1e-12)


# ---------------------------------------------------------------- eigensolver


class TestSymGenEig:
    def test_diagonal_pencil(self):
        w, P = sym_gen_eig(np.diag([2.0, 8.0]), np.eye(2), upper=np.inf)
        assert np.allclose(w, [2.0, 8.0])
        assert np.allclose(np.abs(P), np.eye(2))

    def test_identity_pencil_all_ones(self):
        rng = np.random.default_rng(0)
        A = random_spd(rng, 5)
        w, _ = sym_gen_eig(A, A.copy(), upper=np.inf)
        assert np.allclose(w, 1.0)

    def test_tridiagonal_characteristic_roots(self):
        w, _ = sym_gen_eig(tridiag(2), np.eye(2), upper=np.inf)
        assert np.allclose(w, [1.0, 3.0])

    def test_eigenvalues_ascending(self):
        rng = np.random.default_rng(1)
        A = random_spd(rng, 9)
        B = random_spd(rng, 9)
        w, _ = sym_gen_eig(A, B, upper=np.inf)
        assert np.all(np.diff(w) >= 0)

    def test_indefinite_right_matrix_rejected(self):
        A = np.eye(2)
        B = np.diag([1.0, -1.0])
        with pytest.raises(IndefiniteMatrixError, match="invalid right-hand matrix"):
            sym_gen_eig(A, B, upper=np.inf)

    def test_upper_bound_selects_subset(self):
        w, P = sym_gen_eig(np.diag([1.0, 2.0, 30.0]), np.eye(3), upper=10.0)
        assert np.allclose(w, [1.0, 2.0])
        assert P.shape == (3, 2)

    def test_sparse_pencil_takes_arpack_path_from_the_size_cut(self, eigsh_calls):
        assert lrbas.linalg._ARPACK_MIN_N == 400
        A, B = neumann_pencil(19, 21)  # 399 unknowns
        w, P = sym_gen_eig(A, B, upper=0.3)
        w_dense, P_dense = sym_gen_eig(A.toarray(), B.toarray(), upper=0.3)
        assert eigsh_calls == []
        assert np.array_equal(w, w_dense) and np.array_equal(P, P_dense)

        A, B = neumann_pencil(20, 20)
        w, P = sym_gen_eig(A, B, upper=0.3)
        w_dense, P_dense = sym_gen_eig(A.toarray(), B.toarray(), upper=0.3)
        assert eigsh_calls
        assert len(w) == len(w_dense) > lrbas.linalg._ARPACK_K0
        assert np.all(np.diff(w) >= 0) and np.abs(w - w_dense).max() <= 1e-12
        assert np.abs(P.T @ (B @ P) - np.eye(len(w))).max() <= 1e-12
        # the double eigenvalues make single vectors arbitrary: compare spans
        assert np.abs(P @ P.T - P_dense @ P_dense.T).max() <= 1e-10

    def test_too_many_wanted_pairs_fall_back_to_dense(self, eigsh_calls):
        # more than n / 16 = 25 eigenvalues lie below 1
        A, B = neumann_pencil(20, 20)
        w, P = sym_gen_eig(A, B, upper=1.0)
        w_dense, P_dense = sym_gen_eig(A.toarray(), B.toarray(), upper=1.0)
        assert len(eigsh_calls) == 3
        assert np.array_equal(w, w_dense) and np.array_equal(P, P_dense)

    def test_indefinite_right_matrix_rejected_on_arpack_path(self, eigsh_calls):
        A, B = neumann_pencil(20, 20)
        with pytest.raises(IndefiniteMatrixError, match="invalid right-hand matrix"):
            sym_gen_eig(A, -B, upper=0.3)
        assert eigsh_calls == []

    @settings(max_examples=30, deadline=None)
    @given(st.integers(2, 15), st.integers(0, 2**32 - 1))
    def test_b_orthonormal_and_residual(self, n, seed):
        rng = np.random.default_rng(seed)
        A = random_spd(rng, n, shift=0.1)
        B = random_spd(rng, n)
        w, P = sym_gen_eig(A, B, upper=np.inf)
        assert np.abs(P.T @ B @ P - np.eye(n)).max() <= 1e-9
        res = A @ P - B @ P * w
        bound = 1e-8 * (np.abs(A).max() + np.abs(w).max() * np.abs(B).max()) * n
        assert np.abs(res).max() <= bound
