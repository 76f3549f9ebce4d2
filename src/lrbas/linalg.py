"""Symmetric linear algebra kernels used by the solvers.

Dense symmetric matrices and vectors are plain float64 ndarrays; the
classes here add the two structures the solvers rely on: a CSR matrix
that stores both triangles of a symmetric matrix, and a Cholesky
factorization. A dense matrix (the coarse and reduced systems) gets a
pivoted semidefinite factor that drops a direction by its own energy and
can be extended by bordering columns; a sparse one (the local Dirichlet
matrices) gets a banded factor in its own index order.
The generalized eigensolver uses that banded factor too: on a large
sparse pencil it runs ARPACK through one factor of ``A + B``.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
from scipy.linalg.lapack import dpstrf
from scipy.sparse.linalg import ArpackError, LinearOperator, eigsh

# The ARPACK path of sym_gen_eig, placed by measurement on the GenEO
# pencils of the channel problem (OpenBLAS, one thread). Below this
# size ARPACK's per-call overhead costs more than dense eigh.
_ARPACK_MIN_N = 400
# Eigenpairs asked for first; the count doubles until the wanted range
# is covered, but never past n / 16, where dense eigh is the cheaper.
_ARPACK_K0 = 6
_ARPACK_K_FRACTION = 16
# Lanczos basis size floor and restart cap: a tight eigenvalue cluster
# larger than k stalls ARPACK, and after this many restarts the dense
# solve takes over.
_ARPACK_MIN_NCV = 20
_ARPACK_MAX_RESTARTS = 30
# Roundoff allowed in a scaled Schur pivot of a semidefinite matrix, per
# unit of the pivot's growth factor (see _require_semidefinite).
_ROUNDOFF = 64 * np.finfo(np.float64).eps


class IndefiniteMatrixError(ValueError):
    """Raised when a matrix required to be positive (semi)definite is not."""


class ConvergenceFailure(RuntimeError):
    """Raised when an iterative solve exhausts its iteration budget, or
    when a step of a sequence fails numerically.

    Carries an optional ``report`` attribute with whatever partial
    results the caller attached.
    """

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


def _require_symmetric(M, tol=1e-12, what="matrix", start=0):
    """M as float64, dense or CSR, after checking it is square and that its
    columns from ``start`` on equal its rows from ``start`` on."""
    if sp.issparse(M):
        M = sp.csr_matrix(M, dtype=np.float64)
    else:
        M = np.asarray(M, dtype=np.float64)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"{what} must be square, got shape {M.shape}")
    if start < M.shape[0]:
        cols, rows = (M, M) if start == 0 else (M[:, start:], M[start:, :])
        scale = abs(cols).max()
        if scale > 0 and abs(cols - rows.T).max() > tol * scale:
            raise ValueError(f"{what} is not symmetric to relative tolerance {tol}")
    return M


class SparseSymMatrix:
    """Symmetric sparse matrix in CSR form, both triangles stored.

    Rows are sorted by column index and every structural entry has its
    transpose partner with a bitwise equal value, which construction via
    ``from_coo`` guarantees by summing duplicate entries of (i, j) and
    (j, i) in the same order.
    """

    def __init__(self, csr):
        if not sp.issparse(csr) or csr.format != "csr":
            raise ValueError("expected a scipy CSR matrix")
        if csr.shape[0] != csr.shape[1]:
            raise ValueError(f"matrix must be square, got shape {csr.shape}")
        csr = csr.astype(np.float64, copy=False)
        if not csr.has_sorted_indices:
            csr.sort_indices()
        self._csr = csr

    @classmethod
    def from_coo(cls, n, rows, cols, vals):
        """Build from COO triplets, summing duplicates deterministically.

        Duplicates are grouped by (row, col) with a stable sort, so the
        summands of entry (i, j) and entry (j, i) appear in the same
        input order and the two sums are bitwise equal whenever the
        input triplet list is symmetric.
        """
        rows = np.asarray(rows, dtype=np.int64).ravel()
        cols = np.asarray(cols, dtype=np.int64).ravel()
        vals = np.asarray(vals, dtype=np.float64).ravel()
        if not (len(rows) == len(cols) == len(vals)):
            raise ValueError("rows, cols, vals must have equal length")
        if len(rows) and (rows.min() < 0 or rows.max() >= n or cols.min() < 0 or cols.max() >= n):
            raise ValueError("triplet index out of range")
        order = np.lexsort((cols, rows))  # stable: duplicates keep input order
        r, c, v = rows[order], cols[order], vals[order]
        key = r * np.int64(n) + c
        starts = np.flatnonzero(np.r_[True, np.diff(key) != 0])
        data = np.add.reduceat(v, starts) if len(v) else v
        ru, cu = r[starts], c[starts]
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(ru, minlength=n), out=indptr[1:])
        csr = sp.csr_matrix((data, cu.astype(np.int32, copy=False) if n < 2**31 else cu, indptr), shape=(n, n))
        return cls(csr)

    @property
    def n(self):
        return self._csr.shape[0]

    def to_scipy(self):
        return self._csr

    def matvec(self, x):
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.n,):
            raise ValueError(f"vector length {x.shape} does not match dimension {self.n}")
        return self._csr @ x

    def submatrix(self, rows):
        """Sparse CSR principal submatrix over the strictly increasing index list."""
        rows = np.asarray(rows, dtype=np.int64).ravel()
        if len(rows) == 0:
            raise ValueError("empty index list")
        if rows[0] < 0 or rows[-1] >= self.n or (len(rows) > 1 and (np.diff(rows) <= 0).any()):
            raise ValueError("indices must be strictly increasing and in range")
        return self._csr[rows][:, rows]


@dataclass
class Factorization:
    """Pivoted semidefinite Cholesky factorization P L L^T P^T of M.

    ``perm[j]`` is the original index placed at pivot position j;
    ``rank`` counts the kept pivots and ``perm[rank:]`` are the original
    indices of the dropped directions. The kept block of L, rows and
    columns in pivot order, is ``lower`` followed by the row ``panels``
    that bordering appended: a panel ``(B, D)`` holds the new rows of L,
    ``B`` below the earlier columns and ``D`` lower triangular.

    A ``banded`` factor, from a sparse input, is positive definite with
    the identity permutation and full rank; ``lower`` then holds L in
    LAPACK lower band storage, ``lower[d, j] = L[j + d, j]``.
    """

    n: int
    lower: np.ndarray  # lower triangular; banded: (bandwidth + 1, n)
    perm: np.ndarray  # (n,)
    rank: int
    banded: bool = False
    panels: tuple = ()

    def solve(self, b):
        """Solve M x = b; dropped directions get zero solution components.

        For a consistent right-hand side this is the solution supported
        on the retained pivot set. Accepts a vector or a matrix of
        right-hand-side columns.
        """
        b = np.asarray(b, dtype=np.float64)
        if b.shape[0] != self.n:
            raise ValueError(f"right-hand side length {b.shape[0]} does not match dimension {self.n}")
        if self.banded:
            return sla.cho_solve_banded((self.lower, True), b, check_finite=False)
        r = self.rank
        x = np.zeros_like(b)
        if r:
            x[self.perm[:r]] = self._backward(self._forward(b[self.perm[:r]]))
        return x

    def _forward(self, y):
        """L^-1 y for y (vector or columns) indexed by the kept pivots."""
        z = np.empty_like(y)
        s = len(self.lower)
        z[:s] = sla.solve_triangular(self.lower, y[:s], lower=True, check_finite=False)
        for B, D in self.panels:
            e = s + len(D)
            z[s:e] = sla.solve_triangular(D, y[s:e] - B @ z[:s], lower=True, check_finite=False)
            s = e
        return z

    def _backward(self, z):
        """L^-T z in place, the last panel first."""
        for B, D in reversed(self.panels):
            s, e = B.shape[1], B.shape[1] + len(D)
            z[s:e] = sla.solve_triangular(D, z[s:e], lower=True, trans=1, check_finite=False)
            z[:s] -= B.T @ z[s:e]
        s = len(self.lower)
        z[:s] = sla.solve_triangular(self.lower, z[:s], lower=True, trans=1, check_finite=False)
        return z


def factorize(M, pivot_tol=1e-12, lead=None):
    """Factor a symmetric positive semidefinite matrix.

    A dense M gets a pivoted Cholesky factor of its Jacobi scaling
    ``D^-1/2 M D^-1/2``, ``D = diag(M)``: a direction is dropped when its
    pivot falls to ``pivot_tol`` times its own diagonal entry, however
    stiff or soft the other columns are. A dropped scaled pivot that is
    negative beyond its roundoff bound raises IndefiniteMatrixError.

    ``lead``, a dense factorization of M's leading block, is extended by
    the trailing columns only: their Schur complement against the kept
    pivots of ``lead`` (O(n^2 k) for k trailing columns) gets the same
    scaled pivoted factor, still scaled by the trailing columns' own
    diagonal entries of M, and its kept rows become a new panel of L.
    Directions ``lead`` dropped stay dropped, and only the trailing
    columns are checked for symmetry.

    A scipy sparse M must be exactly symmetric and positive definite: it
    gets a banded Cholesky factor in its own index order, and a failed
    factorization or a pivot at or below the threshold raises
    IndefiniteMatrixError.
    """
    if pivot_tol < 0:
        raise ValueError("pivot_tol must be nonnegative")
    if sp.issparse(M):
        return _factorize_banded(M, pivot_tol)
    if lead is None:
        M = _require_symmetric(M)
        L, perm, rank, tail = _scaled_pivoted(M, np.diag(M), pivot_tol)
        F = Factorization(M.shape[0], L, perm, rank)
        _require_semidefinite(M, F, perm[rank:], tail)
        return F
    M = _require_symmetric(M, start=lead.n)
    n, m = M.shape[0], lead.n
    if lead.banded or m > n:
        raise ValueError(f"lead must be a dense factorization of at most {n} columns, got {m}")
    if m == n:
        return lead
    r = lead.rank
    kept = lead.perm[:r]
    # the trailing columns in the coordinates of the kept span
    X = lead._forward(M[kept, m:])
    D, p, k, tail = _scaled_pivoted(M[m:, m:] - X.T @ X, np.diag(M)[m:], pivot_tol)
    panels = lead.panels + ((np.ascontiguousarray(X[:, p[:k]].T), D),) if k else lead.panels
    perm = np.concatenate([kept, m + p[:k], lead.perm[r:], m + p[k:]])
    F = Factorization(n, lead.lower, perm, r + k, panels=panels)
    _require_semidefinite(M, F, m + p[k:], tail)
    return F


def _jacobi(own):
    """Square roots of the diagonal entries that scale; a nonpositive one leaves its column unscaled."""
    return np.sqrt(np.where(own > 0, own, 1.0))


def _scaled_pivoted(S, own, pivot_tol):
    """Kept factor, pivot order, rank and dropped scaled pivots of S.

    S is scaled by ``own^-1/2`` on both sides (see ``_jacobi``), and
    LAPACK's ``dpstrf`` stops once no scaled pivot exceeds ``pivot_tol``.
    The kept block of L is scaled back, so that ``S[p, p] = L L^T`` on the
    kept pivots ``p``; the last value returned holds the scaled Schur
    complement diagonal of the dropped pivots ``perm[rank:]``.
    """
    n = S.shape[0]
    d = _jacobi(own)
    scaled = S / d
    scaled /= d[:, None]
    diag = scaled.diagonal().copy()
    # the transpose is Fortran-ordered, so dpstrf factors it in place
    c, piv, rank, info = dpstrf(scaled.T, lower=1, tol=pivot_tol, overwrite_a=1)
    if info < 0:
        raise RuntimeError(f"dpstrf failed with illegal argument {-info}")
    perm = np.asarray(piv, dtype=np.int64) - 1
    tail = diag[perm[rank:]] - np.einsum("ij,ij->i", c[rank:, :rank], c[rank:, :rank])
    L = np.tril(c[:rank, :rank])
    L *= d[perm[:rank], None]
    return L, perm, int(rank), tail


def _require_semidefinite(M, F, dropped, tail):
    """Raise unless the dropped columns' scaled Schur pivots are nonnegative up to roundoff.

    ``tail[i]`` is the Schur pivot of column ``dropped[i]`` of M against
    the columns F keeps, in units of its own diagonal entry. Its roundoff
    is bounded by ``_ROUNDOFF (1 + ||w||_1)^2``, with ``w`` the column's
    coefficients in the Jacobi-scaled kept columns (Higham's bound for
    the Schur complement of a semidefinite Cholesky factor). Pivoting
    keeps ``w`` small within one factor, but a bordered column comes
    after the whole leading block, and for a column nearly dependent on
    an ill-conditioned block ``w`` is large. Only a more negative pivot
    shows that M is indefinite.
    """
    low = tail < -_ROUNDOFF
    if not low.any():
        return
    cols, kept = dropped[low], F.perm[: F.rank]
    d = _jacobi(np.diag(M))
    w = F._backward(F._forward(M[:, cols][kept])) * d[kept, None] / d[cols]
    if (tail[low] < -_ROUNDOFF * (1.0 + np.abs(w).sum(axis=0)) ** 2).any():
        raise IndefiniteMatrixError("matrix not positive semidefinite")


def _factorize_banded(M, pivot_tol):
    M = sp.csr_matrix(M, dtype=np.float64)
    n = M.shape[0]
    if M.shape != (n, n):
        raise ValueError(f"matrix must be square, got shape {M.shape}")
    if (M != M.T).nnz:
        raise ValueError("matrix is not symmetric")
    L = _banded_cholesky(sp.tril(M), pivot_tol)
    return Factorization(n, L, np.arange(n, dtype=np.int64), n, banded=True)


def _banded_cholesky(low, pivot_tol):
    """Lower band Cholesky factor of the symmetric matrix with lower triangle ``low``."""
    low = sp.coo_matrix(low)
    low.sum_duplicates()
    offset = low.row - low.col
    band = np.zeros((int(offset.max(initial=0)) + 1, low.shape[0]))
    band[offset, low.col] = low.data
    try:
        L = sla.cholesky_banded(band, lower=True, check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise IndefiniteMatrixError(f"matrix not positive definite: {exc}") from exc
    if not (L[0] ** 2 > pivot_tol * band[0].max(initial=0.0)).all():
        raise IndefiniteMatrixError("matrix not positive definite: pivot below threshold")
    return L


def sym_gen_eig(A, B, upper):
    """Eigenpairs of A p = lambda B p with eigenvalue at or below ``upper``.

    A and B are symmetric, dense or scipy sparse, and B must be positive
    definite. Returns eigenvalues in ascending order with
    B-orthonormal eigenvector columns; ``upper=np.inf`` asks for every
    pair.

    Dense ``eigh`` solves the problem, except for a sparse pencil of at
    least ``_ARPACK_MIN_N`` unknowns and a finite ``upper``: there ARPACK
    computes the largest nu of ``B p = nu (A + B) p``, with
    ``nu = 1 / (1 + lambda)``, through one banded Cholesky factor of
    ``A + B``. Should ARPACK need too many eigenpairs or stop
    converging, dense ``eigh`` takes over.
    """
    arpack = np.isfinite(upper) and sp.issparse(A) and sp.issparse(B) and A.shape[0] >= _ARPACK_MIN_N
    if not arpack:
        # sparse checks cost more than dense ones on small matrices
        A, B = (M.toarray() if sp.issparse(M) else M for M in (A, B))
    A = _require_symmetric(A, what="left-hand matrix")
    B = _require_symmetric(B, what="right-hand matrix")
    if A.shape != B.shape:
        raise ValueError(f"shape mismatch {A.shape} vs {B.shape}")
    if A.shape[0] == 0:
        return np.zeros(0), np.zeros((0, 0))
    if arpack:
        found = _lowest_by_arpack(A, B, upper)
        if found is not None:
            return found
        A, B = A.toarray(), B.toarray()
    try:
        w, V = sla.eigh(A, B, subset_by_value=(-np.inf, upper), driver="gvx", check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise IndefiniteMatrixError(f"invalid right-hand matrix: {exc}") from exc
    return w, V


def _lowest_by_arpack(A, B, upper):
    """Eigenpairs of A p = lambda B p with lambda <= upper, or None.

    Solves ``B p = nu (A + B) p`` for the largest nu, doubling the count
    asked for until the smallest nu found lies beyond the bound. Like
    dense ``eigh``, both matrices are read from their lower triangle.
    Returns None when B or ``A + B`` has no banded Cholesky factor, when
    the count would pass n / 16 or when ARPACK fails; the dense solve
    then decides.
    """
    n = A.shape[0]
    low_B = sp.tril(B, format="csr")
    low_AB = sp.tril(A, format="csr") + low_B
    try:
        _banded_cholesky(low_B, 0.0)
        band = _banded_cholesky(low_AB, 0.0)
    except IndefiniteMatrixError:
        return None
    B, AB = (low + sp.tril(low, -1).T for low in (low_B, low_AB))
    AB_inv = LinearOperator(
        (n, n), matvec=lambda x: sla.cho_solve_banded((band, True), x, check_finite=False), dtype=np.float64
    )
    # a fixed start vector makes the result independent of call order
    v0 = np.random.default_rng(0).uniform(-1.0, 1.0, n)
    k = _ARPACK_K0
    while k <= n // _ARPACK_K_FRACTION:
        try:
            nu, P = eigsh(
                B, k, M=AB, Minv=AB_inv, which="LA", v0=v0,
                ncv=min(max(2 * k + 1, _ARPACK_MIN_NCV), n), maxiter=_ARPACK_MAX_RESTARTS,
            )
        except ArpackError:
            return None
        lam = 1.0 / nu - 1.0
        if lam.max() > upper:
            order = np.argsort(lam, kind="stable")
            keep = order[lam[order] <= upper]
            # the columns are (A + B)-orthonormal; p^T B p = nu
            return lam[keep], P[:, keep] / np.sqrt(nu[keep])
        k *= 2
    return None
