"""Symmetric linear algebra kernels used by the solvers.

Dense symmetric matrices and vectors are plain float64 ndarrays; the
classes here add the two structures the solvers rely on: a CSR matrix
that stores both triangles of a symmetric matrix, and a Cholesky
factorization. A dense matrix (the coarse and reduced systems) gets a
pivoted semidefinite factor that drops a direction by its own energy and
can be extended by bordering columns; a sparse one (the local Dirichlet
matrices) gets a banded factor in its own index order, stored as the
upper band of L^T, so that both halves of a solve run LAPACK's upper band
kernels.
The generalized eigensolver uses the banded Cholesky factor too: on a
large sparse pencil it runs ARPACK through one factor of ``A + s B``.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
from scipy.linalg.lapack import dpbtrs, dpstrf, dtbtrs
from scipy.sparse.linalg import ArpackError, LinearOperator, eigsh

# The ARPACK path of sym_gen_eig, placed by measurement on the GenEO
# pencils of the channel problem's first system (OpenBLAS, one thread,
# best of 7 per pencil). With the shifted operator below, ARPACK overtakes
# dense eigh at about 200 unknowns: at 72 x 72, layout 6, overlap 2, it
# takes 2.2 against 2.3 ms per pencil of 210 unknowns and 2.1 against
# 3.1 ms at 238; at 90 x 90, layout 6, overlap 2, 2.8 against 5.4 ms at 306
# and 3.7 against 12.3 ms at 400. At 100 x 100, layout 10, overlap 2,
# dense eigh is the faster up to 195 unknowns, and at 225, where some
# pencils stall ARPACK and fall back, 2.9 against 3.8 ms; so the cut lies
# just above 225.
_ARPACK_MIN_N = 226
# Eigenpairs asked for first; the count doubles until the wanted range
# is covered, but never past n / 16, where dense eigh is the cheaper.
_ARPACK_K0 = 6
_ARPACK_K_FRACTION = 16
# Lanczos basis size floor and restart cap: a tight eigenvalue cluster
# larger than k stalls ARPACK, and after this many restarts the dense
# solve takes over. At 120 x 120, 4 x 4 subdomains, overlap 2, the 6 of
# the first system's 12 distinct pencils that hold 27 or 46 wanted pairs
# run to the cap at k = 6 and fall back, which costs about 0.34 s of the
# 0.4 s spent in ARPACK there, as much at s = 1/16 as at s = 1.
_ARPACK_MIN_NCV = 20
_ARPACK_MAX_RESTARTS = 30
# The shift s of the factored pencil A + s B = L L^T; ARPACK finds the
# largest nu = 1 / (lambda + s) of C = L^-1 B L^-T. It must be positive, A
# being only semidefinite. Lanczos converges on nu_j at a rate set by the
# gap ratio (nu_j - nu_j+1) / (nu_j+1 - nu_min) (Saad, Numerical Methods for
# Large Eigenvalue Problems, sec. 6.6), about (lambda_j+1 - lambda_j) /
# (lambda_j + s) here, as nu_min is near 0: a shift next to the wanted end,
# lambda <= upper, spreads the wanted pairs apart, as in the spectral
# transformation Lanczos of Ericsson and Ruhe (1980). A power of two makes
# s B exact. On the 35 pencils of the paper's first system (200 x 200,
# layout 10, overlap 4, 600-841 unknowns) ARPACK applies C 2795 times at
# s = 1, 2144 at 1/4, 1926 at 1/16, 1862 at 1/64 and 1851 at 1/256, keeping
# the pairs dense eigh keeps; past 1/16 it saves under 4% more, while the
# condition of A + s B grows as 1 / s.
_ARPACK_SHIFT = 1.0 / 16
# ARPACK's tolerance on C: it stops once each Ritz pair has
# ||C y - theta y|| <= tol theta, so, C being symmetric, an eigenvalue nu lies
# within tol theta of theta, which puts lambda within about tol (lambda + s)
# of 1 / theta - s, and y, whose 2-norm is the (A + s B) energy norm of
# p = L^-T y, within an angle tol theta / gap of its eigenspace (Parlett,
# The Symmetric Eigenvalue Problem, ch. 11). An attempt with a Ritz value
# within tol theta of nu_upper = 1 / (upper + s), that is with
# |lambda - upper| <= tol (upper + s), is repeated at tol 0, so no
# keep-or-drop decision is made at reduced accuracy; so is one with two
# kept Ritz values that close, whose gap leaves the bound void and where
# Lanczos can hold fewer copies of a tight cluster than it has.
_ARPACK_TOL = 1e-8
# Roundoff allowed in a scaled Schur pivot of a semidefinite matrix, per
# unit of the pivot's growth factor (see _require_semidefinite).
_ROUNDOFF = 64 * np.finfo(np.float64).eps
# Entries of the temporaries of a blockwise pass over a dense matrix (2 MB).
_BLOCK = 1 << 18


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
    """Dense M as float64, after checking it is square and that its
    columns from ``start`` on equal its rows from ``start`` on.

    The check runs a block of columns at a time, through temporaries of
    at most ``_BLOCK`` entries.
    """
    M = np.asarray(M, dtype=np.float64)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"{what} must be square, got shape {M.shape}")
    n = M.shape[0]
    if start < n:
        step = max(1, _BLOCK // n)
        blocks = [slice(a, a + step) for a in range(start, n, step)]
        scale = np.max([abs(M[:, b]).max() for b in blocks])
        if scale > 0 and np.max([abs(M[:, b] - M[b].T).max() for b in blocks]) > tol * scale:
            raise ValueError(f"{what} is not symmetric to relative tolerance {tol}")
    return M


class SparseSymMatrix:
    """Symmetric sparse matrix in CSR form, both triangles stored.

    Rows are sorted by column index and every structural entry has its
    transpose partner with a bitwise equal value, which ``fem.assemble``
    guarantees by summing the element contributions to (i, j) and (j, i)
    in the same order.
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
    the identity permutation and full rank; ``lower`` then holds L^T in
    LAPACK upper band storage, ``lower[-1 - d, j] = L[j, j - d]`` (see
    ``_transposed_band``).
    """

    n: int
    lower: np.ndarray  # lower triangular; banded: L^T's upper band, (bandwidth + 1, n)
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
            # no empty block goes to LAPACK: the band solve dtbtrs corrupts the heap on one
            return dpbtrs(self.lower, b, lower=0)[0] if b.size else np.zeros_like(b)
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
    complement diagonal of the dropped pivots ``perm[rank:]``. The scaled
    copy of S is the one workspace: ``dpstrf`` factors it in place and L,
    C-ordered, is formed in it (``_kept_lower``).
    """
    d = _jacobi(own)
    scaled = S / d
    scaled /= d[:, None]
    diag = scaled.diagonal().copy()
    # the transpose is Fortran-ordered, so dpstrf factors it in place
    c, piv, rank, info = dpstrf(scaled.T, lower=1, tol=pivot_tol, overwrite_a=1)
    if info < 0:
        raise RuntimeError(f"dpstrf failed with illegal argument {-info}")
    perm = np.asarray(piv, dtype=np.int64) - 1
    rank = int(rank)
    tail = diag[perm[rank:]] - np.einsum("ij,ij->i", c[rank:, :rank], c[rank:, :rank])
    del c
    L = _kept_lower(scaled, rank)
    L *= d[perm[:rank], None]
    return L, perm, rank, tail


def _kept_lower(W, rank):
    """The C-ordered kept block ``L[:rank, :rank]`` of a ``dpstrf`` factor, formed in place in W.

    W is C-ordered, owns its memory and holds the factor's transpose, so
    the upper triangle of its leading block holds ``L^T``. Each row block
    takes its lower part from there, and only once every block has does
    the strict upper triangle become zero. With columns dropped, the kept
    rows then move to rows of length ``rank``, the first rows first, and
    W shrinks to ``rank^2`` entries in place. Every pass runs a block of
    rows at a time, through temporaries of at most ``_BLOCK`` entries. W
    itself is returned, resized to L.
    """
    n = len(W)
    K = W[:rank, :rank]
    step = max(1, _BLOCK // max(n, 1))
    blocks = [(a, min(a + step, rank)) for a in range(0, rank, step)]
    for a, b in blocks:
        K[a:b, :a] = K[:a, a:b].T
        low = np.tri(b - a, k=-1, dtype=bool)
        K[a:b, a:b][low] = K[a:b, a:b].T[low]
    for a, b in blocks:
        K[a:b, b:] = 0.0
        K[a:b, a:b][~np.tri(b - a, dtype=bool)] = 0.0
    if rank == n:
        return W
    flat = W.reshape(-1)
    for a, b in blocks:  # each block's new place ends before the rows that follow it start
        flat[a * rank : b * rank].reshape(b - a, rank)[...] = K[a:b]
    del K, flat
    W.resize((rank, rank), refcheck=False)
    return W


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
    band = _transposed_band(_banded_cholesky(_lower_band(M, 0.0), pivot_tol))
    n = band.shape[1]
    return Factorization(n, band, np.arange(n, dtype=np.int64), n, banded=True)


def _lower_band(M, tol, what="matrix"):
    """Lower band ``band[d, j] = M[j + d, j]`` of square scipy sparse M;
    raises unless the mirrored upper band ``M[j, j + d]`` agrees to
    ``tol`` relative to M's largest entry."""
    M = sp.csr_matrix(M, dtype=np.float64)
    n = M.shape[0]
    if M.shape != (n, n):
        raise ValueError(f"{what} must be square, got shape {M.shape}")
    if not M.has_canonical_format:
        M = M.copy()
        M.sum_duplicates()
    rows = np.repeat(np.arange(n), np.diff(M.indptr))
    offset = rows - M.indices
    bands = np.zeros((2, int(np.abs(offset).max(initial=0)) + 1, n))
    low, up = offset >= 0, offset <= 0
    bands[0, offset[low], M.indices[low]] = M.data[low]
    bands[1, -offset[up], rows[up]] = M.data[up]
    if abs(bands[0] - bands[1]).max(initial=0.0) > tol * abs(bands).max(initial=0.0):
        raise ValueError(f"{what} is not symmetric" + (f" to relative tolerance {tol}" if tol else ""))
    return bands[0]


def _banded_cholesky(band, pivot_tol):
    """Lower band Cholesky factor of the symmetric matrix with lower band ``band``."""
    try:
        L = sla.cholesky_banded(band, lower=True, check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise IndefiniteMatrixError(f"matrix not positive definite: {exc}") from exc
    if not (L[0] ** 2 > pivot_tol * band[0].max(initial=0.0)).all():
        raise IndefiniteMatrixError("matrix not positive definite: pivot below threshold")
    return L


def _transposed_band(low):
    """L^T in upper band storage, ``up[-1 - d, j] = L[j, j - d]``, of the
    L held in lower band storage ``low[d, j] = L[j + d, j]``.

    The same numbers, moved: a solve with L^T on the upper band runs
    LAPACK's upper band kernels, which on the local factors take a half
    to a third of the time of the transposed solve on L's lower band.
    """
    n = low.shape[1]
    up = np.zeros_like(low)
    for d, row in enumerate(low):
        up[-1 - d, d:] = row[: n - d]
    return up


def sym_gen_eig(A, B, upper):
    """Eigenpairs of A p = lambda B p with eigenvalue at or below ``upper``.

    A and B are symmetric, dense or scipy sparse, and B must be positive
    definite. Returns eigenvalues in ascending order with
    B-orthonormal eigenvector columns; ``upper=np.inf`` asks for every
    pair.

    Dense ``eigh`` solves the problem, except for a sparse pencil of at
    least ``_ARPACK_MIN_N`` unknowns and a finite ``upper``: there ARPACK
    computes the largest nu of ``B p = nu (A + s B) p``, with
    ``nu = 1 / (lambda + s)`` and ``s = _ARPACK_SHIFT``, in standard
    symmetric form through one banded Cholesky factor of ``A + s B``, to
    the tolerance ``_ARPACK_TOL``. Should ARPACK need too many eigenpairs
    or stop converging, dense ``eigh`` takes over.
    """
    arpack = np.isfinite(upper) and sp.issparse(A) and sp.issparse(B) and A.shape[0] >= _ARPACK_MIN_N
    pencil = ((A, "left-hand matrix"), (B, "right-hand matrix"))
    if arpack:
        low_A, low_B = (_lower_band(M, 1e-12, what) for M, what in pencil)
    else:
        # sparse checks cost more than dense ones on small matrices
        A, B = (_require_symmetric(M.toarray() if sp.issparse(M) else M, what=what) for M, what in pencil)
    if A.shape != B.shape:
        raise ValueError(f"shape mismatch {A.shape} vs {B.shape}")
    if A.shape[0] == 0:
        return np.zeros(0), np.zeros((0, 0))
    if arpack:
        found = _lowest_by_arpack(low_A, low_B, B, upper)
        if found is not None:
            return found
        A, B = A.toarray(), B.toarray()
    try:
        w, V = sla.eigh(A, B, subset_by_value=(-np.inf, upper), driver="gvx", check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise IndefiniteMatrixError(f"invalid right-hand matrix: {exc}") from exc
    return w, V


def _lowest_by_arpack(low_A, low_B, B, upper):
    """Eigenpairs of A p = lambda B p with lambda <= upper, or None.

    Solves ``B p = nu (A + s B) p``, ``s = _ARPACK_SHIFT``, for the
    largest nu, doubling the count asked for until the smallest nu found
    lies beyond the bound. With ``A + s B = L L^T`` banded, ARPACK runs on
    the standard symmetric problem ``L^-1 B L^-T y = nu y``, and
    ``p = L^-T y``. Like dense ``eigh``, it factors from both matrices'
    lower bands; the sparse ``B``, symmetric to roundoff, multiplies.
    Returns None when B or ``A + s B`` has no banded Cholesky factor, when
    the count would pass n / 16 or when ARPACK fails; the dense solve
    then decides.
    """
    n = low_A.shape[1]
    band = np.zeros((max(len(low_A), len(low_B)), n))
    band[: len(low_A)] = low_A
    band[: len(low_B)] += _ARPACK_SHIFT * low_B
    try:
        _banded_cholesky(low_B, 0.0)
        band = _banded_cholesky(band, 0.0)
    except IndefiniteMatrixError:
        return None

    # L^-T y on L^T's upper band is a solve without transpose, which LAPACK
    # does in a half to a third of the time. L^-1 stays a solve on L's
    # lower band: on the upper band, its roundoff made the paper's adaptive
    # counts depend on the BLAS thread count
    ut = _transposed_band(band)

    def back(y):  # L^-T y; L has positive pivots, so the solve cannot fail
        return dtbtrs(ut, y, uplo="U")[0]

    C = LinearOperator((n, n), matvec=lambda y: dtbtrs(band, B @ back(y), uplo="L")[0], dtype=np.float64)
    # a fixed start vector makes the result independent of call order
    v0 = np.random.default_rng(0).uniform(-1.0, 1.0, n)
    k = _ARPACK_K0
    while k <= n // _ARPACK_K_FRACTION:
        try:
            for tol in (_ARPACK_TOL, 0.0):
                nu, Y = eigsh(
                    C, k, which="LA", v0=v0, tol=tol,
                    ncv=min(max(2 * k + 1, _ARPACK_MIN_NCV), n), maxiter=_ARPACK_MAX_RESTARTS,
                )
                lam = 1.0 / nu - _ARPACK_SHIFT
                theta = np.sort(nu[lam <= upper])
                # a Ritz value within tol theta of nu_upper = 1 / (upper + s), or a kept one of another
                if not ((np.abs(lam - upper) <= tol * (upper + _ARPACK_SHIFT)).any()
                        or (np.diff(theta) <= tol * theta[1:]).any()):
                    break
        except ArpackError:
            return None
        if lam.max() > upper:
            order = np.argsort(lam, kind="stable")
            keep = order[lam[order] <= upper]
            # p^T B p = nu; dtbtrs corrupts the heap on an empty Y[:, keep]
            return lam[keep], back(Y)[:, keep] / np.sqrt(nu[keep])
        k *= 2
    return None
