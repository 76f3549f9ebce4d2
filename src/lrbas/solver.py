"""Reduced basis additive Schwarz solvers and PCG baselines.

The reduced solver keeps one orthonormal basis per subdomain and solves
the Galerkin system over the coarse space plus the local bases, whose
dense reduced matrix is assembled from local blocks over the coupled
subdomain pairs, with no global lifted basis. Whenever the reduced
solution is not accurate enough, subdomains whose local residual
energy exceeds an adaptive threshold are enriched by one Schwarz
correction each, the reduced matrix is bordered with the new columns
(no existing entry is recomputed), its factor is extended by them, and
the reduced system is solved again. Between consecutive
systems of a sequence the bases are either reset to the previous
initial basis plus the local piece of the converged solution, or kept
in full, and the reduced system is carried over: it keeps the entries
and the factor of the columns that no change touched, and forms the
others in the one order in which a new system forms all of its
columns, the coarse blocks before the basis vectors. The PCG
baselines carry one too, over their snapshots or over empty bases,
and their preconditioner factors its coarse block.
"""
from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from .decomposition import (
    LocalOperators,
    _coarse_factor,
    apply_as_preconditioner,
    build_geneo_coarse,
    build_partition_of_unity,
    detect_changed_subdomains,
)
from .linalg import ConvergenceFailure, IndefiniteMatrixError, factorize, one_blas_thread

STRATEGIES = ("pcg", "pcg-guess", "lrbas")
# Drop tolerances of the reduced factorizations, relative to each column's
# own energy: the enrichment loop's and the snapshot guess's. Sweeps over
# the paper variants and toggle walks chose them (see CHANGES.md).
_ENRICH_PIVOT_TOL = 1e-7
_SNAPSHOT_PIVOT_TOL = 1e-12
_BASIS_DROP_TOL = 1e-10  # LocalBasis.append's, relative to the appended vector's norm
_MOVE_BLOCK = 1 << 18  # entries ReducedSystem._move and _grow move at a time (2 MB)
# A chain of bordered factors, each pivoted within its own columns only,
# can lose accuracy: on toggle walks with keep-full bases the estimate of
# ReducedSystem._misses grew from 1e-15 to 6e-11 over nine systems, and
# the tenth stalled. Sound factors stayed below 5e-5 of eps / pivot_tol
# (3e-15 at the enrichment drop tolerance, 1e-8 at the snapshot one); a
# bordered factor past this fraction of it is replaced.
_BORDER_TOL = 1e-3
_EPS = np.finfo(np.float64).eps


class LocalBasis:
    """Orthonormal basis of a subdomain's search space."""

    def __init__(self, n, vectors=None):
        self.n = n
        if vectors is None:
            vectors = np.zeros((n, 0))
        if vectors.shape[0] != n:
            raise ValueError("vector length does not match subdomain size")
        self.vectors = vectors

    @property
    def dim(self):
        return self.vectors.shape[1]

    def append(self, y):
        """Orthonormalize y against the basis and append it.

        Re-orthogonalized Gram-Schmidt; returns False and leaves the
        basis unchanged when the remainder falls below ``_BASIS_DROP_TOL``
        times the input norm (the vector is numerically dependent). The
        longer basis is a new array: one handed out before is never
        written, so ``transition_bases`` and ``ReducedSystem.rebase`` may
        hold a basis across a step without a copy.
        """
        y = np.asarray(y, dtype=np.float64)
        nrm0 = np.linalg.norm(y)
        if nrm0 == 0.0:
            return False
        v = y
        for _ in range(2):
            v = v - self.vectors @ (self.vectors.T @ v)
        nrm = np.linalg.norm(v)
        if nrm <= _BASIS_DROP_TOL * nrm0:
            return False
        self.vectors = np.hstack([self.vectors, (v / nrm)[:, None]])
        return True


class ReducedSystem:
    """Galerkin system over the coarse space plus the local bases.

    Every column lives on one subdomain's index set: ``coarse_cols[i]``,
    a slice, holds the columns of subdomain i's coarse block and
    ``cols[i]`` those of its basis vectors, in basis order, ``counts[i]``
    their number.
    ``M`` and ``rhs`` are ``Phi^T A Phi`` and ``Phi^T f`` in column
    order, Phi the columns lifted to the whole grid, which is never
    formed: M comes from dense blocks over the subdomain pairs that A
    couples (``_galerkin``), each subdomain's columns read in place
    from its coarse block and its basis, rhs from local dot products, and
    the iterate by one scatter of the subdomains' parts. M is a view of
    the one buffer that holds its room, which ``update`` grows in place,
    and is valid until the next ``update``. ``update`` forms
    columns in one order: first every coarse block not yet in M, as the
    coarse space numbers them, then the new basis vectors, subdomain by
    subdomain. A new system is a re-base of an empty one, with ``ops``
    current for ``system``. Over empty bases M is the coarse Galerkin
    matrix ``R0^T A R0``, and on any system the coarse columns hold it,
    whose factor the preconditioner takes (``_coarse_factor``).
    Enrichment only appends basis columns, so ``update`` borders M with
    the new columns and recomputes no existing entry, and ``solve``
    extends the factor of its last solve by them. A column whose pivot
    falls to ``pivot_tol`` times its own diagonal entry of M depends on
    the span in the A-norm and is dropped.

    One reduced system serves a whole sequence: ``rebase`` carries it to
    the next system. The ``untouched`` columns, those of the subdomains
    that no system has changed so far, stand first. The first solve on
    each system factors that leading block, extending the ``prefix``
    factor of the one before, and keeps it as the next ``prefix``; the
    other columns border it.
    """

    def __init__(self, system, dec, ops, bases, pivot_tol=_ENRICH_PIVOT_TOL):
        if len(bases) != dec.n_subdomains:
            raise ValueError("one basis per subdomain required")
        self.dec = dec
        self.pivot_tol = pivot_tol
        self._locals = {}
        # an empty system over ``bases``: no coarse block and none of their vectors is in M yet
        self._buffer = np.zeros(0)  # M's room, owned here alone; ``_room`` views it square
        self.M = self._room = self._buffer.reshape(0, 0)
        self.rhs = np.zeros(0)
        self.coarse_cols = [None] * dec.n_subdomains  # None: not yet in M
        self.counts = np.zeros(dec.n_subdomains, dtype=np.int64)
        self.cols = [np.zeros(0, dtype=np.int64)] * dec.n_subdomains
        self.bases = bases
        self.touched = np.zeros(dec.n_subdomains, dtype=bool)  # changed by a system so far
        self.prefix = None
        self.rebase(system, ops, bases, ())

    def _local(self, i):
        """``A[ext_i, idx_i]`` (see ``Coupling``), kept once subdomain i has basis vectors.

        Only new basis vectors form a block again on the same system, so
        a subdomain without any would keep it for nothing.
        """
        if i in self._locals:
            return self._locals[i]
        local = self.dec.coupling.local(self.system.A, i)
        if self.bases[i].dim:
            self._locals[i] = local
        return local

    def _columns(self, j):
        """Subdomain j's column blocks in M, each with its columns of M."""
        basis = (self.bases[j].vectors[:, : self.counts[j]], self.cols[j])
        q = self.coarse_cols[j]
        return (basis,) if q is None else ((self.coarse.blocks[j], q), basis)

    def _rhs(self):
        """``Phi^T f`` over the columns in M."""
        f = self.system.f
        rhs = np.empty(len(self.M))
        for j, idx in enumerate(self.dec.index_sets):
            for V, q in self._columns(j):
                rhs[q] = V.T @ f[idx]
        return rhs

    def update(self, enriched):
        """Append the columns of ``enriched`` subdomains not yet in M, bordering M and rhs.

        First come the coarse blocks not yet in M, those of a new or
        re-based system, then the basis vectors added since the last
        update, each group subdomain by subdomain. Every block is read
        in place: a copy changes the roundoff.
        """
        enriched = np.unique(np.asarray(enriched, dtype=np.int64))
        blocks = [(i, self.coarse.blocks[i]) for i in enriched if self.coarse_cols[i] is None]
        blocks += [(i, self.bases[i].vectors[:, self.counts[i] :]) for i in enriched]
        N = k = len(self.rhs)
        new = []
        for i, Y in blocks:
            if Y.shape[1]:
                new.append((i, Y, slice(k, k + Y.shape[1])))
                k += Y.shape[1]
        if not new:
            return self
        if k > len(self._room):
            # M is the leading block of a larger room, grown by a quarter at
            # a time, so that most updates border M in place
            self._grow(N, k + k // 4)
        self.M = M = self._room[:k, :k]
        M[:, N:] = 0.0
        self._galerkin(new)
        M[N:, :N] = M[:N, N:].T
        for i, Y, c in new:
            if self.coarse_cols[i] is None:  # the coarse block comes first
                self.coarse_cols[i] = c
            else:
                self.cols[i] = np.r_[self.cols[i], c]
                self.counts[i] += Y.shape[1]
        f = self.system.f
        self.rhs = np.concatenate([self.rhs] + [Y.T @ f[self.dec.index_sets[i]] for i, Y, _ in new])
        return self

    def _grow(self, N, size):
        """Make the room ``size`` square in place, keeping M's N x N entries.

        The buffer is resized, which glibc serves for a large block by
        remapping it, not by a copy beside it, and the kept rows then move
        to the new row length, the last rows first, at most
        ``_MOVE_BLOCK`` entries at a time. A row's new place starts past
        the old places of the rows before it, so no row is overwritten
        before it has moved. A block moves at once where its new places
        all lie past its old ones, and so needs no temporary; the first
        few rows, whose new places overlap their own old ones, move one
        at a time. The views of the old buffer are dropped first: none is
        valid after the resize.
        """
        old = len(self._room)
        self.M = self._room = None
        self._buffer.resize(size * size, refcheck=False)
        src = self._buffer[: old * old].reshape(old, old)
        room = self._buffer.reshape(size, size)
        step = max(1, _MOVE_BLOCK // max(N, 1))
        b = N
        while b > 0:
            a = max(-(-((b - 1) * old + N) // size), b - step)  # the first row whose new place lies past
            if a < b:
                room[a:b, :N] = src[a:b, :N]
            else:  # row b - 1 overlaps its own old place: one contiguous move
                a = b - 1
                room[a, :N] = src[a, :N]
            b = a
        self._room = room

    def _galerkin(self, new):
        """Set the blocks of M that the ``new`` columns add.

        ``new`` holds ``(i, Y, c)`` in column order: columns on subdomain
        i's index set and their columns of M. For each, ``Z = A[ext_i,
        idx_i] Y`` is formed once (see ``Coupling``), and each subdomain j
        coupled to i gets ``M[q, c] = V[a]^T Z[b]``, with ``a`` and ``b``
        the positions of their shared nodes in ``idx_j`` and ``ext_i``,
        for each of its blocks ``(V, q)``: its columns in M before the
        update, read once, and its new ones up to ``(i, Y, c)``, whose
        blocks are mirrored, a diagonal one symmetrized. Entries of M
        outside these blocks are left as they are. The product runs over
        a contiguous range of V's rows, with ``Z[b]`` scattered into it
        where the shared nodes do not fill it: a row gather of V costs
        more than the zeros.
        """
        plan, M = self.dec.coupling, self.M
        fixed = [[(V, q) for V, q in self._columns(j) if V.shape[1]] for j in range(self.dec.n_subdomains)]
        formed = [[] for _ in fixed]  # the new blocks so far, by subdomain
        for i, Y, c in new:
            formed[i].append((Y, c))
            Z = (self._local(i) @ Y).take(plan.shared[i], axis=0)
            for j, r, off, s in plan.pairs[i]:
                if not (fixed[j] or formed[j]):
                    continue
                Zj = Z[s]
                if off is not None:  # Z on the rows r of idx_j, zero off ext_i
                    Zj = np.zeros((r.stop - r.start, Z.shape[1]))
                    Zj[off] = Z[s]
                for V, q in fixed[j]:
                    M[q, c] = V[r].T @ Zj
                for V, q in formed[j]:
                    X = V[r].T @ Zj
                    M[q, c] = 0.5 * (X + X.T) if q is c else X
                    M[c, q] = M[q, c].T

    def rebase(self, system, ops, bases, changed):
        """Carry the reduced system to the next system of its sequence.

        ``ops`` is current for ``system``, ``bases`` are the bases carried
        into it and ``changed`` the subdomains whose A_i changed. A column
        keeps its entries of M when no change touched its subdomain and it
        is still in the basis: the same coarse block array, or a basis
        vector that, with every vector before it, is bitwise the one in M.
        A changed element couples only subdomains that hold its nodes, all
        of them changed, so no kept entry changes. The other columns leave
        M, and one ``update`` forms the columns not in M: the coarse
        blocks first, then the basis vectors. The untouched columns are
        then moved first, each group in its old order, and rhs is formed
        again. The ``prefix`` stays when all its columns were kept. A
        build re-bases an empty system on no change.
        """
        changed = np.unique(np.asarray(changed, dtype=np.int64))
        self.touched[changed] = True
        hit = np.zeros(self.dec.n_subdomains, dtype=bool)
        hit[changed] = True
        kept = np.zeros(len(self.rhs), dtype=bool)
        for i, (old, new) in enumerate(zip(self.bases, bases)):
            n = 0
            if hit[i]:
                self._locals.pop(i, None)
            else:
                m = min(self.counts[i], new.dim)
                same = (old.vectors[:, :m] == new.vectors[:, :m]).all(axis=0)
                n = m if same.all() else int(np.argmin(same))
                kept[self.cols[i][:n]] = True
            self.cols[i] = self.cols[i][:n]
            self.counts[i] = n
            q = self.coarse_cols[i]
            if q is not None and not hit[i] and ops.coarse.blocks[i] is self.coarse.blocks[i]:
                kept[q] = True
            else:  # formed again by update, unless the new block is empty
                self.coarse_cols[i] = None if ops.coarse.counts[i] else slice(0, 0)
        if self.prefix is not None and not kept[: self.prefix.n].all():
            self.prefix = None
        self.system, self.coarse, self.bases = system, ops.coarse, bases
        self.factor = None  # of M's leading block, from the last solve
        self.update(range(self.dec.n_subdomains))
        group = np.full(len(self.rhs), -1)  # of each column: 0 untouched, 1 touched, -1 left M
        for j in range(self.dec.n_subdomains):
            for _, q in self._columns(j):
                group[q] = self.touched[j]
        order = np.r_[np.flatnonzero(group == 0), np.flatnonzero(group == 1)]
        self.untouched = int((group == 0).sum())
        self._move(order)
        where = np.empty(len(group), dtype=np.int64)
        where[order] = np.arange(len(order))
        for i, q in enumerate(self.coarse_cols):  # kept or formed together, so still contiguous
            if q.stop > q.start:
                self.coarse_cols[i] = slice(where[q.start], where[q.start] + q.stop - q.start)
        self.cols = [where[q] for q in self.cols]
        self.rhs = self._rhs()
        return self

    def _move(self, order):
        """Make M's rows and columns ``order`` of the current ones, in place.

        Columns before the first that moves stay where they are; the
        others are gathered a block of rows, then of columns, at a time,
        through temporaries of at most ``_MOVE_BLOCK`` entries.
        """
        n, room = len(order), self._room
        moved = np.flatnonzero(order != np.arange(n))
        s = int(moved[0]) if len(moved) else n
        src = order[s:]
        step = max(1, _MOVE_BLOCK // max(n - s, 1))
        for a in range(0, len(self.M), step):
            room[a : a + step, s:n] = room[a : a + step, src]
        for a in range(0, n, step):
            room[s:n, a : a + step] = room[src, a : a + step]
        self.M = room[:n, :n]

    def _misses(self, F, c):
        """Whether F's solution c lies further from the Galerkin solution than ``_BORDER_TOL`` allows.

        Row j of ``M c - rhs`` is ``phi_j^T A e``, e the difference
        between c's iterate and the Galerkin solution over the kept
        columns, which is a combination of them, so ``sum_j |c_j (M c -
        rhs)_j| / c^T rhs`` estimates ``||e||_A^2 / ||Phi c||_A^2`` while
        c is the larger. A sound factor keeps it far below ``eps /
        pivot_tol``, the bound that its smallest scaled pivot allows.
        """
        kept = F.perm[: F.rank]
        miss = np.abs(c[kept] * (self.M @ c - self.rhs)[kept]).sum()
        return miss > _BORDER_TOL * _EPS / self.pivot_tol * max(c @ self.rhs, 0.0)

    def dimensions(self):
        return np.r_[self.coarse.n0, self.counts]

    def solve(self):
        """Solve the reduced system; returns the global iterate and each subdomain's basis coefficients.

        A bordered factor whose solution ``_misses`` the Galerkin solution
        is replaced by a factor of the whole of M, and the next system
        starts a new ``prefix``.
        """
        try:
            lead = self.factor
            if lead is None and self.untouched:
                u = self.untouched
                lead = self.prefix = factorize(self.M[:u, :u], self.pivot_tol, lead=self.prefix)
            F = factorize(self.M, self.pivot_tol, lead=lead)
            c = F.solve(self.rhs)
            if F.panels and self._misses(F, c):
                # the bordered factors go first: at large N each holds about N^2 / 2 entries
                F = lead = self.factor = self.prefix = None
                F = factorize(self.M, self.pivot_tol)
                c = F.solve(self.rhs)
        except IndefiniteMatrixError as exc:
            raise IndefiniteMatrixError(f"reduced system not positive semidefinite: {exc}") from exc
        self.factor = F
        coeff = [c[q] for q in self.cols]
        blocks = zip(self.coarse.blocks, self.coarse_cols, self.bases, coeff)
        parts = [b @ c[q] + B.vectors[:, : len(ci)] @ ci for b, q, B, ci in blocks]
        return self.dec.scatter(np.concatenate(parts)), coeff


def local_residual_norms(r, dec):
    """Euclidean norms of the residual restricted to each index set."""
    return np.sqrt(dec.incidence.T @ (r * r))


def select_enrichment(r, dec, eps_loc):
    """Subdomains whose local residual energy passes the adaptive test.

    Subdomain i is selected when ||R_i r||^2 > eps_loc / I * ||r||^2
    with I the number of subdomains; eps_loc = 0 selects every
    subdomain with a nonzero local residual.
    """
    if eps_loc < 0:
        raise ValueError("eps_loc must be nonnegative")
    loc = local_residual_norms(r, dec) ** 2
    thr = eps_loc / dec.n_subdomains * float(r @ r)
    return np.flatnonzero(loc > thr)


@dataclass(frozen=True)
class SolverOptions:
    strategy: str = "lrbas"
    eps: float = 1e-6
    eps_loc: float = 0.25
    keep_full_bases: bool = False
    max_iter: int = 200
    tau: float = 0.5

    def __post_init__(self):
        # each message starts with the field it rejects
        if self.strategy not in STRATEGIES:
            raise ValueError(f"strategy must be one of {STRATEGIES}: unknown strategy {self.strategy!r}")
        if not (0 < self.eps < np.inf):
            raise ValueError("eps must be positive and finite")
        if not (0 <= self.eps_loc < np.inf):
            raise ValueError("eps_loc must be nonnegative and finite")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if not (0 < self.tau < np.inf):
            raise ValueError("tau must be positive and finite")


@dataclass
class StepReport:
    k: int
    iterations: int
    corrections: np.ndarray  # local solves per subdomain
    coarse_solves: int
    residual_history: list  # relative residual per (reduced) solve, first entry initial
    final_relative_residual: float
    geneo_counts: np.ndarray
    solution: np.ndarray

    @property
    def total_corrections(self):
        return int(self.corrections.sum())


@dataclass
class SolveReport:
    strategy: str
    entries: list = dc_field(default_factory=list)

    @property
    def total_iterations(self):
        return sum(e.iterations for e in self.entries)

    @property
    def total_corrections(self):
        return sum(e.total_corrections for e in self.entries)

    @property
    def total_coarse_solves(self):
        return sum(e.coarse_solves for e in self.entries)


def lrbas_solve_one(rs, ops, opts):
    """One reduced basis solve with adaptive enrichment.

    ``rs`` is the reduced system over the bases, built or re-based on
    its system, and ``ops`` must be current for that system. Mutates
    ``rs.bases`` (appends enrichment vectors). Returns the final
    iterate, the list of each subdomain's basis coefficients in the last
    reduced solve, the iteration count, per-subdomain correction counts,
    and the residual history.
    """
    system, dec, bases = rs.system, rs.dec, rs.bases
    f = system.f
    nf = np.linalg.norm(f)
    x, coeff = rs.solve()
    r = f - system.A.matvec(x)
    history = [np.linalg.norm(r) / nf if nf else 0.0]
    corrections = np.zeros(dec.n_subdomains, dtype=np.int64)
    iterations = 0
    while not (history[-1] <= opts.eps):
        if iterations >= opts.max_iter:
            raise ConvergenceFailure(
                f"reduced solve stalled at relative residual {history[-1]:.3e} "
                f"after {iterations} iterations",
                report=(iterations, corrections, history, x),
            )
        selected = select_enrichment(r, dec, opts.eps_loc)
        appended = []
        for i in selected:
            y = ops.factors[i].solve(r[dec.subdomains[i].indices])
            corrections[i] += 1
            if bases[i].append(y):
                appended.append(i)
        if not appended:
            # the reduced system is unchanged, so every later sweep would repeat this one
            cause = "every correction was dependent" if len(selected) else "no subdomain passed the eps_loc test"
            raise ConvergenceFailure(
                f"reduced solve stalled at relative residual {history[-1]:.3e}: {cause}",
                report=(iterations, corrections, history, x),
            )
        rs.update(appended)
        x, coeff = rs.solve()
        r = f - system.A.matvec(x)
        history.append(np.linalg.norm(r) / nf if nf else 0.0)
        iterations += 1
    return x, coeff, iterations, corrections, history


def transition_bases(dims, final, coeff, keep_full):
    """Bases carried into the next step of the sequence.

    ``dims`` holds each basis's dimension at the start of the step. A
    basis that was enriched is reset to its initial part plus the local
    piece of the converged solution (orthonormalized, possibly dropped as
    dependent); an unchanged basis is carried as is, the same object.
    With ``keep_full`` every final basis is carried so. Enrichment only
    appends, so the initial part is a copy of the final basis's leading
    columns, bitwise the vectors the step started from.
    """
    out = []
    for d, b1, ci in zip(dims, final, coeff):
        if keep_full or b1.dim == d:
            out.append(b1)
            continue
        nxt = LocalBasis(b1.n, np.ascontiguousarray(b1.vectors[:, :d]))
        nxt.append(b1.vectors @ ci)
        out.append(nxt)
    return out


def pcg(system, ops, coarse_factor, x0, eps, max_iter):
    """Preconditioned conjugate gradients with recomputed residuals.

    ``ops`` must be current for ``system`` and ``coarse_factor`` be the
    factor of its coarse Galerkin matrix (see ``apply_as_preconditioner``).
    Returns (solution, iterations, relative residual history); the
    history starts with the residual of the initial guess. One
    preconditioner application per iteration. A non-finite residual or
    ``p^T A p`` raises ConvergenceFailure at once: no later iteration
    can recover from it.
    """
    f = system.f
    nf = np.linalg.norm(f)
    x = np.array(x0, dtype=np.float64, copy=True)
    r = f - system.A.matvec(x)
    history = [np.linalg.norm(r) / nf if nf else 0.0]

    def breakdown(what, value):
        done = len(history) - 1
        message = f"pcg broke down after {done} iterations: {what} is {value}"
        return ConvergenceFailure(message, report=(done, history, x))

    if not np.isfinite(history[-1]):
        raise breakdown("the relative residual", history[-1])
    if history[-1] <= eps:
        return x, 0, history
    z = apply_as_preconditioner(r, ops, coarse_factor)
    p = z.copy()
    rz = float(r @ z)
    for it in range(1, max_iter + 1):
        Ap = system.A.matvec(p)
        pAp = float(p @ Ap)
        if not np.isfinite(pAp):
            raise breakdown("p^T A p", pAp)
        if pAp <= 0.0:
            raise IndefiniteMatrixError("matrix not positive definite in pcg")
        x += (rz / pAp) * p
        r = f - system.A.matvec(x)
        history.append(np.linalg.norm(r) / nf if nf else 0.0)
        if not np.isfinite(history[-1]):
            raise breakdown("the relative residual", history[-1])
        if history[-1] <= eps:
            return x, it, history
        z = apply_as_preconditioner(r, ops, coarse_factor)
        rz_new = float(r @ z)
        p = z + (rz_new / rz) * p
        rz = rz_new
    raise ConvergenceFailure(
        f"pcg stalled at relative residual {history[-1]:.3e} after {max_iter} iterations",
        report=(max_iter, history, x),
    )


def append_snapshot(snaps, dec, pou, x):
    """Append the partition-of-unity piece D_i R_i x to each subdomain's snapshot basis."""
    for i, s in enumerate(dec.subdomains):
        snaps[i].append(pou.local[i] * x[s.indices])


def pou_snapshot_guess(rs):
    """Initial guess from partition-of-unity snapshots of previous solutions.

    Solves ``rs``, the Galerkin system over the coarse space plus the
    snapshot bases, one per subdomain, which ``append_snapshot`` fills.
    With empty snapshot bases this is the coarse-only Galerkin solution.
    """
    x0, _ = rs.solve()
    return x0


@one_blas_thread()
def run_sequence(problems, dec, pou=None, opts=None):
    """Drive a strategy over a sequence of locally modified systems.

    Refreshes local factorizations and the GenEO coarse space only for
    subdomains whose index set holds a node of a changed element;
    step 1 builds everything. One reduced system per sequence, over the
    bases (lrbas) or the snapshots (pcg-guess; pcg's stay empty), is
    built on step 1 and re-based on each later system; the PCG
    strategies factor its coarse block for the preconditioner once per
    system. A numerical failure anywhere in a step
    (stalled iteration, indefinite matrix, LAPACK error) is raised as
    ConvergenceFailure naming the step, with the report of the steps
    completed before it. Unless ``OPENBLAS_NUM_THREADS`` is set, OpenBLAS
    runs one thread meanwhile (``one_blas_thread``).
    """
    if opts is None:
        opts = SolverOptions()
    if pou is None:
        pou = build_partition_of_unity(dec)
    I = dec.n_subdomains
    bases = [LocalBasis(len(s.indices)) for s in dec.subdomains]
    snaps = [LocalBasis(len(s.indices)) for s in dec.subdomains]
    ops = None
    coarse = None
    rs = None
    report = SolveReport(opts.strategy)
    for k, prob in enumerate(problems, start=1):
        try:
            if k == 1:
                changed = np.arange(I)
            else:
                changed = detect_changed_subdomains(prob.changed_elements, dec)
            coarse = build_geneo_coarse(
                dec, pou, prob.system, prob.coefficient, opts.tau, previous=coarse, recompute=changed
            )
            if ops is None:
                ops = LocalOperators.build(prob.system.A, prob.coefficient, coarse)
            else:
                ops.refresh(prob.system.A, prob.coefficient, coarse, changed)
            carried = bases if opts.strategy == "lrbas" else snaps
            if rs is None:
                tol = _ENRICH_PIVOT_TOL if opts.strategy == "lrbas" else _SNAPSHOT_PIVOT_TOL
                rs = ReducedSystem(prob.system, dec, ops, carried, pivot_tol=tol)
            else:
                rs.rebase(prob.system, ops, carried, changed)
            if opts.strategy == "lrbas":
                dims = [b.dim for b in bases]
                x, coeff, iters, corrections, history = lrbas_solve_one(rs, ops, opts)
                bases = transition_bases(dims, bases, coeff, opts.keep_full_bases)
                coarse_solves = iters + 1
            else:
                coarse_factor = _coarse_factor(rs.M, rs.coarse_cols)
                if opts.strategy == "pcg-guess":
                    x0 = pou_snapshot_guess(rs)
                    guess_solves = 1
                else:
                    x0 = np.zeros(prob.system.n)
                    guess_solves = 0
                x, iters, history = pcg(prob.system, ops, coarse_factor, x0, opts.eps, opts.max_iter)
                if opts.strategy == "pcg-guess":
                    append_snapshot(snaps, dec, pou, x)
                corrections = np.full(I, iters, dtype=np.int64)
                coarse_solves = iters + guess_solves
        except (ConvergenceFailure, IndefiniteMatrixError, np.linalg.LinAlgError) as exc:
            raise ConvergenceFailure(f"step {k}: {exc}", report=report) from exc
        report.entries.append(
            StepReport(
                k=k,
                iterations=iters,
                corrections=corrections,
                coarse_solves=coarse_solves,
                residual_history=history,
                final_relative_residual=history[-1],
                geneo_counts=coarse.counts.copy(),
                solution=x,
            )
        )
    return report
