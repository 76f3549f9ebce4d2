"""Reduced basis additive Schwarz solvers and PCG baselines.

The reduced solver keeps one orthonormal basis per subdomain and solves
the Galerkin system over the coarse space plus the lifted local bases.
Whenever the reduced solution is not accurate enough, subdomains whose
local residual energy exceeds an adaptive threshold are enriched by one
Schwarz correction each, the dense reduced matrix is bordered with the
new columns (no existing entry is recomputed), its factor is extended
by them, and the reduced system is solved again. Between consecutive
systems of a sequence the bases are either reset to the previous
initial basis plus the local piece of the converged solution, or kept
in full.
"""
from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np
import scipy.sparse as sp

from .decomposition import (
    LocalOperators,
    apply_as_preconditioner,
    build_geneo_coarse,
    build_partition_of_unity,
    detect_changed_subdomains,
    lift,
)
from .linalg import ConvergenceFailure, IndefiniteMatrixError, factorize

STRATEGIES = ("pcg", "pcg-guess", "lrbas")
# Drop tolerances of the reduced factorizations, relative to each column's
# own energy: the enrichment loop's and the snapshot guess's. Sweeps over
# the paper variants and toggle walks chose them (see CHANGES.md).
_ENRICH_PIVOT_TOL = 1e-7
_SNAPSHOT_PIVOT_TOL = 1e-12


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

    def copy(self):
        return LocalBasis(self.n, self.vectors.copy())

    def append(self, y, drop_tol=1e-10):
        """Orthonormalize y against the basis and append it.

        Re-orthogonalized Gram-Schmidt; returns False and leaves the
        basis unchanged when the remainder falls below drop_tol times
        the input norm (the vector is numerically dependent).
        """
        y = np.asarray(y, dtype=np.float64)
        nrm0 = np.linalg.norm(y)
        if nrm0 == 0.0:
            return False
        v = y
        for _ in range(2):
            v = v - self.vectors @ (self.vectors.T @ v)
        nrm = np.linalg.norm(v)
        if nrm <= drop_tol * nrm0:
            return False
        self.vectors = np.hstack([self.vectors, (v / nrm)[:, None]])
        return True


class ReducedSystem:
    """Galerkin system over coarse space plus lifted local bases.

    ``W`` holds the coarse columns followed by the basis columns in the
    order they were appended, ``owner[j]`` the subdomain of column j (-1
    for a coarse column); ``M = W^T A W`` and ``rhs = W^T f`` follow the
    same order. The coarse columns and their block of M come from
    ``ops``, which must be current for ``system``. Enrichment only
    appends basis columns, so ``update`` borders M with the new columns
    and recomputes no existing entry, and ``solve`` extends the factor
    of its last solve by them. A column whose pivot falls to
    ``pivot_tol`` times its own diagonal entry of M depends on the span
    in the A-norm and is dropped.
    """

    def __init__(self, system, dec, ops, bases, pivot_tol=_ENRICH_PIVOT_TOL):
        if len(bases) != dec.n_subdomains:
            raise ValueError("one basis per subdomain required")
        self.system = system
        self.dec = dec
        self.n0 = ops.coarse.n0
        self.bases = bases
        self.pivot_tol = pivot_tol
        self.W = ops.coarse.matrix
        self.M = self._room = 0.5 * (ops.coarse_matrix + ops.coarse_matrix.T)
        self.rhs = self.W.T @ system.f
        self.owner = np.full(self.n0, -1, dtype=np.int64)
        self.counts = np.zeros(dec.n_subdomains, dtype=np.int64)  # columns of each basis in W
        self.factor = None  # of M's leading block, from the last solve
        self.update(range(dec.n_subdomains))

    def update(self, enriched):
        """Append the basis columns added since the last update, bordering M and rhs."""
        blocks = []
        for i in np.unique(np.asarray(enriched, dtype=np.int64)):
            new = self.bases[i].vectors[:, self.counts[i]:]
            if new.shape[1]:
                blocks.append((i, new))
                self.counts[i] += new.shape[1]
        if not blocks:
            return self
        Y = lift(self.dec, blocks)
        AY = self.system.A.to_scipy() @ Y
        # symmetrized while sparse: dense k x k temporaries raised the peak
        # memory of long snapshot bases by about 20 MB
        YAY = Y.T @ AY
        N, k = len(self.rhs), Y.shape[1]
        if N + k > len(self._room):
            # M is the leading block of a larger array, grown by a quarter
            # at a time: bordering in place kept paper-rb's peak memory
            # about 13 MB (5%) below a fresh array per update, 10 of 10
            # paired runs (2-core host, OpenBLAS 1 thread)
            room = np.empty((N + k + (N + k) // 4,) * 2)
            room[:N, :N] = self.M
            self._room = room
        self.M = M = self._room[: N + k, : N + k]
        M[:N, N:] = (self.W.T @ AY).toarray()
        M[N:, :N] = M[:N, N:].T
        M[N:, N:] = (0.5 * (YAY + YAY.T)).toarray()
        self.rhs = np.r_[self.rhs, Y.T @ self.system.f]
        self.W = sp.hstack([self.W, Y], format="csc")
        self.owner = np.r_[self.owner, np.repeat([i for i, _ in blocks], [b.shape[1] for _, b in blocks])]
        return self

    def dimensions(self):
        return np.r_[self.n0, self.counts]

    def solve(self):
        """Solve the reduced system; returns the global iterate and each subdomain's basis coefficients."""
        M, rhs = self.M, self.rhs
        try:
            F = factorize(M, self.pivot_tol, lead=self.factor)
        except IndefiniteMatrixError as exc:
            raise IndefiniteMatrixError(f"reduced system not positive semidefinite: {exc}") from exc
        self.factor = F
        c = F.solve(rhs)
        # Iterative refinement restores the Galerkin identity when basis
        # vectors of different subdomains are nearly dependent and the
        # assembled system is ill conditioned. Dropped directions stay
        # zero, so only the retained rows are measured.
        kept = F.perm[: F.rank]
        nrm = np.linalg.norm(rhs)
        for _ in range(3):
            res = rhs - M @ c
            if np.linalg.norm(res[kept]) <= 1e-13 * nrm:
                break
            c += F.solve(res)
        # the stable sort keeps each subdomain's columns in basis order
        by_owner = c[np.argsort(self.owner, kind="stable")]
        return self.W @ c, np.split(by_owner[self.n0:], np.cumsum(self.counts)[:-1])


def local_residual_norms(r, dec):
    """Euclidean norms of the residual restricted to each index set."""
    return np.array([np.linalg.norm(r[s.indices]) for s in dec.subdomains])


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


@dataclass
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
        if not (self.eps > 0):
            raise ValueError("eps must be positive")
        if not (self.eps_loc >= 0):
            raise ValueError("eps_loc must be nonnegative")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if not (self.tau > 0):
            raise ValueError("tau must be positive")


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


def lrbas_solve_one(system, dec, ops, bases, opts):
    """One reduced basis solve with adaptive enrichment.

    ``ops`` must be current for ``system``. Mutates ``bases`` (appends
    enrichment vectors). Returns the final iterate, the list of each
    subdomain's basis coefficients in the last reduced solve, the
    iteration count, per-subdomain correction counts, and the residual
    history.
    """
    f = system.f
    nf = np.linalg.norm(f)
    rs = ReducedSystem(system, dec, ops, bases)
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


def transition_bases(initial, final, coeff, keep_full):
    """Bases carried into the next step of the sequence.

    A basis that was enriched is reset to its initial part plus the
    local piece of the converged solution (orthonormalized, possibly
    dropped as dependent); an unchanged basis is carried as is. With
    ``keep_full`` the entire final basis is carried instead.
    """
    out = []
    for b0, b1, ci in zip(initial, final, coeff):
        if keep_full or b1.dim == b0.dim:
            out.append(b1.copy())
            continue
        nxt = b0.copy()
        nxt.append(b1.vectors @ ci)
        out.append(nxt)
    return out


def pcg(system, ops, x0, eps, max_iter):
    """Preconditioned conjugate gradients with recomputed residuals.

    ``ops`` must be current for ``system``. Returns (solution, iterations,
    relative residual history); the history starts with the residual of
    the initial guess. One preconditioner application per iteration.
    """
    f = system.f
    nf = np.linalg.norm(f)
    x = np.array(x0, dtype=np.float64, copy=True)
    r = f - system.A.matvec(x)
    history = [np.linalg.norm(r) / nf if nf else 0.0]
    if history[-1] <= eps:
        return x, 0, history
    z = apply_as_preconditioner(r, ops)
    p = z.copy()
    rz = float(r @ z)
    for it in range(1, max_iter + 1):
        Ap = system.A.matvec(p)
        pAp = float(p @ Ap)
        if pAp <= 0.0:
            raise IndefiniteMatrixError("matrix not positive definite in pcg")
        x += (rz / pAp) * p
        r = f - system.A.matvec(x)
        history.append(np.linalg.norm(r) / nf if nf else 0.0)
        if history[-1] <= eps:
            return x, it, history
        z = apply_as_preconditioner(r, ops)
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


def pou_snapshot_guess(system, dec, ops, snaps):
    """Initial guess from partition-of-unity snapshots of previous solutions.

    Solves the Galerkin system over the coarse space of ``ops`` (current
    for ``system``) plus the snapshot bases ``snaps``, one per subdomain,
    which ``append_snapshot`` fills. With empty snapshot bases this is
    the coarse-only Galerkin solution.
    """
    rs = ReducedSystem(system, dec, ops, snaps, pivot_tol=_SNAPSHOT_PIVOT_TOL)
    x0, _ = rs.solve()
    return x0


def run_sequence(problems, dec, pou=None, opts=None):
    """Drive a strategy over a sequence of locally modified systems.

    Refreshes local factorizations and the GenEO coarse space only for
    subdomains whose extended block meets the change set of each step;
    step 1 builds everything. A numerical failure anywhere in a step
    (stalled iteration, indefinite matrix, LAPACK error) is raised as
    ConvergenceFailure naming the step, with the report of the steps
    completed before it.
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
                ops = LocalOperators.build(prob.system.A, dec.index_sets, coarse)
            else:
                ops.refresh(prob.system.A, coarse, changed)
            if opts.strategy == "lrbas":
                initial = [b.copy() for b in bases]
                x, coeff, iters, corrections, history = lrbas_solve_one(prob.system, dec, ops, bases, opts)
                bases = transition_bases(initial, bases, coeff, opts.keep_full_bases)
                coarse_solves = iters + 1
            else:
                if opts.strategy == "pcg-guess":
                    x0 = pou_snapshot_guess(prob.system, dec, ops, snaps)
                    guess_solves = 1
                else:
                    x0 = np.zeros(prob.system.n)
                    guess_solves = 0
                x, iters, history = pcg(prob.system, ops, x0, opts.eps, opts.max_iter)
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
