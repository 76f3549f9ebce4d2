"""Acceptance suite: one test per acceptance criterion.

Each test prints a single ``criterion N: PASS/FAIL`` line with the
measured quantity before asserting it, so a verbose run reads as a
checklist. The paper-scale fixture (200 x 200 grid, 10 x 10
subdomains) runs all six strategies once and is shared by the
criteria that need it; expect several minutes of wall time.

Criteria 2, 3, and 8 run on a 40 x 40 grid with the channel layout
scaled to that resolution and the contrast lowered to 10. The
Euclidean-error bound of criterion 2 requires this: the gap between
relative residual (what the solvers control) and relative error grows
with the condition number, and at contrast 1e5 no strategy -- not even
exactly preconditioned CG with recomputed residuals -- can certify a
1e-5 error from a 1e-6 residual. At contrast 10 every strategy meets
the bound with margin while all solver logic is exercised unchanged.
"""
import time
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.sparse.linalg import spsolve

from lrbas import (
    ChannelGeometry,
    DEFAULT_SCHEDULE,
    Grid,
    LocalBasis,
    ModificationSchedule,
    SolverOptions,
    assemble,
    build_coefficient,
    build_decomposition,
    detect_changed_subdomains,
    problem_sequence,
    run_sequence,
)
from lrbas.decomposition import LocalOperators, build_geneo_coarse, build_partition_of_unity
from lrbas.solver import ReducedSystem, lrbas_solve_one

MILD_GEOMETRY = ChannelGeometry(
    sigma_high=11.0,
    channel_centers=(0.6, 0.5, 0.4),
    channel_height=0.05,
    x_left=0.1,
    x_right=0.9,
    port_length=0.05,
)

SIX_STRATEGIES = {
    "pcg": SolverOptions(strategy="pcg"),
    "pcg-guess": SolverOptions(strategy="pcg-guess"),
    "lrbas-0": SolverOptions(strategy="lrbas", eps_loc=0.0),
    "lrbas-0.25": SolverOptions(strategy="lrbas", eps_loc=0.25),
    "lrbas-0-keep": SolverOptions(strategy="lrbas", eps_loc=0.0, keep_full_bases=True),
    "lrbas-0.25-keep": SolverOptions(strategy="lrbas", eps_loc=0.25, keep_full_bases=True),
}


def verdict(criterion, passed, detail):
    line = f"criterion {criterion}: {'PASS' if passed else 'FAIL'} - {detail}"
    print(line)
    assert passed, line


def direct_solve(system):
    """Sparse direct solution: the reference of criteria 1 to 3."""
    return spsolve(system.A.to_scipy().tocsc(), system.f)


@pytest.fixture(scope="session")
def paper_scale():
    """All six strategies on the reference configuration, run once."""
    grid = Grid(200)
    dec = build_decomposition(grid, 10, 4)
    problems = problem_sequence(grid, ChannelGeometry(), DEFAULT_SCHEDULE)
    start = time.perf_counter()
    reports = {name: run_sequence(problems, dec, opts=opts) for name, opts in SIX_STRATEGIES.items()}
    elapsed = time.perf_counter() - start
    return SimpleNamespace(
        grid=grid, dec=dec, problems=problems, reports=reports, elapsed=elapsed
    )


@pytest.fixture(scope="session")
def small_scale():
    """All six strategies at 40 x 40, 4 x 4 subdomains, overlap 2."""
    grid = Grid(40)
    dec = build_decomposition(grid, 4, 2)
    problems = problem_sequence(grid, MILD_GEOMETRY, DEFAULT_SCHEDULE)
    exact = [direct_solve(p.system) for p in problems]
    reports = {name: run_sequence(problems, dec, opts=opts) for name, opts in SIX_STRATEGIES.items()}
    return SimpleNamespace(grid=grid, dec=dec, problems=problems, exact=exact, reports=reports)


def test_criterion_1_patch_test():
    start = time.perf_counter()
    grid = Grid(50)
    system = assemble(grid, build_coefficient(grid, ChannelGeometry.empty()))
    full = system.reconstruct(direct_solve(system))
    i = np.arange(grid.n_nodes) % (grid.m + 1)
    want = 1.0 - 2.0 * (i * grid.h)
    err = np.abs(full - want).max()
    elapsed = time.perf_counter() - start
    verdict(
        1,
        err <= 1e-10 and elapsed < 5.0,
        f"uniform field gives 1-2x to {err:.2e} (need <=1e-10) in {elapsed:.2f}s (need <5s)",
    )


def test_criterion_2_oracle_equivalence(small_scale):
    worst = 0.0
    worst_case = ""
    for name, report in small_scale.reports.items():
        for entry, want in zip(report.entries, small_scale.exact):
            rel = np.linalg.norm(entry.solution - want) / np.linalg.norm(want)
            if rel > worst:
                worst, worst_case = rel, f"{name} k={entry.k}"
    verdict(
        2,
        worst <= 1e-5,
        f"worst strategy/direct relative error {worst:.2e} at {worst_case} (need <=1e-5)",
    )


def test_criterion_3_invariant_suite(small_scale, spy_solver):
    start = time.perf_counter()
    dec = small_scale.dec
    pou = build_partition_of_unity(dec)
    worst_ortho = 0.0
    worst_enrich = 0.0
    monotone = True
    # instance A: first field, exhaustive enrichment; instance B: the
    # single-port modification, adaptive enrichment
    for prob, eps_loc in ((small_scale.problems[0], 0.0), (small_scale.problems[3], 0.25)):
        coarse = build_geneo_coarse(dec, pou, prob.system, prob.coefficient, 0.5)
        ops = LocalOperators.build(prob.system.A, coarse)
        bases = [LocalBasis(len(s.indices)) for s in dec.subdomains]
        opts = SolverOptions(strategy="lrbas", eps_loc=eps_loc)
        _, log = spy_solver(lrbas_solve_one, ReducedSystem(prob.system, dec, ops, bases), ops, opts)

        A = prob.system.A.to_scipy().toarray()
        x_exact = direct_solve(prob.system)
        raw = iter(log.raw_vectors)
        replay = [LocalBasis(len(s.indices)) for s in dec.subdomains]
        errs = []
        for l, xt in enumerate(log.iterates):
            rt = prob.system.f - prob.system.A.matvec(xt)
            e = x_exact - xt
            errs.append(np.sqrt(max(e @ (A @ e), 0.0)))
            # lift the coarse blocks and the replayed local bases
            n = prob.system.n
            pieces = []
            for i, s in enumerate(dec.subdomains):
                blk = coarse.blocks[i]
                if blk.shape[1]:
                    lifted = np.zeros((n, blk.shape[1]))
                    lifted[s.indices] = blk
                    pieces.append(lifted)
            for i, s in enumerate(dec.subdomains):
                if replay[i].dim:
                    lifted = np.zeros((n, replay[i].dim))
                    lifted[s.indices] = replay[i].vectors
                    pieces.append(lifted)
            if pieces:
                phi = np.hstack(pieces)
                col_norms = np.sqrt(np.maximum(np.sum(phi * (A @ phi), axis=0), 1e-300))
                ortho = np.abs(phi.T @ (A @ e)) / (col_norms * max(errs[-1], 1e-300))
                worst_ortho = max(worst_ortho, float(ortho.max()))
            if l < len(log.selections):
                for i in log.selections[l]:
                    idx = dec.subdomains[i].indices
                    want = np.linalg.solve(A[np.ix_(idx, idx)], rt[idx])
                    got = next(raw)
                    rel = np.linalg.norm(got - want) / max(np.linalg.norm(want), 1e-300)
                    worst_enrich = max(worst_enrich, rel)
                    replay[i].append(got)
        for a, b in zip(errs, errs[1:]):
            if b > a * (1 + 1e-10):
                monotone = False
    elapsed = time.perf_counter() - start
    verdict(
        3,
        worst_ortho < 1e-8 and worst_enrich <= 1e-12 and monotone and elapsed < 120.0,
        f"orthogonality defect {worst_ortho:.2e} (need <1e-8), enrichment identity "
        f"{worst_enrich:.2e} (need <=1e-12), energy error monotone: {monotone}, "
        f"suite time {elapsed:.1f}s (need <120s)",
    )


def test_criterion_4_paper_scale_convergence(paper_scale):
    converged = all(
        entry.final_relative_residual <= 1e-6 and entry.iterations <= 200
        for report in paper_scale.reports.values()
        for entry in report.entries
    )
    counts = all(len(r.entries) == 5 for r in paper_scale.reports.values())
    verdict(
        4,
        converged and counts and paper_scale.elapsed < 1800.0,
        f"all six strategies converged on all 5 systems in {paper_scale.elapsed / 60:.1f} min "
        f"(need <30 min)",
    )


def test_criterion_5_qualitative_relations(paper_scale):
    r = paper_scale.reports
    pcg = r["pcg"]
    adaptive = r["lrbas-0.25"]
    exhaustive = r["lrbas-0"]
    a = (
        adaptive.total_iterations < pcg.total_iterations
        and adaptive.total_corrections < pcg.total_corrections
    )
    b = (
        adaptive.total_corrections <= 0.6 * exhaustive.total_corrections
        and adaptive.total_iterations >= exhaustive.total_iterations
    )
    c = (
        r["lrbas-0.25-keep"].total_iterations <= adaptive.total_iterations
        and r["lrbas-0-keep"].total_iterations <= exhaustive.total_iterations
    )
    verdict(
        5,
        a and b and c,
        f"adaptive {adaptive.total_iterations} it/{adaptive.total_corrections} corr vs "
        f"cg {pcg.total_iterations} it/{pcg.total_corrections} solves (a={a}); "
        f"adaptive corr <=0.6x exhaustive {exhaustive.total_corrections} and its "
        f"{exhaustive.total_iterations} it (b={b}); keep-full iterations no worse (c={c})",
    )


def test_criterion_6_coarse_vector_counts(paper_scale):
    counts = paper_scale.reports["lrbas-0.25"].entries[0].geneo_counts
    frac = float(np.mean((counts >= 2) & (counts <= 5)))
    verdict(
        6,
        frac >= 0.90,
        f"{frac:.0%} of subdomains carry 2-5 coarse vectors at threshold 0.5 (need >=90%)",
    )


def test_criterion_7_correction_localization(paper_scale):
    entry = paper_scale.reports["lrbas-0.25"].entries[3]
    changed = detect_changed_subdomains(paper_scale.problems[3].changed_elements, paper_scale.dec)
    layout = paper_scale.dec.layout
    ids = np.arange(paper_scale.dec.n_subdomains)
    p, q = ids % layout, ids // layout
    cp, cq = changed % layout, changed // layout
    dist = np.min(
        np.maximum(np.abs(p[:, None] - cp[None, :]), np.abs(q[:, None] - cq[None, :])), axis=1
    )
    near = int(entry.corrections[dist <= 2].sum())
    total = entry.total_corrections
    frac = near / total if total else 1.0
    verdict(
        7,
        frac >= 0.70,
        f"{frac:.1%} of step-4 corrections within distance 2 of the {len(changed)} changed "
        f"subdomains, {near}/{total} (need >=70%)",
    )


def test_criterion_8_warm_restart_triviality():
    grid = Grid(40)
    dec = build_decomposition(grid, 4, 2)
    problems = problem_sequence(grid, MILD_GEOMETRY, ModificationSchedule(({2, 5}, {2, 5})))
    results = []
    for keep in (False, True):
        opts = SolverOptions(strategy="lrbas", keep_full_bases=keep)
        report = run_sequence(problems, dec, opts=opts)
        second = report.entries[1]
        results.append((second.iterations, second.total_corrections))
    passed = all(it == 0 and corr == 0 for it, corr in results)
    verdict(
        8,
        passed,
        f"repeated system solved with (iterations, corrections) = {results[0]} keep-solution, "
        f"{results[1]} keep-full (need (0, 0))",
    )


def stale_local_matrices(problems, dec):
    """Per transition, the unflagged subdomains whose A_i is not entrywise identical."""
    stale = []
    for prev, cur in zip(problems, problems[1:]):
        before, after = prev.system.A.to_scipy(), cur.system.A.to_scipy()
        changed = set(map(int, detect_changed_subdomains(cur.changed_elements, dec)))
        stale.append([
            i
            for i, idx in enumerate(dec.index_sets)
            if i not in changed and (before[idx][:, idx] != after[idx][:, idx]).nnz
        ])
    return stale


def test_criterion_9_locality_and_change_soundness(paper_scale, neighbors):
    dec = paper_scale.dec
    nbrs = neighbors(dec)
    sets = [frozenset(map(int, s.indices)) for s in dec.subdomains]
    disjoint = all(
        not (sets[i] & sets[j])
        for i in range(dec.n_subdomains)
        for j in range(i + 1, dec.n_subdomains)
        if j not in nbrs[i]
    )
    paper_stale = stale_local_matrices(paper_scale.problems, dec)
    # a walk of single-port toggles on a finer decomposition, where a
    # changed element can border an index set from outside its extended block
    grid = Grid(100)
    ports, walk = {2, 5}, [{2, 5}]
    for port in (3, 1, 6, 2, 4, 5, 1, 3, 5, 6, 2):
        ports ^= {port}
        walk.append(set(ports))
    toggles = problem_sequence(grid, ChannelGeometry(), ModificationSchedule(tuple(walk)))
    toggle_stale = stale_local_matrices(toggles, build_decomposition(grid, 10, 2))
    unchanged_exact = not any(paper_stale) and not any(toggle_stale)
    verdict(
        9,
        disjoint and unchanged_exact,
        f"non-neighboring restrictions disjoint: {disjoint}; local operators of unchanged "
        f"subdomains entrywise identical across the paper schedule: {not any(paper_stale)}, "
        f"and across a {len(walk)}-system port-toggle walk at 100 x 100: {not any(toggle_stale)}",
    )
