"""Shared test helpers."""
import os
import platform
from types import SimpleNamespace

import numpy
import pytest
import scipy
from scipy.sparse.linalg import LinearOperator

import lrbas.linalg
import lrbas.solver
from lrbas.decomposition import _coarse_factor
from lrbas.solver import LocalBasis, ReducedSystem


# The reduced solver's counts, and so criteria 6 and 7, depend on these.
# Read when pytest loads this file, before collection imports bench/run.py,
# which sets OPENBLAS_NUM_THREADS for its own runs after numpy has loaded.
ENVIRONMENT = (
    f"python {platform.python_version()}, numpy {numpy.__version__}, scipy {scipy.__version__}, "
    f"OPENBLAS_NUM_THREADS={os.environ.get('OPENBLAS_NUM_THREADS', 'unset')}"
)


def pytest_report_header(config):
    return ENVIRONMENT


def pytest_terminal_summary(terminalreporter):
    # pytest leaves the header out under -q; the summary is always printed
    terminalreporter.write_line(ENVIRONMENT)


@pytest.fixture
def neighbors():
    """``neighbors(dec)``: per subdomain, a sorted tuple of the subdomains
    whose index sets meet its own, itself included.

    Read from the pattern of ``S^T S``, S the node-subdomain incidence
    matrix, whose indices a sparse product does not promise to sort.
    """

    def read(dec):
        G = (dec.incidence.T @ dec.incidence).tocsr()
        G.sort_indices()
        return [tuple(G.indices[a:b].tolist()) for a, b in zip(G.indptr, G.indptr[1:])]

    return read


@pytest.fixture
def coarse_factor():
    """``coarse_factor(system, ops)``: the preconditioner's coarse factor on
    ``system``, taken as ``run_sequence`` takes it, from the coarse block
    of a reduced system over empty bases."""

    def factor(system, ops):
        dec = ops.coarse.dec
        rs = ReducedSystem(system, dec, ops, [LocalBasis(len(idx)) for idx in dec.index_sets])
        return _coarse_factor(rs.M, rs.coarse_cols)

    return factor


@pytest.fixture
def eigsh_calls(monkeypatch):
    """Records each ARPACK attempt of ``sym_gen_eig``, in call order: its
    keyword arguments (``tol`` among them) plus the count ``k`` asked for,
    the ``operator`` it was given and the ``applications`` of that
    operator it made."""
    calls = []
    eigsh = lrbas.linalg.eigsh

    def spy(C, k, **kwargs):
        call = dict(kwargs, k=k, operator=C, applications=0)
        calls.append(call)

        def apply(y):
            call["applications"] += 1
            return C.matvec(y)

        return eigsh(LinearOperator(C.shape, matvec=apply, dtype=C.dtype), k, **kwargs)

    monkeypatch.setattr(lrbas.linalg, "eigsh", spy)
    return calls


@pytest.fixture
def force_arpack(monkeypatch):
    """Sends every sparse pencil with a finite bound down the ARPACK path;
    the list returned receives each ARPACK attempt's result (None: fell
    back to dense ``eigh``)."""
    monkeypatch.setattr(lrbas.linalg, "_ARPACK_MIN_N", 0)
    attempts = []
    lowest = lrbas.linalg._lowest_by_arpack

    def spy(*args):
        attempts.append(lowest(*args))
        return attempts[-1]

    monkeypatch.setattr(lrbas.linalg, "_lowest_by_arpack", spy)
    return attempts


@pytest.fixture
def spy_solver(monkeypatch):
    """Run one call while recording what the reduced basis solver did.

    ``spy_solver(fn, *args, **kwargs)`` returns ``(result, log)``. For the
    length of that call only, ``log.iterates`` and ``log.reduced_dims``
    receive the iterate and total reduced dimension of every reduced
    solve, ``log.selections`` the subdomains selected in every sweep, and
    ``log.raw_vectors`` every vector passed to ``LocalBasis.append``, in
    call order (within ``lrbas_solve_one``: each sweep's corrections
    before orthonormalization, in selection order).
    """

    def run(fn, *args, **kwargs):
        log = SimpleNamespace(iterates=[], reduced_dims=[], selections=[], raw_vectors=[])
        solve, select, append = ReducedSystem.solve, lrbas.solver.select_enrichment, LocalBasis.append

        def spy_solve(rs):
            x, coeff = solve(rs)
            log.iterates.append(x)
            log.reduced_dims.append(rs.dimensions().sum())
            return x, coeff

        def spy_select(*a, **kw):
            selected = select(*a, **kw)
            log.selections.append(selected)
            return selected

        def spy_append(basis, y, *a, **kw):
            log.raw_vectors.append(y)
            return append(basis, y, *a, **kw)

        with monkeypatch.context() as m:
            m.setattr(ReducedSystem, "solve", spy_solve)
            m.setattr(lrbas.solver, "select_enrichment", spy_select)
            m.setattr(LocalBasis, "append", spy_append)
            result = fn(*args, **kwargs)
        return result, log

    return run
