"""Shared test helpers."""
from types import SimpleNamespace

import pytest

import lrbas.solver
from lrbas.solver import LocalBasis, ReducedSystem


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
