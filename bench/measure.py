"""Timed-run hooks, correctness checks and end-to-end statistics.

The timed run hooks the program in two places only: once per variant,
around ``lrbas.experiment.run_sequence``, and once per system, with one
clock read as ``run_sequence`` draws each system from the problem list.
Everything finer belongs to the traced run (``spans.py``).
"""
from __future__ import annotations

import gc
import math
import statistics
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np


class _ClockedProblems(list):
    """The problem list, stamping the clock as each system is drawn."""

    def __init__(self, problems, stamps):
        super().__init__(problems)
        self._stamps = stamps

    def __iter__(self):
        for problem in super().__iter__():
            self._stamps.append(perf_counter())
            yield problem


@dataclass
class SequenceRecord:
    problems: list
    start: float
    end: float = math.nan
    stamps: list = field(default_factory=list)  # one per system drawn


@contextmanager
def clocked_sequences(experiment):
    """Record every ``run_sequence`` call that ``experiment.run`` makes."""
    records = []
    original = experiment.run_sequence

    def hooked(problems, *args, **kwargs):
        record = SequenceRecord(problems, perf_counter())
        records.append(record)
        try:
            return original(_ClockedProblems(problems, record.stamps), *args, **kwargs)
        finally:
            record.end = perf_counter()

    experiment.run_sequence = hooked
    try:
        yield records
    finally:
        experiment.run_sequence = original


class _SetupDone(Exception):
    """Raised in place of ``run_sequence`` to end a set-up probe."""


def time_setup(experiment, config):
    """Wall time of ``experiment.run`` up to the call of ``run_sequence``.

    The probe stops ``run`` there, so nothing is solved or written after.
    """
    original = experiment.run_sequence

    def stop(*args, **kwargs):
        raise _SetupDone(perf_counter())

    experiment.run_sequence = stop
    gc.collect()
    start = perf_counter()
    try:
        experiment.run(config)
    except _SetupDone as done:
        return done.args[0] - start
    finally:
        experiment.run_sequence = original
    raise RuntimeError("run() returned without calling run_sequence")


@dataclass
class VariantResult:
    name: str
    wall: float  # the whole run() call
    setup: float = math.nan  # run() before run_sequence
    solve: float = math.nan  # run_sequence
    write: float = math.nan  # run() after run_sequence
    systems: list = field(default_factory=list)  # wall time per system drawn
    counts: dict = field(default_factory=dict)  # iterations, local_solves, coarse_solves
    attempted: int = 0
    failed: int = 0
    messages: list = field(default_factory=list)


def run_variant(experiment, name, config, records):
    """One variant through ``experiment.run``: timings, counts and checks.

    The garbage of earlier runs is collected first, so that every run starts
    from the same collector state and pays only for its own collections.
    """
    before = len(records)
    gc.collect()
    start = perf_counter()
    artifacts, report, error = None, None, None
    try:
        artifacts = experiment.run(config)
        report = artifacts.report
    except Exception as exc:  # the variant fails and is counted; the workload goes on
        traceback.print_exc()
        error = exc
        report = getattr(exc, "report", None)
    end = perf_counter()

    n_systems = len(config.schedule)
    result = VariantResult(name, end - start, attempted=n_systems)
    record = records[before] if len(records) > before else None
    if record is not None:
        result.setup = record.start - start
        result.solve = record.end - record.start
        result.write = end - record.end
        marks = record.stamps + [record.end]
        result.systems = [b - a for a, b in zip(marks, marks[1:])]
    entries = list(getattr(report, "entries", None) or [])
    result.counts = {
        "iterations": sum(e.iterations for e in entries),
        "local_solves": sum(e.total_corrections for e in entries),
        "coarse_solves": sum(e.coarse_solves for e in entries),
    }

    overall = []
    if error is not None:
        overall.append(f"run failed: {type(error).__name__}: {error}")
    if artifacts is not None:
        overall += check_artifacts(artifacts, result.counts)
    problems = record.problems if record is not None else []
    per_system = check_entries(entries, problems, config)
    result.messages = overall + [
        f"system {k}: {m}" for k, msgs in enumerate(per_system, start=1) for m in msgs
    ]
    unreached = max(0, n_systems - len(per_system))
    result.failed = sum(1 for msgs in per_system if msgs) + unreached
    if overall and result.failed == 0:
        result.failed = n_systems
    return result


def check_artifacts(artifacts, counts):
    """The listed files exist and the summary table's totals match the report."""
    msgs = [f"missing artifact {p.name}" for p in artifacts.files if not p.is_file()]
    lines = (artifacts.directory / "summary.csv").read_text(encoding="utf-8").splitlines()
    total = lines[-1].split(",") if lines else []
    wanted = ["total"] + [str(counts[k]) for k in ("iterations", "local_solves", "coarse_solves")]
    if total[:4] != wanted:
        msgs.append(f"summary.csv totals {total[:4]} differ from the report's {wanted}")
    return msgs


def relative_residual(system, x):
    """``||f - A x|| / ||f||`` recomputed from the assembled system."""
    nf = float(np.linalg.norm(system.f))
    r = system.f - system.A.to_scipy() @ np.asarray(x, dtype=np.float64)
    return float(np.linalg.norm(r)) / nf if nf else 0.0


def check_entries(entries, problems, config):
    """Per-system failure messages under the solver's counting conventions.

    pcg and pcg-guess make one correction per subdomain per iteration and
    one coarse solve per iteration (plus one for the guess); lrbas makes
    one coarse solve per reduced solve, that is iterations + 1.
    """
    out = []
    for entry in entries:
        msgs = []
        res = relative_residual(problems[entry.k - 1].system, entry.solution)
        if not res <= config.eps:
            msgs.append(f"recomputed relative residual {res!r} is not below eps {config.eps!r}")
        reported = float(entry.final_relative_residual)
        if not math.isclose(res, reported, rel_tol=1e-8, abs_tol=1e-300):
            msgs.append(f"reported residual {reported!r} differs from recomputed {res!r}")
        n_subdomains = config.layout**2
        if config.strategy == "lrbas":
            coarse = entry.iterations + 1
        else:
            coarse = entry.iterations + (1 if config.strategy == "pcg-guess" else 0)
            if entry.total_corrections != n_subdomains * entry.iterations:
                msgs.append(
                    f"{entry.total_corrections} local solves, expected "
                    f"{n_subdomains} x {entry.iterations} iterations"
                )
        if entry.coarse_solves != coarse:
            msgs.append(f"{entry.coarse_solves} coarse solves, expected {coarse}")
        out.append(msgs)
    return out


def tail_percentile(samples, beyond=10):
    """Highest whole percentile above the median with ``beyond`` samples past it.

    Returns ``(percentile, value, n_beyond)``, with the nearest-rank value,
    or None when no percentile above the 50th has that many samples
    strictly greater than it.
    """
    ordered = sorted(samples)
    n = len(ordered)
    for p in range(99, 50, -1) if n else ():
        value = ordered[math.ceil(p * n / 100) - 1]
        n_beyond = sum(1 for s in ordered if s > value)
        if n_beyond >= beyond:
            return p, value, n_beyond
    return None


def median(values):
    return statistics.median(values) if values else math.nan
