"""Tests of the benchmark's own helpers: ``python -m pytest bench``."""
from __future__ import annotations

import random
import sys
import tempfile
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import lrbas  # noqa: E402
import measure  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from workloads import N_PORTS, TOGGLE_START, TOGGLE_SYSTEMS, toggle_walk  # noqa: E402


@pytest.mark.parametrize("seed", list(range(50)) + [2**31 - 1, -7])
def test_toggle_walk_is_a_valid_schedule(seed):
    walk = toggle_walk(seed)
    assert len(walk) == TOGGLE_SYSTEMS
    assert walk[0] == sorted(TOGGLE_START)
    for before, after in zip(walk, walk[1:]):
        assert len(set(before) ^ set(after)) == 1
    for ports in walk:
        assert ports == sorted(set(ports))
        assert all(1 <= p <= N_PORTS for p in ports)
    assert toggle_walk(seed) == walk
    config = lrbas.config_from_dict({"grid": {"size": 100}, "schedule": walk})
    assert len(config.schedule) == TOGGLE_SYSTEMS


def test_toggle_walk_depends_on_the_seed():
    assert len({str(toggle_walk(seed)) for seed in range(10)}) > 1


def _beyond(samples, value):
    return sum(1 for s in samples if s > value)


@pytest.mark.parametrize("n", [21, 29, 30, 38, 58, 100, 1000])
def test_tail_is_the_highest_percentile_with_ten_beyond(n):
    samples = random.Random(n).sample(range(10 * n), n)
    p, value, n_beyond = measure.tail_percentile(samples)
    assert p > 50
    assert n_beyond == _beyond(samples, value) >= 10
    if p < 99:
        ordered = sorted(samples)
        higher = ordered[-(-(p + 1) * n // 100) - 1]
        assert _beyond(samples, higher) < 10


def test_tail_of_58_samples_is_the_82nd_percentile():
    p, value, n_beyond = measure.tail_percentile(list(range(58)))
    assert (p, value, n_beyond) == (82, 47, 10)


def test_no_tail_above_the_median_for_few_samples():
    assert measure.tail_percentile(list(range(20))) is None
    assert measure.tail_percentile([]) is None


def test_tail_counts_only_samples_strictly_beyond():
    # 30 equal values then 9 larger ones: no percentile leaves ten beyond it
    assert measure.tail_percentile([1.0] * 30 + [2.0] * 9) is None
    p, value, n_beyond = measure.tail_percentile([1.0] * 30 + [2.0] * 10)
    assert (value, n_beyond) == (1.0, 10)
    assert p == 75


def _pass(offset, n=40):
    times = [9.0] + [offset + t for t in range(n)]
    counts = dict.fromkeys(("iterations", "local_solves", "coarse_solves"), 1)
    return [measure.VariantResult("v", 0.0, setup=0.1, solve=sum(times), write=0.0, systems=times, counts=counts)]


def test_the_tail_is_taken_per_pass_and_its_median_reported():
    p, value, _ = measure.tail_percentile(list(range(40)))
    metrics, notes = run.end_to_end([_pass(0), _pass(1000), _pass(100)], [])
    assert notes["tail_percentile"] == [p, p, p]
    assert metrics["next_system_s.tail"][0] == 100 + value
    # one pass or three: the percentile is the same
    assert run.end_to_end([_pass(0)], [])[1]["tail_percentile"] == [p]


def test_first_system_is_the_median_over_variants_of_each_variants_median():
    def result(name, first):
        counts = dict.fromkeys(("iterations", "local_solves", "coarse_solves"), 1)
        return measure.VariantResult(name, 0.0, setup=0.1, solve=first, write=0.0, systems=[first], counts=counts)

    passes = [[result("a", 1.0), result("b", 10.0)], [result("a", 3.0), result("b", 20.0)]]
    # the pooled median of 1, 3, 10 and 20 would be 6.5
    assert run.end_to_end(passes, [])[0]["first_system_s"][0] == (2.0 + 15.0) / 2


def test_without_a_tail_the_pass_median_stands_in():
    assert run.pass_tail([1.0, 2.0, 3.0, 4.0]) == (50, 2.5, 2)


def test_self_time_subtracts_children():
    records = [
        ("root", -1, 0.0, 10.0, {}),
        ("a", 0, 1.0, 4.0, {}),
        ("a.inner", 1, 2.0, 3.0, {}),
        ("b", 0, 5.0, 9.0, {}),
    ]
    assert spans.self_times(records) == [3.0, 2.0, 1.0, 4.0]


def test_tracer_links_parents_and_self_times_add_up():
    tracer = spans.Tracer()
    leaf = tracer.wrap("leaf", lambda: sum(range(1000)))
    mid = tracer.wrap("mid", lambda: [leaf() for _ in range(3)])
    top = tracer.wrap("top", lambda: (mid(), leaf()))
    top()
    names = [s[0] for s in tracer.spans]
    assert names == ["top", "mid", "leaf", "leaf", "leaf", "leaf"]
    assert [s[1] for s in tracer.spans] == [-1, 0, 1, 1, 1, 0]
    own = spans.self_times(tracer.spans)
    assert all(t >= 0 for t in own)
    root = tracer.spans[0]
    assert sum(own) == pytest.approx(root[3] - root[2], rel=1e-9)


def test_factorize_and_solve_take_their_parents_layer():
    records = [
        ("decomposition.local_ops", -1, 0.0, 1.0, {}),
        ("linalg.factorize", 0, 0.1, 0.2, {}),
        ("decomposition.coarse_matrix", 0, 0.3, 0.5, {}),
        ("linalg.factorize", 2, 0.4, 0.45, {}),
        ("solver.step", -1, 1.0, 2.0, {}),
        ("linalg.solve", 4, 1.1, 1.2, {}),
        ("solver.reduced.solve", 4, 1.3, 1.5, {}),
        ("linalg.factorize", 6, 1.3, 1.4, {}),
        ("linalg.solve", 6, 1.4, 1.45, {}),
        ("linalg.solve", -1, 3.0, 3.1, {}),
    ]
    keys = [spans.layer_key(records, i) for i in range(len(records))]
    assert keys[1] == "linalg.factorize.local"
    assert keys[3] == "linalg.factorize.coarse"
    assert keys[5] == "linalg.solve.enrich"
    assert keys[7] == "linalg.factorize.reduced"
    assert keys[8] == "linalg.solve.reduced"
    assert keys[9] == "linalg.solve.other"


def test_instrumentation_traces_a_small_run_and_restores_the_program():
    originals = (lrbas.run, lrbas.solver.factorize, lrbas.Factorization.solve, lrbas.LocalOperators.build)
    tracer = spans.Tracer()
    with tempfile.TemporaryDirectory() as out:
        config = lrbas.config_from_dict(
            {
                "grid": {"size": 20},
                "decomposition": {"layout": 2, "overlap": 1},
                "schedule": [[2, 5], [5]],
                "solver": {"strategy": "pcg-guess"},
                "output": {"directory": out},
            }
        )
        with spans.Instrumentation(lrbas, tracer):
            lrbas.experiment.run(config)
    assert (lrbas.run, lrbas.solver.factorize, lrbas.Factorization.solve, lrbas.LocalOperators.build) == originals
    wall = tracer.spans[0][3] - tracer.spans[0][2]
    metrics = {name: value for name, value, _ in spans.layer_metrics(tracer.spans, wall, wall)}
    assert metrics["trace.unattributed_calls"] == 0
    # each application solves on the 4 subdomains and the coarse space
    assert metrics["linalg.solve.precond.calls"] == 5 * metrics["decomposition.precond.calls"]
    assert metrics["linalg.factorize.local.calls"] == 4
    assert metrics["linalg.factorize.coarse.calls"] == 2
    assert metrics["fem.assemble.calls"] == 2
    assert metrics["reporting.write.bytes"] > 0
    assert 0.5 < metrics["trace.coverage"] <= 1.0


def _small_config(out, **solver):
    return lrbas.config_from_dict(
        {
            "grid": {"size": 20},
            "decomposition": {"layout": 2, "overlap": 1},
            "schedule": [[2, 5], [5], [1, 5]],
            "solver": dict({"strategy": "pcg-guess"}, **solver),
            "output": {"directory": out},
        }
    )


def test_correct_runs_pass_the_checks_and_broken_outputs_fail_them():
    with tempfile.TemporaryDirectory() as out:
        config = _small_config(out)
        with measure.clocked_sequences(lrbas.experiment) as records:
            result = measure.run_variant(lrbas.experiment, "pcg-guess", config, records)
        assert (result.attempted, result.failed, result.messages) == (3, 0, [])
        assert len(result.systems) == 3 and result.solve > 0
        entries = lrbas.experiment.run(config).report.entries
    problems = records[0].problems
    assert measure.check_entries(entries, problems, config) == [[], [], []]

    entries[0].solution = entries[0].solution + 1e-3
    entries[1].final_relative_residual *= 2
    entries[2].coarse_solves += 1
    found = measure.check_entries(entries, problems, config)
    assert "not below eps" in found[0][0]
    assert "differs from recomputed" in found[1][0]
    assert "coarse solves, expected" in found[2][0]


def test_a_run_that_stops_early_counts_its_unreached_systems_as_failed():
    with tempfile.TemporaryDirectory() as out:
        config = _small_config(out, strategy="pcg", eps=1e-14, max_iter=1)
        with measure.clocked_sequences(lrbas.experiment) as records:
            result = measure.run_variant(lrbas.experiment, "pcg", config, records)
    assert (result.attempted, result.failed) == (3, 3)
    assert result.messages[0].startswith("run failed: ConvergenceFailure")
