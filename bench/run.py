#!/usr/bin/env python3
"""Benchmark of the lrbas solvers on the paper's problem and a long walk.

Run from the root of the repository:

    python3 bench/run.py --workload paper-rb --seed 1 --seconds 40 --trace 0

Workloads are defined in ``workloads.py``. Each variant of a workload
goes through ``lrbas.run`` (the entry point of the CLI and the paper
script) and writes its artifacts into a throwaway directory under
``.bench_out/``, removed after the variant is checked. The program is
imported from ``src/`` of the same checkout; nothing needs building.

With ``--trace 0`` the run is untraced and reports the end-to-end
metrics. It repeats whole passes over the variants while the next pass
is expected to end within ``--seconds`` (at least one pass) and
reports medians over them: system 1 per variant over passes, then over
variants; the tail of the later systems within each pass, then over
passes. After the passes, set-up is timed five more times, with ``run``
stopped where it would start solving; the first set-ups of a process
are slower and vary more, so the probes run warm and most samples of
setup_s are alike. With ``--trace 1`` it makes one untraced pass and
then one traced pass, reports the per-layer metrics of the traced pass
and writes its spans to ``.bench_out/spans-<workload>-seed<n>.json``.

Before timing, every strategy of the workload is run once on a 20 x 20
grid, so that the first variant does not pay for loading code and
starting BLAS alone. OpenBLAS runs one thread.

Every system is checked: its relative residual, recomputed as
``||f - A x|| / ||f||``, must be finite and at most eps and must match
the reported one, the counts must follow the solver's counting
conventions, and the summary table must match the report. The last
line of output is one JSON object; the exit status is 0 when every
check passed, 1 when one failed and 2 when the program is missing.
"""
from __future__ import annotations

import os

# One BLAS thread whatever the machine: the dense kernels here are small,
# a second thread made toggle-long slower on a 2-core machine, and threaded
# reductions change rounding and with it the iteration counts. Set before
# numpy loads.
BLAS_THREADS = 1
os.environ["OPENBLAS_NUM_THREADS"] = os.environ["OMP_NUM_THREADS"] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy  # noqa: E402
import scipy  # noqa: E402

import measure  # noqa: E402
import spans  # noqa: E402
from workloads import VARIANTS, WORKLOADS, variant_config  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
EXPECTED = Path(__file__).resolve().parent / "expected_counts.json"
WARMUP_PROBLEM = {
    "grid": {"size": 20},
    "decomposition": {"layout": 2, "overlap": 1},
    "schedule": [[2, 5], [5]],
}
COUNTS = ("iterations", "local_solves", "coarse_solves")
# Extra set-ups per run, besides the one in each variant, for setup_s.
SETUP_PROBES = 5


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def say(*parts):
    print("#", *parts, flush=True)


class Bench:
    """One workload's variants against the lrbas package of this checkout."""

    def __init__(self, lrbas, workload, seed):
        self.lrbas = lrbas
        self.workload = workload
        self.problem, self.walk = workload.problem(seed)

    def config(self, problem, variant, directory):
        return self.lrbas.config_from_dict(variant_config(problem, variant, directory))

    def warm_up(self):
        strategies = {}
        for v in self.workload.variants:
            strategies.setdefault(VARIANTS[v]["strategy"], v)
        for variant in strategies.values():
            with tempfile.TemporaryDirectory(prefix="warmup-", dir=OUT) as directory:
                self.lrbas.run(self.config(WARMUP_PROBLEM, variant, directory))

    def setup_probes(self):
        """Set-up times of the first variant's run, stopped before solving."""
        out = []
        for _ in range(SETUP_PROBES):
            with tempfile.TemporaryDirectory(prefix="setup-", dir=OUT) as directory:
                config = self.config(self.problem, self.workload.variants[0], directory)
                out.append(measure.time_setup(self.lrbas.experiment, config))
        return out

    def one_pass(self):
        """Every variant once, in order; returns their VariantResults."""
        experiment = self.lrbas.experiment
        results = []
        with measure.clocked_sequences(experiment) as records:
            for variant in self.workload.variants:
                with tempfile.TemporaryDirectory(prefix=f"{variant}-", dir=OUT) as directory:
                    config = self.config(self.problem, variant, directory)
                    results.append(measure.run_variant(experiment, variant, config, records))
        return results


def later_systems(results):
    """Wall times of systems 2..K of the given VariantResults, pooled."""
    return [t for v in results for t in v.systems[1:]]


def pass_tail(samples):
    """``(percentile, value, n_beyond)`` of one pass's later systems.

    Where no percentile above the median has ten samples beyond it (the
    paper workloads), the median stands in for it.
    """
    p50 = measure.median(samples)
    return measure.tail_percentile(samples) or (50, p50, sum(1 for t in samples if t > p50))


def end_to_end(passes, setups):
    """The end-to-end metrics over passes, each a list of VariantResults.

    ``setups`` holds the set-up probe times, pooled with the variants' own.
    """
    runs = [v for p in passes for v in p]
    pool = later_systems(runs)
    p50 = measure.median(pool)
    # The tail is taken within each pass, so that its percentile does not
    # depend on how many passes fitted in the run, and reported as the
    # median over passes.
    tails = [pass_tail(later_systems(p)) for p in passes]
    # system 1 of each variant, over passes: its median per variant, then
    # the median of those over variants
    first = {}
    for v in runs:
        if v.systems:
            first.setdefault(v.name, []).append(v.systems[0])
    metrics = {
        "setup_s": (measure.median(setups + [v.setup for v in runs]), "s"),
        "solve_s": (measure.median([sum(v.solve for v in p) for p in passes]), "s"),
        "first_system_s": (measure.median([measure.median(t) for t in first.values()]), "s"),
        "next_system_s.p50": (p50, "s"),
        "next_system_s.tail": (measure.median([t[1] for t in tails]), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    for key in COUNTS:
        metrics[key] = (measure.median([sum(v.counts[key] for v in p) for p in passes]), "count")
    # Writing the artifacts takes 5 to 50 ms a run, and on a shared 2-core
    # machine its spread over ten runs was 13-46%: it is shown here and
    # traced as reporting.write, but is not an end-to-end metric.
    notes = {
        "write_s": measure.median([sum(v.write for v in p) for p in passes]),
        "passes": len(passes),
        "setup_samples": len(setups) + len(runs),
        "next_system_samples": len(pool),
        "tail_percentile": [t[0] for t in tails],
        "tail_samples_beyond": [t[2] for t in tails],
    }
    return metrics, notes


def untraced_passes(bench, seconds):
    """Whole passes while the next is expected to end within ``seconds``.

    The first pass always runs.
    """
    passes = []
    start = perf_counter()
    while True:
        began = perf_counter()
        passes.append(bench.one_pass())
        took = perf_counter() - began
        if perf_counter() - start + took > seconds:
            return passes


def traced_pass(bench, env, seed, untraced):
    """One pass under the tracer; its results and the per-layer metrics.

    The spans are written to ``.bench_out/spans-<workload>-seed<n>.json``.
    """
    tracer = spans.Tracer()
    with spans.Instrumentation(bench.lrbas, tracer):
        traced = bench.one_pass()
    layers = spans.layer_metrics(tracer.spans, sum(v.wall for v in traced), sum(v.wall for v in untraced))
    for variant, shares in zip(bench.workload.variants, spans.shares_by_root(tracer.spans)):
        say(f"largest self-time shares of {variant}:", ", ".join(f"{k} {v:.3f}" for k, v in shares))
    path = OUT / f"spans-{bench.workload.name}-seed{seed}.json"
    record = {"environment": env, "workload": bench.workload.name, "seed": seed, "walk": bench.walk}
    path.write_text(json.dumps(dict(record, spans=tracer.spans)), encoding="utf-8")
    say(f"spans written to {path.relative_to(ROOT)}")
    return traced, {name: (value, unit) for name, value, unit in layers}


def show(metrics):
    for name, (value, unit) in metrics.items():
        say(f"{name:<34} {value:.6g} {unit}")


def report_variants(passes, recorded):
    for i, results in enumerate(passes, start=1):
        for v in results:
            counts = [v.counts[k] for k in COUNTS]
            base = recorded.get(v.name)
            flag = "" if base is None else (" (as recorded)" if base == counts else f" (recorded {base})")
            first = v.systems[0] if v.systems else math.nan
            say(
                f"pass {i} {v.name}: setup {v.setup:.3f} s, solve {v.solve:.3f} s "
                f"(system 1 {first:.3f} s), write {v.write:.3f} s; "
                f"iterations/local/coarse {counts}{flag}"
            )
            say(f"pass {i} {v.name} system seconds:", json.dumps([round(t, 4) for t in v.systems]))
            for message in v.messages:
                say(f"FAILED {v.name}: {message}")


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "lrbas" / "__init__.py").is_file():
        print(f"no lrbas sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import lrbas

    if Path(lrbas.__file__).resolve().parent != ROOT / "src" / "lrbas":
        print(f"imported lrbas from {lrbas.__file__}, not from this checkout", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    env = {
        "nproc": len(os.sched_getaffinity(0)),
        "openblas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }
    say("environment", json.dumps(env))
    bench = Bench(lrbas, workload, args.seed)
    if bench.walk is not None:
        say(f"walk (seed {args.seed})", json.dumps(bench.walk))
    recorded = json.loads(EXPECTED.read_text(encoding="utf-8")).get(
        f"{workload.name} seed {args.seed}" if workload.seeded else workload.name, {}
    )

    OUT.mkdir(exist_ok=True)
    try:
        bench.warm_up()
        passes = untraced_passes(bench, 0.0 if args.trace else args.seconds)
        setups = bench.setup_probes()
        report_variants(passes, recorded)
        metrics, notes = end_to_end(passes, setups)
        say("end-to-end", json.dumps(notes))
        show(metrics)
        runs = [v for p in passes for v in p]
        if args.trace:
            traced, metrics = traced_pass(bench, env, args.seed, passes[0])
            report_variants([traced], recorded)
            show(metrics)
            runs += traced
    finally:
        if not any(OUT.iterdir()):
            OUT.rmdir()

    attempted = sum(v.attempted for v in runs)
    failed = sum(v.failed for v in runs)
    say(f"failed_fraction {failed / attempted:.6g} ({failed} of {attempted} systems)")
    correct = failed == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value if math.isfinite(value) else None, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
