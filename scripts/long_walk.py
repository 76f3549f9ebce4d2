#!/usr/bin/env python3
"""Run one solver variant over a long seeded port-toggle walk.

The walk is the benchmark's toggle walk (``bench/workloads.toggle_walk``)
of the given seed and length, on a grid with overlap 2. For each system
it prints the wall seconds, the reduced dimension N of the last reduced
solve on that system ("-" when none ran, as for pcg) and the iteration
count, then the totals and the peak resident memory of the process.
OpenBLAS runs on one thread, as in ``bench/run.py``. The defaults are
the 60-system walk of seed 2 on the 100 x 100 grid with 10 x 10
subdomains, which takes about half a minute with pcg-guess on a 2-core
machine; --grid and --layout scale it down.

    PYTHONPATH=src python3 scripts/long_walk.py --variant pcg-guess
    PYTHONPATH=src python3 scripts/long_walk.py --variant rb-adaptive --grid 40 --layout 4 --systems 6
"""
import os

# Set before numpy loads, as bench/run.py sets it.
os.environ["OPENBLAS_NUM_THREADS"] = os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy  # noqa: E402
import scipy  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

from workloads import VARIANTS, toggle_walk  # noqa: E402

from lrbas import ConvergenceFailure, Grid, build_decomposition, config_from_dict, problem_sequence  # noqa: E402
from lrbas.solver import ReducedSystem, run_sequence  # noqa: E402


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--variant", default="rb-adaptive", choices=sorted(VARIANTS))
    parser.add_argument("--seed", type=int, default=2)
    parser.add_argument("--systems", type=int, default=60)
    parser.add_argument("--grid", type=int, default=100)
    parser.add_argument("--layout", type=int, default=10)
    args = parser.parse_args(argv)
    print(
        f"# python {platform.python_version()}, numpy {numpy.__version__}, scipy {scipy.__version__}, "
        f"OPENBLAS_NUM_THREADS={os.environ['OPENBLAS_NUM_THREADS']}; {args.variant}, walk seed {args.seed}, "
        f"{args.systems} systems, {args.grid} x {args.grid} grid, layout {args.layout}, overlap 2",
        flush=True,
    )
    config = config_from_dict(
        {
            "grid": {"size": args.grid},
            "decomposition": {"layout": args.layout, "overlap": 2},
            "schedule": toggle_walk(args.seed, args.systems),
            "solver": dict(VARIANTS[args.variant]),
        }
    )
    grid = Grid(config.grid_size)
    dec = build_decomposition(grid, config.layout, config.overlap)
    problems = problem_sequence(grid, config.geometry, config.schedule)

    stamps, dims = [], {}  # a clock read as each system is drawn; N by system

    def drawn():
        for problem in problems:
            stamps.append(time.perf_counter())
            yield problem

    solve = ReducedSystem.solve

    def recorded(rs):
        dims[len(stamps)] = len(rs.rhs)
        return solve(rs)

    ReducedSystem.solve = recorded
    try:
        report = run_sequence(drawn(), dec, opts=config)
    except ConvergenceFailure as exc:
        print(f"FAILED: {exc}", file=sys.stderr)
        return 2
    finally:
        ReducedSystem.solve = solve
    stamps.append(time.perf_counter())

    print("system seconds N iterations")
    for k, entry in enumerate(report.entries, start=1):
        print(f"{k} {stamps[k] - stamps[k - 1]:.3f} {dims.get(k, '-')} {entry.iterations}")
    print(
        f"total {stamps[-1] - stamps[0]:.2f} s, {report.total_iterations} iterations, "
        f"{report.total_corrections} local solves, {report.total_coarse_solves} coarse solves"
    )
    print(f"peak_rss_mb {resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0:.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
