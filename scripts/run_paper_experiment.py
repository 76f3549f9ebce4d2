#!/usr/bin/env python3
"""Run all six solver strategies on the reference configuration.

Each strategy writes its artifacts into <out>/<variant>/ and the
six runs are then tabulated side by side into <out>/comparison.csv
and <out>/comparison.txt. The reference configuration is the 200 x 200
grid with 10 x 10 subdomains and overlap 4; expect about 20 s for all
six at that scale on a 2-core machine. Pass
--grid/--subdomains/--overlap to scale the experiment down for a quick
look. The first line printed names the Python, numpy and scipy
versions and OPENBLAS_NUM_THREADS: the reduced solver's counts depend
on the BLAS thread count.
"""
import argparse
import os
import platform
import sys
import time
from pathlib import Path

import numpy
import scipy

from lrbas import ConvergenceFailure, compare, config_from_dict, run

VARIANTS = {
    "pcg": {"strategy": "pcg"},
    "pcg-guess": {"strategy": "pcg-guess"},
    "rb-exhaustive": {"strategy": "lrbas", "eps_loc": 0.0},
    "rb-adaptive": {"strategy": "lrbas", "eps_loc": 0.25},
    "rb-exhaustive-keep": {"strategy": "lrbas", "eps_loc": 0.0, "keep_full_bases": True},
    "rb-adaptive-keep": {"strategy": "lrbas", "eps_loc": 0.25, "keep_full_bases": True},
}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="results/paper", help="output directory root")
    parser.add_argument("--grid", type=int, default=200)
    parser.add_argument("--subdomains", type=int, default=10)
    parser.add_argument("--overlap", type=int, default=4)
    parser.add_argument("--eps", type=float, default=1e-6)
    args = parser.parse_args(argv)
    print(
        f"python {platform.python_version()}, numpy {numpy.__version__}, scipy {scipy.__version__}, "
        f"OPENBLAS_NUM_THREADS={os.environ.get('OPENBLAS_NUM_THREADS', 'unset')}",
        flush=True,
    )

    out = Path(args.out)
    directories = []
    for name, solver in VARIANTS.items():
        config = config_from_dict(
            {
                "grid": {"size": args.grid},
                "decomposition": {"layout": args.subdomains, "overlap": args.overlap},
                "solver": dict(solver, eps=args.eps),
                "output": {"directory": str(out / name)},
            }
        )
        start = time.perf_counter()
        try:
            artifacts = run(config)
        except ConvergenceFailure as exc:
            print(f"{name}: FAILED ({exc})", file=sys.stderr)
            return 2
        print(
            f"{name}: {artifacts.report.total_iterations} iterations, "
            f"{artifacts.report.total_corrections} local solutions, "
            f"{artifacts.report.total_coarse_solves} coarse solves "
            f"[{time.perf_counter() - start:.1f}s]"
        )
        directories.append(out / name)

    comparison = compare(directories, out_dir=out)
    print()
    print(comparison.text, end="")
    print(f"\ntable written to {comparison.csv_path} and {comparison.text_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
