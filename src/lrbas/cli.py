"""Command line interface.

``solve`` runs one strategy over the configured sequence of modified
systems and writes report artifacts; ``compare`` tabulates the totals
of several finished runs side by side. Exit status: 0 when every
system converged, 2 on solver failure, 1 on usage or configuration
errors.
"""
from __future__ import annotations

import argparse
import dataclasses
import sys

from .config import ConfigError, load_config
from .experiment import compare, run
from .linalg import ConvergenceFailure
from .solver import STRATEGIES


class _ArgumentParser(argparse.ArgumentParser):
    """argparse exits with status 2 on usage errors; the contract is 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser():
    parser = _ArgumentParser(
        prog="lrbas",
        description="Reduced basis additive Schwarz experiments on sequences "
        "of locally modified conductivity fields.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_ArgumentParser)

    # each dest is an ExperimentConfig field, and flags left out stay out of
    # the namespace, so main() replaces exactly the fields given
    solve = sub.add_parser(
        "solve", help="run one strategy over the configured sequence", argument_default=argparse.SUPPRESS
    )
    solve.add_argument("--config", required=True, help="JSON configuration file")
    solve.add_argument("--strategy", choices=STRATEGIES, help="override solver.strategy")
    solve.add_argument("--eps", type=float, help="override solver.eps")
    solve.add_argument("--eps-loc", type=float, dest="eps_loc", help="override solver.eps_loc")
    solve.add_argument(
        "--keep-full-bases",
        action="store_true",
        help="carry entire enriched bases between systems",
    )
    solve.add_argument("--grid", type=int, dest="grid_size", metavar="GRID", help="override grid.size")
    solve.add_argument(
        "--subdomains", type=int, dest="layout", metavar="SUBDOMAINS", help="override decomposition.layout"
    )
    solve.add_argument("--overlap", type=int, help="override decomposition.overlap")
    solve.add_argument("--out", dest="output_dir", metavar="OUT", help="override output.directory")

    comp = sub.add_parser("compare", help="tabulate totals of finished runs side by side")
    comp.add_argument("report_dirs", nargs="+", metavar="report-dir")
    comp.add_argument("--out", default=".", help="directory for comparison.csv and comparison.txt")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if args.command == "solve":
            given = dict(vars(args))
            del given["command"]
            config = dataclasses.replace(load_config(given.pop("config")), **given)
            artifacts = run(config)
            report = artifacts.report
            print(
                f"strategy {report.strategy}: {len(report.entries)} systems, "
                f"{report.total_iterations} iterations, "
                f"{report.total_corrections} local solutions, "
                f"{report.total_coarse_solves} coarse solves"
            )
            print(f"artifacts in {artifacts.directory}")
            return 0
        comparison = compare(args.report_dirs, out_dir=args.out)
        print(comparison.text, end="")
        return 0
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ConvergenceFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
