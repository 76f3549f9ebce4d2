"""Configuration-driven experiment runner and report comparison.

``run`` builds the grid, coefficient sequence, and decomposition from a
configuration, executes the selected strategy, and writes the report
artifacts into the output directory: the resolved ``config.json``,
``summary.csv``, per-step residual histories and correction grids,
conductivity and solution images, and the per-step coarse-space counts.
``compare`` tabulates the totals of several finished runs over the same
problem sequence side by side.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from .config import ConfigError, config_from_dict
from .decomposition import build_decomposition
from .fem import Grid, problem_sequence
from .linalg import ConvergenceFailure
from .reporting import (
    SUMMARY_HEADER,
    format_float,
    read_csv,
    write_corrections_grid,
    write_csv,
    write_geneo_counts,
    write_pgm,
    write_residuals,
    write_summary,
)
from .solver import STRATEGIES, SolveReport, run_sequence


@dataclass
class RunArtifacts:
    directory: Path
    files: list
    report: SolveReport


def run(config):
    """Execute one experiment; artifacts land in config.output_dir.

    A ``FAILED`` marker left by an earlier run is removed first. On solver
    failure the artifacts of the completed steps are kept, the marker is
    written with the diagnostic, and the failure is re-raised.
    """
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "FAILED").unlink(missing_ok=True)
    files = []

    cfg_path = out / "config.json"
    cfg_path.write_text(json.dumps(config.to_json_dict(), indent=2) + "\n", encoding="utf-8")
    files.append(cfg_path)

    grid = Grid(config.grid_size)
    dec = build_decomposition(grid, config.layout, config.overlap)
    problems = problem_sequence(grid, config.geometry, config.schedule)

    for k, prob in enumerate(problems, start=1):
        image = out / f"sigma_{k}.pgm"
        sidecar = out / f"sigma_{k}.txt"
        write_pgm(image, prob.coefficient.values, sidecar)
        files += [image, sidecar]

    failure = None
    try:
        report = run_sequence(problems, dec, opts=config)
    except ConvergenceFailure as exc:
        failure = exc
        report = exc.report

    for entry in report.entries:
        residuals = out / f"residuals_{entry.k}.csv"
        write_residuals(residuals, entry.residual_history)
        corrections = out / f"corrections_{entry.k}.csv"
        write_corrections_grid(corrections, entry.corrections, dec.layout)
        image = out / f"solution_{entry.k}.pgm"
        sidecar = out / f"solution_{entry.k}.txt"
        full = problems[entry.k - 1].system.reconstruct(entry.solution)
        write_pgm(image, full.reshape(grid.m + 1, grid.m + 1), sidecar)
        files += [residuals, corrections, image, sidecar]

    summary = out / "summary.csv"
    write_summary(summary, report.entries)
    geneo = out / "geneo_counts.csv"
    write_geneo_counts(geneo, report.entries)
    files += [summary, geneo]

    if failure is not None:
        marker = out / "FAILED"
        marker.write_text(str(failure) + "\n", encoding="utf-8")
        files.append(marker)
        raise failure
    return RunArtifacts(out, files, report)


# ExperimentConfig fields that fix the problem sequence and the stopping test
_COMPARABLE = ("grid_size", "layout", "overlap", "tau", "eps", "geometry", "schedule")


@dataclass(frozen=True)
class ComparisonRow:
    strategy: str
    eps_loc: float
    keep_full_bases: bool
    iterations: int
    local_solutions: int
    coarse_solves: int

    @property
    def label(self):
        if self.strategy != "lrbas":
            return self.strategy
        label = f"lrbas eps_loc={self.eps_loc:g}"
        if self.keep_full_bases:
            label += " keep-full"
        return label


@dataclass
class Comparison:
    rows: list
    text: str
    csv_path: Path
    text_path: Path


def _load_report_dir(directory):
    directory = Path(directory)
    cfg_path = directory / "config.json"
    if not cfg_path.is_file():
        raise ConfigError(f"{directory} has no config.json")
    if (directory / "FAILED").is_file():
        raise ConfigError(f"{directory} holds a failed run")
    try:
        config = config_from_dict(json.loads(cfg_path.read_text(encoding="utf-8")))
    except ConfigError as exc:
        raise ConfigError(f"{directory}/config.json: {exc}") from None
    except ValueError as exc:
        raise ConfigError(f"{directory}/config.json is not valid JSON: {exc}") from exc
    summary = directory / "summary.csv"
    if not summary.is_file():
        raise ConfigError(f"{directory} has no summary.csv")
    header, rows = read_csv(summary)
    totals = rows[-1] if rows else []
    if (
        tuple(header) != SUMMARY_HEADER
        or len(totals) != len(SUMMARY_HEADER)
        or totals[0] != "total"
        or not all(v.isdigit() for v in totals[1:4])
    ):
        raise ConfigError(f"{directory}/summary.csv is not a summary table")
    return config, ComparisonRow(
        strategy=config.strategy,
        eps_loc=config.eps_loc,
        keep_full_bases=config.keep_full_bases,
        iterations=int(totals[1]),
        local_solutions=int(totals[2]),
        coarse_solves=int(totals[3]),
    )


def compare(report_dirs, out_dir="."):
    """Side-by-side totals of finished runs over one problem sequence.

    Each ``config.json`` is validated by ``config_from_dict``, and the
    runs must agree on the fields in ``_COMPARABLE``. Rows are ordered
    baselines first, then the reduced solver variants by retained-basis
    policy and localization threshold. Emits
    ``comparison.csv`` and the aligned-text ``comparison.txt`` into
    ``out_dir``.
    """
    if len(report_dirs) < 2:
        raise ConfigError("compare needs at least two report directories")
    loaded = [_load_report_dir(d) for d in report_dirs]
    reference = loaded[0][0]
    for directory, (config, _) in zip(report_dirs[1:], loaded[1:]):
        for name in _COMPARABLE:
            if getattr(config, name) != getattr(reference, name):
                raise ConfigError(
                    f"reports are not comparable: {name} differs "
                    f"between {report_dirs[0]} and {directory}"
                )

    rows = sorted(
        (row for _, row in loaded),
        key=lambda r: (STRATEGIES.index(r.strategy), r.keep_full_bases, r.eps_loc),
    )

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / "comparison.csv"
    write_csv(
        csv_path,
        ["strategy", "eps_loc", "keep_full_bases", "iterations", "local_solutions", "coarse_solves"],
        [
            [
                r.strategy,
                format_float(r.eps_loc),
                "true" if r.keep_full_bases else "false",
                str(r.iterations),
                str(r.local_solutions),
                str(r.coarse_solves),
            ]
            for r in rows
        ],
    )

    ratio_lines = []
    for keep in (False, True):
        variants = [r for r in rows if r.strategy == "lrbas" and r.keep_full_bases == keep]
        exhaustive = [r for r in variants if r.eps_loc == 0.0]
        adaptive = [r for r in variants if r.eps_loc > 0.0]
        if exhaustive and adaptive and exhaustive[0].local_solutions > 0:
            chosen = adaptive[-1]
            ratio = chosen.local_solutions / exhaustive[0].local_solutions
            suffix = ", keep-full" if keep else ""
            ratio_lines.append(
                f"corrections ratio (eps_loc={chosen.eps_loc:g} / eps_loc=0{suffix}): {ratio:.3f}"
            )

    header = ("strategy", "iterations", "local solutions", "coarse solves")
    table = [header] + [
        (r.label, str(r.iterations), str(r.local_solutions), str(r.coarse_solves)) for r in rows
    ]
    widths = [max(len(t[c]) for t in table) for c in range(4)]
    lines = [
        "  ".join(
            t[c].ljust(widths[c]) if c == 0 else t[c].rjust(widths[c]) for c in range(4)
        ).rstrip()
        for t in table
    ]
    text = "\n".join(lines + ratio_lines) + "\n"
    text_path = out / "comparison.txt"
    text_path.write_text(text, encoding="utf-8")
    return Comparison(rows, text, csv_path, text_path)
