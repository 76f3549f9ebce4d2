"""Report serialization: CSV tables and PGM images.

All CSV files are UTF-8 with LF line endings, a header row, and '.'
as the decimal separator; floats are written with ``repr`` so parsing
them back reproduces the in-memory values bit for bit. Images are
8-bit binary PGM (P5) with linear scaling between the minimum and
maximum value, which are recorded in a ``.txt`` sidecar next to each
image.
"""
from __future__ import annotations

import numpy as np


def format_float(x):
    return repr(float(x))


def write_csv(path, header, rows):
    """Write one CSV table; every cell is already a string."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(row))
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("\n".join(lines) + "\n")


def read_csv(path):
    """Parse a table written by write_csv back into (header, rows)."""
    with open(path, encoding="utf-8", newline="\n") as handle:
        lines = handle.read().split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    rows = [line.split(",") for line in lines]
    return (rows[0] if rows else []), rows[1:]


def write_summary(path, entries):
    """Per-step counts plus a totals row.

    Columns: k, iterations, local_corrections, coarse_solves,
    final_relative_residual. The totals row sums the counts and takes
    the worst (largest) final residual.
    """
    header = ["k", "iterations", "local_corrections", "coarse_solves", "final_relative_residual"]
    rows = []
    for e in entries:
        rows.append(
            [
                str(e.k),
                str(e.iterations),
                str(e.total_corrections),
                str(e.coarse_solves),
                format_float(e.final_relative_residual),
            ]
        )
    worst = max((e.final_relative_residual for e in entries), default=0.0)
    rows.append(
        [
            "total",
            str(sum(e.iterations for e in entries)),
            str(sum(e.total_corrections for e in entries)),
            str(sum(e.coarse_solves for e in entries)),
            format_float(worst),
        ]
    )
    write_csv(path, header, rows)


def write_residuals(path, history):
    write_csv(
        path,
        ["iteration", "relative_residual"],
        [[str(i), format_float(r)] for i, r in enumerate(history)],
    )


def write_corrections_grid(path, corrections, layout):
    """Correction counts as a layout x layout grid, top row first.

    Subdomain (p, q) sits in column p of grid row q; rows are written
    with the highest q first so the file reads like the domain seen
    from above.
    """
    counts = np.asarray(corrections).reshape(layout, layout)
    header = [f"c{p}" for p in range(layout)]
    rows = [[str(int(v)) for v in counts[q]] for q in range(layout - 1, -1, -1)]
    write_csv(path, header, rows)


def read_corrections_grid(path):
    """Parse a corrections grid back into per-subdomain counts."""
    _, rows = read_csv(path)
    counts = np.array([[int(v) for v in row] for row in rows], dtype=np.int64)
    return counts[::-1].ravel()


def write_geneo_counts(path, entries):
    header = ["k", "subdomain", "count"]
    rows = []
    for e in entries:
        for i, c in enumerate(e.geneo_counts):
            rows.append([str(e.k), str(i), str(int(c))])
    write_csv(path, header, rows)


def write_pgm(path, values, sidecar_path):
    """Write a value grid as binary PGM, top row of ``values`` last.

    ``values`` is indexed [row, col] with row 0 at the bottom of the
    domain, so rows are flipped into the image's top-first order. The
    linear scale's endpoints go into the sidecar file.
    """
    values = np.asarray(values, dtype=np.float64)
    lo = float(values.min())
    hi = float(values.max())
    if hi > lo:
        pixels = np.rint((values - lo) / (hi - lo) * 255.0).astype(np.uint8)
    else:
        pixels = np.zeros(values.shape, dtype=np.uint8)
    pixels = pixels[::-1]
    rows, cols = pixels.shape
    with open(path, "wb") as handle:
        handle.write(f"P5\n{cols} {rows}\n255\n".encode("ascii"))
        handle.write(pixels.tobytes())
    with open(sidecar_path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(f"min {format_float(lo)}\nmax {format_float(hi)}\n")


def read_pgm(path):
    """Parse a binary PGM written by write_pgm into a uint8 array."""
    with open(path, "rb") as handle:
        blob = handle.read()
    magic, dims, maxval, raster = blob.split(b"\n", 3)
    if magic != b"P5" or maxval != b"255":
        raise ValueError(f"{path} is not an 8-bit binary PGM")
    cols, rows = (int(t) for t in dims.split())
    pixels = np.frombuffer(raster, dtype=np.uint8, count=rows * cols)
    return pixels.reshape(rows, cols)
