#!/usr/bin/env python3
"""Record the benchmark's numbers for this checkout in one JSON file.

Runs ``bench/run.py`` on each workload that ``BENCHMARK.json`` lists, at
its ``run_seconds``, seed 1, once untraced (``--trace 0``) and once
traced (``--trace 1``), and writes what the two runs print to the given
file at the root of the repository:

- ``environment``: the ``# environment`` line of the first run;
- ``commit``: ``git rev-parse HEAD`` and whether the tree had changes;
- per workload: the untraced run's end-to-end metrics, the traced
  run's per-layer metrics, the iterations/local solves/coarse solves of
  each variant, every ``# pass`` line parsed, and the ``correct``,
  ``attempted`` and ``failed`` fields of both runs.

It changes nothing under ``bench/``. On a 2-core machine it takes about
four minutes. The records are named ``BENCH_<n>.json``, n counting them:

    python3 scripts/record_bench.py BENCH_<n>.json
"""
from __future__ import annotations

import argparse
import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEED = 1
# "# pass 1 pcg: setup 0.115 s, solve 0.876 s (system 1 0.361 s), write 0.012 s; iterations/local/coarse [95, 9500, 95]"
PASS = re.compile(
    r"# pass (\d+) (\S+): setup (\S+) s, solve (\S+) s \(system 1 (\S+) s\), write (\S+) s; "
    r"iterations/local/coarse (\[[^\]]*\])"
)
SYSTEMS = re.compile(r"# pass (\d+) (\S+) system seconds: (\[.*\])$")


def parse_output(text):
    """The environment, the pass records and the final JSON object of one ``bench/run.py`` output.

    Each pass record holds the pass number, the variant, its set-up,
    solve, system-1 and write seconds, its counts and its per-system
    seconds. Under ``--trace 1`` the untraced pass and the traced pass
    are both numbered 1, in that order.
    """
    lines = text.splitlines()
    environment, passes = None, []
    for line in lines:
        if line.startswith("# environment "):
            environment = json.loads(line[len("# environment ") :])
        elif m := PASS.match(line):
            number, variant, *seconds, counts = m.groups()
            setup, solve, first, write = map(float, seconds)
            passes.append({"pass": int(number), "variant": variant, "setup_s": setup, "solve_s": solve,
                           "first_system_s": first, "write_s": write, "counts": json.loads(counts)})
        elif m := SYSTEMS.match(line):
            number, variant, seconds = m.groups()
            record = next(p for p in reversed(passes) if (p["pass"], p["variant"]) == (int(number), variant))
            record["system_s"] = json.loads(seconds)
    if environment is None:
        raise ValueError("no '# environment' line")
    result = json.loads(lines[-1]) if lines else None
    if not isinstance(result, dict) or "metrics" not in result:
        raise ValueError("the last line is not the benchmark's JSON result")
    return environment, passes, result


def workload_record(untraced, traced):
    """One workload's entry from the parsed outputs of its untraced and traced runs."""
    (_, passes, result), (_, _, layers) = untraced, traced
    counts = {}
    for p in passes:
        counts.setdefault(p["variant"], p["counts"])
    return {
        "end_to_end": result["metrics"],
        "per_layer": layers["metrics"],
        "counts": counts,
        "passes": passes,
        "runs": {
            name: {key: run[key] for key in ("correct", "attempted", "failed")}
            for name, run in (("untraced", result), ("traced", layers))
        },
    }


def run_bench(workload, seconds, trace):
    command = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(SEED),
               "--seconds", str(seconds), "--trace", str(trace)]
    run = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    if run.returncode not in (0, 1):  # 1: a system failed its check, which the record shows
        raise RuntimeError(f"{' '.join(command)} exited with {run.returncode}: {run.stderr[-2000:]}")
    return parse_output(run.stdout)


def commit():
    head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True).stdout.strip()
    status = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT, capture_output=True, text=True).stdout
    return {"head": head, "changed": bool(status.strip())}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("output", help="file name, written at the root of the repository")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    record = {"command": spec["command"], "seed": SEED, "seconds": spec["run_seconds"], "commit": commit(),
              "environment": None, "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        untraced = run_bench(workload, spec["run_seconds"], 0)
        traced = run_bench(workload, spec["run_seconds"], 1)
        record["environment"] = record["environment"] or untraced[0]
        record["workloads"][workload] = workload_record(untraced, traced)
        print(workload, json.dumps(record["workloads"][workload]["counts"]), flush=True)
    (ROOT / args.output).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
