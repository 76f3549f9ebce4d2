"""Benchmark workloads: the problem each one solves and its solver variants.

Every workload runs its variants in the fixed order listed here, each
through ``lrbas.run`` with its own configuration. Why each one exists:

- ``paper-rb``: the paper's reference problem with the reduced basis
  solver, adaptive enrichment, keeping the full bases. After system 1
  the reduced system and the enrichment local solves do the work, and
  the reduced dimension grows from system to system; the preconditioner
  is never applied. (rb-adaptive without keep-full runs on toggle-long.)
- ``paper-pcg``: the same problem with the cold-started PCG baseline.
  Later systems spend their time in the preconditioner and in matvecs;
  the reduced system never runs and nothing is enriched, so it is the
  workload on which reduced-system changes must show no effect. It
  shares system 1 (the cold build) with paper-rb.
- ``toggle-long``: a smaller grid with a long seeded walk of port
  toggles. Local kernels are cheap, the incremental refresh runs in
  place of the cold build, and the reduced system (rb-adaptive) and the
  growing snapshot basis (pcg-guess) set the time of later systems.
"""
from __future__ import annotations

import random
from dataclasses import dataclass

VARIANTS = {
    "pcg": {"strategy": "pcg"},
    "pcg-guess": {"strategy": "pcg-guess"},
    "rb-exhaustive": {"strategy": "lrbas", "eps_loc": 0.0},
    "rb-adaptive": {"strategy": "lrbas", "eps_loc": 0.25},
    "rb-exhaustive-keep": {"strategy": "lrbas", "eps_loc": 0.0, "keep_full_bases": True},
    "rb-adaptive-keep": {"strategy": "lrbas", "eps_loc": 0.25, "keep_full_bases": True},
}

TOGGLE_GRID = {"grid": {"size": 100}, "decomposition": {"layout": 10, "overlap": 2}}
TOGGLE_SYSTEMS = 18
TOGGLE_START = (2, 5)
N_PORTS = 6


@dataclass(frozen=True)
class Workload:
    name: str
    variants: tuple
    seeded: bool  # whether --seed changes the inputs

    def problem(self, seed):
        """Config sections shared by every variant, and the port walk or None."""
        if not self.seeded:
            # every section at the library default: the paper's reference
            # problem (200 x 200 grid, 10 x 10 subdomains, overlap 4, tau 0.5,
            # eps 1e-6 and the five-system port schedule)
            return {}, None
        walk = toggle_walk(seed)
        return dict(TOGGLE_GRID, schedule=walk), walk


WORKLOADS = {
    "paper-rb": Workload("paper-rb", ("rb-adaptive-keep",), seeded=False),
    "paper-pcg": Workload("paper-pcg", ("pcg",), seeded=False),
    "toggle-long": Workload("toggle-long", ("rb-adaptive", "pcg-guess"), seeded=True),
}


def toggle_walk(seed, systems=TOGGLE_SYSTEMS, start=TOGGLE_START, n_ports=N_PORTS):
    """Open-port sets of a seeded walk that toggles one random port per system.

    Ports are drawn in rounds, each a random order of all ports, and a
    round never starts with the port the last one ended with. So every
    port changes about equally often and no system undoes the change
    just made, which keeps the work of a walk close to that of any other.
    """
    rng = random.Random(seed)
    ports = set(start)
    walk = [sorted(ports)]
    order, last = [], None
    for _ in range(systems - 1):
        if not order:
            order = rng.sample(range(1, n_ports + 1), n_ports)
            while order[-1] == last:
                rng.shuffle(order)
        last = order.pop()
        ports ^= {last}
        walk.append(sorted(ports))
    return walk


def variant_config(problem, variant, output_dir):
    """The full config document of one variant run."""
    return dict(problem, solver=dict(VARIANTS[variant]), output={"directory": str(output_dir)})
