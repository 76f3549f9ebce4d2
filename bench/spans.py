"""Traced run: spans around the public functions of each lrbas module.

The wrappers are installed from here, onto the imported modules, and
removed afterwards; nothing under ``src/`` knows about them. A span has
a name, a start, an end and a parent; spans are kept in memory and
written out when the benchmark ends. A span's self time is its duration
minus the time its children cover. Factorizations and solves are
attributed to a layer by their parent span.
"""
from __future__ import annotations

import functools
import os
from collections import defaultdict
from time import perf_counter

ROOT = "experiment.run"

# (module, attribute, span name): module-level functions, patched in every
# lrbas module that imported them by name.
FUNCTIONS = (
    ("experiment", "run", ROOT),
    ("fem", "problem_sequence", "fem.sequence"),
    ("fem", "assemble", "fem.assemble"),
    ("fem", "assemble_local_neumann", "fem.local_neumann"),
    ("decomposition", "build_decomposition", "decomposition.build"),
    ("decomposition", "build_geneo_coarse", "decomposition.geneo"),
    ("decomposition", "_coarse_factor", "decomposition.coarse_matrix"),
    ("decomposition", "apply_as_preconditioner", "decomposition.precond"),
    ("linalg", "sym_gen_eig", "linalg.eig"),
    ("linalg", "factorize", "linalg.factorize"),
    ("solver", "run_sequence", "solver.sequence"),
    ("solver", "lrbas_solve_one", "solver.step"),
    ("solver", "select_enrichment", "solver.select"),
    ("solver", "transition_bases", "solver.transition"),
    ("solver", "pcg", "solver.pcg"),
    ("solver", "pou_snapshot_guess", "solver.guess"),
    ("reporting", "write_csv", "reporting.write"),
    ("reporting", "write_pgm", "reporting.write"),
)

# (module, class, method, span name)
METHODS = (
    ("decomposition", "LocalOperators", "build", "decomposition.local_ops"),
    ("decomposition", "LocalOperators", "refresh", "decomposition.local_ops"),
    ("linalg", "Factorization", "solve", "linalg.solve"),
    ("linalg", "SparseSymMatrix", "matvec", "linalg.matvec"),
    ("solver", "ReducedSystem", "__init__", "solver.reduced.build"),
    ("solver", "ReducedSystem", "update", "solver.reduced.update"),
    ("solver", "ReducedSystem", "solve", "solver.reduced.solve"),
    ("solver", "LocalBasis", "append", "solver.basis.append"),
)

# Which layer a factorization or a solve serves, by the name of its parent span.
FACTORIZE_BY_PARENT = {
    "decomposition.local_ops": "local",
    "decomposition.coarse_matrix": "coarse",
    "solver.reduced.solve": "reduced",
}
SOLVE_BY_PARENT = {
    "decomposition.precond": "precond",
    "solver.step": "enrich",
    "solver.reduced.solve": "reduced",
}


def _written_bytes(args, result):
    """Bytes a writer left on disk: its file, and a PGM's sidecar."""
    paths = [args[0]] + [a for a in args[2:3] if isinstance(a, (str, os.PathLike))]
    return {"bytes": sum(os.path.getsize(p) for p in paths)}


# Attributes recorded on a span after its call: name -> f(args, result) -> dict.
ATTRS = {
    "linalg.eig": lambda args, result: {"n": args[0].shape[0]},
    "linalg.factorize": lambda args, result: {"n": result.n, "rank": result.rank},
    "solver.basis.append": lambda args, result: {"kept": bool(result)},
    "reporting.write": _written_bytes,
}
# Attributes read before the call, from the instance: the reduced dimension.
ATTRS_BEFORE = {
    "solver.reduced.solve": lambda args: {"dim": int(args[0].dimensions().sum())},
}


class Tracer:
    """In-memory span recorder; a span is [name, parent, start, end, attrs]."""

    def __init__(self):
        self.spans = []
        self._open = []  # indices of the spans being timed, innermost last

    def wrap(self, name, fn):
        spans, stack = self.spans, self._open
        after = ATTRS.get(name)
        before = ATTRS_BEFORE.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, stack[-1] if stack else -1, 0.0, 0.0, before(args) if before else {}]
            spans.append(span)
            stack.append(index)
            span[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                stack.pop()
            if after is not None:
                span[4] = dict(span[4], **after(args, result))
            return result

        return traced

    def mark(self, key):
        """Set a flag on the innermost open span."""
        if self._open:
            span = self.spans[self._open[-1]]
            span[4] = dict(span[4], **{key: True})


MODULES = ("experiment", "fem", "decomposition", "linalg", "solver", "reporting")


class Instrumentation:
    """Installs the tracer's wrappers on the lrbas modules and removes them."""

    def __init__(self, package, tracer):
        self.package = package
        self.modules = {name: getattr(package, name) for name in MODULES}
        self.tracer = tracer
        self._undo = []

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def __enter__(self):
        holders = [self.package] + list(self.modules.values())
        for module, attr, name in FUNCTIONS:
            original = getattr(self.modules[module], attr)
            wrapped = self.tracer.wrap(name, original)
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._set(holder, key, wrapped)
        for module, cls_name, attr, name in METHODS:
            cls = getattr(self.modules[module], cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                self._set(cls, attr, classmethod(self.tracer.wrap(name, raw.__func__)))
            else:
                self._set(cls, attr, self.tracer.wrap(name, raw))
        # a factorization that falls back to pivoting calls dpstrf
        linalg = self.modules["linalg"]
        dpstrf = linalg.dpstrf

        def counted_dpstrf(*args, **kwargs):
            self.tracer.mark("pivoted")
            return dpstrf(*args, **kwargs)

        self._set(linalg, "dpstrf", counted_dpstrf)
        return self

    def __exit__(self, *exc):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)
        return False


def self_times(records):
    """Each span's duration minus the time its children cover."""
    out = [end - start for _, _, start, end, _ in records]
    for _, parent, start, end, _ in records:
        if parent >= 0:
            out[parent] -= end - start
    return out


def layer_key(records, i):
    """The metric key of span i: factorize and solve take their parent's layer."""
    name, parent = records[i][0], records[i][1]
    parent_name = records[parent][0] if parent >= 0 else None
    if name == "linalg.factorize":
        return f"{name}.{FACTORIZE_BY_PARENT.get(parent_name, 'other')}"
    if name == "linalg.solve":
        return f"{name}.{SOLVE_BY_PARENT.get(parent_name, 'other')}"
    return name


# Span keys reported as <key>.calls and <key>.s.
CALLS_AND_TIME = (
    "fem.assemble",
    "fem.local_neumann",
    "decomposition.geneo",
    "decomposition.local_ops",
    "decomposition.precond",
    "linalg.eig",
    "linalg.factorize.local",
    "linalg.factorize.coarse",
    "linalg.factorize.reduced",
    "linalg.solve.precond",
    "linalg.solve.enrich",
    "linalg.solve.reduced",
    "linalg.matvec",
    "solver.reduced.build",
    "solver.reduced.update",
    "solver.reduced.solve",
    "reporting.write",
)
# Span keys reported by self time only.
TIME_ONLY = (
    "fem.sequence",
    "decomposition.build",
    "decomposition.coarse_matrix",
    "solver.basis.append",
    "solver.select",
    "solver.pcg",
    "solver.guess",
    "solver.transition",
    "solver.step",
    "solver.sequence",
)


def layer_metrics(records, traced_wall, untraced_wall):
    """Per-layer metrics: (name, value, unit) triples.

    ``traced_wall`` and ``untraced_wall`` are the summed wall times of the
    traced and untraced ``run`` calls of the same variants.
    """
    own = self_times(records)
    calls = defaultdict(int)
    secs = defaultdict(float)
    keys = [layer_key(records, i) for i in range(len(records))]
    for key, t in zip(keys, own):
        calls[key] += 1
        secs[key] += t

    def where(key, parent_name=None):
        for i, k in enumerate(keys):
            parent = records[i][1]
            if k == key and (parent_name is None or (parent >= 0 and records[parent][0] == parent_name)):
                yield records[i][4]

    factorize = [r[4] for r in records if r[0] == "linalg.factorize"]
    reduced_f = list(where("linalg.factorize.reduced"))
    dims = [a["dim"] for a in where("solver.reduced.solve")]
    enrich = list(where("solver.basis.append", "solver.step"))
    eig_n = [a["n"] for a in where("linalg.eig")]
    attributed = sum(t for k, t in zip(keys, own) if k != ROOT)

    out = []
    for key in CALLS_AND_TIME:
        out.append((f"{key}.calls", calls[key], "count"))
        out.append((f"{key}.s", secs[key], "s"))
    for key in TIME_ONLY:
        out.append((f"{key}.s", secs[key], "s"))
    out += [
        ("decomposition.geneo.recomputed", sum(1 for _ in where("linalg.eig", "decomposition.geneo")), "count"),
        ("linalg.eig.n_max", max(eig_n, default=0), "count"),
        ("linalg.factorize.gflop", sum(a["n"] ** 3 / 3.0 for a in factorize) / 1e9, "Gflop"),
        ("linalg.factorize.pivoted_ratio", _ratio(sum(1 for a in factorize if a.get("pivoted")), len(factorize)), "ratio"),
        ("solver.reduced.dim.max", max(dims, default=0), "count"),
        ("solver.reduced.dim.mean", _ratio(sum(dims), len(dims)), "count"),
        ("solver.reduced.rank_ratio", _ratio(sum(a["rank"] for a in reduced_f), sum(a["n"] for a in reduced_f)), "ratio"),
        ("solver.enrich.kept_ratio", _ratio(sum(1 for a in enrich if a["kept"]), len(enrich)), "ratio"),
        ("reporting.write.bytes", sum(a["bytes"] for a in where("reporting.write")), "bytes"),
        ("experiment.run.s", secs[ROOT], "s"),
        ("trace.coverage", _ratio(attributed, traced_wall), "ratio"),
        ("trace.overhead_s", traced_wall - untraced_wall, "s"),
        ("trace.spans", len(records), "count"),
        ("trace.unattributed_calls", calls["linalg.factorize.other"] + calls["linalg.solve.other"], "count"),
    ]
    return out


def shares_by_root(records, top=8):
    """Per root span: the ``top`` layer keys by share of the root's duration."""
    own = self_times(records)
    root_of = []
    totals = {}
    for i, (_, parent, start, end, _) in enumerate(records):
        root = i if parent < 0 else root_of[parent]
        root_of.append(root)
        key = layer_key(records, i)
        totals.setdefault(root, defaultdict(float))[key] += own[i]
    out = []
    for root, by_key in totals.items():
        wall = records[root][3] - records[root][2]
        ranked = sorted(by_key.items(), key=lambda kv: -kv[1])[:top]
        out.append([(key, t / wall) for key, t in ranked])
    return out


def _ratio(num, den):
    return num / den if den else 0.0
