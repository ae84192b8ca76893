"""In-memory spans around the public entry points of each `goursatfd` module.

The tracer replaces an entry point where its caller looks it up (for
example `goursatfd.solver.hyp0f1_array`, the name `_cell_solve` resolves at
call time) with a wrapper that records a span, and puts the original back
afterwards.  An entry point that no longer exists is skipped, so its metrics
read zero instead of failing the run.

A span is (name, start, end, parent, operation id).  Names are
`<layer>.<entry>[.<detail>]`; the layer is the first component.  Spans are
nested because the benchmark is single threaded, so a layer's self time is
its spans' duration minus the time covered by their direct children.  No
traced entry point calls itself through a traced name, so an entry point's
busy time is the sum of its spans' durations.
"""

from __future__ import annotations

import dataclasses
import functools
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np

# Per-layer metrics in the order BENCHMARK.json registers them: (name, unit).
LAYERS = ("harness", "solver", "kernels", "series", "field", "problem", "cli")
_ENTRIES = {
    "harness": ("convergence_study", "fd_solve", "error_vs_exact", "error_norm1"),
    "solver": ("solve_basic", "solve_correction"),
    "kernels": ("hyp0f1_array",),
    "series": ("taylor_at", "compose_with_tail"),
    "field": ("corner_table", "bary_matrix"),
    "problem": ("f", "boundary", "exact"),
    "cli": ("main", "load_problem_file"),
}
MAX_TRACED_RANK = 7


def _metric_list():
    out = []
    for layer in LAYERS:
        for entry in _ENTRIES[layer]:
            out.append((f"{layer}.{entry}.calls", "count"))
            out.append((f"{layer}.{entry}.s", "s"))
            if entry == "solve_correction":
                out += [(f"solver.solve_correction.k{k}.s", "s")
                        for k in range(1, MAX_TRACED_RANK + 1)]
            if entry in ("hyp0f1_array", "taylor_at", "compose_with_tail"):
                out.append((f"{layer}.{entry}.points", "count"))
        out.append((f"{layer}.self_s", "s"))
    out += [("solver.cells", "count"), ("kernels.zmax", "1"), ("cli.output_bytes", "B"),
            ("trace_overhead", "ratio")]
    return tuple(out)


PER_LAYER_METRICS = _metric_list()
ROOT = "bench.op"


class Tracer:
    """Collects spans and work counters while its patches are installed."""

    def __init__(self):
        # Spans are stored column by column: a list or tuple per span would be
        # one more object for the cyclic garbage collector to scan, and the
        # tracing overhead then grows with the span count (27% at 95k spans).
        self.names = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.ops = array("q")
        self.counters = defaultdict(float)  # (op id, key) -> summed work
        self.peaks = {}  # (op id, key) -> largest value seen
        self._stack = []
        self._op = -1
        self._patches = []

    # -- recording ---------------------------------------------------------

    def _open(self, name) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ops.append(self._op)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(perf_counter())
        return idx

    def _close(self, idx):
        self.ends[idx] = perf_counter()
        self._stack.pop()

    @property
    def spans(self) -> list:
        """(name, start, end, parent index, op id) for every span so far."""
        return list(zip(self.names, self.starts, self.ends, self.parents, self.ops))

    def operation(self, fn, *args):
        """Run fn(*args) as one traced operation under a root span."""
        self._op += 1
        idx = self._open(ROOT)
        try:
            return fn(*args)
        finally:
            self._close(idx)

    def add(self, key, value):
        self.counters[(self._op, key)] += value

    def peak(self, key, value):
        k = (self._op, key)
        self.peaks[k] = max(self.peaks.get(k, value), value)

    def wrap(self, fn, name, count=None, post=None):
        """fn wrapped in a span; `name` may be a function of (args, kwargs)."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name(args, kwargs) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if count is not None:
                try:
                    count(self, args, kwargs)
                except (AttributeError, IndexError, KeyError, TypeError, ValueError):
                    pass  # the entry point's signature changed; skip its work count
            return post(result) if post is not None else result

        return traced

    # -- patching ----------------------------------------------------------

    def patch(self, owner, attr, name, count=None, post=None) -> bool:
        """Replace owner.attr by a traced wrapper; False if it does not exist."""
        original = vars(owner).get(attr) if owner is not None else None
        if not callable(original):
            return False
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, name, count, post))
        return True

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def traced_problem(self, problem, exact):
        """Copies of the problem and exact solution whose callables record spans."""
        try:
            problem = dataclasses.replace(
                problem,
                psi=self.wrap(problem.psi, "problem.boundary"),
                phi=self.wrap(problem.phi, "problem.boundary"),
                f=self.wrap(problem.f, "problem.f"),
            )
        except (TypeError, AttributeError):
            pass  # no longer a dataclass with these fields; leave it untraced
        if exact is not None:
            exact = self.wrap(exact, "problem.exact")
        return problem, exact

    def install(self, gf):
        """Patch every entry point of the package `gf` the benchmark traces."""
        harness, solver, cli, series = (getattr(gf, m, None) for m in
                                        ("harness", "solver", "cli", "series"))
        for owner in (gf, harness, cli):
            for entry in _ENTRIES["harness"]:
                self.patch(owner, entry, f"harness.{entry}")
        self.patch(harness, "solve_basic", "solver.solve_basic", count=_count_basic_cells)
        self.patch(harness, "solve_correction", _correction_name, count=_count_correction_cells)
        self.patch(solver, "hyp0f1_array", "kernels.hyp0f1_array", count=_count_kernel)
        self.patch(getattr(series, "Nonlinearity", None), "taylor_at", "series.taylor_at",
                   count=_count_taylor)
        self.patch(solver, "compose_with_tail", "series.compose_with_tail", count=_count_compose)
        for owner in (harness, solver):
            self.patch(owner, "corner_table", "field.corner_table")
            self.patch(owner, "bary_matrix", "field.bary_matrix")
        self.patch(cli, "main", "cli.main")

        def traced_preset(preset):
            problem, exact = self.traced_problem(preset.problem, preset.exact)
            return dataclasses.replace(preset, problem=problem, exact=exact)

        self.patch(cli, "load_problem_file", "cli.load_problem_file", post=traced_preset)

    # -- results -----------------------------------------------------------

    def op_ids(self):
        return sorted({op for name, op in zip(self.names, self.ops) if name == ROOT})

    def self_times(self, op):
        """{layer: self time} for one operation, the root span's layer included."""
        spans = self.spans
        child = defaultdict(float)
        for name, start, end, parent, o in spans:
            if o == op and parent >= 0:
                child[parent] += end - start
        out = defaultdict(float)
        for idx, (name, start, end, parent, o) in enumerate(spans):
            if o == op:
                out[name.split(".", 1)[0]] += end - start - child[idx]
        return out

    def op_metrics(self, op) -> dict:
        """Every registered per-layer metric except trace_overhead, for one op."""
        values = {name: 0.0 for name, _ in PER_LAYER_METRICS if name != "trace_overhead"}
        for name, start, end, parent, o in self.spans:
            if o != op or name == ROOT:
                continue
            # a span counts for its own name and its entry point (first two parts)
            for key in {name, ".".join(name.split(".")[:2])}:
                if f"{key}.calls" in values:
                    values[f"{key}.calls"] += 1
                if f"{key}.s" in values:
                    values[f"{key}.s"] += end - start
        for layer, t in self.self_times(op).items():
            if f"{layer}.self_s" in values:
                values[f"{layer}.self_s"] = t
        for (o, key), v in self.counters.items():
            if o == op and key in values:
                values[key] = v
        for (o, key), v in self.peaks.items():
            if o == op and key in values:
                values[key] = v
        return values

    def save(self, path):
        """Write the spans as arrays: names, name index, start, end, parent, op."""
        names = sorted(set(self.names))
        index = {n: i for i, n in enumerate(names)}
        t0 = self.starts[0] if self.names else 0.0
        np.savez(
            path,
            names=np.array(names),
            name=np.array([index[n] for n in self.names], dtype=np.int32),
            start=np.frombuffer(self.starts, dtype=float) - t0,
            end=np.frombuffer(self.ends, dtype=float) - t0,
            parent=np.frombuffer(self.parents, dtype=np.int64),
            op=np.frombuffer(self.ops, dtype=np.int64),
        )


def _arg(args, kwargs, pos, key):
    return args[pos] if len(args) > pos else kwargs[key]


def _correction_name(args, kwargs):
    try:
        return f"solver.solve_correction.k{int(_arg(args, kwargs, 1, 'k'))}"
    except (IndexError, KeyError, TypeError, ValueError):
        return "solver.solve_correction"


def _count_basic_cells(tracer, args, kwargs):
    grid = _arg(args, kwargs, 1, "grid")
    tracer.add("solver.cells", grid.N1 * grid.N2)


def _count_correction_cells(tracer, args, kwargs):
    grid = _arg(args, kwargs, 0, "expansion").grid
    tracer.add("solver.cells", grid.N1 * grid.N2)


def _count_kernel(tracer, args, kwargs):
    z = _arg(args, kwargs, 1, "z")
    tracer.add("kernels.hyp0f1_array.points", np.size(z))
    zmax = args[2] if len(args) > 2 else kwargs.get("zmax")
    if zmax is None:
        zmax = float(np.max(np.abs(z))) if np.size(z) else 0.0
    tracer.peak("kernels.zmax", float(zmax))


def _count_taylor(tracer, args, kwargs):
    tracer.add("series.taylor_at.points", np.size(_arg(args, kwargs, 1, "center")))


def _count_compose(tracer, args, kwargs):
    taylor = np.asarray(_arg(args, kwargs, 0, "taylor"))
    tracer.add("series.compose_with_tail.points", taylor[0].size)
