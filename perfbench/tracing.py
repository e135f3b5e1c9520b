"""Spans around the calls into each ``rih`` module, recorded from outside.

``Tracer.install()`` imports each module in ``TARGETS`` and replaces each name
with a wrapper, on its defining module and on every ``rih`` module that
imported it by name (methods and constructors are wrapped once, on their
class).  A name that no longer exists is skipped, so its metrics are absent.  Each wrapper records a span
(name, start, end, parent span, request) in memory, and only while a request
is being served, so the benchmark's own checks stay out of the trace.

The recording assumes one thread: the package runs single-threaded with
``RIH_THREADS`` unset, which is how the benchmark runs it.
"""

from __future__ import annotations

import functools
import importlib
import sys
import weakref
from collections import defaultdict
from time import perf_counter

# (module, attribute path) of every wrapped name; a class stands for its
# constructor
TARGETS = (
    ("lattice", "edge_index_array"),
    ("lattice", "lattice_symmetry_permutations"),
    ("tiling", "classical_energy"),
    ("tiling", "epr_demand_graph"),
    ("tiling", "classify"),
    ("hamiltonian", "build_site_term"),
    ("hamiltonian", "TwoBodyTerm.matrix"),
    ("hamiltonian", "check_term_symmetries"),
    ("hamiltonian", "term_hash"),
    ("hamiltonian", "embed_operator"),
    ("solver", "NumberingTable"),
    ("solver", "NumberingTable.solve_all"),
    ("solver", "epr_min_energy"),
    ("solver", "ColoringTable"),
    ("solver", "embedded_step_energy"),
    ("solver", "ground_energy_search"),
    ("solver", "min_eigenvalue"),
    ("solver", "sector_full_oracle"),
    ("solver", "tile_sector_energy"),
    ("rules", "enumerate_valid"),
    ("rules", "lift_3x3"),
    ("rules", "check_tiling"),
    ("rules", "decode_lifted"),
    ("instance", "f_search"),
    ("instance", "is_probable_prime"),
    ("acceptance", "run_criteria"),
    ("cli", "main"),
)
ENTRY = "cli.main"  # the request's own entry; coverage counts what lies below it
REPORT_COUNTS = (
    "distinct_masks",
    "distinct_step_patterns",
    "mask_pairs_swept",
    "embedded_refinements",
)


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, request index]
        self.requests = []  # (name, start, end)
        self.counts = defaultdict(int)
        self.measured = defaultdict(float)  # timings, and sizes that vary with them
        self._stack = []
        self._request = None
        self._matrices = weakref.WeakValueDictionary()  # id -> counted matrix
        self.wrapped = []

    # -------------------------------------------------------------- install

    def install(self):
        for module_name, _ in TARGETS:
            importlib.import_module(f"rih.{module_name}")
        modules = [m for name, m in sys.modules.items() if name == "rih" or name.startswith("rih.")]
        for module_name, path in TARGETS:
            owner = sys.modules.get(f"rih.{module_name}")
            parts = path.split(".")
            for part in parts[:-1]:
                owner = getattr(owner, part, None)
            original = getattr(owner, parts[-1], None)
            if original is None:
                continue
            name = f"{module_name}.{path}"
            after = _AFTER.get(name)
            if isinstance(original, type):
                original.__init__ = self._wrap(name, original.__init__, after)
            elif len(parts) > 1:
                setattr(owner, parts[-1], self._wrap(name, original, after))
            else:
                wrapper = self._wrap(name, original, after)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, wrapper)
            self.wrapped.append(name)
            for key in _COUNTED.get(name, ()):
                self.counts[key] = 0
        if "cli.main" in self.wrapped:
            self.measured["cli.stdout_bytes"] = 0
        if "acceptance.run_criteria" in self.wrapped:
            for criterion in getattr(sys.modules["rih.acceptance"], "CRITERIA", ()):
                self.measured[f"acceptance.{criterion.cid}.s"] = 0.0

    def _wrap(self, name, fn, after):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._request is None:
                return fn(*args, **kwargs)
            stack = tracer._stack
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer._request]
            stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if after is not None:
                after(tracer, args, kwargs, out)
            return out

        return wrapper

    # -------------------------------------------------------------- requests

    def begin(self, request_name):
        self._request = len(self.requests)
        self.requests.append([request_name, perf_counter(), 0.0])

    def end(self):
        self.requests[self._request][2] = perf_counter()
        self._request = None

    # -------------------------------------------------------------- results

    def metrics(self):
        """(counts, measured): the deterministic counts apart from timings.

        ``cli.stdout_bytes`` is measured, not counted: the reports print their
        own elapsed seconds, so their length varies from run to run.
        """
        counts = dict(self.counts)
        measured = dict(self.measured)
        child_time = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls = defaultdict(int)
        busy = defaultdict(float)
        own = defaultdict(float)
        covered = 0.0
        # busy time counts a name's outermost spans only, so recursion or a
        # wrapped name calling itself is not counted twice
        open_names = []
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            while open_names and open_names[-1][1] <= start:
                open_names.pop()
            calls[name] += 1
            own[name] += end - start - child_time[i]
            if not any(n == name for n, _ in open_names):
                busy[name] += end - start
            if name != ENTRY and (parent < 0 or self.spans[parent][0] == ENTRY):
                covered += end - start
            open_names.append((name, end))
        for name in self.wrapped:
            counts[f"{name}.calls"] = calls[name]
            measured[f"{name}.busy_s"] = busy[name]
            measured[f"{name}.self_s"] = own[name]
            if name in ("solver.NumberingTable", "solver.ColoringTable"):
                measured[f"{name}.init_s"] = busy[name]
        patterns = counts.get("solver.report.distinct_step_patterns", 0)
        if "solver.embedded_step_energy" in self.wrapped:
            counts["solver.embedded_step_energy.calls_per_pattern"] = (
                calls["solver.embedded_step_energy"] / patterns if patterns else 0.0
            )
        wall = sum(end - start for _, start, end in self.requests)
        measured["trace.wall_s"] = wall
        measured["trace.covered_share"] = covered / wall if wall else 0.0
        measured["trace.unattributed_s"] = wall - covered
        return counts, measured

    def write_spans(self, path):
        with open(path, "w") as fh:
            fh.write("name,start_s,end_s,parent,request\n")
            for name, start, end, parent, req in self.spans:
                fh.write(f"{name},{start:.9f},{end:.9f},{parent},{self.requests[req][0]}\n")


# Counts taken at a wrapped boundary from the call's arguments or result.


def _after_matrix(tracer, args, kwargs, out):
    if tracer._matrices.get(id(out)) is out:  # the term caches its matrix
        return
    tracer._matrices[id(out)] = out
    tracer.counts["hamiltonian.TwoBodyTerm.matrix.nnz"] += int(out.nnz)
    # computed from the returned CSR arrays, not measured allocation
    tracer.counts["hamiltonian.TwoBodyTerm.matrix.computed_bytes"] += int(
        out.data.nbytes + out.indices.nbytes + out.indptr.nbytes
    )


def _after_min_eigenvalue(tracer, args, kwargs, out):
    import rih.solver

    op = args[0]
    cutoff = kwargs.get("dense_cutoff", args[2] if len(args) > 2 else rih.solver.DENSE_CUTOFF)
    dim = int(op.shape[0])
    path = "dense" if dim <= cutoff else "sparse"
    tracer.counts[f"solver.min_eigenvalue.{path}_calls"] += 1
    key = "solver.min_eigenvalue.max_dim"
    tracer.counts[key] = max(tracer.counts[key], dim)


def _after_enumerate(tracer, args, kwargs, out):
    tracer.counts["rules.enumerate_valid.tilings"] += len(out)


def _after_search(tracer, args, kwargs, out):
    stats = out.stats
    for key in REPORT_COUNTS:
        tracer.counts[f"solver.report.{key}"] += int(stats.get(key) or 0)
    key = "solver.report.structure_cache_size"
    tracer.counts[key] = max(tracer.counts[key], int(stats.get("structure_cache_size") or 0))


def _after_run_criteria(tracer, args, kwargs, out):
    for row in out["criteria"]:
        tracer.measured[f"acceptance.{row['id']}.s"] += float(row["seconds"])


# counts each hook adds to, reported as 0 when the name is never called
_COUNTED = {
    "hamiltonian.TwoBodyTerm.matrix": (
        "hamiltonian.TwoBodyTerm.matrix.nnz",
        "hamiltonian.TwoBodyTerm.matrix.computed_bytes",
    ),
    "solver.min_eigenvalue": (
        "solver.min_eigenvalue.dense_calls",
        "solver.min_eigenvalue.sparse_calls",
        "solver.min_eigenvalue.max_dim",
    ),
    "rules.enumerate_valid": ("rules.enumerate_valid.tilings",),
    "solver.ground_energy_search": tuple(f"solver.report.{k}" for k in REPORT_COUNTS)
    + ("solver.report.structure_cache_size",),
}

_AFTER = {
    "hamiltonian.TwoBodyTerm.matrix": _after_matrix,
    "solver.min_eigenvalue": _after_min_eigenvalue,
    "rules.enumerate_valid": _after_enumerate,
    "solver.ground_energy_search": _after_search,
    "acceptance.run_criteria": _after_run_criteria,
}
