"""Layer spans for a traced repetition, recorded from outside hardyshift.

``install`` replaces the public functions of the package's layer modules
with wrappers that record a span (id, name, start, end, parent id) per call.
Every module that imported such a function by name (``cli.commutant_basis``,
``lattice.power_symbol``, ...) is re-pointed at the wrapper, so no call
reaches the original.  Spans stay in memory; ``write`` dumps them once the
command has finished, and ``layer_metrics`` derives the per-layer figures.

The scalars layer is traced by counting Gaussian-rational constructions
only: its functions run once per matrix entry, and a span each would cost
more than the work.  numpy's SVD gets a span of its own (``linalg.svd``),
since the float path of ``linalg`` spends its time there.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("operators", "decomposition", "commutant", "linalg", "matrices",
          "lattice", "cli")
DENSE_OPERATORS = ("__matmul__", "__add__", "__sub__", "__neg__", "__pow__")


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _rref_probe(counts, args, kwargs, result):
    rows = _arg(args, kwargs, 0, "rows")
    reduced, pivots = result
    counts["linalg.unknowns"] += _arg(args, kwargs, 1, "ncols")
    counts["linalg.equations"] += len(rows)
    counts["linalg.nnz_in"] += sum(len(row) for row in rows)
    counts["linalg.nnz_out"] += sum(len(row) for row in reduced)
    counts["linalg.pivots"] += len(pivots)


PROBES = {
    "linalg.rref": _rref_probe,
    "linalg.svd": lambda counts, args, kwargs, result: counts.update(
        {"linalg.svd_cells": _arg(args, kwargs, 0, "a").size}),
    "commutant.commutant_basis": lambda counts, args, kwargs, result: counts.update(
        {"commutant.basis_dim": result.dim}),
    "lattice.enumerate_lattice": lambda counts, args, kwargs, result: counts.update(
        {"lattice.masks_checked": result.counts.checked_masks}),
    "cli.write_output": lambda counts, args, kwargs, result: counts.update(
        {"cli.report_bytes": len(_arg(args, kwargs, 0, "data"))}),
}


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, str, int, int, int]] = []
        self.counts: Counter = Counter()
        self._ids = itertools.count()
        self._stack: list[int] = [-1]
        self._created = [0]

    def wrap(self, name, fn):
        spans, stack, ids, counts = self.spans, self._stack, self._ids, self.counts
        probe = PROBES.get(name)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, name, start, end, parent))
            if probe is not None:
                probe(counts, args, kwargs, result)
            return result

        return traced

    def install(self):
        """Wrap the layers of the imported hardyshift package in place."""
        import numpy

        import hardyshift  # noqa: F401  (imports every layer module)

        package = {n: m for n, m in sys.modules.items()
                   if n == "hardyshift" or n.startswith("hardyshift.")}
        wrappers = {}
        for layer in LAYERS:
            module = package[f"hardyshift.{layer}"]
            for attr, obj in vars(module).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == module.__name__
                        and not inspect.isgeneratorfunction(obj)):
                    wrappers[obj] = self.wrap(f"{layer}.{attr}", obj)
        for module in package.values():
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(module, attr, wrappers[obj])

        dense = package["hardyshift.matrices"].DenseMatrix
        for attr, obj in list(vars(dense).items()):
            if attr.startswith("_") and attr not in DENSE_OPERATORS:
                continue
            name = f"matrices.DenseMatrix.{attr}"
            if isinstance(obj, classmethod):
                setattr(dense, attr, classmethod(self.wrap(name, obj.__func__)))
            elif inspect.isfunction(obj) and not inspect.isgeneratorfunction(obj):
                setattr(dense, attr, self.wrap(name, obj))

        gaussian = package["hardyshift.scalars"].GaussianRational
        init, created = gaussian.__init__, self._created

        def counted_init(scalar, re=0, im=0):
            created[0] += 1
            init(scalar, re, im)

        gaussian.__init__ = counted_init
        numpy.linalg.svd = self.wrap("linalg.svd", numpy.linalg.svd)

    def write(self, path):
        names = sorted({s[1] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        with open(path, "w") as fh:
            json.dump({"fields": ["id", "name", "start_ns", "end_ns", "parent"],
                       "names": names,
                       "spans": [[sid, index[n], s, e, p]
                                 for sid, n, s, e, p in sorted(self.spans)]},
                      fh, separators=(",", ":"))

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, minus the time covered by child spans."""
        child = defaultdict(int)
        for _, _, start, end, parent in self.spans:
            child[parent] += end - start
        own = defaultdict(int)
        for sid, name, start, end, _ in self.spans:
            own[name] += end - start - child[sid]
        return {n: t / 1e9 for n, t in sorted(own.items(), key=lambda kv: -kv[1])}

    def layer_metrics(self) -> dict[str, float]:
        """The per-layer figures named in BENCHMARK.json, from spans and
        probe counts.  A layer that never ran reads 0."""
        names = {sid: name for sid, name, _, _, _ in self.spans}
        parents = {sid: parent for sid, _, _, _, parent in self.spans}

        def outermost(pred):
            """Seconds inside spans matching pred, nested matches counted once."""
            total = 0
            for sid, name, start, end, parent in self.spans:
                if not pred(name):
                    continue
                while parent != -1 and not pred(names[parent]):
                    parent = parents[parent]
                if parent == -1:
                    total += end - start
            return total / 1e9

        def calls(name):
            return sum(1 for s in self.spans if s[1] == name)

        def named(name):
            return lambda n: n == name

        def children_time(parent_names, child_names):
            total = 0
            for _, name, start, end, parent in self.spans:
                if name in child_names and names.get(parent) in parent_names:
                    total += end - start
            return total / 1e9

        enumerate_s = outermost(named("lattice.enumerate_lattice"))
        mask_check_s = enumerate_s - children_time(
            {"lattice.enumerate_lattice"},
            {"lattice.check_minimal", "commutant.selfadjoint_commutant_dim",
             "operators.power_symbol"})
        c = self.counts
        metrics = {
            "operators.build_s": outermost(lambda n: n.startswith("operators.")),
            "operators.build_calls": sum(1 for s in self.spans
                                         if s[1].startswith("operators.")),
            "decomposition.equivalence_s": outermost(named("decomposition.verify_equivalence")),
            "decomposition.intertwiner_calls": calls("decomposition.build_intertwiner"),
            "commutant.basis_s": outermost(named("commutant.commutant_basis")),
            "commutant.basis_dim": c["commutant.basis_dim"],
            "commutant.selfadjoint_s": outermost(named("commutant.selfadjoint_commutant_dim")),
            "commutant.selfadjoint_calls": calls("commutant.selfadjoint_commutant_dim"),
            # The CLI's Lemma-3 audit: the calls it makes itself, not through
            # another layer, to build X, X*, the products X* P X and the
            # block checks.
            "commutant.lemma3_audit_s": children_time(
                {"cli.execute"},
                {"decomposition.build_intertwiner", "matrices.DenseMatrix.adjoint",
                 "matrices.DenseMatrix.__matmul__", "commutant.is_block_lower_toeplitz"}),
            "linalg.rref_s": outermost(named("linalg.rref")),
            "linalg.rref_calls": calls("linalg.rref"),
            "linalg.unknowns": c["linalg.unknowns"],
            "linalg.equations": c["linalg.equations"],
            "linalg.nnz_in": c["linalg.nnz_in"],
            "linalg.nnz_out": c["linalg.nnz_out"],
            "linalg.pivots": c["linalg.pivots"],
            "linalg.svd_s": outermost(named("linalg.svd")),
            "linalg.svd_cells": c["linalg.svd_cells"],
            "matrices.matmul_s": outermost(named("matrices.DenseMatrix.__matmul__")),
            "matrices.matmul_calls": calls("matrices.DenseMatrix.__matmul__"),
            "matrices.compare_s": outermost(named("matrices.matrices_close")),
            "scalars.exact_created": self._created[0],
            "lattice.enumerate_s": enumerate_s,
            "lattice.mask_check_s": mask_check_s,
            "lattice.masks_checked": c["lattice.masks_checked"],
            "lattice.masks_per_s": (c["lattice.masks_checked"] / mask_check_s
                                    if mask_check_s > 0 else 0.0),
            "lattice.minimality_s": outermost(named("lattice.check_minimal")),
            "lattice.closure_s": outermost(named("lattice.lattice_closure_check")),
            "cli.execute_s": outermost(named("cli.execute")),
            "cli.emit_s": outermost(named("cli.emit_report")),
            "cli.write_s": outermost(named("cli.write_output")),
            "cli.report_bytes": c["cli.report_bytes"],
        }
        return metrics
