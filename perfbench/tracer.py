"""Spans around calls into h2mul's layers, recorded from outside the package.

The tracer replaces selected functions of ``h2mul`` at run time with
wrappers that record a span (name, parent, start, end) per call, and
puts the originals back afterwards.  Modules bind their collaborators at
import (``from .dense import truncated_svd``), so every module of the
package that holds a reference to a target function gets the wrapper,
not only the module that defines it.

Spans live in memory; :meth:`Tracer.summary` turns them into per-root
totals of calls and self seconds (a span's duration minus the time its
child spans cover).  Roots are opened by the benchmark itself, one per
set-up, product or estimate.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

# Functions that get a span, by layer (module of h2mul).
SPANNED = {
    "problems": ["build_problem"],
    "trees": ["build_product_block_tree"],
    "h2": ["cluster_basis_product", "h2_matvec", "h2_matvec_adjoint"],
    "weights": ["basis_weights", "total_weights"],
    "induced": ["multiply", "compress_induced_row_basis",
                "compress_induced_col_basis", "assemble_product"],
    "coarsening": ["recompress", "coarsen", "build_coarse_row_basis",
                   "build_coarse_col_basis", "project_final"],
    "dense": ["truncated_svd", "qr_r", "full_householder_qr",
              "spectral_norm", "spectral_norms"],
}
# Functions that are only counted: match_column recurses once per node
# of a column tree, so a span per call would cost more than it tells.
COUNTED = {"coarsening": ["match_column"]}
# Set-up steps are timed as a whole: nothing below them gets a span, so
# their self time is the step's time and their kernels stay out of the
# per-product figures.
SEALED = {"problems.build_problem", "coarsening.recompress"}
# The column-basis functions run the row-basis one on the transpose; that
# inner call belongs to the column side, so it adds to the parent's self
# time.
FOLDED = {
    "coarsening.build_coarse_row_basis": "coarsening.build_coarse_col_basis",
    "induced.compress_induced_row_basis": "induced.compress_induced_col_basis",
}


def _elements(args) -> int:
    a = args[0]
    if isinstance(a, np.ndarray):
        return a.size
    if isinstance(a, (list, tuple)):
        return sum(np.size(m) for m in a)
    return int(np.size(a))


def _dense_info(name, args, out):
    """(input elements, retained rank, min(shape)) of one dense call."""
    elems = _elements(args)
    if name == "dense.truncated_svd":
        return elems, out.retained_rank, min(np.shape(args[0]))
    return elems, 0, 0


@dataclass
class Root:
    """Totals of one root span.

    ``layers`` maps a span key to [calls, self seconds, input elements,
    retained ranks, min(shape) sums]."""

    name: str
    seconds: float
    self_seconds: float
    layers: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)
    matrices: list = field(default_factory=list)


class Tracer:
    def __init__(self, package):
        self.package = package
        self.spans: list[list] = []   # [name, parent, t0, t1, info]
        self.stack: list[int] = []
        self.counts: dict[tuple[str, int], int] = {}
        self.matrices: dict[int, object] = {}
        self._patched: list[tuple[object, str, object]] = []
        self._wrappers: dict[int, object] = {}
        for layer, names in SPANNED.items():
            mod = sys.modules[f"{package.__name__}.{layer}"]
            for name in names:
                fn = getattr(mod, name)
                self._wrappers[id(fn)] = (fn, self._span_wrapper(
                    f"{layer}.{name}", fn))
        for layer, names in COUNTED.items():
            mod = sys.modules[f"{package.__name__}.{layer}"]
            for name in names:
                fn = getattr(mod, name)
                self._wrappers[id(fn)] = (fn, self._count_wrapper(
                    f"{layer}.{name}", fn))

    def _span_wrapper(self, key, fn):
        spans, stack = self.spans, self.stack
        fold = FOLDED.get(key)
        dense = key.startswith("dense.")
        matvec = key.startswith("h2.h2_matvec")
        matrices = self.matrices

        def wrapper(*args, **kwargs):
            if stack:
                top = spans[stack[-1]][0]
                if top in SEALED or top == fold:
                    return fn(*args, **kwargs)
            idx = len(spans)
            rec = [key, stack[-1] if stack else -1, 0.0, 0.0, None]
            spans.append(rec)
            stack.append(idx)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                rec[2], rec[3] = t0, t1
            if dense:
                rec[4] = _dense_info(key, args, out)
            elif matvec:
                matrices.setdefault(id(args[0]), args[0])
                rec[4] = id(args[0])
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_wrapper(self, key, fn):
        stack, counts = self.stack, self.counts

        def wrapper(*args, **kwargs):
            if stack:
                k = (key, stack[0])
                counts[k] = counts.get(k, 0) + 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        """Bind the wrappers wherever h2mul holds a target function."""
        prefix = self.package.__name__
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == prefix
                                   or mod_name.startswith(prefix + ".")):
                continue
            for attr, value in list(vars(mod).items()):
                hit = self._wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    self._patched.append((mod, attr, value))

    def uninstall(self):
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()

    @contextmanager
    def root(self, name):
        """A traced root span: wrappers installed for its duration."""
        if self.stack:
            raise RuntimeError("root spans do not nest")
        idx = len(self.spans)
        rec = [name, -1, 0.0, 0.0, None]
        self.spans.append(rec)
        self.install()
        self.stack.append(idx)
        rec[2] = perf_counter()
        try:
            yield
        finally:
            rec[3] = perf_counter()
            self.stack.pop()
            self.uninstall()

    def summary(self) -> list[Root]:
        """Per root span, in order: calls and self seconds per key."""
        n = len(self.spans)
        child = [0.0] * n
        root_of = [0] * n
        roots: dict[int, Root] = {}
        for i, (name, parent, t0, t1, _) in enumerate(self.spans):
            if parent < 0:
                root_of[i] = i
            else:
                root_of[i] = root_of[parent]
                child[parent] += t1 - t0
        for i, (name, parent, t0, t1, info) in enumerate(self.spans):
            own = (t1 - t0) - child[i]
            if parent < 0:
                roots[i] = Root(name, t1 - t0, own)
                continue
            r = roots[root_of[i]]
            acc = r.layers.setdefault(name, [0, 0.0, 0, 0, 0])
            acc[0] += 1
            acc[1] += own
            if isinstance(info, tuple):
                acc[2] += info[0]
                acc[3] += info[1]
                acc[4] += info[2]
            elif info is not None:
                r.matrices.append((name, self.matrices[info], t1 - t0))
        for (key, i), c in self.counts.items():
            roots[i].counts[key] = c
        return list(roots.values())
