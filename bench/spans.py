"""In-memory spans around coptree's public functions, for the traced runs.

The recorder wraps each layer's public function at every name it is looked
up under (``coptree.measures.column_ranks``, ``coptree.cli.load_dataset``,
...), so the program itself is unchanged.  Per-pair measure calls are only
counted, not spanned: a span per pair would cost more than the pair.

This module imports nothing heavy, so loading it in a traced CLI process
does not move the import timings.
"""
from __future__ import annotations

import contextlib
import functools
import sys
import time

# Layers in report order; a layer's self time is the time its spans cover
# minus the time their child spans cover.
LAYERS = (
    "cli.main",
    "cli.serialize",
    "dataset.load",
    "dataset.rank",
    "measures.weights",
    "measures.kde",
    "structure.tree",
    "structure.coverage",
)
COUNTERS = ("pair_calls", "rank_cols", "kde_evals")

_SPANNED = {
    ("coptree.cli", "main"): "cli.main",
    ("coptree.cli", "tree_as_dict"): "cli.serialize",
    ("coptree.cli", "tree_as_dot"): "cli.serialize",
    ("coptree.dataset", "load_dataset"): "dataset.load",
    ("coptree.dataset", "column_ranks"): "dataset.rank",
    ("coptree.measures", "weight_matrix"): "measures.weights",
    ("coptree.structure", "maximum_spanning_tree"): "structure.tree",
    ("coptree.structure", "coverage_ratio"): "structure.coverage",
}
_COUNTED = {
    ("coptree.measures", "spearman_rho"): "pair_calls",
    ("coptree.measures", "mutual_info_cell"): "pair_calls",
}


def _rank_cols(args, kwargs):
    values = args[0] if args else kwargs["values"]
    return values.shape[1] if getattr(values, "ndim", 0) == 2 else 0


def _kde_evals(args, kwargs):
    density, points = args[0], (args[1] if len(args) > 1 else kwargs["x"])
    return getattr(points, "size", 1) * density.samples.size


class _JsonProxy:
    """Stands in for ``coptree.cli.json`` so that ``json.dumps`` is spanned."""

    def __init__(self, module, dumps):
        self._module = module
        self.dumps = dumps

    def __getattr__(self, name):
        return getattr(self._module, name)


class Tracer:
    """Records spans as ``[layer, start, end, parent]`` and named counts."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts = dict.fromkeys(COUNTERS, 0)
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def begin(self, layer: str) -> None:
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        self.spans.append([layer, time.perf_counter(), None, parent])

    def end(self) -> None:
        self.spans[self._stack.pop()][2] = time.perf_counter()

    @contextlib.contextmanager
    def span(self, layer: str):
        self.begin(layer)
        try:
            yield
        finally:
            self.end()

    def _spanned(self, fn, layer, count=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if count is not None:
                self.counts[count[0]] += count[1](args, kwargs)
            self.begin(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end()

        return wrapper

    def _counted(self, fn, counter):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[counter] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, owner, name, replacement) -> None:
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, replacement)

    def install(self) -> None:
        """Wrap every coptree name bound to a traced function."""
        import json

        from coptree import measures

        wrappers = {}
        for (module, name), layer in _SPANNED.items():
            fn = getattr(sys.modules[module], name)
            count = ("rank_cols", _rank_cols) if name == "column_ranks" else None
            wrappers[id(fn)] = self._spanned(fn, layer, count)
        for (module, name), counter in _COUNTED.items():
            fn = getattr(sys.modules[module], name)
            wrappers[id(fn)] = self._counted(fn, counter)
        for module_name, module in list(sys.modules.items()):
            if module_name != "coptree" and not module_name.startswith("coptree."):
                continue
            for name, value in list(vars(module).items()):
                if id(value) in wrappers:
                    self._patch(module, name, wrappers[id(value)])
        kde = measures.KernelDensity
        fit = kde.__dict__["fit"].__func__
        self._patch(kde, "fit", classmethod(self._spanned(fit, "measures.kde")))
        density = self._spanned(kde.density, "measures.kde", ("kde_evals", _kde_evals))
        self._patch(kde, "density", density)
        cli = sys.modules["coptree.cli"]
        proxy = _JsonProxy(json, self._spanned(json.dumps, "cli.serialize"))
        self._patch(cli, "json", proxy)

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def summary(self, first: int = 0) -> dict:
        """Self time per layer and the counts, over spans from ``first`` on."""
        spans = self.spans[first:]
        self_s = dict.fromkeys(LAYERS, 0.0)
        for layer, start, end, _ in spans:
            self_s[layer] += end - start
        for _, start, end, parent in spans:
            if parent >= first:
                self_s[self.spans[parent][0]] -= end - start
        return {"self_s": self_s, "counts": dict(self.counts)}

    def reset_counts(self) -> None:
        self.counts = dict.fromkeys(COUNTERS, 0)
