"""In-memory span tracing of qquench's layers, installed from outside the package.

A layer is one module of the package. Every public function of a layer is
wrapped in a span, and the wrapper is put where callers look the name up:

- a by-name import (``from .quench import scan`` in ``fidelity``, the
  re-exports in ``qquench/__init__``) is rebound to the wrapper;
- a module imported by name (``from . import rng`` in ``quench``, the
  ``qquench.rng`` package attribute) is rebound to a view whose public
  functions are the wrappers and whose other attributes are the module's.

Calls inside a module go through its own globals, which stay untouched, so
a span marks a call that crosses a layer boundary and intra-layer helpers
(``rng.mix64`` under ``rng.stream_key``) cost nothing extra. ``uninstall``
puts every original back. The exception is ``INTRA_LAYER``: public functions
that a per-layer metric needs even when their own module calls them.

Spans are (name, parent span, op id, start, end); they stay in memory until
``save`` writes them out. Self time is a span's duration minus that of its
direct children.
"""

from __future__ import annotations

import inspect
import os
import sys
import time
from array import array

import numpy as np

LAYERS = ("states", "rng", "_kernels", "quench", "reconstruct", "fidelity", "io", "cli")

# depth_sweep scores each seed through fidelity's own global score_reconstruction.
INTRA_LAYER = {"fidelity.score_reconstruction"}


def layer_label(module_name: str) -> str:
    """Metric prefix of a layer: ``qquench._kernels`` -> ``kernels``."""
    return module_name.rsplit(".", 1)[-1].lstrip("_")


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


# Counters taken at the boundary, from a call's arguments and result.

def _count_keys(counts, args, kwargs, result):
    thetas = _arg(args, kwargs, 2, "thetas")
    counts["rng.keys"] += _arg(args, kwargs, 1, "n_bins") * len(thetas)


def _count_draws(counts, args, kwargs, result):
    pr_true = _arg(args, kwargs, 0, "pr_true")
    sigma_abs = _arg(args, kwargs, 1, "sigma_abs")
    trials = _arg(args, kwargs, 2, "trials")
    if sigma_abs == 0.0:
        return
    counts["kernels.draws"] += pr_true.size * trials
    # The (N, D, trials) temporaries of the numpy kernel are blocked at 4096
    # trials; this is the size of one block, computed rather than measured.
    block = pr_true.size * min(trials, 4096) * 8
    counts["kernels.block_bytes"] = max(counts["kernels.block_bytes"], block)


def _count_cells(counts, args, kwargs, result):
    counts["quench.cells"] += result.grid.size * len(result.depths)


def _count_bins(counts, args, kwargs, result):
    counts["reconstruct.bins"] += result.grid.size
    counts["reconstruct.bins_ok"] += int(np.count_nonzero(result.branch_ok))


def _count_written(counts, args, kwargs, result):
    counts["io.bytes_written"] += os.path.getsize(_arg(args, kwargs, 0, "path"))


def _count_read(counts, args, kwargs, result):
    counts["io.bytes_read"] += os.path.getsize(_arg(args, kwargs, 0, "path"))


HOOKS = {
    "rng.key_matrix": _count_keys,
    "kernels.noisy_mean_matrix": _count_draws,
    "quench.scan": _count_cells,
    "reconstruct.reconstruct_wavefunction": _count_bins,
}

COUNTERS = ("rng.keys", "kernels.draws", "kernels.block_bytes", "quench.cells",
            "reconstruct.bins", "reconstruct.bins_ok", "io.bytes_written",
            "io.bytes_read")


class _ModuleView:
    """Stand-in for a module: wrapped public functions, everything else delegated."""

    def __init__(self, module, wrapped):
        vars(self).update(wrapped)
        vars(self)["__view_of__"] = module

    def __getattr__(self, name):
        return getattr(vars(self)["__view_of__"], name)


class Tracer:
    """Records spans for the public functions of every layer of ``package``."""

    def __init__(self, package):
        self.package = package
        self.modules = [sys.modules[f"{package.__name__}.{name}"] for name in LAYERS]
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.span_name = array("l")
        self.span_parent = array("l")
        self.span_op = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.current = -1
        self.op = -1
        self.counts = dict.fromkeys(COUNTERS, 0)
        self._saved: list[tuple[object, str, object]] = []
        self._rebinds = self._plan()

    # -- spans -------------------------------------------------------------

    def _wrap(self, fn, name):
        name_id = self.name_ids[name] = len(self.names)
        self.names.append(name)
        hook = HOOKS.get(name)
        if name.startswith("io.save_"):
            hook = _count_written
        elif name.startswith("io.load_"):
            hook = _count_read
        clock = time.perf_counter
        names, parents, ops = self.span_name, self.span_parent, self.span_op
        starts, ends = self.span_start, self.span_end

        def wrapper(*args, **kwargs):
            idx = len(names)
            parent = self.current
            names.append(name_id)
            parents.append(parent)
            ops.append(self.op)
            ends.append(0.0)
            self.current = idx
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                self.current = parent
            if hook is not None:
                hook(self.counts, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- install / uninstall -----------------------------------------------

    def _plan(self):
        """Every (namespace, name, replacement) that install() rebinds."""
        wrappers = {}   # id(original function) -> wrapper
        views = {}      # id(module) -> view of it
        for module in self.modules:
            label = layer_label(module.__name__)
            wrapped = {}
            for attr, value in vars(module).items():
                if (not attr.startswith("_") and inspect.isfunction(value)
                        and value.__module__ == module.__name__):
                    wrapped[attr] = self._wrap(value, f"{label}.{attr}")
                    wrappers[id(value)] = wrapped[attr]
            views[id(module)] = _ModuleView(module, wrapped)
        plan = []
        for namespace in (self.package, *self.modules):
            for attr, value in vars(namespace).items():
                if id(value) in views and value is not namespace:
                    plan.append((namespace, attr, views[id(value)]))
                elif id(value) in wrappers and (
                        value.__module__ != namespace.__name__
                        or f"{layer_label(namespace.__name__)}.{attr}" in INTRA_LAYER):
                    plan.append((namespace, attr, wrappers[id(value)]))
        return plan

    def install(self):
        for namespace, attr, replacement in self._rebinds:
            self._saved.append((namespace, attr, getattr(namespace, attr)))
            setattr(namespace, attr, replacement)

    def uninstall(self):
        while self._saved:
            namespace, attr, original = self._saved.pop()
            setattr(namespace, attr, original)

    # -- results -----------------------------------------------------------

    def spans(self):
        """Spans as numpy arrays: name index, parent index, op id, start, end."""
        return (np.asarray(self.span_name, dtype=np.int64),
                np.asarray(self.span_parent, dtype=np.int64),
                np.asarray(self.span_op, dtype=np.int64),
                np.asarray(self.span_start, dtype=np.float64),
                np.asarray(self.span_end, dtype=np.float64))

    def totals(self, ops=None):
        """Per span name: calls, inclusive seconds and self seconds.

        ``ops`` restricts the sum to spans recorded under those op ids.
        """
        name, parent, op, start, end = self.spans()
        duration = end - start
        child_time = np.zeros(len(duration))
        has_parent = parent >= 0
        np.add.at(child_time, parent[has_parent], duration[has_parent])
        keep = np.ones(len(duration), dtype=bool) if ops is None else np.isin(op, list(ops))
        out = {}
        for i, label in enumerate(self.names):
            sel = keep & (name == i)
            out[label] = (int(sel.sum()), float(duration[sel].sum()),
                          float((duration[sel] - child_time[sel]).sum()))
        return out

    def save(self, path):
        name, parent, op, start, end = self.spans()
        np.savez_compressed(path, names=np.array(self.names), name=name,
                            parent=parent, op=op, start=start, end=end)

