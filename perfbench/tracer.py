"""Outside-in layer tracer for the search benchmark.

The tracer times calls into each layer's public functions by wrapping them
from outside the program: nothing under ``src/`` is edited.  Every wrapped
call is a span; a timer's *self time* is its span minus the wrapped child
spans inside it, so self times add up without double counting.

Three rules keep the numbers honest:

* A function is patched at its defining module **and** at every ``repro``
  module that bound it by name at import time (``repro.engine.core``
  imports ``ntk_grams``, ``count_line_regions`` and ``supernet_*`` this
  way), and methods are patched on their class.  Lazy ``from ... import``
  statements read the patched module attribute at call time.
* Recursive entry points are timed at their outermost call only: a call
  whose timer family is already open passes straight through.
  ``Module.__call__`` recurses through every submodule, and its outermost
  call is split by the kernel that made it (``nn.forward.ntk`` or
  ``nn.forward.lr``).
* Forked pool workers inherit the wrappers but never run ``atexit``.  A
  worker therefore starts from empty totals (``os.register_at_fork``) and
  rewrites its cumulative totals to ``worker-<pid>.json`` in the flush
  directory each time its span stack empties, i.e. at least once per chunk.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time

#: (timer family, module, attribute path).  One family may cover several
#: functions; the family is the timer's name except for ``nn.forward``.
TARGETS = (
    ("hardware.lut_build", "repro.hardware.latency", "LatencyEstimator.__init__"),
    ("hardware.latency", "repro.hardware.latency", "LatencyEstimator.estimate_ms"),
    ("runtime.store_load", "repro.runtime.store", "RuntimeStore.load_cache_into"),
    ("runtime.store_save", "repro.runtime.store", "RuntimeStore.save_cache"),
    ("nn.forward", "repro.nn.module", "Module.__call__"),
    ("autograd.backward", "repro.autograd.tensor", "Tensor.backward"),
    ("engine.jacobian", "repro.engine.kernels", "batched_ntk_jacobian"),
    ("engine.line_patterns", "repro.engine.kernels", "batched_line_patterns"),
    ("engine.eigensolve", "repro.engine.kernels", "batched_condition_numbers"),
    ("engine.evaluate_population", "repro.engine.core", "Engine.evaluate_population"),
    ("engine.cost", "repro.engine.core", "Engine.cost"),
    ("proxies.gram", "repro.proxies.ntk", "compute_ntk_gram"),
    ("proxies.ntk", "repro.proxies.ntk", "ntk_condition_number"),
    ("proxies.ntk", "repro.proxies.ntk", "ntk_grams"),
    ("proxies.ntk", "repro.proxies.ntk", "supernet_ntk_condition_number"),
    ("proxies.line_regions", "repro.proxies.linear_regions", "count_line_regions"),
    ("proxies.line_regions", "repro.proxies.linear_regions", "supernet_line_regions"),
    ("searchspace.build_network", "repro.searchspace.network", "build_network"),
    ("searchspace.build_supernet", "repro.searchspace.network", "build_supernet"),
    ("searchspace.canonicalize", "repro.searchspace.canonical", "canonicalize"),
    ("searchspace.sample", "repro.searchspace.space", "NasBench201Space.sample"),
    ("search.pareto_sort", "repro.search.pareto", "non_dominated_sort"),
    ("search.crowding", "repro.search.pareto", "crowding_distance"),
    ("search.rank", "repro.search.objective", "HybridObjective.combined_ranks"),
    ("search.expected_cost", "repro.search.objective", "HybridObjective.expected_latency_ms"),
    ("search.expected_cost", "repro.search.objective", "HybridObjective.expected_flops"),
)

#: Executor hooks timed as ``runtime.dispatch`` (parent-side fan-out and
#: gather; with a pool, its self time is the wait on workers).
DISPATCH_METHODS = ("warm_population", "warm_supernets")

#: Line-region layers: an outermost forward under one of these is
#: ``nn.forward.lr``, any other is ``nn.forward.ntk``.
_LR_FAMILIES = ("engine.line_patterns", "proxies.line_regions")

#: Every timer name the tracer can report, in table order.
TIMER_NAMES = (
    "hardware.lut_build", "runtime.store_load",
    "nn.forward.ntk", "nn.forward.lr", "autograd.backward",
    "engine.jacobian", "engine.line_patterns", "engine.eigensolve",
    "proxies.gram", "proxies.ntk", "proxies.line_regions",
    "searchspace.build_supernet", "searchspace.build_network",
    "searchspace.canonicalize", "searchspace.sample",
    "search.pareto_sort", "search.crowding", "search.rank",
    "search.expected_cost", "hardware.latency",
    "engine.evaluate_population", "engine.cost",
    "runtime.dispatch", "runtime.store_save",
)


class Tracer:
    """Span stack and per-timer totals ``{name: [self_s, calls, span_s]}``."""

    def __init__(self, flush_dir: str) -> None:
        self.flush_dir = flush_dir
        self.totals = {}
        self._stack = []      # one [child span seconds] per open span
        self._open = set()    # families with an open frame
        self._main_pid = os.getpid()
        os.register_at_fork(after_in_child=self._reset_in_child)

    def _reset_in_child(self) -> None:
        self._stack.clear()
        self._open.clear()
        self.totals.clear()

    def _flush(self) -> None:
        path = os.path.join(self.flush_dir, f"worker-{os.getpid()}.json")
        with open(path + ".tmp", "w", encoding="utf-8") as fh:
            json.dump(self.totals, fh)
        os.replace(path + ".tmp", path)

    def wrap(self, family: str, fn):
        """``fn`` timed under ``family`` (outermost call only)."""
        stack, opened, totals = self._stack, self._open, self.totals
        clock = time.perf_counter

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            if family in opened:
                return fn(*args, **kwargs)
            name = family
            if family == "nn.forward":
                lr = any(f in opened for f in _LR_FAMILIES)
                name = "nn.forward.lr" if lr else "nn.forward.ntk"
            children = [0.0]
            stack.append(children)
            opened.add(family)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span = clock() - start
                stack.pop()
                opened.discard(family)
                entry = totals.setdefault(name, [0.0, 0, 0.0])
                entry[0] += span - children[0]
                entry[1] += 1
                entry[2] += span
                if stack:
                    stack[-1][0] += span
                elif os.getpid() != self._main_pid:
                    self._flush()

        return timed

    def install(self) -> None:
        """Patch every target at its home and at each by-name binding."""
        for family, module_name, path in TARGETS:
            module = importlib.import_module(module_name)
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(module, cls_name)
                setattr(cls, attr, self.wrap(family, cls.__dict__[attr]))
                continue
            original = getattr(module, path)
            wrapped = self.wrap(family, original)
            for name, mod in list(sys.modules.items()):
                if name.startswith("repro") and mod is not None:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapped)

    def watch_executor(self, executor) -> None:
        """Time the executor's dispatch hooks as ``runtime.dispatch``."""
        for attr in DISPATCH_METHODS:
            method = getattr(executor, attr, None)
            if method is not None:
                setattr(executor, attr, self.wrap("runtime.dispatch", method))

    def snapshot(self) -> dict:
        return {name: list(entry) for name, entry in self.totals.items()}

    def worker_totals(self) -> dict:
        """Summed totals every forked worker flushed."""
        merged = {}
        for entry in sorted(os.listdir(self.flush_dir)):
            if not (entry.startswith("worker-") and entry.endswith(".json")):
                continue
            with open(os.path.join(self.flush_dir, entry), encoding="utf-8") as fh:
                for name, (self_s, calls, span_s) in json.load(fh).items():
                    acc = merged.setdefault(name, [0.0, 0, 0.0])
                    acc[0] += self_s
                    acc[1] += calls
                    acc[2] += span_s
        return merged
