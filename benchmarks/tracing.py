"""Span recording around the package's public functions, for traced runs only.

:class:`Tracer` replaces each listed function by a wrapper in every module of
the package that bound the name (``identify``, ``estimate``, ``sem``,
``simulate``, ``cli`` and the package ``__init__`` import names at load time,
and ``graph`` calls its own functions through its globals).  While an
operation is open, each call records a span ``[op_id, span_id, parent_id,
name, start_ns, end_ns]`` in memory.  It also counts calls into the dense
linear-algebra routines of ``numpy.linalg``.  ``uninstall`` restores every
original binding, so untraced passes run the unmodified program.
"""

from __future__ import annotations

import functools
import importlib
import json
from time import perf_counter_ns

import numpy as np

LAYERS = {
    "graph": ["graph_from_dict", "load_graph", "rule_violations", "meek_closure",
              "cpdag_from_dag", "construct_mpdag", "bucket_decomposition",
              "possible_descendants", "exists_proper_possibly_causal_undirected_start",
              "ancestors_in_subgraph"],
    "identify": ["build_plan", "is_identified"],
    "estimate": ["sample_covariance", "g_regression", "gbar_regression",
                 "effect_from_lambda", "effect_gradients", "delta_method_acov",
                 "efficiency_bound", "adjustment_estimate", "bootstrap_ci",
                 "estimate_total_effect"],
    "sem": ["random_dag", "random_sem", "sample", "true_effect_blockform"],
    "simulate": ["run_simulation"],
    "cli": ["main"],
}
SPAN_NAMES = [f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns]
LINALG = ["cholesky", "eigvalsh", "solve", "inv"]
PACKAGE_MODULES = ["causaleffects"] + [f"causaleffects.{m}" for m in LAYERS]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.linalg_calls = 0
        self._stack: list[int] = []
        self._op: int | None = None
        self._patches: list[tuple[object, str, object]] = []

    # -- operations ------------------------------------------------------

    def begin(self, op_id: int) -> None:
        self._op = op_id

    def end(self) -> None:
        self._op = None

    # -- patching --------------------------------------------------------

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._op is None:
                return fn(*args, **kwargs)
            rec = [self._op, len(spans), stack[-1] if stack else None, name, 0, 0]
            spans.append(rec)
            stack.append(rec[1])
            rec[4] = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[5] = perf_counter_ns()
                stack.pop()

        return wrapper

    def _count(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._op is not None:
                self.linalg_calls += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        modules = [importlib.import_module(m) for m in PACKAGE_MODULES]
        for mod_name, fns in LAYERS.items():
            home = importlib.import_module(f"causaleffects.{mod_name}")
            for fn_name in fns:
                orig = getattr(home, fn_name)
                wrapper = self._wrap(f"{mod_name}.{fn_name}", orig)
                for m in modules:
                    for attr, val in list(vars(m).items()):
                        if val is orig:
                            self._patches.append((m, attr, orig))
                            setattr(m, attr, wrapper)
        for fn_name in LINALG:
            orig = getattr(np.linalg, fn_name)
            self._patches.append((np.linalg, fn_name, orig))
            setattr(np.linalg, fn_name, self._count(orig))

    def uninstall(self) -> None:
        for m, attr, orig in reversed(self._patches):
            setattr(m, attr, orig)
        self._patches.clear()

    # -- results ---------------------------------------------------------

    def layer_totals(self) -> dict[str, tuple[int, int]]:
        """``name -> (calls, self_ns)``; self time is a span's duration minus
        the durations of its direct children (spans nest, one thread)."""
        child_ns = [0] * len(self.spans)
        for _, _, parent, _, t0, t1 in self.spans:
            if parent is not None:
                child_ns[parent] += t1 - t0
        totals = {name: [0, 0] for name in SPAN_NAMES}
        for (_, sid, _, name, t0, t1) in self.spans:
            totals[name][0] += 1
            totals[name][1] += t1 - t0 - child_ns[sid]
        return {k: (v[0], v[1]) for k, v in totals.items()}

    def write(self, path: str, header: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fields = ["op_id", "span_id", "parent_id", "name", "start_ns", "end_ns"]
            fh.write(json.dumps(dict(header, span_fields=fields), sort_keys=True) + "\n")
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")
