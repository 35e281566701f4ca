"""Spans around the public functions of each twistzeta module.

``Recorder.install`` replaces every listed function with a timing wrapper,
in its home module and in every twistzeta module that imported it by
name, so calls between modules are seen too.  Spans stay in memory as
(function, parent span, start, end, work count) and are written to one
``.npz`` file when the pass ends.  ``summarize`` turns such a file into
per-function calls, self time and work counts, where a span's self time
is its duration minus the durations of its child spans.

Window sums in ``damp-sweep`` run through ``traces._heat_partial_sum``,
a private function, so their time counts under
``damp.free_group_summability.self_s``.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array

import numpy as np

# Traced functions, each with the name and the measure of its work count;
# a measure maps (positional arguments, keyword arguments, result) to an
# integer.
TARGETS = {
    "words.vertex_from_group_word": None,
    "words.enumerate_admissible": ("items", lambda args, kwargs, result: len(result)),
    "ckalg.act_on_vertex": ("image_terms", lambda args, kwargs, result: len(result)),
    "ckalg.diagonal_dichotomy": None,
    "cochain.compressed_kernel_dimension": None,
    "cochain.cochain_word_trace": None,
    "traces.closed_form_heat_trace": None,
    "traces.closed_form_toeplitz_trace": None,
    "traces.poles_and_laurent": None,
    "traces.brute_force_heat_trace": None,
    "damp.free_group_summability": None,
    "damp.summability_scan": None,
    "circle.moebius_unitary": None,
    "circle.represent": ("elements", lambda args, kwargs, result: result.size),
    "circle.mult_op": None,
    "circle.numerical_rank": (
        "elements",
        lambda args, kwargs, result: (args[0] if args else kwargs["matrix"]).size,
    ),
    "circle.toeplitz_index": None,
    "higher_order.order_sweep": None,
    "cli.run": None,
}

# Counts read from the span tree rather than from one call: the columns
# of a kernel-dimension window are its direct ``act_on_vertex`` children.
CHILD_COUNTS = {
    "cochain.compressed_kernel_dimension.columns": (
        "cochain.compressed_kernel_dimension",
        "ckalg.act_on_vertex",
    ),
}


def stat_names() -> list[str]:
    """Every per-function statistic ``summarize`` reports, in order."""
    names = []
    for target, work in TARGETS.items():
        names.append(f"{target}.calls")
        if work is not None:
            names.append(f"{target}.{work[0]}")
        names.extend(key for key in CHILD_COUNTS if key.startswith(target + "."))
        names.append(f"{target}.self_s")
    return names


class Recorder:
    """Wraps the targets and keeps their spans until ``write``."""

    def __init__(self) -> None:
        self.names = list(TARGETS)
        self.function = array("q")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.work = array("q")
        self._open = [-1]
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, index: int, original, measure):
        function, parent, start, end, work = (
            self.function,
            self.parent,
            self.start,
            self.end,
            self.work,
        )
        stack = self._open
        clock = time.perf_counter_ns

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = len(start)
            function.append(index)
            parent.append(stack[-1])
            end.append(0)
            work.append(0)
            stack.append(span)
            start.append(clock())
            try:
                result = original(*args, **kwargs)
            finally:
                end[span] = clock()
                stack.pop()
            if measure is not None:
                work[span] = measure(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        modules = [
            module
            for name, module in sys.modules.items()
            if name == "twistzeta" or name.startswith("twistzeta.")
        ]
        for index, target in enumerate(self.names):
            home, attribute = target.split(".")
            original = getattr(importlib.import_module(f"twistzeta.{home}"), attribute, None)
            if original is None:
                continue  # a removed function is reported with no calls
            work = TARGETS[target]
            wrapper = self._wrap(index, original, None if work is None else work[1])
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, name, original))
                        setattr(module, name, wrapper)

    def uninstall(self) -> None:
        for module, name, original in reversed(self._patched):
            setattr(module, name, original)
        self._patched.clear()

    def write(self, path: str) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            function=np.frombuffer(self.function, dtype=np.int64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            start=np.frombuffer(self.start, dtype=np.int64),
            end=np.frombuffer(self.end, dtype=np.int64),
            work=np.frombuffer(self.work, dtype=np.int64),
        )


def summarize(path: str) -> dict[str, float]:
    """Per-function calls, work counts and self seconds of one span file."""
    with np.load(path) as spans:
        names = [str(name) for name in spans["names"]]
        function = spans["function"]
        parent = spans["parent"]
        duration = (spans["end"] - spans["start"]).astype(np.float64)
        work = spans["work"]
    nested = parent >= 0
    covered = np.bincount(parent[nested], weights=duration[nested], minlength=len(duration))
    own = duration - covered
    index = {name: position for position, name in enumerate(names)}
    stats: dict[str, float] = {}
    for name, position in index.items():
        mine = function == position
        stats[f"{name}.calls"] = int(np.count_nonzero(mine))
        if TARGETS.get(name) is not None:
            stats[f"{name}.{TARGETS[name][0]}"] = int(work[mine].sum())
        stats[f"{name}.self_s"] = float(own[mine].sum()) / 1e9
    for key, (outer, inner) in CHILD_COUNTS.items():
        children = nested & (function == index[inner])
        stats[key] = int(np.count_nonzero(function[parent[children]] == index[outer]))
    return stats
