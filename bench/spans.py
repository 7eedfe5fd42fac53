"""Spans around misact's public calls, recorded from outside the program.

`installed(tracer)` replaces each public function in the namespaces that
call it (the CLI module and the library modules that call each other)
with a wrapper that records a span: name, start, end, parent span and op
id.  Spans stay in memory; counts that need the call's arguments or
result are taken after the op has finished, so their cost does not land
in any span.  A layer's self time is its spans' duration minus the part
covered by their child spans.
"""

from __future__ import annotations

import importlib
from contextlib import contextmanager
from time import perf_counter

# (module, function, span name, opaque).  Nothing is recorded inside an
# opaque span: search_labelling runs thousands of tiny trials through the
# same public functions and is measured as one span per call.
HOOKS = [
    ("cli", "parse_edge_list", "io.parse", False),
    ("cli", "cover_report", "io.report", False),
    ("cli", "verdict_report", "io.report", False),
    ("cli", "to_json", "io.report", False),
    ("cli", "search_labelling", "activities.search", True),
    ("cli", "activity_polynomial", "activities.polynomial", False),
    ("cli", "find_complete", "complete.sets", False),
    ("cli", "externally_complete", "complete.sets", False),
    ("cli", "enumerate_internally_complete", "complete.sets", False),
    ("cli", "partition_obstructions", "complete.sets", False),
    ("cli", "pruned_instance", "pruned.instance", False),
    ("cli", "pruned_partition", "pruned.partition", False),
    ("cli", "verify_all", "verify.all", False),
] + [
    (mod, "cover", "activities.cover", False)
    for mod in ("cli", "activities", "complete", "verify", "pruned")
] + [
    (mod, "partition_verdict", "activities.verdict", False)
    for mod in ("cli", "complete", "verify", "pruned")
] + [
    (mod, "enumerate_maximal_independent_sets", "graph.enum", False)
    for mod in ("activities", "complete", "verify")
]

OP_SPAN = "cli.op"
COUNTED = ("graph.enum", "activities.verdict", "activities.search", "verify.all")
DEFAULT_ORACLE_BOUND = 25  # misact's default for partition_verdict and verify_all


class Tracer:
    """Spans in memory: [name, start, end, parent index or -1, op id]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.calls: list[tuple[str, tuple, dict, object]] = []  # awaiting count_calls
        self.counts = {"graph.mis_count": 0, "activities.scan_cells": 0,
                       "activities.scan_useful": 0, "activities.search_trials": 0,
                       "verify.subsets": 0}
        self._stack: list[int] = []
        self._opaque = 0
        self.op_id = -1

    def wrap(self, name: str, fn, opaque: bool):
        def traced(*args, **kwargs):
            if self._opaque:
                return fn(*args, **kwargs)
            index = len(self.spans)
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op_id]
            self.spans.append(span)
            self._stack.append(index)
            self._opaque += opaque
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                self._opaque -= opaque
                self._stack.pop()
            if name in COUNTED:
                self.calls.append((name, args, kwargs, result))
            return result

        return traced

    def run_op(self, op_id: int, fn, *args):
        """Call fn(*args) as the root span of op `op_id`."""
        self.op_id = op_id
        return self.wrap(OP_SPAN, fn, False)(*args)

    def count_calls(self) -> None:
        """Turn the calls recorded since the last time into counts."""
        c = self.counts
        for name, args, kwargs, result in self.calls:
            if name == "graph.enum":
                c["graph.mis_count"] += len(result)
            elif name == "activities.search":
                c["activities.search_trials"] += result.trials
            elif name == "activities.verdict":
                cover = args[0]
                if cover.n <= kwargs.get("oracle_bound", DEFAULT_ORACLE_BOUND):
                    c["activities.scan_cells"] += sum(e.interval.size() for e in cover.entries)
                    c["activities.scan_useful"] += 1 << cover.n
            elif args[0].n <= kwargs.get("oracle_bound", DEFAULT_ORACLE_BOUND):
                c["verify.subsets"] += 1 << args[0].n  # verify.all
        self.calls.clear()

    def self_times(self) -> dict[str, float]:
        """Total self time per span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = {}
        for (name, start, end, _, _), inner in zip(self.spans, child):
            out[name] = out.get(name, 0.0) + (end - start - inner)
        return out


@contextmanager
def installed(tracer: Tracer):
    """Patch every hook for the duration of the block, then restore."""
    saved = []
    try:
        for mod_name, attr, name, opaque in HOOKS:
            mod = importlib.import_module("misact." + mod_name)
            saved.append((mod, attr, getattr(mod, attr)))
            setattr(mod, attr, tracer.wrap(name, getattr(mod, attr), opaque))
        yield tracer
    finally:
        for mod, attr, fn in reversed(saved):
            setattr(mod, attr, fn)
