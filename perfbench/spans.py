"""In-memory spans around the public functions of each ``foon`` layer.

``Tracer.install`` replaces, in ``foon`` and in the modules that call them
(``foon.cli``, ``foon.evaluate``), the public functions below with wrappers
that record one span per call: name, start, end, parent span and the
operation it belongs to.  Spans stay in ``Tracer.spans`` until the caller
writes them out at the end.  ``src/foon`` itself is not changed;
``uninstall`` restores the originals.

A span's self time is its duration minus the durations of its child spans
(calls are nested and single-threaded, so children never overlap).
"""

from __future__ import annotations

import importlib
import statistics
import time

# function name -> span name; patched wherever a module holds the name
WRAPPED = {
    "parse_foon": "io.parse_foon",
    "parse_kitchen": "io.parse_kitchen",
    "parse_goal": "io.parse_goal",
    "parse_motion_profile": "io.parse_motion_profile",
    "serialize_foon": "io.serialize_foon",
    "export_dot": "io.export_dot",
    "build_graph": "graph.build_graph",
    "retrieve": "search.retrieve",
    "tree_metrics": "evaluate.tree_metrics",
    "compare_algorithms": "evaluate.compare_algorithms",
    "main": "cli.main",
}
MODULES = ("foon", "foon.cli", "foon.evaluate")
ALGORITHM_KEYS = {"ids": "ids", "gbfs-success": "gbfs_success", "gbfs-inputs": "gbfs_inputs"}


class Tracer:
    """Records spans while installed; ``op`` tags spans with an operation id."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.stack: list[int] = []
        self.op: object = None
        self.originals: list[tuple[object, str, object]] = []

    def _wrap(self, span_name: str, function):
        def traced(*args, **kwargs):
            span = {
                "name": span_name,
                "parent": self.stack[-1] if self.stack else None,
                "op": self.op,
            }
            if span_name == "io.parse_foon":
                span["bytes"] = len(args[0])
            elif span_name == "search.retrieve":
                span["algorithm"] = args[3].algorithm
            index = len(self.spans)
            self.spans.append(span)
            self.stack.append(index)
            span["start"] = time.perf_counter()
            try:
                result = function(*args, **kwargs)
            except BaseException as error:
                span["end"] = time.perf_counter()
                stats = getattr(error, "stats", None)
                span["outcome"] = "not-found" if stats is not None else "error"
                if stats is not None:
                    span["expanded"] = stats.expanded_units
                    span["peak_open"] = stats.peak_open_set
                raise
            else:
                span["end"] = time.perf_counter()
                if span_name == "search.retrieve":
                    tree, stats = result
                    span.update(outcome="found", steps=len(tree.steps),
                                expanded=stats.expanded_units,
                                peak_open=stats.peak_open_set)
                elif span_name == "graph.build_graph":
                    span.update(units=len(result.units),
                                duplicates=result.duplicates_dropped)
                return result
            finally:
                self.stack.pop()

        return traced

    def install(self) -> None:
        for module_name in MODULES:
            module = importlib.import_module(module_name)
            for attr, span_name in WRAPPED.items():
                original = getattr(module, attr, None)
                if callable(original):
                    self.originals.append((module, attr, original))
                    setattr(module, attr, self._wrap(span_name, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self.originals):
            setattr(module, attr, original)
        self.originals.clear()


def self_times(spans: list[dict]) -> list[float]:
    """Per span, its duration minus its children's durations, in ms."""
    own = [(s["end"] - s["start"]) * 1000.0 for s in spans]
    for span in spans:
        parent = span["parent"]
        if parent is not None:
            own[parent] -= (span["end"] - span["start"]) * 1000.0
    return own


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=10)[-1]


def layer_metrics(spans: list[dict], first_pass: set) -> dict[str, float]:
    """Per-layer metrics from the spans of one traced run.

    Times are medians of self times over calls, in ms, except
    ``io.parse_inputs_ms``, which sums the kitchen, goal and motion parses of
    each operation before taking the median.  ``search.*`` times cover the
    workload's own operations (ops not tagged ``probe/...``); its counts
    cover only ``first_pass``, a fixed list of operations, so they repeat
    exactly from run to run.
    """
    own = self_times(spans)
    by_name: dict[str, list[float]] = {}
    inputs_per_op: dict[object, float] = {}
    for span, ms in zip(spans, own):
        by_name.setdefault(span["name"], []).append(ms)
        if span["name"] in ("io.parse_kitchen", "io.parse_goal", "io.parse_motion_profile"):
            inputs_per_op[span["op"]] = inputs_per_op.get(span["op"], 0.0) + ms
    parses = [s for s in spans if s["name"] == "io.parse_foon"]
    parse_ms = [(s["end"] - s["start"]) * 1000.0 for s in parses]
    builds = [s for s in spans if s["name"] == "graph.build_graph"]
    metrics = {
        "io.parse_foon_ms": _median(parse_ms),
        "io.parse_foon_mb_per_s": _median(
            [s["bytes"] / 1e6 / max(s["end"] - s["start"], 1e-9) for s in parses]
        ),
        "io.parse_inputs_ms": _median(list(inputs_per_op.values())),
        "io.serialize_foon_ms": _median(by_name.get("io.serialize_foon", [])),
        "io.export_dot_ms": _median(by_name.get("io.export_dot", [])),
        "graph.build_graph_ms": _median(by_name.get("graph.build_graph", [])),
        "graph.units": builds[0]["units"] if builds else 0,
        "graph.duplicates_dropped": builds[0]["duplicates"] if builds else 0,
        "evaluate.tree_metrics_ms": _median(by_name.get("evaluate.tree_metrics", [])),
        "evaluate.compare_algorithms_ms": _median(
            by_name.get("evaluate.compare_algorithms", [])
        ),
        "cli.main_self_ms": _median(by_name.get("cli.main", [])),
    }
    for algorithm, key in ALGORITHM_KEYS.items():
        calls = [
            (s, ms)
            for s, ms in zip(spans, own)
            if s["name"] == "search.retrieve"
            and s["algorithm"] == algorithm
            and not s["op"].startswith("probe")
        ]
        times = [ms for _, ms in calls]
        runs = [s for s, _ in calls if s["op"] in first_pass]
        found = [s for s in runs if s.get("outcome") == "found"]
        found_expanded = sum(s["expanded"] for s in found)
        metrics[f"search.{key}.p50_ms"] = _median(times)
        metrics[f"search.{key}.p90_ms"] = _p90(times)
        metrics[f"search.{key}.expanded_units"] = sum(s.get("expanded", 0) for s in runs)
        metrics[f"search.{key}.useful_ratio"] = (
            sum(s["steps"] for s in found) / found_expanded if found_expanded else 0.0
        )
        metrics[f"search.{key}.peak_open_set"] = max(
            (s.get("peak_open", 0) for s in runs), default=0
        )
        metrics[f"search.{key}.errors"] = sum(
            1 for s in runs if s.get("outcome") == "error"
        )
    return metrics
