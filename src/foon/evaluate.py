"""Tree quality metrics, an exhaustive enumeration oracle, and run reports.

``enumerate_all_task_trees`` is an independent re-statement of the retrieval
semantics in an immutable, enumerate-everything style.  It intentionally
shares no code with the imperative search engine so the two can check each
other: any tree a retrieval algorithm returns must appear in the oracle's
output, and the oracle's minimum chain depth is the floor for iterative
deepening.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass

from .errors import OracleCapExceededError
from .graph import (
    FoonGraph,
    FunctionalUnit,
    Kitchen,
    MotionProfile,
    ObjectNode,
    TaskTree,
)
from .search import (
    ALGORITHMS,
    RetrievalConfig,
    RetrievalStats,
    TaskTreeNotFound,
    retrieve,
)

ORACLE_CAP = 64  # the most units enumerate_all_task_trees accepts


@dataclass(frozen=True)
class TreeMetrics:
    """Aggregate quality numbers for one task tree.

    ``success_product`` multiplies the motion success rates of every step
    (the chance the whole tree executes, assuming independence) and
    ``success_min`` is the weakest single step; both are None when no motion
    profile was supplied, and exactly 1.0 for an empty tree.
    ``max_chain_depth`` is the longest dependency chain measured in units;
    ``leaf_count`` counts distinct input keys satisfied from outside the
    tree.
    """

    unit_count: int
    success_product: float | None
    success_min: float | None
    max_chain_depth: int
    leaf_count: int


def tree_metrics(
    tree: TaskTree,
    profile: MotionProfile | None = None,
    *,
    kitchen: Kitchen,
) -> TreeMetrics:
    """Compute TreeMetrics for a task tree retrieved from ``kitchen``.

    Kitchen-satisfied inputs count as depth-zero leaves exactly as the
    retrieval algorithms treat them, even if some step also produces the
    same key; any other input is a leaf when no earlier step produces it.
    Chain depths follow the cheapest available source for each key,
    matching the search's depth bookkeeping.  A motion missing from
    ``profile`` raises MissingMotionRateError unless the profile has a
    default rate.
    """
    product: float | None = None
    minimum: float | None = None
    if profile is not None:
        product = 1.0
        minimum = 1.0
        for step in tree.steps:
            rate = profile.rate_for(step.motion.label)
            product *= rate
            minimum = min(minimum, rate)
    produced: dict[str, int] = {}  # key -> shallowest earlier producer depth
    leaves: set[str] = set()
    deepest_chain = 0
    for step in tree.steps:
        deepest_input = 0
        for key in step.input_keys:
            if key in kitchen:
                leaves.add(key)
                contribution = 0
            elif key in produced:
                contribution = produced[key]
            else:
                leaves.add(key)
                contribution = 0
            deepest_input = max(deepest_input, contribution)
        depth = deepest_input + 1
        deepest_chain = max(deepest_chain, depth)
        for key in step.output_keys:
            previous = produced.get(key)
            produced[key] = depth if previous is None else min(previous, depth)
    return TreeMetrics(
        unit_count=len(tree.steps),
        success_product=product,
        success_min=minimum,
        max_chain_depth=deepest_chain,
        leaf_count=len(leaves),
    )


class _Partial:
    """Immutable snapshot of a partially enumerated tree (copy on write)."""

    __slots__ = ("steps", "resolved", "placed")

    def __init__(
        self,
        steps: tuple[FunctionalUnit, ...] = (),
        resolved: dict[str, int] | None = None,
        placed: dict[FunctionalUnit, int] | None = None,
    ):
        self.steps = steps
        self.resolved = {} if resolved is None else resolved
        self.placed = {} if placed is None else placed

    def reuse(self, key: str, chain: int) -> "_Partial":
        resolved = dict(self.resolved)
        resolved[key] = chain
        return _Partial(self.steps, resolved, self.placed)

    def place(self, key: str, unit: FunctionalUnit, chain: int) -> "_Partial":
        resolved = dict(self.resolved)
        resolved[key] = chain
        placed = dict(self.placed)
        placed[unit] = chain
        return _Partial(self.steps + (unit,), resolved, placed)


def enumerate_all_task_trees(
    graph: FoonGraph,
    goal: ObjectNode,
    kitchen: Kitchen,
) -> list[TaskTree]:
    """Every distinct task tree for the goal, by exhaustive backtracking.

    Follows the retrieval semantics: kitchen satisfaction is forced, each
    key resolves once per tree, placed units may serve their other outputs,
    and a key may not recur on its own resolution path.  The unit-chain
    depth is capped at the unit count, which no valid tree can exceed.
    Trees are deduplicated as unordered unit sets and returned sorted by
    size then content.  A kitchen-satisfied goal yields exactly one empty
    tree.  Enumeration is exponential, so graphs larger than ``ORACLE_CAP``
    units are refused.
    """
    cap = len(graph.units)
    if cap > ORACLE_CAP:
        raise OracleCapExceededError(f"universe has {cap} units, oracle cap is {ORACLE_CAP}")
    goal_key = goal.key
    producers = graph.producers

    def resolve_key(
        key: str, depth: int, partial: _Partial, path: frozenset[str]
    ) -> list[tuple[_Partial, int]]:
        if key in kitchen:
            return [(partial, 0)]
        if key in path:
            return []
        known = partial.resolved.get(key)
        if known is not None:
            return [(partial, known)] if depth + known <= cap else []
        if depth >= cap:
            return []
        outcomes: list[tuple[_Partial, int]] = []
        deeper_path = path | {key}
        for unit in producers.get(key, ()):
            chain = partial.placed.get(unit)
            if chain is not None:
                if depth + chain <= cap:
                    outcomes.append((partial.reuse(key, chain), chain))
                continue
            for candidate, below in resolve_inputs(
                unit.input_keys, depth + 1, partial, deeper_path
            ):
                outcomes.append((candidate.place(key, unit, below + 1), below + 1))
        return outcomes

    def resolve_inputs(
        keys: tuple[str, ...], depth: int, partial: _Partial, path: frozenset[str]
    ) -> list[tuple[_Partial, int]]:
        combos = [(partial, 0)]
        for key in keys:
            grown: list[tuple[_Partial, int]] = []
            for candidate, deepest in combos:
                for successor, chain in resolve_key(key, depth, candidate, path):
                    grown.append((successor, max(deepest, chain)))
            combos = grown
            if not combos:
                break
        return combos

    unique: dict[frozenset[FunctionalUnit], TaskTree] = {}
    for partial, _chain in resolve_key(goal_key, 0, _Partial(), frozenset()):
        identity = frozenset(partial.steps)
        if identity not in unique:
            unique[identity] = TaskTree(partial.steps, goal_key, "oracle")
    return sorted(unique.values(), key=lambda t: (len(t.steps), t.canonical_form()))


def run_entry(
    tree: TaskTree | None,
    stats: RetrievalStats,
    profile: MotionProfile | None,
    *,
    kitchen: Kitchen,
    wall_ms: float | None = None,
) -> dict:
    """One run's report: ``outcome``, ``metrics`` and ``stats``.

    ``tree`` is None for a not-found run, whose ``metrics`` is then None;
    ``wall_ms``, when given, is added rounded to 3 places.
    """
    entry = {
        "outcome": "not-found" if tree is None else "found",
        "metrics": None if tree is None else asdict(tree_metrics(tree, profile, kitchen=kitchen)),
        "stats": asdict(stats),
    }
    if wall_ms is not None:
        entry["wall_ms"] = round(wall_ms, 3)
    return entry


def compare_algorithms(
    graph: FoonGraph,
    goal: ObjectNode,
    kitchen: Kitchen,
    profile: MotionProfile,
    *,
    max_depth: int = 50,
    fixture: str = "",
    timings: bool = False,
) -> dict:
    """Run every retrieval algorithm on one problem: the report ``compare --json`` writes.

    ``{"goal", "fixture", "algorithms": {name: run_entry}}``; ``timings`` adds
    each retrieval's ``wall_ms``.  A TaskTreeNotFound is recorded as that
    algorithm's outcome; an unknown goal raises UnknownGoalError out of the
    first run, so all three algorithms reject it identically.
    """
    algorithms = {}
    for algorithm in ALGORITHMS:
        config = RetrievalConfig(algorithm=algorithm, max_depth=max_depth, motion_profile=profile)
        started = time.perf_counter()
        try:
            tree, stats = retrieve(graph, goal, kitchen, config)
        except TaskTreeNotFound as miss:
            tree, stats = None, miss.stats
        wall_ms = (time.perf_counter() - started) * 1000.0 if timings else None
        algorithms[algorithm] = run_entry(tree, stats, profile, kitchen=kitchen, wall_ms=wall_ms)
    return {"goal": goal.key, "fixture": fixture, "algorithms": algorithms}


# (label, section of a run entry or None for the entry itself, field)
_TABLE_ROWS = (
    ("outcome", None, "outcome"),
    ("functional units", "metrics", "unit_count"),
    ("success product", "metrics", "success_product"),
    ("success min", "metrics", "success_min"),
    ("max chain depth", "metrics", "max_chain_depth"),
    ("leaf count", "metrics", "leaf_count"),
    ("expanded units", "stats", "expanded_units"),
    ("peak open set", "stats", "peak_open_set"),
    ("depth reached", "stats", "depth_reached"),
)


def _cell(entry: dict, section: str | None, field: str) -> str:
    holder = entry if section is None else entry[section]
    value = None if holder is None else holder[field]
    if value is None:
        return "-"
    return f"{value:.4f}" if isinstance(value, float) else str(value)


def format_table(report: dict) -> str:
    """A compare_algorithms report as an aligned table, one column per algorithm."""
    names, entries = list(report["algorithms"]), list(report["algorithms"].values())
    rows = [
        (label, [_cell(entry, section, field) for entry in entries])
        for label, section, field in _TABLE_ROWS
    ]
    if "wall_ms" in entries[0]:
        rows.append(("wall ms", [f"{entry['wall_ms']:.3f}" for entry in entries]))
    label_width = max(len(label) for label, _ in rows)
    widths = [max(len(name), *(len(cells[i]) for _, cells in rows)) for i, name in enumerate(names)]
    lines = [" " * label_width + "".join(f"  {n:>{w}}" for n, w in zip(names, widths))]
    for label, cells in rows:
        lines.append(f"{label:<{label_width}}" + "".join(f"  {c:>{w}}" for c, w in zip(cells, widths)))
    return "\n".join(lines) + "\n"
