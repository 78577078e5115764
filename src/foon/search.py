"""Task tree retrieval: iterative deepening and greedy best-first search.

Both algorithms run the same backward resolution over the producers index.
A subgoal key is satisfied by the kitchen when possible (never by a unit),
otherwise by choosing one producing unit and resolving that unit's inputs.
Within one candidate tree every key is resolved at most once and every unit
is placed at most once; a unit already placed may satisfy further keys it
outputs without being expanded again.  A subgoal that reappears on its own
resolution path is a dead end, which bounds the search on cyclic graphs.

The algorithms differ only in candidate order and cutoff.  Iterative
deepening tries producers in file order under a growing depth limit and
returns the first complete tree, so the result minimizes the unit-chain
depth.  Greedy best-first orders producers by a heuristic score (motion
success rate, descending, or input-object count, ascending; ties fall back
to file order) with no depth limit, backtracking to the next-best candidate
when a subtree fails unless backtracking is disabled.

Depth bookkeeping: a kitchen-satisfied key costs 0; a unit's chain depth is
one more than the deepest of its input resolutions.  Reusing a previously
resolved key (or placed unit) at request depth ``d`` is allowed only while
``d`` plus its stored chain depth stays within the limit, and failed
attempts roll back their placements, so a depth-limited pass is exhaustive.
The limit refuses a request in exactly three places: a new subgoal at
``depth >= limit``, a resolved key with ``depth + cached > limit`` and a
placed unit with ``depth + reused > limit``.  A failed pass in which none of
them refused anything ends the deepening: every check that passed under
limit ``c`` passes under ``c + 1`` as well, so each deeper pass would make
the same decisions and fail the same way.

The search keys its per-pass maps by strings and unit identity, never by a
unit's dataclass hash, and ranks each key's producers once per call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from .errors import FoonError, MissingMotionRateError, UnknownGoalError
from .graph import FoonGraph, FunctionalUnit, Kitchen, ObjectNode, TaskTree

IDS = "ids"
GBFS_SUCCESS = "gbfs-success"
GBFS_INPUTS = "gbfs-inputs"
ALGORITHMS = (IDS, GBFS_SUCCESS, GBFS_INPUTS)

# Candidate lists carry (unit, score) pairs so greedy traces can be replayed.
_Ranked = tuple[tuple[FunctionalUnit, float], ...]
_Order = Callable[[Iterable[FunctionalUnit]], _Ranked]


@dataclass
class RetrievalConfig:
    """Knobs for ``retrieve``.

    ``max_depth`` caps iterative deepening only.  ``motion_profile`` matters
    only to gbfs-success: a profile without a default rate makes a motion
    missing from it an error.  ``backtrack`` matters only to the greedy
    algorithms.
    """

    algorithm: str = IDS
    max_depth: int = 50
    motion_profile: MotionProfile | None = None
    backtrack: bool = True

    def __post_init__(self) -> None:
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        if self.max_depth < 1:
            raise ValueError("max_depth must be a positive integer")


@dataclass
class RetrievalStats:
    """Work counters for one retrieval call.

    ``expanded_units``: candidate unit expansions attempted (across every
    deepening pass, for IDS).  ``peak_open_set``: 1 + the deepest subgoal
    request, which is the most subgoal resolutions simultaneously in flight
    (a request and its ancestors, one per depth); at least 1 whenever a
    search ran.
    ``depth_reached``: for IDS the depth limit in force when the search
    ended, which is the limit of the last pass run (deepening stops early
    once a failed pass was not cut short by its limit); for greedy search
    the deepest subgoal request seen.
    """

    expanded_units: int = 0
    peak_open_set: int = 0
    depth_reached: int = 0


@dataclass(frozen=True)
class ChoiceRecord:
    """One choice point: the ranked candidates for a subgoal key.

    ``accepted`` indexes the candidate whose subtree succeeded (or that was
    reused); None means every candidate failed.  Records are appended in
    resolution order, including choice points later rolled back.
    """

    key: str
    candidates: _Ranked
    accepted: int | None


class TaskTreeNotFound(FoonError):
    """No task tree exists under the configured search regime."""

    def __init__(self, reason: str, stats: RetrievalStats):
        super().__init__(reason)
        self.reason = reason
        self.stats = stats


def _resolve(
    graph: FoonGraph,
    stock: frozenset[str],
    goal_key: str,
    *,
    cap: float,
    order: _Order,
    ranked: dict[str, _Ranked],
    backtrack: bool,
    stats: RetrievalStats,
    trace: list[ChoiceRecord] | None = None,
) -> tuple[list[FunctionalUnit] | None, bool]:
    """One depth-capped backward search.

    ``stock`` is the kitchen's key set.  Returns the ordered steps (None when
    the search failed) and whether the cap refused any request.  ``ranked``
    memoizes ``order`` per key and may be shared by every pass of one
    retrieval.
    """
    producers = graph.producers
    steps: list[FunctionalUnit] = []
    resolved: dict[str, int] = {}  # key -> chain depth of its resolution
    placed: dict[int, int] = {}  # id(unit) -> chain depth when placed
    journal: list[tuple[dict, object]] = []  # undo log: (map, entry) pairs
    path: set[str] = set()  # keys currently being expanded
    cut = False  # whether the cap refused a request

    def rollback(steps_mark: int, journal_mark: int) -> None:
        del steps[steps_mark:]
        while len(journal) > journal_mark:
            table, entry = journal.pop()
            del table[entry]

    def resolve_key(key: str, depth: int) -> int | None:
        nonlocal cut
        if depth >= stats.peak_open_set:
            stats.peak_open_set = depth + 1
        if key in stock:
            return 0
        if key in path:
            return None
        cached = resolved.get(key)
        if cached is not None:
            if depth + cached <= cap:
                return cached
            cut = True
            return None
        if depth >= cap:
            cut = True
            return None
        candidates = ranked.get(key)
        if candidates is None:
            candidates = ranked[key] = order(producers.get(key, ()))
        accepted: int | None = None
        outcome: int | None = None
        for index, (unit, _score) in enumerate(candidates):
            if index > 0 and not backtrack:
                break
            reused = placed.get(id(unit))
            if reused is not None:
                if depth + reused <= cap:
                    resolved[key] = reused
                    journal.append((resolved, key))
                    accepted, outcome = index, reused
                    break
                cut = True
                continue
            stats.expanded_units += 1
            steps_mark, journal_mark = len(steps), len(journal)
            path.add(key)
            below = resolve_inputs(unit.input_keys(), depth + 1)
            path.discard(key)
            if below is None:
                rollback(steps_mark, journal_mark)
                continue
            chain = below + 1
            steps.append(unit)
            placed[id(unit)] = chain
            journal.append((placed, id(unit)))
            resolved[key] = chain
            journal.append((resolved, key))
            accepted, outcome = index, chain
            break
        if trace is not None and candidates:
            trace.append(ChoiceRecord(key, candidates, accepted))
        return outcome

    def resolve_inputs(keys: tuple[str, ...], depth: int) -> int | None:
        deepest = 0
        for key in keys:
            outcome = resolve_key(key, depth)
            if outcome is None:
                return None
            if outcome > deepest:
                deepest = outcome
        return deepest

    if resolve_key(goal_key, 0) is None:
        return None, cut
    return steps, cut


def _file_order(units: Iterable[FunctionalUnit]) -> _Ranked:
    return tuple((unit, float(unit.source_index)) for unit in units)


def _greedy_order(config: RetrievalConfig) -> _Order:
    """Candidate ranking for a greedy algorithm; ties go to file order."""
    if config.algorithm == GBFS_INPUTS:

        def by_inputs(units: Iterable[FunctionalUnit]) -> _Ranked:
            scored = [(u, float(len(u.inputs))) for u in units]
            return tuple(sorted(scored, key=lambda pair: (pair[1], pair[0].source_index)))

        return by_inputs
    profile = config.motion_profile
    if profile is None:
        raise MissingMotionRateError(
            "gbfs-success needs a motion profile to score candidates"
        )

    def by_success(units: Iterable[FunctionalUnit]) -> _Ranked:
        scored = [(u, profile.rate_for(u.motion.label)) for u in units]
        return tuple(sorted(scored, key=lambda pair: (-pair[1], pair[0].source_index)))

    return by_success


def retrieve(
    graph: FoonGraph,
    goal: ObjectNode,
    kitchen: Kitchen,
    config: RetrievalConfig | None = None,
    trace: list[ChoiceRecord] | None = None,
) -> tuple[TaskTree, RetrievalStats]:
    """Retrieve one task tree for the goal with ``config.algorithm``.

    ``ids`` (the default) runs exhaustive depth-limited passes with limits
    0, 1, ... max_depth, taking producers left to right in file order, and
    returns the first complete tree, which therefore has the smallest
    achievable unit-chain depth.  It stops early after a failed pass that
    its limit never cut short, since every deeper pass would fail the same
    way.  The greedy algorithms take the candidate with the highest motion
    success rate (gbfs-success, which requires a motion profile) or the
    fewest input objects (gbfs-inputs); ties break toward the earlier unit
    in the file.  With ``config.backtrack`` (the default) a failed greedy
    subtree falls through to the next-best candidate; without it the search
    commits to its first choice.  Pass ``trace`` to record every choice
    point (for ids, those of every pass, scored by file position).  Raises
    UnknownGoalError for an unknown goal and TaskTreeNotFound when the
    search fails.
    """
    if config is None:
        config = RetrievalConfig()
    order = _file_order if config.algorithm == IDS else _greedy_order(config)
    goal_key = goal.key
    if goal_key not in graph.producers and goal_key not in kitchen:
        raise UnknownGoalError(
            f"goal {goal_key!r} is neither produced by any unit nor in the kitchen"
        )
    stats = RetrievalStats()
    ranked: dict[str, _Ranked] = {}
    if config.algorithm == IDS:
        for limit in range(config.max_depth + 1):
            stats.depth_reached = limit
            steps, cut = _resolve(
                graph, kitchen.keys, goal_key, cap=limit, order=order, ranked=ranked,
                backtrack=True, stats=stats, trace=trace,
            )
            if steps is not None:
                return TaskTree(tuple(steps), goal_key, IDS), stats
            if not cut:
                bound = "at any depth"
                break
        else:
            bound = f"within depth limit {config.max_depth}"
        raise TaskTreeNotFound(
            f"no task tree {bound} after {stats.expanded_units} unit expansions",
            stats,
        )
    steps, _ = _resolve(
        graph, kitchen.keys, goal_key, cap=float("inf"), order=order, ranked=ranked,
        backtrack=config.backtrack, stats=stats, trace=trace,
    )
    stats.depth_reached = stats.peak_open_set - 1
    if steps is None:
        regime = (
            "every candidate ordering"
            if config.backtrack
            else "its first-choice path (backtracking disabled)"
        )
        raise TaskTreeNotFound(
            f"greedy search exhausted {regime}"
            f" after {stats.expanded_units} unit expansions",
            stats,
        )
    return TaskTree(tuple(steps), goal_key, config.algorithm), stats


def validate_tree(
    tree: TaskTree, graph: FoonGraph, kitchen: Kitchen
) -> tuple[bool, list[str]]:
    """Check that a task tree is executable against a graph and kitchen.

    Verifies that every step is a unit of the graph, appears only once, and
    has each input either kitchen-satisfied or produced by an earlier step;
    the final step must output the goal (an empty tree needs the goal in the
    kitchen).  Returns (ok, problems).
    """
    problems: list[str] = []
    known = {unit.to_text() for unit in graph.units}
    seen: set[str] = set()
    available: set[str] = set()
    for position, step in enumerate(tree.steps):
        form = step.to_text()
        if form not in known:
            problems.append(f"step {position} is not a unit of the graph")
        if form in seen:
            problems.append(f"step {position} duplicates an earlier step")
        seen.add(form)
        for key in dict.fromkeys(step.input_keys()):
            if key not in kitchen and key not in available:
                problems.append(
                    f"step {position} input {key!r} is neither in the kitchen"
                    " nor produced by an earlier step"
                )
        available.update(step.output_keys())
    if tree.steps:
        if tree.goal_key not in tree.steps[-1].output_keys():
            problems.append(
                f"goal {tree.goal_key!r} is not among the final step's outputs"
            )
    elif tree.goal_key not in kitchen:
        problems.append(
            f"tree is empty but goal {tree.goal_key!r} is not in the kitchen"
        )
    return not problems, problems
