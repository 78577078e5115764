"""Task tree retrieval: iterative deepening and greedy best-first search.

Both algorithms run the same backward resolution over the producers index.
A subgoal key is satisfied by the kitchen when possible (never by a unit),
otherwise by choosing one producing unit and resolving that unit's inputs.
Within one candidate tree every key is resolved at most once and every unit
is placed at most once; a unit already placed may satisfy further keys it
outputs without being expanded again.  A subgoal that reappears on its own
resolution path is a dead end, which bounds the search on cyclic graphs.

The algorithms differ only in candidate ranking and cap schedule, which
``retrieve`` runs through one loop.  Iterative deepening keeps producers in
file order under caps 0, 1, ... max_depth and returns the first complete
tree, so the result minimizes the unit-chain depth.  Greedy best-first
ranks producers by a heuristic score (motion success rate, descending, or
input-object count, ascending; ties fall back to file order) in one
uncapped pass, backtracking to the next-best candidate when a subtree fails
unless backtracking is disabled.

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
unit's dataclass hash.  It ranks each key's producers once per graph into a
plain tuple of units, kept on the graph for every later retrieval that ranks
the same way; scores are paired with candidates only for a trace.
It resolves over an explicit stack of frames, one per key being expanded,
so a chain's depth is bounded by memory, not by the recursion limit.  Each
frame holds an iterator over its candidate's pending inputs, so a frame
resumed after a subgoal resolves goes on from the next input.  One log holds
a pass's resolutions in order, and a failed candidate pops it back to its
frame's mark; a key being expanded resolves to -1, so meeting it is a cycle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .errors import FoonError, MissingMotionRateError, UnknownGoalError
from .graph import FoonGraph, FunctionalUnit, Kitchen, MotionProfile, ObjectNode, TaskTree

IDS = "ids"
GBFS_SUCCESS = "gbfs-success"
GBFS_INPUTS = "gbfs-inputs"
ALGORITHMS = (IDS, GBFS_SUCCESS, GBFS_INPUTS)

_Units = tuple[FunctionalUnit, ...]
_Rank = Callable[[_Units], _Units]
_Score = Callable[[FunctionalUnit], float]


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
        if type(self.max_depth) is not int or self.max_depth < 1:
            raise ValueError("max_depth must be a positive integer")
        if self.motion_profile is not None and not isinstance(self.motion_profile, MotionProfile):
            raise ValueError("motion_profile must be a MotionProfile or None")
        if type(self.backtrack) is not bool:
            raise ValueError("backtrack must be a bool")


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
    candidates: tuple[tuple[FunctionalUnit, float], ...]
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
    rank: _Rank,
    score: _Score,
    ranked: dict[str, _Units],
    backtrack: bool,
    stats: RetrievalStats,
    trace: list[ChoiceRecord] | None = None,
) -> tuple[list[FunctionalUnit] | None, bool]:
    """One depth-capped backward search.

    ``stock`` is the kitchen's key set.  Returns the ordered steps (None when
    the search failed) and whether the cap refused any request.  ``ranked``
    memoizes ``rank`` per key and is shared by every pass of every retrieval
    that ranks the same way; ``score`` is called only to fill ``trace``.

    ``log`` lists the resolutions as ``(key, unit placed or None)``, and its
    placed units are the steps.  A frame's key holds the in-progress mark -1
    in ``resolved`` from its push until its resolution overwrites it, or until
    every candidate has failed and the mark is deleted.
    """
    producers = graph.producers
    resolved: dict[str, int] = {}  # key -> chain depth of its resolution, -1 while open
    placed: dict[int, int] = {}  # id(unit) -> chain depth when placed
    log: list[tuple[str, FunctionalUnit | None]] = []  # resolutions: (key, unit placed)
    cut = False  # whether the cap refused a request
    expanded, peak = stats.expanded_units, stats.peak_open_set
    stack: list[tuple] = []  # the suspended frames, innermost last
    # The current frame expands ``key``, requested at ``depth``.  ``choices``
    # yields the candidates not yet tried; candidates[index] is the one being
    # tried (-1 before the first), ``pending`` yields its inputs not yet
    # resolved and ``deepest`` is the longest chain among those that are.
    # ``mark`` is the log's length when the frame was pushed; a failed try
    # pops the log back to it.  The root frame (key None) stands for a unit
    # whose one input is the goal.
    key, depth, candidates, choices, index = None, -1, (), iter(()), 0
    pending, deepest, mark = iter((goal_key,)), 0, 0
    while True:
        # Resolve the pending inputs, stopping at the first that fails or
        # needs a frame of its own; a resumed frame goes on after that one.
        at = depth + 1
        if at >= peak:
            peak = at + 1
        outcome = None
        for want in pending:
            if want in stock:
                continue
            cached = resolved.get(want)
            if cached is not None:
                if cached < 0:  # open on this path: a cycle
                    break
                if at + cached <= cap:
                    if cached > deepest:
                        deepest = cached
                    continue
                cut = True
                break
            if at >= cap:
                cut = True
                break
            found = ranked.get(want)
            if found is None:
                found = ranked[want] = rank(producers.get(want, ()))
            if found:
                stack.append((key, depth, candidates, choices, index, pending, deepest, mark))
                key, depth, candidates, index = want, at, found, -1
                choices = iter(found if backtrack else found[:1])
                resolved[key], mark = -1, len(log)
            break
        else:
            if key is None:
                stats.expanded_units, stats.peak_open_set = expanded, peak
                return [unit for _, unit in log if unit is not None], cut
            unit = candidates[index]
            outcome = resolved[key] = placed[id(unit)] = deepest + 1
            log.append((key, unit))
        # Settle frames until one has a candidate with inputs to resolve.
        while True:
            if outcome is None:
                if key is None:
                    stats.expanded_units, stats.peak_open_set = expanded, peak
                    return None, cut
                while len(log) > mark:  # undo the failed candidate's subtree
                    done, unit = log.pop()
                    del resolved[done]
                    if unit is not None:
                        del placed[id(unit)]
                for unit in choices:
                    index += 1
                    reused = placed.get(id(unit))
                    if reused is None:
                        break
                    if depth + reused <= cap:
                        outcome = resolved[key] = reused
                        log.append((key, None))
                        break
                    cut = True
                else:
                    unit = None  # every candidate failed
                    del resolved[key]
                if outcome is None and unit is not None:  # expand it
                    expanded += 1
                    pending, deepest = iter(unit.input_keys), 0
                    break
            if trace is not None:
                accepted = None if outcome is None else index
                scored = tuple([(unit, score(unit)) for unit in candidates])
                trace.append(ChoiceRecord(key, scored, accepted))
            key, depth, candidates, choices, index, pending, deepest, mark = stack.pop()
            if outcome is not None:
                if outcome > deepest:
                    deepest = outcome
                break


def _ranking(config: RetrievalConfig) -> tuple[_Rank, _Score]:
    """Each algorithm's candidate order and the score its traces report.

    ids keeps the producers in file order and scores by file position;
    gbfs-inputs ranks by input count, lowest first, and gbfs-success (which
    requires a motion profile) by motion success rate, highest first, with
    ties going to the earlier unit in the file.  gbfs-success looks up each
    motion's rate once per ranking and scores every unit it ranks, a sole
    producer too, so a missing rate raises as soon as its unit is ranked.
    """
    if config.algorithm == IDS:
        return (lambda units: units), (lambda unit: float(unit.source_index))
    if config.algorithm == GBFS_INPUTS:
        score, sign = (lambda unit: float(len(unit.inputs))), 1
    elif config.motion_profile is None:
        raise MissingMotionRateError("gbfs-success needs a motion profile to score candidates")
    else:
        rate_for, rates = config.motion_profile.rate_for, {}

        def score(unit: FunctionalUnit) -> float:
            label = unit.motion.label
            rate = rates.get(label)
            if rate is None:
                rate = rates[label] = rate_for(label)
            return rate

        sign = -1

    def rank(units: _Units) -> _Units:
        if len(units) > 1:
            return tuple(sorted(units, key=lambda unit: (sign * score(unit), unit.source_index)))
        for unit in units:
            score(unit)
        return units

    return rank, score


def _ranked(graph: FoonGraph, config: RetrievalConfig) -> dict[str, _Units]:
    """The graph's memo of ``config``'s rankings, kept in its ``_rankings``.

    One memo per algorithm, made empty on first use, and all of them dropped
    once ``graph.producers`` is not the mapping they were ranked from.  The
    gbfs-success memo is tagged with the rates and default rate; a call with
    other ones rebinds it to a fresh memo, leaving the old one to any search
    reading it.
    """
    tag = None
    if config.algorithm == GBFS_SUCCESS:
        profile = config.motion_profile
        tag = (frozenset(profile.rates.items()), profile.default_rate)
    source, tables = vars(graph).get("_rankings", (None, None))
    if source is not graph.producers:
        source, tables = graph._rankings = (graph.producers, {})
    kept = tables.get(config.algorithm)
    if kept is None or kept[0] != tag:
        kept = tables[config.algorithm] = (tag, {})
    return kept[1]


def retrieve(
    graph: FoonGraph,
    goal: ObjectNode,
    kitchen: Kitchen,
    config: RetrievalConfig | None = None,
    trace: list[ChoiceRecord] | None = None,
) -> tuple[TaskTree, RetrievalStats]:
    """Retrieve one task tree for the goal with ``config.algorithm``.

    Runs one ``_resolve`` pass per cap of the algorithm's schedule and
    returns the first complete tree.  ``ids`` (the default) caps its passes
    at 0, 1, ... max_depth, so its tree has the smallest achievable
    unit-chain depth; it stops after a failed pass that its cap never cut
    short, since every deeper pass would fail the same way.  The greedy
    algorithms run one uncapped pass; with ``config.backtrack`` (the
    default) a failed subtree falls through to the next-best candidate,
    without it the search commits to its first choice.  Pass ``trace`` to
    record every choice point (for ids, those of every pass).  Each key's
    ranked producers are kept on the graph for later calls, those of
    gbfs-success for the latest rates.  Raises UnknownGoalError for an
    unknown goal and TaskTreeNotFound when the search fails.
    """
    if config is None:
        config = RetrievalConfig()
    rank, score = _ranking(config)
    goal_key = goal.key
    if goal_key not in graph.producers and goal_key not in kitchen:
        raise UnknownGoalError(
            f"goal {goal_key!r} is neither produced by any unit nor in the kitchen"
        )
    greedy = config.algorithm != IDS
    caps = (float("inf"),) if greedy else range(config.max_depth + 1)
    stats = RetrievalStats()
    ranked = _ranked(graph, config)
    for cap in caps:
        steps, cut = _resolve(
            graph, kitchen.keys, goal_key, cap=cap, rank=rank, score=score, ranked=ranked,
            backtrack=config.backtrack or not greedy, stats=stats, trace=trace,
        )
        stats.depth_reached = stats.peak_open_set - 1 if greedy else cap
        if steps is not None:
            return TaskTree(tuple(steps), goal_key, config.algorithm), stats
        if not cut:
            break
    if not greedy:
        bound = f"within depth limit {config.max_depth}" if cut else "at any depth"
        regime = f"no task tree {bound}"
    elif config.backtrack:
        regime = "greedy search exhausted every candidate ordering"
    else:
        regime = "greedy search exhausted its first-choice path (backtracking disabled)"
    raise TaskTreeNotFound(f"{regime} after {stats.expanded_units} unit expansions", stats)


def validate_tree(
    tree: TaskTree, graph: FoonGraph, kitchen: Kitchen
) -> tuple[bool, list[str]]:
    """Check that a task tree is executable against a graph and kitchen.

    Verifies that every step is a unit of the graph, appears only once, and
    has each input either kitchen-satisfied or produced by an earlier step;
    the final step must output the goal (an empty tree needs the goal in the
    kitchen).  Steps compare by content, against the graph's producers of
    their first output.  Returns (ok, problems).
    """
    problems: list[str] = []
    seen: set[FunctionalUnit] = set()
    available: set[str] = set()
    for position, step in enumerate(tree.steps):
        if step not in graph.producers.get(step.output_keys[0], ()):
            problems.append(f"step {position} is not a unit of the graph")
        if step in seen:
            problems.append(f"step {position} duplicates an earlier step")
        seen.add(step)
        for key in dict.fromkeys(step.input_keys):
            if key not in kitchen and key not in available:
                problems.append(
                    f"step {position} input {key!r} is neither in the kitchen"
                    " nor produced by an earlier step"
                )
        available.update(step.output_keys)
    if tree.steps:
        if tree.goal_key not in tree.steps[-1].output_keys:
            problems.append(
                f"goal {tree.goal_key!r} is not among the final step's outputs"
            )
    elif tree.goal_key not in kitchen:
        problems.append(
            f"tree is empty but goal {tree.goal_key!r} is not in the kitchen"
        )
    return not problems, problems
