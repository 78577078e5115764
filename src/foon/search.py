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
unless backtracking is disabled.  A greedy search that backtracks ranks only
the producers the kitchen can complete, those whose every input some chain
of units makes from the kitchen: any other one always fails, and its failure
rolls back all it placed, so skipping it changes no tree, only the work
done.  An unreachable goal thus fails with no expansion.  ids and a greedy
search without backtracking rank every producer.

Which keys a kitchen makes is decided top-down, only for the keys a search
asks about, and kept per kitchen key set for the latest few kitchens.  The
first search in a kitchen runs on the full ranking and decides only the
candidates that fail: one the kitchen cannot complete is taken back out of
the stats, as if never ranked, and a later one with an input known unmade
is skipped.  A search in a kitchen seen before filters each ranking once.
Both report the same stats.

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
    resolution order, including choice points later rolled back.  A greedy
    search that backtracks lists only the producers the kitchen can complete,
    and records no choice point for a key that has none.
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
    stock: frozenset[str],
    goal_key: str,
    *,
    cap: float,
    rank: Callable[[str], _Units],
    score: _Score,
    ranked: dict[str, _Units],
    verdicts: _Verdicts | None,
    backtrack: bool,
    stats: RetrievalStats,
    trace: list[ChoiceRecord] | None = None,
) -> tuple[list[FunctionalUnit] | None, bool]:
    """One depth-capped backward search.

    ``stock`` is the kitchen's key set.  Returns the ordered steps (None when
    the search failed) and whether the cap refused any request.  ``ranked``
    memoizes ``rank``, a key's candidates in order, and is shared by every
    pass of every retrieval that ranks the same way; ``score`` is called only
    to fill ``trace``.  Given a kitchen's ``verdicts``, a candidate with an
    input known unmade is skipped, and one that fails is decided: if the
    kitchen cannot complete it, the stats go back to what they were before
    it, as if it were never ranked.  ``saved`` holds them.

    ``log`` lists the resolutions as ``(key, unit placed or None)``, and its
    placed units are the steps.  A frame's key holds the in-progress mark -1
    in ``resolved`` from its push until its resolution overwrites it, or until
    every candidate has failed and the mark is deleted.
    """
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
    pending, deepest, mark, saved = iter((goal_key,)), 0, 0, None
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
                found = ranked[want] = rank(want)
            if found:
                frame = (key, depth, candidates, choices, index, pending, deepest, mark, saved)
                stack.append(frame)
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
                # ``want`` is the input the failed candidate stopped at, and
                # ``pending`` holds the inputs it never reached.
                if verdicts is not None and index >= 0 and not verdicts.makes((want, *pending)):
                    expanded, peak = saved
                for unit in choices:
                    index += 1
                    reused = placed.get(id(unit))
                    if reused is None:
                        if verdicts is not None:
                            unmade = verdicts.unmade
                            if unmade and not unmade.isdisjoint(unit.input_keys):
                                continue  # the kitchen cannot complete it
                            saved = expanded, peak
                        break
                    if depth + reused <= cap:
                        outcome = resolved[key] = reused
                        log.append((key, None))
                        break
                    cut = True
                else:
                    unit = None  # every candidate failed
                    del resolved[key]
                    if verdicts is not None:
                        verdicts.settle(key, candidates)
                if outcome is None and unit is not None:  # expand it
                    expanded += 1
                    pending, deepest = iter(unit.input_keys), 0
                    break
            if trace is not None:
                accepted = None if outcome is None else index
                scored = tuple([(unit, score(unit)) for unit in candidates])
                trace.append(ChoiceRecord(key, scored, accepted))
            want = key  # the input its candidate failed at, if it failed
            key, depth, candidates, choices, index, pending, deepest, mark, saved = stack.pop()
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


_KITCHENS = 8  # kitchens whose verdicts and filtered rankings a graph keeps


class _Derived:
    """What retrieval derives from one ``producers`` mapping, kept on its graph.

    ``rankings`` maps each algorithm to ``(tag, ranked, by_kitchen)``: the
    rates it ranks by (gbfs-success only), each key's ranked producers, and
    per kitchen key set the part of each ranking that the kitchen can
    complete.  ``kitchens`` maps a kitchen key set to its ``_Verdicts``.
    Both keep the latest ``_KITCHENS`` kitchens.
    """

    __slots__ = ("producers", "rankings", "kitchens")

    def __init__(self, producers: dict[str, _Units]) -> None:
        self.producers, self.rankings, self.kitchens = producers, {}, {}


def _for_kitchen(memo: dict, stock: frozenset[str], make: Callable[[], object]):
    """``memo[stock]``, made by ``make`` on a miss; a full memo drops its oldest entry."""
    entry = memo.get(stock)
    if entry is None:
        if len(memo) >= _KITCHENS:
            del memo[next(iter(memo))]
        entry = memo[stock] = make()
    return entry


def _ranked(
    graph: FoonGraph, config: RetrievalConfig, rank: _Rank
) -> tuple[dict[str, _Units], Callable[[str], _Units], dict]:
    """The graph's memo of ``config``'s rankings, what ranks a key it lacks,
    and the memo's per-kitchen part.

    Everything is kept in the graph's ``_derived``, and dropped once
    ``graph.producers`` is not the mapping it came from.  The gbfs-success
    rankings are tagged with the rates and default rate; a call with other
    ones rebinds them to fresh memos, leaving the old ones to any search
    reading them.
    """
    tag = None
    if config.algorithm == GBFS_SUCCESS:
        profile = config.motion_profile
        tag = (frozenset(profile.rates.items()), profile.default_rate)
    derived = vars(graph).get("_derived")
    if derived is None or derived.producers is not graph.producers:
        derived = graph._derived = _Derived(graph.producers)
    producers = derived.producers
    kept = derived.rankings.get(config.algorithm)
    if kept is None or kept[0] != tag:
        kept = derived.rankings[config.algorithm] = (tag, {}, {})
    return kept[1], (lambda key: rank(producers.get(key, ()))), kept[2]


class _Verdicts:
    """What one kitchen, ``stock``, makes and cannot make, as found so far."""

    __slots__ = ("producers", "stock", "made", "unmade")

    def __init__(self, producers: dict[str, _Units], stock: frozenset[str]) -> None:
        self.producers, self.stock, self.made, self.unmade = producers, stock, set(), set()

    def makes(self, keys) -> bool:
        """Whether the kitchen makes every key of ``keys``."""
        stock, made, unmade = self.stock, self.made, self.unmade
        for want in keys:
            if want not in stock and want not in made:
                if want in unmade or not self._decide(want):
                    return False
        return True

    def _decide(self, goal: str) -> bool:
        """Whether some chain of units makes ``goal`` from the kitchen.

        A depth-first proof over the AND/OR graph that adds each key it
        decides to ``made`` or ``unmade``: a key is made when one of its
        producers, tried in file order, has every input in stock or made.  A
        producer fails at its first unmade input, so a proof reads only the
        keys it needs.  A key met again on the path counts as unmade.  A key
        whose failure rests on such a key further up the path is undecided
        until that key is: unmade if that key fails, forgotten if it is made.
        The verdicts are those of Knuth's (1977) least fixpoint, reached
        top-down.
        """
        producers, stock, made, unmade = self.producers, self.stock, self.made, self.unmade
        path: dict[str, int] = {goal: 0}  # key -> position on the path
        undecided: list[str] = []  # keys whose failure rests on a key up the path
        stack: list[tuple] = []  # the suspended frames, innermost last
        # The current frame tries to make ``key``: ``units`` yields its
        # producers not yet tried, ``inputs`` the current one's inputs not yet
        # made (None between producers).  ``low`` is the position nearest the
        # goal that a failure under it rests on, its own at first; ``mark`` is
        # the length of ``undecided`` when it was pushed.
        key, units, inputs, low, mark = goal, iter(producers.get(goal, ())), None, 0, 0
        while True:
            outcome = None
            if inputs is None:
                unit = next(units, None)
                if unit is None:
                    outcome = False
                else:
                    inputs = iter(unit.input_keys)
            if outcome is None:
                for want in inputs:
                    if want in stock or want in made:
                        continue
                    if want not in unmade:
                        at = path.get(want)
                        if at is None:  # try to make it
                            stack.append((key, units, inputs, low, mark))
                            key, units, inputs = want, iter(producers.get(want, ())), None
                            low = path[key] = len(stack)
                            mark = len(undecided)
                            break
                        if at < low:
                            low = at
                    inputs = None  # the producer fails
                    break
                else:
                    outcome = True
                if outcome is None:
                    continue
            # The frame is settled: record it and resume its parent.
            at = path.pop(key)
            if outcome:
                made.add(key)
                del undecided[mark:]
            elif low >= at:  # it rests on nothing up the path, nor do the keys under it
                unmade.update(undecided[mark:])
                del undecided[mark:]
                unmade.add(key)
            else:
                undecided.append(key)
            if not stack:
                return outcome
            under = low
            key, units, inputs, low, mark = stack.pop()
            if not outcome:
                inputs = None
                if under < low:
                    low = under

    def settle(self, key: str, candidates: _Units) -> None:
        """Record ``key``, once a search has tried all its ``candidates``:
        it is made when one of them has no unmade input."""
        unmade = self.unmade
        able = any([unmade.isdisjoint(unit.input_keys) for unit in candidates])
        (self.made if able else unmade).add(key)

    def filtered(
        self, ranked: dict[str, _Units], rank: Callable[[str], _Units], by_kitchen: dict
    ) -> tuple[dict[str, _Units], Callable[[str], _Units]]:
        """The kitchen's memo, kept in ``by_kitchen``, of the producers it can
        complete, and what filters them from the full ranking of a key the
        memo lacks."""
        makes = self.makes

        def viable(key: str) -> _Units:
            units = ranked.get(key)
            if units is None:
                units = ranked[key] = rank(key)
            able = tuple([unit for unit in units if makes(unit.input_keys)])
            return units if len(able) == len(units) else able

        return _for_kitchen(by_kitchen, self.stock, dict), viable


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
    without it the search commits to its first choice.  A backtracking
    greedy search skips the producers the kitchen cannot complete.  Pass
    ``trace`` to record every choice point (for ids, those of every pass).
    Each key's ranked producers are kept on the graph for later calls, those
    of gbfs-success for the latest rates, and so is what the latest
    ``_KITCHENS`` kitchens can make.  Raises UnknownGoalError for an unknown
    goal and TaskTreeNotFound when the search fails.

    A backtracking greedy search in a kitchen the graph keeps nothing for
    runs on the full ranking and decides only the candidates that fail (see
    ``_resolve``); a missing rate it meets may lie beneath a unit the
    kitchen cannot complete, so the filtered search then runs instead.
    """
    if config is None:
        config = RetrievalConfig()
    rank, score = _ranking(config)
    goal_key, stock = goal.key, kitchen.keys
    if goal_key not in graph.producers and goal_key not in kitchen:
        raise UnknownGoalError(
            f"goal {goal_key!r} is neither produced by any unit nor in the kitchen"
        )
    greedy = config.algorithm != IDS
    caps = (float("inf"),) if greedy else range(config.max_depth + 1)
    backtrack = config.backtrack or not greedy

    def search(ranked, rank, verdicts):
        stats = RetrievalStats()
        for cap in caps:
            steps, cut = _resolve(
                stock, goal_key, cap=cap, rank=rank, score=score, ranked=ranked,
                verdicts=verdicts, backtrack=backtrack, stats=stats, trace=trace,
            )
            stats.depth_reached = stats.peak_open_set - 1 if greedy else cap
            if steps is not None or not cut:
                break
        return steps, cut, stats

    ranked, rank, by_kitchen = _ranked(graph, config, rank)
    verdicts = None  # for a search on the full ranking that checks each failed candidate
    if greedy and config.backtrack:
        kitchens = graph._derived.kitchens
        seen = stock in kitchens
        kept = _for_kitchen(kitchens, stock, lambda: _Verdicts(graph.producers, stock))
        if seen or trace is not None:
            ranked, rank = kept.filtered(ranked, rank, by_kitchen)
        else:
            verdicts = kept
    try:
        steps, cut, stats = search(ranked, rank, verdicts)
    except MissingMotionRateError:
        if verdicts is None:
            raise
        steps, cut, stats = search(*verdicts.filtered(ranked, rank, by_kitchen), None)
    if steps is not None:
        return TaskTree(tuple(steps), goal_key, config.algorithm), stats
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
