"""The two workloads, built deterministically from a seed.

Each goal is asked of every algorithm (ids only within
its depth limit), under one of a few fixed kitchens in turn.  Goals are
drawn from each component of the universe in proportion to the number of
eligible goals it holds, so the query mix follows the universe's makeup.

Every query carries the reference verdict (``min_levels``) it is checked
against; ``run.py`` builds the workload, hands the warm worker only the
query texts, and checks the answers itself.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import universe as gen

ALGORITHMS = ("ids", "gbfs-success", "gbfs-inputs")
MAX_DEPTH = 50  # ids' default depth limit; ids can only find goals at or below it
WORKLOADS = ("warm_found", "warm_unreachable")
# Per size: units per universe, about this many goals per pass, and the
# fewest operations a loop runs.  warm_unreachable
# has a smaller universe than warm_found: at 5k units its not-found ids
# searches take 0.1-1.6 s each, and the wall time of searches that long
# follows the shared host's speed, which drifts by half over minutes; at 3k
# they are mostly 1-60 ms and a query's best over many passes holds steady.
SIZES = {
    "full": {"units": {"warm_found": 5000, "warm_unreachable": 3000},
             "goals": {"warm_found": 250, "warm_unreachable": 90}, "min_ops": 100},
    "tiny": {"units": {"warm_found": 200, "warm_unreachable": 200},
             "goals": {"warm_found": 40, "warm_unreachable": 20}, "min_ops": 4},
}
# Only the surface of a universe (node states, in-motion flags) depends on
# the seed; its structure, kitchens and queries are the same for every seed.
# Search cost on the layered generator swings about tenfold between
# universes of one size (ids on unreachable goals: median 63-804 ms over
# five seeds at 3.6k core units); between goal samples of one universe p90
# latency still moved by a quarter, and between kitchen sets throughput by
# a third.  No bound on a median over seeds could absorb that.
STRUCTURE_SEED = 0
KITCHENS = 4  # kitchens per universe
KITCHEN_EXTRA = 8  # random core nodes added to the base items of each kitchen


@dataclass(frozen=True)
class Query:
    """One operation: ``algorithm`` is an algorithm name or ``compare``."""

    algorithm: str
    kitchen: int
    goal: int
    level: int | None  # reference minimum chain depth; None if unreachable


@dataclass
class Workload:
    name: str
    universe: gen.Universe
    kitchens: list[set[int]]
    queries: list[Query]
    trace_ops: int  # length of the query prefix a traced run replays
    min_ops: int
    probe: list[Query]  # the CLI operations a traced run adds


def _kitchens(universe: gen.Universe, rng: random.Random, count: int) -> list[set[int]]:
    """The base items plus a few core nodes that the base items already
    reach, so kitchens shorten trees but agree on which goals are reachable."""
    reached = gen.min_levels(universe, universe.base)
    extra = [n for n in universe.groups["core"] if reached.get(n, 0) > 0]
    return [
        set(universe.base) | set(rng.sample(extra, min(KITCHEN_EXTRA, len(extra))))
        for _ in range(count)
    ]


def _goals(rng: random.Random, pools: dict[str, list[int]], count: int) -> list[int]:
    """About ``count`` distinct goals, drawn from each pool in proportion to
    its size (rounded up, so that every non-empty component is asked)."""
    total = sum(len(pool) for pool in pools.values())
    goals = []
    for group in sorted(pools):
        pool = pools[group]
        goals += rng.sample(pool, min(len(pool), math.ceil(count * len(pool) / total)))
    rng.shuffle(goals)
    return goals


def _cli_probe(universe, kitchens, levels) -> list[Query]:
    """A retrieve per algorithm and a compare, for the shallowest core goal
    of depth at least 2 under kitchen 0 (every algorithm finds it)."""
    core = [n for n in universe.groups["core"] if n in levels[0] and n not in kitchens[0]]
    goal = min(core, key=lambda n: (levels[0][n] < 2, levels[0][n], n))
    return [Query(a, 0, goal, levels[0][goal]) for a in (*ALGORITHMS, "compare")]


def expects_tree(query: Query) -> bool:
    """Whether the algorithm must find a tree: the reference reaches the
    goal, and for ids within its depth limit."""
    if query.level is None:
        return False
    return query.algorithm != "ids" or query.level <= MAX_DEPTH


def verdict(workload: Workload, query: Query, steps, error) -> tuple[str, str]:
    """Check one retrieval answer against the reference.

    ``steps`` are the unit ids of the returned tree (None for not-found) and
    ``error`` the type name and message of any other exception raised.  Returns (status, detail), status
    being ``ok``, ``deeper`` (a valid ids tree deeper than the reference
    minimum), ``recursion`` (RecursionError), ``timeout``, or ``wrong`` (a
    wrong verdict, an invalid tree, or any other exception).
    """
    if error is not None:
        kind, message = error
        if kind in ("RecursionError", "OpTimeout"):
            return ("recursion" if kind == "RecursionError" else "timeout"), kind
        return "wrong", f"{kind}: {message}"
    if steps is None:
        if expects_tree(query):
            return "wrong", f"not found, but the reference reaches it at depth {query.level}"
        return "ok", ""
    if not expects_tree(query):
        return "wrong", "returned a tree where the reference has none"
    kitchen = workload.kitchens[query.kitchen]
    ok, depth, problem = gen.check_tree(workload.universe, steps, kitchen, query.goal)
    if not ok:
        return "wrong", problem
    if query.algorithm == "ids" and depth > query.level:
        return "deeper", f"ids tree depth {depth}, reference minimum {query.level}"
    return "ok", ""


def build(name: str, seed: int, size: str = "full") -> Workload:
    """The workload ``name``; ``seed`` draws the surface of its universe."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}")
    picker = random.Random(f"{name}/goals")
    universe = gen.mixed_universe(STRUCTURE_SEED, SIZES[size]["units"][name], seed)
    kitchens = _kitchens(universe, random.Random(f"{name}/kitchens"), KITCHENS)
    levels = [gen.min_levels(universe, kitchen) for kitchen in kitchens]
    base = gen.min_levels(universe, universe.base)
    known = gen.producers_of(universe)
    found = name == "warm_found"
    pools = {
        group: [n for n in nodes if n in known and n not in universe.base and (n in base) == found]
        for group, nodes in universe.groups.items()
    }
    queries = []
    for index, goal in enumerate(_goals(picker, pools, SIZES[size]["goals"][name])):
        k = index % KITCHENS
        for algorithm in ALGORITHMS:
            if not (algorithm == "ids" and found and base[goal] > MAX_DEPTH):
                queries.append(Query(algorithm, k, goal, levels[k].get(goal)))
    return Workload(
        name, universe, kitchens, queries,
        trace_ops=120 if found else 36,
        min_ops=SIZES[size]["min_ops"],
        probe=_cli_probe(universe, kitchens, levels),
    )
