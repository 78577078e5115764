"""Every algorithm against the benchmark's reference on 1k- and 2k-unit universes.

``perfbench/universe.py`` builds the benchmark's mixed universes (a layered
core with back edges, long chains, producer rings, wide fan-in units and
duplicates) and decides reachability and minimum chain depth with Knuth's
fixpoint, ``min_levels``.  It never imports ``foon``, so it checks the
search at sizes the exhaustive oracle refuses.  This module only reads it.
"""

from __future__ import annotations

import functools
import importlib.util
import random
import sys
from pathlib import Path

import pytest

from foon import (
    ALGORITHMS,
    IDS,
    RetrievalConfig,
    TaskTreeNotFound,
    build_graph,
    parse_foon,
    parse_goal,
    parse_kitchen,
    parse_motion_profile,
    retrieve,
    validate_tree,
)


def _load_reference():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "universe.py"
    spec = importlib.util.spec_from_file_location("perfbench_universe", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


reference = _load_reference()

UNIVERSES = [(0, 1000), (1, 2000)]  # (seed, units) for ``mixed_universe``
GOALS = 60


@functools.lru_cache(maxsize=len(UNIVERSES))
def _answers(seed, n_units):
    """The universe, and per sampled goal and algorithm: (goal, algorithm,
    reference level or None, tree or None, stats)."""
    universe = reference.mixed_universe(seed, n_units)
    units, _diagnostics = parse_foon(universe.foon_text())
    graph = build_graph(units)
    kitchen = parse_kitchen(universe.kitchen_text(universe.base))
    profile = parse_motion_profile(reference.motions_text())
    levels = reference.min_levels(universe, universe.base)
    candidates = sorted(reference.producers_of(universe) - set(universe.base))
    rows = []
    for goal in random.Random(seed).sample(candidates, GOALS):
        for algorithm in ALGORITHMS:
            config = RetrievalConfig(algorithm=algorithm, motion_profile=profile)
            try:
                goal_node = parse_goal(universe.goal_text(goal))
                tree, stats = retrieve(graph, goal_node, kitchen, config)
            except TaskTreeNotFound as miss:
                tree, stats = None, miss.stats
            rows.append((goal, algorithm, levels.get(goal), tree, stats))
    return universe, graph, kitchen, rows


def _depth(universe, tree, goal):
    """The tree's chain depth, after ``check_tree`` has accepted it."""
    steps = [unit.source_index for unit in tree.steps]
    ok, depth, problem = reference.check_tree(universe, steps, set(universe.base), goal)
    assert ok, problem
    return depth


@pytest.mark.parametrize("seed, n_units", UNIVERSES)
def test_every_algorithm_agrees_with_the_reference(seed, n_units):
    universe, graph, kitchen, rows = _answers(seed, n_units)
    max_depth = RetrievalConfig().max_depth
    for goal, algorithm, level, tree, _stats in rows:
        reachable = level is not None and (algorithm != IDS or level <= max_depth)
        assert (tree is not None) == reachable, (goal, algorithm, level)
        if tree is None:
            continue
        ok, problems = validate_tree(tree, graph, kitchen)
        assert ok, (goal, algorithm, problems)
        depth = _depth(universe, tree, goal)
        if algorithm == IDS:
            assert depth >= level, (goal, depth, level)


@pytest.mark.xfail(strict=True, reason="D1: ids can return a tree deeper than the minimum")
@pytest.mark.parametrize("seed, n_units", UNIVERSES)
def test_ids_depth_equals_the_reference(seed, n_units):
    universe, _graph, _kitchen, rows = _answers(seed, n_units)
    deeper = [
        (goal, level)
        for goal, algorithm, level, tree, _stats in rows
        if algorithm == IDS and tree is not None and _depth(universe, tree, goal) != level
    ]
    assert deeper == []


@pytest.mark.parametrize("seed, n_units", UNIVERSES)
def test_greedy_search_skips_what_the_reference_cannot_reach(seed, n_units):
    universe, graph, kitchen, rows = _answers(seed, n_units)
    levels = reference.min_levels(universe, universe.base)
    reachable = {parse_goal(universe.goal_text(node)).key for node in levels}
    verdicts = graph._derived.kitchens[kitchen.keys]
    assert verdicts.made and verdicts.unmade
    assert verdicts.made <= reachable and not verdicts.unmade & reachable
    unreachable = [
        (goal, algorithm, stats.expanded_units)
        for goal, algorithm, level, _tree, stats in rows
        if algorithm != IDS and level is None
    ]
    assert unreachable and all(expanded == 0 for _, _, expanded in unreachable), unreachable


@pytest.mark.parametrize("seed, n_units", UNIVERSES)
def test_a_greedy_search_in_a_new_kitchen_reports_what_one_in_a_known_kitchen_does(seed, n_units):
    # ``_answers`` asks every goal in one kitchen, so all but the first
    # greedy search of each algorithm filter rankings the graph has kept;
    # here each goal is asked of a graph that has kept nothing.
    universe, graph, kitchen, rows = _answers(seed, n_units)
    profile = parse_motion_profile(reference.motions_text())
    for goal, algorithm, _level, tree, stats in rows:
        if algorithm == IDS:
            continue
        config = RetrievalConfig(algorithm=algorithm, motion_profile=profile)
        try:
            again, stats_again = retrieve(
                build_graph(graph.units), parse_goal(universe.goal_text(goal)), kitchen, config
            )
        except TaskTreeNotFound as miss:
            again, stats_again = None, miss.stats
        assert (again, stats_again) == (tree, stats), (goal, algorithm)
