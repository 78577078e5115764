"""Metamorphic relations: changes to a problem that must not change its answer.

No oracle is needed, so these hold at any size.  Each relation runs over
``random_universe`` seeds, for every algorithm with backtracking, at
``max_depth`` 50 and 2 (the depth caps ids only):

- R1: deleting a unit that is not in the returned tree returns the same
  tree, step for step.
- R1b: deleting any unit from a not-found problem keeps it not-found.
- R2: adding a kitchen item that some unit outputs keeps a found goal found.
- R3: reversing the file order, ``source_index`` kept, keeps found and
  not-found.
- Round trip: ``parse_foon(serialize_foon(units))`` gives the same answers.
- A graph that has served other kitchens and algorithms, greedy search
  without backtracking included, answers each query with the same tree,
  stats and trace as a fresh graph.

Pin each counterexample found as its own test below the sweeps.
"""

import dataclasses
import random

from foon import (
    ALGORITHMS,
    IDS,
    Kitchen,
    RetrievalConfig,
    TaskTreeNotFound,
    UnknownGoalError,
    build_graph,
    parse_foon,
    retrieve,
    serialize_foon,
)

from helpers import random_universe

SEEDS = range(250)
DEPTHS = (50, 2)


def _problem(seed):
    graph, goal, kitchen, profile = random_universe(random.Random(seed))
    configs = [
        RetrievalConfig(algorithm, depth, profile) for algorithm in ALGORITHMS for depth in DEPTHS
    ]
    return graph, goal, kitchen, configs


def _answer(graph, goal, kitchen, config, trace=None):
    """The tree's steps (None if not found) and the stats (None for an unknown goal)."""
    try:
        tree, stats = retrieve(graph, goal, kitchen, config, trace=trace)
    except TaskTreeNotFound as miss:
        return None, miss.stats
    except UnknownGoalError:
        return None, None
    return tree.steps, stats


def _addable(graph, kitchen):
    """Each node some unit outputs that the kitchen lacks, once, in file order."""
    nodes = {node.key: node for unit in graph.units for node in unit.outputs}
    return [node for key, node in nodes.items() if key not in kitchen]


def test_r1_and_r1b_deleting_a_unit_the_answer_does_not_use_keeps_the_answer():
    for seed in SEEDS:
        graph, goal, kitchen, configs = _problem(seed)
        answers = [_answer(graph, goal, kitchen, config)[0] for config in configs]
        units = graph.units
        for index, unit in enumerate(units if len(units) > 1 else ()):
            kept = [
                (config, steps)
                for config, steps in zip(configs, answers)
                if steps is None or unit not in steps
            ]
            smaller = build_graph(units[:index] + units[index + 1:])
            for config, steps in kept:
                got = _answer(smaller, goal, kitchen, config)[0]
                assert got == steps, (seed, config.algorithm, config.max_depth, unit.source_index)


def test_r2_adding_a_kitchen_item_some_unit_outputs_keeps_a_found_goal_found():
    for seed in SEEDS:
        graph, goal, kitchen, configs = _problem(seed)
        found = [c for c in configs if _answer(graph, goal, kitchen, c)[0] is not None]
        for node in _addable(graph, kitchen) if found else ():
            larger = Kitchen(kitchen.items + (node,))
            for config in found:
                got = _answer(graph, goal, larger, config)[0]
                assert got is not None, (seed, config.algorithm, config.max_depth, node.key)


def test_r3_reversing_the_file_order_keeps_found_and_not_found():
    for seed in SEEDS:
        graph, goal, kitchen, configs = _problem(seed)
        reversed_graph = build_graph(reversed(graph.units))
        for config in configs:
            found = _answer(graph, goal, kitchen, config)[0] is not None
            got = _answer(reversed_graph, goal, kitchen, config)[0] is not None
            assert got == found, (seed, config.algorithm, config.max_depth)


def test_a_serialized_and_reparsed_universe_gives_the_same_answers():
    for seed in SEEDS:
        graph, goal, kitchen, configs = _problem(seed)
        units, diagnostics = parse_foon(serialize_foon(graph.units))
        assert not [d for d in diagnostics if d.severity == "error"], seed
        reparsed = build_graph(units)
        for config in configs:
            got = _answer(reparsed, goal, kitchen, config)
            assert got == _answer(graph, goal, kitchen, config), (seed, config.algorithm)


def test_a_graph_that_served_other_queries_answers_as_a_fresh_one():
    # Untraced first, so a backtracking greedy search meets each kitchen new
    # to the graph (full ranking) and then kept (filtered ranking).
    for seed in SEEDS:
        graph, goal, kitchen, configs = _problem(seed)
        configs += [
            dataclasses.replace(config, backtrack=False)
            for config in configs
            if config.algorithm != IDS and config.max_depth == DEPTHS[0]
        ]
        extra = [Kitchen(kitchen.items + (node,)) for node in _addable(graph, kitchen)[:2]]
        for stock in [kitchen, *extra, kitchen]:
            for config in configs:
                fresh_trace, served_trace = [], []
                fresh = _answer(build_graph(graph.units), goal, stock, config, fresh_trace)
                case = (seed, config.algorithm, config.max_depth, config.backtrack)
                assert _answer(graph, goal, stock, config) == fresh, case
                assert _answer(graph, goal, stock, config, served_trace) == fresh, case
                assert served_trace == fresh_trace, case
