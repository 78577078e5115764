"""Retrieval algorithms: ordering, depth limits, backtracking, termination."""

import copy
import dataclasses
import gc
import pickle
import random
import sys
import tracemalloc

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from foon import (
    GBFS_INPUTS,
    GBFS_SUCCESS,
    IDS,
    FunctionalUnit,
    Kitchen,
    MissingMotionRateError,
    Motion,
    MotionProfile,
    ObjectNode,
    RetrievalConfig,
    StateDescriptor,
    TaskTree,
    TaskTreeNotFound,
    UnknownGoalError,
    build_graph,
    enumerate_all_task_trees,
    retrieve,
    serialize_foon,
    tree_metrics,
    validate_tree,
)

from helpers import FIXTURE_NAMES, cycle_universe, load_universe, random_universe


def _config(universe, algorithm, **overrides):
    return RetrievalConfig(
        algorithm=algorithm, motion_profile=universe.profile, **overrides
    )


def _motions(tree):
    return [step.motion.label for step in tree.steps]


# --- goal already satisfied ------------------------------------------------


@pytest.mark.parametrize("algorithm", [IDS, GBFS_SUCCESS, GBFS_INPUTS])
def test_goal_in_kitchen_yields_empty_tree(algorithm):
    universe = load_universe("ice_cup")
    goal = ObjectNode("cup", frozenset({StateDescriptor("empty")}))
    tree, stats = retrieve(
        universe.graph, goal, universe.kitchen, _config(universe, algorithm)
    )
    assert tree.steps == ()
    assert tree.goal_key == "cup|empty"
    ok, problems = validate_tree(tree, universe.graph, universe.kitchen)
    assert ok, problems
    assert stats.expanded_units == 0
    assert stats.peak_open_set == 1
    assert stats.depth_reached == 0


def test_unknown_goal_raises_before_searching():
    universe = load_universe("ice_cup")
    stranger = ObjectNode("teapot", frozenset({StateDescriptor("full")}))
    for algorithm in (IDS, GBFS_SUCCESS, GBFS_INPUTS):
        with pytest.raises(UnknownGoalError):
            retrieve(universe.graph, stranger, universe.kitchen, _config(universe, algorithm))


# --- iterative deepening ---------------------------------------------------


def test_ids_takes_first_producer_in_file_order():
    universe = load_universe("ice_cup")
    tree, _ = retrieve(universe.graph, universe.goal, universe.kitchen)
    assert _motions(tree) == ["pour"]
    assert tree.steps[0].source_index == 0
    assert tree.algorithm_tag == IDS


def test_ids_finds_two_step_chain_at_depth_two():
    universe = load_universe("cold_water")
    tree, stats = retrieve(universe.graph, universe.goal, universe.kitchen)
    assert _motions(tree) == ["pour", "chill"]
    assert stats.depth_reached == 2
    ok, problems = validate_tree(tree, universe.graph, universe.kitchen)
    assert ok, problems


def test_ids_respects_max_depth():
    universe = load_universe("cold_water")
    config = _config(universe, IDS, max_depth=1)
    with pytest.raises(TaskTreeNotFound) as caught:
        retrieve(universe.graph, universe.goal, universe.kitchen, config)
    assert caught.value.stats.depth_reached == 1
    assert caught.value.reason == "no task tree within depth limit 1 after 1 unit expansions"


def test_ids_returns_minimum_chain_depth_on_diamond():
    # Two routes to the paste: one adds a unit on top of the almond chain
    # (depth 3), one starts from the syrup (depth 2).  Deepening must find
    # the shallow route even though file order favors the other.
    universe = load_universe("diamond")
    tree, stats = retrieve(universe.graph, universe.goal, universe.kitchen)
    assert _motions(tree) == ["grind", "blend", "combine"]
    assert stats.depth_reached == 2


def test_shared_subgoal_resolves_once():
    universe = load_universe("diamond")
    config = _config(universe, GBFS_SUCCESS)
    tree, _ = retrieve(universe.graph, universe.goal, universe.kitchen, config)
    # The ground almonds feed both the paste and the final combine; the
    # grind unit must appear exactly once.
    assert _motions(tree) == ["grind", "mix", "combine"]
    forms = [step.to_text() for step in tree.steps]
    assert len(forms) == len(set(forms))


def test_multi_output_unit_is_placed_once():
    # One unit produces both of the final unit's inputs; it must be placed
    # for the first key and reused for the second, not expanded twice.
    fruit = ObjectNode("fruit", frozenset({StateDescriptor("whole")}))
    pulp = ObjectNode("pulp")
    juice = ObjectNode("juice", frozenset({StateDescriptor("raw")}))
    smoothie = ObjectNode("smoothie")
    press = FunctionalUnit((fruit,), Motion("press"), (pulp, juice), 0)
    combine = FunctionalUnit((pulp, juice), Motion("combine"), (smoothie,), 1)
    graph = build_graph([press, combine])
    kitchen = Kitchen((fruit,))
    profile = MotionProfile({"press": 0.9, "combine": 0.9})
    for algorithm in (IDS, GBFS_SUCCESS, GBFS_INPUTS):
        config = RetrievalConfig(algorithm=algorithm, motion_profile=profile)
        tree, _ = retrieve(graph, smoothie, kitchen, config)
        assert _motions(tree) == ["press", "combine"]
        ok, problems = validate_tree(tree, graph, kitchen)
        assert ok, problems


@pytest.mark.parametrize("algorithm", [IDS, GBFS_SUCCESS, GBFS_INPUTS])
def test_a_unit_listing_an_output_twice_is_one_candidate_for_it(algorithm):
    # "split" lists x twice; it produces x once, so the search tries it once.
    k, x, g = ObjectNode("k"), ObjectNode("x"), ObjectNode("g")
    split = FunctionalUnit((k,), Motion("split"), (x, x), 0)
    finish = FunctionalUnit((x,), Motion("mix"), (g,), 1)
    graph = build_graph([split, finish])
    assert graph.producers["x|"] == (split,)
    config = RetrievalConfig(
        algorithm=algorithm, motion_profile=MotionProfile({"split": 0.5, "mix": 0.5})
    )
    trace = []
    tree, stats = retrieve(graph, g, Kitchen((k,)), config, trace=trace)
    assert tree.steps == (split, finish)
    assert {len(record.candidates) for record in trace if record.key == "x|"} == {1}
    assert stats.expanded_units == (3 if algorithm == IDS else 2)


# --- greedy best-first -----------------------------------------------------


def test_gbfs_success_prefers_higher_rate():
    universe = load_universe("ice_cup")
    tree, _ = retrieve(
        universe.graph, universe.goal, universe.kitchen, _config(universe, GBFS_SUCCESS)
    )
    assert _motions(tree) == ["scoop"]
    assert tree.algorithm_tag == GBFS_SUCCESS


def test_gbfs_inputs_prefers_fewer_inputs():
    universe = load_universe("ice_cup")
    tree, _ = retrieve(
        universe.graph, universe.goal, universe.kitchen, _config(universe, GBFS_INPUTS)
    )
    assert _motions(tree) == ["pour"]
    assert len(tree.steps[0].inputs) == 2


def test_gbfs_ties_break_toward_earlier_unit():
    # Both paste producers take one input; mix (0.8) beats blend (0.7) on
    # rate, and on input count the tie falls back to file order (mix first).
    universe = load_universe("diamond")
    for algorithm in (GBFS_SUCCESS, GBFS_INPUTS):
        tree, _ = retrieve(
            universe.graph, universe.goal, universe.kitchen, _config(universe, algorithm)
        )
        assert "mix" in _motions(tree)


def test_gbfs_backtracks_past_dead_end():
    universe = load_universe("dead_end")
    for algorithm in (GBFS_SUCCESS, GBFS_INPUTS):
        tree, _ = retrieve(
            universe.graph, universe.goal, universe.kitchen, _config(universe, algorithm)
        )
        assert _motions(tree) == ["brew"]


def test_gbfs_without_backtracking_commits_and_fails():
    universe = load_universe("dead_end")
    for algorithm in (GBFS_SUCCESS, GBFS_INPUTS):
        config = _config(universe, algorithm, backtrack=False)
        with pytest.raises(TaskTreeNotFound) as caught:
            retrieve(universe.graph, universe.goal, universe.kitchen, config)
        assert caught.value.reason == (
            "greedy search exhausted its first-choice path (backtracking disabled)"
            " after 1 unit expansions"
        )
        assert str(caught.value) == caught.value.reason


def test_backtracking_greedy_ranks_only_producers_the_kitchen_can_complete():
    # No unit makes the phoenix feather that "conjure" needs, so a greedy
    # search that backtracks never ranks it; ids and a greedy search without
    # backtracking rank both producers as before.
    universe = load_universe("dead_end")
    both = ["conjure", "brew"]
    for algorithm, backtrack, expected in (
        (GBFS_SUCCESS, True, ["brew"]), (GBFS_INPUTS, True, ["brew"]),
        (GBFS_SUCCESS, False, both), (GBFS_INPUTS, False, both), (IDS, True, both),
    ):
        trace = []
        config = _config(universe, algorithm, backtrack=backtrack)
        try:
            retrieve(universe.graph, universe.goal, universe.kitchen, config, trace=trace)
        except TaskTreeNotFound:
            assert not backtrack
        ranked = [[unit.motion.label for unit, _ in record.candidates] for record in trace]
        assert ranked == [expected], (algorithm, backtrack)


def test_gbfs_success_requires_a_profile():
    universe = load_universe("ice_cup")
    config = RetrievalConfig(algorithm=GBFS_SUCCESS, motion_profile=None)
    for goal in (universe.goal, ObjectNode("teapot")):  # even before the unknown-goal check
        with pytest.raises(MissingMotionRateError):
            retrieve(universe.graph, goal, universe.kitchen, config)


def test_gbfs_trace_records_ranked_choice_points():
    universe = load_universe("ice_cup")
    trace = []
    retrieve(
        universe.graph,
        universe.goal,
        universe.kitchen,
        _config(universe, GBFS_SUCCESS),
        trace=trace,
    )
    goal_records = [r for r in trace if r.key == "cup|contains{ice}"]
    assert len(goal_records) == 1
    record = goal_records[0]
    assert [unit.motion.label for unit, _ in record.candidates] == ["scoop", "pour"]
    assert [score for _, score in record.candidates] == [0.9, 0.6]
    assert record.accepted == 0


@pytest.mark.parametrize("algorithm", [GBFS_SUCCESS, GBFS_INPUTS])
@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_greedy_depth_reached_is_the_deepest_subgoal_request(algorithm, name):
    universe = load_universe(name)
    config = _config(universe, algorithm)
    try:
        _, stats = retrieve(universe.graph, universe.goal, universe.kitchen, config)
    except TaskTreeNotFound as miss:  # freeze_thaw: unreachable, so nothing is expanded
        stats = miss.stats
    deepest = {"cold_water": 2, "freeze_thaw": 0, "diamond": 2}.get(name, 1)
    assert stats.depth_reached == deepest == stats.peak_open_set - 1


def test_ids_trace_records_every_pass_scored_by_file_position():
    universe = load_universe("diamond")
    trace = []
    retrieve(universe.graph, universe.goal, universe.kitchen, trace=trace)
    records = [
        (r.key, [(unit.motion.label, score) for unit, score in r.candidates], r.accepted)
        for r in trace
    ]
    assert records == [
        # Pass 0 refuses the goal itself before ranking anything.  Pass 1
        # ranks the goal's producer, then refuses its inputs at depth 1.
        ("marzipan|shaped", [("combine", 3.0)], None),
        # Pass 2: mix needs the ground almonds at depth 2 on top of their
        # chain of 1, over the cap, so blend makes the paste.
        ("almonds|ground", [("grind", 0.0)], 0),
        ("paste|smooth", [("mix", 1.0), ("blend", 2.0)], 1),
        ("marzipan|shaped", [("combine", 3.0)], 0),
    ]


# --- candidate scores --------------------------------------------------------


def test_success_score_reads_profile():
    universe = load_universe("ice_cup")
    pour, scoop = universe.graph.units
    assert universe.profile.rate_for(pour.motion.label) == 0.6
    assert universe.profile.rate_for(scoop.motion.label) == 0.9
    fallback = MotionProfile({}, default_rate=0.25)
    assert fallback.rate_for(pour.motion.label) == 0.25
    with pytest.raises(MissingMotionRateError):
        MotionProfile(fallback.rates).rate_for(pour.motion.label)


def _rated_universe():
    """Goal ``g`` from kitchen item ``k`` by one "chop" unit, plus a "mystery"
    unit that makes ``x``, which the goal never needs."""
    units = [
        _plain_unit(("k",), "chop", "g", 0),
        _plain_unit(("k",), "mystery", "x", 1),
    ]
    return build_graph(units), Kitchen((ObjectNode("k"),))


def test_gbfs_success_raises_when_it_ranks_a_sole_producer_without_a_rate():
    graph, kitchen = _rated_universe()
    config = RetrievalConfig(algorithm=GBFS_SUCCESS, motion_profile=MotionProfile({"chop": 0.5}))
    with pytest.raises(MissingMotionRateError, match="'mystery'"):
        retrieve(graph, ObjectNode("x"), kitchen, config)


def test_gbfs_success_ignores_missing_rates_of_units_it_never_reaches():
    graph, kitchen = _rated_universe()
    config = RetrievalConfig(algorithm=GBFS_SUCCESS, motion_profile=MotionProfile({"chop": 0.5}))
    tree, _ = retrieve(graph, ObjectNode("g"), kitchen, config)
    assert _motions(tree) == ["chop"]


def test_gbfs_success_needs_no_rate_beneath_a_producer_the_kitchen_cannot_complete():
    # "g" needs "z", which nothing makes, so its producer is never expanded
    # and "a", made by a motion without a rate, is never ranked.  Without
    # backtracking the search expands it, ranks "a" and raises.  Given a
    # second producer of "g", ranked below the first, the search that skips
    # the first returns the second's tree.
    units = [_plain_unit(("a", "z"), "mix", "g", 0), _plain_unit(("k",), "mystery", "a", 1)]
    kitchen = Kitchen((ObjectNode("k"),))
    profile = MotionProfile({"mix": 0.5, "chop": 0.4})
    config = RetrievalConfig(algorithm=GBFS_SUCCESS, motion_profile=profile)
    committed = dataclasses.replace(config, backtrack=False)
    for more, answer in (([], None), ([_plain_unit(("k",), "chop", "g", 2)], ["chop"])):
        graph = build_graph(units + more)
        for _ in range(2):  # in a new kitchen, and in one the graph has kept
            if answer is None:
                with pytest.raises(TaskTreeNotFound):
                    retrieve(graph, ObjectNode("g"), kitchen, config)
            else:
                assert _motions(retrieve(graph, ObjectNode("g"), kitchen, config)[0]) == answer
        with pytest.raises(MissingMotionRateError, match="'mystery'"):
            retrieve(graph, ObjectNode("g"), kitchen, committed)


@pytest.mark.parametrize("algorithm", [IDS, GBFS_SUCCESS, GBFS_INPUTS])
def test_trace_candidates_carry_float_scores(algorithm):
    universe = load_universe("diamond")
    trace = []
    retrieve(
        universe.graph, universe.goal, universe.kitchen, _config(universe, algorithm), trace=trace
    )
    assert trace
    expected = {
        IDS: lambda unit: float(unit.source_index),
        GBFS_SUCCESS: lambda unit: universe.profile.rate_for(unit.motion.label),
        GBFS_INPUTS: lambda unit: float(len(unit.inputs)),
    }[algorithm]
    for record in trace:
        for unit, score in record.candidates:
            assert type(score) is float
            assert score == expected(unit)


def test_input_count_score_counts_nodes():
    universe = load_universe("ice_cup")
    pour, scoop = universe.graph.units
    assert len(pour.inputs) == 2
    assert len(scoop.inputs) == 3
    chop = load_universe("chop_onion").graph.units[0]
    assert len(chop.inputs) == 3


# --- failure and termination -----------------------------------------------


@pytest.mark.parametrize("algorithm", [IDS, GBFS_SUCCESS, GBFS_INPUTS])
def test_unreachable_goal_raises_not_found(algorithm):
    universe = load_universe("freeze_thaw")
    with pytest.raises(TaskTreeNotFound) as caught:
        retrieve(
            universe.graph, universe.goal, universe.kitchen, _config(universe, algorithm)
        )
    assert caught.value.stats.peak_open_set >= 1
    assert caught.value.reason == (
        "no task tree at any depth after 3 unit expansions"
        if algorithm == IDS
        else "greedy search exhausted every candidate ordering after 0 unit expansions"
    )


@pytest.mark.parametrize("length", [3, 10, 100])
def test_cycles_terminate(length):
    graph, goal, kitchen, profile = cycle_universe(length)
    for algorithm in (IDS, GBFS_SUCCESS, GBFS_INPUTS):
        config = RetrievalConfig(algorithm=algorithm, motion_profile=profile)
        with pytest.raises(TaskTreeNotFound):
            retrieve(graph, goal, kitchen, config)


def _plain_unit(inputs, motion, output, index):
    return FunctionalUnit(
        tuple(ObjectNode(name) for name in inputs), Motion(motion), (ObjectNode(output),), index
    )


@pytest.mark.parametrize("algorithm", [IDS, GBFS_SUCCESS, GBFS_INPUTS])
def test_a_key_that_failed_on_a_cycle_is_retried_once_its_cycle_is_gone(algorithm):
    # "x" fails first: its only producer needs "y", which is still open.  Once
    # "y" resolves through "y2", the goal's request for "x" must search again.
    units = [
        _plain_unit(("y", "x"), "g", "g", 0),
        _plain_unit(("x",), "y1", "y", 1),
        _plain_unit(("y",), "x1", "x", 2),
        _plain_unit(("k",), "y2", "y", 3),
    ]
    config = RetrievalConfig(algorithm=algorithm, motion_profile=MotionProfile({}, 0.5))
    graph, kitchen = build_graph(units), Kitchen((ObjectNode("k"),))
    tree, stats = retrieve(graph, ObjectNode("g"), kitchen, config)
    assert [unit.source_index for unit in tree.steps] == [3, 2, 0]
    assert stats.expanded_units == (10 if algorithm == IDS else 5)
    assert stats.peak_open_set == 4


# --- deepening stops once its limit cuts nothing ---------------------------


def _d1_units():
    """The D1 reproducer: kitchen ``{k}``, goal ``goal``."""
    return [
        _plain_unit(("a", "b"), "g", "goal", 0),
        _plain_unit(("p",), "a1", "a", 1),
        _plain_unit(("k",), "a2", "a", 2),
        _plain_unit(("k",), "p1", "p", 3),
        _plain_unit(("a",), "b1", "b", 4),
    ]


def test_ids_not_found_work_does_not_grow_with_max_depth():
    universe = load_universe("freeze_thaw")
    expanded = []
    for max_depth in (5, 500):
        config = RetrievalConfig(max_depth=max_depth)
        with pytest.raises(TaskTreeNotFound) as caught:
            retrieve(universe.graph, universe.goal, universe.kitchen, config)
        expanded.append(caught.value.stats.expanded_units)
    assert expanded[0] == expanded[1] == 3  # pass 2 hits the cycle, not the limit
    assert caught.value.stats.depth_reached == 2
    assert caught.value.reason == "no task tree at any depth after 3 unit expansions"


def test_ids_keeps_deepening_after_a_pass_whose_limit_refused_a_resolved_key():
    # The D1 universe: at limit 3, "b1" asks for "a" at depth 2 after "a" was
    # resolved through "a1" with chain depth 2, and only the limit refuses it.
    graph, kitchen = build_graph(_d1_units()), Kitchen((ObjectNode("k"),))
    tree, stats = retrieve(graph, ObjectNode("goal"), kitchen)
    assert [unit.motion.label for unit in tree.steps] == ["p1", "a1", "b1", "g"]
    assert stats.depth_reached == 4


def test_ids_keeps_deepening_after_a_pass_whose_limit_refused_a_placed_unit():
    # At limit 3, "y" is asked for at depth 2 while the unit "u" that also
    # made "x" sits placed with chain depth 2, and only the limit refuses it.
    x, y, z, w, k = (ObjectNode(name) for name in "xyzwk")
    units = [
        FunctionalUnit((x, z), Motion("g"), (ObjectNode("goal"),), 0),
        FunctionalUnit((w,), Motion("u"), (x, y), 1),
        FunctionalUnit((y,), Motion("z"), (z,), 2),
        FunctionalUnit((k,), Motion("w"), (w,), 3),
    ]
    tree, stats = retrieve(build_graph(units), ObjectNode("goal"), Kitchen((k,)))
    assert [unit.motion.label for unit in tree.steps] == ["w", "u", "z", "g"]
    assert stats.depth_reached == 4


# --- known defects (remove a marker once its defect is fixed) ---------------


@pytest.mark.xfail(
    strict=True,
    reason="D1: a shared subgoal keeps the deeper producer an earlier sibling chose",
)
def test_ids_is_depth_minimal_when_a_shared_subgoal_has_a_shallower_producer():
    graph, kitchen = build_graph(_d1_units()), Kitchen((ObjectNode("k"),))
    goal = ObjectNode("goal")
    trees = enumerate_all_task_trees(graph, goal, kitchen)
    assert min(tree_metrics(t, kitchen=kitchen).max_chain_depth for t in trees) == 3
    tree, _ = retrieve(graph, goal, kitchen)
    assert tree_metrics(tree, kitchen=kitchen).max_chain_depth == 3  # ids gives 4


# --- deep chains: depth is bounded by memory, not by the recursion limit ----


def _chain(length):
    """A linear chain ``n0 -> n1 -> ... -> n{length}``; the kitchen holds n0."""
    nodes = [ObjectNode(f"n{i}") for i in range(length + 1)]
    units = [
        FunctionalUnit((nodes[i],), Motion("step"), (nodes[i + 1],), i) for i in range(length)
    ]
    return build_graph(units), nodes[-1], Kitchen((nodes[0],))


def _chain_config(algorithm, length):
    return RetrievalConfig(
        algorithm=algorithm, max_depth=length, motion_profile=MotionProfile({"step": 0.5})
    )


def _frame_depth():
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    return depth


def test_deep_chain_resolves_for_every_algorithm():
    graph, goal, kitchen = _chain(600)
    for algorithm in (GBFS_SUCCESS, GBFS_INPUTS, IDS):
        tree, _ = retrieve(graph, goal, kitchen, _chain_config(algorithm, 600))
        assert len(tree.steps) == 600


@pytest.mark.parametrize("algorithm", [GBFS_SUCCESS, GBFS_INPUTS])
def test_greedy_resolves_a_5000_unit_chain(algorithm):
    # ids stays at 600 units: on this chain it runs one pass per depth.
    graph, goal, kitchen = _chain(5000)
    tree, stats = retrieve(graph, goal, kitchen, _chain_config(algorithm, 5000))
    assert [unit.source_index for unit in tree.steps] == list(range(5000))
    assert stats.expanded_units == 5000
    assert stats.depth_reached == 5000 == stats.peak_open_set - 1
    ok, problems = validate_tree(tree, graph, kitchen)
    assert ok, problems


def test_chain_depth_costs_no_stack_frames():
    graph, goal, kitchen = _chain(600)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_frame_depth() + 50)
    try:
        for algorithm in (GBFS_SUCCESS, GBFS_INPUTS, IDS):
            tree, _ = retrieve(graph, goal, kitchen, _chain_config(algorithm, 600))
            assert len(tree.steps) == 600
    finally:
        sys.setrecursionlimit(limit)


# --- validate_tree ---------------------------------------------------------


def test_validate_tree_flags_unsatisfied_inputs():
    universe = load_universe("diamond")
    combine = universe.graph.units[3]
    lone = TaskTree((combine,), "marzipan|shaped")
    ok, problems = validate_tree(lone, universe.graph, universe.kitchen)
    assert not ok
    assert len(problems) == 2  # neither input is in the kitchen or produced
    for problem in problems:
        assert "neither in the kitchen" in problem


def test_validate_tree_flags_duplicates_and_foreign_steps():
    universe = load_universe("ice_cup")
    pour = universe.graph.units[0]
    doubled = TaskTree((pour, pour), "cup|contains{ice}")
    ok, problems = validate_tree(doubled, universe.graph, universe.kitchen)
    assert not ok
    assert any("duplicates" in p for p in problems)

    other = load_universe("diamond").graph.units[0]
    foreign = TaskTree((other,), "almonds|ground")
    ok, problems = validate_tree(foreign, universe.graph, universe.kitchen)
    assert not ok
    assert any("not a unit of the graph" in p for p in problems)


def test_validate_tree_flags_wrong_final_output():
    universe = load_universe("cold_water")
    pour = universe.graph.units[0]
    wrong = TaskTree((pour,), "cup|contains{cold water}")
    ok, problems = validate_tree(wrong, universe.graph, universe.kitchen)
    assert not ok
    assert any("final step" in p for p in problems)


def test_validate_tree_accepts_empty_tree_only_with_satisfied_goal():
    universe = load_universe("ice_cup")
    ok, _ = validate_tree(
        TaskTree((), "cup|empty"), universe.graph, universe.kitchen
    )
    assert ok
    ok, problems = validate_tree(
        TaskTree((), "cup|contains{ice}"), universe.graph, universe.kitchen
    )
    assert not ok
    assert problems


# --- shapes random_universe never makes -----------------------------------


_SHAPE_MOTIONS = ("chop", "mix", "heat")
_SHAPE_PROFILE = MotionProfile({"chop": 0.9, "mix": 0.6, "heat": 0.3})


@st.composite
def _odd_universes(draw):
    """A universe of at most 12 units in shapes ``random_universe`` never makes.

    A unit may list a node twice among its inputs or its outputs, may output
    one of its own inputs (a utensil), and may appear twice exactly; a ring of
    units may be entered from the core (from a kitchen item when there is
    one) and lead back into it.  The goal is a node that some unit outputs.
    """
    core = [ObjectNode(f"n{i}") for i in range(draw(st.integers(2, 6)))]
    nodes, motions = st.sampled_from(core), st.sampled_from(_SHAPE_MOTIONS)
    kitchen = draw(st.lists(nodes, max_size=3))
    units = []
    for _ in range(draw(st.integers(1, 5))):
        inputs = draw(st.lists(nodes, min_size=1, max_size=3))
        outputs = draw(st.lists(nodes, min_size=1, max_size=2))
        if draw(st.booleans()):
            outputs.append(draw(st.sampled_from(inputs)))
        units.append((inputs, draw(motions), outputs))
    ring = [ObjectNode(f"r{i}") for i in range(draw(st.integers(0, 3)))]
    if ring:
        units.append(([draw(st.sampled_from(kitchen or core))], draw(motions), [ring[0]]))
        for here, there in zip(ring, ring[1:] + ring[:1]):
            units.append(([here], draw(motions), [there]))
        units.append(([ring[-1]], draw(motions), [draw(nodes)]))
    for _ in range(draw(st.integers(0, 2))):
        units.insert(draw(st.integers(0, len(units))), draw(st.sampled_from(units)))
    graph = build_graph(
        FunctionalUnit(tuple(inputs), Motion(motion), tuple(outputs), index)
        for index, (inputs, motion, outputs) in enumerate(units)
    )
    goal = draw(st.sampled_from([node for unit in graph.units for node in unit.outputs]))
    return graph, goal, Kitchen(tuple(kitchen))


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_odd_universes())
def test_every_algorithm_agrees_with_the_oracle_on_shapes_random_universe_never_makes(
    universe,
):
    graph, goal, kitchen = universe
    trees = enumerate_all_task_trees(graph, goal, kitchen)
    solutions = {tree.canonical_form() for tree in trees}
    for algorithm in (IDS, GBFS_SUCCESS, GBFS_INPUTS):
        config = RetrievalConfig(algorithm=algorithm, max_depth=64, motion_profile=_SHAPE_PROFILE)
        try:
            tree, _ = retrieve(graph, goal, kitchen, config)
        except TaskTreeNotFound:
            assert not trees, algorithm
            continue
        ok, problems = validate_tree(tree, graph, kitchen)
        assert ok, (algorithm, problems)
        assert tree.canonical_form() in solutions, algorithm
        if algorithm == IDS:
            depth = tree_metrics(tree, kitchen=kitchen).max_chain_depth
            assert depth >= min(tree_metrics(t, kitchen=kitchen).max_chain_depth for t in trees)


# --- rankings kept on the graph ---------------------------------------------


def _steps(graph, kitchen, algorithm, profile):
    config = RetrievalConfig(algorithm=algorithm, motion_profile=profile)
    tree, _ = retrieve(graph, ObjectNode("g"), kitchen, config)
    return [(unit.source_index, unit.motion.label) for unit in tree.steps]


def test_rankings_never_leak_between_profiles_or_graphs():
    # Goal "g" from kitchen item "k" by "chop" (unit 0) or "pour" (unit 1).
    units = [_plain_unit(("k",), "chop", "g", 0), _plain_unit(("k",), "pour", "g", 1)]
    graph, kitchen = build_graph(units), Kitchen((ObjectNode("k"),))
    chop_first = MotionProfile({"chop": 0.9, "pour": 0.1})
    pour_first = MotionProfile({"chop": 0.1, "pour": 0.9})
    chop, pour = [(0, "chop")], [(1, "pour")]
    for profile, expected in ((chop_first, chop), (pour_first, pour), (chop_first, chop)):
        assert _steps(graph, kitchen, GBFS_SUCCESS, profile) == expected
        for algorithm in (IDS, GBFS_INPUTS):  # whichever profile ranked before
            assert _steps(graph, kitchen, algorithm, profile) == chop
    with pytest.raises(MissingMotionRateError, match="'pour'"):
        _steps(graph, kitchen, GBFS_SUCCESS, MotionProfile({"chop": 0.5}))
    other = build_graph([_plain_unit(("k",), "pour", "g", 0)])
    for algorithm in (IDS, GBFS_SUCCESS, GBFS_INPUTS):
        assert _steps(other, kitchen, algorithm, chop_first) == [(0, "pour")]
    lacking = build_graph([_plain_unit(("k", "m"), "chop", "g", 0)])
    with pytest.raises(TaskTreeNotFound):
        _steps(lacking, kitchen, IDS, None)
    assert list(lacking.producers) == ["g|"]  # ids ranks into a memo of its own


def test_rankings_kept_on_a_graph_stay_bounded_whatever_the_profiles():
    # 100 keys of two producers each feed the goal, so each retrieval ranks
    # 101 keys.  A ranking kept per profile would retain over 1 MB here.
    units = [_plain_unit([f"n{i}" for i in range(100)], "serve", "g", 0)]
    for i in range(100):
        units += [_plain_unit(("k",), "chop", f"n{i}", 2 * i + 1),
                  _plain_unit(("k",), "pour", f"n{i}", 2 * i + 2)]
    graph, kitchen = build_graph(units), Kitchen((ObjectNode("k"),))
    profiles = [MotionProfile({"chop": i / 400, "pour": 0.5}, 1.0) for i in range(200)]

    def retained_after(profiles):
        for profile in profiles:
            _steps(graph, kitchen, GBFS_SUCCESS, profile)
        gc.collect()
        return tracemalloc.get_traced_memory()[0]

    tracemalloc.start()
    try:
        early = retained_after(profiles[:2])
        late = retained_after(profiles[2:])
    finally:
        tracemalloc.stop()
    assert late - early < 32 * 1024


def _chop_or_pour():
    """Goal "g" from kitchen item "k" by "chop" (unit 0) or "pour" (unit 1)."""
    units = [_plain_unit(("k",), "chop", "g", 0), _plain_unit(("k",), "pour", "g", 1)]
    return build_graph(units), Kitchen((ObjectNode("k"),))


@pytest.mark.parametrize("algorithm", [IDS, GBFS_SUCCESS, GBFS_INPUTS])
def test_a_graph_with_other_producers_ranks_its_own(algorithm):
    graph, kitchen = _chop_or_pour()
    profile = MotionProfile({"chop": 0.9, "pour": 0.1})
    assert _steps(graph, kitchen, algorithm, profile) == [(0, "chop")]
    pour_only = {"g|": (graph.units[1],)}
    copied, deep = copy.copy(graph), copy.deepcopy(graph)
    copied.producers = deep.producers = pour_only
    replaced = dataclasses.replace(graph, producers=pour_only)
    for other in (copied, deep, replaced):
        assert _steps(other, kitchen, algorithm, profile) == [(1, "pour")]
    assert _steps(graph, kitchen, algorithm, profile) == [(0, "chop")]
    graph.producers = pour_only  # rebinding the mapping drops the rankings
    assert _steps(graph, kitchen, algorithm, profile) == [(1, "pour")]


def test_copies_and_pickles_of_a_graph_leave_its_rankings_behind():
    graph, kitchen = _chop_or_pour()
    fresh = pickle.dumps(graph)
    for algorithm in (IDS, GBFS_SUCCESS, GBFS_INPUTS):
        _steps(graph, kitchen, algorithm, MotionProfile({"chop": 0.1, "pour": 0.9}))
    assert pickle.dumps(graph) == fresh
    for twin in (copy.copy(graph), copy.deepcopy(graph), pickle.loads(fresh)):
        assert twin == graph and vars(twin).keys() == {"units", "producers", "duplicates_dropped"}


def test_kitchen_data_kept_on_a_graph_stays_bounded_whatever_the_kitchens():
    # 40 keys of two producers each feed the goal.  Each of 100 kitchens
    # holds "k" and one item of its own, so each has verdicts and, from its
    # second search on, filtered rankings of its own; kept for every kitchen
    # they would retain over 400 kB here.
    units = [_plain_unit([f"n{i}" for i in range(40)], "serve", "g", 0)]
    for i in range(40):
        units += [_plain_unit(("k",), "chop", f"n{i}", 2 * i + 1),
                  _plain_unit(("k",), "pour", f"n{i}", 2 * i + 2)]
    graph = build_graph(units)
    profile = MotionProfile({"chop": 0.9, "pour": 0.5}, 1.0)

    def retained_after(extras):
        for extra in extras:
            kitchen = Kitchen((ObjectNode("k"), ObjectNode(f"extra {extra}")))
            for algorithm in (GBFS_SUCCESS, GBFS_INPUTS, GBFS_SUCCESS, GBFS_INPUTS):
                assert len(_steps(graph, kitchen, algorithm, profile)) == 41
        gc.collect()
        return tracemalloc.get_traced_memory()[0]

    tracemalloc.start()
    try:
        early = retained_after(range(8))
        late = retained_after(range(8, 100))
    finally:
        tracemalloc.stop()
    assert late - early < 32 * 1024
    derived = graph._derived
    assert len(derived.kitchens) == 8
    assert [len(by_kitchen) for _, _, by_kitchen in derived.rankings.values()] == [8, 8]


def test_copies_and_pickles_made_after_greedy_retrievals_carry_no_kitchen_data():
    graph, _ = _chop_or_pour()
    fresh = pickle.dumps(graph)
    profile = MotionProfile({"chop": 0.1, "pour": 0.9})
    for extra in ("p", "q", "r"):
        kitchen = Kitchen((ObjectNode("k"), ObjectNode(extra)))
        for algorithm in (GBFS_SUCCESS, GBFS_INPUTS):
            _steps(graph, kitchen, algorithm, profile)
    assert len(graph._derived.kitchens) == 3
    assert pickle.dumps(graph) == fresh
    for twin in (copy.copy(graph), copy.deepcopy(graph), pickle.loads(pickle.dumps(graph))):
        assert twin == graph and vars(twin).keys() == {"units", "producers", "duplicates_dropped"}


def _answer(graph, goal, kitchen, config, trace=None):
    try:
        tree, stats = retrieve(graph, goal, kitchen, config, trace=trace)
        return [unit.source_index for unit in tree.steps], stats
    except TaskTreeNotFound as miss:
        return miss.reason, miss.stats
    except MissingMotionRateError as error:
        return str(error), None


@pytest.mark.parametrize("algorithm", [GBFS_SUCCESS, GBFS_INPUTS])
def test_a_greedy_search_reports_the_same_whatever_its_graph_kept_for_the_kitchen(algorithm):
    # The first search in a kitchen runs on the full ranking and takes each
    # failed candidate the kitchen cannot complete back out of its stats; a
    # later search there, or one with a trace, filters the ranking instead.
    # A profile of one rate leaves the other motions without one.
    for seed in range(400):
        graph, goal, kitchen, profile = random_universe(random.Random(seed))
        for rates in (profile, MotionProfile(dict([min(profile.rates.items())]))):
            config = RetrievalConfig(algorithm=algorithm, motion_profile=rates)
            fresh = build_graph(graph.units)
            first = _answer(fresh, goal, kitchen, config)
            assert kitchen.keys in fresh._derived.kitchens
            assert _answer(fresh, goal, kitchen, config) == first, seed
            traced = _answer(build_graph(graph.units), goal, kitchen, config, trace=[])
            assert traced == first, seed


# --- determinism and config -----------------------------------------------


def test_retrieval_is_deterministic():
    for seed in (7, 99):
        graph, goal, kitchen, profile = random_universe(random.Random(seed))
        for algorithm in (IDS, GBFS_SUCCESS, GBFS_INPUTS):
            config = RetrievalConfig(algorithm=algorithm, motion_profile=profile)
            results = []
            for _ in range(2):
                try:
                    tree, _ = retrieve(graph, goal, kitchen, config)
                    results.append(serialize_foon(tree.steps))
                except TaskTreeNotFound as miss:
                    results.append(f"not-found: {miss.reason}")
            assert results[0] == results[1]


def test_config_rejects_nonsense():
    with pytest.raises(ValueError):
        RetrievalConfig(algorithm="a-star")
    with pytest.raises(ValueError):
        RetrievalConfig(max_depth=0)


@pytest.mark.parametrize(
    "fields",
    [
        {"backtrack": "no"},
        {"backtrack": 0},
        {"backtrack": None},
        {"algorithm": GBFS_INPUTS, "motion_profile": "not a profile"},
        {"algorithm": GBFS_SUCCESS, "motion_profile": {"chop": 0.5}},
    ],
)
def test_config_rejects_a_backtrack_or_profile_of_the_wrong_type(fields):
    with pytest.raises(ValueError):
        RetrievalConfig(**fields)


@pytest.mark.parametrize("max_depth", [2.5, 3.0, True, "3", None])
def test_config_rejects_a_max_depth_that_is_not_an_int(max_depth):
    with pytest.raises(ValueError):
        RetrievalConfig(max_depth=max_depth)
