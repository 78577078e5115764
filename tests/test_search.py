"""Retrieval algorithms: ordering, depth limits, backtracking, termination."""

import random

import pytest

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
    except TaskTreeNotFound as miss:  # freeze_thaw
        stats = miss.stats
    deepest = {"cold_water": 2, "freeze_thaw": 2, "diamond": 2}.get(name, 1)
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
        else "greedy search exhausted every candidate ordering after 2 unit expansions"
    )


@pytest.mark.parametrize("length", [3, 10, 100])
def test_cycles_terminate(length):
    graph, goal, kitchen, profile = cycle_universe(length)
    for algorithm in (IDS, GBFS_SUCCESS, GBFS_INPUTS):
        config = RetrievalConfig(algorithm=algorithm, motion_profile=profile)
        with pytest.raises(TaskTreeNotFound):
            retrieve(graph, goal, kitchen, config)


# --- deepening stops once its limit cuts nothing ---------------------------


def _plain_unit(inputs, motion, output, index):
    return FunctionalUnit(
        tuple(ObjectNode(name) for name in inputs), Motion(motion), (ObjectNode(output),), index
    )


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


@pytest.mark.xfail(
    strict=True,
    raises=RecursionError,
    reason="D2: the recursive resolver overflows the stack on a 600-unit chain",
)
def test_deep_chain_resolves_for_every_algorithm():
    nodes = [ObjectNode(f"n{i}") for i in range(601)]
    units = [
        FunctionalUnit((nodes[i],), Motion("step"), (nodes[i + 1],), i) for i in range(600)
    ]
    graph, kitchen = build_graph(units), Kitchen((nodes[0],))
    for algorithm in (GBFS_SUCCESS, GBFS_INPUTS, IDS):
        config = RetrievalConfig(
            algorithm=algorithm,
            max_depth=600,
            motion_profile=MotionProfile({"step": 0.5}),
        )
        try:
            tree, _ = retrieve(graph, nodes[-1], kitchen, config)
        except RecursionError as overflow:
            # Drop the thousand-frame traceback, which pytest takes seconds to render.
            raise RecursionError(f"{algorithm}: {overflow}") from None
        assert len(tree.steps) == 600


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
