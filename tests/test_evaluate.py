"""Metrics arithmetic, the enumeration oracle, and algorithm comparison."""

import json
import random

import pytest

from foon import (
    GBFS_INPUTS,
    GBFS_SUCCESS,
    IDS,
    Kitchen,
    MotionProfile,
    ObjectNode,
    OracleCapExceededError,
    StateDescriptor,
    TaskTree,
    UnknownGoalError,
    compare_algorithms,
    enumerate_all_task_trees,
    retrieve,
    tree_metrics,
)
from foon.evaluate import ORACLE_CAP, format_table

from helpers import cycle_universe, load_universe, random_universe


# --- tree_metrics ----------------------------------------------------------


def test_empty_tree_metrics_are_exact():
    profile = MotionProfile({"chop": 0.5})
    metrics = tree_metrics(TaskTree((), "cup|empty"), profile, kitchen=Kitchen())
    assert metrics.unit_count == 0
    assert metrics.success_product == 1.0
    assert metrics.success_min == 1.0
    assert metrics.max_chain_depth == 0
    assert metrics.leaf_count == 0


def test_metrics_without_profile_skip_success_fields():
    universe = load_universe("cold_water")
    tree, _ = retrieve(universe.graph, universe.goal, universe.kitchen)
    metrics = tree_metrics(tree, kitchen=universe.kitchen)
    assert metrics.success_product is None
    assert metrics.success_min is None
    assert metrics.unit_count == 2
    assert metrics.max_chain_depth == 2


def test_two_step_chain_metrics():
    universe = load_universe("cold_water")
    tree, _ = retrieve(universe.graph, universe.goal, universe.kitchen)
    metrics = tree_metrics(tree, universe.profile, kitchen=universe.kitchen)
    assert metrics.unit_count == 2
    assert abs(metrics.success_product - 0.95 * 0.8) < 1e-12
    assert metrics.success_min == 0.8
    assert metrics.max_chain_depth == 2
    # Leaves: water in its bottle and the empty cup, both from the kitchen.
    assert metrics.leaf_count == 2


def test_success_product_is_step_order_insensitive():
    universe = load_universe("diamond")
    tree, _ = retrieve(universe.graph, universe.goal, universe.kitchen)
    shuffled = TaskTree(tuple(reversed(tree.steps)), tree.goal_key)
    forward = tree_metrics(tree, universe.profile, kitchen=universe.kitchen)
    backward = tree_metrics(shuffled, universe.profile, kitchen=universe.kitchen)
    assert forward.success_product == backward.success_product
    assert forward.success_min == backward.success_min


def test_kitchen_awareness_changes_leaf_accounting():
    universe = load_universe("cold_water")
    tree, _ = retrieve(universe.graph, universe.goal, universe.kitchen)
    with_kitchen = tree_metrics(tree, kitchen=universe.kitchen)
    assert with_kitchen.max_chain_depth == 2
    assert with_kitchen.leaf_count == 2


def test_kitchen_available_intermediate_shortens_chain():
    # If the kitchen already holds the intermediate cup of water, the chill
    # step's input is a depth-zero leaf even though the pour step (also in
    # the tree) produces the same key.
    universe = load_universe("cold_water")
    tree, _ = retrieve(universe.graph, universe.goal, universe.kitchen)
    stocked = Kitchen(
        universe.kitchen.items
        + (
            ObjectNode(
                "cup", frozenset({StateDescriptor("contains", contents=frozenset({"water"}))})
            ),
        )
    )
    metrics = tree_metrics(tree, kitchen=stocked)
    assert metrics.max_chain_depth == 1


# --- enumeration oracle ----------------------------------------------------


def test_oracle_finds_both_ice_cup_trees():
    universe = load_universe("ice_cup")
    trees = enumerate_all_task_trees(universe.graph, universe.goal, universe.kitchen)
    assert len(trees) == 2
    assert sorted(tree.steps[0].motion.label for tree in trees) == ["pour", "scoop"]
    assert all(len(tree.steps) == 1 for tree in trees)


def test_oracle_finds_single_chain():
    universe = load_universe("cold_water")
    trees = enumerate_all_task_trees(universe.graph, universe.goal, universe.kitchen)
    assert len(trees) == 1
    assert [s.motion.label for s in trees[0].steps] == ["pour", "chill"]


def test_oracle_finds_no_tree_in_cycle():
    universe = load_universe("freeze_thaw")
    assert enumerate_all_task_trees(universe.graph, universe.goal, universe.kitchen) == []


def test_oracle_yields_one_empty_tree_for_satisfied_goal():
    universe = load_universe("ice_cup")
    goal = ObjectNode("cup", frozenset({StateDescriptor("empty")}))
    trees = enumerate_all_task_trees(universe.graph, goal, universe.kitchen)
    assert len(trees) == 1
    assert trees[0].steps == ()


def test_oracle_enumerates_diamond_routes():
    universe = load_universe("diamond")
    trees = enumerate_all_task_trees(universe.graph, universe.goal, universe.kitchen)
    assert len(trees) == 2
    depths = sorted(
        tree_metrics(tree, kitchen=universe.kitchen).max_chain_depth for tree in trees
    )
    assert depths == [2, 3]


def test_oracle_refuses_oversized_universes():
    graph, goal, kitchen, _ = cycle_universe(ORACLE_CAP)
    assert enumerate_all_task_trees(graph, goal, kitchen) == []
    graph, goal, kitchen, _ = cycle_universe(ORACLE_CAP + 1)
    with pytest.raises(OracleCapExceededError, match="universe has 65 units, oracle cap is 64"):
        enumerate_all_task_trees(graph, goal, kitchen)


def test_oracle_output_is_sorted_and_deduplicated():
    for seed in (3, 11, 29):
        graph, goal, kitchen, _ = random_universe(random.Random(seed))
        trees = enumerate_all_task_trees(graph, goal, kitchen)
        forms = [tree.canonical_form() for tree in trees]
        assert len(forms) == len(set(forms))
        keyed = [(len(t.steps), t.canonical_form()) for t in trees]
        assert keyed == sorted(keyed)


# --- compare_algorithms ----------------------------------------------------


def test_compare_reports_all_three_algorithms():
    universe = load_universe("ice_cup")
    report = compare_algorithms(
        universe.graph, universe.goal, universe.kitchen, universe.profile, fixture="ice_cup"
    )
    runs = report["algorithms"]
    assert list(runs) == [IDS, GBFS_SUCCESS, GBFS_INPUTS]
    assert runs[GBFS_SUCCESS]["metrics"]["success_product"] == 0.9
    assert runs[GBFS_INPUTS]["metrics"]["success_product"] == 0.6
    assert runs[IDS]["metrics"]["unit_count"] == 1
    for run in runs.values():
        assert run["outcome"] == "found"
        assert run["stats"]["peak_open_set"] >= 1
    timed = compare_algorithms(
        universe.graph, universe.goal, universe.kitchen, universe.profile, timings=True
    )
    for run in timed["algorithms"].values():
        assert run["wall_ms"] >= 0.0


def test_compare_records_not_found_outcomes():
    universe = load_universe("freeze_thaw")
    report = compare_algorithms(
        universe.graph, universe.goal, universe.kitchen, universe.profile
    )
    for run in report["algorithms"].values():
        assert run["outcome"] == "not-found"
        assert run["metrics"] is None


def test_compare_propagates_unknown_goal():
    universe = load_universe("ice_cup")
    stranger = ObjectNode("teapot")
    with pytest.raises(UnknownGoalError):
        compare_algorithms(universe.graph, stranger, universe.kitchen, universe.profile)


def test_report_json_dict_is_serializable_and_stable():
    universe = load_universe("diamond")
    report = compare_algorithms(
        universe.graph, universe.goal, universe.kitchen, universe.profile, fixture="diamond"
    )
    text = json.dumps(report, indent=2, sort_keys=True)
    assert "wall_ms" not in text
    assert json.loads(text)["fixture"] == "diamond"
    assert set(report["algorithms"]) == {IDS, GBFS_SUCCESS, GBFS_INPUTS}
    timed = compare_algorithms(
        universe.graph, universe.goal, universe.kitchen, universe.profile, timings=True
    )
    assert "wall_ms" in timed["algorithms"][IDS]


def test_report_table_lines_up():
    universe = load_universe("ice_cup")
    report = compare_algorithms(
        universe.graph, universe.goal, universe.kitchen, universe.profile
    )
    table = format_table(report)
    lines = table.splitlines()
    assert len({len(line) for line in lines}) == 1  # constant width
    assert "wall ms" not in table
    assert "success product" in table
    assert "0.9000" in table
    timed = format_table(compare_algorithms(
        universe.graph, universe.goal, universe.kitchen, universe.profile, timings=True
    ))
    assert "wall ms" in timed


# --- cross-checks between retrieval and the oracle ---------------------------


def test_fixture_retrievals_appear_in_oracle_output():
    from foon import ALGORITHMS, RetrievalConfig, TaskTreeNotFound, retrieve, validate_tree

    for name in ("chop_onion", "ice_cup", "cold_water", "diamond", "dead_end"):
        universe = load_universe(name)
        solutions = {
            tree.canonical_form()
            for tree in enumerate_all_task_trees(
                universe.graph, universe.goal, universe.kitchen
            )
        }
        for algorithm in ALGORITHMS:
            config = RetrievalConfig(algorithm=algorithm, motion_profile=universe.profile)
            tree, _ = retrieve(universe.graph, universe.goal, universe.kitchen, config)
            ok, problems = validate_tree(tree, universe.graph, universe.kitchen)
            assert ok, (name, algorithm, problems)
            assert tree.canonical_form() in solutions, (name, algorithm)


def test_ids_matches_oracle_minimum_on_fixtures():
    for name in ("chop_onion", "ice_cup", "cold_water", "diamond", "dead_end"):
        universe = load_universe(name)
        trees = enumerate_all_task_trees(universe.graph, universe.goal, universe.kitchen)
        best = min(
            tree_metrics(tree, kitchen=universe.kitchen).max_chain_depth for tree in trees
        )
        found, _ = retrieve(universe.graph, universe.goal, universe.kitchen)
        assert tree_metrics(found, kitchen=universe.kitchen).max_chain_depth == best
