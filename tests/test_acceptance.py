"""End-to-end acceptance checks.

Each test covers one numbered criterion and records a ``criterion N (...):
PASS`` line; the conftest hook prints the scoreboard (with a FAIL line for
any failed criterion) at the end of every run.  Tolerances and time budgets
are asserted inside the tests.
"""

import random
import time

from foon import (
    ALGORITHMS,
    GBFS_INPUTS,
    GBFS_SUCCESS,
    Kitchen,
    RetrievalConfig,
    TaskTree,
    TaskTreeNotFound,
    enumerate_all_task_trees,
    parse_foon,
    retrieve,
    serialize_foon,
    tree_metrics,
    validate_tree,
)
from foon.cli import main

from conftest import ACCEPTANCE_LINES
from helpers import FIXTURE_NAMES, cycle_universe, fixture_path, load_universe, random_universe


def _report(number: int, label: str) -> None:
    ACCEPTANCE_LINES.append(f"criterion {number} ({label}): PASS")


def _sweep_universes():
    """The shared corpus: every fixture plus 100 seeded random universes."""
    for name in FIXTURE_NAMES:
        universe = load_universe(name)
        yield universe.graph, universe.goal, universe.kitchen, universe.profile
    for seed in range(100):
        yield random_universe(random.Random(seed), max_units=20)


def test_criterion_1_parser_fidelity():
    started = time.perf_counter()
    text = fixture_path("chop_onion", "foon").read_text()
    units, diagnostics = parse_foon(text)
    assert not [d for d in diagnostics if d.severity == "error"]
    assert len(units) == 1
    unit = units[0]
    assert len(unit.inputs) == 3
    assert len(unit.outputs) == 3
    assert unit.motion.label == "chop"
    assert [n.name for n in unit.inputs] == ["onions", "knife", "chopping board"]
    onions_out, knife_out, board_out = unit.outputs
    assert {s.serial for s in onions_out.states} == {"chopped", "in[chopping board]"}
    assert {s.serial for s in knife_out.states} == {"dirty"}
    (board_state,) = board_out.states
    assert board_state.contents == frozenset({"chopped onion"})
    reparsed, rediagnostics = parse_foon(serialize_foon(units))
    assert not [d for d in rediagnostics if d.severity == "error"]
    assert [u.to_text() for u in reparsed] == [u.to_text() for u in units]
    assert time.perf_counter() - started < 1.0
    _report(1, "parser fidelity and round-trip")


def test_criterion_2_retrievals_agree_with_oracle():
    started = time.perf_counter()
    violations = []
    for index, (graph, goal, kitchen, profile) in enumerate(_sweep_universes()):
        solutions = {
            tree.canonical_form()
            for tree in enumerate_all_task_trees(graph, goal, kitchen)
        }
        for algorithm in ALGORITHMS:
            config = RetrievalConfig(algorithm=algorithm, motion_profile=profile)
            try:
                tree, _ = retrieve(graph, goal, kitchen, config)
            except TaskTreeNotFound:
                if solutions:
                    violations.append((index, algorithm, "missed existing solution"))
                continue
            ok, problems = validate_tree(tree, graph, kitchen)
            if not ok:
                violations.append((index, algorithm, problems))
            if tree.canonical_form() not in solutions:
                violations.append((index, algorithm, "tree not in oracle output"))
    assert violations == []
    assert time.perf_counter() - started < 60.0
    _report(2, "every retrieval is a valid oracle tree")


def test_criterion_3_ids_reaches_oracle_minimum_depth():
    for index, (graph, goal, kitchen, _profile) in enumerate(_sweep_universes()):
        trees = enumerate_all_task_trees(graph, goal, kitchen)
        if not trees:
            continue
        best = min(
            tree_metrics(tree, kitchen=kitchen).max_chain_depth for tree in trees
        )
        found, _ = retrieve(graph, goal, kitchen)
        got = tree_metrics(found, kitchen=kitchen).max_chain_depth
        assert got == best, (index, got, best)
    _report(3, "iterative deepening minimizes chain depth")


def test_criterion_4_heuristics_pick_their_preferred_unit():
    universe = load_universe("ice_cup")
    by_rate, _ = retrieve(
        universe.graph,
        universe.goal,
        universe.kitchen,
        RetrievalConfig(algorithm=GBFS_SUCCESS, motion_profile=universe.profile),
    )
    (step,) = by_rate.steps
    assert step.motion.label == "scoop"
    assert universe.profile.rate_for(step.motion.label) == 0.9

    by_inputs, _ = retrieve(
        universe.graph,
        universe.goal,
        universe.kitchen,
        RetrievalConfig(algorithm=GBFS_INPUTS, motion_profile=universe.profile),
    )
    (step,) = by_inputs.steps
    assert step.motion.label == "pour"
    assert len(step.inputs) == 2

    # Replay traces from random universes: every choice point must rank its
    # candidates by the heuristic with file order breaking ties.
    for seed in range(40):
        graph, goal, kitchen, profile = random_universe(random.Random(seed))
        for algorithm in (GBFS_SUCCESS, GBFS_INPUTS):
            trace = []
            config = RetrievalConfig(algorithm=algorithm, motion_profile=profile)
            try:
                retrieve(graph, goal, kitchen, config, trace=trace)
            except TaskTreeNotFound:
                pass
            for record in trace:
                pairs = list(record.candidates)
                if algorithm == GBFS_SUCCESS:
                    expected = sorted(
                        pairs, key=lambda p: (-p[1], p[0].source_index)
                    )
                    for unit, score in pairs:
                        assert score == profile.rate_for(unit.motion.label)
                else:
                    expected = sorted(
                        pairs, key=lambda p: (p[1], p[0].source_index)
                    )
                    for unit, score in pairs:
                        assert score == float(len(unit.inputs))
                assert pairs == expected, (seed, algorithm, record.key)
    _report(4, "greedy choices are locally optimal with stable ties")


def test_criterion_5_success_product_arithmetic():
    universe = load_universe("cold_water")
    tree, _ = retrieve(universe.graph, universe.goal, universe.kitchen)
    metrics = tree_metrics(tree, universe.profile, kitchen=universe.kitchen)
    assert metrics.unit_count == 2
    assert abs(metrics.success_product - 0.76) <= 1e-12

    empty = tree_metrics(TaskTree((), "water|in[bottle]"), universe.profile, kitchen=Kitchen())
    assert empty.success_product == 1.0
    assert empty.success_min == 1.0
    _report(5, "success products are exact")


def test_criterion_6_unreachable_goals_fail_fast():
    started = time.perf_counter()
    universe = load_universe("freeze_thaw")
    for algorithm in ALGORITHMS:
        config = RetrievalConfig(algorithm=algorithm, motion_profile=universe.profile)
        try:
            retrieve(universe.graph, universe.goal, universe.kitchen, config)
            raise AssertionError(f"{algorithm} found a tree in a pure cycle")
        except TaskTreeNotFound:
            pass
    assert time.perf_counter() - started < 1.0

    for length in (3, 25, 100):
        graph, goal, kitchen, profile = cycle_universe(length)
        for algorithm in ALGORITHMS:
            config = RetrievalConfig(algorithm=algorithm, motion_profile=profile)
            try:
                retrieve(graph, goal, kitchen, config)
                raise AssertionError("cycle should have no solution")
            except TaskTreeNotFound:
                pass
    _report(6, "cycles terminate with not-found")


def test_criterion_7_cli_products_are_deterministic(tmp_path, capsys):
    def paths(name, kind):
        return str(fixture_path(name, kind))

    retrieve_snapshots = []
    for round_ in ("a", "b"):
        out = tmp_path / f"tree_{round_}.txt"
        dot = tmp_path / f"tree_{round_}.dot"
        blob = tmp_path / f"tree_{round_}.json"
        code = main([
            "retrieve",
            "--foon", paths("diamond", "foon"),
            "--kitchen", paths("diamond", "kitchen"),
            "--goal", paths("diamond", "goal"),
            "--algorithm", "gbfs-success",
            "--motions", paths("diamond", "motions"),
            "--out", str(out), "--dot", str(dot), "--json", str(blob),
        ])
        assert code == 0
        retrieve_snapshots.append(
            (out.read_bytes(), dot.read_bytes(), blob.read_bytes())
        )
    assert retrieve_snapshots[0] == retrieve_snapshots[1]

    compare_snapshots = []
    for round_ in ("a", "b"):
        blob = tmp_path / f"report_{round_}.json"
        code = main([
            "compare",
            "--foon", paths("ice_cup", "foon"),
            "--kitchen", paths("ice_cup", "kitchen"),
            "--goal", paths("ice_cup", "goal"),
            "--motions", paths("ice_cup", "motions"),
            "--json", str(blob),
        ])
        assert code == 0
        compare_snapshots.append(blob.read_bytes())
    assert compare_snapshots[0] == compare_snapshots[1]
    assert b"wall_ms" not in compare_snapshots[0]
    capsys.readouterr()  # swallow the tables printed to stdout
    _report(7, "cli products are byte-identical across runs")


def test_criterion_8_parser_survives_random_bytes():
    rng = random.Random(0xF00D)
    for _ in range(10_000):
        blob = rng.randbytes(rng.randint(0, 200))
        units, diagnostics = parse_foon(blob)
        assert isinstance(units, list)
        assert isinstance(diagnostics, list)
        for diagnostic in diagnostics:
            assert diagnostic.line >= 1
            assert diagnostic.severity in ("error", "warning")
    _report(8, "parser never crashes on arbitrary bytes")
