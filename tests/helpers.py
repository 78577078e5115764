"""Shared test utilities: fixture loading and universe generators."""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

from foon import (
    FoonGraph,
    FunctionalUnit,
    Kitchen,
    Motion,
    MotionProfile,
    ObjectNode,
    StateDescriptor,
    build_graph,
    parse_foon,
    parse_goal,
    parse_kitchen,
    parse_motion_profile,
)

FIXTURE_DIR = Path(__file__).parent / "fixtures"

# Every on-disk fixture family: <name>.foon.txt / .kitchen.txt / .goal.txt / .motions.txt
FIXTURE_NAMES = [
    "chop_onion",
    "ice_cup",
    "cold_water",
    "freeze_thaw",
    "diamond",
    "dead_end",
]


@dataclass
class Universe:
    name: str
    graph: FoonGraph
    kitchen: Kitchen
    goal: ObjectNode
    profile: MotionProfile


def fixture_path(name: str, kind: str) -> Path:
    return FIXTURE_DIR / f"{name}.{kind}.txt"


def load_universe(name: str) -> Universe:
    units, diagnostics = parse_foon(fixture_path(name, "foon").read_text())
    errors = [d for d in diagnostics if d.severity == "error"]
    assert not errors, f"fixture {name} failed to parse: {errors}"
    return Universe(
        name=name,
        graph=build_graph(units),
        kitchen=parse_kitchen(fixture_path(name, "kitchen").read_text()),
        goal=parse_goal(fixture_path(name, "goal").read_text()),
        profile=parse_motion_profile(fixture_path(name, "motions").read_text()),
    )


_NAMES = [
    "apple", "broth", "cup", "dough", "egg", "flour",
    "grater", "honey", "ice", "jam", "kettle", "lemon",
]
_STATE_LABELS = ["whole", "chopped", "warm", "cold", "empty", "clean", "dirty", "mixed"]
_MOTIONS = ["chop", "pour", "mix", "heat", "scoop", "strain"]


def _random_node(rng: random.Random) -> ObjectNode:
    name = rng.choice(_NAMES)
    style = rng.randrange(5)
    if style == 0:
        states: set[StateDescriptor] = set()
    elif style in (1, 2):
        states = {StateDescriptor(rng.choice(_STATE_LABELS))}
    elif style == 3:
        states = {StateDescriptor("in", container=rng.choice(_NAMES))}
    else:
        picked = rng.sample(_NAMES, rng.randint(1, 2))
        states = {StateDescriptor("contains", contents=frozenset(picked))}
    if states and rng.random() < 0.2:
        states.add(StateDescriptor(rng.choice(_STATE_LABELS)))
    return ObjectNode(name, frozenset(states), rng.randint(0, 1))


def random_universe(
    rng: random.Random, max_units: int = 20
) -> tuple[FoonGraph, ObjectNode, Kitchen, MotionProfile]:
    """A random solvable-or-not universe of at most ``max_units`` units.

    Nodes are drawn from a small per-universe pool so keys recur across
    units, producing shared subgoals, alternative producers, and cycles.
    The goal is always a known node (an output, or occasionally a kitchen
    item), and the motion profile covers every motion label.
    """
    pool: list[ObjectNode] = []
    seen: set[str] = set()
    pool_size = rng.randint(3, 12)
    while len(pool) < pool_size:
        node = _random_node(rng)
        key = node.key
        if key not in seen:
            seen.add(key)
            pool.append(node)
    count = rng.randint(1, max_units)
    units = []
    for index in range(count):
        inputs = rng.sample(pool, rng.randint(1, min(3, len(pool))))
        outputs = rng.sample(pool, rng.randint(1, min(2, len(pool))))
        units.append(
            FunctionalUnit(
                tuple(inputs), Motion(rng.choice(_MOTIONS)), tuple(outputs), index
            )
        )
    graph = build_graph(units)
    kitchen = Kitchen(tuple(rng.sample(pool, rng.randint(1, max(1, len(pool) // 2)))))
    output_nodes = [node for unit in graph.units for node in unit.outputs]
    if kitchen.items and rng.random() < 0.1:
        goal: ObjectNode = rng.choice(kitchen.items)
    else:
        goal = rng.choice(output_nodes)
    profile = MotionProfile(
        {motion: round(rng.uniform(0.05, 1.0), 2) for motion in _MOTIONS}
    )
    return graph, goal, kitchen, profile


def cycle_universe(
    length: int,
) -> tuple[FoonGraph, ObjectNode, Kitchen, MotionProfile]:
    """A pure producer cycle of ``length`` units with an unreachable goal."""
    nodes = [
        ObjectNode(f"element {i}", frozenset({StateDescriptor("charged")}))
        for i in range(length)
    ]
    units = [
        FunctionalUnit((nodes[(i + 1) % length],), Motion("transmute"), (nodes[i],), i)
        for i in range(length)
    ]
    graph = build_graph(units)
    kitchen = Kitchen((ObjectNode("pebble"),))
    return graph, nodes[0], kitchen, MotionProfile({"transmute": 0.5})
