"""Seeded universe generators, their text rendering, and the answer reference.

Everything here works on the generator's own integer form and imports
nothing from ``foon``: node ``i`` is the object ``obj{i}`` with one state, a
unit is ``(inputs, motion, outputs)`` over node ids, and a kitchen is a set
of node ids.  The reference is Knuth's forward AND/OR fixpoint (Knuth 1977,
"A generalization of Dijkstra's algorithm", IPL 6(1)):

    level(k) = 0 for a kitchen node,
    level(k) = min over producers u of 1 + max(level(inputs of u)),

which gives reachability and the minimum unit-chain depth of any task tree.
``check_tree`` independently replays a returned tree against the same form.
"""

from __future__ import annotations

import functools
import heapq
import random
from dataclasses import dataclass, field

MOTION_RATES = {"chop": 0.9, "pour": 0.8, "mix": 0.7, "heat": 0.6}
STATE_LABELS = ("whole", "chopped", "sliced", "boiled", "mixed", "cold")
CONTAINERS = ("bowl", "pot", "pan")
KITCHEN_BASE = 5  # the first core nodes are in every kitchen


@dataclass
class Universe:
    """A generated universe in integer form plus its rendered object lines.

    The generators draw the structure (which units exist, their inputs,
    outputs and motions, in file order) from the ``rng`` they are given.
    The surface (each node's state, each occurrence's in-motion flag) comes
    from ``surface_seed``; it changes the text but no search decision.
    """

    surface_seed: object = 0
    node_lines: list[str] = field(default_factory=list)  # "O..\nS..\n" per node
    units: list[tuple[tuple[int, ...], str, tuple[int, ...]]] = field(default_factory=list)
    flags: list[tuple[tuple[int, ...], tuple[int, ...]]] = field(default_factory=list)
    base: list[int] = field(default_factory=list)  # node ids in every kitchen
    groups: dict[str, list[int]] = field(default_factory=dict)  # component -> node ids

    def __post_init__(self) -> None:
        self.surface = random.Random(self.surface_seed)

    def add_node(self, group: str) -> int:
        node = len(self.node_lines)
        if self.surface.random() < 0.15:
            state = f"S\tin\t[{self.surface.choice(CONTAINERS)}]"
        else:
            state = f"S\t{self.surface.choice(STATE_LABELS)}"
        self.node_lines.append(f"O\tobj{node}\t{{flag}}\n{state}\n")
        self.groups.setdefault(group, []).append(node)
        return node

    def add_unit(self, rng: random.Random, inputs, outputs) -> None:
        inputs, outputs = tuple(inputs), tuple(outputs)
        self.units.append((inputs, rng.choice(tuple(MOTION_RATES)), outputs))
        self.flags.append((
            tuple(int(self.surface.random() < 0.3) for _ in inputs),
            tuple(int(self.surface.random() < 0.3) for _ in outputs),
        ))

    def node_text(self, node: int, flag: int = 0) -> str:
        return self.node_lines[node].replace("{flag}", str(flag), 1)

    def unit_text(self, index: int) -> str:
        """One unit block in canonical form, without the ``//`` separator."""
        inputs, motion, outputs = self.units[index]
        in_flags, out_flags = self.flags[index]
        return (
            "".join(self.node_text(n, f) for n, f in zip(inputs, in_flags))
            + f"M\t{motion}\n"
            + "".join(self.node_text(n, f) for n, f in zip(outputs, out_flags))
        )

    def foon_text(self) -> str:
        return "".join(self.unit_text(i) + "//\n" for i in range(len(self.units)))

    def kitchen_text(self, kitchen) -> str:
        return "\n".join(self.node_text(n) for n in sorted(kitchen))

    def goal_text(self, node: int) -> str:
        return self.node_text(node)

    @functools.cached_property
    def text_ids(self) -> dict[str, int]:
        """Unit text -> id of the first unit with that text (the one kept
        when ``build_graph`` drops later duplicates).  Read it only once
        the universe is complete."""
        first: dict[str, int] = {}
        for index in range(len(self.units)):
            first.setdefault(self.unit_text(index), index)
        return first


def motions_text() -> str:
    return "".join(f"{motion}\t{rate}\n" for motion, rate in MOTION_RATES.items())


def add_layered(universe: Universe, rng: random.Random, n_units: int) -> list[int]:
    """The layered core: ``n/2`` nodes; each unit makes node ``out >= 5`` from
    one to three lower-numbered nodes, and 5% add one input at or above
    ``out`` (a back edge)."""
    nodes = [universe.add_node("core") for _ in range(max(n_units // 2, KITCHEN_BASE + 2))]
    for _ in range(n_units):
        out = rng.randrange(KITCHEN_BASE, len(nodes))
        inputs = rng.sample(range(out), rng.randint(1, min(3, out)))
        if rng.random() < 0.05 and out + 1 < len(nodes):
            inputs.append(rng.randrange(out + 1, len(nodes)))
        universe.add_unit(rng, (nodes[i] for i in inputs), (nodes[out],))
    universe.base.extend(nodes[:KITCHEN_BASE])
    return nodes


def add_chain(universe: Universe, rng: random.Random, length: int) -> None:
    """A linear chain ``c0 -> c1 -> ... -> c_length`` from a kitchen item."""
    start = universe.add_node("chain_start")
    universe.base.append(start)
    previous = start
    for _ in range(length):
        node = universe.add_node("chain")
        universe.add_unit(rng, (previous,), (node,))
        previous = node


def add_ring(universe: Universe, rng: random.Random, size: int, entry: int | None) -> None:
    """A producer ring ``r_i <- r_{i+1}``; with ``entry`` one extra unit makes
    ``r_0`` from that node, otherwise no ring node is reachable."""
    group = "ring_open" if entry is not None else "ring_closed"
    ring = [universe.add_node(group) for _ in range(size)]
    for i in range(size):
        universe.add_unit(rng, (ring[(i + 1) % size],), (ring[i],))
    if entry is not None:
        universe.add_unit(rng, (entry,), (ring[0],))


def add_fan_in(universe: Universe, rng: random.Random, sources: list[int], width: int) -> None:
    """One unit with ``width`` inputs drawn from ``sources``."""
    node = universe.add_node("fan_in")
    universe.add_unit(rng, rng.sample(sources, width), (node,))


def add_duplicates(universe: Universe, rng: random.Random, count: int) -> None:
    """Exact copies of earlier units, which ``build_graph`` drops."""
    for _ in range(count):
        index = rng.randrange(len(universe.units))
        universe.units.append(universe.units[index])
        universe.flags.append(universe.flags[index])


def mixed_universe(seed, n_units: int, surface_seed=0) -> Universe:
    """The layered core plus minority components, about ``n_units`` units.

    Shares (of ``n_units``): 72% layered core, 26% linear chains (the longest
    is a fifth of the universe, about 1k units at 5k), 1.6% producer rings
    (two entered from a reachable core node, two closed), four wide fan-in
    units (two over reachable core nodes, two over any core nodes) and 0.5%
    duplicates.
    """
    rng = random.Random(seed)
    universe = Universe(surface_seed)
    core = add_layered(universe, rng, int(n_units * 0.72))
    levels = min_levels(universe, universe.base)
    reachable = [n for n in core if n in levels]
    for share in (0.20, 0.04, 0.02):
        add_chain(universe, rng, max(2, int(n_units * share)))
    ring_size = max(3, n_units // 250)
    for i in range(4):
        add_ring(universe, rng, ring_size, rng.choice(reachable) if i % 2 == 0 else None)
    for i in range(4):
        sources = reachable if i % 2 == 0 else core
        add_fan_in(universe, rng, sources, min(max(4, n_units // 40 * (i + 1)), len(sources)))
    add_duplicates(universe, rng, n_units // 200)
    return universe


def random_small(rng: random.Random, max_units: int = 20) -> tuple[Universe, set[int], int]:
    """A small random universe in the style of the test suite's
    ``random_universe``: a pool of 3-12 nodes shared by up to ``max_units``
    units, so subgoals recur, producers compete and cycles form.  Returns
    the universe, a kitchen and a goal that some unit outputs (or, one time
    in ten, a kitchen item)."""
    universe = Universe(rng.random())
    pool = [universe.add_node("pool") for _ in range(rng.randint(3, 12))]
    for _ in range(rng.randint(1, max_units)):
        universe.add_unit(
            rng,
            rng.sample(pool, rng.randint(1, min(3, len(pool)))),
            rng.sample(pool, rng.randint(1, min(2, len(pool)))),
        )
    kitchen = set(rng.sample(pool, rng.randint(1, max(1, len(pool) // 2))))
    if rng.random() < 0.1:
        goal = rng.choice(sorted(kitchen))
    else:
        goal = rng.choice([n for _, _, outputs in universe.units for n in outputs])
    return universe, kitchen, goal


def min_levels(universe: Universe, kitchen) -> dict[int, int]:
    """Minimum unit-chain depth of every reachable node (Knuth's fixpoint).

    Nodes are settled in nondecreasing level from a heap; a unit fires when
    its last distinct input settles, at one more than that input's level.
    Kitchen nodes are settled at 0 and never re-derived, as the searches
    satisfy them from the kitchen.  Unreachable nodes are absent.
    """
    consumers: dict[int, list[int]] = {}
    waiting = []
    for index, (inputs, _motion, _outputs) in enumerate(universe.units):
        distinct = set(inputs)
        waiting.append(len(distinct))
        for node in distinct:
            consumers.setdefault(node, []).append(index)
    level: dict[int, int] = {}
    heap = [(0, node) for node in sorted(set(kitchen))]
    while heap:
        depth, node = heapq.heappop(heap)
        if node in level:
            continue
        level[node] = depth
        for index in consumers.get(node, ()):
            waiting[index] -= 1
            if waiting[index] == 0:
                for out in universe.units[index][2]:
                    if out not in level:
                        heapq.heappush(heap, (depth + 1, out))
    return level


def producers_of(universe: Universe) -> set[int]:
    """Node ids that some unit outputs (goals the program knows)."""
    return {node for _, _, outputs in universe.units for node in outputs}


def check_tree(
    universe: Universe, steps: list[int], kitchen, goal: int
) -> tuple[bool, int, str]:
    """Replay a task tree given as unit ids; returns (ok, chain depth, problem).

    A valid tree uses each unit once, satisfies every input from the kitchen
    or an earlier step's output, and ends with a step that outputs the goal
    (an empty tree needs the goal in the kitchen).  Chain depth counts
    kitchen inputs as 0 and otherwise takes the shallowest earlier producer.
    """
    text_ids = universe.text_ids
    used: set[int] = set()
    produced: dict[int, int] = {}
    deepest = 0
    for position, unit in enumerate(steps):
        if not 0 <= unit < len(universe.units):
            return False, 0, f"step {position} is not a unit of the universe"
        first = text_ids[universe.unit_text(unit)]
        if first in used:
            return False, 0, f"step {position} repeats a unit"
        used.add(first)
        inputs, _motion, outputs = universe.units[unit]
        below = 0
        for node in inputs:
            if node in kitchen:
                continue
            if node not in produced:
                return False, 0, f"step {position} input obj{node} is not available"
            below = max(below, produced[node])
        depth = below + 1
        deepest = max(deepest, depth)
        for node in outputs:
            if node not in kitchen:
                produced[node] = min(produced.get(node, depth), depth)
    if steps:
        if goal not in universe.units[steps[-1]][2]:
            return False, deepest, "the last step does not output the goal"
    elif goal not in kitchen:
        return False, 0, "empty tree but the goal is not in the kitchen"
    return True, deepest, ""
