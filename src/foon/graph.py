"""Core model for FOON-style manipulation knowledge graphs.

A universe is a collection of functional units.  Each unit pairs one motion
with the object nodes it consumes (inputs) and the object nodes it produces
(outputs).  Object nodes are identified by ``ObjectNode.key``, a text key
built once from the normalized object name plus its sorted state
descriptors; the in-motion flag is deliberately left out of the identity so
that the same object can chain from one unit's output into another unit's
input.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator

from .errors import EmptyUniverseError, MissingMotionRateError


def normalize(text: str) -> str:
    """Lowercase, strip, and collapse internal whitespace runs to one space."""
    return " ".join(text.lower().split())


@dataclass(frozen=True)
class StateDescriptor:
    """One state annotation on an object node.

    A state is a bare label ("whole"), a label with a containing object
    ("in [chopping board]"), or a label with a contents list
    ("contains {chopped onion}").  Container and contents are mutually
    exclusive.  All text is normalized on construction.
    """

    label: str
    container: str | None = None
    contents: frozenset[str] | None = None

    def __post_init__(self) -> None:
        label = normalize(self.label)
        if not label:
            raise ValueError("state label must be non-empty")
        if self.container is not None and self.contents is not None:
            raise ValueError("a state may carry a container or contents, not both")
        container = None
        if self.container is not None:
            container = normalize(self.container)
            if not container:
                raise ValueError("container name must be non-empty")
        contents = None
        if self.contents is not None:
            contents = frozenset(normalize(item) for item in self.contents)
            if not contents or "" in contents:
                raise ValueError("contents must be a non-empty set of non-empty names")
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "container", container)
        object.__setattr__(self, "contents", contents)

    def serial(self) -> str:
        """Canonical single-token form, used inside node keys."""
        if self.container is not None:
            return f"{self.label}[{self.container}]"
        if self.contents is not None:
            return self.label + "{" + ",".join(sorted(self.contents)) + "}"
        return self.label

    def display(self) -> str:
        """Reader-friendly form, used in DOT labels."""
        if self.container is not None:
            return f"{self.label} [{self.container}]"
        if self.contents is not None:
            return self.label + " {" + ", ".join(sorted(self.contents)) + "}"
        return self.label


@dataclass(frozen=True)
class ObjectNode:
    """An object in a particular set of states.

    ``key`` is the node's identity, computed once on construction from the
    normalized name plus the sorted state serials: ``onions|whole``,
    ``onions|chopped+in[chopping board]``, ``cup|contains{ice}``; a
    stateless node keys as ``chopping board|``.  ``in_motion`` mirrors the
    0/1 flag on object lines; it is preserved for round-tripping but does not
    participate in node identity.
    """

    name: str
    states: frozenset[StateDescriptor] = frozenset()
    in_motion: int = 0
    key: str = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        name = normalize(self.name)
        if not name:
            raise ValueError("object name must be non-empty")
        if self.in_motion not in (0, 1):
            raise ValueError("in-motion flag must be 0 or 1")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "states", frozenset(self.states))
        serials = "+".join(state.serial() for state in self.sorted_states())
        object.__setattr__(self, "key", f"{name}|{serials}")

    def sorted_states(self) -> tuple[StateDescriptor, ...]:
        return tuple(sorted(self.states, key=StateDescriptor.serial))


@dataclass(frozen=True)
class Motion:
    """The manipulation a functional unit performs."""

    label: str
    extras: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        label = normalize(self.label)
        if not label:
            raise ValueError("motion label must be non-empty")
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "extras", tuple(self.extras))


def _node_lines(node: ObjectNode) -> list[str]:
    """Tab-delimited lines for one object block, states in canonical order."""
    lines = [f"O\t{node.name}\t{node.in_motion}"]
    for state in node.sorted_states():
        if state.container is not None:
            lines.append(f"S\t{state.label}\t[{state.container}]")
        elif state.contents is not None:
            lines.append("S\t" + state.label + "\t{" + ",".join(sorted(state.contents)) + "}")
        else:
            lines.append(f"S\t{state.label}")
    return lines


@dataclass(frozen=True)
class FunctionalUnit:
    """Input object nodes, one motion, output object nodes.

    The input and output node keys are stored once on construction, like
    ``ObjectNode.key``; they take no part in equality or hashing.
    """

    inputs: tuple[ObjectNode, ...]
    motion: Motion
    outputs: tuple[ObjectNode, ...]
    source_index: int = 0
    _input_keys: tuple[str, ...] = field(init=False, repr=False, compare=False)
    _output_keys: tuple[str, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "inputs", tuple(self.inputs))
        object.__setattr__(self, "outputs", tuple(self.outputs))
        if not self.inputs:
            raise ValueError("a functional unit needs at least one input object")
        if not self.outputs:
            raise ValueError("a functional unit needs at least one output object")
        object.__setattr__(self, "_input_keys", tuple(node.key for node in self.inputs))
        object.__setattr__(self, "_output_keys", tuple(node.key for node in self.outputs))

    def input_keys(self) -> tuple[str, ...]:
        return self._input_keys

    def output_keys(self) -> tuple[str, ...]:
        return self._output_keys

    def to_text(self) -> str:
        """Canonical tab-delimited block (ends with a newline, no separator).

        Excludes ``source_index``, so two units read from different places
        but describing the same transformation render identically; this is
        the content identity used for deduplication.
        """
        lines: list[str] = []
        for node in self.inputs:
            lines.extend(_node_lines(node))
        lines.append("\t".join(("M", self.motion.label, *self.motion.extras)))
        for node in self.outputs:
            lines.extend(_node_lines(node))
        return "\n".join(lines) + "\n"


@dataclass
class MotionProfile:
    """Success rates per motion label, with an optional fallback rate."""

    rates: dict[str, float] = field(default_factory=dict)
    default_rate: float | None = None

    def __post_init__(self) -> None:
        cleaned: dict[str, float] = {}
        for label, rate in self.rates.items():
            key = normalize(label)
            value = float(rate)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"success rate for {key!r} outside [0, 1]: {rate}")
            cleaned[key] = value
        self.rates = cleaned
        if self.default_rate is not None:
            fallback = float(self.default_rate)
            if not 0.0 <= fallback <= 1.0:
                raise ValueError(f"default rate outside [0, 1]: {self.default_rate}")
            self.default_rate = fallback

    def rate_for(self, label: str) -> float:
        """Success rate for a motion label, else ``default_rate``.

        Raises MissingMotionRateError when the label is missing and the
        profile has no default rate.
        """
        key = normalize(label)
        if key in self.rates:
            return self.rates[key]
        if self.default_rate is not None:
            return self.default_rate
        raise MissingMotionRateError(
            f"no success rate for motion {key!r} and no default rate given"
        )


@dataclass
class Kitchen:
    """The object nodes currently available; duplicates collapse by key.

    Availability is exact: ``key in kitchen`` holds only for an item with
    that name and full state set; an item whose states merely include the
    requested ones does not count.  ``keys`` is the frozenset of item keys.
    """

    items: tuple[ObjectNode, ...] = ()

    def __post_init__(self) -> None:
        unique: dict[str, ObjectNode] = {}
        for node in self.items:
            unique.setdefault(node.key, node)
        self.items = tuple(unique.values())
        self.keys = frozenset(unique)

    def __contains__(self, key: str) -> bool:
        return key in self.keys

    def __len__(self) -> int:
        return len(self.items)

    def __iter__(self) -> Iterator[ObjectNode]:
        return iter(self.items)


@dataclass
class FoonGraph:
    """A deduplicated universe of units plus the producers index.

    ``producers`` maps every output node key to the units that produce it, in
    file order.  Treat instances as immutable once built.
    """

    units: tuple[FunctionalUnit, ...]
    producers: dict[str, tuple[FunctionalUnit, ...]]
    duplicates_dropped: int = 0


def build_graph(units: Iterable[FunctionalUnit]) -> FoonGraph:
    """Index functional units into a FoonGraph.

    Later units whose content (ignoring ``source_index``) duplicates an
    earlier one are dropped and counted.  Raises EmptyUniverseError when no
    units remain.
    """
    kept: list[FunctionalUnit] = []
    seen: set[str] = set()
    dropped = 0
    for unit in units:
        form = unit.to_text()
        if form in seen:
            dropped += 1
            continue
        seen.add(form)
        kept.append(unit)
    if not kept:
        raise EmptyUniverseError("empty universe: no functional units")
    producers: dict[str, list[FunctionalUnit]] = {}
    for unit in kept:
        for node in unit.outputs:
            producers.setdefault(node.key, []).append(unit)
    return FoonGraph(
        units=tuple(kept),
        producers={key: tuple(value) for key, value in producers.items()},
        duplicates_dropped=dropped,
    )


@dataclass
class TaskTree:
    """An executable sequence of functional units ending at the goal.

    ``steps`` is topologically ordered: every step's inputs are satisfied by
    the kitchen or by outputs of earlier steps.  An empty tree means the
    kitchen already satisfies the goal.
    """

    steps: tuple[FunctionalUnit, ...]
    goal_key: str
    algorithm_tag: str = ""

    def __post_init__(self) -> None:
        self.steps = tuple(self.steps)

    def canonical_form(self) -> str:
        """Order-insensitive identity: sorted canonical unit blocks."""
        return "//\n".join(sorted(unit.to_text() for unit in self.steps))

    def __len__(self) -> int:
        return len(self.steps)
