"""Core model for FOON-style manipulation knowledge graphs.

A universe is a collection of functional units.  Each unit pairs one motion
with the object nodes it consumes (inputs) and the object nodes it produces
(outputs).  Object nodes are identified by ``ObjectNode.key``, a text key
built once from the normalized object name plus its sorted state
descriptors; the in-motion flag is deliberately left out of the identity so
that the same object can chain from one unit's output into another unit's
input.  Units are identified by their content, ``source_index`` aside.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator

from .errors import EmptyUniverseError, MissingMotionRateError


def normalize(text: str) -> str:
    """Lowercase, strip, and collapse internal whitespace runs to one space."""
    return " ".join(text.lower().split())


_RESERVED = frozenset("\\|+[]{}")
_KEY_ESCAPES = str.maketrans({char: "\\" + char for char in _RESERVED})


def _escape(text: str) -> str:
    """Backslash-escape key delimiters; skips ``translate``, which is slow, if none."""
    return text if _RESERVED.isdisjoint(text) else text.translate(_KEY_ESCAPES)


# Sets a frozen field; writing to __dict__ instead would slow every later read.
_setattr = object.__setattr__


@dataclass(frozen=True, init=False)
class StateDescriptor:
    """One state annotation on an object node.

    A state is a bare label ("whole"), a label with a containing object
    ("in [chopping board]"), or a label with a contents list
    ("contains {chopped onion}").  Container and contents are mutually
    exclusive.  All text is normalized on construction.  ``serial`` is the
    canonical single-token form for node keys, with ``\\|+[]{}`` escaped.
    """

    label: str
    container: str | None
    contents: frozenset[str] | None
    serial: str = field(init=False, repr=False, compare=False)

    def __init__(
        self, label: str, container: str | None = None, contents: frozenset[str] | None = None
    ) -> None:
        label = normalize(label)
        if not label:
            raise ValueError("state label must be non-empty")
        if container is not None and contents is not None:
            raise ValueError("a state may carry a container or contents, not both")
        serial = _escape(label)
        if container is not None:
            container = normalize(container)
            if not container:
                raise ValueError("container name must be non-empty")
            serial += f"[{_escape(container)}]"
        elif contents is not None:
            contents = frozenset(normalize(item) for item in contents)
            if not contents or any(not item or "," in item for item in contents):
                raise ValueError("contents must be a non-empty set of names without ','")
            serial += "{" + ",".join(sorted(map(_escape, contents))) + "}"
        _setattr(self, "label", label)
        _setattr(self, "container", container)
        _setattr(self, "contents", contents)
        _setattr(self, "serial", serial)

    def display(self) -> str:
        """Reader-friendly form, used in DOT labels."""
        if self.container is not None:
            return f"{self.label} [{self.container}]"
        if self.contents is not None:
            return self.label + " {" + ", ".join(sorted(self.contents)) + "}"
        return self.label


@dataclass(frozen=True, init=False)
class ObjectNode:
    """An object in a particular set of states.

    ``key`` is the node's identity, computed once on construction from the
    normalized name plus the sorted state serials: ``onions|whole``,
    ``onions|chopped+in[chopping board]``, ``cup|contains{ice}``; a
    stateless node keys as ``chopping board|``.  ``\\|+[]{}`` inside names are
    backslash-escaped (``a|b`` keys as ``a\\|b|``), so two nodes share a key
    exactly when their names and state sets are equal.  A node hashes by its
    key, which equal nodes share.  ``in_motion`` is the 0/1 flag on object
    lines, kept for round-tripping but not in the key.
    """

    name: str
    states: frozenset[StateDescriptor]
    in_motion: int
    key: str = field(init=False, repr=False, compare=False)

    def __init__(
        self, name: str, states: frozenset[StateDescriptor] = frozenset(), in_motion: int = 0
    ) -> None:
        name = normalize(name)
        if not name:
            raise ValueError("object name must be non-empty")
        if in_motion not in (0, 1):
            raise ValueError("in-motion flag must be 0 or 1")
        states = frozenset(states)
        serials = [state.serial for state in states]
        if len(serials) > 1:
            serials.sort()
        _setattr(self, "name", name)
        _setattr(self, "states", states)
        _setattr(self, "in_motion", int(in_motion))
        _setattr(self, "key", f"{_escape(name)}|{'+'.join(serials)}")

    def __hash__(self) -> int:
        return hash(self.key)

    def sorted_states(self) -> tuple[StateDescriptor, ...]:
        return tuple(sorted(self.states, key=lambda state: state.serial))


@dataclass(frozen=True)
class Motion:
    """The manipulation a functional unit performs; ``extras`` are kept verbatim."""

    label: str
    extras: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        label = normalize(self.label)
        if not label:
            raise ValueError("motion label must be non-empty")
        extras = tuple(self.extras)
        # The parser splits a line at tabs and strips its end and every field, so
        # tabs, line breaks, edge whitespace and an empty last extra read back changed.
        if (extras and not extras[-1]) or any(
            "\t" in extra or extra != extra.strip() or "".join(extra.splitlines()) != extra
            for extra in extras
        ):
            raise ValueError(f"motion extras the parser cannot read back: {extras!r}")
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "extras", extras)


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


@dataclass(frozen=True, init=False)
class FunctionalUnit:
    """Input object nodes, one motion, output object nodes.

    Units are equal, and hash equal, when their inputs, motion and outputs
    are; ``source_index`` (the unit's position in its file) is not compared.
    Each field, ``input_keys`` and ``output_keys`` (the nodes' keys) too, is set once.
    """

    inputs: tuple[ObjectNode, ...]
    motion: Motion
    outputs: tuple[ObjectNode, ...]
    source_index: int = field(compare=False)
    input_keys: tuple[str, ...] = field(init=False, repr=False, compare=False)
    output_keys: tuple[str, ...] = field(init=False, repr=False, compare=False)

    def __init__(
        self,
        inputs: tuple[ObjectNode, ...],
        motion: Motion,
        outputs: tuple[ObjectNode, ...],
        source_index: int = 0,
    ) -> None:
        inputs, outputs = tuple(inputs), tuple(outputs)
        if not inputs:
            raise ValueError("a functional unit needs at least one input object")
        if not outputs:
            raise ValueError("a functional unit needs at least one output object")
        _setattr(self, "inputs", inputs)
        _setattr(self, "motion", motion)
        _setattr(self, "outputs", outputs)
        _setattr(self, "source_index", source_index)
        _setattr(self, "input_keys", tuple([node.key for node in inputs]))
        _setattr(self, "output_keys", tuple([node.key for node in outputs]))

    def to_text(self) -> str:
        """The unit's block in the file format (ends with a newline, no separator).

        This is the serialization, without ``source_index``.  Equal units
        render the same text and different units different text.
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

    A unit equal to an earlier one (same content, whatever its
    ``source_index``) is dropped and counted; the first copy is kept.
    Raises EmptyUniverseError when no units remain.
    """
    units = tuple(units)
    kept = tuple(dict.fromkeys(units))
    if not kept:
        raise EmptyUniverseError("empty universe: no functional units")
    producers: dict[str, list[FunctionalUnit]] = {}
    for unit in kept:
        for node in unit.outputs:
            producers.setdefault(node.key, []).append(unit)
    return FoonGraph(
        units=kept,
        producers={key: tuple(value) for key, value in producers.items()},
        duplicates_dropped=len(units) - len(kept),
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
