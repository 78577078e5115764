"""Reading and writing the tab-delimited annotation formats, plus DOT export.

File grammar (fields separated by single tabs, one entry per line):

    O <name> <0|1>             object line; opens an object block
    S <label>                  state for the open object
    S <label> [<container>]    state with a containing object
    S <label> {a,b,...}        state with a contents list
    M <label> [<extra>...]     the unit's motion; extra fields are preserved
    //                         unit separator

A functional unit is one or more object blocks, one M line, then one or more
object blocks.  Blank lines are ignored, trailing whitespace (including
stray tabs) is tolerated, and a final unit without a closing separator is
accepted.  Kitchen and goal files reuse the object-block syntax only.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import ParseError
from .graph import (
    FunctionalUnit,
    Kitchen,
    Motion,
    MotionProfile,
    ObjectNode,
    StateDescriptor,
    TaskTree,
    normalize,
)

ERROR = "error"
WARNING = "warning"


@dataclass(frozen=True)
class ParseDiagnostic:
    """One problem found while parsing; ``line`` is 1-based."""

    line: int
    severity: str
    message: str

    def __str__(self) -> str:
        return f"line {self.line}: {self.severity}: {self.message}"


def _split_fields(line: str) -> list[str]:
    """Tab-split with per-field space trimming."""
    return [piece.strip() for piece in line.split("\t")]


def _parse_object_line(fields: list[str], lineno: int) -> tuple[str, int]:
    if len(fields) != 3:
        raise ParseError("object line must be 'O<TAB>name<TAB>flag'", lineno)
    name = fields[1]
    if not normalize(name):
        raise ParseError("object name is empty", lineno)
    flag = fields[2]
    if flag not in ("0", "1"):
        raise ParseError(f"in-motion flag must be 0 or 1, got {flag!r}", lineno)
    return name, int(flag)


def _parse_state_line(fields: list[str], lineno: int) -> StateDescriptor:
    if len(fields) < 2 or not normalize(fields[1]):
        raise ParseError("state line needs a label", lineno)
    if len(fields) > 3:
        raise ParseError("too many fields on state line", lineno)
    label = fields[1]
    if len(fields) == 2:
        return StateDescriptor(label)
    payload = fields[2]
    if payload.startswith("["):
        if not payload.endswith("]") or not normalize(payload[1:-1]):
            raise ParseError(f"malformed container payload {payload!r}", lineno)
        return StateDescriptor(label, container=payload[1:-1])
    if payload.startswith("{"):
        if not payload.endswith("}"):
            raise ParseError(f"malformed contents payload {payload!r}", lineno)
        names = [normalize(piece) for piece in payload[1:-1].split(",")]
        if any(not name for name in names):
            raise ParseError(f"malformed contents payload {payload!r}", lineno)
        return StateDescriptor(label, contents=frozenset(names))
    raise ParseError(
        f"state payload must be [container] or {{contents}}, got {payload!r}", lineno
    )


@dataclass
class _NodeBuilder:
    line: int
    name: str
    in_motion: int
    states: list[StateDescriptor] = field(default_factory=list)

    def build(self) -> ObjectNode:
        return ObjectNode(self.name, frozenset(self.states), self.in_motion)


class _UnitAccumulator:
    """Assembles functional units line by line with error recovery.

    A malformed line marks the current unit broken; the unit is dropped at
    the next separator without a second diagnostic, and parsing continues.
    """

    def __init__(self, units: list[FunctionalUnit], diagnostics: list[ParseDiagnostic]):
        self.units = units
        self.diagnostics = diagnostics
        self.inputs: list[tuple[ObjectNode, int]] = []
        self.outputs: list[tuple[ObjectNode, int]] = []
        self.motion: Motion | None = None
        self.current: _NodeBuilder | None = None
        self.broken = False
        self.source_index = 0

    def open_object(self, fields: list[str], lineno: int) -> None:
        name, flag = _parse_object_line(fields, lineno)
        self._close_object()
        self.current = _NodeBuilder(lineno, name, flag)

    def add_state(self, fields: list[str], lineno: int) -> None:
        state = _parse_state_line(fields, lineno)
        if self.current is None:
            if self.broken:
                return  # consequence of an already-reported problem
            raise ParseError("state line with no preceding object line", lineno)
        self.current.states.append(state)

    def set_motion(self, fields: list[str], lineno: int) -> None:
        self._close_object()
        if len(fields) < 2 or not normalize(fields[1]):
            raise ParseError("motion line needs a label", lineno)
        if self.motion is not None or not self.inputs:
            if self.broken:
                return  # consequence of an already-reported problem
            if self.motion is not None:
                raise ParseError("second motion line within one unit", lineno)
            raise ParseError("motion line with no input objects before it", lineno)
        self.motion = Motion(fields[1], tuple(fields[2:]))

    def mark_broken(self) -> None:
        self.broken = True

    def finish_unit(self, lineno: int) -> None:
        self._close_object()
        pending = bool(self.inputs or self.outputs or self.motion is not None)
        if pending and not self.broken:
            if self.motion is None:
                self.diagnostics.append(
                    ParseDiagnostic(lineno, ERROR, "unit is missing its motion line")
                )
            elif not self.outputs:
                self.diagnostics.append(
                    ParseDiagnostic(lineno, ERROR, "unit has no output objects")
                )
            else:
                self._emit()
        self.inputs = []
        self.outputs = []
        self.motion = None
        self.current = None
        self.broken = False

    def _emit(self) -> None:
        assert self.motion is not None
        unit = FunctionalUnit(
            inputs=tuple(node for node, _ in self.inputs),
            motion=self.motion,
            outputs=tuple(node for node, _ in self.outputs),
            source_index=self.source_index,
        )
        input_keys = set(unit.input_keys())
        for node, node_line in self.outputs:
            key = node.key
            if key in input_keys:
                self.diagnostics.append(
                    ParseDiagnostic(
                        node_line,
                        WARNING,
                        f"output {key!r} also appears as an input; the unit does not transform it",
                    )
                )
        self.units.append(unit)
        self.source_index += 1

    def _close_object(self) -> None:
        if self.current is None:
            return
        node = self.current.build()
        bucket = self.outputs if self.motion is not None else self.inputs
        bucket.append((node, self.current.line))
        self.current = None


def parse_foon(text: str | bytes) -> tuple[list[FunctionalUnit], list[ParseDiagnostic]]:
    """Parse an annotation file into functional units plus diagnostics.

    Recovers after errors so one pass surfaces every problem; callers must
    treat any error-severity diagnostic as a failed parse.  Never raises on
    arbitrary input: bytes are decoded as UTF-8 with replacement.  An input
    that yields no units at all earns an "empty universe" error (reported at
    line 1 even for empty text, the one diagnostic without a real line).
    """
    if isinstance(text, bytes):
        text = text.decode("utf-8", errors="replace")
    units: list[FunctionalUnit] = []
    diagnostics: list[ParseDiagnostic] = []
    accumulator = _UnitAccumulator(units, diagnostics)
    lineno = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.rstrip()
        if not line:
            continue
        if line.startswith("//"):
            accumulator.finish_unit(lineno)
            continue
        fields = _split_fields(line)
        try:
            tag = fields[0]
            if tag == "O":
                accumulator.open_object(fields, lineno)
            elif tag == "S":
                accumulator.add_state(fields, lineno)
            elif tag == "M":
                accumulator.set_motion(fields, lineno)
            else:
                raise ParseError(f"unrecognized line tag {tag!r}", lineno)
        except (ParseError, ValueError) as exc:
            message = exc.message if isinstance(exc, ParseError) else str(exc)
            diagnostics.append(ParseDiagnostic(lineno, ERROR, message))
            accumulator.mark_broken()
    accumulator.finish_unit(max(lineno, 1))
    if not units and not any(d.severity == ERROR for d in diagnostics):
        diagnostics.append(
            ParseDiagnostic(1, ERROR, "empty universe: no functional units found")
        )
    return units, diagnostics


def serialize_foon(units: list[FunctionalUnit] | tuple[FunctionalUnit, ...]) -> str:
    """Canonical text for a unit sequence: each block followed by a ``//`` line.

    Output is normalized (name casing, whitespace, state order), so
    serializing a parse of its own output is byte-stable.
    """
    return "".join(unit.to_text() + "//\n" for unit in units)


def _parse_object_blocks(text: str, source: str) -> list[ObjectNode]:
    """Object blocks only (kitchen/goal files); raises ParseError on any flaw."""
    nodes: list[ObjectNode] = []
    current: _NodeBuilder | None = None

    def close() -> None:
        nonlocal current
        if current is not None:
            nodes.append(current.build())
            current = None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.rstrip()
        if not line:
            close()
            continue
        if line.startswith("//"):
            close()
            continue
        fields = _split_fields(line)
        tag = fields[0]
        if tag == "O":
            close()
            name, flag = _parse_object_line(fields, lineno)
            current = _NodeBuilder(lineno, name, flag)
        elif tag == "S":
            if current is None:
                raise ParseError("state line with no preceding object line", lineno)
            current.states.append(_parse_state_line(fields, lineno))
        elif tag == "M":
            raise ParseError(f"motion line not allowed in a {source} file", lineno)
        else:
            raise ParseError(f"unrecognized line tag {tag!r}", lineno)
    close()
    return nodes


def parse_kitchen(text: str) -> Kitchen:
    """Parse a kitchen inventory: object blocks separated by blank lines.

    Duplicate nodes collapse; the in-motion flag is read but irrelevant to
    availability matching.
    """
    return Kitchen(tuple(_parse_object_blocks(text, "kitchen")))


def parse_goal(text: str) -> ObjectNode:
    """Parse a goal file, which must hold exactly one object block."""
    nodes = _parse_object_blocks(text, "goal")
    if len(nodes) != 1:
        raise ParseError(
            f"goal file must contain exactly one object block, found {len(nodes)}"
        )
    return nodes[0]


def parse_motion_profile(text: str, default_rate: float | None = None) -> MotionProfile:
    """Parse ``<motion><TAB><rate>`` lines into a MotionProfile.

    Blank lines and ``#`` comments are skipped.  Rates must lie in [0, 1];
    repeating a motion is an error unless the rate is identical.
    """
    rates: dict[str, float] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = _split_fields(line)
        if len(fields) != 2:
            raise ParseError("expected '<motion><TAB><rate>'", lineno)
        label = normalize(fields[0])
        if not label:
            raise ParseError("motion label is empty", lineno)
        try:
            rate = float(fields[1])
        except ValueError:
            raise ParseError(f"rate is not a number: {fields[1]!r}", lineno) from None
        if not 0.0 <= rate <= 1.0:
            raise ParseError(f"rate outside [0, 1]: {fields[1]}", lineno)
        if label in rates and rates[label] != rate:
            raise ParseError(f"conflicting rate for motion {label!r}", lineno)
        rates[label] = rate
    return MotionProfile(rates, default_rate)


def _dot_escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def export_dot(tree: TaskTree) -> str:
    """Render a task tree as a Graphviz digraph.

    Object nodes are green ellipses labelled "name / states"; each step gets
    one red motion box; edges run input -> motion -> output.  The tree's
    goal node is purple.  Output is deterministic for a given tree.
    """
    out = ["digraph foon {", "  rankdir=LR;"]
    ids: dict[str, str] = {}

    def object_id(node: ObjectNode) -> str:
        key = node.key
        if key not in ids:
            ids[key] = f"o{len(ids)}"
            parts = [_dot_escape(node.name)]
            states = node.sorted_states()
            if states:
                parts.append(_dot_escape(", ".join(s.display() for s in states)))
            color = "mediumpurple" if key == tree.goal_key else "palegreen"
            label = "\\n".join(parts)
            out.append(
                f'  {ids[key]} [label="{label}", shape=ellipse,'
                f" style=filled, fillcolor={color}];"
            )
        return ids[key]

    for index, unit in enumerate(tree.steps):
        motion_id = f"m{index}"
        out.append(
            f'  {motion_id} [label="{_dot_escape(unit.motion.label)}", shape=box,'
            " style=filled, fillcolor=indianred];"
        )
        for node in unit.inputs:
            out.append(f"  {object_id(node)} -> {motion_id};")
        for node in unit.outputs:
            out.append(f"  {motion_id} -> {object_id(node)};")
    out.append("}")
    return "\n".join(out) + "\n"
