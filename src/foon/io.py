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

One object-block reader serves all three kinds of file.  Within one call it
parses each distinct O, S and M line once, and every copy of a block (its O
line plus the S lines that parsed, as read) shares one ObjectNode.  A line
that fails to parse is never memoized, so each copy of it is reported at its
own line number.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    # A trimmed field is empty exactly when its normalized form is empty.
    if len(fields) != 3:
        raise ParseError("object line must be 'O<TAB>name<TAB>flag'", lineno)
    if not fields[1]:
        raise ParseError("object name is empty", lineno)
    flag = fields[2]
    if flag not in ("0", "1"):
        raise ParseError(f"in-motion flag must be 0 or 1, got {flag!r}", lineno)
    return fields[1], int(flag)


def _parse_state_line(fields: list[str], lineno: int) -> StateDescriptor:
    if len(fields) < 2 or not fields[1]:
        raise ParseError("state line needs a label", lineno)
    if len(fields) > 3:
        raise ParseError("too many fields on state line", lineno)
    label = fields[1]
    if len(fields) == 2:
        return StateDescriptor(label)
    payload = fields[2]
    if payload.startswith("["):
        if not payload.endswith("]") or not payload[1:-1].strip():
            raise ParseError(f"malformed container payload {payload!r}", lineno)
        return StateDescriptor(label, container=payload[1:-1])
    if payload.startswith("{"):
        names = payload[1:-1].split(",")
        if not payload.endswith("}") or not all(name.strip() for name in names):
            raise ParseError(f"malformed contents payload {payload!r}", lineno)
        return StateDescriptor(label, contents=frozenset(names))
    raise ParseError(
        f"state payload must be [container] or {{contents}}, got {payload!r}", lineno
    )


class _Reader:
    """Reads object blocks, and assembles universe files' blocks into units.

    ``open`` starts a block at an O line and ``add_state`` adds an S line to
    it.  A closed block's node joins the open unit's inputs, or its outputs
    once the unit has a motion; kitchen and goal files have no motion lines,
    so all their nodes are ``inputs``.  A malformed line marks the current
    unit broken; the unit is dropped at the next separator without a second
    diagnostic, and parsing continues.
    """

    def __init__(self) -> None:
        self.heads: dict[str, tuple[str, int]] = {}  # raw O line -> name, flag
        self.states: dict[str, StateDescriptor] = {}
        self.motions: dict[str, Motion] = {}
        self.nodes: dict[tuple[str, ...], ObjectNode] = {}  # a block's raw lines -> node
        self.lines: list[str] = []  # the open block's raw lines; empty if none
        self.start = 0  # the open block's O line number
        self.units: list[FunctionalUnit] = []
        self.diagnostics: list[ParseDiagnostic] = []
        self.inputs: list[ObjectNode] = []
        self.outputs: list[tuple[ObjectNode, int]] = []
        self.motion: Motion | None = None
        self.broken = False

    def open(self, line: str, lineno: int) -> None:
        if line not in self.heads:
            self.heads[line] = _parse_object_line(_split_fields(line), lineno)
        self.close()
        self.lines, self.start = [line], lineno

    def add_state(self, line: str, lineno: int) -> bool:
        """Parse an S line into the open block; False when none is open."""
        if line not in self.states:
            self.states[line] = _parse_state_line(_split_fields(line), lineno)
        if not self.lines:
            return False
        self.lines.append(line)
        return True

    def close(self) -> None:
        if not self.lines:
            return
        text = tuple(self.lines)
        node = self.nodes.get(text)
        if node is None:
            name, flag = self.heads[text[0]]
            node = self.nodes[text] = ObjectNode(
                name, frozenset(map(self.states.__getitem__, text[1:])), flag
            )
        self.lines = []
        if self.motion is None:
            self.inputs.append(node)
        else:
            self.outputs.append((node, self.start))

    def set_motion(self, line: str, lineno: int) -> None:
        self.close()
        motion = self.motions.get(line)
        if motion is None:
            fields = _split_fields(line)
            if len(fields) < 2 or not fields[1]:
                raise ParseError("motion line needs a label", lineno)
            motion = self.motions[line] = Motion(fields[1], tuple(fields[2:]))
        if self.motion is not None or not self.inputs:
            if self.broken:
                return  # consequence of an already-reported problem
            if self.motion is not None:
                raise ParseError("second motion line within one unit", lineno)
            raise ParseError("motion line with no input objects before it", lineno)
        self.motion = motion

    def finish_unit(self, lineno: int) -> None:
        self.close()
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
        self.broken = False

    def _emit(self) -> None:
        assert self.motion is not None
        outputs = [node for node, _ in self.outputs]
        unit = FunctionalUnit(self.inputs, self.motion, outputs, len(self.units))
        for key, (_, node_line) in zip(unit.output_keys, self.outputs):
            if key in unit.input_keys:
                self.diagnostics.append(
                    ParseDiagnostic(
                        node_line,
                        WARNING,
                        f"output {key!r} also appears as an input; the unit does not transform it",
                    )
                )
        self.units.append(unit)


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
    reader = _Reader()
    units, diagnostics = reader.units, reader.diagnostics
    lineno = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.rstrip()
        if not line:
            continue
        if line.startswith("//"):
            reader.finish_unit(lineno)
            continue
        try:
            tag = line.partition("\t")[0].strip()
            if tag == "O":
                reader.open(line, lineno)
            elif tag == "S":
                if not reader.add_state(line, lineno) and not reader.broken:
                    raise ParseError("state line with no preceding object line", lineno)
            elif tag == "M":
                reader.set_motion(line, lineno)
            else:
                raise ParseError(f"unrecognized line tag {tag!r}", lineno)
        except ParseError as exc:
            diagnostics.append(ParseDiagnostic(lineno, ERROR, exc.message))
            reader.broken = True
    reader.finish_unit(max(lineno, 1))
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
    reader = _Reader()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.rstrip()
        if not line or line.startswith("//"):
            reader.close()
            continue
        tag = line.partition("\t")[0].strip()
        if tag == "O":
            reader.open(line, lineno)
        elif tag == "S":
            if not reader.lines:
                raise ParseError("state line with no preceding object line", lineno)
            reader.add_state(line, lineno)
        elif tag == "M":
            raise ParseError(f"motion line not allowed in a {source} file", lineno)
        else:
            raise ParseError(f"unrecognized line tag {tag!r}", lineno)
    reader.close()
    return reader.inputs


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
