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

The universe reader is one loop.  It parses each distinct O, S and M line
once per call, memoized by the raw line (whose tag is part of it), builds
each distinct run of a block's S lines into one state set, and every copy of
a block (its O line plus the S lines that parsed, as read) shares one
ObjectNode.  A line that fails to parse is never memoized, so each copy of
it is reported at its own line number.  A unit's first error breaks it: the
unit is dropped at its separator, and until then only a line's own grammar
errors are reported.  The kitchen and goal reader, whose small files seldom
repeat a line, memoizes only S lines and builds one node per block.  Both
share the line grammar and its messages, and neither keeps anything across
calls.  Bytes given to ``parse_foon`` may start with a UTF-8 byte-order
mark, which is skipped; text is read as given.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

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


def _parse_motion_line(fields: list[str], lineno: int) -> Motion:
    if len(fields) < 2 or not fields[1]:
        raise ParseError("motion line needs a label", lineno)
    return Motion(fields[1], tuple(fields[2:]))


_LINE_PARSERS = {"O": _parse_object_line, "S": _parse_state_line, "M": _parse_motion_line}


def _parse_line(line: str, lineno: int) -> tuple[str, object]:
    """A universe line's tag and its parse: (name, flag), a state or a motion."""
    tag = line.partition("\t")[0].strip()
    parse = _LINE_PARSERS.get(tag)
    if parse is None:
        raise ParseError(f"unrecognized line tag {tag!r}", lineno)
    return tag, parse(_split_fields(line), lineno)


def parse_foon(text: str | bytes) -> tuple[list[FunctionalUnit], list[ParseDiagnostic]]:
    """Parse an annotation file into functional units plus diagnostics.

    Recovers after errors so one pass surfaces every problem; callers must
    treat any error-severity diagnostic as a failed parse.  Never raises on
    arbitrary input: bytes are decoded as UTF-8 with replacement, after a
    byte-order mark if there is one.  An input that yields no units at all
    earns an "empty universe" error (reported at line 1 even for empty text,
    the one diagnostic without a real line).
    """
    if isinstance(text, bytes):
        text = text.decode("utf-8-sig", errors="replace")
    parsed: dict[str, tuple[str, object]] = {}  # raw O, S or M line -> tag, parse
    state_sets: dict[tuple[str, ...], frozenset[StateDescriptor]] = {}
    nodes: dict[tuple[str, ...], ObjectNode] = {}  # a block's raw lines -> node
    units: list[FunctionalUnit] = []
    diagnostics: list[ParseDiagnostic] = []
    block: list[str] = []  # the open block's raw lines; empty if none
    start = 0  # the open block's O line number
    inputs: list[ObjectNode] = []
    outputs: list[tuple[ObjectNode, int]] = []  # node, its O line number
    motion: Motion | None = None
    broken = False  # the open unit has an error; it is dropped at its separator

    def fail(lineno: int, message: str, grammar: bool = False) -> None:
        # A unit's first error breaks it; after that only a line's own grammar
        # is reported, not what follows from the first error.
        nonlocal broken
        if grammar or not broken:
            diagnostics.append(ParseDiagnostic(lineno, ERROR, message))
        broken = True

    lines = text.splitlines()
    # A last separator, at the last line's number, ends a final unit written without one.
    for lineno, raw in chain(enumerate(lines, start=1), [(max(len(lines), 1), "//")]):
        line = raw.rstrip()
        if not line:
            continue
        if line.startswith("//"):
            tag = "//"
        else:
            entry = parsed.get(line)
            if entry is None:
                try:
                    entry = parsed[line] = _parse_line(line, lineno)
                except ParseError as exc:
                    fail(lineno, exc.message, grammar=True)
                    continue
            tag = entry[0]
            if tag == "S":
                if block:
                    block.append(line)
                else:
                    fail(lineno, "state line with no preceding object line")
                continue
        if block:  # the block's node joins the inputs, or the outputs after the motion
            key = tuple(block)
            node = nodes.get(key)
            if node is None:
                states = key[1:]
                if states not in state_sets:
                    state_sets[states] = frozenset(parsed[state][1] for state in states)
                name, flag = parsed[key[0]][1]
                node = nodes[key] = ObjectNode(name, state_sets[states], flag)
            if motion is None:
                inputs.append(node)
            else:
                outputs.append((node, start))
            block = []
        if tag == "O":
            block, start = [line], lineno
        elif tag == "M":
            if motion is not None:
                fail(lineno, "second motion line within one unit")
            elif not inputs:
                fail(lineno, "motion line with no input objects before it")
            else:
                motion = entry[1]
        else:
            if motion is None:
                if inputs:
                    fail(lineno, "unit is missing its motion line")
            elif not outputs:
                fail(lineno, "unit has no output objects")
            elif not broken:
                made = [node for node, _ in outputs]
                unit = FunctionalUnit(inputs, motion, made, len(units))
                for key, (_, node_line) in zip(unit.output_keys, outputs):
                    if key in unit.input_keys:
                        diagnostics.append(
                            ParseDiagnostic(
                                node_line,
                                WARNING,
                                f"output {key!r} also appears as an input;"
                                " the unit does not transform it",
                            )
                        )
                units.append(unit)
            inputs, outputs, motion, broken = [], [], None, False
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
    """Object blocks only (kitchen/goal files); raises ParseError on any flaw.

    Lines rarely repeat in these small files, so only S lines are memoized.
    """
    blocks: list[tuple[tuple[str, int], list[StateDescriptor]]] = []  # (name, flag), states
    states: dict[str, StateDescriptor] = {}  # raw S line -> state
    block: list[StateDescriptor] | None = None  # the open block's states; None if none
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.rstrip()
        if not line or line.startswith("//"):
            block = None
            continue
        tag = line.partition("\t")[0].strip()
        if tag == "S":
            if block is None:
                raise ParseError("state line with no preceding object line", lineno)
            state = states.get(line)
            if state is None:
                state = states[line] = _parse_state_line(_split_fields(line), lineno)
            block.append(state)
        elif tag == "O":
            block = []
            blocks.append((_parse_object_line(_split_fields(line), lineno), block))
        elif tag == "M":
            raise ParseError(f"motion line not allowed in a {source} file", lineno)
        else:
            raise ParseError(f"unrecognized line tag {tag!r}", lineno)
    return [ObjectNode(name, frozenset(listed), flag) for (name, flag), listed in blocks]


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
    profile = MotionProfile(default_rate=default_rate)
    profile.rates = rates  # already normalized and checked, line by line
    return profile


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
