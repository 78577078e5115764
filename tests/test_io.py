"""Parser fidelity, error recovery, round-tripping, and DOT export.

Run as a script to regenerate the parse-mutation snapshot after an intended
change to what the parsers accept or report:

    PYTHONPATH=src python tests/test_io.py
"""

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from foon import (
    FunctionalUnit,
    Motion,
    ObjectNode,
    ParseError,
    StateDescriptor,
    TaskTree,
    export_dot,
    normalize,
    parse_foon,
    parse_goal,
    parse_kitchen,
    parse_motion_profile,
    serialize_foon,
)

from helpers import FIXTURE_DIR, FIXTURE_NAMES, fixture_path, load_universe


def _errors(diagnostics):
    return [d for d in diagnostics if d.severity == "error"]


def _messages(diagnostics):
    return " | ".join(d.message for d in diagnostics)


def test_single_unit_block_parses_exactly():
    units, diagnostics = parse_foon(fixture_path("chop_onion", "foon").read_text())
    assert diagnostics == []
    assert len(units) == 1
    unit = units[0]
    assert [node.name for node in unit.inputs] == ["onions", "knife", "chopping board"]
    assert [node.in_motion for node in unit.inputs] == [1, 1, 0]
    assert unit.motion.label == "chop"
    assert [node.name for node in unit.outputs] == ["onions", "knife", "chopping board"]
    onions = unit.outputs[0]
    assert {s.serial for s in onions.states} == {"chopped", "in[chopping board]"}
    board = unit.outputs[2]
    (state,) = board.states
    assert state.label == "contains"
    assert state.contents == frozenset({"chopped onion"})


def test_round_trip_preserves_units():
    units, _ = parse_foon(fixture_path("chop_onion", "foon").read_text())
    text = serialize_foon(units)
    again, diagnostics = parse_foon(text)
    assert not _errors(diagnostics)
    assert [u.to_text() for u in again] == [u.to_text() for u in units]
    # Serialization of a parse of its own output is byte-stable.
    assert serialize_foon(again) == text


def test_separator_assigns_source_indexes():
    units, diagnostics = parse_foon(fixture_path("cold_water", "foon").read_text())
    assert not _errors(diagnostics)
    assert [u.source_index for u in units] == [0, 1]
    assert [u.motion.label for u in units] == ["pour", "chill"]


def test_final_unit_without_separator_is_accepted():
    units, diagnostics = parse_foon("O\ta\t0\nM\tmix\nO\tb\t0\n")
    assert not _errors(diagnostics)
    assert len(units) == 1


def test_blank_lines_and_stray_tabs_are_tolerated():
    text = "O\ta\t0\t\n\nS\twarm\t\nM\tmix\t\n\nO\tb\t0\n//\n"
    units, diagnostics = parse_foon(text)
    assert not _errors(diagnostics)
    assert units[0].inputs[0].states == frozenset({StateDescriptor("warm")})


def test_state_before_object_is_an_error():
    units, diagnostics = parse_foon("S\twhole\nO\ta\t0\nM\tmix\nO\tb\t0\n//\n")
    assert units == []
    assert "no preceding object" in _messages(_errors(diagnostics))


def test_bad_flag_is_an_error():
    _, diagnostics = parse_foon("O\ta\t2\nM\tmix\nO\tb\t0\n//\n")
    assert "flag" in _messages(_errors(diagnostics))


def test_missing_motion_is_an_error():
    units, diagnostics = parse_foon("O\ta\t0\nO\tb\t0\n//\n")
    assert units == []
    assert "missing its motion" in _messages(_errors(diagnostics))


def test_missing_outputs_is_an_error():
    units, diagnostics = parse_foon("O\ta\t0\nM\tmix\n//\n")
    assert units == []
    assert "no output objects" in _messages(_errors(diagnostics))


def test_second_motion_is_an_error():
    _, diagnostics = parse_foon("O\ta\t0\nM\tmix\nM\tstir\nO\tb\t0\n//\n")
    assert "second motion" in _messages(_errors(diagnostics))


def test_unknown_tag_is_an_error():
    _, diagnostics = parse_foon("O\ta\t0\nX\twhat\nM\tmix\nO\tb\t0\n//\n")
    assert "unrecognized line tag" in _messages(_errors(diagnostics))


@pytest.mark.parametrize(
    "payload",
    ["[unclosed", "[]", "{unclosed", "{}", "{a,,b}", "plain"],
)
def test_malformed_state_payloads_are_errors(payload):
    _, diagnostics = parse_foon(f"O\ta\t0\nS\tin\t{payload}\nM\tmix\nO\tb\t0\n//\n")
    assert _errors(diagnostics)


def test_empty_input_reports_empty_universe():
    units, diagnostics = parse_foon("")
    assert units == []
    (diagnostic,) = diagnostics
    assert diagnostic.severity == "error"
    assert "empty universe" in diagnostic.message
    assert diagnostic.line == 1


def test_error_recovery_keeps_later_units():
    # First unit is malformed; the second parses cleanly.
    text = "O\ta\t9\nM\tmix\nO\tb\t0\n//\nO\tc\t0\nM\tstir\nO\td\t0\n//\n"
    units, diagnostics = parse_foon(text)
    assert len(units) == 1
    assert units[0].motion.label == "stir"
    assert units[0].source_index == 0
    assert len(_errors(diagnostics)) == 1


def test_multiple_problems_reported_in_one_pass():
    text = "S\torphan\nO\ta\t5\nQ\tx\n"
    _, diagnostics = parse_foon(text)
    assert len(_errors(diagnostics)) >= 3


def test_untransformed_output_is_a_warning():
    text = "O\tboard\t0\nO\ta\t0\nM\tmix\nO\tboard\t0\nO\tb\t0\n//\n"
    units, diagnostics = parse_foon(text)
    assert len(units) == 1
    warnings = [d for d in diagnostics if d.severity == "warning"]
    assert len(warnings) == 1
    assert "does not transform" in warnings[0].message


def test_diagnostic_lines_index_the_input():
    text = "O\ta\t0\nS\tbad\t[\nM\tmix\nO\tb\t0\n//\n"
    _, diagnostics = parse_foon(text)
    line_count = len(text.splitlines())
    for diagnostic in diagnostics:
        assert 1 <= diagnostic.line <= max(1, line_count)
    assert any(d.line == 2 for d in diagnostics)


# --- the memoized block reader -----------------------------------------------

_UNIT = "O\ta\t0\nS\twhole\nM\tmix\nO\tb\t0\n//\n"


def test_each_copy_of_a_malformed_block_is_reported_at_its_own_line():
    broken = "O\ta\t0\nS\tin\t[\nM\tmix\nO\tb\t0\n//\n"
    units, diagnostics = parse_foon(broken + _UNIT + broken)
    assert len(units) == 1
    assert [(d.line, d.message) for d in diagnostics] == [
        (2, "malformed container payload '['"),
        (12, "malformed container payload '['"),
    ]


def test_a_clean_copy_of_a_block_after_a_broken_copy_still_parses():
    # Line 3 fails while the block of lines 1-2 is open; lines 7-8 repeat it.
    broken = "O\ta\t0\nS\twhole\nS\tin\t[\nM\tmix\nO\tb\t0\n//\n"
    units, diagnostics = parse_foon(broken + _UNIT)
    assert [str(d) for d in diagnostics] == ["line 3: error: malformed container payload '['"]
    (unit,) = units
    assert unit.inputs[0].key == "a|whole"
    assert unit.source_index == 0


def test_untransformed_output_warning_uses_the_line_of_each_memoized_copy():
    unit = "O\tboard\t0\nO\ta\t0\nM\tmix\nO\tboard\t0\nO\tb\t0\n//\n"
    units, diagnostics = parse_foon(unit + unit)
    assert units[0].outputs[0] is units[1].outputs[0]  # one node for both copies
    assert [(d.line, d.severity) for d in diagnostics] == [(4, "warning"), (10, "warning")]
    assert all("'board|' also appears as an input" in d.message for d in diagnostics)


def test_copies_of_a_block_share_one_node_within_a_call_only():
    text = _UNIT + _UNIT
    first, _ = parse_foon(text)
    second, _ = parse_foon(text)
    assert first[0].inputs[0] is first[1].inputs[0]
    assert first[0].motion is first[1].motion
    for unit_a, unit_b in zip(first, second):
        for node_a, node_b in zip(unit_a.inputs + unit_a.outputs, unit_b.inputs + unit_b.outputs):
            assert node_a == node_b
            assert node_a is not node_b


def test_blocks_differing_only_in_the_in_motion_flag_stay_distinct():
    units, _ = parse_foon(_UNIT + _UNIT.replace("a\t0", "a\t1"))
    assert [unit.inputs[0].in_motion for unit in units] == [0, 1]
    assert [unit.to_text() for unit in units] == [_UNIT[:-3], _UNIT[:-3].replace("a\t0", "a\t1")]


def test_parse_motion_profile_basics():
    profile = parse_motion_profile("# rates\npour\t0.95\n\nchill\t0.8\n")
    assert profile.rates == {"pour": 0.95, "chill": 0.8}
    assert parse_motion_profile("").rates == {}


def test_parse_motion_profile_rejects_bad_lines():
    with pytest.raises(ParseError):
        parse_motion_profile("pour\tfast\n")
    with pytest.raises(ParseError):
        parse_motion_profile("pour\t1.5\n")
    with pytest.raises(ParseError):
        parse_motion_profile("pour\n")
    with pytest.raises(ParseError):
        parse_motion_profile("pour\t0.9\npour\t0.8\n")
    # Restating the same rate is harmless.
    assert parse_motion_profile("pour\t0.9\npour\t0.9\n").rates == {"pour": 0.9}


def test_parse_kitchen_handles_blocks_and_duplicates():
    kitchen = parse_kitchen(fixture_path("ice_cup", "kitchen").read_text())
    assert sorted(node.key for node in kitchen) == ["cup|empty", "ice|in[tray]", "scoop|"]
    doubled = parse_kitchen("O\tcup\t0\nS\tempty\n\nO\tcup\t1\nS\tempty\n")
    assert len(doubled) == 1


def test_parse_kitchen_rejects_motion_lines():
    with pytest.raises(ParseError):
        parse_kitchen("O\tcup\t0\nM\tpour\n")


def test_parse_goal_requires_exactly_one_block():
    goal = parse_goal(fixture_path("chop_onion", "goal").read_text())
    assert goal.name == "onions"
    assert {s.serial for s in goal.states} == {"chopped", "in[chopping board]"}
    with pytest.raises(ParseError):
        parse_goal("")
    with pytest.raises(ParseError):
        parse_goal("O\ta\t0\n\nO\tb\t0\n")


def test_export_dot_declares_nodes_edges_and_goal_color():
    universe = load_universe("chop_onion")
    dot = export_dot(TaskTree(universe.graph.units, "onions|chopped+in[chopping board]"))
    assert dot.startswith("digraph foon {")
    assert dot.endswith("}\n")
    assert dot.count("shape=ellipse") == 6
    assert dot.count("shape=box") == 1
    assert dot.count("->") == 6
    assert dot.count("mediumpurple") == 1
    assert "onions\\nchopped, in [chopping board]" in dot


def test_export_dot_shares_nodes_across_units():
    universe = load_universe("cold_water")
    dot = export_dot(TaskTree(universe.graph.units, universe.goal.key))
    # cup|contains{water} chains between the two units: declared once.
    assert dot.count("shape=ellipse") == 4
    assert dot.count("shape=box") == 2


def test_export_dot_uses_tree_goal_and_is_deterministic():
    from foon import RetrievalConfig, retrieve

    universe = load_universe("cold_water")
    tree, _ = retrieve(
        universe.graph, universe.goal, universe.kitchen, RetrievalConfig()
    )
    first = export_dot(tree)
    assert "mediumpurple" in first
    assert first == export_dot(tree)


def test_export_dot_escapes_quotes():
    unit = FunctionalUnit(
        (ObjectNode('ja"r'),), Motion("mix"), (ObjectNode("bowl"),)
    )
    dot = export_dot(TaskTree((unit,), "bowl|"))
    assert 'ja\\"r' in dot


_name_text = st.text(alphabet="abcdefghij ", min_size=1, max_size=12).filter(
    lambda s: normalize(s)
)


@st.composite
def _nodes(draw):
    plain = st.builds(StateDescriptor, _name_text)
    contained = st.builds(
        lambda label, container: StateDescriptor(label, container=container),
        _name_text,
        _name_text,
    )
    containing = st.builds(
        lambda label, contents: StateDescriptor(label, contents=frozenset(contents)),
        _name_text,
        st.lists(_name_text, min_size=1, max_size=3),
    )
    states = draw(st.frozensets(st.one_of(plain, contained, containing), max_size=3))
    return ObjectNode(draw(_name_text), states, draw(st.sampled_from([0, 1])))


_units = st.builds(
    FunctionalUnit,
    st.lists(_nodes(), min_size=1, max_size=3).map(tuple),
    st.builds(
        Motion,
        _name_text,
        st.lists(
            st.text(alphabet="abc123", min_size=1, max_size=5), max_size=2
        ).map(tuple),
    ),
    st.lists(_nodes(), min_size=1, max_size=3).map(tuple),
)


@settings(max_examples=60, deadline=None)
@given(st.lists(_units, min_size=1, max_size=4))
def test_round_trip_any_units(units):
    text = serialize_foon(units)
    parsed, diagnostics = parse_foon(text)
    assert not _errors(diagnostics)
    assert [u.to_text() for u in parsed] == [u.to_text() for u in units]


@settings(max_examples=150, deadline=None)
@given(st.text(max_size=300))
def test_parse_foon_never_raises_on_text(text):
    units, diagnostics = parse_foon(text)
    assert isinstance(units, list)
    line_count = len(text.splitlines())
    for diagnostic in diagnostics:
        assert 1 <= diagnostic.line <= max(1, line_count)


def test_parse_foon_never_raises_on_random_bytes():
    rng = random.Random(20240817)
    for _ in range(200):
        blob = rng.randbytes(rng.randint(0, 120))
        units, diagnostics = parse_foon(blob)
        assert isinstance(units, list)
        assert isinstance(diagnostics, list)


# --- snapshot of every parser's output on mutated fixtures ------------------

PARSE_SNAPSHOT = FIXTURE_DIR / "golden" / "parse_mutations.json"
# Lines that probe the tag and field rules.  " \tx" has the empty tag: the
# tag is the text before the first tab, stripped.
_ODD_LINES = [
    " \tx", "\tO\tcup\t0", " O\tcup\t0", "O \tcup\t0", "O\u00a0\tcup\t0",
    "\u2003S\twhole", "\x1fM\tmix", "O", "S", "M", "M\t", "M\t \tx", "S\t\u00a0",
    "O\t\u3000\t0", "O\tcup\t2", "O\tcup", "S\tin\t[x", "S\tc\t{a,,b}", "S\tc\t{a, b }",
    "S\tin\t[tray]\textra", "x\ty", "OO\tcup\t0", "o\tcup\t0", "//", "// x", "\u00a0//",
    "O\tCup\t1", "O\t a\u2009b \t1", "M\tchop\t\u00a0\tx", "S\tWHOLE ",
]
_NOISE = [
    " ", "\t", "\u00a0", "\u2003", "\u3000", "\x1f",  # the first six indent lines
    "\x85", "[", "]", "{", "}", ",", "|", "+", "0", "1", "O", "S", "M", "/",
]


def _mutate(text, rng):
    """Drop, duplicate, copy, insert, garble or indent lines, then pick line ends."""
    lines = text.splitlines()
    for _ in range(rng.randint(1, 4)):
        op = rng.choice(["drop", "duplicate", "copy", "insert", "garble", "indent"])
        at = rng.randrange(len(lines) + 1)
        if op == "insert" or not lines:
            lines.insert(at, rng.choice(_ODD_LINES))
            continue
        at = min(at, len(lines) - 1)
        if op == "drop":
            del lines[at]
        elif op == "duplicate":
            lines.insert(at, lines[at])
        elif op == "copy":
            lines[rng.randrange(len(lines) + 1):0] = lines[at:at + rng.randint(1, 6)]
        elif op == "garble":
            line = lines[at]
            spot = rng.randrange(len(line) + 1)
            lines[at] = line[:spot] + rng.choice(_NOISE) + line[spot + rng.randint(0, 1):]
        else:
            lines[at] = rng.choice(_NOISE[:6]) + lines[at]
    return rng.choice(["\n", "\n", "\r\n"]).join(lines) + rng.choice(["", "\n", "\r\n"])


def _parse_all(text):
    """What each parser makes of one text: units and diagnostics, keys or errors."""
    units, diagnostics = parse_foon(text)
    record = {
        "diagnostics": [str(d) for d in diagnostics],
        "units": [[unit.source_index, unit.to_text()] for unit in units],
    }
    for kind, parse in (
        ("kitchen", lambda t: [node.key for node in parse_kitchen(t)]),
        ("goal", lambda t: parse_goal(t).key),
    ):
        try:
            record[kind] = parse(text)
        except ParseError as exc:
            record[kind] = f"ParseError: {exc}"
    return record


def _mutation_texts():
    rng = random.Random(8)
    for fixture in FIXTURE_NAMES:
        for kind in ("foon", "kitchen", "goal"):
            original = fixture_path(fixture, kind).read_text()
            yield f"{fixture}.{kind}", original
            for index in range(25):
                yield f"{fixture}.{kind}#{index}", _mutate(original, rng)


def test_parsers_match_the_mutation_snapshot():
    stored = json.loads(PARSE_SNAPSHOT.read_text(encoding="utf-8"))
    cases = list(_mutation_texts())
    assert [case["name"] for case in stored] == [name for name, _ in cases]
    for case, (name, text) in zip(stored, cases):
        assert case["text"] == text, name
        assert _parse_all(text) == case["parsed"], name


if __name__ == "__main__":
    snapshot = [
        {"name": name, "text": text, "parsed": _parse_all(text)}
        for name, text in _mutation_texts()
    ]
    PARSE_SNAPSHOT.write_text(
        json.dumps(snapshot, indent=1, ensure_ascii=True) + "\n", encoding="utf-8"
    )
    print(f"wrote {PARSE_SNAPSHOT.relative_to(FIXTURE_DIR)}: {len(snapshot)} cases")
