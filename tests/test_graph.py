"""Core model: normalization, node identity, indexing, availability."""

import copy
import dataclasses
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from foon import (
    EmptyUniverseError,
    FunctionalUnit,
    Kitchen,
    MissingMotionRateError,
    Motion,
    MotionProfile,
    ObjectNode,
    StateDescriptor,
    TaskTree,
    build_graph,
    normalize,
    parse_foon,
    serialize_foon,
)

from helpers import FIXTURE_NAMES, fixture_path, load_universe, random_universe


def test_normalize_collapses_case_and_whitespace():
    assert normalize("  Chopping   Board ") == "chopping board"
    assert normalize("ONIONS") == "onions"
    assert normalize(" \t ") == ""


def test_state_serial_forms():
    assert StateDescriptor("whole").serial == "whole"
    assert StateDescriptor("in", container="Chopping  Board").serial == "in[chopping board]"
    state = StateDescriptor("contains", contents=frozenset({"Salt", "ice "}))
    assert state.serial == "contains{ice,salt}"


def test_state_rejects_bad_combinations():
    with pytest.raises(ValueError):
        StateDescriptor("  ")
    with pytest.raises(ValueError):
        StateDescriptor("in", container="tray", contents=frozenset({"ice"}))
    with pytest.raises(ValueError):
        StateDescriptor("in", container="  ")
    with pytest.raises(ValueError):
        StateDescriptor("contains", contents=frozenset())


def test_state_contents_normalize_and_dedup():
    state = StateDescriptor("contains", contents=["Ice", "ice", " ICE "])
    assert state.contents == frozenset({"ice"})


def test_state_rejects_commas_in_contents_names():
    # "{a,b}" would read back as the two names a and b.
    with pytest.raises(ValueError):
        StateDescriptor("contains", contents=frozenset({"a,b"}))


def test_object_node_stores_in_motion_as_int():
    node = ObjectNode("cup", in_motion=True)
    assert type(node.in_motion) is int
    unit = FunctionalUnit((node,), Motion("lift"), (ObjectNode("mug"),))
    assert unit.to_text().startswith("O\tcup\t1\n")
    units, diagnostics = parse_foon(serialize_foon([unit]))
    assert units == [unit] and not diagnostics


def test_object_node_normalizes_and_validates():
    node = ObjectNode("  Chopping  Board ", in_motion=1)
    assert node.name == "chopping board"
    assert node.in_motion == 1
    with pytest.raises(ValueError):
        ObjectNode("   ")
    with pytest.raises(ValueError):
        ObjectNode("cup", in_motion=2)


def test_canonical_key_examples():
    whole = ObjectNode("onions", frozenset({StateDescriptor("whole")}))
    assert whole.key == "onions|whole"
    chopped = ObjectNode(
        "onions",
        frozenset({StateDescriptor("chopped"), StateDescriptor("in", container="chopping board")}),
    )
    assert chopped.key == "onions|chopped+in[chopping board]"
    cup = ObjectNode("cup", frozenset({StateDescriptor("contains", contents=frozenset({"ice"}))}))
    assert cup.key == "cup|contains{ice}"
    assert ObjectNode("chopping board").key == "chopping board|"


def test_canonical_key_escapes_reserved_characters():
    assert ObjectNode("a|b").key == "a\\|b|"
    state = StateDescriptor("x+y", container="[c]")
    assert ObjectNode("p\\q", frozenset({state})).key == "p\\\\q|x\\+y[\\[c\\]]"
    contents = StateDescriptor("holds", contents=frozenset({"{a}", "b"}))
    assert contents.serial == "holds{\\{a\\},b}"


@pytest.mark.parametrize(
    "left, right",
    [
        (ObjectNode("a|b"), ObjectNode("a", frozenset({StateDescriptor("b|")}))),
        (
            ObjectNode("flour", frozenset({StateDescriptor("dry+sifted")})),
            ObjectNode("flour", frozenset({StateDescriptor("dry"), StateDescriptor("sifted")})),
        ),
        (
            ObjectNode("s", frozenset({StateDescriptor("in[a]")})),
            ObjectNode("s", frozenset({StateDescriptor("in", container="a")})),
        ),
        (
            ObjectNode("s", frozenset({StateDescriptor("has{a}")})),
            ObjectNode("s", frozenset({StateDescriptor("has", contents=frozenset({"a"}))})),
        ),
    ],
)
def test_different_nodes_never_share_a_key(left, right):
    assert left.key != right.key


def test_canonical_key_ignores_in_motion_flag():
    states = frozenset({StateDescriptor("whole")})
    assert ObjectNode("onions", states, 0).key == ObjectNode("onions", states, 1).key


def test_canonical_key_ignores_text_presentation():
    left = ObjectNode("Chopping Board", frozenset({StateDescriptor("CLEAN")}))
    right = ObjectNode(" chopping  board ", frozenset({StateDescriptor(" clean ")}))
    assert left.key == right.key


@given(st.permutations(["whole", "clean", "warm", "dirty"]))
def test_canonical_key_is_state_order_invariant(labels):
    states = frozenset(StateDescriptor(label) for label in labels)
    node = ObjectNode("pan", states)
    assert node.key == "pan|" + "+".join(sorted(labels))


def test_motion_normalizes_label():
    assert Motion(" Chop ").label == "chop"
    with pytest.raises(ValueError):
        Motion("   ")


@pytest.mark.parametrize("extra", ["a\tb", "a\nb", "a\r", "\u2028", " a", "a\u3000", ""])
def test_motion_rejects_extras_the_format_cannot_carry(extra):
    # A tab would read back as two fields, a line break as two lines; the
    # parser strips edge whitespace, and with it an empty last field.
    with pytest.raises(ValueError):
        Motion("stir", ("slowly", extra))


def test_motion_keeps_extras_verbatim():
    assert Motion("stir", ("Slowly  now", "", "x")).extras == ("Slowly  now", "", "x")
    with pytest.raises(ValueError):
        Motion("stir", (" Slowly ", ""))


def _unit(name_in, motion, name_out, index=0):
    return FunctionalUnit(
        (ObjectNode(name_in),), Motion(motion), (ObjectNode(name_out),), index
    )


def test_functional_unit_requires_inputs_and_outputs():
    node = ObjectNode("cup")
    with pytest.raises(ValueError):
        FunctionalUnit((), Motion("pour"), (node,))
    with pytest.raises(ValueError):
        FunctionalUnit((node,), Motion("pour"), ())


def test_unit_keys_are_stored_and_survive_copies():
    ice = ObjectNode("Ice", frozenset({StateDescriptor("in", container="tray")}))
    full = ObjectNode("cup", frozenset({StateDescriptor("contains", contents={"ice"})}))
    unit = FunctionalUnit((ice, ObjectNode("cup")), Motion("pour"), (full,))
    assert unit.input_keys == ("ice|in[tray]", "cup|")
    assert unit.output_keys == ("cup|contains{ice}",)
    pickled = pickle.loads(pickle.dumps(unit))
    assert pickled == unit
    for copy in (pickled, dataclasses.replace(unit, source_index=3)):
        assert copy.input_keys == unit.input_keys
        assert copy.output_keys == unit.output_keys
    assert "input_keys" not in repr(unit)


_NODE = ObjectNode(
    "Ice", frozenset({StateDescriptor("in", container="Tray"), StateDescriptor("cold")}), 1
)
_VALUES = [
    StateDescriptor("Whole"),
    StateDescriptor("in", container="a|b"),
    StateDescriptor("holds", contents=frozenset({"Ice", "{x}"})),
    ObjectNode("Cup"),
    _NODE,
    Motion("Pour", ("", "slowly")),
    FunctionalUnit(
        (_NODE, ObjectNode("cup")),
        Motion("pour"),
        (ObjectNode("cup", frozenset({StateDescriptor("full")})),),
        4,
    ),
]


@pytest.mark.parametrize("value", _VALUES, ids=lambda value: type(value).__name__)
def test_value_objects_are_frozen_and_copy_with_their_stored_fields(value):
    for field in dataclasses.fields(value):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, field.name, getattr(value, field.name))
    copies = [pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)]
    for twin in [*copies, dataclasses.replace(value)]:
        assert twin == value and hash(twin) == hash(value)
        assert vars(twin) == vars(value)  # every stored field, keys and serials too


def test_replace_recomputes_what_a_node_stores():
    plain = dataclasses.replace(_NODE, name="Water", states=frozenset())
    assert (plain.name, plain.key) == ("water", "water|")
    with pytest.raises(ValueError):
        dataclasses.replace(_NODE, in_motion=2)


def test_rebuilding_a_parsed_node_gives_the_same_node_and_key():
    for name in FIXTURE_NAMES:
        units, _ = parse_foon(fixture_path(name, "foon").read_text())
        for node in (node for unit in units for node in unit.inputs + unit.outputs):
            rebuilt = ObjectNode(node.name, node.states, node.in_motion)
            assert rebuilt == node and rebuilt.key == node.key and hash(rebuilt) == hash(node)


def test_unit_text_excludes_source_index():
    assert _unit("a", "mix", "b", 0).to_text() == _unit("a", "mix", "b", 7).to_text()


def test_units_are_equal_by_content_whatever_their_source_index():
    first, second = _unit("a", "mix", "b", 0), _unit("a", "mix", "b", 7)
    assert first == second and hash(first) == hash(second)
    assert first != _unit("a", "chop", "b", 0)


# Every reserved character, in small alphabets and in texts that would make
# keys collide without escaping, so independent draws often meet.
_TEXT = "ab |+[]{}\\,"
_CONFUSABLE = ["a", "b", "a|b", "b|", "a+b", "a[b]", "a{b}", "a\\", "\\|"]
_items = st.one_of(
    st.sampled_from(_CONFUSABLE),
    st.text(_TEXT.replace(",", ""), min_size=1, max_size=2).filter(normalize),
)
_names = st.one_of(_items, st.text(_TEXT, min_size=1, max_size=3).filter(normalize))
_states = st.one_of(
    st.builds(StateDescriptor, _names),
    st.builds(StateDescriptor, _names, container=_names),
    st.builds(StateDescriptor, _names, contents=st.frozensets(_items, min_size=1, max_size=2)),
)
_nodes = st.builds(
    ObjectNode, _names, st.frozensets(_states, max_size=2), st.sampled_from([0, 1, False, True])
)


def _motion_or_none(label, extras):
    try:
        return Motion(label, tuple(extras))
    except ValueError:
        return None


# Extras come from a wider alphabet, so the constructor's refusals are drawn
# too; a unit is built from the motions it accepts.
_motions = st.builds(
    _motion_or_none, _names, st.lists(st.text(_TEXT + "\t\n\u3000", max_size=3), max_size=3)
).filter(lambda motion: motion is not None)
_units = st.builds(
    FunctionalUnit,
    st.lists(_nodes, min_size=1, max_size=2),
    _motions,
    st.lists(_nodes, min_size=1, max_size=2),
    st.integers(0, 9),
)


@settings(max_examples=300, deadline=None)
@given(_units)
def test_every_unit_the_constructors_accept_reads_back_from_its_text(unit):
    units, _ = parse_foon(serialize_foon([unit]))
    assert units == [unit]


@st.composite
def _unit_pairs(draw):
    """A unit and a unit that is often equal to it by content."""
    unit = draw(_units)
    how = draw(st.sampled_from(["independent", "reindexed", "reparsed"]))
    if how == "independent":
        return unit, draw(_units)
    if how == "reindexed":
        return unit, dataclasses.replace(unit, source_index=unit.source_index + 1)
    units, _ = parse_foon(unit.to_text())
    return unit, units[0]


@settings(max_examples=300, deadline=None)
@given(_unit_pairs())
def test_unit_equality_is_equality_of_text(pair):
    left, right = pair
    assert (left == right) == (left.to_text() == right.to_text())
    if left == right:
        assert hash(left) == hash(right)


def _unescaped(state):
    if state.container is not None:
        return f"{state.label}[{state.container}]"
    if state.contents is not None:
        return state.label + "{" + ",".join(sorted(state.contents)) + "}"
    return state.label


@st.composite
def _node_pairs(draw):
    """A node and one that is equal to it, or keys like it without escaping."""
    node = draw(_nodes)
    how = draw(st.sampled_from(["independent", "restated", "merged"]))
    if how == "independent":
        return node, draw(_nodes)
    if how == "restated" or not node.states:
        flag = draw(st.sampled_from([node.in_motion, 1 - node.in_motion]))
        return node, ObjectNode(node.name.upper(), frozenset(node.states), flag)
    merged = "+".join(sorted(_unescaped(state) for state in node.states))
    return node, ObjectNode(node.name, frozenset({StateDescriptor(merged)}))


@settings(max_examples=300, deadline=None)
@given(_node_pairs())
def test_node_keys_are_equal_exactly_for_equal_names_and_states(pair):
    left, right = pair
    same = (left.name, left.states) == (right.name, right.states)
    assert (left.key == right.key) == same
    if left == right:
        assert hash(left) == hash(right)


def test_unit_text_is_canonical():
    node = ObjectNode(
        "Pan ",
        frozenset({StateDescriptor("warm"), StateDescriptor("in", container="Oven")}),
        1,
    )
    unit = FunctionalUnit((node,), Motion("HEAT"), (ObjectNode("pan"),))
    assert unit.to_text() == "O\tpan\t1\nS\tin\t[oven]\nS\twarm\nM\theat\nO\tpan\t0\n"


def test_motion_profile_lookup_paths():
    profile = MotionProfile({" Chop ": 0.8}, default_rate=0.5)
    assert profile.rate_for("chop") == 0.8
    assert profile.rate_for("CHOP") == 0.8
    assert profile.rate_for("pour") == 0.5
    strict = MotionProfile(profile.rates)  # no default rate
    assert strict.rate_for("chop") == 0.8
    with pytest.raises(MissingMotionRateError):
        strict.rate_for("pour")
    with pytest.raises(MissingMotionRateError):
        MotionProfile({"chop": 0.8}).rate_for("pour")


def test_motion_profile_rejects_out_of_range_rates():
    with pytest.raises(ValueError):
        MotionProfile({"chop": 1.2})
    with pytest.raises(ValueError):
        MotionProfile({"chop": -0.1})
    with pytest.raises(ValueError):
        MotionProfile({}, default_rate=2.0)


def test_kitchen_deduplicates_by_key():
    kitchen = Kitchen(
        (
            ObjectNode("cup", frozenset({StateDescriptor("empty")})),
            ObjectNode(" CUP ", frozenset({StateDescriptor("EMPTY")}), in_motion=1),
            ObjectNode("spoon"),
        )
    )
    assert len(kitchen) == 2
    assert "cup|empty" in kitchen
    assert "spoon|" in kitchen


def test_kitchen_matching_is_exact_not_subset():
    kitchen = Kitchen(
        (ObjectNode("cup", frozenset({StateDescriptor("empty"), StateDescriptor("clean")})),)
    )
    assert "cup|clean+empty" in kitchen
    # A kitchen item with extra states does not satisfy the smaller request.
    assert "cup|empty" not in kitchen
    assert "cup|" not in kitchen


def test_build_graph_indexes_producers_in_file_order():
    graph = load_universe("ice_cup").graph
    producers = graph.producers["cup|contains{ice}"]
    assert [unit.source_index for unit in producers] == [0, 1]
    assert [unit.motion.label for unit in producers] == ["pour", "scoop"]
    # Inputs that nothing produces appear in the units but not in producers.
    assert "ice|in[tray]" in {key for unit in graph.units for key in unit.input_keys}
    assert "ice|in[tray]" not in graph.producers


def test_build_graph_catalog_covers_every_key():
    graph = load_universe("diamond").graph
    for unit in graph.units:
        for key in unit.output_keys:
            assert unit in graph.producers[key]
    for key, units in graph.producers.items():
        for unit in units:
            assert key in unit.output_keys


def test_build_graph_drops_content_duplicates():
    first = _unit("a", "mix", "b", 0)
    clone = _unit("a", "mix", "b", 5)
    other = _unit("b", "mix", "c", 1)
    graph = build_graph([first, clone, other])
    assert len(graph.units) == 2
    assert graph.duplicates_dropped == 1
    assert len(graph.producers["b|"]) == 1 and graph.producers["b|"][0] is first


def _kept_by_text(units):
    """The earlier duplicate rule: keep the first unit of each rendered text."""
    kept, seen = [], set()
    for unit in units:
        if unit.to_text() not in seen:
            seen.add(unit.to_text())
            kept.append(unit)
    return kept


def _with_duplicates(units, rng):
    """Every second unit re-indexed and some reparsed, shuffled in."""
    copies = list(units)
    for position, unit in enumerate(units):
        if position % 2:
            copies.append(dataclasses.replace(unit, source_index=1000 + position))
        if rng.random() < 0.2:
            reparsed, _ = parse_foon(unit.to_text())
            copies.append(dataclasses.replace(reparsed[0], source_index=2000 + position))
    rng.shuffle(copies)
    return copies


def _universes_with_duplicates():
    for name in FIXTURE_NAMES:
        units, _ = parse_foon(fixture_path(name, "foon").read_text())
        yield _with_duplicates(units, random.Random(name))
    for seed in range(300):
        graph, _, _, _ = random_universe(random.Random(seed))
        yield _with_duplicates(graph.units, random.Random(seed))


def test_build_graph_keeps_the_units_the_text_rule_keeps():
    for units in _universes_with_duplicates():
        graph = build_graph(units)
        expected = _kept_by_text(units)
        assert len(graph.units) == len(expected)
        assert all(got is want for got, want in zip(graph.units, expected))
        assert graph.duplicates_dropped == len(units) - len(expected)


def test_build_graph_rejects_empty_universe():
    with pytest.raises(EmptyUniverseError):
        build_graph([])


def test_task_tree_canonical_form_ignores_step_order():
    first = _unit("a", "mix", "b", 0)
    second = _unit("b", "mix", "c", 1)
    forward = TaskTree((first, second), "c|")
    backward = TaskTree((second, first), "c|")
    assert forward.canonical_form() == backward.canonical_form()


def test_rebuilding_a_graph_is_deterministic():
    rng = random.Random(42)
    from helpers import random_universe

    graph, _, _, _ = random_universe(rng)
    rebuilt = build_graph(list(graph.units))
    assert rebuilt.units == graph.units
    assert rebuilt.producers == graph.producers
