"""Core model: normalization, node identity, indexing, availability."""

import dataclasses
import pickle
import random

import pytest
from hypothesis import given
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
)

from helpers import load_universe


def test_normalize_collapses_case_and_whitespace():
    assert normalize("  Chopping   Board ") == "chopping board"
    assert normalize("ONIONS") == "onions"
    assert normalize(" \t ") == ""


def test_state_serial_forms():
    assert StateDescriptor("whole").serial() == "whole"
    assert StateDescriptor("in", container="Chopping  Board").serial() == "in[chopping board]"
    state = StateDescriptor("contains", contents=frozenset({"Salt", "ice "}))
    assert state.serial() == "contains{ice,salt}"


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
    assert unit.input_keys() == ("ice|in[tray]", "cup|")
    assert unit.output_keys() == ("cup|contains{ice}",)
    pickled = pickle.loads(pickle.dumps(unit))
    assert pickled == unit
    for copy in (pickled, dataclasses.replace(unit, source_index=3)):
        assert copy.input_keys() == unit.input_keys()
        assert copy.output_keys() == unit.output_keys()
    assert "_input_keys" not in repr(unit)


def test_unit_text_excludes_source_index():
    assert _unit("a", "mix", "b", 0).to_text() == _unit("a", "mix", "b", 7).to_text()


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
    assert "ice|in[tray]" in {key for unit in graph.units for key in unit.input_keys()}
    assert "ice|in[tray]" not in graph.producers


def test_build_graph_catalog_covers_every_key():
    graph = load_universe("diamond").graph
    for unit in graph.units:
        for key in unit.output_keys():
            assert unit in graph.producers[key]
    for key, units in graph.producers.items():
        for unit in units:
            assert key in unit.output_keys()


def test_build_graph_drops_content_duplicates():
    first = _unit("a", "mix", "b", 0)
    clone = _unit("a", "mix", "b", 5)
    other = _unit("b", "mix", "c", 1)
    graph = build_graph([first, clone, other])
    assert len(graph.units) == 2
    assert graph.duplicates_dropped == 1
    assert graph.producers["b|"] == (first,)


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
