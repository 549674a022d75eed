from dataclasses import FrozenInstanceError, dataclass, field

import pytest
from property_checks import plain_twin, run_record_matches_twin

from scriptkb.errors import MalformedNumber
from scriptkb.terms import (CONCEPT, FIELDS, MEASURE, NA, TERM, Assertion, Field, Measure,
                            NaType, malformed, render_term, slot_init, term_symbols)


def test_na_is_singleton():
    assert NaType() is NA
    assert repr(NA) == "na"


def test_measure_equality_across_notations():
    assert Measure("second", "3.1536e+07") == Measure("second", "31536000")
    assert Measure("second", "0.25") == Measure("second", ".25")
    assert Measure("second", "1") != Measure("USD", "1")
    assert Measure("USD", "1") != Measure("USD", "1.5")
    assert Measure("USD", "1") != "1 USD"


def test_measure_hash_consistent_with_equality():
    a = Measure("second", "3.1536e+07")
    b = Measure("second", "31536000")
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


def test_measure_accepts_numbers():
    assert Measure("USD", 200) == Measure("USD", "200")


def test_measure_rejects_nonfinite():
    for bad in ("abc", "NaN", "Infinity", ""):
        with pytest.raises(MalformedNumber):
            Measure("second", bad)


def test_measure_value_and_quantity():
    m = Measure("in", ".25")
    assert m.value == 0.25
    assert str(m.quantity) == "0.25"


def test_assertion_render_nested():
    inner = Assertion("fetch-from", ("human", NA, "light-source"))
    outer = Assertion("event02-of", ("blackout", inner))
    assert outer.render() == "[event02-of blackout [fetch-from human na light-source]]"


def test_assertion_render_zero_args():
    assert Assertion("blackout").render() == "[blackout]"


def test_render_term_variants():
    assert render_term("apple") == "apple"
    assert render_term(NA) == "na"
    assert render_term(Measure("USD", "0.33")) == "NUMBER:USD:0.33"


def test_assertions_hashable():
    a = Assertion("cost-of", ("x", Measure("USD", "5")))
    b = Assertion("cost-of", ("x", Measure("USD", "5.0")))
    assert a == b
    assert len({a, b}) == 1


def test_assertion_is_slotted_and_frozen():
    a = Assertion("event01-of", ("blackout", Assertion("fetch-from", ("human", NA))))
    assert not hasattr(a, "__dict__")
    for name in ("predicate", "args"):
        with pytest.raises(FrozenInstanceError):
            setattr(a, name, ())
    same = Assertion("event01-of", ("blackout", Assertion("fetch-from", ("human", NA))))
    assert a == same and a is not same
    assert hash(a) == hash(same)
    assert len({a, same}) == 1


def test_assertion_behaves_as_a_plain_frozen_slotted_dataclass():
    twin = plain_twin(Assertion, render=Assertion.render, __repr__=Assertion.__repr__)
    run_record_matches_twin(Assertion, twin, ("cost-of", ("x", Measure("USD", "5"))),
                            ("goal-of", ("y", NA)))
    assert Assertion("blackout") == Assertion("blackout", ()) == Assertion(predicate="blackout")


@pytest.mark.parametrize("options, default", [
    ({"frozen": True}, field(default=0)),
    ({"slots": True}, field(default=0)),
    ({"frozen": True, "slots": True}, field(default_factory=int)),
])
def test_slot_init_refuses_what_it_cannot_fill(options, default):
    class Record:
        name: str
        count: int = default
    with pytest.raises(TypeError):
        slot_init(dataclass(**options)(Record))


def test_term_symbols_recursive():
    inner = Assertion("fetch-from", ("human", NA, "light-source"))
    outer = Assertion("event02-of", ("blackout", inner, Measure("second", "1")))
    assert term_symbols(outer) == [
        "event02-of", "blackout", "fetch-from", "human", "light-source"]
    assert term_symbols(outer, include_predicates=False) == [
        "blackout", "human", "light-source"]
    assert term_symbols("human") == ["human"]
    assert term_symbols(NA) == [] and term_symbols(Measure("second", "1")) == []


def test_field_table_expands_every_numbered_predicate():
    assert FIELDS["event00-of"] == Field("events", 0, TERM)
    assert FIELDS["role07-of"] == Field("roles", 7, CONCEPT)
    assert FIELDS["role99-script-of"] == Field("role_scripts", 99, CONCEPT)
    assert FIELDS["cost-of"] == Field("cost", None, MEASURE)
    for name in ("event1-of", "event100-of", "role01-script", "ako", "goto"):
        assert name not in FIELDS
    assert len(FIELDS) == 8 + 3 * 100


@pytest.mark.parametrize("assertion, problem", [
    (Assertion("role01-of", ("thing", NA)), "thing: role01-of needs a concept argument"),
    (Assertion("performed-in", ("thing", Measure("USD", "1"))),
     "thing: performed-in needs a concept argument"),
    (Assertion("duration-of", ("thing", "apple")),
     "thing: duration-of needs a measure argument"),
    (Assertion("event02-of", ("thing",)), "thing: event02-of needs a term argument"),
    (Assertion("goal-of", ("thing",)), "thing: goal-of needs a term argument"),
    (Assertion("event02-of", ("thing", "nap")), None),
    (Assertion("cost-of", ("thing", Measure("USD", "1"))), None),
    (Assertion("made-of", ("thing",)), None),
])
def test_malformed_checks_the_shape_each_field_needs(assertion, problem):
    assert malformed(assertion) == problem
