import sys

import pytest

from scriptkb import terms
from scriptkb.diagnostics import Diagnostic
from scriptkb.errors import (
    BadGotoTarget,
    NotAScript,
    RoleTypeMismatch,
    TooManyBindings,
    UnknownConcept,
)
from scriptkb.kb import KnowledgeBase
from scriptkb.scripts import (
    EventGroup,
    FieldValue,
    Script,
    build_script,
    inherited_field,
    instance_assertion,
    is_script,
    require_script,
    timeline,
    validate,
)
from scriptkb.stats import census, summary
from scriptkb.terms import NA, Assertion, Measure


def loop_kb():
    text = ("Object practice-scales\n"
            "[event01-of ^ [play-scale musician piano]]\n"
            "[event02-of ^ [rest musician]]\n"
            "[event03-of ^ [goto event01-of]]\n")
    return KnowledgeBase.from_texts([("t", text)])


# -- building -------------------------------------------------------------------

def test_blackout_golden(kb):
    s = build_script(kb, "blackout")
    assert s.roles == {1: "human", 2: "electricity-network"}
    assert [(g.index, len(g.events)) for g in s.events] == [(1, 4), (2, 1)]
    assert len(s.emotions) == 3
    assert s.places == ("apartment", "house", "office")
    assert s.duration == Measure("second", "3600")
    assert s.period == Measure("second", "3.1536e7")


def test_mail_letter_golden(kb):
    s = build_script(kb, "mail-letter-at-post-office")
    assert len(s.roles) == 6
    assert len(s.events) == 10
    assert sum(len(g.events) for g in s.events) == 12
    assert {g.index: len(g.events) for g in s.events if len(g.events) > 1} == {5: 2, 9: 2}
    assert len(s.goals) == 2
    assert s.cost == Measure("USD", "0.33")
    assert s.duration == Measure("second", "600")
    assert s.period == Measure("second", "604800")


def test_have_filling_done_golden(kb):
    s = build_script(kb, "have-filling-done")
    assert len(s.roles) == 11
    assert list(s.roles) == list(range(1, 12))
    assert len(s.events) == 11
    assert sum(len(g.events) for g in s.events) == 12
    assert len(s.emotions) == 2
    assert len(s.goals) == 2
    assert s.cost == Measure("USD", "200")


def test_event_order_preserved_within_group(kb):
    s = build_script(kb, "blackout")
    first_group = s.events[0]
    assert [t.predicate for t in first_group.events] == [
        "anger", "electronic-device-broken", "unhappy-surprise", "worry"]


def test_rebuild_is_structurally_equal(kb):
    assert build_script(kb, "blackout") == build_script(kb, "blackout")


def test_malformed_scalar_field():
    kb = KnowledgeBase.from_texts([("t", "Object thing\n[duration-of ^ apple]\n")])
    assert build_script(kb, "thing").duration is None
    assert [d.render() for d in kb.diagnostics if d.code == "MalformedField"] == [
        "t:2:1: error: thing: duration-of needs a measure argument"]


def test_build_unknown_concept(kb):
    with pytest.raises(UnknownConcept):
        build_script(kb, "no-such-thing")


# -- is_script --------------------------------------------------------------------

def test_is_script_cases(kb):
    assert is_script(kb, "blackout")
    assert not is_script(kb, "green-pea")
    # a parent with script children but no events of its own is not a script
    assert not is_script(kb, "mail-letter")


def test_require_script(kb):
    require_script(kb, "blackout")
    with pytest.raises(NotAScript, match="'green-pea' is not a script"):
        require_script(kb, "green-pea")
    with pytest.raises(UnknownConcept, match="unknown concept 'no-such-thing'"):
        require_script(kb, "no-such-thing")


def test_is_script_matches_events(kb):
    for concept in ("blackout", "sleep", "mail-letter", "disaster"):
        assert is_script(kb, concept) == bool(build_script(kb, concept).events)


# -- timeline ---------------------------------------------------------------------

def test_goto_unrolls_to_stated_sequence():
    kb = loop_kb()
    s = build_script(kb, "practice-scales")
    seq = [g.index for g in timeline(s, 2)]
    assert seq == [1, 2, 1, 2, 1, 2]


def test_goto_zero_unroll():
    s = build_script(loop_kb(), "practice-scales")
    assert [g.index for g in timeline(s, 0)] == [1, 2]


def test_timeline_without_goto_unchanged(kb):
    s = build_script(kb, "mail-letter-at-post-office")
    for limit in (0, 1, 5):
        assert timeline(s, limit) == list(s.events)


def test_bad_goto_target():
    text = "Object looper\n[event01-of ^ [sing singer]]\n[event02-of ^ [goto event09-of]]\n"
    kb = KnowledgeBase.from_texts([("t", text)])
    with pytest.raises(BadGotoTarget):
        timeline(build_script(kb, "looper"), 1)


# -- instance assertions ------------------------------------------------------------

@pytest.fixture()
def instance_kb(core_text, scripts_text):
    kb = KnowledgeBase.from_texts([("core", core_text), ("scripts", scripts_text)])
    kb.ontology.add_concept("John", {"human"})
    kb.ontology.add_concept("electricity-network1", {"electricity-network"})
    return kb


def test_instance_assertion_fills_roles(instance_kb):
    s = build_script(instance_kb, "blackout")
    a = instance_assertion(instance_kb, s, ["John", "electricity-network1"])
    assert a == Assertion("blackout", ("John", "electricity-network1"))
    assert a.render() == "[blackout John electricity-network1]"


def test_instance_assertion_empty_bindings(instance_kb):
    s = build_script(instance_kb, "blackout")
    assert instance_assertion(instance_kb, s, []) == Assertion("blackout", ())


def test_instance_assertion_na_allowed(instance_kb):
    s = build_script(instance_kb, "blackout")
    a = instance_assertion(instance_kb, s, ["na", "electricity-network1"])
    assert a.args[0] is NA


def test_role_type_mismatch(instance_kb):
    s = build_script(instance_kb, "blackout")
    with pytest.raises(RoleTypeMismatch):
        instance_assertion(instance_kb, s, ["green-pea"])


def test_too_many_bindings(instance_kb):
    s = build_script(instance_kb, "blackout")
    with pytest.raises(TooManyBindings):
        instance_assertion(instance_kb, s, ["John", "electricity-network1", "John"])


def test_role_positions_survive_substitution(instance_kb):
    for name in ("blackout", "mail-letter-at-post-office"):
        s = build_script(instance_kb, name)
        bindings = [s.roles[i] for i in sorted(s.roles)]  # role concepts fill themselves
        a = instance_assertion(instance_kb, s, bindings)
        for position, (index, concept) in enumerate(sorted(s.roles.items())):
            assert a.args[position] == concept


# -- validation ---------------------------------------------------------------------

def test_validate_blackout_clean(kb):
    findings = validate(kb, build_script(kb, "blackout"))
    assert [f for f in findings if f.severity == "error"] == []


def test_validate_role_gap(kb):
    s = Script("synthetic", roles={1: "human", 3: "dog"},
               events=(EventGroup(1, (Assertion("wave", ("human",)),)),))
    codes = {f.code for f in validate(kb, s)}
    assert "RoleGap" in codes


def test_validate_bad_goto(kb):
    s = Script("synthetic", events=(
        EventGroup(1, (Assertion("sing", ("human",)),)),
        EventGroup(2, (Assertion("goto", ("event09-of",)),), goto_target=9)))
    codes = {f.code for f in validate(kb, s)}
    assert "BadGotoTarget" in codes


def test_validate_duplicate_scalar_warns():
    text = ("Object thing\n[event01-of ^ [hum thing]]\n"
            "[duration-of ^ NUMBER:second:5]\n[duration-of ^ NUMBER:second:9]\n")
    kb = KnowledgeBase.from_texts([("t", text)])
    s = build_script(kb, "thing")
    assert s.duration == Measure("second", "5")  # first wins
    assert any(f.code == "DuplicateField" for f in validate(kb, s))


def test_validate_nonpositive_measure(kb):
    s = Script("synthetic", duration=Measure("second", "0"))
    assert any(f.code == "NonPositiveMeasure" for f in validate(kb, s))


def test_validate_event_args_outside_roles_is_informational(kb):
    findings = validate(kb, build_script(kb, "blackout"))
    outside = [f for f in findings if f.code == "EventArgOutsideRoles"]
    assert outside and all(f.severity == "info" for f in outside)
    assert any("light-source" in f.message for f in outside)


def test_validate_event_args_may_name_the_scripts_places(kb):
    # attend-class is performed in a classroom, which its events name
    findings = validate(kb, build_script(kb, "attend-class"))
    assert not [f for f in findings if "'classroom'" in f.message]


def test_validate_duplicate_field_sits_on_second_line():
    text = ("Object thing\n[event01-of ^ [hum thing]]\n"
            "[duration-of ^ NUMBER:second:5]\n[duration-of ^ NUMBER:second:9]\n")
    kb = KnowledgeBase.from_texts([("t", text)])
    assert [d for d in validate(kb, build_script(kb, "thing"))
            if d.code == "DuplicateField"] == [
        Diagnostic("t", 4, 1, "warning", "DuplicateField",
                   "duration-of given 2 times; first wins")]


def test_validate_field_given_three_times_warns_once_at_its_second():
    text = ("Object thing\n[role01-of ^ human]\n[duration-of ^ NUMBER:second:5]\n"
            "[event01-of ^ [hum human]]\n[duration-of ^ NUMBER:second:9]\n"
            "[role01-of ^ dog]\n[duration-of ^ NUMBER:second:7]\n")
    kb = KnowledgeBase.from_texts([("t", text)])
    assert [d for d in validate(kb, build_script(kb, "thing"))
            if d.code == "DuplicateField"] == [
        Diagnostic("t", 6, 1, "warning", "DuplicateField",
                   "role01-of given 2 times; first wins"),
        Diagnostic("t", 5, 1, "warning", "DuplicateField",
                   "duration-of given 3 times; first wins")]


def test_validate_diagnostics_sit_at_the_offending_assertion():
    text = ("Object looper\n[role01-of ^ singer]\n[role03-of ^ hall]\n"
            "[event01-of ^ [sing singer]]\n[event01-of ^ [tune piano]]\n"
            "[event02-of ^ [goto event09-of]]\n[role05-script-of ^ encore]\n"
            "[duration-of ^ NUMBER:second:0]\n")
    kb = KnowledgeBase.from_texts([("t", text)])
    found = {d.code: (d.file, d.line, d.col) for d in validate(kb, build_script(kb, "looper"))}
    assert found == {
        "RoleGap": ("t", 2, 1),  # about the whole script: its first assertion
        "RoleScriptWithoutRole": ("t", 7, 1),
        "BadGotoTarget": ("t", 6, 1),
        "NonPositiveMeasure": ("t", 8, 1),
        "EventArgOutsideRoles": ("t", 5, 1),  # piano, in the second event of group 01
    }


def test_validate_script_without_assertions_sits_at_script_origin(kb):
    s = Script("synthetic", roles={1: "human", 3: "dog"})
    assert [(d.file, d.line, d.col, d.code) for d in validate(kb, s)] == [
        ("<script>", 0, 0, "RoleGap")]


# -- inheritance ----------------------------------------------------------------------

def test_cost_inherited_from_parent_track(kb):
    fv = inherited_field(kb, "eat-in-fast-food-restaurant", "cost")
    assert fv.value == Measure("USD", "30")
    assert fv.source == "eat-in-restaurant"
    assert fv.inherited


def test_own_value_wins(kb):
    fv = inherited_field(kb, "blackout", "duration")
    assert fv.value == Measure("second", "3600")
    assert fv.source == "blackout"
    assert not fv.inherited


def test_own_duration_not_masked_by_parent(kb):
    fv = inherited_field(kb, "eat-in-fast-food-restaurant", "duration")
    assert fv.value == Measure("second", "1800")
    assert not fv.inherited


def test_first_measure_wins_own_and_inherited():
    text = ("Object pay\n[cost-of ^ NUMBER:USD:5]\n[cost-of ^ NUMBER:USD:7]\n"
            "Object tip\n[ako ^ pay]\n")
    kb = KnowledgeBase.from_texts([("t", text)])
    assert inherited_field(kb, "pay", "cost") == FieldValue(Measure("USD", "5"), "pay", False)
    assert inherited_field(kb, "tip", "cost") == FieldValue(Measure("USD", "5"), "pay", True)


def test_absent_everywhere_is_none(kb):
    assert inherited_field(kb, "green-pea", "cost") is None


def test_events_never_inherit(kb):
    assert not is_script(kb, "mail-letter")
    assert build_script(kb, "mail-letter").events == ()


def test_inherited_field_rejects_unknown_field(kb):
    with pytest.raises(ValueError):
        inherited_field(kb, "blackout", "events")


def test_views_inherited_fields_and_census_read_no_assertion(kb, monkeypatch):
    concepts = list(kb.ontology.concepts())
    fields = ("places", "duration", "period", "cost")

    def query():
        return ([build_script(kb, c) for c in concepts],
                [inherited_field(kb, c, f) for c in concepts for f in fields],
                census(kb), summary(kb))

    expected = query()

    def fail(*args, **kwargs):
        raise AssertionError("a query read an assertion")

    monkeypatch.setattr(KnowledgeBase, "sites_about", fail)
    monkeypatch.setattr(KnowledgeBase, "assertions_about", fail)
    original = terms.malformed
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "scriptkb" and vars(module).get("malformed") is original:
            monkeypatch.setattr(module, "malformed", fail)
    assert query() == expected


def test_validate_warns_when_a_goto_shares_its_group():
    text = ("Object loop\n"
            "[event01-of ^ [sing loop]]\n"
            "[event02-of ^ [rest loop]]\n"
            "[event02-of ^ [goto event01-of]]\n")
    kb = KnowledgeBase.from_texts([("t", text)])
    assert [(d.file, d.line, d.severity, d.code, d.message)
            for d in validate(kb, build_script(kb, "loop")) if d.code == "GotoNotAlone"] == [
        ("t", 4, "warning", "GotoNotAlone", "group 02 mixes a goto with other events")]


def test_validate_rejects_a_negative_cost():
    text = "Object buy\n[event01-of ^ [pay buyer]]\n[cost-of ^ NUMBER:USD:-2]\n"
    kb = KnowledgeBase.from_texts([("t", text)])
    assert [(d.file, d.line, d.severity, d.code, d.message)
            for d in validate(kb, build_script(kb, "buy")) if d.code == "NonPositiveMeasure"] == [
        ("t", 3, "error", "NonPositiveMeasure", "cost must not be negative, got -2")]
