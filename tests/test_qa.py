import pytest

from scriptkb.errors import NotAScript, UnknownSubjectPhrase, UnrecognizedTemplate
from scriptkb.kb import KnowledgeBase
from scriptkb.qa import (
    Question,
    QuestionKind,
    answer,
    parse_question,
    render_question,
)
from scriptkb.recognizer import activate, mention_set, score_scripts
from scriptkb.scripts import build_script
from scriptkb.terms import Assertion, Measure


# -- template parsing -------------------------------------------------------------

@pytest.mark.parametrize("text,kind,subject", [
    ("What does a waiter do?", QuestionKind.WHAT_DOES, "waiter"),
    ("What is shampoo used for?", QuestionKind.USED_FOR, "shampoo"),
    ("Where is a minibar found?", QuestionKind.WHERE_FOUND, "minibar"),
    ("What does a blackout consist of?", QuestionKind.CONSIST_OF, "blackout"),
    ("What is the result of sleep?", QuestionKind.RESULT_OF, "sleep"),
    ("Where does one mail a letter at the post office?",
     QuestionKind.WHERE_DOES_ONE, "mail-letter-at-post-office"),
    ("How long does a blackout take?", QuestionKind.HOW_LONG, "blackout"),
    ("How often does one sleep?", QuestionKind.HOW_OFTEN, "sleep"),
    ("How much does a filling cost?", QuestionKind.HOW_MUCH, "have-filling-done"),
])
def test_nine_templates(kb, text, kind, subject):
    q = parse_question(kb, text)
    assert (q.kind, q.subject) == (kind, subject)


def test_templates_match_case_insensitively(kb):
    q = parse_question(kb, "how much does a filling cost")
    assert (q.kind, q.subject) == (QuestionKind.HOW_MUCH, "have-filling-done")


def test_unrecognized_template(kb):
    with pytest.raises(UnrecognizedTemplate):
        parse_question(kb, "Why is the sky blue?")


def test_unknown_subject_phrase(kb):
    with pytest.raises(UnknownSubjectPhrase):
        parse_question(kb, "How much does a flurble cost?")


def test_ambiguous_phrase_notes_choice(kb):
    q = parse_question(kb, "Where is an orange found?")
    assert q.subject == "color-orange"
    assert q.note and "orange" in q.note


def test_script_kind_prefers_script_candidate():
    from scriptkb.kb import KnowledgeBase
    text = ("Object pastime\n[English] jog\n\n"
            "Object go-jogging\n[English] jog\n[event01-of ^ [run jogger]]\n")
    small = KnowledgeBase.from_texts([("t", text)])
    q = parse_question(small, "How long does a jog take?")
    assert q.subject == "go-jogging"
    assert q.note  # ambiguity recorded
    # non-script kinds take the first candidate
    q2 = parse_question(small, "Where is a jog found?")
    assert q2.subject == "pastime"


def test_render_parse_identity_on_scripts(kb):
    for name in kb.script_concepts():
        if not kb.ontology.lexemes_of(name, "English"):
            continue
        for kind in QuestionKind:
            q = Question(kind, name)
            back = parse_question(kb, render_question(kb, q))
            assert back.kind == kind
            assert back.subject == name


# -- answers ----------------------------------------------------------------------

def test_how_much_filling(kb):
    a = answer(kb, Question(QuestionKind.HOW_MUCH, "have-filling-done"))
    assert a.payload == Measure("USD", "200")
    assert a.sources == ("have-filling-done",)


def test_where_does_one_mail(kb):
    a = answer(kb, Question(QuestionKind.WHERE_DOES_ONE, "mail-letter-at-post-office"))
    assert a.payload == ["post-office"]


def test_how_often_blackout(kb):
    a = answer(kb, Question(QuestionKind.HOW_OFTEN, "blackout"))
    assert a.payload == Measure("second", "3.1536e7")


def test_result_of_sleep(kb):
    a = answer(kb, Question(QuestionKind.RESULT_OF, "sleep"))
    assert a.payload == [Assertion("restedness", ("sleeper",))]


def test_where_found_minibar_via_grid(kb):
    a = answer(kb, Question(QuestionKind.WHERE_FOUND, "minibar"))
    assert a.payload == ["hotel-room"]
    assert "hotel-room1" in a.sources


def test_where_found_via_script_mentions(kb):
    a = answer(kb, Question(QuestionKind.WHERE_FOUND, "shampoo"))
    assert set(a.payload) == {"bathroom", "barbershop"}


def test_what_does_waiter_prefers_role_script(kb):
    a = answer(kb, Question(QuestionKind.WHAT_DOES, "waiter"))
    by_script = {item.script: item for item in a.payload}
    assert by_script["eat-in-restaurant"].role_script == "wait-tables"
    assert by_script["eat-in-restaurant"].role_index == 2
    assert "wait-tables" in by_script  # waiter is also role 1 there


def test_used_for_shampoo(kb):
    a = answer(kb, Question(QuestionKind.USED_FOR, "shampoo"))
    scripts = [item.script for item in a.payload]
    assert scripts == ["go-for-a-haircut", "take-shower"]
    haircut = a.payload[0]
    assert any("shampoo" in t.render() for t in haircut.events)


@pytest.mark.parametrize("question", [
    "What does a dog do?", "What is shampoo used for?", "Where is shampoo found?"])
def test_whole_base_answers_build_only_the_scripts_they_name(kb, built_scripts, question):
    answer(kb, parse_question(kb, question))  # the first whole-base query builds the index
    built_scripts.clear()
    a = answer(kb, parse_question(kb, question))
    scripts = [s for s in a.sources if s not in kb.grids]
    assert scripts and sorted(built_scripts) == scripts


def test_consist_of_timeline(kb):
    a = answer(kb, Question(QuestionKind.CONSIST_OF, "mail-letter-at-post-office"))
    assert [g.index for g in a.payload] == list(range(1, 11))


def test_how_much_inherited(kb):
    a = answer(kb, Question(QuestionKind.HOW_MUCH, "eat-in-fast-food-restaurant"))
    assert a.payload == Measure("USD", "30")
    assert a.sources == ("eat-in-restaurant",)


def test_unknown_answer_is_empty_not_error(kb):
    a = answer(kb, Question(QuestionKind.HOW_MUCH, "sleep"))
    assert a.payload is None


def test_not_a_script_for_script_kinds(kb):
    with pytest.raises(NotAScript):
        answer(kb, Question(QuestionKind.HOW_LONG, "green-pea"))


def test_where_does_one_subset_of_where_found(kb):
    # every place a script runs in shows up when asking where its mentions live
    for name in kb.script_concepts():
        script = build_script(kb, name)
        own = answer(kb, Question(QuestionKind.WHERE_DOES_ONE, name)).payload or []
        for concept in mention_set(script):
            found = answer(kb, Question(QuestionKind.WHERE_FOUND, concept)).payload
            assert set(own) <= set(found)


def test_a_malformed_field_is_left_out_of_its_script_and_queries_still_answer():
    kb = KnowledgeBase.from_texts([("t", (
        "Object person\n[English] person\n\n"
        "Object a\n[role01-of ^ person]\n[event01-of ^ [walk person]]\n\n"
        "Object b\n[role01-of ^ person]\n[event01-of ^ [run person]]\n"
        "[duration-of ^ apple]\n"))])
    assert [d.render() for d in kb.diagnostics if d.severity == "error"] == [
        "t:11:1: error: b: duration-of needs a measure argument"]
    results = score_scripts(activate("a person", kb), kb)
    assert [(r.script, r.evidence) for r in results] == [("a", ("person",)), ("b", ("person",))]
    got = answer(kb, parse_question(kb, "What does a person do?"))
    assert got.sources == ("a", "b")
    assert answer(kb, Question(QuestionKind.HOW_LONG, "b")).payload is None
