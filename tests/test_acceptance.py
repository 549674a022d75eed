"""Acceptance suite: the gate the whole package must clear.

Each test covers one numbered criterion and prints a PASS/FAIL line
(visible with ``pytest tests/test_acceptance.py -s``).  Timed criteria
assert their budget.
"""

import functools
import io
import time

import property_checks as pc
from conftest import data_path, data_text
from scriptkb.cli import run as cli_run
from scriptkb.cyc import ExtractedTuple, event_census, extract_tuples, parse_forms
from scriptkb.grid import parse_grid, render as render_grid
from scriptkb.kb import KnowledgeBase
from scriptkb.parser import parse_database, serialize
from scriptkb.qa import Question, QuestionKind, answer
from scriptkb.recognizer import activate, format_results, score_scripts
from scriptkb.scripts import build_script, timeline
from scriptkb.stats import census, summary
from scriptkb.terms import Assertion, Measure


def criterion(number, label):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {number} ({label}): FAIL")
                raise
            print(f"criterion {number} ({label}): PASS")
        return run
    return wrap


@criterion(1, "golden parse")
def test_golden_parse(kb):
    start = time.perf_counter()
    blackout = build_script(kb, "blackout")
    assert len(blackout.roles) == 2
    assert {g.index: len(g.events) for g in blackout.events} == {1: 4, 2: 1}
    assert len(blackout.emotions) == 3
    assert len(blackout.places) == 3
    assert blackout.duration == Measure("second", "3600")
    assert blackout.period == Measure("second", "3.1536e7")

    post = build_script(kb, "mail-letter-at-post-office")
    assert len(post.roles) == 6
    assert len(post.events) == 10
    assert sum(len(g.events) for g in post.events) == 12
    assert post.cost == Measure("USD", "0.33")
    assert post.period == Measure("second", "604800")

    filling = build_script(kb, "have-filling-done")
    assert len(filling.roles) == 11
    assert len(filling.events) == 11
    assert sum(len(g.events) for g in filling.events) == 12
    assert filling.cost == Measure("USD", "200")
    assert time.perf_counter() - start < 1.0


@criterion(2, "round-trip fixpoint")
def test_round_trip(core_text, scripts_text, demo_text):
    start = time.perf_counter()
    for text in (core_text, scripts_text, demo_text):
        first = parse_database(text)
        assert not any(d.severity == "error" for d in first.diagnostics)
        second = parse_database(serialize(first.blocks))
        assert second.blocks == first.blocks
        for src in first.grid_sources:
            grid, _ = parse_grid(src.text)
            again, _ = parse_grid(render_grid(grid))
            assert again == grid
    assert time.perf_counter() - start < 1.0


@criterion(3, "goto semantics")
def test_goto_semantics():
    text = ("Object drill-loop\n"
            "[event01-of ^ [step-a doer]]\n"
            "[event02-of ^ [step-b doer]]\n"
            "[event03-of ^ [goto event01-of]]\n")
    kb = KnowledgeBase.from_texts([("t", text)])
    script = build_script(kb, "drill-loop")
    labels = {1: "A", 2: "B"}
    assert [labels[g.index] for g in timeline(script, 2)] == \
        ["A", "B", "A", "B", "A", "B"]
    assert [labels[g.index] for g in timeline(script, 0)] == ["A", "B"]


@criterion(4, "recognition reproduction")
def test_recognition(kb):
    results = score_scripts(activate("John poured shampoo on his hair.", kb), kb)
    assert {(r.script, r.score) for r in results} == {
        ("take-shower", 2.0), ("go-for-a-haircut", 2.0)}
    assert all(set(r.evidence) == {"shampoo", "hair"} for r in results)
    assert set(format_results(results)) == {
        "score 2.0 for script take-shower based on shampoo, hair",
        "score 2.0 for script go-for-a-haircut based on shampoo, hair"}


@criterion(5, "question answering")
def test_question_answering(kb):
    assert answer(kb, Question(QuestionKind.HOW_MUCH, "have-filling-done")) \
        .payload == Measure("USD", "200")
    assert answer(kb, Question(QuestionKind.WHERE_DOES_ONE,
                               "mail-letter-at-post-office")).payload == ["post-office"]
    assert answer(kb, Question(QuestionKind.HOW_OFTEN, "blackout")) \
        .payload == Measure("second", "3.1536e7")
    assert answer(kb, Question(QuestionKind.RESULT_OF, "sleep")) \
        .payload == [Assertion("restedness", ("sleeper",))]


@criterion(6, "census")
def test_census(kb_classic):
    rows = {r.script: (r.subevents, r.roles, r.places, r.other)
            for r in census(kb_classic)}
    assert rows == {
        "blackout": (5, 2, 3, 5),
        "mail-letter-at-post-office": (12, 6, 1, 5),
        "have-filling-done": (12, 11, 1, 7),
    }
    s = summary(kb_classic)
    assert s.scripts == 3
    assert (round(s.avg_subevents, 2), round(s.avg_roles, 2),
            round(s.avg_places, 2), round(s.avg_other, 2)) == \
        (9.67, 6.33, 1.67, 5.67)


@criterion(7, "rule extraction")
def test_rule_extraction():
    from scriptkb.cli import _read_event_names
    rules = data_text("cyc-rules.txt")
    events = _read_event_names(data_text("cyc-events.txt"))
    assert len(events) == 17
    forms = parse_forms(rules)
    by_head = {}
    for form in forms:
        for t in extract_tuples(form, events):
            by_head.setdefault(t.head, set()).add(t)

    bathing = {t for form in forms for t in extract_tuples(form, events)
               if t.head == "Bathing"}
    assert bathing == {
        ExtractedTuple("Bathing", "subEvents", "TurningOffWater"),
        ExtractedTuple("Bathing", "subEvents", "WashingHair")}

    opening_form = next(f for f in forms if "?OPENING" in repr(f))
    opening = extract_tuples(opening_form, events)
    assert opening and all(t.relation == "Other" for t in opening)

    rows, s = event_census(bathing, events)
    assert len(rows) == 1 and s.scripts == 1
    assert rows[0].event == "Bathing" and rows[0].subevents == 2


@criterion(8, "grid queries")
def test_grid(kb):
    grid = kb.grids["hotel-room1"]
    assert grid.height == 7
    assert len(grid.cells_of("bed")) == 10
    assert grid.object_at(10, 1) == "minibar"
    assert any(d.code == "DuplicateLegendKey" for d in kb.diagnostics)


@criterion(9, "property suites")
def test_property_suites(kb, core_text, scripts_text, demo_text):
    start = time.perf_counter()
    pc.run_isa_closure(cases=1000)
    pc.run_recognizer_properties(kb, cases=1000)
    pc.run_timeline_bound(cases=1000)
    pc.run_lexicon_consistency(cases=1000)
    pc.run_parser_totality([core_text, scripts_text, demo_text], cases=1000)
    assert time.perf_counter() - start < 30.0


@criterion(10, "command line front door")
def test_cli_front_door():
    # not a numbered criterion on its own; exercises the published interfaces
    out, err = io.StringIO(), io.StringIO()
    code = cli_run(["--kb", data_path("core.kb"), "--kb", data_path("scripts.kb"),
                    "--kb", data_path("demo.kb"),
                    "recognize", "John poured shampoo on his hair."], out, err)
    assert code == 0
    assert out.getvalue() == (
        "score 2.0 for script go-for-a-haircut based on shampoo, hair\n"
        "score 2.0 for script take-shower based on shampoo, hair\n")
    assert cli_run([], io.StringIO(), io.StringIO()) == 1
