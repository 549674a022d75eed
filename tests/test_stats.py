import re

import pytest
from property_checks import _mutations

from scriptkb import terms
from scriptkb.errors import CycleDetected, EmptyDatabase
from scriptkb.kb import KnowledgeBase
from scriptkb.stats import (
    PUBLISHED,
    SummaryRow,
    census,
    census_csv,
    format_census,
    format_comparison,
    summary,
)

EXPECTED = {
    "blackout": (5, 2, 3, 5),
    "mail-letter-at-post-office": (12, 6, 1, 5),
    "have-filling-done": (12, 11, 1, 7),
}

_OTHER = ("entry-condition-of", "result-of", "goal-of", "emotion-of",
          "duration-of", "period-of", "cost-of")


def brute_counts(kb, concept):
    """Independent recount straight off the assertion list."""
    preds = [a.predicate for a in kb.assertions_about(concept)]
    return (
        sum(1 for p in preds if re.fullmatch(r"event\d\d-of", p)),
        sum(1 for p in preds if re.fullmatch(r"role\d\d-of", p)),
        preds.count("performed-in"),
        sum(1 for p in preds
            if p in _OTHER or re.fullmatch(r"role\d\d-script-of", p)),
    )


def test_three_script_census(kb_classic):
    rows = {r.script: (r.subevents, r.roles, r.places, r.other)
            for r in census(kb_classic)}
    assert rows == EXPECTED


def test_census_matches_brute_force(kb):
    for row in census(kb):
        assert (row.subevents, row.roles, row.places, row.other) == \
            brute_counts(kb, row.script)


def test_census_reads_no_assertion(kb, monkeypatch):
    expected = census(kb)

    def fail(*args, **kwargs):
        raise AssertionError("census read an assertion")

    monkeypatch.setattr(KnowledgeBase, "sites_about", fail)
    monkeypatch.setattr(KnowledgeBase, "assertions_about", fail)
    monkeypatch.setattr(terms, "malformed", fail)
    assert census(kb) == expected
    assert summary(kb).scripts == len(expected)


def test_changing_a_census_list_leaves_the_next_census_alone(kb):
    rows = census(kb)
    expected, totals = list(rows), summary(kb)
    rows.reverse()
    del rows[1:]
    assert census(kb) == expected
    assert summary(kb) == totals


def test_census_sorted_by_name(kb):
    names = [r.script for r in census(kb)]
    assert names == sorted(names)


def test_summary_three_fixtures(kb_classic):
    s = summary(kb_classic)
    assert s.scripts == 3
    assert (round(s.avg_subevents, 2), round(s.avg_roles, 2),
            round(s.avg_places, 2), round(s.avg_other, 2)) == \
        (9.67, 6.33, 1.67, 5.67)


def test_summary_recomputes_from_rows(kb):
    rows = census(kb)
    s = summary(kb)
    assert s.scripts == len(rows)
    assert s.avg_subevents == sum(r.subevents for r in rows) / len(rows)
    assert s.avg_roles == sum(r.roles for r in rows) / len(rows)
    assert s.avg_places == sum(r.places for r in rows) / len(rows)
    assert s.avg_other == sum(r.other for r in rows) / len(rows)


def summarize(rows) -> SummaryRow:
    """The reference for ``summary``: averages over census rows."""
    return SummaryRow(len(rows), *(sum(getattr(r, column) for r in rows) / len(rows)
                                   for column in ("subevents", "roles", "places", "other")))


def test_summary_totals_match_the_rows_on_generated_and_mutated_bases(
        bench_texts, core_text, scripts_text, demo_text):
    bases = [KnowledgeBase.from_texts(bench_texts)]
    for text in _mutations([core_text, scripts_text, demo_text], 1000, 20260808):
        try:
            bases.append(KnowledgeBase.from_texts([("m", text)]))
        except CycleDetected:
            continue
    empty = 0
    for kb in bases:
        rows = census(kb)
        if not rows:
            empty += 1
            with pytest.raises(EmptyDatabase):
                summary(kb)
            continue
        assert summary(kb) == summarize(rows)  # the same integer sums, divided alike
    assert 0 < empty < len(bases) - 500


def test_single_minimal_script():
    kb = KnowledgeBase.from_texts([("t", "Object hum\n[event01-of ^ [buzz hum]]\n")])
    s = summary(kb)
    assert (s.scripts, s.avg_subevents, s.avg_roles, s.avg_places, s.avg_other) == \
        (1, 1.0, 0.0, 0.0, 0.0)


def test_empty_database_raises():
    kb = KnowledgeBase.from_texts([("t", "Object quiet-thing\n[ako ^ concept]\n")])
    assert census(kb) == []
    with pytest.raises(EmptyDatabase):
        summary(kb)


def test_non_script_concepts_do_not_count(kb_classic, core_text, scripts_text):
    baseline = census(kb_classic)
    extra = KnowledgeBase.from_texts([
        ("core.kb", core_text), ("scripts.kb", scripts_text),
        ("x", "Object bystander\n[ako ^ human]\n[green ^]\n")])
    assert [tuple_row(r) for r in census(extra)] == [tuple_row(r) for r in baseline]


def tuple_row(r):
    return (r.script, r.subevents, r.roles, r.places, r.other)


def test_goto_counts_as_subevent():
    text = ("Object looper\n[event01-of ^ [sing looper]]\n"
            "[event02-of ^ [goto event01-of]]\n")
    kb = KnowledgeBase.from_texts([("t", text)])
    assert census(kb)[0].subevents == 2


def test_inherited_fields_do_not_count():
    text = ("Object parent-script\n[event01-of ^ [hum parent-script]]\n"
            "[cost-of ^ NUMBER:USD:5]\n\n"
            "Object child-script\n[ako ^ parent-script]\n"
            "[event01-of ^ [hum child-script]]\n")
    kb = KnowledgeBase.from_texts([("t", text)])
    rows = {r.script: r.other for r in census(kb)}
    assert rows == {"parent-script": 1, "child-script": 0}


def test_published_reference_rows():
    by_name = {r.name: r for r in PUBLISHED}
    tt = by_name["ThoughtTreasure"]
    assert (tt.scripts, tt.subevents, tt.roles, tt.places, tt.other) == \
        ("93", "8.57", "5.30", "0.86", "6.10")
    assert set(by_name) == {"Cyc", "FrameNet", "Gordon's EPs", "ThoughtTreasure",
                            "WordNet 1.6"}


def test_text_table_and_csv(kb_classic):
    table = format_census(census(kb_classic))
    assert "blackout" in table and "Subevents" in table
    comparison = format_comparison(summary(kb_classic))
    assert "9.67" in comparison and "(published)" in comparison
    csv_text = census_csv(kb_classic)
    assert "blackout,5,2,3,5" in csv_text
    assert "3,9.67,6.33,1.67,5.67" in csv_text
