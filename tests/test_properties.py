from decimal import Decimal
from functools import partial

from hypothesis import example, given, settings
from hypothesis import strategies as st

import property_checks as pc
from scriptkb.errors import KbError
from scriptkb.kb import KnowledgeBase
from scriptkb.parser import parse_assertion, parse_database, parse_measure, serialize
from scriptkb.terms import Assertion, Measure, ObjectBlock


def test_isa_matches_bruteforce_closure():
    pc.run_isa_closure(cases=1000)


def test_recognizer_score_and_monotonicity(kb):
    pc.run_recognizer_properties(kb, cases=1000)


def test_every_lexicon_phrase_activates(kb):
    assert pc.run_lexicon_activation(kb, cases=1000) > 0


def test_every_lexicon_phrase_activates_on_mutated_bases(core_text, scripts_text, demo_text):
    pc.run_mutated_lexicon_activation([core_text, scripts_text, demo_text], cases=1000)


def test_script_index_matches_a_full_scan(kb):
    pc.run_index_matches_full_scan(kb)


def test_script_index_matches_a_full_scan_on_mutated_bases(core_text, scripts_text, demo_text):
    pc.run_mutated_index_matches_full_scan([core_text, scripts_text, demo_text], cases=1000)


def test_script_index_matches_a_full_scan_with_malformed_fields(scripts_text, demo_text):
    pc.run_malformed_fields_index_matches_full_scan([scripts_text, demo_text])


def test_scores_match_the_reference_ranking(kb, bench_texts):
    pc.run_scores_match_reference(kb, cases=1000)
    pc.run_scores_match_reference(KnowledgeBase.from_texts(bench_texts))


def test_scores_match_the_reference_ranking_on_mutated_bases(core_text, scripts_text,
                                                             demo_text):
    pc.run_on_mutated_bases(partial(pc.run_scores_match_reference, cases=10),
                            [core_text, scripts_text, demo_text], cases=1000)


def test_census_matches_a_per_assertion_count(kb, bench_texts):
    pc.run_census_matches_reference(kb)
    pc.run_census_matches_reference(KnowledgeBase.from_texts(bench_texts))


def test_census_matches_a_per_assertion_count_on_mutated_bases(core_text, scripts_text,
                                                               demo_text):
    pc.run_on_mutated_bases(pc.run_census_matches_reference,
                            [core_text, scripts_text, demo_text], cases=1000)


def test_census_matches_a_per_assertion_count_with_malformed_fields(scripts_text, demo_text):
    pc.run_on_malformed_field_bases(pc.run_census_matches_reference, [scripts_text, demo_text])


def test_views_and_inherited_fields_match_a_per_assertion_build(kb, bench_texts):
    pc.run_views_match_reference(kb)
    pc.run_views_match_reference(KnowledgeBase.from_texts(bench_texts))


def test_views_and_inherited_fields_match_a_per_assertion_build_on_mutated_bases(
        core_text, scripts_text, demo_text):
    pc.run_on_mutated_bases(pc.run_views_match_reference,
                            [core_text, scripts_text, demo_text], cases=1000)


def test_views_and_inherited_fields_match_a_per_assertion_build_with_malformed_fields(
        scripts_text, demo_text):
    pc.run_on_malformed_field_bases(pc.run_views_match_reference, [scripts_text, demo_text])


def test_ancestors_match_the_frontier_walk(kb, bench_texts):
    pc.run_ancestors_match_reference(kb.ontology)
    pc.run_ancestors_match_reference(KnowledgeBase.from_texts(bench_texts).ontology)


def test_validate_matches_the_reference(kb, bench_texts):
    pc.run_validate_matches_reference(kb)
    pc.run_validate_matches_reference(KnowledgeBase.from_texts(bench_texts))


def test_validate_matches_the_reference_on_mutated_bases(core_text, scripts_text, demo_text):
    pc.run_on_mutated_bases(pc.run_validate_matches_reference,
                            [core_text, scripts_text, demo_text], cases=1000)


def test_validate_matches_the_reference_with_malformed_fields(scripts_text, demo_text):
    pc.run_on_malformed_field_bases(pc.run_validate_matches_reference,
                                    [scripts_text, demo_text])


def test_timeline_length_bound():
    pc.run_timeline_bound(cases=1000)


def test_lexicon_bidirectional_consistency():
    pc.run_lexicon_consistency(cases=1000)


def test_parser_totality_on_mutated_fixtures(core_text, scripts_text, demo_text):
    pc.run_parser_totality([core_text, scripts_text, demo_text], cases=1000)


def test_clean_loads_build_every_script(core_text, scripts_text, demo_text):
    pc.run_clean_load_builds_scripts([core_text, scripts_text, demo_text], cases=1000)


# -- hypothesis spot checks --------------------------------------------------------

decimals = st.decimals(allow_nan=False, allow_infinity=False,
                       min_value=Decimal("-1e12"), max_value=Decimal("1e12"))


@given(decimals)
def test_measure_text_round_trips(value):
    token = f"NUMBER:second:{value}"
    m = parse_measure(token)
    assert m.render() == token
    assert parse_measure(m.render()) == m
    assert m == Measure("second", str(value))


def built(make):
    """What ``make()`` returns, or None when it raises a ``KbError``."""
    try:
        return make()
    except KbError:
        return None


# units the format knows, and two it does not; texts near a number's rule
measure_units = st.sampled_from(("second", "USD", "in", "parsec", "Second"))
numberish = st.from_regex(r"[+-]?[0-9٣_ .]{0,6}(?:[eE][+-]?[0-9٣_ ]{0,3})?", fullmatch=True)


@settings(max_examples=500, deadline=None)
@given(measure_units, (st.text() | numberish).filter(lambda text: ":" not in text))
@example("second", "\u0663")
@example("second", "1_000")
@example("second", " 3 ")
@example("parsec", "3")
def test_measure_and_parser_share_one_rule(unit, text):
    m = built(lambda: Measure(unit, text))
    parsed = built(lambda: parse_measure(f"NUMBER:{unit}:{text}"))
    assert (m is None) == (parsed is None)
    if m is None:
        return
    assert parsed == m and parsed.text == m.text
    block = ObjectBlock("x", [], [Assertion("duration-of", ("x", m))])
    result = parse_database(serialize([block]))
    assert result.diagnostics == []
    assert result.blocks == [block]
    assert result.blocks[0].assertions[0].args[1].text == m.text


symbols = st.from_regex(r"[a-z][a-z0-9-]{0,8}", fullmatch=True)


@settings(max_examples=200, deadline=None)
@given(symbols, st.lists(symbols, min_size=1, max_size=4))
def test_generated_assertions_round_trip(predicate, args):
    text = "[" + predicate + " " + " ".join(args) + "]"
    a = parse_assertion(text)
    assert parse_assertion(a.render()) == a


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(symbols, st.lists(st.tuples(symbols, symbols),
                                            max_size=4)),
                min_size=1, max_size=4, unique_by=lambda r: r[0]))
def test_generated_blocks_round_trip(layout):
    blocks = []
    for concept, pairs in layout:
        blocks.append(ObjectBlock(concept, assertions=[
            parse_assertion(f"[{p} {concept} {arg}]") for p, arg in pairs]))
    result = parse_database(serialize(blocks))
    assert result.diagnostics == []
    assert result.blocks == blocks
