import pytest
from property_checks import plain_twin, run_lexicon_activation, run_record_matches_twin

from scriptkb.kb import KnowledgeBase
from scriptkb.recognizer import (
    Activation,
    ActivationSet,
    RecognitionResult,
    activate,
    format_results,
    mention_set,
    score_scripts,
)
from scriptkb.scripts import build_script


def concepts(kb, text):
    return activate(text, kb).concepts()


# -- activation -----------------------------------------------------------------

def test_shampoo_sentence_activates_both(kb):
    assert concepts(kb, "John poured shampoo on his hair.") == ("shampoo", "hair")



def test_a_phrase_written_with_a_run_of_whitespace_activates():
    kb = KnowledgeBase.from_texts([("t", "Object outage\n"
                                         "[English] power  failure, dark\ttime\n")])
    assert kb.ontology.lexemes_of("outage", "English") == ["power failure", "dark time"]
    for text in ("power  failure", "power failure", "It was dark\ttime."):
        assert concepts(kb, text) == ("outage",), text
    assert [(a.surface, a.phrase) for a in activate("a dark  time", kb).items] == [
        ("dark  time", "dark time")]

def test_empty_text(kb):
    acts = activate("", kb)
    assert acts.items == ()
    assert acts.concepts() == ()


def test_two_word_phrase_wins_over_tokens(kb):
    acts = activate("a power failure downtown", kb)
    assert acts.concepts() == ("blackout",)
    item = acts.items[0]
    assert item.surface == "power failure"
    assert item.phrase == "power failure"


def test_spans_do_not_overlap(kb):
    acts = activate("power failure power failure", kb)
    spans = [(a.start, a.end) for a in acts.items]
    assert spans == sorted(spans)
    for (s1, e1), (s2, e2) in zip(spans, spans[1:]):
        assert e1 <= s2


def test_sentence_initial_capitalization(kb):
    assert concepts(kb, "Shampoo is slippery") == ("shampoo",)


def test_suffix_stripping(kb):
    assert concepts(kb, "two dogs barked") == ("dog",)
    assert concepts(kb, "three dresses") == ()


def test_stopwords_never_activate(kb):
    # "a", "on", "his" are closed-class; nothing here is in the lexicon
    assert concepts(kb, "on his a the of") == ()


@pytest.mark.parametrize("text, concept, span", [
    ("I went to mail a letter at the post office",
     "mail-letter-at-post-office", "mail a letter at the post office"),
    ("We eat in a fast food restaurant tonight",
     "eat-in-fast-food-restaurant", "eat in a fast food restaurant"),
])
def test_phrases_longer_than_four_words_activate(kb, text, concept, span):
    acts = activate(text, kb)
    assert [(a.concept, a.surface, a.phrase) for a in acts.items] == [(concept, span, span)]
    assert text[acts.items[0].start:acts.items[0].end] == span


def test_french_text_has_no_stop_words():
    from scriptkb.kb import KnowledgeBase
    kb = KnowledgeBase.from_texts([("t", "Object ore\n[English] ore; [French] on, or\n")])
    assert activate("on or", kb, "French").concepts() == ("ore",)
    assert activate("on or", kb, "English").concepts() == ()


def test_a_phrase_with_a_latin_extended_a_letter_activates():
    kb = KnowledgeBase.from_texts([("t", "Object egg\n[French] œuf\n\n"
                                         "Object heart\n[French] cœur\n\n"
                                         "Object sister\n[French] sœur\n")])
    acts = activate("Sœur, un œuf et mon cœur", kb, "French")
    assert [(a.concept, a.surface) for a in acts.items] == [
        ("sister", "Sœur"), ("egg", "œuf"), ("heart", "cœur")]
    assert run_lexicon_activation(kb, cases=20) == 3


def test_ambiguous_phrase_fans_out(kb):
    assert set(concepts(kb, "an orange")) == {"color-orange", "fruit-orange"}


def test_french_activation(kb):
    acts = activate("le caniche", kb, "French")
    assert acts.concepts() == ("poodle",)


# -- mention sets ------------------------------------------------------------------

def test_blackout_mention_superset(kb):
    mset = mention_set(build_script(kb, "blackout"))
    assert {"human", "electricity-network", "fetch-from", "light-source",
            "apartment", "house", "office"} <= mset


def test_mentions_exclude_na_and_self(kb):
    mset = mention_set(build_script(kb, "blackout"))
    assert "na" not in mset
    assert "blackout" not in mset


def test_filling_mentions_instruments(kb):
    mset = mention_set(build_script(kb, "have-filling-done"))
    assert "novocaine" in mset and "dental-drill" in mset


def test_mentions_with_no_events_are_places(kb):
    assert mention_set(build_script(kb, "mail-letter")) == frozenset()


def test_goto_not_mentioned():
    from scriptkb.kb import KnowledgeBase
    text = ("Object looper\n[event01-of ^ [sing singer]]\n"
            "[event02-of ^ [goto event01-of]]\n")
    kb = KnowledgeBase.from_texts([("t", text)])
    mset = mention_set(build_script(kb, "looper"))
    assert mset == {"sing", "singer"}


# -- scoring ------------------------------------------------------------------------

def test_shampoo_hair_scores(kb):
    results = score_scripts(activate("John poured shampoo on his hair.", kb), kb)
    assert [(r.script, r.score) for r in results] == [
        ("go-for-a-haircut", 2.0), ("take-shower", 2.0)]
    assert all(r.evidence == ("shampoo", "hair") for r in results)


def test_output_format_matches_convention(kb):
    lines = format_results(score_scripts(
        activate("John poured shampoo on his hair.", kb), kb))
    assert lines == [
        "score 2.0 for script go-for-a-haircut based on shampoo, hair",
        "score 2.0 for script take-shower based on shampoo, hair",
    ]


def test_empty_activations_empty_results(kb):
    assert score_scripts(ActivationSet(), kb) == []


def test_generalization_climbs_hierarchy(kb):
    # poodle is a dog; walk-the-dog mentions dog, not poodle
    assert "dog" in kb.ontology.ancestors("poodle")
    results = score_scripts(activate("my poodle", kb), kb)
    assert [(r.script, r.score) for r in results] == [("walk-the-dog", 1.0)]
    assert results[0].evidence == ("poodle",)


def test_generalization_off_requires_exact_mention(kb):
    acts = activate("my poodle", kb)
    assert score_scripts(acts, kb, generalization=False) == []
    # brute-force check: exact membership over every script
    for r in score_scripts(acts, kb, generalization=False):
        mset = mention_set(build_script(kb, r.script))
        assert all(c in mset for c in r.evidence)


def test_score_is_evidence_count(kb):
    text = "the dog ate shampoo near the hair in the restaurant"
    for r in score_scripts(activate(text, kb), kb):
        assert r.score == float(len(r.evidence))
        assert len(set(r.evidence)) == len(r.evidence)


def test_concept_counts_once_despite_repeats(kb):
    once = score_scripts(activate("shampoo", kb), kb)
    twice = score_scripts(activate("shampoo shampoo shampoo", kb), kb)
    assert once == twice


def test_recognition_builds_no_script_once_the_index_exists(kb, built_scripts):
    activations = activate("John poured shampoo on his hair.", kb)
    score_scripts(activations, kb)  # the first whole-base query builds the index
    built_scripts.clear()
    assert score_scripts(activations, kb) and built_scripts == []


def test_ordering_deterministic(kb):
    text = "shampoo hair dog bed menu"
    first = score_scripts(activate(text, kb), kb)
    second = score_scripts(activate(text, kb), kb)
    assert first == second
    scores = [r.score for r in first]
    assert scores == sorted(scores, reverse=True)


# -- records --------------------------------------------------------------------------

def test_activation_behaves_as_a_plain_frozen_slotted_dataclass():
    run_record_matches_twin(Activation, plain_twin(Activation),
                            ("shampoo", 13, 20, "shampoo", "shampoo"),
                            ("hair", 28, 34, "Hairs", "hair"))


def test_recognition_result_behaves_as_a_plain_frozen_slotted_dataclass():
    run_record_matches_twin(RecognitionResult, plain_twin(RecognitionResult),
                            ("take-shower", 2.0, ("shampoo", "hair")),
                            ("walk-the-dog", 1.0, ("poodle",)))
