import pytest

from scriptkb.errors import (
    CycleDetected,
    DuplicateConcept,
    KbError,
    UnknownConcept,
    UnknownParent,
)
from scriptkb.kb import KnowledgeBase
from scriptkb.ontology import ROOT, Language, Ontology


def small():
    o = Ontology()
    o.add_concept("concept")
    o.add_concept("situation", {"concept"})
    o.add_concept("disaster", {"situation"})
    o.add_concept("blackout", {"disaster"})
    o.resolve()
    return o


def test_add_and_isa_chain():
    o = small()
    assert o.is_a("blackout", "disaster")
    assert o.is_a("blackout", "concept")
    assert o.is_a("blackout", "blackout")
    assert not o.is_a("disaster", "blackout")


@pytest.mark.parametrize("name", ["power failure", "power\tfailure", "power\nfailure",
                                  "power[", "]failure"])
def test_concept_names_exclude_token_delimiters(name):
    o = small()
    with pytest.raises(KbError):
        o.add_concept(name)
    assert name not in o


def test_root_has_no_parents():
    o = Ontology()
    o.add_concept("concept")
    assert o.parents("concept") == ()


def test_orphan_defaults_to_root():
    o = Ontology()
    o.add_concept("thing")
    o.resolve()
    assert o.parents("thing") == (ROOT,)
    assert o.is_a("thing", ROOT)


def test_duplicate_concept_rejected():
    o = small()
    with pytest.raises(DuplicateConcept):
        o.add_concept("blackout")


def test_unknown_concept_raises():
    o = small()
    with pytest.raises(UnknownConcept):
        o.is_a("blackout", "nope")
    # the first argument is checked first, and an equal pair is checked too
    for a, b in (("nope", "nada"), ("nope", "blackout"), ("nope", "nope")):
        with pytest.raises(UnknownConcept) as info:
            o.is_a(a, b)
        assert str(info.value) == "nope"
    with pytest.raises(UnknownConcept):
        o.ancestors("nope")


def test_unknown_parent_caught_at_resolve():
    o = Ontology()
    o.add_concept("a", {"missing"})
    with pytest.raises(UnknownParent):
        o.resolve()


def test_cycle_detected_at_resolve():
    o = Ontology()
    o.add_concept("a", {"b"})
    o.add_concept("b", {"a"})
    with pytest.raises(CycleDetected):
        o.resolve()


def test_ancestors_excludes_self_and_ends_at_root():
    o = small()
    anc = o.ancestors("blackout")
    assert anc == ["disaster", "situation", "concept"]
    assert o.ancestors("concept") == []


def test_ancestors_bfs_on_diamond(kb):
    # nearest stratum first, deduplicated, deterministic for fixed files
    anc = kb.ontology.ancestors("green-pea")
    assert anc == ["vegetable", "seed", "physical-object", "object", "concept"]
    # brute-force transitive closure agrees on membership
    def closure(c):
        out = set()
        stack = [c]
        while stack:
            for p in kb.ontology.parents(stack.pop()):
                if p not in out:
                    out.add(p)
                    stack.append(p)
        return out
    assert set(anc) == closure("green-pea")


def test_link_and_lookup_both_directions():
    o = small()
    o.link_lexeme("power failure", Language.ENGLISH, "blackout")
    assert o.lookup_phrase("power failure", Language.ENGLISH) == ("blackout",)
    assert "power failure" in o.lexemes_of("blackout", Language.ENGLISH)


def test_link_requires_concept():
    o = small()
    with pytest.raises(UnknownConcept):
        o.link_lexeme("zap", Language.ENGLISH, "nope")


def test_relink_is_idempotent():
    o = small()
    for _ in range(3):
        o.link_lexeme("blackout", Language.ENGLISH, "blackout")
    assert o.lookup_phrase("blackout", Language.ENGLISH) == ("blackout",)
    assert o.lexemes_of("blackout", Language.ENGLISH) == ["blackout"]


def test_first_character_case_insensitive():
    o = small()
    o.link_lexeme("John", Language.ENGLISH, "blackout")
    assert o.lookup_phrase("john", Language.ENGLISH) == ("blackout",)
    assert o.lookup_phrase("John", Language.ENGLISH) == ("blackout",)
    # the rest of the phrase is exact
    assert o.lookup_phrase("JOHN", Language.ENGLISH) == ()


def test_ambiguous_phrase_maps_to_all(kb):
    assert set(kb.ontology.lookup_phrase("orange", "English")) == {
        "color-orange", "fruit-orange"}


def test_unknown_phrase_is_empty(kb):
    assert kb.ontology.lookup_phrase("xyzzy", "English") == ()


def test_schnapps_has_four_entries(kb):
    assert kb.ontology.lexemes_of("schnapps", "English") == [
        "Holland gin", "Hollands gin", "Hollands", "schnapps"]
    assert kb.ontology.lookup_phrase("schnapps", "English") == ("schnapps",)


def test_french_entries_preserved(kb):
    assert kb.ontology.lexemes_of("blackout", Language.FRENCH) == [
        "black out", "panne de courant", "panne d électricité"]


def test_concept_without_entries(kb):
    assert kb.ontology.lexemes_of("electricity-network", "English") == []


def test_every_fixture_concept_reaches_root(kb):
    for c in kb.ontology.concepts():
        assert kb.ontology.is_a(c, ROOT)


def test_isa_equals_bruteforce_on_whole_fixture(kb):
    onto = kb.ontology
    names = list(onto.concepts())

    def closure(c):
        out, stack = set(), [c]
        while stack:
            for p in onto.parents(stack.pop()):
                if p not in out:
                    out.add(p)
                    stack.append(p)
        return out

    reachable = {c: closure(c) for c in names}
    for a in names:
        for b in names:
            assert onto.is_a(a, b) == (a == b or b in reachable[a])


def _relinked_by_language_name(kb) -> Ontology:
    """The base's hierarchy with every lexicon phrase linked again, each
    language given by its name, so ``link_lexeme`` converts it."""
    ref = Ontology()
    for c in kb.ontology.concepts():
        ref.add_concept(c, kb.ontology.parents(c))
    for block in kb.blocks:
        for lang, phrases in block.lexicon:
            for phrase in phrases:
                ref.link_lexeme(phrase, lang.value, block.concept)
    return ref


def test_lexicon_matches_one_linked_by_language_name(kb, bench_texts):
    for base in (kb, KnowledgeBase.from_texts(bench_texts)):
        onto, ref = base.ontology, _relinked_by_language_name(base)
        phrases = [(phrase, lang) for block in base.blocks
                   for lang, linked in block.lexicon for phrase in linked]
        assert phrases
        for phrase, lang in phrases:
            for language in (lang, lang.value):
                assert onto.lookup_phrase(phrase, language) \
                    == ref.lookup_phrase(phrase, language) != ()
                for word in phrase.split()[:1]:
                    assert onto.phrase_reach(word, language) \
                        == ref.phrase_reach(word, language) > 0
        for c in onto.concepts():
            for language in Language:
                assert onto.lexemes_of(c, language) == ref.lexemes_of(c, language)


def test_the_root_takes_no_parents():
    o = Ontology()
    with pytest.raises(KbError, match="the root concept takes no parents"):
        o.add_concept(ROOT, ["x"])
    assert ROOT not in o
