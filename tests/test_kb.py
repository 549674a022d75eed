import gc
from collections import Counter
from dataclasses import FrozenInstanceError
from pathlib import Path

import pytest
from conftest import collector_state
from property_checks import (_malformed_fields, _mutations, as_two_files, assertion_line,
                             run_load_matches_fresh_tables)

from scriptkb import kb as kb_module
from scriptkb import parser
from scriptkb.diagnostics import Diagnostic
from scriptkb.errors import CycleDetected, UnknownConcept
from scriptkb.kb import KnowledgeBase, collector_paused, instance_base
from scriptkb.ontology import ROOT
from scriptkb.scripts import build_script, is_script, validate
from scriptkb.stats import census
from scriptkb.terms import AKO, STRUCTURAL, Assertion, term_symbols


def test_auto_registration_with_warning():
    kb = KnowledgeBase.from_texts([("t", "Object thing\n[made-of ^ mystery-metal]\n")])
    assert "mystery-metal" in kb.ontology
    assert kb.ontology.parents("mystery-metal") == ("concept",)
    assert any(d.code == "AutoRegistered" and "mystery-metal" in d.message
               for d in kb.diagnostics)


def test_structural_predicates_register_silently():
    kb = KnowledgeBase.from_texts([("t", "Object thing\n[event01-of ^ something]\n")])
    assert "event01-of" in kb.ontology
    assert not any("event01-of" in d.message for d in kb.diagnostics)


def test_duplicate_block_merges_with_warning():
    text1 = "Object thing\n[ako ^ concept]\n"
    text2 = "Object thing\n[green ^]\n"
    kb = KnowledgeBase.from_texts([("a", text1), ("b", text2)])
    assert len(kb.assertions_about("thing")) == 2
    assert any(d.code == "DuplicateBlock" for d in kb.diagnostics)


def test_cycle_raises():
    text = "Object a\n[ako ^ b]\n\nObject b\n[ako ^ a]\n"
    with pytest.raises(CycleDetected):
        KnowledgeBase.from_texts([("t", text)])


def test_assertions_attach_by_first_argument():
    # an assertion about another concept lives with that concept, not its block
    text = ("Object sleep\n[event01-of ^ [asleep sleeper]]\n"
            "\nObject commentary\n[result-of sleep [restedness sleeper]]\n")
    kb = KnowledgeBase.from_texts([("t", text)])
    preds = [a.predicate for a in kb.assertions_about("sleep")]
    assert preds == ["event01-of", "result-of"]
    assert kb.assertions_about("commentary") == ()


def test_assertions_about_unknown():
    kb = KnowledgeBase.from_texts([("t", "Object thing\n")])
    with pytest.raises(UnknownConcept):
        kb.assertions_about("ghost")


def test_instance_base():
    assert instance_base("hotel-room1") == "hotel-room"
    assert instance_base("electricity-network42") == "electricity-network"
    assert instance_base("blackout") is None


def test_an_instance_name_ends_in_ascii_digits():
    assert instance_base("room3") == "room"
    assert instance_base("room٣") is None
    assert instance_base("room\U00011f55") is None


def test_grid_instance_reparented_under_base(kb):
    assert kb.ontology.is_a("hotel-room1", "hotel-room")


@pytest.mark.parametrize("text, parents", [
    # the instance is mentioned before its base is auto-registered
    ("Object stay\n[event01-of ^ [sleep-in guest hotel-room1]]\n"
     "[event02-of ^ [leave guest hotel-room]]\n", ("hotel-room",)),
    ("Object stay\n[event01-of ^ [sleep-in guest hotel-room1]]\n"
     "[ako hotel-room1 concept]\nObject hotel-room\n", ("hotel-room",)),
    ("Object stay\n[event01-of ^ [sleep-in guest hotel-room1]]\n"
     "[ako hotel-room1 suite]\nObject hotel-room\n", ("suite",)),
    ("Object stay\n[event01-of ^ [sleep-in guest hotel-room1]]\n", ("concept",)),
])
def test_auto_registered_instance_hangs_below_its_base(text, parents):
    kb = KnowledgeBase.from_texts([("t", text)])
    assert kb.ontology.parents("hotel-room1") == parents


def test_knowledge_base_is_frozen(kb):
    with pytest.raises(FrozenInstanceError):
        kb.blocks = []


def test_multiple_ako_parents():
    text = "Object gp\n[ako ^ veg]\n[ako ^ seed]\n"
    kb = KnowledgeBase.from_texts([("t", text)])
    assert kb.ontology.parents("gp") == ("veg", "seed")


def test_script_concepts_sorted(kb):
    names = kb.script_concepts()
    assert names == sorted(names)
    assert "blackout" in names and "mail-letter" not in names


def test_fixture_load_has_no_errors(kb):
    assert not any(d.severity == "error" for d in kb.diagnostics)


def test_load_from_paths_merges_in_order(tmp_path):
    first = tmp_path / "one.kb"
    second = tmp_path / "two.kb"
    first.write_text("Object hum\n[event01-of ^ [buzz hum]]\n", encoding="utf-8")
    second.write_text("Object hum\n[event02-of ^ [fade hum]]\n"
                      "\nObject other\n[ako ^ hum]\n", encoding="utf-8")
    kb = KnowledgeBase.from_paths([first, second])
    preds = [a.predicate for a in kb.assertions_about("hum")]
    assert preds == ["event01-of", "event02-of"]
    assert kb.ontology.is_a("other", "hum")
    # diagnostics carry the originating file name
    dup = next(d for d in kb.diagnostics if d.code == "DuplicateBlock")
    assert dup.file.endswith("two.kb")


def test_merged_blocks_keep_each_assertion_line():
    kb = KnowledgeBase.from_texts([
        ("a", "Object hum\n[event01-of ^ [buzz hum]]\n"),
        ("b", "\nObject hum\n\n[event02-of ^ [fade hum]]\n[ako ^ concept]\n")])
    assert [line for _, _, line in kb.sites_about("hum")] == [2, 4, 5]


def test_a_duplicate_block_in_a_later_file_keeps_its_own_file(tmp_path):
    (tmp_path / "a.kb").write_text("Object hum\n[event01-of ^ [buzz hum]]\n\n"
                                   "Object other\n[ako ^ hum]\n", encoding="utf-8")
    (tmp_path / "b.kb").write_text("\nObject hum\n\n[event02-of ^ [fade hum]]\n",
                                   encoding="utf-8")
    kb = KnowledgeBase.from_paths([tmp_path / "a.kb", tmp_path / "b.kb"])
    assert [(Path(file).name, line) for _, file, line in kb.sites_about("hum")] == \
        [("a.kb", 2), ("b.kb", 4)]
    fade = next(d for d in kb.diagnostics if "'fade'" in d.message)
    assert (Path(fade.file).name, fade.line, fade.code) == ("b.kb", 4, "AutoRegistered")
    # the blocks of one concept are read together, in load order
    assert [(b.concept, Path(b.file).name) for b in kb.blocks] == \
        [("hum", "a.kb"), ("hum", "b.kb"), ("other", "a.kb")]


def test_missing_file_raises_oserror(tmp_path):
    with pytest.raises(OSError):
        KnowledgeBase.from_paths([tmp_path / "absent.kb"])


def test_malformed_field_is_a_positioned_load_error():
    text = "Object thing\n[event01-of ^ [hum thing]]\n[duration-of ^ apple]\n"
    kb = KnowledgeBase.from_texts([("t", text)])
    assert [d for d in kb.diagnostics if d.severity == "error"] == [
        Diagnostic("t", 3, 1, "error", "MalformedField",
                   "thing: duration-of needs a measure argument")]


def test_a_malformed_field_fails_no_query_that_needs_no_index():
    text = ("Object a\n[event01-of ^ [hum a]]\n\n"
            "Object b\n[event01-of ^ [hum b]]\n[duration-of ^ apple]\n")
    kb = KnowledgeBase.from_texts([("t", text)])
    assert [d.code for d in kb.diagnostics if d.severity == "error"] == ["MalformedField"]
    assert kb.script_concepts() == ["a", "b"]
    # the census, like b's script view, leaves the malformed duration out
    assert [(r.script, r.subevents, r.other) for r in census(kb)] == [("a", 1, 0), ("b", 1, 0)]
    assert [line for _, _, line in kb.sites_about("a")] == [2]
    assert [d.code for d in validate(kb, build_script(kb, "a"))] == ["EventArgOutsideRoles"]


def test_a_malformed_event_is_left_out_of_scripts_and_census():
    kb = KnowledgeBase.from_texts([("t", "Object x\n[event01-of ^]\n[event02-of ^ [hum x]]\n")])
    assert is_script(kb, "x")
    assert [(r.script, r.subevents) for r in census(kb)] == [("x", 1)]
    assert sum(len(g.events) for g in build_script(kb, "x").events) == 1

    kb = KnowledgeBase.from_texts([("t", "Object x\n[event01-of ^]\n")])
    assert [d.code for d in kb.diagnostics if d.severity == "error"] == ["MalformedField"]
    assert not is_script(kb, "x")
    assert kb.script_concepts() == [] and census(kb) == []


def test_sites_about_gives_each_assertion_its_line():
    text = "Object thing\n[event01-of ^ [hum thing]]\n\n[goal-of ^ [hum thing]]\n"
    kb = KnowledgeBase.from_texts([("t", text)])
    sites = kb.sites_about("thing")
    assert tuple(a for a, _, _ in sites) == kb.assertions_about("thing")
    assert [(file, line) for _, file, line in sites] == [("t", 2), ("t", 4)]


def test_a_goto_to_a_missing_group_is_a_positioned_load_error():
    text = "Object looper\n[event01-of ^ [sing singer]]\n[event02-of ^ [goto event09-of]]\n"
    kb = KnowledgeBase.from_texts([("goto.kb", text)])
    assert [d for d in kb.diagnostics if d.severity == "error"] == [
        Diagnostic("goto.kb", 3, 1, "error", "BadGotoTarget",
                   "goto in group 02 targets missing group 09")]


def test_a_goto_to_a_group_of_malformed_events_targets_a_missing_group():
    # the script view leaves the malformed event out, so group 01 is missing there
    text = "Object looper\n[event01-of ^]\n[event02-of ^ [goto event01-of]]\n"
    kb = KnowledgeBase.from_texts([("goto.kb", text)])
    assert [(d.line, d.code) for d in kb.diagnostics if d.severity == "error"] == [
        (2, "MalformedField"), (3, "BadGotoTarget")]


def test_a_goto_target_may_sit_in_another_block_of_its_script():
    kb = KnowledgeBase.from_texts([
        ("a", "Object looper\n[event02-of ^ [goto event01-of]]\n"),
        ("b", "Object looper\n[event01-of ^ [sing singer]]\n")])
    assert not [d for d in kb.diagnostics if d.severity == "error"]


# -- the first-mention walk against the generator it replaced -------------------

def generator_term_symbols(term, include_predicates=True):
    """Reference: the recursive generator ``term_symbols`` was before it
    built a list."""
    if isinstance(term, str):
        yield term
    elif isinstance(term, Assertion):
        if include_predicates:
            yield term.predicate
        for arg in term.args:
            yield from generator_term_symbols(arg, include_predicates)


def _valid_name(name):
    return bool(name) and not any(c in name for c in " \t\n[]")


def reference_hierarchy(kb, files):
    """Concept order, parents and AutoRegistered (file, line, message) as the
    loader derived them before: a first-mention walk of the loaded blocks file
    by file, in the load order ``files``, each file's blocks in line order,
    with the generator and ``assertion_line``, then the grids."""
    mentioned, ako = {}, {}
    in_files = [b for file in files
                for b in sorted((b for b in kb.blocks if b.file == file), key=lambda b: b.line)]
    assert sorted(map(id, in_files)) == sorted(map(id, kb.blocks))
    for block in in_files:
        for i, a in enumerate(block.assertions):
            for flag in (True, False):
                assert term_symbols(a, flag) == list(generator_term_symbols(a, flag))
            for sym in generator_term_symbols(a):
                mentioned.setdefault(sym, (block.file, assertion_line(block, i)))
            if a.predicate == AKO and a.args and isinstance(a.args[0], str):
                ako.setdefault(a.args[0], []).extend(p for p in a.args[1:] if isinstance(p, str))
    for grid in kb.grids.values():
        for sym in (grid.name, *grid.legend.values(), *grid.extended_keys.values()):
            mentioned.setdefault(sym, (grid.file, grid.line))
    declared = dict.fromkeys(b.concept for b in kb.blocks)
    order = [c for c in dict.fromkeys([ROOT, *declared, *mentioned]) if _valid_name(c)]
    parents, auto = {}, []
    for c in order:
        own = tuple(dict.fromkeys(ako.get(c, ())))
        if c not in declared and c != ROOT:
            base = instance_base(c)
            if base and set(own) <= {ROOT} and (base == ROOT or base in declared
                                                 or base in mentioned):
                own = (base,)
            if c not in STRUCTURAL:
                auto.append((*mentioned[c], f"undeclared concept {c!r} registered under {ROOT!r}"))
        parents[c] = () if c == ROOT else own or (ROOT,)
    return order, parents, auto


def assert_hierarchy_matches_reference(kb, files):
    order, parents, auto = reference_hierarchy(kb, files)
    assert list(kb.ontology.concepts()) == order
    assert {c: kb.ontology.parents(c) for c in order} == parents
    assert [(d.file, d.line, d.message) for d in kb.diagnostics
            if d.code == "AutoRegistered"] == auto


def test_hierarchy_matches_the_generator_walk(kb, bench_texts):
    assert_hierarchy_matches_reference(kb, ["core.kb", "scripts.kb", "demo.kb"])
    assert_hierarchy_matches_reference(KnowledgeBase.from_texts(bench_texts),
                                       [name for name, _ in bench_texts])


def test_hierarchy_matches_the_generator_walk_on_mutated_bases(core_text, scripts_text,
                                                               demo_text):
    checked = 0
    for text in _mutations([core_text, scripts_text, demo_text], 1000, 20260808):
        try:
            kb = KnowledgeBase.from_texts([("m", text)])
        except CycleDetected:
            continue
        assert_hierarchy_matches_reference(kb, ["m"])
        checked += 1
    assert checked > 900



def auto_registered(kb):
    return [(d.file, d.line, d.message.split("'")[1]) for d in kb.diagnostics
            if d.code == "AutoRegistered"]


def test_a_dropped_block_registers_none_of_its_symbols():
    kb = KnowledgeBase.from_texts([("t", "Object good\n[likes ^ seen]\n\n"
                                         "Object bad\n[hates ^ unseen]\n[Broken x]\n\n"
                                         "Object later\n[likes ^ seen]\n")])
    assert [b.concept for b in kb.blocks] == ["good", "later"]
    assert auto_registered(kb) == [("t", 2, "likes"), ("t", 2, "seen")]
    assert "hates" not in kb.ontology and "unseen" not in kb.ontology
    assert "bad" not in kb.ontology
    assert_hierarchy_matches_reference(kb, ["t"])


def test_first_mentions_follow_the_files_not_the_blocks():
    # b.kb's block of `first` is read right after a.kb's, before a.kb's
    # `second`, but a.kb names `shared` first
    kb = KnowledgeBase.from_texts([
        ("a.kb", "Object first\n[likes ^ x]\n\nObject second\n[likes ^ shared]\n"),
        ("b.kb", "Object first\n\n[hates ^ shared]\n")])
    assert [(b.concept, b.file) for b in kb.blocks] == [
        ("first", "a.kb"), ("first", "b.kb"), ("second", "a.kb")]
    assert auto_registered(kb) == [("a.kb", 2, "likes"), ("a.kb", 2, "x"),
                                   ("a.kb", 5, "shared"), ("b.kb", 3, "hates")]
    assert list(kb.ontology.concepts())[-4:] == ["likes", "x", "shared", "hates"]
    assert_hierarchy_matches_reference(kb, ["a.kb", "b.kb"])


def test_a_symbol_only_named_as_a_nested_predicate_is_registered():
    kb = KnowledgeBase.from_texts([("t", "Object s\n[role01-of ^ human]\n"
                                         "[event01-of ^ [ponder human]]\n")])
    assert "ponder" in kb.ontology
    assert auto_registered(kb) == [("t", 2, "human"), ("t", 3, "ponder")]
    assert_hierarchy_matches_reference(kb, ["t"])

# -- the collector during load ---------------------------------------------------

_CYCLE = "Object a\n[ako ^ b]\n\nObject b\n[ako ^ a]\n"


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("text", ["Object a\n[ako ^ b]\n", _CYCLE])
def test_loading_pauses_the_collector_and_restores_its_state(monkeypatch, enabled, text):
    during, original = [], kb_module._parse_database

    def parse(*args, **kwargs):
        during.append(gc.isenabled())
        return original(*args, **kwargs)

    monkeypatch.setattr(kb_module, "_parse_database", parse)
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        if text == _CYCLE:
            with pytest.raises(CycleDetected):
                KnowledgeBase.from_texts([("t", text)])
        else:
            KnowledgeBase.from_texts([("t", text)])
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
    assert during == [False]


@pytest.mark.parametrize("enabled", [True, False])
def test_collector_pauses_nest(enabled):
    with collector_state(enabled):
        with collector_paused():
            assert not gc.isenabled()
            with collector_paused():
                assert not gc.isenabled()
            assert not gc.isenabled()
        assert gc.isenabled() is enabled


@pytest.mark.parametrize("enabled", [True, False])
def test_a_collector_pause_ends_when_its_block_raises(enabled):
    with collector_state(enabled):
        with pytest.raises(ValueError):
            with collector_paused():
                raise ValueError("in the block")
        assert gc.isenabled() is enabled


# -- one set of token tables per load --------------------------------------------

_SHARING = [
    ("a.kb", "Object walk-dog\n[role01-of ^ human]\n[role02-of ^ dog]\n"
             "[event01-of ^ [leash human dog]]\n[duration-of ^ NUMBER:second:600]\n"
             "[emotion-of ^ na]\n"),
    ("b.kb", "Object feed-dog\n[role01-of ^ human]\n[role02-of ^ dog]\n"
             "[event01-of ^ [leash human dog]]\n[event02-of ^ [pour human kibble]]\n"
             "[duration-of ^ NUMBER:second:600]\n[emotion-of ^ na]\n"),
]


def test_a_load_classifies_each_token_once(monkeypatch):
    classified, checked = Counter(), Counter()
    classify, symbol = parser._classify_atom, parser.is_symbol

    def counted_classify(token):
        classified[token] += 1
        return classify(token)

    def counted_symbol(token):
        checked[token] += 1
        return symbol(token)

    monkeypatch.setattr(parser, "_classify_atom", counted_classify)
    monkeypatch.setattr(parser, "is_symbol", counted_symbol)
    kb = KnowledgeBase.from_texts(_SHARING)
    assert not [d for d in kb.diagnostics if d.severity == "error"]
    # arguments: symbols, na and a measure, each classified in the first file only
    assert classified == dict.fromkeys(
        ["human", "dog", "NUMBER:second:600", "na", "kibble"], 1)
    # predicates and headers are checked once each, and symbol arguments once
    # while they are classified
    assert set(checked.values()) == {1}
    assert {"role01-of", "leash", "pour", "human"} <= set(checked)


def test_a_load_matches_per_file_parses_with_fresh_tables(core_text, scripts_text, demo_text,
                                                          bench_texts):
    run_load_matches_fresh_tables(_SHARING)
    run_load_matches_fresh_tables(
        [("core.kb", core_text), ("scripts.kb", scripts_text), ("demo.kb", demo_text)])
    run_load_matches_fresh_tables(bench_texts)


def test_a_load_matches_per_file_parses_on_mutated_bases(core_text, scripts_text, demo_text):
    # each mutated fixture is cut in two files that share its symbols
    for text in _mutations([core_text, scripts_text, demo_text], 1000, 20260808):
        run_load_matches_fresh_tables(as_two_files(text))


def test_a_load_matches_per_file_parses_on_malformed_field_bases(scripts_text, demo_text):
    for text in _malformed_fields([scripts_text, demo_text], 100, 20260808):
        run_load_matches_fresh_tables(as_two_files(text))


def test_a_bad_token_in_two_files_is_reported_in_each():
    named = [("a.kb", "Object a\n[likes ^ Bad]\n"),
             ("b.kb", "; a comment\nObject b\n[likes ^ x]\n[likes x\n   Bad]\n")]
    kb = KnowledgeBase.from_texts(named)
    assert [d.render() for d in kb.diagnostics if d.severity == "error"] == [
        "a.kb:2:10: error: invalid token 'Bad'", "b.kb:5:4: error: invalid token 'Bad'"]
    run_load_matches_fresh_tables(named)


def test_a_token_is_classified_by_its_place_in_each_file():
    # a predicate in one file, an argument in the other: a symbol, then a
    # measure of the wrong shape for a role, and a number too large for a
    # decimal, then a bad measure
    big = "1e99999999999999999999999999in"
    named = [("a.kb", f"Object a\n[5in ^ x]\n[{big} ^]\n"),
             ("b.kb", f"Object b\n[role01-of ^ 5in]\n\nObject c\n[p ^ {big}]\n")]
    kb = KnowledgeBase.from_texts(named)
    assert kb.blocks[0].assertions == [Assertion("5in", ("a", "x")), Assertion(big, ("a",))]
    assert [(d.file, d.line, d.col, d.code) for d in kb.diagnostics if d.severity == "error"] \
        == [("b.kb", 5, 6, "MalformedNumber"), ("b.kb", 2, 1, "MalformedField")]
    assert "5in" in kb.ontology and "c" not in kb.ontology
    run_load_matches_fresh_tables(named)


def test_a_block_repeated_in_another_file_appends_its_assertions():
    named = [("a.kb", "Object s\n[role01-of ^ human]\n[event01-of ^ [wake human]]\n"),
             ("b.kb", "Object t\n[ako ^ s]\n\nObject s\n[event02-of ^ [wake human]]\n"
                      "[role02-of ^ alarm]\n")]
    kb = KnowledgeBase.from_texts(named)
    assert [(b.concept, b.file) for b in kb.blocks] == [("s", "a.kb"), ("s", "b.kb"),
                                                       ("t", "b.kb")]
    assert [d.render() for d in kb.diagnostics] == [
        "b.kb:4:1: warning: duplicate Object block for 's'; assertions appended",
        "a.kb:2:1: warning: undeclared concept 'human' registered under 'concept'",
        "a.kb:3:1: warning: undeclared concept 'wake' registered under 'concept'",
        "b.kb:6:1: warning: undeclared concept 'alarm' registered under 'concept'"]
    assert [a.render() for a in kb._field_assertions["s"]] == [
        "[role01-of s human]", "[event01-of s [wake human]]", "[event02-of s [wake human]]",
        "[role02-of s alarm]"]
    run_load_matches_fresh_tables(named)


# -- loader diagnostics for grids and ako arguments ------------------------------

def test_a_grid_header_without_a_name_terminator_is_a_malformed_header():
    kb = KnowledgeBase.from_texts([("t", "Object a\n[ako ^ concept]\n\n==room\nww  w:wall\n")])
    assert [(d.file, d.line, d.severity, d.code) for d in kb.diagnostics] == [
        ("t", 4, "error", "MalformedHeader")]
    assert kb.grids == {}


def test_a_grid_defined_twice_keeps_the_last_definition():
    first, second = "==room//\nw    w:wall\n", "==room//\nd    d:door\n"
    kb = KnowledgeBase.from_texts([("a", first), ("b", second)])
    assert [(d.file, d.line, d.severity, d.code, d.message) for d in kb.diagnostics
            if d.code == "DuplicateGrid"] == [
        ("b", 1, "warning", "DuplicateGrid",
         "grid 'room' defined again; last definition wins")]
    assert kb.grids["room"].legend == {"d": "door"}


def test_a_measure_as_an_ako_parent_is_ignored_with_a_warning():
    kb = KnowledgeBase.from_texts([("t", "Object x\n[ako x NUMBER:USD:1 thing]\n")])
    assert [(d.line, d.severity, d.code, d.message) for d in kb.diagnostics
            if d.code == "BadAkoArgument"] == [
        (2, "warning", "BadAkoArgument",
         "ignoring non-symbol ako argument in [ako x NUMBER:USD:1 thing]")]
    assert kb.ontology.parents("x") == ("thing",)
