import random
import re

import pytest
from property_checks import _mutations

from scriptkb import parser
from scriptkb.diagnostics import has_errors
from scriptkb.errors import (
    KbSyntaxError,
    MalformedNumber,
    SelfRefWithoutContext,
    UnbalancedBracket,
    UnknownUnit,
)
from scriptkb.ontology import Language
from scriptkb.parser import is_symbol, parse_assertion, parse_database, parse_measure, serialize
from scriptkb.recognizer import _TOKEN_RE
from scriptkb.terms import NA, Assertion, Measure, term_symbols


def assertion_line_count(text: str) -> int:
    """Oracle: lines opening an assertion, i.e. starting with '[' but not a
    bracketed language name.  Continuation lines in the fixtures never start
    with '['."""
    count = 0
    for line in text.splitlines():
        s = line.strip()
        if s.startswith("[") and not s.startswith(("[English", "[French")):
            count += 1
    return count


def block_of(result, concept):
    return next(b for b in result.blocks if b.concept == concept)


# -- symbols -------------------------------------------------------------------

@pytest.mark.parametrize("token", ["blackout", "event01-of", "s-hunger",
                                   "3d-movie", "électricité", "na2"])
def test_symbol_accepts(token):
    assert is_symbol(token)


@pytest.mark.parametrize("token", ["", "Blackout", "-x", "foo_bar", "a b", "^"])
def test_symbol_rejects(token):
    assert not is_symbol(token)


# the characters a symbol is spelled in, on every interpreter: ASCII digits,
# a-z, and the 97 lowercase letters of Latin-1 and Latin Extended-A
SYMBOL_CHARS = frozenset(
    "0123456789abcdefghijklmnopqrstuvwxyz"
    "ßàáâãäåæçèéêëìíîïðñòóôõöøùúûüýþÿ"
    "āăąćĉċčďđēĕėęěĝğġģĥħĩīĭįıĳĵķĸĺļľŀłńņňŉŋōŏőœŕŗřśŝşšţťŧũūŭůűųŵŷźżžſ")


def symbol_reference(token: str) -> bool:
    """The definition of a symbol, one character at a time, by the committed
    table of symbol characters."""
    if not token:
        return False
    if token[0] not in SYMBOL_CHARS:
        return False
    return all(ch == "-" or ch in SYMBOL_CHARS for ch in token[1:])


def test_symbol_matches_the_character_reference():
    chars = [chr(cp) for cp in range(0x3000)]
    mixed = [chr(cp) for cp in range(0x20, 0x7F)] + list("éÉßº²٣ǅ\u00a0")
    rng = random.Random(20261018)
    tokens = chars + [a + b for a in mixed for b in mixed] + [
        "".join(rng.choice(mixed if rng.random() < 0.8 else chars)
                for _ in range(rng.randint(1, 8))) for _ in range(20000)]
    assert [t for t in tokens if is_symbol(t) != symbol_reference(t)] == []


def test_the_single_character_symbols_are_the_committed_set():
    assert len(SYMBOL_CHARS) == 10 + 26 + 97
    assert {c for c in map(chr, range(0x110000)) if is_symbol(c)} == SYMBOL_CHARS


def test_every_symbol_character_is_a_recognizer_token_character():
    assert _TOKEN_RE.pattern == r"[0-9A-Za-zÀ-ÖØ-öø-ſ]+(?:['’-][0-9A-Za-zÀ-ÖØ-öø-ſ]+)*"
    assert [c for c in sorted(SYMBOL_CHARS) if not _TOKEN_RE.fullmatch(c)] == []


# lowercase letters of other scripts (Greek, Cyrillic, Glagolitic U+2C5F), the
# ordinal indicators, the micro sign, and digits that are not ASCII
@pytest.mark.parametrize("token", ["α", "ж", "\u2c5f", "ª", "º", "µ", "x²", "room٣",
                                   "\U00011f55", "r\u2c5f"])
def test_symbol_rejects_letters_and_digits_outside_the_table(token):
    assert not is_symbol(token)


@pytest.mark.parametrize("token", ["NUMBER:second:٣", "٣in", "NUMBER:second:\U00011f55",
                                   "\U00011f55in", "NUMBER:USD:1.٣"])
def test_a_number_takes_ascii_digits_only(token):
    with pytest.raises(MalformedNumber):
        parse_measure(token)


# -- measures ------------------------------------------------------------------

def test_measure_number_form():
    assert parse_measure("NUMBER:second:3600") == Measure("second", "3600")


def test_measure_suffix_form():
    assert parse_measure(".25in") == Measure("in", "0.25")


def test_measure_currency():
    assert parse_measure("NUMBER:USD:0.33") == Measure("USD", "0.33")


def test_measure_scientific_notation_equality():
    assert parse_measure("NUMBER:second:3.1536e+07") == Measure("second", "31536000")


def test_measure_preserves_text():
    m = parse_measure("NUMBER:second:3.1536e+07")
    assert m.text == "3.1536e+07"
    assert m.render() == "NUMBER:second:3.1536e+07"


def test_measure_unknown_unit():
    with pytest.raises(UnknownUnit):
        parse_measure("NUMBER:parsec:1")
    with pytest.raises(UnknownUnit):
        parse_measure("5.5zz")


def test_measure_malformed():
    with pytest.raises(MalformedNumber):
        parse_measure("NUMBER:second:abc")
    with pytest.raises(MalformedNumber):
        parse_measure("NUMBER:second")
    with pytest.raises(MalformedNumber):
        parse_measure("hello")


# -- single assertions ----------------------------------------------------------

def test_parse_nested_with_self():
    a = parse_assertion("[event02-of ^ [fetch-from human na light-source]]",
                        "blackout")
    assert a.predicate == "event02-of"
    assert a.args[0] == "blackout"
    inner = a.args[1]
    assert inner == Assertion("fetch-from", ("human", NA, "light-source"))


def test_parse_two_symbol_args():
    a = parse_assertion("[part-of pod-of-peas green-pea]")
    assert a == Assertion("part-of", ("pod-of-peas", "green-pea"))


def test_self_ref_without_context():
    with pytest.raises(SelfRefWithoutContext):
        parse_assertion("[ako ^ disaster]")


def test_unbalanced_raises():
    with pytest.raises(UnbalancedBracket):
        parse_assertion("[ako blackout disaster", "blackout")


def test_zero_args_rejected():
    with pytest.raises(KbSyntaxError):
        parse_assertion("[lonely]")


def test_trailing_junk_rejected():
    with pytest.raises(KbSyntaxError):
        parse_assertion("[a b] extra")


def test_error_position_on_later_line():
    text = "[event01-of blackout\n [anger Human]]"
    with pytest.raises(KbSyntaxError) as info:
        parse_assertion(text, line=10)
    assert info.value.line == 11


@pytest.mark.parametrize("text, concept, error, message, line, col", [
    ("[event01-of ^\n  [sing singer]\n  [Bad x]]", "looper",
     KbSyntaxError, "expected a predicate symbol, got 'Bad'", 12, 4),
    ("[event01-of ^\n  [sing Singer]]", "looper",
     KbSyntaxError, "invalid token 'Singer'", 11, 9),
    ("[duration-of ^\n  [x y]\n     3ZZ]", "looper",
     UnknownUnit, "unknown unit 'ZZ' in '3ZZ'", 12, 6),
    ("[duration-of\n ^ NUMBER:parsec:3]", "looper", UnknownUnit, "unknown unit 'parsec'", 11, 4),
    ("[cost-of\n ^\n   4.2]", "looper", MalformedNumber, "number without a unit: '4.2'", 12, 4),
    ("[ako\n  ^ disaster]", None, SelfRefWithoutContext, "'^' used without an enclosing block",
     11, 3),
    ("[event01-of ^\n  [sing singer]\n  [rest singer", "looper",
     UnbalancedBracket, "unclosed '['", 12, 3),
    ("[event01-of ^\n  [sing singer]]\n  extra", "looper",
     KbSyntaxError, "unexpected trailing 'extra'", 12, 3),
    ("[event01-of ^\n  [lonely]]", "looper",
     KbSyntaxError, "assertion [lonely] needs at least one argument", 11, 3),
    # a suffixed number too large for a decimal sits at its token too
    ("[cost-of ^\n  1e99999999999999999999999999in]", "looper",
     MalformedNumber, "bad numeric text '1e99999999999999999999999999'", 11, 3),
])
def test_error_kind_on_a_continuation_line(text, concept, error, message, line, col):
    with pytest.raises(error) as info:
        parse_assertion(text, concept, line=10)
    e = info.value
    assert (type(e), e.message, e.line, e.col) == (error, message, line, col)


# -- whole documents -------------------------------------------------------------

def test_blackout_block_counts(scripts_text):
    result = parse_database(scripts_text)
    assert not has_errors(result.diagnostics)
    block = block_of(result, "blackout")
    assert len(block.lexicon) == 2
    assert len(block.assertions) == 16
    langs = [lang for lang, _ in block.lexicon]
    assert langs == [Language.ENGLISH, Language.FRENCH]
    assert block.lexicon[0][1] == ("power failure", "blackout")


def test_appendix_assertion_counts(scripts_text):
    result = parse_database(scripts_text)
    post = block_of(result, "mail-letter-at-post-office")
    filling = block_of(result, "have-filling-done")
    start = scripts_text.index("Object mail-letter-at-post-office")
    mid = scripts_text.index("Object have-filling-done")
    assert len(post.assertions) == assertion_line_count(scripts_text[start:mid]) == 25
    assert len(filling.assertions) == assertion_line_count(scripts_text[mid:]) == 32


def test_empty_input():
    result = parse_database("")
    assert result.blocks == []
    assert result.grid_sources == []
    assert result.diagnostics == []


def test_comments_and_blank_lines_skipped():
    result = parse_database("; a comment\n\nObject thing\n; another\n[ako ^ concept]\n")
    assert len(result.blocks) == 1
    assert len(result.blocks[0].assertions) == 1


def test_crlf_accepted():
    result = parse_database("Object thing\r\n[ako ^ concept]\r\n")
    assert len(result.blocks[0].assertions) == 1


def test_html_entities_decoded():
    result = parse_database("Object thing\n[English] caf&eacute;\n[ako ^ concept]\n")
    assert result.blocks[0].lexicon[0][1] == ("café",)


@pytest.mark.parametrize("entity", ["&#10;", "&#x0A;", "&NewLine;"])
def test_an_entity_for_a_line_break_keeps_every_line_number(entity):
    result = parse_database(f"Object a\n[English] one{entity}two\n[ako ^ b]\n[likes ^ c]\n")
    assert result.diagnostics == []
    (block,) = result.blocks
    assert block.lexicon[0][1] == ("one two",)
    assert block.assertion_lines == [3, 4]
    # a bad token after a decoded line break keeps its line; columns count
    # the decoded line's characters, as for every entity
    result = parse_database(f"Object a\n[ako ^ b]\n[likes{entity}^ Bad]\n")
    assert [(d.line, d.col) for d in result.diagnostics] == [(3, 10)]
    result = parse_database(f"Object a\n[likes ^{entity}x\n  Bad]\n")
    assert [(d.line, d.col) for d in result.diagnostics] == [(3, 3)]


def test_orphan_assertion_diagnosed():
    result = parse_database("[ako x y]\n")
    assert result.blocks == []
    assert any(d.code == "OrphanContent" for d in result.diagnostics)


def test_bad_block_rejected_parsing_continues():
    text = ("Object good-one\n[ako ^ concept]\n"
            "Object bad-one\n[ako ^ concept]\n[broken !!! line]\n"
            "Object good-two\n[ako ^ concept]\n")
    result = parse_database(text)
    assert [b.concept for b in result.blocks] == ["good-one", "good-two"]
    assert has_errors(result.diagnostics)


def test_diagnostic_positions():
    result = parse_database("Object thing\n[ako ^ Disaster]\n")
    d = result.diagnostics[0]
    assert (d.line, d.severity) == (2, "error")
    assert d.col > 1
    assert ":" in d.render()


def test_continued_assertion_error_sits_at_its_token():
    result = parse_database("Object looper\n[event01-of ^\n  [sing singer]\n  [rest Singer]]\n",
                            filename="t")
    assert [d.render() for d in result.diagnostics] == ["t:4:9: error: invalid token 'Singer'"]


def test_parsed_symbols_are_shared_strings():
    result = parse_database("Object looper\n[role01-of ^ singer]\n[event01-of ^ [sing singer]]\n")
    role, event = block_of(result, "looper").assertions
    assert role.args[1] is event.args[1].args[0]


def test_unbalanced_block_diagnosed():
    result = parse_database("Object thing\n[ako ^ concept\n\n")
    assert result.blocks == []
    assert any(d.code == "UnbalancedBracket" for d in result.diagnostics)


def test_grid_sources_split_out(core_text):
    result = parse_database(core_text)
    assert len(result.grid_sources) == 1
    assert result.grid_sources[0].text.startswith("==hotel-room1//")


def test_multiline_lexicon_continuation():
    text = ("Object thing\n"
            "[English] alpha, beta; [French] gamma,\n"
            "delta, epsilon zeta\n"
            "[ako ^ concept]\n")
    result = parse_database(text)
    assert result.blocks[0].lexicon == [
        (Language.ENGLISH, ("alpha", "beta")),
        (Language.FRENCH, ("gamma", "delta", "epsilon zeta")),
    ]
    # a trailing comma does not carry a lexicon line into an assertion
    result = parse_database("Object thing\n[English] alpha,\n[ako ^ concept]\n")
    assert [(b.lexicon, b.assertions) for b in result.blocks] == [
        ([(Language.ENGLISH, ("alpha",))], [Assertion("ako", ("thing", "concept"))])]



def test_a_lexicon_phrase_keeps_one_space_between_its_words():
    text = ("Object outage\n"
            "[English] power  failure, dark\ttime ,  ;[French]  panne   de\u00a0courant\n")
    result = parse_database(text)
    assert result.diagnostics == []
    assert result.blocks[0].lexicon == [
        (Language.ENGLISH, ("power failure", "dark time")),
        (Language.FRENCH, ("panne de courant",)),
    ]
    again = serialize(result.blocks)
    assert "[English] power failure, dark time\n" in again
    assert parse_database(again).blocks == result.blocks

def test_unknown_language_rejects_block():
    result = parse_database("Object thing\n[Klingon] qapla\n[ako ^ concept]\n")
    assert result.blocks == []
    assert any(d.code == "UnknownLanguage" for d in result.diagnostics)


# -- serialization ----------------------------------------------------------------

def test_round_trip_fixture_files(core_text, scripts_text, demo_text):
    for text in (core_text, scripts_text, demo_text):
        first = parse_database(text)
        second = parse_database(serialize(first.blocks))
        assert not has_errors(second.diagnostics)
        assert second.blocks == first.blocks


def test_round_trip_is_fixpoint(scripts_text):
    once = serialize(parse_database(scripts_text).blocks)
    twice = serialize(parse_database(once).blocks)
    assert once == twice


def test_serialize_empty_block():
    out = serialize([parse_database("Object thing\n[English] thing\n").blocks[0]])
    assert out == "Object thing\n\n[English] thing\n"


def test_measures_reserialize_exactly(scripts_text):
    blocks = parse_database(scripts_text).blocks
    text = serialize(blocks)
    assert "NUMBER:second:3.1536e+07" in text
    assert "NUMBER:USD:0.33" in text


# -- one table of classified tokens per parse ----------------------------------

def parse_per_assertion(text: str, **kwargs):
    """Reference: ``parse_database`` with every assertion parsed as
    ``parse_assertion`` parses it, with tables that no other assertion shares;
    first mentions still go to the parse's one table."""
    shared = parser._parse_assertion
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(parser, "_parse_assertion",
                   lambda text, concept, line, _predicates, _atoms, _values, mentions:
                   shared(text, concept, line, {}, {}, {}, mentions))
        return parse_database(text, **kwargs)


def parsed(result):
    """Everything a parse gives: blocks with their lines and measure texts,
    grid sources, positioned diagnostics and the first mentions, in order."""
    return ([(b.concept, b.file, b.line, b.lexicon, b.assertions,
              [a.render() for a in b.assertions], b.assertion_lines)
             for b in result.blocks], result.grid_sources, result.diagnostics,
            list(result.first_mentions.items()))


def test_one_table_per_parse_matches_per_assertion_parsing(core_text, scripts_text,
                                                           demo_text, bench_texts):
    named = [("core.kb", core_text), ("scripts.kb", scripts_text), ("demo.kb", demo_text)]
    for name, text in named + bench_texts:
        assert parsed(parse_database(text, filename=name)) \
            == parsed(parse_per_assertion(text, filename=name)), name
    for text in _mutations([core_text, scripts_text, demo_text], 3000, 20261018):
        assert parsed(parse_database(text)) == parsed(parse_per_assertion(text)), text


def test_self_reference_resolves_per_block_of_one_file():
    text = "Object a\n[p ^ x]\n\nObject b\n[p ^ x]\n[q [p ^] ^]\n"
    result = parse_database(text)
    assert [b.assertions for b in result.blocks] == [
        [Assertion("p", ("a", "x"))],
        [Assertion("p", ("b", "x")), Assertion("q", (Assertion("p", ("b",)), "b"))]]
    assert parsed(result) == parsed(parse_per_assertion(text))


def test_a_bad_token_raises_wherever_it_appears():
    # a suffixed number too large for a decimal is a symbol as a predicate and
    # a bad measure as an argument; a bad token raises again at each use
    big = "1e99999999999999999999999999in"
    text = (f"Object a\n[{big} ^]\n\nObject b\n[p ^ {big}]\n\n"
            "Object c\n[p ^ Bad]\n\nObject d\n[q x\n  Bad]\n")
    result = parse_database(text)
    assert [b.concept for b in result.blocks] == ["a"]
    assert result.blocks[0].assertions == [Assertion(big, ("a",))]
    assert [(d.line, d.col, d.code) for d in result.diagnostics] == [
        (5, 6, "MalformedNumber"), (8, 6, "KbSyntaxError"), (12, 3, "KbSyntaxError")]
    assert parsed(result) == parsed(parse_per_assertion(text))


def test_equal_measures_from_one_table():
    text = ("Object a\n[cost-of ^ NUMBER:USD:1.50]\n[cost-of ^ 1.5USD]\n\n"
            "Object b\n[cost-of ^ NUMBER:USD:1.50]\n[duration-of ^ NUMBER:USD:1.50]\n")
    result = parse_database(text)
    measures = [a.args[1] for b in result.blocks for a in b.assertions]
    assert len(set(measures)) == 1 and len({hash(m) for m in measures}) == 1
    assert [m.render() for m in measures] == [
        "NUMBER:USD:1.50", "NUMBER:USD:1.5", "NUMBER:USD:1.50", "NUMBER:USD:1.50"]
    assert parsed(result) == parsed(parse_per_assertion(text))


def test_parse_assertion_shares_nothing_between_calls():
    assert parse_assertion("[p ^ x]", "a") == Assertion("p", ("a", "x"))
    assert parse_assertion("[p ^ x]", "b") == Assertion("p", ("b", "x"))
    with pytest.raises(SelfRefWithoutContext):
        parse_assertion("[p ^ x]")


def test_an_assertion_must_open_with_a_bracket():
    with pytest.raises(KbSyntaxError) as info:
        parse_assertion("ako x", line=4)
    assert (info.value.line, info.value.col, str(info.value)) == (
        4, 1, "4:1: assertion must start with '['")


def test_a_positioned_error_without_a_line_reads_as_its_message():
    assert str(KbSyntaxError("no position")) == "no position"


# -- tokens and their positions ------------------------------------------------

def test_the_regex_whitespace_class_is_str_isspace():
    space = re.compile(r"\s")
    assert [hex(cp) for cp in range(0x110000)
            if (space.fullmatch(chr(cp)) is not None) != chr(cp).isspace()] == []


def assertion_chunks(text):
    """The text of every assertion ``parse_database`` parses in a document."""
    chunks, shared = [], parser._parse_assertion

    def recording(text, *args):
        chunks.append(text)
        return shared(text, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(parser, "_parse_assertion", recording)
        parse_database(text)
    return chunks


# reference tokens: each bracket, and each run of characters that are neither
# whitespace nor brackets
REFERENCE_TOKEN_RE = re.compile(r"[\[\]]|[^\s\[\]]+")


def reference_positions(text, base_line):
    """Line and column of each reference token, from its ``finditer`` start."""
    out = []
    for m in REFERENCE_TOKEN_RE.finditer(text):
        before = text[:m.start()]
        out.append((base_line + before.count("\n"), len(before) - before.rfind("\n")))
    return out


def test_token_positions_match_the_reference_regex(core_text, scripts_text, demo_text,
                                                   bench_texts):
    # every code point, each between two token characters
    every = "x".join(map(chr, range(0x110000)))
    expected = reference_positions(every, 3)
    assert len(expected) == len(parser._tokens(every))
    assert [parser._pos(every, k, 3) for k in range(len(expected))] == expected
    texts = [core_text, scripts_text, demo_text, *(t for _, t in bench_texts),
             *_mutations([core_text, scripts_text, demo_text], 3000, 20261018)]
    chunks = [c for text in texts for c in assertion_chunks(text)]
    assert len(chunks) > 20000
    for chunk in chunks:
        expected = reference_positions(chunk, 5)
        assert len(expected) == len(parser._tokens(chunk)), chunk
        assert [parser._pos(chunk, k, 5) for k in range(len(expected))] == expected, chunk


# -- first mentions recorded while parsing ---------------------------------------

def first_mention_walk(blocks):
    """Reference: each symbol of the blocks' assertions with the line of the
    first assertion that names it, by a ``term_symbols`` walk of the blocks
    in file order."""
    first = {}
    for block in blocks:
        for a, line in zip(block.assertions, block.assertion_lines):
            for sym in term_symbols(a):
                first.setdefault(sym, line)
    return list(first.items())


def test_first_mentions_are_a_term_symbols_walk(core_text, scripts_text, demo_text,
                                                bench_texts):
    texts = [core_text, scripts_text, demo_text, *(t for _, t in bench_texts),
             *_mutations([core_text, scripts_text, demo_text], 3000, 20261018)]
    for text in texts:
        result = parse_database(text)
        assert list(result.first_mentions.items()) == first_mention_walk(result.blocks), text


def test_first_mentions_follow_preorder_with_self_as_the_concept():
    result = parse_database("Object s\n[event01-of ^ [inner x [deep ^ y]] z]\n[ako ^ w x]\n")
    assert list(result.first_mentions.items()) == [
        ("event01-of", 2), ("s", 2), ("inner", 2), ("x", 2), ("deep", 2), ("y", 2),
        ("z", 2), ("ako", 3), ("w", 3)]


# -- balanced single lines and continued assertions ----------------------------

def test_a_continued_assertion_keeps_its_error_position():
    result = parse_database("Object d\n[q x\n  Bad]\n", filename="t")
    assert [d.render() for d in result.diagnostics] == ["t:3:3: error: invalid token 'Bad'"]
    assert result.blocks == []


def test_a_capitalized_bracket_word_is_a_lexicon_line_only_when_closed():
    result = parse_database("Object a\n[Foo bar]\n\nObject b\n[English] x\n[ako ^ c]\n")
    assert [(d.line, d.col, d.code) for d in result.diagnostics] == [(2, 2, "KbSyntaxError")]
    assert result.diagnostics[0].message == "expected a predicate symbol, got 'Foo'"
    assert [(b.concept, b.lexicon) for b in result.blocks] == [
        ("b", [(Language.ENGLISH, ("x",))])]


def test_crlf_input_parses_as_lf_input(core_text, scripts_text, demo_text):
    texts = [core_text, scripts_text, demo_text, "Object a\n[p ^\n  [q x]]\n[r ^ Bad]\n"]
    for text in texts:
        want = parsed(parse_database(text))
        # line ends in turn CR, CRLF and LF; a lone CR is never followed by
        # an LF, which would read as one CRLF
        lines = text.split("\n")
        mixed = "".join(line + ("\r", "\r\n", "\n")[i % 3]
                        for i, line in enumerate(lines[:-1])) + lines[-1]
        for variant in (text.replace("\n", "\r\n"), text.replace("\n", "\r"), mixed,
                        "\ufeff" + text, "\ufeff" + text.replace("\n", "\r\n")):
            assert parsed(parse_database(variant)) == want


@pytest.mark.parametrize("line", ["[p ^ x]]", "[p ^ x] ]", "[p [q ^]]]]", "  [p ^ [q x]]]] [r"])
def test_more_closing_brackets_than_opening_is_unbalanced(line):
    result = parse_database(f"Object a\n{line}\n[ako ^ b]\n")
    assert [(d.line, d.col, d.code, d.message) for d in result.diagnostics] == [
        (2, 1, "UnbalancedBracket", "unmatched ']'")]
    assert result.blocks == []


def test_a_continuation_that_overshoots_is_unbalanced():
    result = parse_database("Object a\n[p ^\n  [q x]]]\n")
    assert [(d.line, d.code, d.message) for d in result.diagnostics] == [
        (2, "UnbalancedBracket", "unmatched ']'")]


# -- Object headers end items ----------------------------------------------------

def test_a_tab_header_ends_a_continued_lexicon_line():
    result = parse_database("Object foo\n[English] a,\nObject\tbar\n[ako ^ concept]\n")
    assert result.diagnostics == []
    assert [(b.concept, b.lexicon) for b in result.blocks] == [
        ("foo", [(Language.ENGLISH, ("a",))]), ("bar", [])]
    assert block_of(result, "bar").line == 3


def test_a_tab_header_opens_a_block_at_the_top_level():
    result = parse_database("Object\tbar\n[ako ^ thing]\n", filename="t")
    assert result.diagnostics == []
    assert [(b.concept, b.line, b.assertions) for b in result.blocks] == [
        ("bar", 1, [Assertion("ako", ("bar", "thing"))])]


def test_a_bare_header_ends_a_continued_assertion():
    result = parse_database("Object a\n[p ^\nObject\n[q x]\n", filename="t")
    assert [(d.line, d.col, d.code, d.message) for d in result.diagnostics] == [
        (2, 1, "UnbalancedBracket", "assertion is missing a closing ']'"),
        (3, 1, "MalformedHeader", "bad Object header: 'Object'")]
    assert result.blocks == []


@pytest.mark.parametrize("line, header", [
    ("Object", True), ("Object a", True), ("Object\ta", True), ("Object\u00a0a", True),
    ("Objects", False), ("Object-a", False), ("object a", False), ("", False)])
def test_a_header_is_the_word_object_alone_or_before_whitespace(line, header):
    assert parser._is_header(line) is header
