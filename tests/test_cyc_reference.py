"""The rule reader, extraction and census against reference implementations.

The references below are the character-loop reader and the per-relation
extraction and census that ``scriptkb.cyc`` replaced.  Seeded random texts
and rules must give the same forms, tuples and census, or the same error
at the same position.
"""

import random
from collections import Counter

from scriptkb.cyc import (
    ACTS_IN_CAPACITY,
    EVENT_OCCURS_AT,
    OTHER,
    OTHER_TAIL,
    SUBEVENTS,
    EventCensusRow,
    EventSummary,
    ExtractedTuple,
    atoms,
    event_census,
    extract_all,
    extract_tuples,
    is_variable,
    parse_forms,
    subforms,
)
from scriptkb.errors import StrayAtom, UnbalancedParen

# -- references --------------------------------------------------------------------


def ref_parse_forms(text):
    forms, stack, opens = [], [], []

    def pos(idx):
        line = text.count("\n", 0, idx) + 1
        last = text.rfind("\n", 0, idx)
        return line, idx - last if last >= 0 else idx + 1

    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch == ";":
            while i < n and text[i] != "\n":
                i += 1
        elif ch == "(":
            stack.append([])
            opens.append(i)
            i += 1
        elif ch == ")":
            if not stack:
                raise UnbalancedParen("unmatched ')'", *pos(i))
            done = stack.pop()
            opens.pop()
            if stack:
                stack[-1].append(done)
            else:
                forms.append(done)
            i += 1
        else:
            j = i
            while j < n and not text[j].isspace() and text[j] not in "();":
                j += 1
            if not stack:
                raise StrayAtom(f"atom {text[i:j]!r} outside any form", *pos(i))
            stack[-1].append(text[i:j])
            i = j
    if stack:
        raise UnbalancedParen("unclosed '('", *pos(opens[0]))
    return forms


def ref_extract_tuples(form, known_events):
    bindings = {}
    for f in subforms(form):
        if len(f) >= 3 and f[0] == "isa" and isinstance(f[1], str) \
                and is_variable(f[1]) and isinstance(f[2], str) \
                and not is_variable(f[2]):
            bindings.setdefault(f[1], []).append(f[2])

    variables = {a for a in atoms(form) if is_variable(a)}
    tuples = set()
    if variables <= bindings.keys():
        def ground(term):
            if not isinstance(term, str):
                return []
            if is_variable(term):
                return bindings.get(term, [])
            return [term]

        for f in subforms(form):
            if not f or not isinstance(f[0], str):
                continue
            if f[0] == SUBEVENTS and len(f) >= 3:
                pairs = [(h, t) for h in ground(f[1]) for t in ground(f[2])]
                relation = SUBEVENTS
            elif f[0] == ACTS_IN_CAPACITY and len(f) >= 4:
                pairs = [(h, t) for h in ground(f[3]) for t in ground(f[1])]
                relation = ACTS_IN_CAPACITY
            elif f[0] == EVENT_OCCURS_AT and len(f) >= 3:
                pairs = [(h, t) for h in ground(f[1]) for t in ground(f[2])]
                relation = EVENT_OCCURS_AT
            else:
                continue
            tuples.update(ExtractedTuple(h, relation, t) for h, t in pairs)

    if not tuples:
        known = set(known_events)
        tuples = {ExtractedTuple(a, OTHER, OTHER_TAIL)
                  for a in atoms(form) if a in known}
    return frozenset(tuples)


def ref_event_census(tuples, known_events):
    by_head = {}
    for t in tuples:
        by_head.setdefault(t.head, set()).add(t)

    rows = []
    for event in sorted(by_head):
        group = by_head[event]
        counts = {rel: sum(1 for t in group if t.relation == rel)
                  for rel in (SUBEVENTS, ACTS_IN_CAPACITY, EVENT_OCCURS_AT, OTHER)}
        if counts[SUBEVENTS] >= 1:
            rows.append(EventCensusRow(event, counts[SUBEVENTS],
                                       counts[ACTS_IN_CAPACITY],
                                       counts[EVENT_OCCURS_AT], counts[OTHER]))
    n = len(rows)
    summary = EventSummary(
        len(set(known_events)), n,
        sum(r.subevents for r in rows) / n if n else 0.0,
        sum(r.roles for r in rows) / n if n else 0.0,
        sum(r.places for r in rows) / n if n else 0.0,
        sum(r.other for r in rows) / n if n else 0.0,
    )
    return rows, summary


# -- the reader --------------------------------------------------------------------

_PIECES = ("(", "(", "(", ")", ")", ")", " ", " ", "\n", "\r\n", "\t", "\x1c", "\x85",
           "\xa0", "　", ";", "; note (a)", ";)", "?X", "?Y", "?", "isa", "subEvents",
           "Bathing", "café", "Ünïcode", "日本", "a-b", "x.5", "\"q\"", "=>", "#$")


def _outcome(reader, text):
    try:
        return "forms", reader(text)
    except (UnbalancedParen, StrayAtom) as e:
        return type(e), e.message, e.line, e.col


def test_reader_matches_the_reference_on_seeded_texts():
    rng = random.Random(20261018)
    outcomes = Counter()
    for _ in range(50_000):
        text = "".join(rng.choice(_PIECES) for _ in range(rng.randint(0, 24)))
        expected = _outcome(ref_parse_forms, text)
        assert _outcome(parse_forms, text) == expected, repr(text)
        outcomes[expected[0]] += 1
    assert set(outcomes) == {"forms", UnbalancedParen, StrayAtom}, "every outcome must occur"


def test_reader_matches_the_reference_on_bundled_rules():
    from conftest import data_text
    text = data_text("cyc-rules.txt")
    assert parse_forms(text) == ref_parse_forms(text)


# -- extraction and census ---------------------------------------------------------

_EVENTS = ["Bathing", "Washing", "Dancing", "Party", "Opening"]
_TYPES = ["Dancer", "Station", "Staining", "Host"]
_VARS = ["?X", "?Y", "?U", "?Z"]


def _term(rng):
    roll = rng.random()
    if roll < 0.5:
        return rng.choice(_VARS)
    if roll < 0.85:
        return rng.choice(_EVENTS + _TYPES)
    return [rng.choice(["HoursDuration", "f"]), rng.choice(_VARS + _TYPES)]


def _formula(rng):
    kind = rng.randrange(7)
    if kind == 0:  # bindings, sometimes to a variable or of a constant
        subject = rng.choice(_VARS + _VARS + ["Bathing"])
        return ["isa", subject, rng.choice(_EVENTS + _TYPES + ["?X"])]
    if kind in (1, 2, 3):  # a relation, sometimes too short
        relation = (SUBEVENTS, ACTS_IN_CAPACITY, EVENT_OCCURS_AT)[kind - 1]
        return [relation] + [_term(rng) for _ in range(rng.randint(0, 4))]
    if kind == 4:
        return []
    if kind == 5:  # a formula headed by a list
        return [[rng.choice(_EVENTS)], _term(rng)]
    return [rng.choice(["performedBy", "duration", "done"]), _term(rng), _term(rng)]


def _rule(rng):
    body = ["and"] + [_formula(rng) for _ in range(rng.randint(0, 6))]
    rule = ["=>", body, _formula(rng)]
    return rng.choice([rule, body, _formula(rng), rng.choice(_EVENTS)])


def test_extraction_and_census_match_the_reference_on_seeded_rules():
    rng = random.Random(20261018)
    seen = set()
    for _ in range(300):
        known = rng.sample(_EVENTS, rng.randint(0, len(_EVENTS))) * rng.randint(1, 2)
        forms = [_rule(rng) for _ in range(rng.randint(0, 12))]
        for form in forms:
            tuples = extract_tuples(form, known)
            assert tuples == ref_extract_tuples(form, known), form
            seen.update(t.relation for t in tuples)
        tuples = extract_all(forms, known)
        assert event_census(tuples, known) == ref_event_census(tuples, known)
        listed = list(tuples) * 2  # the census counts distinct tuples
        assert event_census(listed, known) == ref_event_census(listed, known)
    assert seen == {SUBEVENTS, ACTS_IN_CAPACITY, EVENT_OCCURS_AT, OTHER}
