"""Tuple extraction from first-order event rules (Cyc-style corpora).

Rules arrive as s-expressions.  Scanning a rule for ``subEvents``,
``actsInCapacity``, and ``eventOccursAt`` formulas yields census tuples,
with variables instantiated from ``isa`` formulas in the same rule:

* ``(subEvents ?X ?U)`` with ``(isa ?X Bathing)`` and ``(isa ?U
  TurningOffWater)`` gives ``Bathing:subEvents:TurningOffWater``;
* ``actsInCapacity`` pairs the event (third argument) with the actor's
  type: ``DancingProcess-Human:actsInCapacity:Dancer``;
* ``eventOccursAt`` pairs the event type with the place type.

A rule yields tuples only when every variable in it has an ``isa``
binding; a rule with an unbound variable cannot be fully grounded and is
treated as unextractable.  A variable with several bindings yields one
tuple per binding.  When no tuples come out of a rule, an Other tuple is
recorded for each known event named in it.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from typing import Iterator, Union

from .errors import StrayAtom, UnbalancedParen

Sexp = Union[str, list]

SUBEVENTS = "subEvents"
ACTS_IN_CAPACITY = "actsInCapacity"
EVENT_OCCURS_AT = "eventOccursAt"
OTHER = "Other"
OTHER_TAIL = "other"

# relation -> positions of the head and the tail among the formula's terms
_RELATIONS = {SUBEVENTS: (1, 2), ACTS_IN_CAPACITY: (3, 1), EVENT_OCCURS_AT: (1, 2)}
# a comment, a parenthesis (group 1) or an atom (group 2); the rest is whitespace
_TOKEN_RE = re.compile(r";[^\n]*|([()])|([^\s();]+)")


def is_variable(atom: str) -> bool:
    return atom.startswith("?")


@dataclass(frozen=True)
class ExtractedTuple:
    head: str
    relation: str
    tail: str

    def render(self) -> str:
        return f"{self.head}:{self.relation}:{self.tail}"


def _pos(text: str, idx: int) -> tuple[int, int]:
    """Line and column of a character index; only errors need it."""
    return text.count("\n", 0, idx) + 1, idx - text.rfind("\n", 0, idx)


def parse_forms(text: str) -> list[list]:
    """Parse all top-level s-expressions; ``;`` starts a line comment.  Every
    top-level form is a list: an atom outside any form raises ``StrayAtom``."""
    forms: list[Sexp] = []
    stack = [forms]  # the top level, then every open list, innermost last
    for m in _TOKEN_RE.finditer(text):
        paren, atom = m.groups()
        if atom:
            if len(stack) == 1:
                raise StrayAtom(f"atom {atom!r} outside any form", *_pos(text, m.start()))
            stack[-1].append(atom)
        elif paren == "(":
            if len(stack) == 1:
                opened = m.start()
            stack[-1].append([])
            stack.append(stack[-1][-1])
        elif paren:
            if len(stack) == 1:
                raise UnbalancedParen("unmatched ')'", *_pos(text, m.start()))
            stack.pop()
    if len(stack) > 1:
        raise UnbalancedParen("unclosed '('", *_pos(text, opened))
    return forms


def subforms(form: Sexp) -> Iterator[list]:
    if isinstance(form, list):
        yield form
        for child in form:
            yield from subforms(child)


def atoms(form: Sexp) -> Iterator[str]:
    if isinstance(form, str):
        yield form
    else:
        for child in form:
            yield from atoms(child)


def _walk(form: list, lists: list[list], found: list[str]) -> None:
    """Append ``form`` and every list inside it to ``lists``, in the order
    ``subforms`` yields them, and every atom inside it to ``found``, in the
    order ``atoms`` yields them: one pass where those are two each."""
    lists.append(form)
    for child in form:
        if isinstance(child, str):
            found.append(child)
        else:
            _walk(child, lists, found)


def extract_tuples(form: Sexp, known_events) -> frozenset[ExtractedTuple]:
    """Census tuples from one rule, falling back to Other tuples when the
    rule grounds nothing."""
    lists: list[list] = []
    found: list[str] = []
    if isinstance(form, str):
        found.append(form)
    else:
        _walk(form, lists, found)
    bindings: dict[str, list[str]] = {}
    for f in lists:
        if len(f) >= 3 and f[0] == "isa" and isinstance(f[1], str) \
                and is_variable(f[1]) and isinstance(f[2], str) \
                and not is_variable(f[2]):
            bindings.setdefault(f[1], []).append(f[2])

    tuples: set[ExtractedTuple] = set()
    if all(a in bindings for a in found if is_variable(a)):
        def ground(term) -> list[str]:  # every variable is bound here
            return bindings.get(term, [term]) if isinstance(term, str) else []

        for f in lists:
            positions = _RELATIONS.get(f[0]) if f and isinstance(f[0], str) else None
            if positions and len(f) > max(positions):
                head, tail = (f[p] for p in positions)
                tuples.update(ExtractedTuple(h, f[0], t)
                              for h in ground(head) for t in ground(tail))

    if not tuples:
        known = known_events if isinstance(known_events, (set, frozenset)) \
            else set(known_events)
        tuples = {ExtractedTuple(a, OTHER, OTHER_TAIL) for a in found if a in known}
    return frozenset(tuples)


def extract_all(forms, known_events) -> frozenset[ExtractedTuple]:
    known = set(known_events)  # once, not once for each rule that grounds nothing
    out: set[ExtractedTuple] = set()
    for form in forms:
        out |= extract_tuples(form, known)
    return frozenset(out)


@dataclass(frozen=True)
class EventCensusRow:
    event: str
    subevents: int
    roles: int
    places: int
    other: int


@dataclass(frozen=True)
class EventSummary:
    events: int
    scripts: int
    avg_subevents: float
    avg_roles: float
    avg_places: float
    avg_other: float


def event_census(tuples, known_events) -> tuple[list[EventCensusRow], EventSummary]:
    """Per-event counts over a tuple set.

    Only events heading at least one subEvents tuple count as scripts;
    averages run over those scripts.
    """
    counts = Counter((t.head, t.relation) for t in set(tuples))
    relations = (SUBEVENTS, ACTS_IN_CAPACITY, EVENT_OCCURS_AT, OTHER)  # in column order
    rows = [EventCensusRow(event, *(counts[event, r] for r in relations))
            for event in sorted({head for head, _ in counts}) if counts[event, SUBEVENTS]]
    n = max(len(rows), 1)  # no rows: every sum is 0, and so every average 0.0
    averages = [sum(getattr(r, column) for r in rows) / n
                for column in ("subevents", "roles", "places", "other")]
    return rows, EventSummary(len(set(known_events)), len(rows), *averages)


def tuple_lines(tuples) -> list[str]:
    return sorted(t.render() for t in tuples)
