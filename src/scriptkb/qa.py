"""Template question answering over script fields.

Nine question shapes are recognized; the blank is a lexicon phrase.
Answers are structured data traceable to stored assertions or inherited
fields; an empty payload means "unknown" and is never an error.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from functools import partial
from typing import Callable, NamedTuple

from .errors import UnknownConcept, UnknownSubjectPhrase, UnrecognizedTemplate
from .kb import KnowledgeBase, instance_base
from .ontology import Language
from .scripts import build_script, inherited_field, is_script, require_script, timeline
from .terms import term_symbols


class QuestionKind(Enum):
    WHAT_DOES = "what-does"
    USED_FOR = "used-for"
    WHERE_FOUND = "where-found"
    CONSIST_OF = "consist-of"
    RESULT_OF = "result-of"
    WHERE_DOES_ONE = "where-does-one"
    HOW_LONG = "how-long"
    HOW_OFTEN = "how-often"
    HOW_MUCH = "how-much"


_ARTICLE_RE = re.compile(r"^(a|an|the)\s+", re.I)


@dataclass(frozen=True)
class Question:
    kind: QuestionKind
    subject: str
    note: str | None = None


@dataclass(frozen=True)
class RoleUse:
    script: str
    role_index: int
    role_script: str | None
    events: tuple


@dataclass(frozen=True)
class Usage:
    script: str
    events: tuple


@dataclass(frozen=True)
class Answer:
    kind: QuestionKind
    subject: str
    payload: object
    sources: tuple[str, ...] = ()
    notes: tuple[str, ...] = ()


def parse_question(kb: KnowledgeBase, text: str) -> Question:
    """Match one of the nine templates and resolve the blank via the lexicon.

    Leading articles are stripped before lookup.  An ambiguous phrase picks
    the first script-compatible concept and records a note.
    """
    normalized = re.sub(r"\s+", " ", text).strip().rstrip("?.! ")
    for kind, template in _TEMPLATES.items():
        m = template.pattern.fullmatch(normalized)
        if not m:
            continue
        phrase = _ARTICLE_RE.sub("", m.group(1).strip(), count=1)
        candidates = kb.ontology.lookup_phrase(phrase, Language.ENGLISH)
        if not candidates:
            raise UnknownSubjectPhrase(f"no concept for phrase {phrase!r}")
        subject = candidates[0]
        if template.about_script:
            subject = next((c for c in candidates if is_script(kb, c)), candidates[0])
        note = None
        if len(candidates) > 1:
            note = (f"phrase {phrase!r} is ambiguous ({', '.join(candidates)}); "
                    f"using {subject!r}")
        return Question(kind, subject, note)
    raise UnrecognizedTemplate(f"question does not match any template: {text!r}")


def render_question(kb: KnowledgeBase, question: Question) -> str:
    """Surface form of a question, using the subject's first English phrase."""
    phrases = kb.ontology.lexemes_of(question.subject, Language.ENGLISH)
    phrase = phrases[0] if phrases else question.subject.replace("-", " ")
    return _TEMPLATES[question.kind].render.format(phrase)


def answer(kb: KnowledgeBase, question: Question) -> Answer:
    if question.kind in SCRIPT_KINDS:
        require_script(kb, question.subject)
    elif question.subject not in kb.ontology:
        raise UnknownConcept(question.subject)
    notes = (question.note,) if question.note else ()
    payload, sources = _TEMPLATES[question.kind].answerer(kb, question.subject)
    return Answer(question.kind, question.subject, payload, tuple(sources), notes)


def _events_mentioning(script, concept):
    return tuple(term for group in script.events for term in group.events
                 if concept in term_symbols(term))


def _what_does(kb, subject):
    # the subject fills a role when the role concept is the subject or an ancestor
    fills = {subject, *kb.ontology.ancestors(subject)}
    items = []
    for name in sorted({s for concept in fills for s in kb.index.by_role.get(concept, ())}):
        script = build_script(kb, name)
        index, role_concept = next((i, c) for i, c in script.roles.items() if c in fills)
        items.append(RoleUse(name, index, script.role_scripts.get(index),
                             _events_mentioning(script, role_concept)))
    return items, [item.script for item in items]


def _used_for(kb, subject):
    items = [Usage(name, _events_mentioning(build_script(kb, name), subject))
             for name in kb.index.by_mention.get(subject, ())]
    return items, [item.script for item in items]


def _where_found(kb, subject):
    sources = list(kb.index.by_mention.get(subject, ()))
    places = [place for name in sources for place in build_script(kb, name).places]
    for grid_name in sorted(kb.grids):
        grid = kb.grids[grid_name]
        if subject in grid.legend.values():
            sources.append(grid_name)
            base = instance_base(grid_name)
            places.append(base if base and base in kb.ontology else grid_name)
    return list(dict.fromkeys(places)), sources


def _consist_of(kb, subject):
    return timeline(build_script(kb, subject), 0), [subject]


def _result_of(kb, subject):
    return list(build_script(kb, subject).results), [subject]


def _inherited(fieldname, kb, subject):
    fv = inherited_field(kb, subject, fieldname)
    if fv is None:
        return None, []
    value = list(fv.value) if fieldname == "places" else fv.value
    return value, [fv.source]


class _Template(NamedTuple):
    pattern: re.Pattern
    render: str
    answerer: Callable
    about_script: bool


# more specific templates first: "...consist of" must win over "...do"
_TEMPLATES = {kind: _Template(re.compile(pattern, re.I), render, answerer, about_script)
              for kind, pattern, render, answerer, about_script in [
    (QuestionKind.CONSIST_OF, r"what does (.+) consist of", "What does {} consist of?",
     _consist_of, True),
    (QuestionKind.RESULT_OF, r"what is the result of (.+)", "What is the result of {}?",
     _result_of, True),
    (QuestionKind.USED_FOR, r"what is (.+) used for", "What is a {} used for?",
     _used_for, False),
    (QuestionKind.WHERE_FOUND, r"where is (.+) found", "Where is a {} found?",
     _where_found, False),
    (QuestionKind.WHERE_DOES_ONE, r"where does one (.+)", "Where does one {}?",
     partial(_inherited, "places"), True),
    (QuestionKind.HOW_LONG, r"how long does (.+) take", "How long does {} take?",
     partial(_inherited, "duration"), True),
    (QuestionKind.HOW_OFTEN, r"how often does one (.+)", "How often does one {}?",
     partial(_inherited, "period"), True),
    (QuestionKind.HOW_MUCH, r"how much does (.+) cost", "How much does {} cost?",
     partial(_inherited, "cost"), True),
    (QuestionKind.WHAT_DOES, r"what does (.+) do", "What does a {} do?",
     _what_does, False),
]}
SCRIPT_KINDS = frozenset(kind for kind, t in _TEMPLATES.items() if t.about_script)
