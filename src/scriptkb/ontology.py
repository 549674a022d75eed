"""Concept hierarchy and bilingual lexicon.

Concepts form a single-rooted directed acyclic graph under the root
``concept``; a node may have several parents.  Phrases in English or French
link to concepts many-to-many.  Phrase lookup lowercases only the first
character of the query, so sentence-initial capitalization still matches
while the rest of the phrase is compared exactly.  Lexicon methods take a
``Language`` member or a language's name, ``"English"`` or ``"French"``.
A concept's lexicon is kept as linked, one phrase tuple per section.

Each table is a ``KeyedTable``, which reads a key it lacks as the table's
default: ``None`` for a concept's parents, since the root's are ``()``,
and ``()`` or ``0`` in the lexicon.  A query reads a table by key, never
by ``in`` or ``get``: a table read from a snapshot entry holds only the
buckets read so far, and decodes the bucket of a key on its first read.
"""

from __future__ import annotations

import re
from enum import Enum
from typing import Iterable, Iterator

from .errors import (
    CycleDetected,
    DuplicateConcept,
    KbError,
    UnknownConcept,
    UnknownParent,
)
from .keyed import KeyedTable

ROOT = "concept"
# a concept name holds none of these: they delimit the file format's tokens
_BAD_NAME_CHAR = re.compile(r"[ \t\n\[\]]")


class Language(str, Enum):
    ENGLISH = "English"
    FRENCH = "French"


def as_language(value) -> Language:
    """A ``Language`` member as itself, a language's name as its member: the
    enum call is several times the cost of the check, on every lookup."""
    return value if isinstance(value, Language) else Language(value)


def _normalize_phrase(phrase: str) -> str:
    """The lookup key, first character lowercased; the phrase itself, not a copy, if unchanged."""
    lower = phrase[:1].lower()
    return phrase if lower == phrase[:1] else lower + phrase[1:]


class Ontology:
    """Mutable while loading; treated as read-only once a base is built."""

    def __init__(self):
        # concept -> its parents, in registration order
        self._parents: KeyedTable = KeyedTable(None)
        # one table of each kind per language, so a lookup builds no key:
        # phrase -> its concepts
        self._by_phrase: dict[Language, KeyedTable] = {lang: KeyedTable(()) for lang in Language}
        # concept -> its linked sections' phrase tuples, in link order
        self._lexicon: dict[Language, KeyedTable] = {lang: KeyedTable(()) for lang in Language}
        # first word -> the word count of its longest phrase
        self._reach: dict[Language, KeyedTable] = {lang: KeyedTable(0) for lang in Language}

    # -- stored tables -------------------------------------------------------

    def tables(self):
        """The resolved tables as they are: the parents map, then the phrase,
        reach and lexicon maps, each a table per ``Language``."""
        return self._parents, self._by_phrase, self._reach, self._lexicon

    @classmethod
    def from_tables(cls, parents, by_phrase, reach, lexicon) -> "Ontology":
        """The ontology whose ``tables()`` these are, taken as they are: a
        resolved hierarchy is not resolved again.  Tables read from a
        snapshot entry decode a key's bucket on its first read, so a base
        decodes only the concepts and phrases its queries name."""
        onto = cls.__new__(cls)
        onto._parents = parents
        onto._by_phrase, onto._reach, onto._lexicon = by_phrase, reach, lexicon
        return onto

    # -- construction ------------------------------------------------------

    def add_concept(self, name: str, parents: Iterable[str] = ()) -> str:
        """Register a concept under the given parents.

        The root ``concept`` takes no parents; any other concept registered
        without parents becomes a direct child of the root.  Parent existence
        is not checked here: :meth:`resolve` verifies it once loading is done.
        """
        if not isinstance(name, str) or not name or _BAD_NAME_CHAR.search(name):
            raise KbError(f"invalid concept name {name!r}")
        if name in self._parents:
            raise DuplicateConcept(name)
        parent_list = tuple(dict.fromkeys(parents))
        if name == ROOT:
            if parent_list:
                raise KbError("the root concept takes no parents")
        elif not parent_list:
            if ROOT not in self._parents:
                self._parents[ROOT] = ()
            parent_list = (ROOT,)
        self._parents[name] = parent_list
        return name

    def resolve(self) -> None:
        """Check parent existence and acyclicity for the whole hierarchy."""
        for name, parents in self._parents.items():
            for p in parents:
                if p not in self._parents:
                    raise UnknownParent(f"{name}: unknown parent {p!r}")
        done: set[str] = set()
        in_progress: set[str] = set()
        for start in self._parents:
            if start in done:
                continue
            # iterative DFS; recursion would overflow on deep chains
            stack: list[tuple[str, int]] = [(start, 0)]
            in_progress.add(start)
            while stack:
                node, i = stack[-1]
                parents = self._parents[node]
                if i < len(parents):
                    stack[-1] = (node, i + 1)
                    nxt = parents[i]
                    if nxt in in_progress:
                        raise CycleDetected(f"hierarchy cycle through {nxt!r}")
                    if nxt not in done:
                        stack.append((nxt, 0))
                        in_progress.add(nxt)
                else:
                    stack.pop()
                    in_progress.discard(node)
                    done.add(node)

    # -- hierarchy queries --------------------------------------------------

    def __contains__(self, name: str) -> bool:
        return self._parents[name] is not None

    def __len__(self) -> int:
        return len(self._parents.whole())

    def concepts(self) -> Iterator[str]:
        return iter(self._parents.whole())

    def parents(self, name: str) -> tuple[str, ...]:
        self._require(name)
        return self._parents[name]

    def is_a(self, a: str, b: str) -> bool:
        """True when ``b`` is ``a`` or one of its ancestors."""
        self._require(a)
        self._require(b)
        return a == b or b in self.ancestors(a)

    def ancestors(self, name: str) -> list[str]:
        """Proper ancestors of ``name``, breadth-first, nearest first,
        deduplicated: the one hierarchy walk, which every other hierarchy
        question reads by membership.  A FIFO queue visits the nodes in level
        order."""
        self._require(name)
        parents = self._parents
        queue = [name]
        seen = {name}
        for node in queue:
            for p in parents[node]:
                if p not in seen:
                    seen.add(p)
                    queue.append(p)
        return queue[1:]

    # -- lexicon -------------------------------------------------------------

    def link_lexeme(self, phrase: str, language, concept: str) -> None:
        """Attach a phrase to a concept; repeated links are no-ops."""
        self.link_lexicon(concept, ((language, (phrase,)),))

    def link_lexicon(self, concept: str, sections) -> None:
        """Attach each ``(language, phrases)`` section's phrases to a concept,
        in order, as one ``link_lexeme`` call per phrase would: the concept is
        checked once, and each section's language and tables are resolved
        once.  A block's lexicon is such a list of sections."""
        self._require(concept)
        for language, phrases in sections:
            lang, phrases = as_language(language), tuple(phrases)
            by_phrase, reach = self._by_phrase[lang], self._reach[lang]
            lexicon = self._lexicon[lang]
            for phrase in phrases:
                key = _normalize_phrase(phrase)
                concepts = by_phrase.get(key, ())
                if concept not in concepts:
                    by_phrase[key] = concepts + (concept,)
                words = key.split()
                if words and reach.get(words[0], 0) < len(words):
                    reach[words[0]] = len(words)
            if phrases:
                lexicon[concept] = lexicon.get(concept, ()) + (phrases,)

    def lookup_phrase(self, phrase: str, language) -> tuple[str, ...]:
        return self._by_phrase[as_language(language)][_normalize_phrase(phrase)]

    def phrase_reach(self, word: str, language) -> int:
        """Word count of the longest phrase starting with ``word``; 0 for none."""
        return self._reach[as_language(language)][_normalize_phrase(word)]

    def lexemes_of(self, concept: str, language) -> list[str]:
        """The concept's phrases in the language, in link order, each once."""
        self._require(concept)
        sections = self._lexicon[as_language(language)][concept]
        return list(dict.fromkeys(p for phrases in sections for p in phrases))

    def _require(self, name: str) -> None:
        if self._parents[name] is None:
            raise UnknownConcept(name)
