"""Script recognition from free text.

Text activates concepts through the lexicon: greedy longest match over
token n-grams of any length, naive suffix stripping as a fallback for
single tokens, and, in English text, a stop-word list to keep closed-class
words from firing.  Each distinct activated concept then contributes 1.0 to
every script that mentions it, either directly or, with generalization on,
through a more general concept in the script's mention set; scripts are
ranked by score descending, then by name.

``Activation`` and ``RecognitionResult`` are frozen dataclasses with slots
and no ``__dict__``, built through ``terms.slot_init``'s cheaper
``__init__``.  ``activate`` takes a ``Language`` member or a language's
name, ``"English"`` or ``"French"``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cache
from importlib import resources

from .kb import KnowledgeBase
from .ontology import Language, as_language
from .scripts import Script
from .terms import LETTERS, goto_target, slot_init, term_symbols

_TOKEN_RE = re.compile(rf"[0-9{LETTERS}]+(?:['’-][0-9{LETTERS}]+)*")
_SUFFIXES = ("s", "es", "ed", "ing")


@cache
def stopwords() -> frozenset[str]:
    """The English closed-class words that never activate on their own."""
    text = resources.files("scriptkb.data").joinpath("stopwords_en.txt").read_text("utf-8")
    return frozenset(
        w.strip() for w in text.splitlines() if w.strip() and not w.startswith("#"))


@slot_init
@dataclass(frozen=True, slots=True)
class Activation:
    concept: str
    start: int
    end: int
    surface: str
    phrase: str


@dataclass(frozen=True)
class ActivationSet:
    items: tuple[Activation, ...] = ()

    def concepts(self) -> tuple[str, ...]:
        """Distinct activated concepts in order of first occurrence."""
        return tuple(dict.fromkeys(a.concept for a in self.items))


def activate(text: str, kb: KnowledgeBase, language=Language.ENGLISH) -> ActivationSet:
    """Map text spans to concepts via the lexicon.

    At each token the longest lexicon phrase wins; spans never overlap:
    after a phrase match the scan resumes past it.  Matching is
    case-insensitive at the start of a phrase (the lexicon's own rule);
    unmatched single tokens are retried with -s/-es/-ed/-ing stripped.
    English stop words never activate on their own; French text has none.
    """
    language = as_language(language)
    stop = stopwords() if language == Language.ENGLISH else frozenset()
    lookup, reach = kb.ontology.lookup_phrase, kb.ontology.phrase_reach
    tokens = [(m.group(0), m.start(), m.end()) for m in _TOKEN_RE.finditer(text)]
    items: list[Activation] = []
    i = 0
    while i < len(tokens):
        longest = min(reach(tokens[i][0], language), len(tokens) - i)
        for n in range(max(longest, 1), 0, -1):  # one token always, for the suffix fallback
            if n == 1 and tokens[i][0].casefold() in stop:
                break
            phrase = " ".join(tokens[i + k][0] for k in range(n))
            concepts = lookup(phrase, language)
            if not concepts and n == 1:
                concepts, phrase = _strip_suffix(tokens[i][0], lookup, language)
            if concepts:
                start, end = tokens[i][1], tokens[i + n - 1][2]
                for concept in concepts:
                    items.append(Activation(concept, start, end, text[start:end], phrase))
                break
        i += n  # the matched length, or 1 when nothing matched
    return ActivationSet(tuple(items))


def _strip_suffix(token, lookup, language):
    for suffix in _SUFFIXES:
        if token.casefold().endswith(suffix) and len(token) - len(suffix) >= 2:
            candidate = token[:-len(suffix)]
            concepts = lookup(candidate, language)
            if concepts:
                return concepts, candidate
    return (), token


def mention_set(script: Script) -> frozenset[str]:
    """Every concept a script touches: roles, event predicates and event
    arguments (nested assertions included, ``na`` and ``[goto eventNN-of]``
    excluded), and places."""
    symbols: set[str] = set(script.roles.values())
    for group in script.events:
        for term in group.events:
            if goto_target(term) is not None:
                continue
            symbols.update(term_symbols(term))
    symbols.update(script.places)
    return frozenset(symbols)


@slot_init
@dataclass(frozen=True, slots=True)
class RecognitionResult:
    script: str
    score: float
    evidence: tuple[str, ...]


def score_scripts(activations: ActivationSet, kb: KnowledgeBase, *,
                  generalization: bool = True) -> list[RecognitionResult]:
    """Rank scripts by how many distinct activated concepts they mention.

    A concept supports a script when it is in the script's mention set or,
    with generalization on, when some mentioned concept is one of its
    ancestors, however many links up.  Each supporting concept is worth
    1.0; zero-scoring scripts are omitted.  Sorted by score descending,
    then script name.
    """
    concepts = activations.concepts()
    if not concepts:
        return []
    by_mention = kb.index.by_mention
    evidence: dict[str, list[str]] = {}  # script -> the activated concepts it mentions
    for concept in concepts:
        scripts = set(by_mention[concept])
        if generalization:
            for name in kb.ontology.ancestors(concept):
                scripts.update(by_mention[name])
        for script in scripts:
            evidence.setdefault(script, []).append(concept)
    # one bucket per score; names sorted once keep each bucket in name order
    buckets: list[list[RecognitionResult]] = [[] for _ in range(len(concepts) + 1)]
    for script in sorted(evidence):
        e = evidence[script]
        buckets[len(e)].append(RecognitionResult(script, float(len(e)), tuple(e)))
    return [r for bucket in reversed(buckets) for r in bucket]


def format_results(results) -> list[str]:
    return [f"score {r.score:.1f} for script {r.script} based on "
            + ", ".join(r.evidence) for r in results]
