"""Randomized property suites and reference implementations, shared by the
test modules.

Each runner takes a case count and a seed; failures raise AssertionError.
Plain seeded randomness keeps a thousand cases per suite inside the time
budget.
"""

import copy
import inspect
import pickle
import random
import re
from collections import Counter
from dataclasses import FrozenInstanceError, astuple, field, fields, make_dataclass, replace

from scriptkb.diagnostics import ERROR, INFO, WARNING, Diagnostic, has_errors
from scriptkb.errors import CycleDetected, EmptyDatabase, MalformedHeader, UnknownConcept
from scriptkb.grid import parse_grid
from scriptkb.kb import KnowledgeBase, instance_base
from scriptkb.ontology import Language, Ontology
from scriptkb.parser import parse_database, serialize
from scriptkb.qa import SCRIPT_KINDS, Question, QuestionKind, RoleUse, Usage, answer
from scriptkb.recognizer import (_TOKEN_RE, Activation, ActivationSet, RecognitionResult,
                                 activate, mention_set, score_scripts, stopwords)
from scriptkb.scripts import (EventGroup, FieldValue, Script, build_script, inherited_field,
                              is_script, timeline, validate)
from scriptkb.stats import CensusRow, SummaryRow, census, summary
from scriptkb.terms import (CONCEPT, EVENT_PREDICATES, FIELDS, MEASURE, TERM, Assertion,
                            goto_target, malformed, term_symbols)

_WORDS = ("pea", "pod", "bed", "wall", "door", "lamp", "Jean", "café",
          "green pea", "night table", "power failure")


def run_isa_closure(cases=1000, seed=20260808):
    """is_a against brute-force reachability on random DAGs of up to 200 nodes,
    plus sampled reflexivity and transitivity."""
    rng = random.Random(seed)
    for _ in range(cases):
        n = rng.randint(1, 200)
        names = [f"n{i}" for i in range(n)]
        onto = Ontology()
        onto.add_concept("concept")
        parents = {}
        for i, name in enumerate(names):
            pool = names[:i]
            chosen = rng.sample(pool, k=min(len(pool), rng.randint(0, 3)))
            onto.add_concept(name, chosen)
            parents[name] = tuple(chosen) if chosen else ("concept",)
        onto.resolve()

        def closure(start):
            seen = set()
            stack = [start]
            while stack:
                for p in parents.get(stack.pop(), ()):
                    if p not in seen:
                        seen.add(p)
                        stack.append(p)
            return seen

        for _ in range(12):
            a, b = rng.choice(names), rng.choice(names)
            assert onto.is_a(a, b) == (a == b or b in closure(a))
            assert onto.is_a(a, a)
        # transitivity on sampled chains
        for _ in range(6):
            a = rng.choice(names)
            up = closure(a)
            if not up:
                continue
            b = rng.choice(sorted(up))
            upper = closure(b)
            if upper:
                c = rng.choice(sorted(upper))
                assert onto.is_a(a, c)
        # ancestors returns exactly the proper closure, without the node
        a = rng.choice(names)
        anc = onto.ancestors(a)
        assert a not in anc
        assert len(anc) == len(set(anc))
        assert set(anc) == closure(a)
        # and in the frontier walk's order, on every node
        run_ancestors_match_reference(onto)


def reference_ancestors(onto, name):
    """Proper ancestors as the frontier walk gave them: one list per level,
    each node's parents in order, each ancestor where it is first met."""
    out, seen, frontier = [], {name}, [name]
    while frontier:
        nxt = []
        for node in frontier:
            for p in onto.parents(node):
                if p not in seen:
                    seen.add(p)
                    out.append(p)
                    nxt.append(p)
        frontier = nxt
    return out


def run_ancestors_match_reference(onto):
    """``ancestors`` of every concept equals ``reference_ancestors``, order
    included."""
    for name in onto.concepts():
        assert onto.ancestors(name) == reference_ancestors(onto, name), name


def run_recognizer_properties(kb, cases=1000, seed=20260808):
    """score equals evidence count, never decreases when an activation is
    added, and with generalization off equals a brute-force mention scan."""
    rng = random.Random(seed)
    mentions = {name: mention_set(build_script(kb, name))
                for name in kb.script_concepts()}
    pool = sorted(set().union(*mentions.values()) | {"green-pea", "schnapps", "poodle"})

    def acts(concepts):
        return ActivationSet(tuple(
            Activation(c, i, i + 1, c, c) for i, c in enumerate(concepts)))

    for _ in range(cases):
        chosen = rng.sample(pool, k=rng.randint(0, 5))
        base = score_scripts(acts(chosen), kb)
        for r in base:
            assert r.score == float(len(r.evidence))
            assert r.score >= 1.0 and r.score == int(r.score)
            assert len(set(r.evidence)) == len(r.evidence)
            assert set(r.evidence) <= set(chosen)

        extra = rng.choice(pool)
        grown = score_scripts(acts(chosen + [extra]), kb)
        before = {r.script: r.score for r in base}
        after = {r.script: r.score for r in grown}
        for script, score in before.items():
            assert after.get(script, 0.0) >= score

        exact = score_scripts(acts(chosen), kb, generalization=False)
        expected = {}
        for name, mset in mentions.items():
            evidence = tuple(c for c in dict.fromkeys(chosen) if c in mset)
            if evidence:
                expected[name] = (float(len(evidence)), evidence)
        assert {r.script: (r.score, r.evidence) for r in exact} == expected


def reference_score_scripts(activations, kb, *, generalization=True):
    """``score_scripts`` as it ranked before score buckets: each script's
    evidence gathered from a set per concept, then one sort of the results on
    a ``(-score, name)`` key."""
    evidence = {}
    for concept in activations.concepts():
        names = [concept]
        if generalization:
            names += kb.ontology.ancestors(concept)
        for script in {s for name in names for s in kb.index.by_mention.get(name, ())}:
            evidence.setdefault(script, []).append(concept)
    results = [RecognitionResult(s, float(len(e)), tuple(e)) for s, e in evidence.items()]
    results.sort(key=lambda r: (-r.score, r.script))
    return results


def run_scores_match_reference(kb, cases=300, seed=20260808):
    """``score_scripts`` equals ``reference_score_scripts`` exactly (order,
    float scores, evidence tuples) with generalization on and off, on random
    sets of 1-6 activations: drawn from every concept, drawn with repeats
    from a few, or drawn from the descendants of one concept, so that they
    share ancestors."""
    rng = random.Random(seed)
    onto = kb.ontology
    pool = sorted(onto.concepts())
    below = {}  # concept -> the concepts within two links under it
    for c in pool:
        for p in onto.parents(c):
            below.setdefault(p, set()).add(c)
            for g in onto.parents(p):
                below.setdefault(g, set()).add(c)
    shared = sorted(p for p, under in below.items() if len(under) > 1)
    for case in range(cases):
        k = rng.randint(1, 6)
        if case % 3 == 0 or not shared:
            chosen = rng.sample(pool, min(k, len(pool)))
        elif case % 3 == 1:
            chosen = rng.choices(rng.sample(pool, min(3, len(pool))), k=k)
        else:
            chosen = rng.choices(sorted(below[rng.choice(shared)]), k=k)
        acts = ActivationSet(tuple(
            Activation(c, i, i + 1, c, c) for i, c in enumerate(chosen)))
        for generalization in (True, False):
            got = score_scripts(acts, kb, generalization=generalization)
            want = reference_score_scripts(acts, kb, generalization=generalization)
            assert got == want and repr(got) == repr(want), (chosen, generalization)


def plain_twin(cls, **namespace):
    """A ``@dataclass(frozen=True, slots=True)`` with the name, fields and
    defaults of ``cls`` and the methods in ``namespace``, so with the
    ``__init__`` that dataclasses generates."""
    specs = [(f.name, f.type, field(default=f.default)) for f in fields(cls)]
    return make_dataclass(cls.__name__, specs, frozen=True, slots=True, namespace=namespace)


def run_record_matches_twin(cls, twin, values, other):
    """``cls`` behaves as its plain twin on ``values`` and on ``other``, which
    differ in every field: the same ``__init__`` parameters and defaults,
    keyword construction, no ``__dict__``, frozen fields, the same ``==``,
    ``hash`` and ``repr``, and ``replace``, ``pickle`` and ``deepcopy``
    round trips."""
    def init(c):
        return [(p.name, p.kind, p.default) for p in inspect.signature(c).parameters.values()]

    assert init(cls) == init(twin)
    names = [f.name for f in fields(cls)]
    for make in (cls, twin):
        assert make(**dict(zip(names, values))) == make(*values)
    a, b, ta, tb = cls(*values), cls(*other), twin(*values), twin(*other)
    assert (a == cls(*values), a == b, a != b) == (ta == twin(*values), ta == tb, ta != tb)
    for record, plain in ((a, ta), (b, tb)):
        assert not hasattr(record, "__dict__") and not hasattr(plain, "__dict__")
        assert hash(record) == hash(plain) and repr(record) == repr(plain)
        for name in names:
            try:
                setattr(record, name, None)
            except FrozenInstanceError:
                continue
            raise AssertionError(f"{cls.__name__}.{name} could be assigned")
    for i, name in enumerate(names):
        changed = values[:i] + (other[i],) + values[i + 1:]
        assert replace(a, **{name: other[i]}) == cls(*changed)
    assert replace(a) == a
    for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(a, protocol)) == a
    assert copy.deepcopy(a) == a and copy.copy(a) == a


_FILLER = ("then", "quickly", "zork", "Yesterday", "o'clock", "x-ray", "42", "café", "ing")


def run_lexicon_activation(kb, cases=1000, seed=20260808) -> int:
    """Every lexicon phrase whose tokens join back to itself, other than a
    single English stop word, activates alone as one span covering the whole
    text, with exactly its lookup as concepts.  On seeded texts built from
    phrases, stop words and filler, activations come in text order, never
    overlap, each surface is its text slice, and each concept is a lookup
    of its phrase.  Returns the number of phrases checked alone."""
    rng = random.Random(seed)
    onto = kb.ontology
    phrases = sorted({(lang, p) for c in onto.concepts() for lang in Language
                      for p in onto.lexemes_of(c, lang)})
    checked = 0
    for lang, phrase in phrases:
        if " ".join(_TOKEN_RE.findall(phrase)) != phrase:
            continue
        if lang == Language.ENGLISH and phrase.casefold() in stopwords():
            continue
        acts = activate(phrase, kb, lang)
        assert {(a.start, a.end, a.surface) for a in acts.items} == {(0, len(phrase), phrase)}, \
            (lang, phrase, acts)
        assert tuple(a.concept for a in acts.items) == onto.lookup_phrase(phrase, lang)
        checked += 1

    pieces = [p for _, p in phrases] + sorted(stopwords()) + list(_FILLER)
    for _ in range(cases):
        lang = rng.choice(tuple(Language))
        words = []
        for _ in range(rng.randint(0, 12)):
            word = rng.choice(pieces)
            roll = rng.random()
            if roll < 0.15:
                word = word.capitalize()
            elif roll < 0.3:
                word += rng.choice(("s", "es", "ed", "ing"))
            words.append(word)
        text = "".join(w + rng.choice((" ", " ", "  ", ", ", ". ")) for w in words)
        items = activate(text, kb, lang).items
        for a in items:
            assert a.start < a.end and a.surface == text[a.start:a.end], (text, a)
            assert a.concept in onto.lookup_phrase(a.phrase, lang), (text, a)
        for a, b in zip(items, items[1:]):
            assert (a.start, a.end) == (b.start, b.end) or a.end <= b.start, (text, a, b)
    return checked


def run_timeline_bound(cases=1000, seed=20260808):
    """timeline length stays within plain-groups x (unroll+1); equality when a
    tail goto targets the first group; identity with no goto."""
    rng = random.Random(seed)
    for _ in range(cases):
        n_groups = rng.randint(1, 8)
        groups = [EventGroup(i, tuple(Assertion("act", (f"e{i}-{j}",))
                                      for j in range(rng.randint(1, 2))))
                  for i in range(1, n_groups + 1)]
        use_goto = rng.random() < 0.6
        target = None
        if use_goto:
            target = rng.randint(1, n_groups)
            position = rng.randint(0, n_groups)
            goto_group = EventGroup(
                100 + position, (Assertion("goto", (f"event{target:02d}-of",)),),
                goto_target=target)
            groups = sorted(groups + [goto_group], key=lambda g: g.index)
        script = Script("synthetic", events=tuple(groups))
        unroll = rng.randint(0, 5)
        out = timeline(script, unroll)
        plain = [g for g in groups if g.goto_target is None]
        assert len(out) <= len(plain) * (unroll + 1)
        if not use_goto:
            assert out == plain
        elif target == 1 and groups[-1].goto_target is not None:
            # tail goto back to the start repeats every plain group fully
            assert len(out) == len(plain) * (unroll + 1)


def run_lexicon_consistency(cases=1000, seed=20260808):
    """lookup_phrase and lexemes_of agree in both directions, modulo the
    first-character case normalization lookup applies."""
    rng = random.Random(seed)

    def norm(p):
        return p[0].lower() + p[1:] if p else p

    for _ in range(cases):
        onto = Ontology()
        onto.add_concept("concept")
        concepts = [f"c{i}" for i in range(rng.randint(1, 8))]
        for c in concepts:
            onto.add_concept(c)
        links = set()
        for _ in range(rng.randint(0, 14)):
            phrase = rng.choice(_WORDS)
            if rng.random() < 0.3:
                phrase = phrase.capitalize()
            language = rng.choice((Language.ENGLISH, Language.FRENCH))
            concept = rng.choice(concepts)
            onto.link_lexeme(phrase, language, concept)
            links.add((phrase, language, concept))
        for phrase, language, concept in links:
            assert concept in onto.lookup_phrase(phrase, language)
            assert phrase in onto.lexemes_of(concept, language)
        # and the other way: everything reported is really linked
        for concept in concepts:
            for language in (Language.ENGLISH, Language.FRENCH):
                for phrase in onto.lexemes_of(concept, language):
                    assert concept in onto.lookup_phrase(phrase, language)
        for phrase, language, _ in links:
            for found in onto.lookup_phrase(phrase, language):
                stored = onto.lexemes_of(found, language)
                assert norm(phrase) in {norm(p) for p in stored}


_ALPHABET = "abno [];^-:\n.,0123456789eE+"


def _mutations(texts, cases, seed):
    """Fixture texts with one to eight random character edits each."""
    rng = random.Random(seed)
    for case in range(cases):
        text = texts[case % len(texts)]
        chars = list(text)
        for _ in range(rng.randint(1, 8)):
            op = rng.randrange(3)
            pos = rng.randrange(len(chars)) if chars else 0
            if op == 0 and chars:
                chars[pos] = rng.choice(_ALPHABET)
            elif op == 1 and chars:
                del chars[pos]
            else:
                chars.insert(pos, rng.choice(_ALPHABET))
        yield "".join(chars)


def run_parser_totality(texts, cases=1000, seed=20260808):
    """Mutated fixture text never crashes the parser: blocks plus diagnostics
    come back, whatever survives still serializes to a reparseable form, and
    the loader path only ever reports problems or a cycle."""
    for mutated in _mutations(texts, cases, seed):
        result = parse_database(mutated)
        assert isinstance(result.blocks, list)
        assert isinstance(result.diagnostics, list)
        again = parse_database(serialize(result.blocks))
        assert again.blocks == result.blocks
        for src in result.grid_sources:
            try:
                parse_grid(src.text, filename=src.file, line=src.line)
            except MalformedHeader:
                pass  # reported as a diagnostic by the loader
        try:
            KnowledgeBase.from_texts([("m", mutated)])
        except CycleDetected:
            pass  # mutations can close an ako loop; anything else is a bug


def run_clean_load_builds_scripts(texts, cases=1000, seed=20260808):
    """A mutated fixture that loads without error diagnostics builds a script
    view of every concept with assertions, and each census row counts as
    subevents exactly the events that view groups."""
    clean = 0
    for mutated in _mutations(texts, cases, seed):
        try:
            kb = KnowledgeBase.from_texts([("m", mutated)])
        except CycleDetected:
            continue
        if has_errors(kb.diagnostics):
            continue
        clean += 1
        for concept in list(kb.ontology.concepts()):
            if kb.assertions_about(concept):
                build_script(kb, concept)
        for row in census(kb):
            script = build_script(kb, row.script)
            assert row.subevents == sum(len(g.events) for g in script.events)
    assert clean, "no mutation loaded cleanly; the property checked nothing"


def run_mutated_lexicon_activation(texts, cases=1000, seed=20260808):
    """``run_lexicon_activation`` on every mutated fixture that loads."""
    checked = 0
    for case, mutated in enumerate(_mutations(texts, cases, seed)):
        try:
            kb = KnowledgeBase.from_texts([("m", mutated)])
        except CycleDetected:
            continue
        checked += run_lexicon_activation(kb, cases=5, seed=seed + case)
    assert checked, "no phrase was checked"


def assertion_line(block, index):
    """The source line of a parsed block's assertion, or the block's own line
    when the parser did not record one."""
    if index < len(block.assertion_lines):
        return block.assertion_lines[index]
    return block.line


def _full_scan(kb):
    """The whole-base answers as every query computed them before the script
    index: a loop over every script view and its mention set."""
    scripts = sorted(c for c in kb.ontology.concepts()
                     if any(a.predicate in EVENT_PREDICATES and not malformed(a)
                            for a in kb.assertions_about(c)))
    views = {name: build_script(kb, name) for name in scripts}
    mentions = {name: mention_set(view) for name, view in views.items()}

    def events(script, concept):
        return tuple(t for g in script.events for t in g.events if concept in term_symbols(t))

    def scores(concept, generalization):
        reach = {concept, *(kb.ontology.ancestors(concept) if generalization else ())}
        return [RecognitionResult(name, 1.0, (concept,))
                for name in scripts if reach & mentions[name]]

    def what_does(subject):
        items = []
        for name, script in views.items():
            for index, role_concept in script.roles.items():
                if kb.ontology.is_a(subject, role_concept):
                    items.append(RoleUse(name, index, script.role_scripts.get(index),
                                         events(script, role_concept)))
                    break
        return items, tuple(item.script for item in items)

    def used_for(subject):
        items = [Usage(name, events(views[name], subject))
                 for name in scripts if subject in mentions[name]]
        return items, tuple(item.script for item in items)

    def where_found(subject):
        sources = [name for name in scripts if subject in mentions[name]]
        places = [p for name in sources for p in views[name].places]
        for grid_name in sorted(kb.grids):
            if subject in kb.grids[grid_name].legend.values():
                sources.append(grid_name)
                base = instance_base(grid_name)
                places.append(base if base and base in kb.ontology else grid_name)
        return list(dict.fromkeys(places)), tuple(sources)

    return scripts, scores, {QuestionKind.WHAT_DOES: what_does,
                             QuestionKind.USED_FOR: used_for,
                             QuestionKind.WHERE_FOUND: where_found}


def run_index_matches_full_scan(kb):
    """On a base that loads without errors, or whose only errors are malformed
    fields (which script views leave out): the script list, ``is_script``,
    recognition with generalization on and off, and the what-does, used-for
    and where-found answers equal a full scan of every script for every concept;
    ``sites_about`` equals a walk of every assertion; and every query kind
    over every script and concept returns without an exception."""
    scripts, scores, answers = _full_scan(kb)
    assert kb.script_concepts() == scripts
    sites = {}
    for block in kb.blocks:
        for i, a in enumerate(block.assertions):
            if a.args and isinstance(a.args[0], str):
                sites.setdefault(a.args[0], []).append((a, block.file, assertion_line(block, i)))
    for concept in kb.ontology.concepts():
        assert is_script(kb, concept) == (concept in scripts), concept
        assert kb.sites_about(concept) == tuple(sites.get(concept, ())), concept
        for generalization in (True, False):
            acts = ActivationSet((Activation(concept, 0, 1, "x", "x"),))
            assert score_scripts(acts, kb, generalization=generalization) \
                == scores(concept, generalization), (concept, generalization)
        for kind in QuestionKind:
            if kind in SCRIPT_KINDS and concept not in scripts:
                continue
            got = answer(kb, Question(kind, concept))
            if kind in answers:
                assert (got.payload, got.sources) == answers[kind](concept), (kind, concept)
    for name in scripts:
        validate(kb, build_script(kb, name))


def run_mutated_index_matches_full_scan(texts, cases=1000, seed=20260808):
    """``run_index_matches_full_scan`` on every mutated fixture that loads
    without error diagnostics or with malformed-field errors only."""
    checked = {"clean": 0, "malformed": 0}
    for mutated in _mutations(texts, cases, seed):
        try:
            kb = KnowledgeBase.from_texts([("m", mutated)])
        except CycleDetected:
            continue
        errors = {d.code for d in kb.diagnostics if d.severity == "error"}
        if errors <= {"MalformedField"}:
            run_index_matches_full_scan(kb)
            checked["malformed" if errors else "clean"] += 1
    assert all(checked.values()), f"a kind of base was never checked: {checked}"


def reference_census(kb):
    """Census rows counted per assertion: each concept's field assertions over
    ``sites_about`` by their ``FIELDS`` attribute, the malformed ones left out;
    a script is a concept with an event left in."""
    rows = []
    for concept in sorted(kb.ontology.concepts()):
        counts = Counter(FIELDS[a.predicate].attr for a, _, _ in kb.sites_about(concept)
                         if a.predicate in FIELDS and not malformed(a))
        if counts["events"]:
            own = [counts.pop(attr, 0) for attr in ("events", "roles", "places")]
            rows.append(CensusRow(concept, *own, sum(counts.values())))
    return rows


def run_census_matches_reference(kb):
    """``census`` and ``summary`` equal the per-assertion count."""
    rows = reference_census(kb)
    assert census(kb) == rows
    try:
        got = summary(kb)
    except EmptyDatabase:
        got = None
    columns = zip(*(astuple(r)[1:] for r in rows))
    assert got == (SummaryRow(len(rows), *(sum(c) / len(rows) for c in columns))
                   if rows else None)


def reference_build_script(kb, concept):
    """The script view built per assertion: every site of the concept, each
    predicate looked up in ``FIELDS`` and the malformed field assertions left
    out; an unknown concept raises ``UnknownConcept``."""
    if concept not in kb.ontology:
        raise UnknownConcept(f"unknown concept {concept!r}")
    script = Script(concept)
    groups, gotos = {}, {}
    for a, _, _ in kb.sites_about(concept):
        spec = FIELDS.get(a.predicate)
        if spec is None or malformed(a, spec):
            continue
        value = a.args[1]
        if spec.attr == "events":
            groups.setdefault(spec.index, []).append(value)
            target = goto_target(value)
            if target is not None:
                gotos.setdefault(spec.index, target)
        elif spec.index is not None:
            getattr(script, spec.attr).setdefault(spec.index, value)
        elif spec.shape == MEASURE:
            if getattr(script, spec.attr) is None:
                setattr(script, spec.attr, value)
        else:
            setattr(script, spec.attr, getattr(script, spec.attr) + (value,))
    script.roles = dict(sorted(script.roles.items()))
    script.role_scripts = dict(sorted(script.role_scripts.items()))
    script.events = tuple(
        EventGroup(i, tuple(groups[i]), gotos.get(i)) for i in sorted(groups))
    return script


def reference_is_a(onto, a, b):
    """Whether ``b`` is ``a`` or reachable from it over parent links, by a
    walk of its own that stops at ``b``."""
    seen, stack = {a}, [a]
    while stack:
        node = stack.pop()
        if node == b:
            return True
        for p in onto.parents(node):
            if p not in seen:
                seen.add(p)
                stack.append(p)
    return False


def reference_validate(kb, script):
    """``validate`` as it checked a script before one hierarchy walk: each
    diagnostic placed by a scan of every site, repeated fields counted in a
    second pass, and each event argument tested against every related
    concept with two reachability walks."""
    onto = kb.ontology
    sites = kb.sites_about(script.concept)
    out = []

    def report(severity, code, message, attr=None, index=None, value=None):
        position = (sites[0][1], sites[0][2], 1) if sites else ("<script>", 0, 0)
        for a, file, line in sites:
            spec = FIELDS.get(a.predicate)
            if spec and spec.attr == attr and index in (None, spec.index) \
                    and (value is None or value in a.args[1:2]):
                position = (file, line, 1)
                break
        out.append(Diagnostic(*position, severity, code, message))

    indices = list(script.roles)
    if indices and indices != list(range(1, len(indices) + 1)):
        report(ERROR, "RoleGap", f"role indices {indices} are not contiguous from 01")
    for index in script.role_scripts:
        if index not in script.roles:
            report(WARNING, "RoleScriptWithoutRole",
                   f"role{index:02d}-script-of has no matching role",
                   "role_scripts", index)
    group_indices = {g.index for g in script.events}
    for g in script.events:
        if not g.events:
            report(ERROR, "EmptyEventGroup", f"event group {g.index:02d} is empty")
        if g.goto_target is not None:
            goto = next((t for t in g.events if goto_target(t) is not None), None)
            if g.goto_target not in group_indices:
                report(ERROR, "BadGotoTarget",
                       f"goto in group {g.index:02d} targets missing group "
                       f"{g.goto_target:02d}", "events", g.index, goto)
            if len(g.events) > 1:
                report(WARNING, "GotoNotAlone",
                       f"group {g.index:02d} mixes a goto with other events",
                       "events", g.index, goto)
    for label in ("duration", "period"):
        measure = getattr(script, label)
        if measure is not None and measure.quantity <= 0:
            report(ERROR, "NonPositiveMeasure",
                   f"{label} must be positive, got {measure.text}", label)
    if script.cost is not None and script.cost.quantity < 0:
        report(ERROR, "NonPositiveMeasure",
               f"cost must not be negative, got {script.cost.text}", "cost")
    repeats = {}
    for a, file, line in sites:
        spec = FIELDS.get(a.predicate)
        if spec and spec.attr != "events" \
                and (spec.index is not None or spec.shape == MEASURE):
            repeats.setdefault(a.predicate, []).append((file, line))
    for pred, places in repeats.items():
        if len(places) > 1:
            file, line = places[1]
            out.append(Diagnostic(file, line, 1, WARNING, "DuplicateField",
                                  f"{pred} given {len(places)} times; first wins"))

    def role_related(name, related):
        return name in onto and any(
            rc in onto and (reference_is_a(onto, name, rc) or reference_is_a(onto, rc, name))
            for rc in related)

    related = set(script.roles.values()) | set(script.places)
    flagged = set()
    for g in script.events:
        for term in g.events:
            if not isinstance(term, Assertion) or goto_target(term) is not None:
                continue
            for name in term_symbols(term, include_predicates=False):
                if name not in flagged and not role_related(name, related):
                    flagged.add(name)
                    report(INFO, "EventArgOutsideRoles",
                           f"event argument {name!r} names no declared role "
                           f"concept (nor an ancestor or descendant of one)",
                           "events", g.index, term)
    return out


def run_validate_matches_reference(kb):
    """``validate`` of every script, and of every concept's view, equals
    ``reference_validate``, order included."""
    for concept in kb.ontology.concepts():
        script = build_script(kb, concept)
        assert validate(kb, script) == reference_validate(kb, script), concept


_INHERITABLE = ("places", "duration", "period", "cost")


def reference_inherited_field(kb, views, concept, fieldname):
    """The field read off whole script views (``views``: concept -> view), the
    concept's own first, then each ancestor's, nearest first."""
    for source in [concept] + kb.ontology.ancestors(concept):
        value = getattr(views[source], fieldname)
        if value is not None and value != ():
            return FieldValue(value, source, source != concept)
    return None


def run_views_match_reference(kb):
    """``build_script`` of every concept and ``inherited_field`` of every
    concept and inheritable field equal the per-assertion references, down to
    each measure's text; both raise ``UnknownConcept`` for an unknown concept."""
    views = {c: reference_build_script(kb, c) for c in kb.ontology.concepts()}
    for concept, view in views.items():
        got = build_script(kb, concept)
        assert got == view and repr(got) == repr(view), concept
        for fieldname in _INHERITABLE:
            got = inherited_field(kb, concept, fieldname)
            want = reference_inherited_field(kb, views, concept, fieldname)
            assert got == want and repr(got) == repr(want), (concept, fieldname)
    unknown = "no-such-concept"
    assert unknown not in kb.ontology
    for build in (build_script, reference_build_script):
        try:
            build(kb, unknown)
        except UnknownConcept:
            continue
        raise AssertionError(f"{build.__name__} built a view of an unknown concept")


def run_on_mutated_bases(check, texts, cases=1000, seed=20260808):
    """``check(kb)`` on every mutated fixture that loads."""
    checked = 0
    for mutated in _mutations(texts, cases, seed):
        try:
            kb = KnowledgeBase.from_texts([("m", mutated)])
        except CycleDetected:
            continue
        check(kb)
        checked += 1
    assert checked > 900


_FIELD_LINE = re.compile(r"\[(\S+) \^ .*\]")
_WRONG_SHAPE = {CONCEPT: "NUMBER:USD:1", MEASURE: "apple", TERM: ""}


def _malformed_fields(texts, cases, seed):
    """Fixture texts with one to three field assertions given an argument of
    the wrong shape (an event loses its argument)."""
    rng = random.Random(seed)
    for case in range(cases):
        lines = texts[case % len(texts)].split("\n")
        fields = {i: m[1] for i, m in enumerate(map(_FIELD_LINE.fullmatch, lines))
                  if m and m[1] in FIELDS}
        for i in rng.sample(sorted(fields), min(len(fields), rng.randint(1, 3))):
            lines[i] = f"[{fields[i]} ^ {_WRONG_SHAPE[FIELDS[fields[i]].shape]}]"
        yield "\n".join(lines)


def run_malformed_fields_index_matches_full_scan(texts, cases=100, seed=20260808):
    """Wrong-shaped field arguments are load errors that script views leave
    out: ``run_index_matches_full_scan`` holds on every such base whose only
    errors they are (a goto whose target group lost its only event adds one)."""
    checked = 0
    for mutated in _malformed_fields(texts, cases, seed):
        kb = KnowledgeBase.from_texts([("m", mutated)])
        errors = {d.code for d in kb.diagnostics if d.severity == "error"}
        assert "MalformedField" in errors
        if errors == {"MalformedField"}:
            run_index_matches_full_scan(kb)
            checked += 1
    assert checked, "no base had malformed-field errors only"


def run_on_malformed_field_bases(check, texts, cases=100, seed=20260808):
    """``check(kb)`` on every base with wrong-shaped field arguments."""
    for mutated in _malformed_fields(texts, cases, seed):
        check(KnowledgeBase.from_texts([("m", mutated)]))


def as_two_files(text):
    """A text cut into two named files at the first block header past its
    middle (the second file is empty when there is none), so that the files
    share the symbols of one fixture."""
    cut = text.find("\nObject ", len(text) // 2)
    cut = cut + 1 if cut >= 0 else len(text)
    return [("m1", text[:cut]), ("m2", text[cut:])]


def reference_lexicon(kb):
    """Each language's phrase -> concepts, concept -> phrases and first word
    -> reach tables of the base's blocks, linked one phrase at a time as
    ``Ontology.link_lexeme`` did before a block's lexicon was linked in one
    call."""
    tables = {lang: ({}, {}, {}) for lang in Language}
    for block in kb.blocks:
        concept = block.concept
        for lang, phrases in block.lexicon:
            by_phrase, by_concept, reach = tables[lang]
            for phrase in phrases:
                key = phrase[:1].lower() + phrase[1:]
                concepts = by_phrase.get(key, ())
                if concept not in concepts:
                    by_phrase[key] = concepts + (concept,)
                words = key.split()
                if words:
                    reach[words[0]] = max(reach.get(words[0], 0), len(words))
                linked = by_concept.get(concept, ())
                if phrase not in linked:
                    by_concept[concept] = linked + (phrase,)
    return tables


def assert_lexicon_matches_reference(kb):
    onto = kb.ontology
    for lang, (by_phrase, by_concept, reach) in reference_lexicon(kb).items():
        for phrase, concepts in by_phrase.items():
            assert onto.lookup_phrase(phrase, lang) == concepts, (lang, phrase)
        for word, n in reach.items():
            assert onto.phrase_reach(word, lang) == n, (lang, word)
        for concept in onto.concepts():
            assert onto.lexemes_of(concept, lang) == list(by_concept.get(concept, ()))
        # and nothing more is linked
        assert len(onto._by_phrase[lang]) == len(by_phrase)
        assert len(onto._reach[lang]) == len(reach)
        assert sum(1 for c in onto.concepts() if onto.lexemes_of(c, lang)) == len(by_concept)
        assert len(onto._lexicon[lang]) == len(by_concept)


def run_load_matches_fresh_tables(named_texts):
    """Loading files through one set of token tables gives what assembling
    the files parsed one by one, each with fresh tables, gives: the same
    loader diagnostics in order, blocks, concepts in order and their parents,
    field assertions and census, and a lexicon equal to one linked phrase by
    phrase.  A hierarchy cycle raises the same error on both."""
    want, cycle = KnowledgeBase(), None
    try:
        want._assemble([parse_database(text, filename=name) for name, text in named_texts])
    except CycleDetected as e:
        cycle = str(e)
    try:
        kb = KnowledgeBase.from_texts(named_texts)
    except CycleDetected as e:
        assert str(e) == cycle
        return
    assert cycle is None
    assert kb.diagnostics == want.diagnostics
    assert [(b, b.file, b.line, b.assertion_lines) for b in kb.blocks] \
        == [(b, b.file, b.line, b.assertion_lines) for b in want.blocks]
    onto = kb.ontology
    assert list(onto.concepts()) == list(want.ontology.concepts())
    assert all(onto.parents(c) == want.ontology.parents(c) for c in onto.concepts())
    assert list(kb._field_assertions.items()) == list(want._field_assertions.items())
    assert census(kb) == census(want) and kb._census_totals == want._census_totals
    assert_lexicon_matches_reference(kb)
