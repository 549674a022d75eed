"""Knowledge base: parsed blocks, hierarchy, lexicon, and grids in one place.

``KnowledgeBase.from_texts`` builds a base from (name, text) pairs and
``from_paths`` from files; both read each text by the parser's one text
rule, so the same bytes give the same base.  Loading merges any number of
files: the blocks of one concept are read together, in load order, and
each keeps its own file and lines.  From paths, a load set whose files
have not changed since the same code loaded them is decoded from the set's
snapshot entry (``parsecache``) instead of parsed and assembled.  The
files of a load are parsed with one set of token tables, so each distinct
predicate and argument token is classified once per load and held as one
interned string; a bad token stays out of the tables and is reported in
every file, at its own position.  Each field assertion's argument check
and census column come from its predicate's one ``FIELDS`` entry.  Each
block's lexicon is linked by one ``Ontology.link_lexicon`` call as its
concept is registered.  ``ako`` assertions supply hierarchy parents.
Symbols that are referenced but never declared are auto-registered as
children of the root with a warning, since source excerpts routinely
mention concepts defined elsewhere; each is reported at its first mention
in the files, in load order, which the parser records for each file as it
reads the assertions, so loading does not walk them again.  A name
ending in ASCII digits, like ``hotel-room1``, is treated as an instance and
registered under its base concept when the base exists.  A field assertion
whose argument has the wrong shape is a load error, and so is a goto to an
event group its script lacks.  The base is frozen.  Loading records each
subject's field assertions that are not malformed, in load order; script
views and inherited fields read only these.  It also records the sorted
script names, the concepts with an event assertion that is not malformed;
in a table of their own, each script's census row: its events, roles,
places and other fields, the malformed ones left out; and each column's
total over the scripts.  ``errors`` lists the error diagnostics in load
order, the one list a command checks before its query.  Each
assertion's file and line, which only script checks read, are gathered
under its subject on the first ``sites_about`` or ``assertions_about``
call.  Recognition and the what-does, used-for and where-found questions
also read two concept -> scripts maps, built by the first of them from the
recorded field assertions, with no script view.

A base decoded from a snapshot entry has its hierarchy, script names,
census totals and grids at once, as they were stored.  Everything else
stays in the entry, which the base keeps open, until a query first reads
it: the error diagnostics, which a command reads first, and the whole
diagnostics list, which only ``validate`` reads; the census rows; each
language's phrase, reach and lexicon tables, one section each; each
subject's field assertions; the two maps; and the blocks.  So a command
pays to read and decode only what it reads.  Both kinds of base answer
every query through the same tables.

The cyclic garbage collector is paused while a base parses and assembles,
or decodes (``collector_paused``).  Loading allocates tens of thousands of
tuples, assertions, lists and dicts that all stay alive (about 54,000 for a
base of 500 scripts), so each collection it would trigger walks them in
vain, and the older generations' collections walk them again and again as
the base grows.  The collector's earlier state comes back when loading
ends, by an exception too.  The CLI holds the same pause for a whole
command, since the first collections after a load would walk the new base
and free nothing.
"""

from __future__ import annotations

import gc
import marshal
import re
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cached_property, partial
from pathlib import Path
from typing import NamedTuple

from .diagnostics import ERROR, WARNING, Diagnostic
from .errors import KbError, MalformedHeader, UnknownConcept
from .grid import Grid, parse_grid
from .ontology import ROOT, Language, Ontology
from .parsecache import (SectionTable, Sources, decode_assertions, decode_blocks,
                         encode_assertion, encode_blocks, source_text)
from .parser import ParseResult, _parse_database, normalize_text
from .terms import (AKO, EVENT_PREDICATES, FIELDS, GOTO, STRUCTURAL, Assertion,
                    ObjectBlock, goto_target, malformed, slot_init, term_symbols)

_INSTANCE_RE = re.compile(r"(.+?)[0-9]+$")


@contextmanager
def collector_paused():
    """Disable the cyclic garbage collector for the block, then restore the
    state it had before, when the block ends or raises.  Pauses nest."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if collecting:
            gc.enable()


def instance_base(name: str) -> str | None:
    """Base concept name for instance-style names: hotel-room1 -> hotel-room."""
    m = _INSTANCE_RE.fullmatch(name)
    return m.group(1) if m else None


def read_text(path) -> str:
    """A UTF-8 file's text by the parser's text rule; undecodable bytes raise
    a KbError naming the file."""
    return normalize_text(source_text(Path(path).read_bytes(), path))


@slot_init
@dataclass(frozen=True, slots=True)
class CensusRow:
    """One script's own field assertions by census column; ``other`` counts
    every field that is not an event, role or place."""

    script: str
    subevents: int
    roles: int
    places: int
    other: int


class ScriptIndex(NamedTuple):
    """The two concept -> scripts maps; script lists are sorted by name."""

    by_mention: dict[str, list[str]]  # concept -> scripts whose mention set holds it
    by_role: dict[str, list[str]]  # concept -> scripts with a role of that concept


@dataclass(frozen=True)
class KnowledgeBase:
    ontology: Ontology = field(default_factory=Ontology, init=False)
    grids: dict[str, Grid] = field(default_factory=dict, init=False)
    # subject -> its field assertions that are not malformed, in load order
    _field_assertions: SectionTable = field(default_factory=SectionTable, init=False)
    # the script names, sorted, as keys
    _scripts: dict[str, None] = field(default_factory=dict, init=False)
    # the census rows' column sums: subevents, roles, places, other
    _census_totals: list[int] = field(default_factory=lambda: [0, 0, 0, 0], init=False)
    # a base read from a snapshot entry: the entry's head, which gives each
    # section's span by name, the open entry, and the load set's file names
    _stored: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    # -- queries -------------------------------------------------------------

    def __contains__(self, concept: str) -> bool:
        return concept in self.ontology

    def assertions_about(self, concept: str) -> tuple[Assertion, ...]:
        """All loaded assertions whose first argument is the concept, in file order."""
        if concept not in self.ontology:
            raise UnknownConcept(f"unknown concept {concept!r}")
        return tuple(a for a, _, _ in self._sites.get(concept, ()))

    def sites_about(self, concept: str) -> tuple[tuple[Assertion, str, int], ...]:
        """``assertions_about`` with the file and line of each assertion; empty
        for a concept the base does not know."""
        return tuple(self._sites.get(concept, ()))

    def _read(self, name):
        """The value of the stored section ``name``; None for a parsed base,
        which stores none."""
        span = self._stored.get(name)
        return None if span is None else marshal.loads(self._stored["payload"][span[0]:span[1]])

    @cached_property
    def diagnostics(self) -> list[Diagnostic]:
        """Every load diagnostic, in load order; a base read from a snapshot
        entry decodes them on first read, which only ``validate`` makes."""
        stored = self._read("diagnostics")
        return [] if stored is None else self._decode_diagnostics(stored)

    @cached_property
    def errors(self) -> list[Diagnostic]:
        """The error diagnostics, in load order, to be read and not changed: a
        command checks these alone, so a base read from a snapshot entry
        decodes them from a section of their own, normally empty."""
        stored = self._read("errors")
        if stored is None:
            return [d for d in self.diagnostics if d.severity == ERROR]
        return self._decode_diagnostics(stored)

    def _decode_diagnostics(self, stored) -> list[Diagnostic]:
        files = self._stored["files"]
        return [Diagnostic(files[file], *d) for file, *d in stored]

    @cached_property
    def _census(self) -> list[CensusRow]:
        """The census rows, one per script, by name; a base read from a
        snapshot entry decodes them on first read."""
        stored = self._read("census")
        return [] if stored is None else [CensusRow(*row) for row in stored]

    @cached_property
    def blocks(self) -> list[ObjectBlock]:
        """The blocks as parsed, a concept's blocks together; a base read from
        a snapshot entry decodes them, and the list of their spans, on first
        read."""
        spans = self._read("blocks")
        return [] if spans is None else decode_blocks(
            self._stored["payload"], spans, self._stored["files"], self._field_assertions)

    @cached_property
    def _sites(self) -> dict[str, list[tuple[Assertion, str, int]]]:
        """Each subject's ``(assertion, file, line)`` sites in load order, built
        on first use: only script checks read positions."""
        sites: dict[str, list[tuple[Assertion, str, int]]] = {}
        for block in self.blocks:
            file = block.file
            # parsed blocks hold one line per assertion
            for a, line in zip(block.assertions, block.assertion_lines):
                if a.args and isinstance(a.args[0], str):
                    sites.setdefault(a.args[0], []).append((a, file, line))
        return sites

    def script_concepts(self) -> list[str]:
        """Concepts with at least one event assertion, sorted by name."""
        return list(self._scripts)

    @cached_property
    def index(self) -> ScriptIndex:
        """The script index, built or, from a snapshot entry, decoded on first
        use: loading and the queries that need no map never pay for it."""
        stored = self._read("index")
        return self._build_index() if stored is None else ScriptIndex(*stored)

    def _build_index(self) -> ScriptIndex:
        """The script index from each script's recorded field assertions, read
        as ``mention_set(build_script(...))`` would read them, with no script
        view: a role's first value wins, goto events are left out, and the
        other events give every symbol inside them."""
        by_mention: dict[str, list[str]] = {}
        by_role: dict[str, list[str]] = {}
        for name in self._scripts:  # sorted, so each script list is too
            roles: dict[int, str] = {}
            mentions: set[str] = set()
            for a in self._field_assertions[name]:
                spec = FIELDS[a.predicate]
                if spec.attr == "events":
                    if goto_target(a.args[1]) is None:
                        mentions.update(term_symbols(a.args[1]))
                elif spec.attr == "roles":
                    roles.setdefault(spec.index, a.args[1])
                elif spec.attr == "places":
                    mentions.add(a.args[1])
            mentions.update(roles.values())
            for concept in mentions:
                by_mention.setdefault(concept, []).append(name)
            for concept in dict.fromkeys(roles.values()):
                by_role.setdefault(concept, []).append(name)
        return ScriptIndex(by_mention, by_role)

    # -- loading -------------------------------------------------------------

    @classmethod
    def from_texts(cls, named_texts) -> "KnowledgeBase":
        """Build a base from (name, text) pairs, merged in order."""
        kb = cls()
        tables = ({}, {}, {})  # predicates, symbol arguments, na and measures
        with collector_paused():
            kb._assemble([_parse_database(text, str(name), *tables)
                          for name, text in named_texts])
        return kb

    @classmethod
    def from_paths(cls, paths) -> "KnowledgeBase":
        """Build a base from files, merged in order, as ``from_texts`` builds
        it from their decoded bytes, or decode it from the load set's snapshot
        entry (``parsecache``).  Reading a file raises ``OSError``, and a file
        that is not UTF-8 raises a ``KbError`` naming it."""
        files = [str(p) for p in paths]
        with collector_paused():
            sources = Sources(files)
            stored = sources.read()
            if stored is not None:
                return cls._from_snapshot(*stored, files)
            kb = cls.from_texts(sources.texts())
            sources.write(partial(kb._snapshot, files))
        return kb

    def _snapshot(self, files: list[str], section):
        """The head of the base's snapshot entry: each section's span by name,
        of the sections that ``section`` writes, one table at a time: the
        lexicon a table per language and kind, then each subject's field
        assertions, the index, each block, and the list of the blocks'
        spans.  Each file is stored as its index in ``files``."""
        at = {name: i for i, name in reversed(list(enumerate(files)))}

        def diagnostics(ds):
            return section([(at[d.file], d.line, d.col, d.severity, d.code, d.message)
                            for d in ds])

        parents, *lexicon = self.ontology.tables()
        return {"parents": section(parents),
                "scripts": section((list(self._scripts), self._census_totals)),
                "grids": section([(g.name, g.rows, g.legend, g.extended_keys, g.line,
                                   at[g.file]) for g in self.grids.values()]),
                "errors": diagnostics(self.errors),
                "diagnostics": diagnostics(self.diagnostics),
                "census": section([(r.script, r.subevents, r.roles, r.places, r.other)
                                   for r in self._census]),
                "lexicon": [{lang.value: section(table[lang]) for lang in Language}
                            for table in lexicon],
                "fields": {subject: section(list(map(encode_assertion, assertions)))
                           for subject, assertions in self._field_assertions.items()
                           if assertions},
                "index": section(tuple(self.index)),
                "blocks": section(encode_blocks(self.blocks, self._field_assertions, at,
                                                section))}

    @classmethod
    def _from_snapshot(cls, head, payload, files: list[str]) -> "KnowledgeBase":
        """The base of a snapshot entry: its hierarchy, script names, census
        totals and grids decoded now, each other section when first read."""
        kb = cls()
        kb._stored.update(head, payload=payload, files=files)
        init = partial(object.__setattr__, kb)
        init("ontology", Ontology.from_tables(kb._read("parents"), *(
            SectionTable(payload, {Language(name): span for name, span in spans.items()})
            for spans in head["lexicon"])))
        names, totals = kb._read("scripts")
        init("_scripts", dict.fromkeys(names))
        init("_census_totals", totals)
        init("grids", {name: Grid(name, rows, legend, keys, line, files[file])
                       for name, rows, legend, keys, line, file in kb._read("grids")})
        init("_field_assertions", SectionTable(payload, head["fields"], decode_assertions))
        return kb

    def _merge_blocks(self, results: list[ParseResult]) -> None:
        """Append the parsed blocks to ``blocks``, a later block of a concept
        right after the earlier ones, each keeping its own file and lines."""
        by_concept: dict[str, list[ObjectBlock]] = {}
        for r in results:
            for block in r.blocks:
                same = by_concept.setdefault(block.concept, [])
                if same:
                    self.diagnostics.append(Diagnostic(
                        block.file, block.line, 1, WARNING, "DuplicateBlock",
                        f"duplicate Object block for {block.concept!r}; "
                        f"assertions appended"))
                same.append(block)
        for same in by_concept.values():
            self.blocks.extend(same)

    def _assemble(self, results: list[ParseResult]) -> None:
        mentioned: dict[str, tuple[str, int]] = {}  # -> first (file, line), in load order
        for r in results:
            self.diagnostics.extend(r.diagnostics)
            for sym, line in r.first_mentions.items():
                mentioned.setdefault(sym, (r.file, line))

        self._merge_blocks(results)

        for r in results:
            for src in r.grid_sources:
                try:
                    grid, gdiags = parse_grid(src.text, filename=src.file, line=src.line)
                except MalformedHeader as e:
                    self.diagnostics.append(Diagnostic(
                        src.file, e.line or src.line, e.col or 1, ERROR,
                        "MalformedHeader", e.message))
                    continue
                self.diagnostics.extend(gdiags)
                if grid.name in self.grids:
                    self.diagnostics.append(Diagnostic(
                        src.file, src.line, 1, WARNING, "DuplicateGrid",
                        f"grid {grid.name!r} defined again; last definition wins"))
                self.grids[grid.name] = grid

        # one pass over the assertions: ako links (from anywhere in the files),
        # each subject's field assertions and census counts, and the first goto
        # of each script's event group; a field's argument type and census
        # column come from its predicate's FIELDS entry
        ako_parents: dict[str, list[str]] = {}
        field_assertions = self._field_assertions
        counts: dict[str, list[int]] = {}  # subject -> [events, roles, places, other]
        gotos: dict[tuple[str, int], tuple[int, str, int]] = {}  # -> target, file, line
        for block in self.blocks:
            file = block.file
            # parsed blocks hold one line per assertion
            for a, line in zip(block.assertions, block.assertion_lines):
                args = a.args
                if not (args and isinstance(args[0], str)):
                    continue
                subject = args[0]
                spec = FIELDS.get(a.predicate)
                if spec is not None:
                    if len(args) < 2 or not isinstance(args[1], spec.arg_type):
                        self.diagnostics.append(Diagnostic(
                            file, line, 1, ERROR, "MalformedField", malformed(a, spec)))
                        continue
                    # a malformed field is left out of the view, so it is not counted
                    # and a malformed event makes no script
                    own = counts.get(subject)
                    if own is None:
                        own = counts[subject] = [0, 0, 0, 0]
                        field_assertions[subject] = [a]
                    else:
                        field_assertions[subject].append(a)
                    own[spec.column] += 1
                    event = args[1]
                    # only a [goto ...] event can restart a timeline
                    if spec.attr == "events" and isinstance(event, Assertion) \
                            and event.predicate == GOTO:
                        target = goto_target(event)
                        if target is not None:
                            gotos.setdefault((subject, spec.index), (target, file, line))
                elif a.predicate == AKO:
                    for parent in args[1:]:
                        if isinstance(parent, str):
                            ako_parents.setdefault(subject, []).append(parent)
                        else:
                            self.diagnostics.append(Diagnostic(
                                file, line, 1, WARNING, "BadAkoArgument",
                                f"ignoring non-symbol ako argument in {a.render()}"))
        totals = self._census_totals
        for s in sorted(counts):
            own = counts[s]
            if own[0]:
                self._scripts[s] = None
                self._census.append(CensusRow(s, *own))
                for column, n in enumerate(own):
                    totals[column] += n
        for (subject, group), (target, file, line) in gotos.items():
            # a malformed event is left out of the field assertions, so it cannot
            # be a target
            groups = {FIELDS[b.predicate].index for b in self._field_assertions[subject]
                      if b.predicate in EVENT_PREDICATES}
            if target not in groups:
                self.diagnostics.append(Diagnostic(
                    file, line, 1, ERROR, "BadGotoTarget",
                    f"goto in group {group:02d} targets missing group {target:02d}"))
        for grid in self.grids.values():
            for sym in (grid.name, *grid.legend.values(), *grid.extended_keys.values()):
                mentioned.setdefault(sym, (grid.file, grid.line))

        ontology = self.ontology
        if ROOT not in ontology:
            ontology.add_concept(ROOT)
        for block in self.blocks:
            if block.concept not in ontology:
                ontology.add_concept(block.concept, ako_parents.get(block.concept, ()))
            if block.lexicon:  # a link needs its concept registered, nothing more
                ontology.link_lexicon(block.concept, block.lexicon)

        for sym, (file, line) in mentioned.items():
            if sym not in ontology:
                parents = ako_parents.get(sym, ())
                base = instance_base(sym)
                # an instance without parents of its own hangs below its base
                if base and set(parents) <= {ROOT} and (base in ontology or base in mentioned):
                    parents = (base,)
                try:
                    ontology.add_concept(sym, parents)
                except KbError:
                    # grid names and legend values are free-form text; a name
                    # the hierarchy cannot hold is reported, not registered
                    self.diagnostics.append(Diagnostic(
                        file, line, 1, ERROR, "InvalidConceptName",
                        f"cannot register concept named {sym!r}"))
                    continue
                if sym not in STRUCTURAL:
                    self.diagnostics.append(Diagnostic(
                        file, line, 1, WARNING, "AutoRegistered",
                        f"undeclared concept {sym!r} registered under {ROOT!r}"))

        ontology.resolve()
