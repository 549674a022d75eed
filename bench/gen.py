"""Seeded generator of synthetic script knowledge bases.

The generator writes a base shaped like the bundled fixtures and keeps its
own records of what it wrote.  The oracle reads those records, never the
package under test.  The same seed and size give byte-identical files.

Names and phrases are pseudo-words, so they never collide with the
fixtures or with English stop words:

* lexicon words are three consonant-vowel syllables (``kalomi``);
* event verbs and states are two two-syllable words (``pazo-kite``);
* filler words in sentences are consonant-vowel-consonant and never end
  in ``s``, ``d`` or ``g``, so the suffix-stripping fallback never fires
  on them.

A base holds a multi-parent object taxonomy up to seven levels deep, a
taxonomy of activity classes, places, and scripts.  Scripts have 2-6
roles, optional role scripts, 3-12 events with simultaneous groups,
nested assertions and some trailing ``goto``, plus entry conditions,
results, goals, emotions, places and measures.  Measures are sometimes
set only on an ancestor class.  The files also carry comments, HTML
entities, continuation lines, duplicate ``Object`` blocks across files,
undeclared symbols and grids named after place instances (``kalomi3``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

ROOT = "concept"
CONS = "bdfgklmnprtvz"
VOWELS = "aeiou"
FR_VOWELS = "aeiouéèàôù"
FILLER_END = "mnktpblrvz"
EN_FUNCTION = ("a", "the", "in", "at", "for", "of", "to")
FR_FUNCTION = ("de", "du", "la", "le", "au", "en")
ENTITIES = {"é": "&eacute;", "è": "&egrave;", "à": "&agrave;", "ô": "&ocirc;",
            "ù": "&ugrave;"}

# phrase lengths in tokens, weighted after the fixtures: objects are mostly
# one or two words, scripts are verb phrases of two to seven words
OBJECT_LENGTHS = {1: 50, 2: 30, 3: 12, 4: 5, 5: 1.5, 6: 1, 7: 0.5}
SCRIPT_LENGTHS = {2: 30, 3: 30, 4: 25, 5: 7, 6: 5, 7: 3}
CLASS_LENGTHS = {1: 50, 2: 35, 3: 15}

DURATIONS = (60, 300, 600, 1800, 3600, 5400, 7200, 28800, 86400)
PERIODS = (86400, 604800, 2592000, 31536000, 157680000)
COSTS = ("0.33", "1.5", "15", "30", "200", "1200", "2.5e3", "12.75")
UNITS = ("second", "USD", "in")


@dataclass(frozen=True)
class Measure:
    unit: str
    text: str


@dataclass
class Concept:
    """Everything the base says about one declared concept, blocks merged."""

    name: str
    kind: str  # object, class, place or script
    level: int
    parents: list = field(default_factory=list)
    en: list = field(default_factory=list)
    fr: list = field(default_factory=list)
    roles: dict = field(default_factory=dict)
    role_scripts: dict = field(default_factory=dict)
    events: list = field(default_factory=list)  # (index, term) in file order
    entry: list = field(default_factory=list)
    results: list = field(default_factory=list)
    goals: list = field(default_factory=list)
    emotions: list = field(default_factory=list)
    places: list = field(default_factory=list)
    duration: Measure | None = None
    period: Measure | None = None
    cost: Measure | None = None
    size: Measure | None = None


@dataclass
class Grid:
    name: str
    rows: list
    legend: dict


@dataclass
class Base:
    """Records of one generated base and the files it was written to."""

    seed: int
    concepts: dict = field(default_factory=dict)  # name -> Concept, first-block order
    grids: dict = field(default_factory=dict)
    files: list = field(default_factory=list)  # relative paths, load order
    filler_en: tuple = ()
    filler_fr: tuple = ()
    broken: dict = field(default_factory=dict)  # path, errors [(line, code)]
    rules: dict = field(default_factory=dict)  # rules path, events path, forms

    @property
    def scripts(self) -> list:
        return sorted(n for n, c in self.concepts.items() if c.events)

    def lines_and_bytes(self, root: Path) -> tuple[int, int]:
        lines = size = 0
        for rel in self.files:
            data = (root / rel).read_bytes()
            lines += data.count(b"\n")
            size += len(data)
        return lines, size


# -- terms ---------------------------------------------------------------------
# A term is a symbol (str), None for ``na``, or a tuple (predicate, *args).


def render(term) -> str:
    if term is None:
        return "na"
    if isinstance(term, tuple):
        return "[" + " ".join([term[0]] + [render(a) for a in term[1:]]) + "]"
    return term


def render_measure(m: Measure) -> str:
    return f"NUMBER:{m.unit}:{m.text}"


class _Namer:
    def __init__(self, rng: random.Random):
        self.rng = rng
        self.used: set[str] = set()

    def word(self, syllables=3, vowels=VOWELS) -> str:
        rng = self.rng
        while True:
            w = "".join(rng.choice(CONS) + rng.choice(vowels) for _ in range(syllables))
            if w not in self.used:
                self.used.add(w)
                return w

    def pair(self) -> str:
        return f"{self.word(2)}-{self.word(2)}"

    def phrase(self, ntok: int, french=False) -> str:
        rng = self.rng
        vowels = FR_VOWELS if french else VOWELS
        function = FR_FUNCTION if french else EN_FUNCTION
        toks = []
        for i in range(ntok):
            if 0 < i < ntok - 1 and rng.random() < 0.35:
                toks.append(rng.choice(function))
            else:
                toks.append(self.word(3, vowels))
        return " ".join(toks)

    def filler(self, n: int) -> tuple:
        rng = self.rng
        out: set[str] = set()
        while len(out) < n:
            out.add(rng.choice(CONS) + rng.choice(VOWELS) + rng.choice(FILLER_END))
        return tuple(sorted(out))


def _quota(rng, n, values) -> list:
    """``n`` values cycling through ``values``, in seeded order."""
    out = [values[i % len(values)] for i in range(n)]
    rng.shuffle(out)
    return out


def _weighted(rng, table) -> int:
    keys = list(table)
    return rng.choices(keys, weights=[table[k] for k in keys])[0]


def _number_text(rng, value) -> str:
    """Plain, decimal or scientific spelling of a number."""
    r = rng.random()
    if r < 0.6:
        return str(value)
    if r < 0.85:
        mantissa, exp = f"{float(value):.6e}".split("e")
        mantissa = mantissa.rstrip("0").rstrip(".")
        return f"{mantissa}e{exp[0]}{exp[1:]}"
    return f"{value}.0" if isinstance(value, int) else str(value)


def _measure(rng, natural_unit, values) -> Measure:
    unit = natural_unit if rng.random() < 0.9 else rng.choice(UNITS)
    value = rng.choice(values)
    text = value if isinstance(value, str) else _number_text(rng, value)
    return Measure(unit, text)


class _Maker:
    def __init__(self, seed: int, n_scripts: int):
        self.rng = random.Random(seed)
        self.names = _Namer(self.rng)
        self.n = n_scripts
        self.base = Base(seed)
        self.order: list[str] = []  # declaration order

    # -- concepts ----------------------------------------------------------

    def concept(self, kind, level, parents, lengths) -> Concept:
        rng = self.rng
        main = self.names.phrase(_weighted(rng, lengths))
        name = main.replace(" ", "-")
        c = Concept(name, kind, level, list(parents), [main])
        for _ in range(rng.choice((0, 0, 1, 2))):
            c.en.append(self.names.phrase(_weighted(rng, OBJECT_LENGTHS)))
        if rng.random() < 0.4:
            c.fr = [self.names.phrase(_weighted(rng, OBJECT_LENGTHS), french=True)
                    for _ in range(rng.choice((1, 1, 2)))]
        self.base.concepts[name] = c
        self.order.append(name)
        return c

    def taxonomy(self, kind, n, max_level, tops, lengths) -> list[Concept]:
        rng = self.rng
        nodes = [self.concept(kind, 1, [ROOT], lengths) for _ in range(tops)]
        while len(nodes) < n:
            parent = rng.choice([x for x in nodes if x.level < max_level])
            level = parent.level + 1
            parents = [parent.name]
            if rng.random() < 0.25:
                other = rng.choice(nodes)
                if other.level < level and other.name != parent.name:
                    parents.append(other.name)
            nodes.append(self.concept(kind, level, parents, lengths))
        return nodes

    # -- scripts -----------------------------------------------------------

    def build(self) -> Base:
        rng, names, n = self.rng, self.names, self.n
        objects = self.taxonomy("object", max(40, n), 7, 6, OBJECT_LENGTHS)
        classes = self.taxonomy("class", max(8, n // 10), 5, 3, CLASS_LENGTHS)
        places = self.taxonomy("place", max(6, n // 20), 3, 2, CLASS_LENGTHS)
        for c in classes:
            if rng.random() < 0.3:
                c.duration = _measure(rng, "second", DURATIONS)
            if rng.random() < 0.3:
                c.period = _measure(rng, "second", PERIODS)
            if rng.random() < 0.3:
                c.cost = _measure(rng, "USD", COSTS)
            if rng.random() < 0.2:
                c.places = [rng.choice(places).name]
        for c in objects:
            if rng.random() < 0.1:
                c.size = Measure("in", rng.choice(("0.25", "1.5", "12", "3.5e1")))

        verbs = [names.pair() for _ in range(max(20, n // 4))]
        states = [names.pair() for _ in range(max(10, n // 10))]
        emotions = [names.pair() for _ in range(12)]
        loose = [names.pair() for _ in range(max(10, n // 10))]  # undeclared objects
        role_pool = [o for o in objects if 2 <= o.level <= 5] or objects
        instances: list[str] = []
        for p in rng.sample(places, min(len(places), max(2, n // 100))):
            instances.append(f"{p.name}{rng.randint(1, 9)}")
        instances = list(dict.fromkeys(instances))

        # structure comes from fixed quotas in seeded order, so every seed
        # gives a base of the same total size
        shape = {key: _quota(rng, n, values) for key, values in (
            ("parents", (1, 1, 1, 1, 1, 1, 2, 2, 0)), ("roles", (2, 3, 4, 5, 6)),
            ("role_script", (1, 0, 0, 0, 0)), ("events", tuple(range(3, 13))),
            ("goto", (1, 0, 0, 0)), ("entry", (0, 0, 1, 2)), ("results", (0, 1, 1, 2)),
            ("goals", (0, 1, 2)), ("emotions", (0, 0, 1, 2)), ("places", (0, 1, 1, 1, 2, 3)),
            ("duration", (1, 0)), ("period", (1, 0)), ("cost", (1, 0, 1, 0, 0)))}
        scripts: list[Concept] = []
        for i in range(n):
            if scripts and not shape["parents"][i]:
                parents = [rng.choice(scripts).name]
            else:
                parents = [c.name for c in rng.sample(classes, shape["parents"][i] or 1)]
            level = 1 + max(self.base.concepts[p].level for p in parents)
            s = self.concept("script", level, parents, SCRIPT_LENGTHS)
            roles = [o.name for o in rng.sample(role_pool, shape["roles"][i])]
            s.roles = {k + 1: r for k, r in enumerate(roles)}
            if scripts and shape["role_script"][i]:
                s.role_scripts = {rng.randint(1, len(roles)): rng.choice(scripts).name}
            s.events = self.events(shape["events"][i], shape["goto"][i], roles, verbs,
                                   objects, loose)
            s.entry = [(rng.choice(states), rng.choice(roles))
                       for _ in range(shape["entry"][i])]
            s.results = [(rng.choice(states), rng.choice(roles))
                         for _ in range(shape["results"][i])]
            s.goals = [(rng.choice(states), rng.choice(roles))
                       for _ in range(shape["goals"][i])]
            s.emotions = [(rng.choice(emotions), roles[0])
                          for _ in range(shape["emotions"][i])]
            s.places = [p.name for p in rng.sample(places, shape["places"][i])]
            if s.places and instances and rng.random() < 0.1:
                s.places[-1] = rng.choice(instances)
            if shape["duration"][i]:
                s.duration = _measure(rng, "second", DURATIONS)
            if shape["period"][i]:
                s.period = _measure(rng, "second", PERIODS)
            if shape["cost"][i]:
                s.cost = _measure(rng, "USD", COSTS)
            scripts.append(s)

        self.ambiguity(objects, scripts)
        self.extensions(objects)
        self.grid_records(objects, instances)
        self.base.filler_en = names.filler(40)
        self.base.filler_fr = tuple(f"{w}é" for w in names.filler(20))
        return self.base

    def events(self, count, goto, roles, verbs, objects, loose) -> list:
        rng = self.rng
        out = []
        index = 0
        while len(out) < count:
            index += 1
            width = 2 if rng.random() < 0.2 and count - len(out) >= 2 else 1
            for _ in range(width):
                args = [rng.choice(roles)]
                for _ in range(rng.choice((0, 1, 1, 2))):
                    r = rng.random()
                    if r < 0.15:
                        args.append(None)
                    elif r < 0.25:
                        args.append(rng.choice(loose))
                    elif r < 0.32:
                        args.append(rng.choice(objects).name)
                    elif r < 0.42:
                        args.append((rng.choice(verbs), rng.choice(roles)))
                    else:
                        args.append(rng.choice(roles))
                out.append((index, (rng.choice(verbs), *args)))
        if goto:
            out.append((index + 1, ("goto", f"event{rng.randint(1, index - 1):02d}-of")))
        return out

    def ambiguity(self, objects, scripts) -> None:
        """Give about 3% of concepts a phrase another concept already has."""
        rng = self.rng
        pool = objects + scripts
        for c in rng.sample(pool, max(2, len(pool) // 33)):
            donor = rng.choice(pool)
            if donor is not c and donor.en[0] not in c.en:
                c.en.append(donor.en[0])

    def extensions(self, objects) -> None:
        """Long phrases that extend a shorter phrase, as in the fixtures'
        'mail a letter at the post office' over 'mail a letter'."""
        rng = self.rng
        for c in rng.sample(objects, max(2, len(objects) // 40)):
            stem = rng.choice(objects).en[0]
            ntok = len(stem.split())
            if ntok > 3:
                continue
            extra = [rng.choice(EN_FUNCTION)]
            extra += [self.names.word() for _ in range(rng.randint(5 - ntok, 7 - ntok) - 1)]
            c.en.append(" ".join([stem] + extra))

    def grid_records(self, objects, instances) -> None:
        rng = self.rng
        for name in instances:
            keys = rng.sample("abcdefghjkmnpqrtuvwxyz", rng.randint(3, 6))
            legend = {k: rng.choice(objects).name for k in keys}
            height = rng.randint(len(keys), len(keys) + 3)
            width = rng.randint(8, 14)
            rows = []
            for _ in range(height):
                cells = [rng.choice(keys)]
                for _ in range(width - 1):
                    r = rng.random()
                    cells.append(" " if r < 0.3 else "#" if r < 0.34 else rng.choice(keys))
                rows.append("".join(cells))
            self.base.grids[name] = Grid(name, rows, legend)


# -- writing -------------------------------------------------------------------


class _Writer:
    def __init__(self, rng: random.Random):
        self.rng = rng

    def entity(self, phrase: str) -> str:
        if self.rng.random() < 0.3:
            return "".join(ENTITIES.get(ch, ch) for ch in phrase)
        return phrase

    def lexicon(self, en, fr) -> list[str]:
        rng = self.rng
        sections = []
        if en:
            sections.append("[English] " + ", ".join(en))
        if fr:
            sections.append("[French] " + ", ".join(self.entity(p) for p in fr))
        if len(sections) == 2 and rng.random() < 0.5:
            sections = ["; ".join(sections)]
        return self.continued(sections)

    def continued(self, lines) -> list[str]:
        """Break some lines after a comma, continuing on the next line."""
        out = []
        for line in lines:
            cut = line.rfind(", ")
            if cut > 0 and self.rng.random() < 0.3:
                out += [line[:cut + 1], line[cut + 2:]]
            else:
                out.append(line)
        return out

    def assertion(self, predicate, value) -> list[str]:
        text = f"[{predicate} ^ {value}]"
        if isinstance(value, str) and value.count(" ") >= 2 and self.rng.random() < 0.1:
            cut = text.rfind(" ", 0, len(text) - 3)
            return [text[:cut], "               " + text[cut + 1:]]
        return [text]

    def block(self, c: Concept) -> list[str]:
        rng = self.rng
        out = [f"Object {c.name}"]
        if rng.random() < 0.5:
            out.append("")
        out += self.lexicon(c.en, c.fr)
        for p in c.parents:
            out.append(f"[ako ^ {p}]")
        if rng.random() < 0.05:
            out.append("; hand-checked entry")
        for i, r in c.roles.items():
            out += self.assertion(f"role{i:02d}-of", r)
        for i, s in c.role_scripts.items():
            out += self.assertion(f"role{i:02d}-script-of", s)
        for t in c.entry:
            out += self.assertion("entry-condition-of", render(t))
        for index, t in c.events:
            out += self.assertion(f"event{index:02d}-of", render(t))
        for pred, terms in (("result-of", c.results), ("goal-of", c.goals),
                            ("emotion-of", c.emotions)):
            for t in terms:
                out += self.assertion(pred, render(t))
        for p in c.places:
            out += self.assertion("performed-in", p)
        for pred, m in (("duration-of", c.duration), ("period-of", c.period),
                        ("cost-of", c.cost)):
            if m is not None:
                out += self.assertion(pred, self.measure(m))
        if c.size is not None:
            out.append(f"[size-of ^ {c.size.text}{c.size.unit}]")
        return out

    def measure(self, m: Measure) -> str:
        plain = "e" not in m.text.lower()
        if plain and self.rng.random() < 0.2:
            return f"{m.text}{m.unit}"
        return render_measure(m)


def _split_duplicates(rng, base: Base, names: _Namer) -> dict[str, tuple]:
    """Move part of some concepts into a second block in a later file.

    Returns, per concept, the (phrase, results) the second block carries;
    the records already hold the merged view.
    """
    extra: dict[str, tuple] = {}
    for name in rng.sample(list(base.concepts), max(2, len(base.concepts) // 33)):
        c = base.concepts[name]
        phrase = names.phrase(rng.choice((1, 2)))
        c.en.append(phrase)
        results = []
        if c.events and rng.random() < 0.5:
            results = [c.results[-1]] if c.results else []
        extra[name] = (phrase, results)
    return extra


def _grid_text(g: Grid) -> str:
    lines = [f"=={g.name}//"]
    entries = [f"{k}:{v}" for k, v in g.legend.items()]
    for i, row in enumerate(g.rows):
        lines.append(row + "    " + entries[i] if i < len(entries) else row)
    return "\n".join(lines)


def generate(seed: int, n_scripts: int, out_dir: Path, rel_to: Path,
             files_per_kind: int = 4) -> Base:
    """Generate a base of ``n_scripts`` scripts into ``out_dir``.

    ``rel_to`` is the directory the recorded file paths are relative to.
    """
    maker = _Maker(seed, n_scripts)
    base = maker.build()
    rng = maker.rng
    extra = _split_duplicates(rng, base, maker.names)
    writer = _Writer(rng)
    out_dir.mkdir(parents=True, exist_ok=True)

    def emit(name, chunks, header):
        text = "\n\n".join(["\n".join(header)] + ["\n".join(c) for c in chunks]) + "\n"
        path = out_dir / name
        path.write_text(text, encoding="utf-8")
        base.files.append(str(path.relative_to(rel_to)))

    def blocks(names_):
        out = []
        for name in names_:
            c = base.concepts[name]
            if name in extra:
                # the first block lacks what the duplicate block adds
                phrase, results = extra[name]
                saved = (c.en, c.results)
                c.en = [p for p in c.en if p != phrase]
                c.results = c.results[:len(c.results) - len(results)]
                out.append(writer.block(c))
                c.en, c.results = saved
            else:
                out.append(writer.block(c))
            if rng.random() < 0.03:
                out.append([f"; {name} &amp; related entries"])
        return out

    order = maker.order
    taxonomy = [n for n in order if base.concepts[n].kind != "script"]
    scripts = [n for n in order if base.concepts[n].kind == "script"]
    emit("taxonomy.kb", blocks(taxonomy),
         [f"; Synthetic taxonomy, seed {seed}: objects, activity classes, places."])
    per = -(-len(scripts) // files_per_kind)
    for i in range(files_per_kind):
        part = scripts[i * per:(i + 1) * per]
        if part:
            emit(f"scripts-{i + 1:02d}.kb", blocks(part),
                 [f"; Synthetic scripts, part {i + 1}."])
    dup_chunks = []
    for name, (phrase, results) in extra.items():
        lines = [f"Object {name}", f"[English] {phrase}"]
        lines += [f"[result-of ^ {render(t)}]" for t in results]
        dup_chunks.append(lines)
    emit("extra.kb", dup_chunks,
         ["; Second blocks for concepts declared in other files."])
    emit("grids.kb", [[_grid_text(g)] for g in base.grids.values()],
         ["; Floor plans of place instances."])
    return base


# -- the broken file for validate and the rules file for cyc-extract -----------


def generate_broken(seed: int, out_dir: Path, rel_to: Path) -> dict:
    """A small file with seeded syntax errors; records (line, code) of each."""
    rng = random.Random(seed ^ 0x5EED)
    names = _Namer(rng)
    lines: list[str] = ["; A file with seeded syntax errors."]
    errors: list[tuple[int, str]] = []

    def add(text, code=None):
        lines.append(text)
        if code:
            errors.append((len(lines), code))

    add(f"[ako ^ {names.word()}]", "OrphanContent")
    bad = [
        ("UnknownUnit", lambda: f"[cost-of ^ NUMBER:EUR:{rng.randint(1, 99)}]"),
        ("MalformedNumber", lambda: f"[duration-of ^ NUMBER:second:{names.word(1)}x]"),
        ("MalformedNumber", lambda: f"[duration-of ^ {rng.randint(10, 999)}.5]"),
        ("KbSyntaxError", lambda: f"[{names.word(2)} Capital{names.word(1)}]"),
        ("KbSyntaxError", lambda: f"[Upper{names.word(2)} ^]"),
        ("UnknownLanguage", lambda: f"[German] {names.word()}"),
        ("UnrecognizedLine", lambda: f"{names.word()} is not a line of this format"),
        ("UnbalancedBracket", lambda: f"[ako ^ {names.word()}]]"),
    ]
    for i in range(12):
        add("")
        if i % 4 == 3:
            add(f"Object Bad_{names.word(2)}", "MalformedHeader")
        else:
            add(f"Object {names.word()}")
        add(f"[English] {names.phrase(2)}")
        add(f"[ako ^ {names.word()}]")
        if i % 3 != 2:
            code, make = rng.choice(bad)
            add(make(), code)
        add(f"[event01-of ^ [{names.pair()} {names.word()}]]")
        if i % 5 == 4:
            add(f"[event02-of ^ [{names.pair()} {names.word()}]", "UnbalancedBracket")
    path = out_dir / "broken.kb"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return {"path": str(path.relative_to(rel_to)), "errors": sorted(map(list, errors))}


def generate_rules(seed: int, n_rules: int, out_dir: Path, rel_to: Path) -> dict:
    """Cyc-style rules and their event list, with the tuples each must yield."""
    rng = random.Random(seed ^ 0xC1C)
    names = _Namer(rng)

    def const():
        return names.word(2).capitalize() + names.word(2).capitalize()

    events = [const() for _ in range(max(6, n_rules // 3))]
    types = [const() for _ in range(max(6, n_rules // 3))]
    forms: list[str] = ["; Synthetic event rules."]
    tuples: set[tuple[str, str, str]] = set()
    for i in range(n_rules):
        kind = i % 5
        e, f = rng.sample(events, 2)
        t = rng.choice(types)
        if kind == 0:
            forms.append(f"(=> (and (subEvents ?X ?U) (isa ?U {f}))\n    (isa ?X {e}))")
            tuples.add((e, "subEvents", f))
        elif kind == 1:
            forms.append(f"(=> (isa ?U {t})\n    (actsInCapacity ?U performedBy {e}\n"
                         f"                         JobCapacity))")
            tuples.add((e, "actsInCapacity", t))
        elif kind == 2:
            forms.append(f"(=> (and (isa ?U {e}) (eventOccursAt ?U ?X))\n    (isa ?X {t}))")
            tuples.add((e, "eventOccursAt", t))
        elif kind == 3:
            forms.append(f"(=> (and (isa ?A {e})\n         (subEvents ?B ?A)\n"
                         f"         (eventHonors ?B ?H)\n         (isa ?B {f}))\n"
                         f"    (performedBy ?A ?H))")
            tuples.update({(e, "Other", "other"), (f, "Other", "other")})
        else:
            forms.append(f"; duration only\n(=> (isa ?X {e})\n"
                         f"         (duration ?X (HoursDuration 0.5 {rng.randint(1, 9)})))")
            tuples.add((e, "Other", "other"))
    rules = out_dir / "rules.txt"
    rules.write_text("\n\n".join(forms) + "\n", encoding="utf-8")
    known = out_dir / "events.txt"
    known.write_text("# Known event constants.\n" + "\n".join(events) + "\n",
                     encoding="utf-8")
    return {"rules": str(rules.relative_to(rel_to)),
            "events": str(known.relative_to(rel_to)),
            "known": sorted(events), "tuples": sorted(tuples)}
