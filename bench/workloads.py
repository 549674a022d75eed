"""Seeded op cycles for the three workloads, each op with its expected output.

A workload is a fixed cycle of ops that the worker repeats.  Every cycle
has the same mix by construction (fixed quotas per kind), so a seed
changes which scripts, phrases and sentences are used but not how many of
each kind, and the kinds come in the same order for every seed.

* ``cli``: in-process ``scriptkb.cli.run`` calls on a base of about 500
  scripts plus the bundled fixtures; every call loads the whole base.
* ``recognize``: ``score_scripts(activate(text, kb), kb)`` on about 2k
  scripts loaded once.
* ``ask``: ``answer(kb, parse_question(kb, q))`` plus timelines and the
  census on a base of the same shape.
"""

from __future__ import annotations

import random
from pathlib import Path

from gen import generate, generate_broken, generate_rules
from oracle import (PER_SCRIPT_KINDS, TEMPLATES, WHOLE_BASE_KINDS, CliOracle, Oracle,
                    fixture_census)

SIZES = {"cli": 500, "recognize": 2000, "ask": 2000}
FIXTURES = ("src/scriptkb/data/core.kb", "src/scriptkb/data/scripts.kb",
            "src/scriptkb/data/demo.kb")
EN_FILLER = ("and", "then", "we", "with", "so", "very")
FR_FILLER = ("et", "puis", "avec", "nous", "très")
SUFFIXES = ("s", "es", "ed", "ing")
MAX_NGRAM = 4  # the recognizer's documented n-gram limit, for labelling causes


def _interleave(ops: list[dict]) -> list[dict]:
    """Put the ops, built in a fixed order of kinds, into an order that is
    the same for every seed, so that every seed runs the same sequence of op
    kinds and only the scripts, phrases and sentences differ."""
    random.Random(len(ops)).shuffle(ops)
    return ops


def build(workload: str, seed: int, work: Path, root: Path, scripts: int | None = None):
    """Generate the base for a workload under ``work`` and return its spec:
    load paths, the op cycle with expected outputs, and base records."""
    n = scripts or SIZES[workload]
    base = generate(seed, n, work / "base", root, files_per_kind=4 if n <= 500 else 8)
    rng = random.Random(seed * 7919 + 17)
    if workload == "cli":
        base.broken = generate_broken(seed, work, root)
        base.rules = generate_rules(seed, max(20, n // 5), work, root)
        fixtures = [f for f in FIXTURES if (root / f).exists()]
        oracle = Oracle(base, fixture_census([root / f for f in fixtures]))
        paths = fixtures + base.files
        ops = _cli_ops(rng, oracle, paths)
    else:
        oracle = Oracle(base)
        paths = base.files
        ops = _recognize_ops(rng, oracle) if workload == "recognize" else _ask_ops(rng, oracle)
    return {"workload": workload, "seed": seed, "paths": paths, "ops": ops}, base


# -- sentences -------------------------------------------------------------------


def _children(oracle: Oracle) -> dict[str, list[str]]:
    children: dict[str, list[str]] = {}
    for c in oracle.concepts.values():
        for p in c.parents:
            children.setdefault(p, []).append(c.name)
    return children


def _descendants(children, name) -> list[str]:
    out, stack = [], [name]
    while stack:
        for child in children.get(stack.pop(), ()):
            if child not in out:
                out.append(child)
                stack.append(child)
    return out


class _Sentences:
    def __init__(self, rng: random.Random, oracle: Oracle):
        self.rng = rng
        self.o = oracle
        self.children = _children(oracle)

    def candidates(self, script: str, lang: str) -> list[tuple[str, str]]:
        """(concept, phrase) pairs whose activation supports ``script``:
        phrases of mentioned concepts and of their descendants."""
        out = []
        for m in sorted(self.o.mentions[script]):
            if m not in self.o.concepts:
                continue
            for c in [m] + _descendants(self.children, m)[:6]:
                concept = self.o.concepts[c]
                for p in (concept.en if lang == "English" else concept.fr):
                    out.append((c, p))
        return out

    def make(self, script, nphr, lang, long_, inflect):
        """Return (text, spans) or None when the script lacks such phrases."""
        rng = self.rng
        cands = self.candidates(script, lang)
        short = [cp for cp in cands if len(cp[1].split()) <= MAX_NGRAM]
        longs = [cp for cp in cands if len(cp[1].split()) > MAX_NGRAM]
        singles = [cp for cp in short if " " not in cp[1]]
        if not short or (long_ and not longs) or (inflect and not singles):
            return None
        picks = [rng.choice(short) for _ in range(nphr)]
        slots = list(range(nphr))
        rng.shuffle(slots)
        if long_:
            picks[slots.pop()] = rng.choice(longs)
        forms = [None] * nphr
        if inflect:
            i = slots.pop()
            picks[i] = rng.choice(singles)
            forms[i] = picks[i][1] + rng.choice(SUFFIXES)
        filler = list(self.o.base.filler_en if lang == "English" else self.o.base.filler_fr)
        function = EN_FILLER if lang == "English" else FR_FILLER
        tokens: list[tuple[str, int | None]] = []  # (token, index of pick)
        if rng.random() < 0.5:
            tokens.append((rng.choice(function), None))
        for i, (_, phrase) in enumerate(picks):
            if i:
                for _ in range(rng.randint(1, 3)):
                    tokens.append((rng.choice(filler + list(function)), None))
            words = [forms[i]] if forms[i] else phrase.split()
            tokens += [(w, i) for w in words]
        if rng.random() < 0.5:
            tokens.append((rng.choice(filler), None))
        if rng.random() < 0.5:
            first = tokens[0][0]
            tokens[0] = (first[0].upper() + first[1:], tokens[0][1])
        text, starts = "", []
        for tok, _ in tokens:
            if text:
                text += " "
            starts.append(len(text))
            text += tok
        text += "."
        spans = []
        for i, (_, phrase) in enumerate(picks):
            idx = [k for k, (_, owner) in enumerate(tokens) if owner == i]
            first, last = idx[0], idx[-1]
            spans.append((lang, phrase, starts[first], starts[last] + len(tokens[last][0])))
        return text, spans


def _recognize_ops(rng, oracle: Oracle, n=50) -> list[dict]:
    sent = _Sentences(rng, oracle)
    scripts = oracle.scripts
    ops = []
    for i in range(n):  # the shape of op i depends on i alone, not on the seed
        lang = "French" if i % 10 == 0 else "English"
        gen = i % 10 != 5
        long_ = i % 12 == 3
        inflect = i % 5 == 2
        made = None
        while made is None:
            script = rng.choice(scripts)
            made = sent.make(script, 1 + i % 4, lang, long_, inflect)
        text, spans = made
        ops.append({"kind": "recognize", "text": text, "language": lang,
                    "generalization": gen, "long": long_, "target": script,
                    "expect": oracle.recognize(spans, gen)})
    return _interleave(ops)


# -- questions -------------------------------------------------------------------


def _question(rng, oracle: Oracle, kind: str) -> tuple[str, str]:
    if kind in PER_SCRIPT_KINDS:
        c = oracle.concepts[rng.choice(oracle.scripts)]
    else:
        users = sorted(m for m in oracle.by_mention if m in oracle.concepts
                       and not oracle.concepts[m].events)
        c = oracle.concepts[rng.choice(users)]
    phrase = rng.choice(c.en)
    return TEMPLATES[kind].format(phrase), phrase


def _ask_ops(rng, oracle: Oracle) -> list[dict]:
    ops = []
    for kind in PER_SCRIPT_KINDS * 20 + WHOLE_BASE_KINDS * 20:
        q, phrase = _question(rng, oracle, kind)
        ops.append({"kind": kind, "question": q, "expect": oracle.answer(kind, phrase)})
    looping = [s for s in oracle.scripts
               if any(g[2] is not None for g in oracle.groups(s))]
    for i in range(12):
        s = rng.choice(looping)
        ops.append({"kind": "timeline", "script": s, "limit": 1 + i % 3,
                    "expect": oracle.timeline(s, 1 + i % 3)})
    ops.append({"kind": "census", "expect": oracle.census_rows()})
    ops.append({"kind": "summary", "expect": oracle.summary()})
    return _interleave(ops)


# -- CLI -------------------------------------------------------------------------


def _cli_ops(rng, oracle: Oracle, paths) -> list[dict]:
    cli = CliOracle(oracle)
    kb = [a for p in paths for a in ("--kb", p)]
    ops = []

    def op(command, argv, expect, as_json=False, long_=False):
        ops.append({"kind": command, "argv": kb + (["--json"] if as_json else []) + argv,
                    "expect": expect, "long": long_})

    scripts = oracle.scripts
    s = rng.choice(scripts)
    op("show", ["show", s], {"code": 0, "out": cli.show(s, False)})
    s = rng.choice(scripts)
    op("show", ["show", s], {"code": 0, "out": cli.show(s, True)}, as_json=True)
    looping = [s for s in scripts if any(g[2] is not None for g in oracle.groups(s))]
    s = rng.choice(looping)
    n = rng.randint(1, 3)
    op("timeline", ["timeline", s, "--unroll", str(n)], {"code": 0, "out": cli.timeline(s, n)})

    sent = _Sentences(rng, oracle)
    for lang, gen, long_, as_json in (("English", True, True, False),
                                      ("English", True, False, True),
                                      ("French", False, False, False)):
        made = None
        while made is None:
            made = sent.make(rng.choice(scripts), rng.randint(2, 4), lang, long_, not long_)
        text, spans = made
        argv = ["recognize", text] + (["--language", "French"] if lang == "French" else []) \
            + ([] if gen else ["--no-generalization"])
        expected = oracle.recognize(spans, gen)
        op("recognize", argv, {"code": 0, "out": cli.recognize(expected, as_json)},
           as_json=as_json, long_=long_)

    for i, kind in enumerate(WHOLE_BASE_KINDS + PER_SCRIPT_KINDS):
        q, phrase = _question(rng, oracle, kind)
        a = oracle.answer(kind, phrase)
        as_json = i in (0, 4)
        expect = {"code": 0, "notes": a["notes"]}
        expect["json" if as_json else "out"] = cli.ask(a, as_json)
        op("ask", ["ask", q], expect, as_json=as_json)

    op("stats", ["stats"], {"code": 0, "stats": cli.stats("text")})
    op("stats", ["stats", "--csv"], {"code": 0, "out": cli.stats("csv")})
    for as_json in (False, True):
        name = rng.choice(sorted(oracle.base.grids))
        rows = oracle.grid_rows(name)
        col, row = rng.randrange(len(rows[0])), rng.randrange(len(rows))
        op("grid", ["grid", name, "--at", f"{col},{row}"],
           {"code": 0, "out": cli.grid(name, col, row, as_json)}, as_json=as_json)
    broken = oracle.base.broken
    op("validate", ["validate", broken["path"]],
       {"code": 2, "error_lines": sorted({line for line, _ in broken["errors"]})})
    op("validate", ["validate", broken["path"]],
       {"code": 2, "errors": broken["errors"]}, as_json=True)
    rules = oracle.base.rules
    for as_json in (False, True):
        op("cyc-extract", ["cyc-extract", rules["rules"], "--events", rules["events"]],
           {"code": 0, "out": cli.cyc(as_json)}, as_json=as_json)
    return _interleave(ops)
