"""Spans around the calls into each layer, recorded from outside the package.

:meth:`Tracer.install` rebinds each traced function in every ``scriptkb``
module that holds it (``build_script`` is imported into ``recognizer``,
``qa`` and ``cli``, so all four names are rebound) and wraps the traced
``Ontology`` and ``KnowledgeBase`` methods on their classes.  A span is
(name, start ns, end ns, parent span, op id), kept in one flat integer
array and written out when the run ends.  ``terms`` (``Measure``,
``term_symbols``) is not wrapped: wrapping generators and dunder methods
from outside would time the wrapper, so their cost stays in the self time
of their callers.

Layer names are module names.  Self time is a span's duration minus the
durations of its child spans.
"""

from __future__ import annotations

import re
import statistics
import sys
import time
from array import array
from collections import Counter

QA_KINDS = ("what-does", "used-for", "where-found", "consist-of", "result-of",
            "where-does-one", "how-long", "how-often", "how-much")
TOKEN_RE = re.compile(r"[0-9A-Za-zÀ-ÖØ-öø-ÿ]+(?:['’-][0-9A-Za-zÀ-ÖØ-öø-ÿ]+)*")
HEADER_RE = re.compile(r"^[ \t]*Object(?:[ \t]|$)", re.M)
FIELDS = 5  # name id, start, end, parent span index, op id
LOAD_LAYERS = ("parser.parse_database", "grid.parse_grid", "kb.from_paths",
               "ontology.resolve")

# (unit, better) of every per-layer metric, in report order
METRICS = {
    "parser.parse_database.self_ms": ("ms", "lower"),
    "parser.lines_per_s": ("1/s", "higher"),
    "parser.assertions": ("count", "higher"),
    "parser.blocks_dropped": ("count", "lower"),
    "grid.parse_grid.self_ms": ("ms", "lower"),
    "grid.grids": ("count", "higher"),
    "kb.from_paths.self_ms": ("ms", "lower"),
    "kb.concepts": ("count", "higher"),
    "kb.auto_registered": ("count", "lower"),
    "kb.script_concepts.calls": ("count", "lower"),
    "kb.script_concepts.self_ms": ("ms", "lower"),
    "kb.assertions_about.calls": ("count", "lower"),
    "ontology.resolve.self_ms": ("ms", "lower"),
    "ontology.link_lexeme.calls": ("count", "lower"),
    "ontology.lookup_phrase.calls": ("count", "lower"),
    "ontology.lookup_phrase.hit_ratio": ("ratio", "higher"),
    "ontology.ancestors.calls": ("count", "lower"),
    "ontology.ancestors.self_ms": ("ms", "lower"),
    "ontology.is_a.calls": ("count", "lower"),
    "ontology.is_a.self_ms": ("ms", "lower"),
    "scripts.build_script.calls": ("count", "lower"),
    "scripts.build_script.self_ms": ("ms", "lower"),
    "scripts.is_script.calls": ("count", "lower"),
    "scripts.timeline.self_ms": ("ms", "lower"),
    "scripts.inherited_field.self_ms": ("ms", "lower"),
    "recognizer.activate.self_ms": ("ms", "lower"),
    "recognizer.activate.tokens": ("count", "lower"),
    "recognizer.score_scripts.self_ms": ("ms", "lower"),
    "recognizer.mention_set.calls": ("count", "lower"),
    "recognizer.score_scripts.hit_ratio": ("ratio", "higher"),
    "qa.parse_question.self_ms": ("ms", "lower"),
    **{f"qa.answer.{k}.p50_ms": ("ms", "lower") for k in QA_KINDS},
    "stats.census.self_ms": ("ms", "lower"),
    "stats.census.rows": ("count", "lower"),
    "cli.run.self_ms": ("ms", "lower"),
    "cli.bytes_out": ("count", "lower"),
    "cyc.parse_forms.self_ms": ("ms", "lower"),
    "cyc.extract_all.self_ms": ("ms", "lower"),
    "trace.overhead_ratio": ("ratio", "higher"),
}


# -- counters taken from arguments and results, at the span boundary -------------


def _parsed(tracer, args, kwargs, result):
    text = args[0] if args else kwargs["text"]
    tracer.count("parser.lines", text.count("\n") + 1)
    tracer.count("parser.assertions", sum(len(b.assertions) for b in result.blocks))
    tracer.count("parser.blocks_dropped",
                 len(HEADER_RE.findall(text)) - len(result.blocks))


def _grid(tracer, args, kwargs, result):
    tracer.count("grid.grids", 1)


def _loaded(tracer, args, kwargs, kb):
    declared = {b.concept for b in kb.blocks} | {sys.modules["scriptkb.ontology"].ROOT}
    tracer.count("kb.concepts", len(kb.ontology))
    tracer.count("kb.auto_registered",
                 sum(1 for c in kb.ontology.concepts() if c not in declared))


def _looked_up(tracer, args, kwargs, result):
    tracer.count("ontology.lookup_phrase.hits", int(bool(result)))


def _activated(tracer, args, kwargs, result):
    tracer.count("recognizer.activate.tokens", len(TOKEN_RE.findall(args[0])))


def _scored(tracer, args, kwargs, result):
    tracer.count("recognizer.score_scripts.results", len(result))


def _answered(tracer, args, kwargs, result):
    tracer.kinds[tracer.last] = result.kind.value


def _census(tracer, args, kwargs, result):
    tracer.count("stats.census.rows", len(result))


# layer -> (module, attribute, counter hook); functions are rebound in every
# scriptkb module that holds them
FUNCTIONS = {
    "parser.parse_database": ("scriptkb.parser", "parse_database", _parsed),
    "grid.parse_grid": ("scriptkb.grid", "parse_grid", _grid),
    "scripts.build_script": ("scriptkb.scripts", "build_script", None),
    "scripts.is_script": ("scriptkb.scripts", "is_script", None),
    "scripts.timeline": ("scriptkb.scripts", "timeline", None),
    "scripts.inherited_field": ("scriptkb.scripts", "inherited_field", None),
    "recognizer.activate": ("scriptkb.recognizer", "activate", _activated),
    "recognizer.score_scripts": ("scriptkb.recognizer", "score_scripts", _scored),
    "recognizer.mention_set": ("scriptkb.recognizer", "mention_set", None),
    "qa.parse_question": ("scriptkb.qa", "parse_question", None),
    "qa.answer": ("scriptkb.qa", "answer", _answered),
    "stats.census": ("scriptkb.stats", "census", _census),
    "cli.run": ("scriptkb.cli", "run", None),
    "cyc.parse_forms": ("scriptkb.cyc", "parse_forms", None),
    "cyc.extract_all": ("scriptkb.cyc", "extract_all", None),
}
# layer -> (module, class, method, counter hook); wrapped on the class
METHODS = {
    "kb.from_paths": ("scriptkb.kb", "KnowledgeBase", "from_paths", _loaded),
    "kb.script_concepts": ("scriptkb.kb", "KnowledgeBase", "script_concepts", None),
    "kb.assertions_about": ("scriptkb.kb", "KnowledgeBase", "assertions_about", None),
    "ontology.resolve": ("scriptkb.ontology", "Ontology", "resolve", None),
    "ontology.link_lexeme": ("scriptkb.ontology", "Ontology", "link_lexeme", None),
    "ontology.lookup_phrase": ("scriptkb.ontology", "Ontology", "lookup_phrase", _looked_up),
    "ontology.ancestors": ("scriptkb.ontology", "Ontology", "ancestors", None),
    "ontology.is_a": ("scriptkb.ontology", "Ontology", "is_a", None),
}


class Tracer:
    """Records spans while installed.  ``op`` is the id stamped on new spans;
    op 0 is the load of the base, ops 1..n the traced cycle."""

    def __init__(self):
        self.names: list[str] = []
        self.spans = array("q")
        self.stack: list[int] = []
        self.op = 0
        self.last = -1
        self.counts: Counter = Counter()
        self.kinds: dict[int, str] = {}
        self._patches: list[tuple[object, str, object]] = []

    def count(self, key: str, n: int) -> None:
        self.counts[(key, self.op == 0)] += n

    def _wrap(self, name, fn, hook):
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            i = len(spans)
            spans.extend((nid, 0, 0, stack[-1] if stack else -1, self.op))
            stack.append(i)
            spans[i + 1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[i + 2] = clock()
                stack.pop()
            if hook is not None:
                self.last = i
                hook(self, args[1:] if name in METHODS else args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr) if not isinstance(owner, type)
                              else owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if n == "scriptkb" or n.startswith("scriptkb.")]
        for layer, (modname, attr, hook) in FUNCTIONS.items():
            original = getattr(sys.modules[modname], attr)
            traced = self._wrap(layer, original, hook)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._patch(m, key, traced)
        for layer, (modname, clsname, attr, hook) in METHODS.items():
            cls = getattr(sys.modules[modname], clsname)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                traced = classmethod(self._wrap(layer, raw.__func__, hook))
            else:
                traced = self._wrap(layer, raw, hook)
            self._patch(cls, attr, traced)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    def write(self, path) -> None:
        """Spans as little-endian int64 rows of (name id, start ns, end ns,
        parent row offset or -1, op id); names go in a sidecar file."""
        with open(path, "wb") as f:
            self.spans.tofile(f)
        with open(f"{path}.names", "w", encoding="utf-8") as f:
            f.write("\n".join(self.names) + "\n")

    def metrics(self, n_ops: int) -> dict[str, float]:
        """Per-layer metrics over the spans.

        Load layers are per load (per ``kb.from_paths`` call, op 0
        included); query layers are per op of the traced cycle (ops >= 1);
        size counts (assertions, grids, concepts, auto-registered, lexicon
        links) are totals of the op-0 load of the workload's base.
        """
        a, names = self.spans, self.names
        n = len(a) // FIELDS
        child = [0] * n
        for i in range(0, len(a), FIELDS):
            parent = a[i + 3]
            if parent >= 0:
                child[parent // FIELDS] += a[i + 2] - a[i + 1]
        self_ns: Counter = Counter()
        calls: Counter = Counter()
        all_self: Counter = Counter()
        all_ns: Counter = Counter()
        load_calls: Counter = Counter()
        answers: dict[str, list[int]] = {}
        examined = 0
        score_id = names.index("recognizer.score_scripts")
        mention_id = names.index("recognizer.mention_set")
        for k in range(n):
            i = k * FIELDS
            name = names[a[i]]
            dur = a[i + 2] - a[i + 1]
            own = dur - child[k]
            all_self[name] += own
            all_ns[name] += dur
            if a[i + 4] == 0:
                load_calls[name] += 1
                continue
            self_ns[name] += own
            calls[name] += 1
            if a[i] == mention_id and a[i + 3] >= 0 and a[a[i + 3]] == score_id:
                examined += 1
            if i in self.kinds:
                answers.setdefault(self.kinds[i], []).append(dur)
        loads = load_calls["kb.from_paths"] + calls["kb.from_paths"]
        c = self.counts
        out: dict[str, float] = {}
        for layer in LOAD_LAYERS:
            out[f"{layer}.self_ms"] = all_self[layer] / 1e6 / max(loads, 1)
        parse_s = all_ns["parser.parse_database"] / 1e9
        lines = c[("parser.lines", True)] + c[("parser.lines", False)]
        out["parser.lines_per_s"] = lines / parse_s if parse_s else 0.0
        out["parser.assertions"] = c[("parser.assertions", True)]
        out["parser.blocks_dropped"] = (c[("parser.blocks_dropped", True)]
                                        + c[("parser.blocks_dropped", False)])
        out["grid.grids"] = c[("grid.grids", True)]
        out["kb.concepts"] = c[("kb.concepts", True)]
        out["kb.auto_registered"] = c[("kb.auto_registered", True)]
        out["ontology.link_lexeme.calls"] = load_calls["ontology.link_lexeme"]
        for layer in ("kb.script_concepts", "kb.assertions_about", "ontology.lookup_phrase",
                      "ontology.ancestors", "ontology.is_a", "scripts.build_script",
                      "scripts.is_script", "recognizer.mention_set"):
            out[f"{layer}.calls"] = calls[layer] / n_ops
        for layer in ("kb.script_concepts", "ontology.ancestors", "ontology.is_a",
                      "scripts.build_script", "scripts.timeline", "scripts.inherited_field",
                      "recognizer.activate", "recognizer.score_scripts", "qa.parse_question",
                      "stats.census", "cli.run", "cyc.parse_forms", "cyc.extract_all"):
            out[f"{layer}.self_ms"] = self_ns[layer] / 1e6 / n_ops
        hits = c[("ontology.lookup_phrase.hits", False)]
        lookups = calls["ontology.lookup_phrase"]
        out["ontology.lookup_phrase.hit_ratio"] = hits / lookups if lookups else 0.0
        out["recognizer.activate.tokens"] = c[("recognizer.activate.tokens", False)] / n_ops
        results = c[("recognizer.score_scripts.results", False)]
        out["recognizer.score_scripts.hit_ratio"] = results / examined if examined else 0.0
        for kind in QA_KINDS:
            durs = answers.get(kind)
            out[f"qa.answer.{kind}.p50_ms"] = statistics.median(durs) / 1e6 if durs else 0.0
        out["stats.census.rows"] = c[("stats.census.rows", False)] / n_ops
        out["cli.bytes_out"] = c[("cli.bytes_out", False)] / n_ops
        return out
