"""Expected outputs, computed from the generator's records alone.

Nothing here imports the package under test.  The oracle restates the
documented semantics of each query (README and module docstrings of the
package) over the records: hierarchy walks, mention sets, inherited
fields, census counts, timelines with gotos, grid cells and the CLI's
text and JSON renderings.  Every expected value is a plain JSON value, so
ops and their expectations can be written to a file and compared with
``==`` after the worker brings the actual output into the same shape.
"""

from __future__ import annotations

import csv
import io
import json
import re

from gen import ROOT, Base, Measure, render

INSTANCE_RE = re.compile(r"(.+?)\d+$")
EVENT_RE = re.compile(r"event(\d{2})-of")

PER_SCRIPT_KINDS = ("consist-of", "result-of", "where-does-one", "how-long",
                    "how-often", "how-much")
WHOLE_BASE_KINDS = ("what-does", "used-for", "where-found")
TEMPLATES = {
    "what-does": "What does a {} do?",
    "used-for": "What is a {} used for?",
    "where-found": "Where is the {} found?",
    "consist-of": "What does {} consist of?",
    "result-of": "What is the result of {}?",
    "where-does-one": "Where does one {}?",
    "how-long": "How long does {} take?",
    "how-often": "How often does one {}?",
    "how-much": "How much does {} cost?",
}
INHERITED = {"where-does-one": "places", "how-long": "duration",
             "how-often": "period", "how-much": "cost"}


def canon(term):
    """A term as a JSON value: symbols stay strings, ``na`` is "na",
    assertions are [predicate, *args], measures are {unit, text}."""
    if term is None:
        return "na"
    if isinstance(term, tuple):
        return [term[0]] + [canon(a) for a in term[1:]]
    if isinstance(term, Measure):
        return {"unit": term.unit, "text": term.text}
    return term


def symbols(term):
    if isinstance(term, str):
        yield term
    elif isinstance(term, tuple):
        yield term[0]
        for a in term[1:]:
            yield from symbols(a)


def goto_target(term):
    if isinstance(term, tuple) and term[0] == "goto":
        return int(EVENT_RE.fullmatch(term[1]).group(1))
    return None


def fixture_census(paths) -> dict:
    """Census rows of hand-written fixture files, read line by line.

    Counts the predicate that opens each assertion line of each block, which
    is all the census needs; multi-line assertions continue on lines that do
    not start with ``[``.
    """
    rows: dict[str, list[int]] = {}
    for path in paths:
        current = None
        for line in open(path, encoding="utf-8"):
            s = line.strip()
            if s.startswith("Object "):
                current = s.split()[1]
                rows.setdefault(current, [0, 0, 0, 0])
            elif s.startswith("[") and current and not re.match(r"\[[A-Z]", s):
                pred = s[1:].split()[0]
                row = rows[current]
                if EVENT_RE.fullmatch(pred):
                    row[0] += 1
                elif re.fullmatch(r"role\d{2}-of", pred):
                    row[1] += 1
                elif pred == "performed-in":
                    row[2] += 1
                elif pred in ("entry-condition-of", "result-of", "goal-of", "emotion-of",
                              "duration-of", "period-of", "cost-of") \
                        or re.fullmatch(r"role\d{2}-script-of", pred):
                    row[3] += 1
            elif s.startswith("=="):
                current = None
    return {name: row for name, row in rows.items() if row[0]}


class Oracle:
    def __init__(self, base: Base, fixture_rows: dict | None = None):
        self.base = base
        self.concepts = base.concepts
        self.fixture_rows = fixture_rows or {}
        self.scripts = base.scripts
        self.lex: dict[tuple[str, str], list[str]] = {}
        for c in self.concepts.values():
            for lang, phrases in (("English", c.en), ("French", c.fr)):
                for p in phrases:
                    names = self.lex.setdefault((lang, p), [])
                    if c.name not in names:
                        names.append(c.name)
        self.mentions = {s: self.mention_set(s) for s in self.scripts}
        self.by_mention: dict[str, set[str]] = {}
        for s, ms in self.mentions.items():
            for m in ms:
                self.by_mention.setdefault(m, set()).add(s)
        self._anc: dict[str, list[str]] = {}

    # -- hierarchy -----------------------------------------------------------

    def parents(self, name: str) -> list[str]:
        if name == ROOT:
            return []
        if name in self.concepts:
            return list(dict.fromkeys(self.concepts[name].parents))
        m = INSTANCE_RE.fullmatch(name)
        if m and m.group(1) in self.concepts:
            return [m.group(1)]
        return [ROOT]

    def ancestors(self, name: str) -> list[str]:
        """Breadth-first, nearest first, deduplicated."""
        if name not in self._anc:
            out, seen, frontier = [], {name}, [name]
            while frontier:
                nxt = []
                for node in frontier:
                    for p in self.parents(node):
                        if p not in seen:
                            seen.add(p)
                            out.append(p)
                            nxt.append(p)
                frontier = nxt
            self._anc[name] = out
        return self._anc[name]

    def is_a(self, a: str, b: str) -> bool:
        return a == b or b in self.ancestors(a)

    # -- scripts -------------------------------------------------------------

    def mention_set(self, script: str) -> frozenset:
        c = self.concepts[script]
        out = set(c.roles.values()) | set(c.places)
        for _, t in c.events:
            if goto_target(t) is None:
                out.update(symbols(t))
        return frozenset(out)

    def groups(self, script: str) -> list:
        """[index, [terms], goto] per event group, index order."""
        by_index: dict[int, list] = {}
        for index, t in self.concepts[script].events:
            by_index.setdefault(index, []).append(t)
        out = []
        for index in sorted(by_index):
            terms = by_index[index]
            goto = next((goto_target(t) for t in terms if goto_target(t) is not None), None)
            out.append([index, [canon(t) for t in terms], goto])
        return out

    def timeline(self, script: str, limit: int) -> list:
        groups = self.groups(script)
        position = {g[0]: i for i, g in enumerate(groups)}
        out, jumps, i = [], 0, 0
        while i < len(groups):
            g = groups[i]
            if g[2] is not None:
                if jumps >= limit:
                    break
                jumps += 1
                i = position[g[2]]
                continue
            out.append(g)
            i += 1
        return out

    def field(self, name: str, fieldname: str):
        c = self.concepts.get(name)
        if c is None:
            return None
        value = getattr(c, fieldname)
        return value if value not in (None, []) else None

    def inherited(self, name: str, fieldname: str):
        for source in [name] + self.ancestors(name):
            value = self.field(source, fieldname)
            if value is not None:
                return value, source
        return None, None

    def events_mentioning(self, script: str, concept: str) -> list:
        out = []
        for g in sorted(self.concepts[script].events, key=lambda e: e[0]):
            if concept in set(symbols(g[1])):
                out.append(canon(g[1]))
        return out

    def census_rows(self) -> list:
        rows = {}
        for s in self.scripts:
            c = self.concepts[s]
            other = (len(c.entry) + len(c.results) + len(c.goals) + len(c.emotions)
                     + len(c.role_scripts)
                     + sum(m is not None for m in (c.duration, c.period, c.cost)))
            rows[s] = [s, len(c.events), len(c.roles), len(c.places), other]
        for name, row in self.fixture_rows.items():
            rows[name] = [name] + row
        return [rows[k] for k in sorted(rows)]

    def summary(self) -> list:
        rows = self.census_rows()
        n = len(rows)
        return [n] + [sum(r[i] for r in rows) / n for i in range(1, 5)]

    # -- recognition ---------------------------------------------------------

    def recognize(self, spans, generalization=True) -> dict:
        """Expected activations and ranking for placed phrases.

        ``spans`` holds (language, lookup phrase, start, end) per phrase in
        text order.
        """
        items = []
        for lang, phrase, start, end in spans:
            for concept in self.lex[(lang, phrase)]:
                items.append([concept, start, end])
        activated = list(dict.fromkeys(i[0] for i in items))
        hits = {}
        for c in activated:
            reach = [c] + (self.ancestors(c) if generalization else [])
            hits[c] = set().union(*(self.by_mention.get(x, ()) for x in reach))
        results = []
        for s in sorted(set().union(*hits.values()) if hits else ()):
            evidence = [c for c in activated if s in hits[c]]
            results.append([s, float(len(evidence)), evidence])
        results.sort(key=lambda r: (-r[1], r[0]))
        return {"activations": items, "results": results}

    # -- questions -----------------------------------------------------------

    def subject(self, kind: str, phrase: str) -> tuple[str, int]:
        candidates = self.lex[("English", phrase)]
        subject = candidates[0]
        if kind in PER_SCRIPT_KINDS:
            subject = next((c for c in candidates if self.concepts[c].events), subject)
        return subject, int(len(candidates) > 1)

    def answer(self, kind: str, phrase: str) -> dict:
        subject, notes = self.subject(kind, phrase)
        if kind in INHERITED:
            payload, sources = self._inherited(subject, INHERITED[kind])
        else:
            payload, sources = getattr(self, "_" + kind.replace("-", "_"))(subject)
        return {"kind": kind, "subject": subject, "payload": payload,
                "sources": sources, "notes": notes}

    def _consist_of(self, s):
        return self.timeline(s, 0), [s]

    def _result_of(self, s):
        return [canon(t) for t in self.concepts[s].results], [s]

    def _inherited(self, s, fieldname):
        value, source = self.inherited(s, fieldname)
        if value is None:
            return None, []
        return (list(value) if fieldname == "places" else canon(value)), [source]

    def _what_does(self, subject):
        items = []
        for s in self.scripts:
            c = self.concepts[s]
            for index in sorted(c.roles):
                role = c.roles[index]
                if self.is_a(subject, role):
                    items.append([s, index, c.role_scripts.get(index),
                                  self.events_mentioning(s, role)])
                    break
        return items, [i[0] for i in items]

    def _used_for(self, subject):
        users = sorted(self.by_mention.get(subject, ()))
        return [[s, self.events_mentioning(s, subject)] for s in users], users

    def _where_found(self, subject):
        users = sorted(self.by_mention.get(subject, ()))
        places = [p for s in users for p in self.concepts[s].places]
        sources = list(users)
        for name in sorted(self.base.grids):
            if subject in self.base.grids[name].legend.values():
                sources.append(name)
                m = INSTANCE_RE.fullmatch(name)
                places.append(m.group(1) if m and m.group(1) in self.concepts else name)
        return list(dict.fromkeys(places)), sources

    # -- grids ---------------------------------------------------------------

    def grid_rows(self, name: str) -> list[str]:
        rows = [r.rstrip() for r in self.base.grids[name].rows]
        width = max(len(r) for r in rows)
        return [r.ljust(width) for r in rows]

    def grid_cell(self, name: str, col: int, row: int):
        ch = self.grid_rows(name)[row][col]
        return None if ch == " " else self.base.grids[name].legend.get(ch)

    # -- rule extraction -----------------------------------------------------

    def cyc_census(self):
        tuples = [tuple(t) for t in self.base.rules["tuples"]]
        known = self.base.rules["known"]
        by_head: dict[str, list] = {}
        for t in tuples:
            by_head.setdefault(t[0], []).append(t)
        rows = []
        for event in sorted(by_head):
            group = by_head[event]
            counts = [sum(1 for t in group if t[1] == rel)
                      for rel in ("subEvents", "actsInCapacity", "eventOccursAt", "Other")]
            if counts[0]:
                rows.append([event] + counts)
        n = len(rows)
        avgs = [sum(r[i] for r in rows) / n if n else 0.0 for i in range(1, 5)]
        return sorted(":".join(t) for t in tuples), rows, [len(known), n] + avgs


# -- CLI renderings --------------------------------------------------------------


def term_text(t) -> str:
    if isinstance(t, dict):
        return f"NUMBER:{t['unit']}:{t['text']}"
    if isinstance(t, list):
        return "[" + " ".join([t[0]] + [term_text(a) for a in t[1:]]) + "]"
    return t


def term_json(t):
    if isinstance(t, dict):
        return {"unit": t["unit"], "value": float(t["text"]), "text": t["text"]}
    if isinstance(t, list):
        return {"predicate": t[0], "args": [term_json(a) for a in t[1:]]}
    return t


def group_json(g):
    out = {"index": g[0], "events": [term_json(t) for t in g[1]]}
    if g[2] is not None:
        out["goto"] = g[2]
    return out


def dumps(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True, ensure_ascii=False) + "\n"


def lines_text(lines) -> str:
    return "".join(line + "\n" for line in lines)


class CliOracle:
    """Expected stdout of each CLI command, from an :class:`Oracle`."""

    def __init__(self, oracle: Oracle):
        self.o = oracle

    def show(self, s: str, as_json: bool) -> str:
        c = self.o.concepts[s]
        groups = self.o.groups(s)
        if as_json:
            out = {
                "concept": s,
                "roles": {f"{i:02d}": r for i, r in sorted(c.roles.items())},
                "role-scripts": {f"{i:02d}": r for i, r in sorted(c.role_scripts.items())},
                "events": [group_json(g) for g in groups],
                "entry-condition-of": [term_json(canon(t)) for t in c.entry],
                "result-of": [term_json(canon(t)) for t in c.results],
                "goal-of": [term_json(canon(t)) for t in c.goals],
                "emotion-of": [term_json(canon(t)) for t in c.emotions],
                "performed-in": list(c.places),
            }
            for key, m in (("duration-of", c.duration), ("period-of", c.period),
                           ("cost-of", c.cost)):
                out[key] = term_json(canon(m)) if m is not None else None
            return dumps(out)
        lines = [f"script {s}", "roles:"]
        lines += [f"  {i:02d} {r}" for i, r in sorted(c.roles.items())]
        if c.role_scripts:
            lines.append("role scripts:")
            lines += [f"  {i:02d} {r}" for i, r in sorted(c.role_scripts.items())]
        lines.append("events:")
        for g in groups:
            lines += [f"  {g[0]:02d} {term_text(t)}" for t in g[1]]
        for label, terms in (("entry conditions", c.entry), ("results", c.results),
                             ("goals", c.goals), ("emotions", c.emotions)):
            if terms:
                lines.append(f"{label}:")
                lines += [f"  {render(t)}" for t in terms]
        if c.places:
            lines.append("places: " + ", ".join(c.places))
        for label, m in (("duration", c.duration), ("period", c.period), ("cost", c.cost)):
            if m is not None:
                lines.append(f"{label}: {m.text} {m.unit}")
        return lines_text(lines)

    def timeline(self, s: str, limit: int) -> str:
        return lines_text(f"{g[0]:02d} {term_text(t)}"
                          for g in self.o.timeline(s, limit) for t in g[1])

    def recognize(self, expected: dict, as_json: bool) -> str:
        results = expected["results"]
        if as_json:
            return dumps([{"script": s, "score": score, "evidence": ev}
                          for s, score, ev in results])
        return lines_text(f"score {score:.1f} for script {s} based on " + ", ".join(ev)
                          for s, score, ev in results)

    def ask(self, a: dict, as_json: bool) -> str:
        kind, payload = a["kind"], a["payload"]
        if as_json:
            if payload is None:
                p = None
            elif isinstance(payload, dict):
                p = term_json(payload)
            elif kind == "what-does":
                p = [{"script": s, "role": f"{i:02d}", "role-script": rs,
                      "events": [term_json(t) for t in ev]} for s, i, rs, ev in payload]
            elif kind == "used-for":
                p = [{"script": s, "events": [term_json(t) for t in ev]}
                     for s, ev in payload]
            elif kind == "consist-of":
                p = [group_json(g) for g in payload]
            else:
                p = [term_json(t) for t in payload]
            # notes carry a free-text message; the worker checks their count
            return {"kind": kind, "subject": a["subject"], "payload": p,
                    "sources": a["sources"]}
        if payload is None or payload == []:
            return "unknown\n"
        if isinstance(payload, dict):
            return f"{payload['text']} {payload['unit']} ({a['sources'][0]})\n"
        if kind in ("where-does-one", "where-found"):
            return lines_text(payload)
        lines = []
        for item in payload:
            if kind == "what-does":
                s, i, rs, ev = item
                lines.append(f"{s} (role {i:02d})" + (f" -> {rs}" if rs else ""))
                lines += [f"  {term_text(t)}" for t in ev]
            elif kind == "used-for":
                lines.append(item[0])
                lines += [f"  {term_text(t)}" for t in item[1]]
            elif kind == "consist-of":
                lines += [f"{item[0]:02d} {term_text(t)}" for t in item[1]]
            else:
                lines.append(term_text(item))
        return lines_text(lines)

    def stats(self, mode: str) -> str:
        rows = self.o.census_rows()
        summ = self.o.summary()
        if mode == "csv":
            out = io.StringIO()
            w = csv.writer(out, lineterminator="\n")
            w.writerow(["script", "subevents", "roles", "places", "other"])
            for r in rows:
                w.writerow(r)
            w.writerow([])
            w.writerow(["scripts", "avg_subevents", "avg_roles", "avg_places", "avg_other"])
            w.writerow([summ[0]] + [f"{v:.2f}" for v in summ[1:]])
            return out.getvalue()
        table = [("Script", "Subevents", "Roles", "Places", "Other")]
        table += [(r[0],) + tuple(str(v) for v in r[1:]) for r in rows]
        widths = [max(len(row[i]) for row in table) for i in range(5)]
        lines = ["  ".join([row[0].ljust(widths[0])]
                           + [row[i].rjust(widths[i]) for i in range(1, 5)]).rstrip()
                 for row in table]
        # the comparison table after the census holds published figures;
        # only its local row derives from the base
        local = ["local", "database", str(summ[0])] + [f"{v:.2f}" for v in summ[1:]]
        return ["\n".join(lines) + "\n", local]

    def grid(self, name: str, col: int, row: int, as_json: bool) -> str:
        concept = self.o.grid_cell(name, col, row)
        if as_json:
            return dumps({"col": col, "row": row, "concept": concept})
        return (concept or "(empty)") + "\n"

    def cyc(self, as_json: bool) -> str:
        tuples, rows, s = self.o.cyc_census()
        if as_json:
            return dumps({
                "tuples": tuples,
                "census": [{"event": r[0], "subevents": r[1], "roles": r[2],
                            "places": r[3], "other": r[4]} for r in rows],
                "summary": {"events": s[0], "scripts": s[1],
                            "avg_subevents": round(s[2], 2), "avg_roles": round(s[3], 2),
                            "avg_places": round(s[4], 2), "avg_other": round(s[5], 2)}})
        lines = tuples + ["", f"scripts: {s[1]} of {s[0]} events"]
        lines += [f"{r[0]}: subevents {r[1]}, roles {r[2]}, places {r[3]}, other {r[4]}"
                  for r in rows]
        return lines_text(lines)
