"""Command-line front end.

Subcommands: validate, show, timeline, recognize, ask, stats, grid,
cyc-extract.  Knowledge-base files come from repeated ``--kb`` flags, the
``SCRIPTKB_KB`` environment variable (path-separated), or the bundled
fixture set.  ``--json`` switches every command to a stable structured
output carrying the same information as the text mode.

Exit codes: 0 success, 1 usage error, 2 load error, 3 query error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict
from importlib import resources

from .diagnostics import ERROR, has_errors
from .errors import KbError, PositionedError
from .kb import KnowledgeBase
from .ontology import Language
from .qa import Answer, QuestionKind, RoleUse, Usage, answer, parse_question
from .recognizer import activate, format_results, score_scripts
from .scripts import EventGroup, Script, build_script, is_script, timeline, validate
from .stats import census, census_csv, format_census, format_comparison, summary
from .terms import FIELDS, MEASURE, Assertion, Measure, NaType, render_term
from . import cyc
from . import grid as gridmod

KB_ENV = "SCRIPTKB_KB"


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="scriptkb", description=__doc__.splitlines()[0])
    parser.add_argument("--kb", action="append", default=[], metavar="FILE",
                        help="knowledge-base file; repeatable, merged in order")
    parser.add_argument("--json", action="store_true", help="structured output")
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("validate", help="load files, check scripts, print diagnostics")
    p.add_argument("files", nargs="+")

    p = sub.add_parser("show", help="print the script view of a concept")
    p.add_argument("concept")

    p = sub.add_parser("timeline", help="print the unrolled event timeline")
    p.add_argument("script")
    p.add_argument("--unroll", type=int, default=3, metavar="N",
                   help="goto traversal budget (default 3)")

    p = sub.add_parser("recognize", help="rank scripts matching free text")
    p.add_argument("text")
    p.add_argument("--language", default="English", choices=["English", "French"])
    p.add_argument("--no-generalization", action="store_true",
                   help="require exact mention-set membership")

    p = sub.add_parser("ask", help="answer a templated question")
    p.add_argument("question")

    p = sub.add_parser("stats", help="per-script census and averages")
    p.add_argument("--csv", action="store_true")

    p = sub.add_parser("grid", help="print a grid or the concept at a cell")
    p.add_argument("name")
    p.add_argument("--at", metavar="COL,ROW")

    p = sub.add_parser("cyc-extract", help="extract census tuples from rule files")
    p.add_argument("rules")
    p.add_argument("--events", required=True, metavar="FILE",
                   help="file listing known event names")
    return parser


def bundled_kb_paths() -> list[str]:
    data = resources.files("scriptkb.data")
    return [str(data.joinpath(name))
            for name in ("core.kb", "scripts.kb", "demo.kb")]


def _kb_paths(args) -> list[str]:
    if args.kb:
        return args.kb
    env = os.environ.get(KB_ENV)
    if env:
        return [p for p in env.split(os.pathsep) if p]
    return bundled_kb_paths()


def _load(args, out_err) -> KnowledgeBase | None:
    try:
        kb = KnowledgeBase.from_paths(_kb_paths(args))
    except (OSError, KbError) as e:
        print(f"load error: {e}", file=out_err)
        return None
    bad = [d for d in kb.diagnostics if d.severity == ERROR]
    if bad:
        for d in bad:
            print(d.render(), file=out_err)
        return None
    return kb


def run(argv, out=None, out_err=None) -> int:
    out = out if out is not None else sys.stdout
    out_err = out_err if out_err is not None else sys.stderr
    parser = _build_parser()
    try:
        if not argv:
            raise _UsageError("a command is required")
        args = parser.parse_args(argv)
        if args.command is None:
            raise _UsageError("a command is required")
    except _UsageError as e:
        parser.print_usage(out_err)
        print(f"scriptkb: error: {e}", file=out_err)
        return 1
    except SystemExit as e:  # --help
        return int(e.code or 0)

    try:
        return _dispatch(args, out, out_err)
    except KbError as e:
        print(f"error: {e}", file=out_err)
        return 3


def _dispatch(args, out, out_err) -> int:
    if args.command == "validate":
        return _cmd_validate(args, out, out_err)
    if args.command == "cyc-extract":
        return _cmd_cyc_extract(args, out, out_err)

    kb = _load(args, out_err)
    if kb is None:
        return 2
    return {
        "show": _cmd_show,
        "timeline": _cmd_timeline,
        "recognize": _cmd_recognize,
        "ask": _cmd_ask,
        "stats": _cmd_stats,
        "grid": _cmd_grid,
    }[args.command](kb, args, out, out_err)


def _cmd_validate(args, out, out_err) -> int:
    try:
        kb = KnowledgeBase.from_paths(args.files)
    except (OSError, KbError) as e:
        print(f"load error: {e}", file=out_err)
        return 2
    diagnostics = list(kb.diagnostics)
    if not has_errors(diagnostics):  # scripts are only built from a clean load
        for name in kb.script_concepts():
            diagnostics += validate(kb, build_script(kb, name))
    if args.json:
        _emit_json(out, {"diagnostics": [asdict(d) for d in diagnostics]})
    else:
        for d in diagnostics:
            print(d.render(), file=out)
    return 2 if has_errors(diagnostics) else 0


def _cmd_show(kb, args, out, out_err) -> int:
    if args.concept not in kb.ontology:
        print(f"error: unknown concept {args.concept!r}", file=out_err)
        return 3
    if not is_script(kb, args.concept):
        print(f"error: {args.concept!r} is not a script (no events)", file=out_err)
        return 3
    script = build_script(kb, args.concept)
    if args.json:
        _emit_json(out, _script_json(script))
        return 0
    for line in _script_lines(script):
        print(line, file=out)
    return 0


def _script_lines(s: Script) -> list[str]:
    lines = [f"script {s.concept}", "roles:"]
    lines += [f"  {i:02d} {c}" for i, c in s.roles.items()]
    if s.role_scripts:
        lines.append("role scripts:")
        lines += [f"  {i:02d} {c}" for i, c in s.role_scripts.items()]
    lines.append("events:")
    for g in s.events:
        lines += [f"  {g.index:02d} {render_term(t)}" for t in g.events]
    for label, value in (("entry conditions", s.entry_conditions),
                         ("results", s.results), ("goals", s.goals),
                         ("emotions", s.emotions)):
        if value:
            lines.append(f"{label}:")
            lines += [f"  {render_term(t)}" for t in value]
    if s.places:
        lines.append("places: " + ", ".join(s.places))
    for label, m in (("duration", s.duration), ("period", s.period),
                     ("cost", s.cost)):
        if m is not None:
            lines.append(f"{label}: {m.text} {m.unit}")
    return lines


def _cmd_timeline(kb, args, out, out_err) -> int:
    if args.unroll < 0:
        print("error: --unroll must be nonnegative", file=out_err)
        return 1
    if args.script not in kb.ontology or not is_script(kb, args.script):
        print(f"error: {args.script!r} is not a script", file=out_err)
        return 3
    groups = timeline(build_script(kb, args.script), args.unroll)
    if args.json:
        _emit_json(out, [_group_json(g) for g in groups])
        return 0
    for g in groups:
        for t in g.events:
            print(f"{g.index:02d} {render_term(t)}", file=out)
    return 0


def _cmd_recognize(kb, args, out, out_err) -> int:
    activations = activate(args.text, kb, Language(args.language))
    results = score_scripts(activations, kb,
                            generalization=not args.no_generalization)
    if args.json:
        _emit_json(out, [asdict(r) for r in results])
        return 0
    for line in format_results(results):
        print(line, file=out)
    return 0


def _cmd_ask(kb, args, out, out_err) -> int:
    question = parse_question(kb, args.question)
    result = answer(kb, question)
    if args.json:
        _emit_json(out, _answer_json(result))
        return 0
    for note in result.notes:
        print(f"note: {note}", file=out_err)
    for line in _answer_lines(result):
        print(line, file=out)
    return 0


def _answer_lines(a: Answer) -> list[str]:
    if a.payload is None or a.payload == []:
        return ["unknown"]
    if isinstance(a.payload, Measure):
        return [f"{a.payload.text} {a.payload.unit} ({a.sources[0]})"]
    if a.kind in (QuestionKind.WHERE_DOES_ONE, QuestionKind.WHERE_FOUND):
        return list(a.payload)
    lines = []
    for item in a.payload:
        if isinstance(item, RoleUse):
            head = f"{item.script} (role {item.role_index:02d})"
            if item.role_script:
                head += f" -> {item.role_script}"
            lines.append(head)
            lines += [f"  {render_term(t)}" for t in item.events]
        elif isinstance(item, Usage):
            lines.append(item.script)
            lines += [f"  {render_term(t)}" for t in item.events]
        elif isinstance(item, EventGroup):
            lines += [f"{item.index:02d} {render_term(t)}" for t in item.events]
        else:
            lines.append(render_term(item))
    return lines


def _cmd_stats(kb, args, out, out_err) -> int:
    rows = census(kb)
    if args.json:
        payload = {"census": [asdict(r) for r in rows]}
        if rows:
            payload["summary"] = {k: round(v, 2) for k, v in asdict(summary(kb)).items()}
        _emit_json(out, payload)
        return 0
    if args.csv:
        out.write(census_csv(kb))
        return 0
    print(format_census(rows), file=out)
    if rows:
        print("", file=out)
        print(format_comparison(summary(kb)), file=out)
    return 0


def _cmd_grid(kb, args, out, out_err) -> int:
    grid = kb.grids.get(args.name)
    if grid is None:
        print(f"error: no grid named {args.name!r}", file=out_err)
        return 3
    if args.at:
        try:
            col, row = (int(v) for v in args.at.split(","))
        except ValueError:
            print("error: --at expects COL,ROW", file=out_err)
            return 1
        concept = grid.object_at(col, row)
        if args.json:
            _emit_json(out, {"col": col, "row": row, "concept": concept})
        else:
            print(concept if concept else "(empty)", file=out)
        return 0
    if args.json:
        _emit_json(out, {"name": grid.name, "rows": grid.rows,
                         "legend": dict(sorted(grid.legend.items())),
                         "extended_keys": grid.extended_keys})
        return 0
    out.write(gridmod.render(grid))
    return 0


def _read_event_names(text: str) -> set[str]:
    """Whitespace-separated event names; '#' lines are comments."""
    names: set[str] = set()
    for line in text.splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            names.update(line.split())
    return names


def _cmd_cyc_extract(args, out, out_err) -> int:
    try:
        rules_text = open(args.rules, encoding="utf-8").read()
        events_text = open(args.events, encoding="utf-8").read()
    except OSError as e:
        print(f"load error: {e}", file=out_err)
        return 2
    known = _read_event_names(events_text)
    try:
        forms = cyc.parse_forms(rules_text)
    except PositionedError as e:
        print(f"load error: {e}", file=out_err)
        return 2
    tuples = cyc.extract_all(forms, known)
    rows, s = cyc.event_census(tuples, known)
    if args.json:
        _emit_json(out, {"tuples": cyc.tuple_lines(tuples),
                         "census": [asdict(r) for r in rows],
                         "summary": {k: round(v, 2) for k, v in asdict(s).items()}})
        return 0
    for line in cyc.tuple_lines(tuples):
        print(line, file=out)
    print("", file=out)
    print(f"scripts: {s.scripts} of {s.events} events", file=out)
    for r in rows:
        print(f"{r.event}: subevents {r.subevents}, roles {r.roles}, "
              f"places {r.places}, other {r.other}", file=out)
    return 0


# -- JSON shapes ---------------------------------------------------------------


def _term_json(term):
    if isinstance(term, Assertion):
        return {"predicate": term.predicate, "args": [_term_json(a) for a in term.args]}
    if isinstance(term, Measure):
        return {"unit": term.unit, "value": term.value, "text": term.text}
    if isinstance(term, NaType):
        return "na"
    return term


def _group_json(g: EventGroup):
    out = {"index": g.index, "events": [_term_json(t) for t in g.events]}
    if g.goto_target is not None:
        out["goto"] = g.goto_target
    return out


def _script_json(s: Script):
    out = {
        "concept": s.concept,
        "roles": {f"{i:02d}": c for i, c in s.roles.items()},
        "role-scripts": {f"{i:02d}": c for i, c in s.role_scripts.items()},
        "events": [_group_json(g) for g in s.events],
    }
    # the unnumbered fields are keyed by their predicate names
    for predicate, spec in FIELDS.items():
        if spec.index is None:
            value = getattr(s, spec.attr)
            out[predicate] = (_term_json(value) if spec.shape == MEASURE
                              else [_term_json(t) for t in value])
    return out


def _answer_json(a: Answer):
    if isinstance(a.payload, Measure):
        payload = _term_json(a.payload)
    elif a.payload is None:
        payload = None
    else:
        payload = [_payload_item_json(item) for item in a.payload]
    return {"kind": a.kind.value, "subject": a.subject, "payload": payload,
            "sources": list(a.sources), "notes": list(a.notes)}


def _payload_item_json(item):
    if isinstance(item, RoleUse):
        return {"script": item.script, "role": f"{item.role_index:02d}",
                "role-script": item.role_script,
                "events": [_term_json(t) for t in item.events]}
    if isinstance(item, Usage):
        return {"script": item.script, "events": [_term_json(t) for t in item.events]}
    if isinstance(item, EventGroup):
        return _group_json(item)
    return _term_json(item)


def _emit_json(out, payload) -> None:
    json.dump(payload, out, indent=2, sort_keys=True, ensure_ascii=False)
    out.write("\n")


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
