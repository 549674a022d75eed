"""Command-line front end.

Subcommands: validate, show, timeline, recognize, ask, stats, grid,
cyc-extract.  Knowledge-base files come from repeated ``--kb`` flags, the
``SCRIPTKB_KB`` environment variable (path-separated), or the bundled
fixture set.  ``--json`` switches every command to a stable structured
output carrying the same information as the text mode.

Exit codes: 0 success, 1 usage error, 2 load error, 3 query error.

A command runs with the cyclic garbage collector paused, from argument
parsing to output, and the collector's earlier state comes back however
the command ends.  Each command loads a base, and the first collections
after a load would walk every object in it and free nothing:
a base holds no reference cycles, so reference counting frees it once the
command drops it.

A command parses its files only when the set of them is new or one of
them has changed since an earlier command loaded the same set: the
assembled base is kept in one snapshot entry in ``__pycache__`` beside the
first file, keyed by each file's bytes and identity, the interpreter and
the package's code (``parsecache``).  The entry holds buckets and
sections, each with its own checksum.  A later command decodes the
entry's head alone, which holds the grids and the base's ``errors`` (the
error diagnostics alone, normally none) that it checks before its query.
The query then decodes only the buckets holding the keys it names: a
script's parents, name and fields, a phrase, a concept's index entries.
The whole diagnostics list for ``validate`` and the census rows for
``stats`` are sections, read whole when first used, as are the blocks for
``validate``.  So a command costs little more than its query and the
reading and hashing of its files, whatever the size of the base.  Damage
found in the header or the head makes the command parse its files; damage
in a part its query reads later removes the entry and ends the command
with exit code 3 and an error naming the entry, and the next command
parses.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import sys
from dataclasses import dataclass, fields, is_dataclass
from enum import Enum
from importlib import resources

from .diagnostics import Diagnostic, has_errors
from .errors import KbError
from .kb import KnowledgeBase, collector_paused, read_text
from .ontology import Language
from .qa import Answer, RoleUse, Usage, answer, parse_question
from .recognizer import RecognitionResult, activate, format_results, score_scripts
from .scripts import EventGroup, Script, build_script, require_script, timeline, validate
from .stats import (SummaryRow, census, census_csv, format_census, format_comparison,
                    summary)
from .terms import FIELDS, MEASURE, Assertion, Measure, NaType, render_term
from . import cyc
from . import grid as gridmod

KB_ENV = "SCRIPTKB_KB"


class _UsageError(Exception):
    pass


class _Exit(Exception):
    """``_Exit(code, message)`` ends a command early; the message goes to stderr."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


@functools.cache
def _build_parser() -> _Parser:
    """The argument parser, built once per process: parsing fills a new
    namespace each time and leaves the parser as it was."""
    parser = _Parser(prog="scriptkb", description=__doc__.splitlines()[0])
    parser.add_argument("--kb", action="append", default=[], metavar="FILE",
                        help="knowledge-base file; repeatable, merged in order")
    parser.add_argument("--json", action="store_true", help="structured output")
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("validate", help="load files, check scripts, print diagnostics")
    p.add_argument("files", nargs="+")
    p.set_defaults(handler=_cmd_validate)

    p = sub.add_parser("show", help="print the script view of a concept")
    p.add_argument("concept")
    p.set_defaults(handler=_cmd_show)

    p = sub.add_parser("timeline", help="print the unrolled event timeline")
    p.add_argument("script")
    p.add_argument("--unroll", type=int, default=3, metavar="N",
                   help="goto traversal budget (default 3)")
    p.set_defaults(handler=_cmd_timeline)

    p = sub.add_parser("recognize", help="rank scripts matching free text")
    p.add_argument("text")
    p.add_argument("--language", default="English", choices=["English", "French"])
    p.add_argument("--no-generalization", action="store_true",
                   help="require exact mention-set membership")
    p.set_defaults(handler=_cmd_recognize)

    p = sub.add_parser("ask", help="answer a templated question")
    p.add_argument("question")
    p.set_defaults(handler=_cmd_ask)

    p = sub.add_parser("stats", help="per-script census and averages")
    p.add_argument("--csv", action="store_true")
    p.set_defaults(handler=_cmd_stats)

    p = sub.add_parser("grid", help="print a grid or the concept at a cell")
    p.add_argument("name")
    p.add_argument("--at", metavar="COL,ROW")
    p.set_defaults(handler=_cmd_grid)

    p = sub.add_parser("cyc-extract", help="extract census tuples from rule files")
    p.add_argument("rules")
    p.add_argument("--events", required=True, metavar="FILE",
                   help="file listing known event names")
    p.set_defaults(handler=_cmd_cyc_extract)
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


def _load(paths) -> KnowledgeBase:
    try:
        return KnowledgeBase.from_paths(paths)
    except (OSError, KbError) as e:
        raise _Exit(2, f"load error: {e}") from e


def run(argv, out=None, out_err=None) -> int:
    """Run one command; returns its exit code.  The cyclic garbage collector
    is paused for the whole command and comes back as it was."""
    with collector_paused():
        return _run(argv, out, out_err)


def _run(argv, out, out_err) -> int:
    out = out if out is not None else sys.stdout
    out_err = out_err if out_err is not None else sys.stderr
    parser = _build_parser()
    try:
        with contextlib.redirect_stdout(out):  # argparse prints --help to sys.stdout
            args = parser.parse_args(argv)
        if args.command is None:
            raise _UsageError("a command is required")
        code, payload = _dispatch(args)
    except _UsageError as e:
        parser.print_usage(out_err)
        print(f"scriptkb: error: {e}", file=out_err)
        return 1
    except SystemExit as e:  # --help
        return int(e.code or 0)
    except _Exit as e:
        print(e.args[1], file=out_err)
        return e.args[0]
    except KbError as e:
        print(f"error: {e}", file=out_err)
        return 3
    if args.json:
        print(json.dumps(_json(payload), indent=2, sort_keys=True, ensure_ascii=False,
                         allow_nan=False), file=out)
        return code
    if isinstance(payload, Answer):
        out_err.writelines(f"note: {note}\n" for note in payload.notes)
    out.writelines(line + "\n" for line in _lines(payload))
    return code


def _dispatch(args):
    """Run the command; returns its exit code and its payload."""
    if args.command in ("validate", "cyc-extract"):  # these read their own files
        return args.handler(args)
    kb = _load(_kb_paths(args))
    if kb.errors:
        raise _Exit(2, "\n".join(d.render() for d in kb.errors))
    return 0, args.handler(kb, args)


def _cmd_validate(args):
    kb = _load(args.files)
    diagnostics = list(kb.diagnostics)
    if not has_errors(diagnostics):  # scripts are only built from a clean load
        for name in kb.script_concepts():
            diagnostics += validate(kb, build_script(kb, name))
    return 2 if has_errors(diagnostics) else 0, {"diagnostics": diagnostics}


def _cmd_show(kb, args) -> Script:
    require_script(kb, args.concept)
    return build_script(kb, args.concept)


def _cmd_timeline(kb, args) -> list[EventGroup]:
    if args.unroll < 0:
        raise _Exit(1, "error: --unroll must be nonnegative")
    require_script(kb, args.script)
    return timeline(build_script(kb, args.script), args.unroll)


def _cmd_recognize(kb, args) -> list[RecognitionResult]:
    activations = activate(args.text, kb, Language(args.language))
    return score_scripts(activations, kb, generalization=not args.no_generalization)


def _cmd_ask(kb, args) -> Answer:
    return answer(kb, parse_question(kb, args.question))


@dataclass(frozen=True)
class _Stats:
    census: list
    summary: SummaryRow | None  # None when the base holds no script


def _cmd_stats(kb, args):
    if args.csv and not args.json:
        return census_csv(kb)
    rows = census(kb)
    return _Stats(rows, summary(kb) if rows else None)


@dataclass(frozen=True)
class _Cell:
    col: int
    row: int
    concept: str | None


def _cmd_grid(kb, args):
    grid = kb.grids.get(args.name)
    if grid is None:
        raise _Exit(3, f"error: no grid named {args.name!r}")
    if not args.at:
        return grid
    try:
        col, row = (int(v) for v in args.at.split(","))
    except ValueError:
        raise _Exit(1, "error: --at expects COL,ROW") from None
    return _Cell(col, row, grid.object_at(col, row))


def _read_event_names(text: str) -> set[str]:
    """Whitespace-separated event names; '#' lines are comments."""
    names: set[str] = set()
    for line in text.splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            names.update(line.split())
    return names


@dataclass(frozen=True)
class _Extraction:
    tuples: list[str]
    census: list[cyc.EventCensusRow]
    summary: cyc.EventSummary


def _cmd_cyc_extract(args):
    try:
        rules_text = read_text(args.rules)
        known = _read_event_names(read_text(args.events))
        forms = cyc.parse_forms(rules_text)
    except (OSError, KbError) as e:
        raise _Exit(2, f"load error: {e}") from e
    tuples = cyc.extract_all(forms, known)
    return 0, _Extraction(cyc.tuple_lines(tuples), *cyc.event_census(tuples, known))


# -- output: one text renderer and one JSON encoder over every payload ----------

def _indented(lines) -> list[str]:
    return [f"  {line}" for line in lines]


def _lines(value) -> list[str]:
    """The text-mode lines of a payload."""
    if isinstance(value, (list, tuple)):
        return [line for item in value for line in _lines(item)]
    if isinstance(value, dict):
        return _lines(list(value.values()))
    if isinstance(value, (str, Assertion, Measure, NaType)):  # a term, or a text block
        return render_term(value).splitlines()
    if isinstance(value, EventGroup):
        return [f"{value.index:02d} {render_term(t)}" for t in value.events]
    if isinstance(value, Script):
        return _script_lines(value)
    if isinstance(value, Answer):
        if value.payload is None or value.payload == []:
            return ["unknown"]
        if isinstance(value.payload, Measure):
            return [f"{value.payload.text} {value.payload.unit} ({value.sources[0]})"]
        return _lines(value.payload)
    if isinstance(value, RoleUse):
        head = f"{value.script} (role {value.role_index:02d})"
        if value.role_script:
            head += f" -> {value.role_script}"
        return [head] + _indented(_lines(value.events))
    if isinstance(value, Usage):
        return [value.script] + _indented(_lines(value.events))
    if isinstance(value, Diagnostic):
        return [value.render()]
    if isinstance(value, RecognitionResult):
        return format_results([value])
    if isinstance(value, _Stats):
        lines = format_census(value.census).splitlines()
        if value.summary is not None:
            lines += [""] + format_comparison(value.summary).splitlines()
        return lines
    if isinstance(value, _Extraction):
        s = value.summary
        return value.tuples + ["", f"scripts: {s.scripts} of {s.events} events"] + [
            f"{r.event}: subevents {r.subevents}, roles {r.roles}, "
            f"places {r.places}, other {r.other}" for r in value.census]
    if isinstance(value, gridmod.Grid):
        return gridmod.render(value).splitlines()
    if isinstance(value, _Cell):
        return [value.concept or "(empty)"]
    raise TypeError(f"no text form for {type(value).__name__}")


def _script_lines(s: Script) -> list[str]:
    lines = [f"script {s.concept}", "roles:"]
    lines += _indented(f"{i:02d} {c}" for i, c in s.roles.items())
    if s.role_scripts:
        lines.append("role scripts:")
        lines += _indented(f"{i:02d} {c}" for i, c in s.role_scripts.items())
    lines += ["events:"] + _indented(_lines(s.events))
    for spec in FIELDS.values():  # the unnumbered fields, in file-format order
        label, value = spec.attr.replace("_", " "), getattr(s, spec.attr)
        if spec.index is not None or not value:
            continue
        if spec.shape == MEASURE:
            lines.append(f"{label}: {value.text} {value.unit}")
        elif spec.attr == "places":
            lines.append(f"{label}: " + ", ".join(value))
        else:
            lines += [f"{label}:"] + _indented(_lines(value))
    return lines


def _json(value):
    """A payload's JSON: dataclasses by field name unless their keys differ."""
    if isinstance(value, Assertion):
        return {"predicate": value.predicate, "args": _json(value.args)}
    if isinstance(value, Measure):
        # a float too large for a double has no JSON number; text keeps its digits
        number = value.value
        return {"unit": value.unit, "value": number if math.isfinite(number) else None,
                "text": value.text}
    if isinstance(value, NaType):
        return "na"
    if isinstance(value, EventGroup):
        goto = {} if value.goto_target is None else {"goto": value.goto_target}
        return {"index": value.index, "events": _json(value.events), **goto}
    if isinstance(value, Script):
        return {"concept": value.concept,
                "roles": {f"{i:02d}": c for i, c in value.roles.items()},
                "role-scripts": {f"{i:02d}": c for i, c in value.role_scripts.items()},
                "events": _json(value.events),
                **{p: _json(getattr(value, spec.attr))
                   for p, spec in FIELDS.items() if spec.index is None}}
    if isinstance(value, RoleUse):
        return {"script": value.script, "role": f"{value.role_index:02d}",
                "role-script": value.role_script, "events": _json(value.events)}
    if isinstance(value, _Stats) and value.summary is None:
        return {"census": []}
    if is_dataclass(value):
        # source positions take no part in equality and stay out of the JSON
        return {f.name: _json(getattr(value, f.name)) for f in fields(value) if f.compare}
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, dict):
        return {k: _json(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json(v) for v in value]
    if isinstance(value, float):
        return round(value, 2)  # scores and averages carry two decimals
    return value


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
