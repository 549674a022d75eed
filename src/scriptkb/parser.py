"""Knowledge-base file format: parser and serializer.

A file is a sequence of blocks::

    Object blackout

    [English] power failure, blackout; [French] black out,
    panne de courant
    [ako ^ disaster]
    [duration-of ^ NUMBER:second:3600]

* ``Object <name>`` opens a block; it ends at the next header, a grid
  header (``==``), or end of file.
* Lexicon lines start with a bracketed language name; ``;`` separates
  language sections and a trailing comma continues the line onto the next.
* Assertion lines are bracket expressions; an assertion with unbalanced
  brackets continues on following lines.  ``^`` refers to the block's
  concept, ``na`` is the unspecified placeholder, and measures are written
  ``NUMBER:<unit>:<value>`` or as a number with a unit suffix (``.25in``).
* Lines starting with ``;`` are comments.  HTML character entities are
  decoded on ingestion.

Parsing is total: bad input produces diagnostics, never an exception.  A
block containing any error is dropped as a whole; parsing continues with
the next block.  Grid blocks are returned as raw sources for the grid
module to parse.
"""

from __future__ import annotations

import html
import itertools
import re
import sys
from dataclasses import dataclass, field

from .diagnostics import ERROR, Diagnostic
from .errors import (
    KbSyntaxError,
    MalformedNumber,
    PositionedError,
    SelfRefWithoutContext,
    UnbalancedBracket,
    UnknownUnit,
)
from .ontology import Language
from .terms import DEFAULT_UNITS, NA, Assertion, Measure, ObjectBlock

_NUM_RE = re.compile(r"[+-]?(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?")
_SUFFIX_RE = re.compile(rf"({_NUM_RE.pattern})([A-Za-z]+)")
_OBJECT_RE = re.compile(r"Object\s+(\S+)\s*$")
_LEX_START = re.compile(r"\[([A-Z][A-Za-z]*)\]")
_LEX_SECTION = re.compile(r"\[([A-Za-z]+)\]\s*(.*)$")
_TOKEN_RE = re.compile(r"[\[\]]|[^\s\[\]]+")
_ASCII_SYMBOL = re.compile(r"[a-z0-9][a-z0-9-]*")


def is_symbol(token: str) -> bool:
    """Symbols are lowercase-and-digit tokens with interior hyphens; accented
    lowercase letters are allowed for French-derived names."""
    if token.isascii():
        return _ASCII_SYMBOL.fullmatch(token) is not None
    first = token[0]
    if not (first.isdigit() or (first.isalpha() and first.islower())):
        return False
    for ch in token[1:]:
        if ch == "-" or ch.isdigit() or (ch.isalpha() and ch.islower()):
            continue
        return False
    return True


def parse_measure(token: str) -> Measure:
    """Parse ``NUMBER:<unit>:<value>`` or a suffixed number like ``.25in``."""
    if token.startswith("NUMBER:"):
        parts = token.split(":", 2)
        if len(parts) != 3 or not parts[1] or not parts[2]:
            raise MalformedNumber(f"expected NUMBER:<unit>:<value>, got {token!r}")
        unit, num = parts[1], parts[2]
        if unit not in DEFAULT_UNITS:
            raise UnknownUnit(f"unknown unit {unit!r}")
        if not _NUM_RE.fullmatch(num):
            raise MalformedNumber(f"bad number {num!r}")
        return Measure(unit, num)
    m = _SUFFIX_RE.fullmatch(token)
    if m:
        num, unit = m.groups()
        if unit not in DEFAULT_UNITS:
            raise UnknownUnit(f"unknown unit {unit!r}")
        return Measure(unit, num)
    raise MalformedNumber(f"not a measure token: {token!r}")


# -- assertion parsing --------------------------------------------------------


def _pos(text: str, token: int, base_line: int) -> tuple[int, int]:
    """Line and column of the token with the given index; only errors need it."""
    idx = next(itertools.islice(_TOKEN_RE.finditer(text), token, None)).start()
    newlines = text.count("\n", 0, idx)
    if newlines:
        return base_line + newlines, idx - text.rfind("\n", 0, idx)
    return base_line, idx + 1


def parse_assertion(text: str, self_concept: str | None = None, *,
                    line: int = 1) -> Assertion:
    """Parse one bracket expression, resolving ``^`` to ``self_concept``.

    ``line`` is the file line the text starts on; error positions are
    reported relative to it.
    """
    return _parse_assertion(text, self_concept, line, {}, {})


def _parse_assertion(text, self_concept, line, predicates, atoms) -> Assertion:
    """``parse_assertion`` with tables of the predicate and argument tokens
    already classified, which it extends; a token that fails to classify is
    not stored, so it raises again wherever it appears."""
    toks = _TOKEN_RE.findall(text)
    if not toks or toks[0] != "[":
        raise KbSyntaxError("assertion must start with '['", line, 1)
    # the innermost open node as [predicate, *args] with the token index of
    # its '['; `outer` holds the nodes around it, `parts` is None once closed;
    # an error is reported at token `at`
    open_at, parts, outer = 0, [], []
    try:
        for at in range(1, len(toks)):
            tok = toks[at]
            if parts is None:
                raise KbSyntaxError(f"unexpected trailing {tok!r}")
            if not parts:
                predicate = predicates.get(tok)
                if predicate is None:
                    if not is_symbol(tok):
                        raise KbSyntaxError(f"expected a predicate symbol, got {tok!r}")
                    predicate = predicates[tok] = sys.intern(tok)
                parts.append(predicate)
            elif tok == "[":
                outer.append((open_at, parts))
                open_at, parts = at, []
            elif tok == "]":
                if len(parts) < 2:
                    at = open_at
                    raise KbSyntaxError(f"assertion [{parts[0]}] needs at least one argument")
                node = Assertion(parts[0], tuple(parts[1:]))
                if outer:
                    open_at, parts = outer.pop()
                    parts.append(node)
                else:
                    parts = None
            elif tok == "^":
                # resolved per block, so never stored in the table
                if self_concept is None:
                    raise SelfRefWithoutContext("'^' used without an enclosing block")
                parts.append(self_concept)
            else:
                atom = atoms.get(tok)
                if atom is None:
                    atom = atoms[tok] = _classify_atom(tok)
                parts.append(atom)
        if parts is not None:
            at = open_at
            raise UnbalancedBracket("unclosed '['")
    except PositionedError as e:
        e.line, e.col = _pos(text, at, line)
        raise
    return node


def _classify_atom(val):
    if val == "na":
        return NA
    if val.startswith("NUMBER:"):
        return parse_measure(val)
    m = _SUFFIX_RE.fullmatch(val)
    if m:
        num, unit = m.groups()
        if unit in DEFAULT_UNITS:
            return Measure(unit, num)
        if is_symbol(val):
            return sys.intern(val)
        raise UnknownUnit(f"unknown unit {unit!r} in {val!r}")
    if is_symbol(val):
        return sys.intern(val)
    if _NUM_RE.fullmatch(val):
        raise MalformedNumber(f"number without a unit: {val!r}")
    raise KbSyntaxError(f"invalid token {val!r}")


# -- whole-file parsing -------------------------------------------------------


@dataclass(frozen=True)
class GridSource:
    """Raw text of one grid block, for the grid module to parse."""

    text: str
    line: int
    file: str


@dataclass
class ParseResult:
    blocks: list[ObjectBlock] = field(default_factory=list)
    grid_sources: list[GridSource] = field(default_factory=list)
    diagnostics: list[Diagnostic] = field(default_factory=list)


def parse_database(text: str, *, filename: str = "<kb>",
                   default_concept: str | None = None) -> ParseResult:
    """Parse a whole knowledge-base document.

    ``default_concept`` lets headerless listings be ingested: lines before
    the first ``Object`` header are attributed to that concept.
    """
    text = html.unescape(text)
    lines = [ln.rstrip("\r") for ln in text.split("\n")]
    result = ParseResult()
    # each distinct predicate and argument token is classified once per call
    predicates: dict[str, str] = {}
    atoms: dict[str, object] = {}

    current: ObjectBlock | None = None
    current_ok = True
    default_block: ObjectBlock | None = None
    if default_concept is not None:
        current = default_block = ObjectBlock(default_concept, line=1, file=filename)

    def err(lineno, col, code, message):
        result.diagnostics.append(Diagnostic(filename, lineno, col, ERROR, code, message))

    def finish():
        nonlocal current, current_ok
        if current is not None and current_ok:
            # an unused implicit block (headerless ingestion) is not emitted
            if not (current is default_block and not current.lexicon
                    and not current.assertions):
                result.blocks.append(current)
        current = None
        current_ok = True

    i, n = 0, len(lines)
    while i < n:
        raw = lines[i]
        stripped = raw.strip()
        lineno = i + 1
        if not stripped or stripped.startswith(";"):
            i += 1
            continue
        if stripped.startswith("=="):
            j = i + 1
            while j < n and lines[j].strip():
                j += 1
            finish()
            result.grid_sources.append(GridSource("\n".join(lines[i:j]), lineno, filename))
            i = j
            continue
        if stripped == "Object" or stripped.startswith("Object "):
            finish()
            m = _OBJECT_RE.match(stripped)
            if m and is_symbol(m.group(1)):
                current = ObjectBlock(sys.intern(m.group(1)), line=lineno, file=filename)
            else:
                err(lineno, 1, "MalformedHeader", f"bad Object header: {stripped!r}")
                current = ObjectBlock("invalid", line=lineno, file=filename)
                current_ok = False
            i += 1
            continue
        if _LEX_START.match(stripped):
            if current is None:
                err(lineno, 1, "OrphanContent", "lexicon line outside an Object block")
                i += 1
                continue
            parts = [stripped]
            while parts[-1].endswith(",") and i + 1 < n and lines[i + 1].strip() \
                    and not lines[i + 1].strip().startswith(("Object ", "==", ";", "[")):
                i += 1
                parts.append(lines[i].strip())
            if not _parse_lexicon_line(" ".join(parts), current, lineno, err):
                current_ok = False
            i += 1
            continue
        if stripped.startswith("["):
            chunk = [raw]
            depth = raw.count("[") - raw.count("]")
            truncated = False
            while depth > 0:
                nxt = lines[i + 1] if i + 1 < n else None
                if nxt is None or not nxt.strip() or \
                        nxt.strip().startswith(("Object ", "==", ";")):
                    err(lineno, 1, "UnbalancedBracket", "assertion is missing a closing ']'")
                    truncated = True
                    break
                i += 1
                chunk.append(nxt)
                depth += nxt.count("[") - nxt.count("]")
            bad = truncated
            if not truncated:
                if depth < 0:
                    err(lineno, 1, "UnbalancedBracket", "unmatched ']'")
                    bad = True
                elif current is None:
                    err(lineno, 1, "OrphanContent", "assertion outside an Object block")
                else:
                    try:
                        current.assertions.append(_parse_assertion(
                            "\n".join(chunk), current.concept, lineno, predicates, atoms))
                        current.assertion_lines.append(lineno)
                    except PositionedError as e:
                        err(e.line or lineno, e.col or 1, type(e).__name__, e.message)
                        bad = True
            if bad and current is not None:
                current_ok = False
            i += 1
            continue
        err(lineno, 1, "UnrecognizedLine", f"unrecognized line: {stripped!r}")
        if current is not None:
            current_ok = False
        i += 1
    finish()
    return result


def _parse_lexicon_line(text, block, lineno, err) -> bool:
    ok = True
    for section in text.split(";"):
        section = section.strip()
        if not section:
            continue
        m = _LEX_SECTION.match(section)
        if not m:
            err(lineno, 1, "MalformedLexiconLine", f"bad lexicon section: {section!r}")
            ok = False
            continue
        lang_name, body = m.groups()
        try:
            lang = Language(lang_name)
        except ValueError:
            err(lineno, 1, "UnknownLanguage", f"unknown language {lang_name!r}")
            ok = False
            continue
        phrases = tuple(p.strip() for p in body.split(",") if p.strip())
        block.lexicon.append((lang, phrases))
    return ok


def serialize(blocks) -> str:
    """Emit blocks in the file format; the output reparses to equal blocks.

    Assertions go one per line in stored order, measures in canonical
    ``NUMBER:unit:value`` form with their numeric text untouched.
    """
    out: list[str] = []
    for block in blocks:
        if out:
            out.append("")
        out.append(f"Object {block.concept}")
        out.append("")
        for lang, phrases in block.lexicon:
            out.append(f"[{lang.value}] " + ", ".join(phrases))
        for a in block.assertions:
            out.append(a.render())
    return "\n".join(out) + "\n"
