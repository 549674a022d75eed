"""Knowledge-base file format: parser and serializer.

A file is a sequence of blocks::

    Object blackout

    [English] power failure, blackout; [French] black out,
    panne de courant
    [ako ^ disaster]
    [duration-of ^ NUMBER:second:3600]

* ``Object``, whitespace, then a name opens a block; it ends at the next
  header, a grid header (``==``), or end of file.
* Lexicon lines start with a bracketed language name; ``;`` separates
  language sections and a trailing comma continues the line onto the next.
* Assertion lines are bracket expressions; an assertion with unbalanced
  brackets continues on following lines.  ``^`` refers to the block's
  concept, ``na`` is the unspecified placeholder, and measures are written
  ``NUMBER:<unit>:<value>`` or as a number with a unit suffix (``.25in``).
* Symbols take ASCII digits, ``-`` after the first character and the
  lowercase ``terms.LETTERS``, numbers ASCII digits, on every interpreter.
* An assertion holds assertions nested at most 100 levels below it; a
  bracket that goes deeper is an error at its position.
* Lines starting with ``;`` are comments.  HTML character entities are
  decoded on ingestion, line by line, after the text is split into lines.
* Every text first loses a leading byte-order mark, and ``\\r\\n`` or a
  lone ``\\r`` ends a line as ``\\n`` does (``normalize_text``).

Parsing is total: bad input produces diagnostics, never an exception.  A
block containing any error is dropped as a whole; parsing continues with
the next block.  Grid blocks are returned as raw sources for the grid
module to parse.
"""

from __future__ import annotations

import html
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
from .terms import DEFAULT_UNITS, LETTERS, NA, Assertion, Measure, ObjectBlock

_NUM_RE = re.compile(r"[+-]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?")
_SUFFIX_RE = re.compile(rf"({_NUM_RE.pattern})([A-Za-z]+)")
_LEX_START = re.compile(r"\[([A-Z][A-Za-z]*)\]")
_LEX_SECTION = re.compile(r"\[([A-Za-z]+)\]\s*(.*)$")
# the table's lowercase letters, a-z and 97 more, whose case no Unicode version changed
_LOWERCASE = "".join(c for c in map(chr, range(ord(LETTERS[-1]) + 1))
                     if c.islower() and re.fullmatch(f"[{LETTERS}]", c))
_SYMBOL_RE = re.compile(f"[0-9{_LOWERCASE}][-0-9{_LOWERCASE}]*")
_LANGUAGES = {lang.value: lang for lang in Language}  # lexicon section name -> language
# how many levels an assertion may nest below the outermost one: every later
# walk of a term (the index, a script view, a snapshot entry's encoder and
# decoder) recurses, so a base that loads stays well inside the interpreter's
# recursion limit
_MAX_DEPTH = 100


def is_symbol(token: str) -> bool:
    """Whether a token is a symbol: an ASCII digit or a lowercase letter of
    ``terms.LETTERS`` (``é``, ``œ`` for French-derived names), then any of
    these or ``-``.  No Unicode table of the interpreter decides it."""
    return _SYMBOL_RE.fullmatch(token) is not None


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
    """Line and column of token ``token`` of ``_tokens(text)``; only errors need it."""
    idx = end = 0  # only whitespace separates tokens: each is its text's next match
    for tok in _tokens(text)[:token + 1]:
        idx = text.index(tok, end)
        end = idx + len(tok)
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
    return _parse_assertion(text, self_concept, line, {}, {}, {}, {})


def _tokens(text: str) -> list[str]:
    """Each bracket, and each run of other characters that are not whitespace."""
    return text.replace("[", " [ ").replace("]", " ] ").split()


def _parse_assertion(text, self_concept, line, predicates, atoms, values,
                     mentions) -> Assertion:
    """``parse_assertion`` with tables of the tokens already classified, which
    it extends: predicates, symbol arguments, and ``na`` and measure
    arguments.  A token that fails to classify is not stored, so it raises
    again wherever it appears.  Each symbol the assertion names (``^`` as
    ``self_concept``) that ``mentions`` lacks is added to it with ``line``,
    in preorder.  A ``[`` nested more than ``_MAX_DEPTH`` levels below the
    outermost one raises at its position."""
    toks = _tokens(text)
    if not toks or toks[0] != "[":
        raise KbSyntaxError("assertion must start with '['", line, 1)
    # the innermost open node as [predicate, *args] with the token index of
    # its '['; `outer` holds the nodes around it, `parts` is None once closed;
    # an error is reported at token `at`
    open_at, parts, outer = 0, [], []
    try:
        for at in range(1, len(toks)):
            tok = toks[at]
            if parts:
                # an argument: a known symbol costs one lookup; brackets and
                # '^' are never stored, so they are tested only on a miss
                atom = atoms.get(tok)
                if atom is not None:
                    parts.append(atom)
                    if atom not in mentions:
                        mentions[atom] = line
                elif tok == "[":
                    outer.append((open_at, parts))
                    open_at, parts = at, []
                    if len(outer) > _MAX_DEPTH:
                        raise KbSyntaxError(
                            f"assertion nested more than {_MAX_DEPTH} levels deep")
                elif tok == "]":
                    if len(parts) < 2:
                        at = open_at
                        raise KbSyntaxError(
                            f"assertion [{parts[0]}] needs at least one argument")
                    node = Assertion(parts[0], tuple(parts[1:]))
                    if outer:
                        open_at, parts = outer.pop()
                        parts.append(node)
                    else:
                        parts = None
                elif tok == "^":
                    # resolved per block, so never stored in a table
                    if self_concept is None:
                        raise SelfRefWithoutContext("'^' used without an enclosing block")
                    parts.append(self_concept)
                    if self_concept not in mentions:
                        mentions[self_concept] = line
                else:
                    atom = values.get(tok)
                    if atom is None:
                        atom = _classify_atom(tok)
                        if atom.__class__ is str:
                            # interned, as predicates and block names are, so
                            # the sections of a snapshot entry, each decoded
                            # on its own, share one string per symbol
                            atoms[tok] = atom = sys.intern(atom)
                            if atom not in mentions:
                                mentions[atom] = line
                        else:
                            values[tok] = atom
                    parts.append(atom)
            elif parts is None:
                raise KbSyntaxError(f"unexpected trailing {tok!r}")
            else:
                predicate = predicates.get(tok)
                if predicate is None:
                    if not is_symbol(tok):
                        raise KbSyntaxError(f"expected a predicate symbol, got {tok!r}")
                    predicate = predicates[tok] = sys.intern(tok)
                parts.append(predicate)
                if predicate not in mentions:
                    mentions[predicate] = line
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
    if m and m[2] in DEFAULT_UNITS:
        return Measure(m[2], m[1])
    if is_symbol(val):
        return val
    if m:
        raise UnknownUnit(f"unknown unit {m[2]!r} in {val!r}")
    if _NUM_RE.fullmatch(val):
        raise MalformedNumber(f"number without a unit: {val!r}")
    raise KbSyntaxError(f"invalid token {val!r}")


# -- whole-file parsing -------------------------------------------------------


def _is_header(line: str) -> bool:
    """Whether a stripped line is a header: ``Object`` alone or before whitespace."""
    return line[:6] == "Object" and (len(line) == 6 or line[6].isspace())


def _ends_item(line: str) -> bool:
    """Whether a stripped line ends a continued item: blank, ``;``, ``==`` or a header."""
    return not line or line[0] == ";" or line[:2] == "==" or _is_header(line)


@dataclass(frozen=True)
class GridSource:
    """Raw text of one grid block, for the grid module to parse."""

    text: str
    line: int
    file: str


@dataclass
class ParseResult:
    file: str
    blocks: list[ObjectBlock] = field(default_factory=list)
    grid_sources: list[GridSource] = field(default_factory=list)
    diagnostics: list[Diagnostic] = field(default_factory=list)
    # each symbol the kept blocks' assertions name (as a predicate, an
    # argument or through '^') -> the line of the first assertion naming it,
    # in the order a preorder walk of the file first meets them
    first_mentions: dict[str, int] = field(default_factory=dict)


def normalize_text(text: str) -> str:
    """The text rule of every loader, applied before entities are decoded."""
    text = text.removeprefix("\ufeff")
    return text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text


def _unescape(line: str) -> str:
    """A line with its HTML character entities decoded; a decoded line break
    reads as a space, so it stays inside its line and every later position
    stays true."""
    return html.unescape(line).replace("\n", " ")


def parse_database(text: str, *, filename: str = "<kb>") -> ParseResult:
    """Parse a whole knowledge-base document.  A lexicon line or an
    assertion before the first ``Object`` header is an ``OrphanContent``
    error."""
    # fresh token tables: predicates, symbol arguments, na and measures
    return _parse_database(text, filename, {}, {}, {})


def _parse_database(text, filename, predicates, atoms, values) -> ParseResult:
    """``parse_database`` with the token tables ``_parse_assertion`` reads
    and extends.  ``KnowledgeBase.from_texts`` passes one set of tables to
    every file it parses, so a token the files share is classified in the
    first file that holds it.  A token that fails to classify is never
    stored, so each file still reports it at its own position."""
    lines = normalize_text(text).split("\n")
    if "&" in text:
        lines = [_unescape(line) if "&" in line else line for line in lines]
    result = ParseResult(filename)

    current: ObjectBlock | None = None
    current_ok = True
    mentions = result.first_mentions  # the current block's are added last
    kept = 0  # how many of them the kept blocks made

    def err(lineno, col, code, message):
        result.diagnostics.append(Diagnostic(filename, lineno, col, ERROR, code, message))

    def finish():
        nonlocal current, current_ok, kept
        if current is not None and current_ok:
            result.blocks.append(current)
        else:  # a dropped block names nothing
            for _ in range(len(mentions) - kept):
                mentions.popitem()
        kept = len(mentions)
        current = None
        current_ok = True

    i, n = 0, len(lines)
    while i < n:
        raw = lines[i]
        lineno = i = i + 1  # lines[i] is now the next line
        stripped = raw.strip()
        if stripped[:1] == "[":
            # a lexicon line starts with a capitalized language name
            if "A" <= stripped[1:2] <= "Z" and _LEX_START.match(stripped):
                if current is None:
                    err(lineno, 1, "OrphanContent", "lexicon line outside an Object block")
                    continue
                parts = [stripped]
                while parts[-1].endswith(",") and i < n \
                        and not _ends_item(nxt := lines[i].strip()) and nxt[0] != "[":
                    parts.append(nxt)
                    i += 1
                if not _parse_lexicon_line(" ".join(parts), current, lineno, err):
                    current_ok = False
                continue
            # an assertion: a balanced line, the common case, is parsed as it
            # stands; an unbalanced one continues until it balances
            chunk = raw
            depth = raw.count("[") - raw.count("]")
            if depth > 0:
                chunk_lines = [raw]
                while depth > 0 and i < n and not _ends_item(nxt := lines[i].strip()):
                    chunk_lines.append(lines[i])
                    depth += nxt.count("[") - nxt.count("]")
                    i += 1
                chunk = "\n".join(chunk_lines)
            if depth > 0:
                err(lineno, 1, "UnbalancedBracket", "assertion is missing a closing ']'")
            elif depth < 0:
                err(lineno, 1, "UnbalancedBracket", "unmatched ']'")
            elif current is None:
                err(lineno, 1, "OrphanContent", "assertion outside an Object block")
                continue
            else:
                try:
                    current.assertions.append(_parse_assertion(
                        chunk, current.concept, lineno, predicates, atoms, values, mentions))
                    current.assertion_lines.append(lineno)
                    continue
                except PositionedError as e:
                    err(e.line or lineno, e.col or 1, type(e).__name__, e.message)
            if current is not None:
                current_ok = False
            continue
        if not stripped or stripped[0] == ";":
            continue
        if stripped.startswith("=="):
            j = i
            while j < n and lines[j].strip():
                j += 1
            finish()
            result.grid_sources.append(GridSource("\n".join(lines[i - 1:j]), lineno, filename))
            i = j
            continue
        if _is_header(stripped):
            finish()
            words = stripped.split()
            if len(words) == 2 and is_symbol(words[1]):
                current = ObjectBlock(sys.intern(words[1]), line=lineno, file=filename)
            else:
                err(lineno, 1, "MalformedHeader", f"bad Object header: {stripped!r}")
                current = ObjectBlock("invalid", line=lineno, file=filename)
                current_ok = False
            continue
        err(lineno, 1, "UnrecognizedLine", f"unrecognized line: {stripped!r}")
        if current is not None:
            current_ok = False
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
        lang = _LANGUAGES.get(lang_name)
        if lang is None:
            err(lineno, 1, "UnknownLanguage", f"unknown language {lang_name!r}")
            ok = False
            continue
        # each run of whitespace inside a phrase becomes one space, the way
        # activation joins the words of a text
        phrases = tuple(filter(None, map(str.strip, " ".join(body.split()).split(","))))
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
