"""Parse each knowledge-base file once: a cache of parse results beside the sources.

``KnowledgeBase.from_paths`` reads every file through :func:`parse_file`.
It decodes the file's UTF-8 bytes as they are and leaves the text rule
(``parser.normalize_text``) to the parser, as ``from_texts`` does.

A file's parse result is kept in an entry at
``<dir>/__pycache__/<file name>.<cache tag>.kbc``, next to where Python
keeps a module's bytecode, and a later load decodes the entry instead of
parsing the text again.  An entry answers only when its header matches:

* a magic string and ``sys.version``;
* a fingerprint of the bytes of every ``scriptkb/*.py`` module, computed
  once per process, so any change to the code retires every entry;
* the source's size in bytes and its ``importlib.util.source_hash``;
* the source's inode number and status-change time (``st_ctime_ns``), which
  a user cannot set: a copy of the file, or one unpacked from an archive or
  checked out, has new ones, so an entry that arrives with its source never
  answers for it;
* the ``source_hash`` of the payload that follows, so a damaged entry is
  found before it is decoded.

An entry is read only when it is the current user's alone: owned by the
effective user and writable by neither group nor others, as ssh treats its
files.  An entry is written with the source's read permissions, so it shows
no one a text they cannot read.  Where files have no owners (no
``os.geteuid``) no entry is kept.

An entry that is not read or whose header does not match is ignored: the
file is parsed and the entry written again.  An entry is written
atomically, to a temporary file in the same directory that then replaces
it, and a write that fails is skipped, so a read-only directory only costs
the cache.  Deleting ``__pycache__`` clears the entries.

The payload is ``marshal`` data of plain values.  An assertion is the
tuple ``(predicate, *args)``, a measure the list ``[unit, text]``, ``na``
is ``None`` and a symbol is its string; lexicon languages are stored by
value.  Nothing holds the file name: blocks, grid sources and diagnostics
get the path as the caller gave it when an entry is decoded, so one entry
serves a file named by any path.
"""

from __future__ import annotations

import contextlib
import functools
import marshal
import os
import sys
from importlib.util import source_hash
from pathlib import Path

from .diagnostics import Diagnostic
from .errors import KbError
from .parser import _LANGUAGES, GridSource, ParseResult, _parse_database
from .terms import NA, Assertion, Measure, ObjectBlock

_MAGIC = b"scriptkb parse cache 1\0"


def source_text(data: bytes, path) -> str:
    """A file's text from its UTF-8 bytes, as they are: the parser applies the
    text rule (``parser.normalize_text``).  Undecodable bytes raise a KbError
    naming the file."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as e:
        raise KbError(f"{path}: {e}") from e


@functools.cache
def _code_key() -> bytes:
    """The header's magic, interpreter and code parts, the same for every entry
    this process reads or writes."""
    modules = sorted(Path(__file__).parent.glob("*.py"))
    code = b"\0".join(part for p in modules for part in (p.name.encode(), p.read_bytes()))
    return _MAGIC + sys.version.encode() + b"\0" + source_hash(code)


def _entry_path(path: str) -> str | None:
    tag = sys.implementation.cache_tag
    # no entry where the interpreter keeps no bytecode cache, or where an
    # entry's owner cannot be checked
    if tag is None or not hasattr(os, "geteuid"):
        return None
    head, name = os.path.split(path)
    return os.path.join(head, "__pycache__", f"{name}.{tag}.kbc")


def _file_id(st: os.stat_result) -> bytes:
    """The header's part that no copy of the file shares: its inode number and
    status-change time."""
    return st.st_ino.to_bytes(16, "little") + st.st_ctime_ns.to_bytes(8, "little", signed=True)


def parse_file(path, tables) -> ParseResult:
    """Parse one file with the load's token tables, or decode its cache entry.

    ``tables`` are the predicate, symbol and value tables that
    ``parser._parse_database`` reads and extends; a decoded entry leaves them
    as they are.  Reading the file raises ``OSError``, and a file that is not
    UTF-8 raises a ``KbError`` naming it and writes no entry."""
    filename = str(path)
    with open(path, "rb") as f:
        source = os.fstat(f.fileno())
        data = f.read()
    key = (_code_key() + _file_id(source) + len(data).to_bytes(8, "little")
           + source_hash(data))
    entry = _entry_path(filename)
    if entry is not None:
        cached = _read_entry(entry)
        payload = memoryview(cached)[len(key) + 8:]
        if cached.startswith(key) and cached[len(key):len(key) + 8] == source_hash(payload):
            try:
                return _decode(marshal.loads(payload), filename)
            except RecursionError:  # decoding runs deeper than encoding ran
                pass
    result = _parse_database(source_text(data, filename), filename, *tables)
    if entry is not None:
        _store(entry, key, result, source.st_mode)
    return result


def _read_entry(entry: str) -> bytes:
    """The entry's bytes, or none when it is missing, unreadable, owned by
    another user, or writable by group or others."""
    try:
        with open(entry, "rb") as f:
            st = os.fstat(f.fileno())
            if st.st_uid != os.geteuid() or st.st_mode & 0o022:
                return b""
            return f.read()
    except OSError:
        return b""


def _store(entry: str, key: bytes, result: ParseResult, source_mode: int) -> None:
    """Write an entry through a temporary file in its directory, readable by
    whom the source is readable by and writable by its owner only.  A
    failure leaves no file behind and raises nothing, and a directory that
    takes no file costs no encoding."""
    tmp = f"{entry}.{os.getpid()}.{id(result)}.tmp"
    try:
        os.makedirs(os.path.dirname(entry), exist_ok=True)
        f = open(os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL,
                         source_mode & 0o644 | 0o600), "wb")
    except OSError:
        return
    try:
        with f:
            payload = marshal.dumps(_encode(result))
            f.write(key + source_hash(payload) + payload)
        os.replace(tmp, entry)
    except (OSError, ValueError, RecursionError):  # the last two: nested too deeply to store
        with contextlib.suppress(OSError):
            os.unlink(tmp)


# -- payload ---------------------------------------------------------------------


def _encode_assertion(a):
    args = a.args
    for arg in args:
        if arg.__class__ is not str:
            return (a.predicate, *map(_encode_term, args))
    return (a.predicate,) + args


def _encode_term(term):
    cls = term.__class__
    if cls is str:
        return term
    if cls is Assertion:
        return _encode_assertion(term)
    if cls is Measure:
        return [term.unit, term.text]
    return None  # na


def _encode(result: ParseResult):
    blocks = [(b.concept, b.line, [(lang.value, phrases) for lang, phrases in b.lexicon],
               list(map(_encode_assertion, b.assertions)), b.assertion_lines, symbols, lines)
              for b, (symbols, lines) in zip(result.blocks, result.first_mentions)]
    grids = [(g.text, g.line) for g in result.grid_sources]
    diagnostics = [(d.line, d.col, d.severity, d.code, d.message) for d in result.diagnostics]
    return blocks, grids, diagnostics


def _decode(payload, filename: str) -> ParseResult:
    blocks, grids, diagnostics = payload
    measures: dict[tuple, Measure] = {}  # one Measure per distinct (unit, text) in the file

    def term(t):
        cls = t.__class__
        if cls is str:
            return t
        if cls is tuple:
            return Assertion(t[0], tuple([a if a.__class__ is str else term(a)
                                          for a in t[1:]]))
        if t is None:
            return NA
        key = (t[0], t[1])
        m = measures.get(key)
        if m is None:
            m = measures[key] = Measure(*key)
        return m

    result = ParseResult()
    for concept, line, lexicon, assertions, assertion_lines, symbols, lines in blocks:
        result.blocks.append(ObjectBlock(
            concept, [(_LANGUAGES[lang], phrases) for lang, phrases in lexicon],
            [term(a) for a in assertions], line, filename, assertion_lines))
        result.first_mentions.append((symbols, lines))
    result.grid_sources = [GridSource(text, line, filename) for text, line in grids]
    result.diagnostics = [Diagnostic(filename, *d) for d in diagnostics]
    return result
