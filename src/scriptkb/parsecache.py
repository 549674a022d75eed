"""Load each set of knowledge-base files once: a snapshot of the assembled base
beside the sources.

``KnowledgeBase.from_paths`` reads every file of its load set and hashes it
on every load.  It decodes each file's UTF-8 bytes as they are and leaves
the text rule (``parser.normalize_text``) to the parser, as ``from_texts``
does.

The assembled base of an ordered load set is kept in one entry at
``<dir>/__pycache__/<first file name>.<set hash>.<cache tag>.kbs``, beside
the first file, where the set hash is of the files' absolute paths in
order, so the same set named by relative or absolute paths finds the same
entry.  A later load of the set decodes the entry instead of parsing and
assembling the files again.  An entry answers only when its header matches:

* a magic string and ``sys.version``;
* a fingerprint of the package's ``.py`` (or, sourceless, ``.pyc``) module
  files, taken once per process, so any change to the code retires every
  entry, and no entry is kept where there are none to read (a zip import);
* for each file, in order: its inode number and status-change time
  (``st_ctime_ns``), which a user cannot set, so an entry that arrives with
  its sources (a copy, an archive, a checkout) never answers for them; its
  size in bytes; and the ``importlib.util.source_hash`` of its bytes;
* a CRC-32 of the payload that follows, so a damaged entry is found before
  any of it is decoded.

Editing any file of the set retires the entry, and the next load parses
every file of the set.

An entry is read only when it is the current user's alone: owned by the
effective user and writable by neither group nor others, as ssh treats its
files.  An entry is written readable and writable by its owner alone: it
holds the text of every file of the set, which may sit in directories
others cannot enter, and no other user would read it anyway.  Where files
have no owners (no ``os.geteuid``) no entry is kept.

An entry that is not read or whose header does not match is ignored: the
files are parsed and the entry written again.  A load that raises writes
no entry.  An entry is written atomically, to a temporary file in the same
directory that then replaces it, and a write that fails is skipped, so a
read-only directory only costs the cache.  Deleting ``__pycache__`` clears
the entries.

The payload is a series of sections, then a head, then the head's size.
The head and each section are ``marshal`` data of plain values (see
``KnowledgeBase._snapshot``).  A load checks the payload's CRC-32 a
chunk at a time, decodes the head, which gives each section's span by
name, and keeps the entry open rather than a copy of its payload.  The
sections of the hierarchy, the script names and census totals, and the
grids are read from the file when the base is made; every other section,
when a query first reads it: the error diagnostics and the whole
diagnostics list, the census rows, each language's phrase, reach and
lexicon tables, each subject's field assertions (``SectionTable`` serves
both of these), the index, and the blocks with the list of their spans.
So a base holds only what its queries decoded.  A writer replaces an entry
and never changes one in place, so a base goes on reading the entry it
checked after a later write replaces it or ``__pycache__`` is deleted; the
file is closed when the base is freed.  Sections are written to the entry
as they are made, so writing one never holds the whole payload either.  In
a section, an assertion is the tuple ``(predicate, *args)``, a measure the
list ``[unit, text]``, ``na`` is ``None`` and a symbol is its string; a
block holds each of its field assertions as the assertion's subject, and
its lexicon languages by value.  No part holds a file name: each file is stored as its index in the
set, and gets the path as the caller gave it when it is decoded.
"""

from __future__ import annotations

import contextlib
import functools
import marshal
import os
import sys
import threading
import weakref
import zlib
from importlib.util import source_hash
from pathlib import Path

from .errors import KbError
from .parser import _LANGUAGES
from .terms import FIELDS, NA, Assertion, Measure, ObjectBlock

_MAGIC = b"scriptkb snapshot 1\0"
_CHUNK = 1 << 18  # bytes of the payload read at a time for its CRC-32


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
    this process reads or writes; empty, so no entry is kept, where the package
    directory holds no module file to read, as in a zip import."""
    modules = sorted(p for p in Path(__file__).parent.glob("*.py*") if p.suffix in (".py", ".pyc"))
    code = b"\0".join(part for p in modules for part in (p.name.encode(), p.read_bytes()))
    return _MAGIC + sys.version.encode() + b"\0" + source_hash(code) if modules else b""


def _file_id(st: os.stat_result) -> bytes:
    """The header's part that no copy of a file shares: its inode number and
    status-change time."""
    return st.st_ino.to_bytes(16, "little") + st.st_ctime_ns.to_bytes(8, "little", signed=True)


class Sources:
    """The files of one ordered load set, each read once: their bytes, the
    header their entry must carry, and where that entry lives.

    Reading a file raises ``OSError``."""

    def __init__(self, files: list[str]):
        self.files = files
        self.data: list[bytes] = []
        key = [_code_key()]
        for name in files:
            with open(name, "rb") as f:
                st = os.fstat(f.fileno())
                data = f.read()
            self.data.append(data)
            key.append(_file_id(st) + len(data).to_bytes(8, "little") + source_hash(data))
        self.key = b"".join(key)
        self.entry = _entry_path(files)

    def texts(self):
        """(name, text) pairs of the files, each decoded when it is reached and
        its bytes then let go; a file that is not UTF-8 raises a KbError
        naming it."""
        data, self.data = self.data, []
        data.reverse()
        for name in self.files:
            yield name, source_text(data.pop(), name)

    def read(self):
        """The entry's head and the open ``Entry`` whose spans the head's
        sections name, when the entry is the user's alone and its header
        matches; else None."""
        if self.entry is None:
            return None
        try:
            fd = os.open(self.entry, os.O_RDONLY)
        except OSError:
            return None
        try:
            head = self._check(fd)
        except OSError:
            head = None
        if head is None:
            os.close(fd)
            return None
        return head, Entry(fd, len(self.key) + 4)

    def _check(self, fd: int):
        """The head of the open entry, when it is the user's alone and its
        key and payload CRC-32 match; else None.  The payload is read a
        chunk at a time, so no copy of it is kept."""
        st = os.fstat(fd)
        if st.st_uid != os.geteuid() or st.st_mode & 0o022:
            return None
        n = len(self.key)
        with open(fd, "rb", buffering=0, closefd=False) as f:
            header = f.read(n + 4)
            if header[:n] != self.key:
                return None
            buf = memoryview(bytearray(_CHUNK))
            crc, end = 0, n + 4
            while got := f.readinto(buf):
                crc = zlib.crc32(buf[:got], crc)
                end += got
        if header[n:] != crc.to_bytes(4, "little"):
            return None
        size = int.from_bytes(os.pread(fd, 8, end - 8), "little")
        return marshal.loads(os.pread(fd, size, end - 8 - size))

    def write(self, make_head) -> None:
        """Write the entry through a temporary file in its directory, readable
        and writable by its owner alone.

        ``make_head(section)`` makes the head to store; ``section(value)``
        writes a value as a section and returns its span.  It is called only
        once the temporary file is open, so a directory that takes no file
        costs no encoding, and each section goes to the file as it is made,
        so the whole payload is never held at once.  A failure leaves no file
        behind and raises nothing."""
        if self.entry is None:
            return
        tmp = f"{self.entry}.{os.getpid()}.{threading.get_ident()}.tmp"
        try:
            os.makedirs(os.path.dirname(self.entry), exist_ok=True)
            f = open(os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o600), "wb")
        except OSError:
            return
        try:
            with f:
                f.write(self.key + bytes(4))
                out = _Payload(f)
                head = marshal.dumps(make_head(out.section))
                out.put(head)
                out.put(len(head).to_bytes(8, "little"))
                f.seek(len(self.key))
                f.write(out.crc.to_bytes(4, "little"))
            os.replace(tmp, self.entry)
        except OSError:
            with contextlib.suppress(OSError):
                os.unlink(tmp)


class Entry:
    """The payload of an open snapshot entry: ``entry[start:end]`` reads the
    bytes of that span from the file.  The file is closed when the last
    reference to the entry goes."""

    __slots__ = ("_fd", "_start", "__weakref__")

    def __init__(self, fd: int, start: int):
        self._fd, self._start = fd, start
        weakref.finalize(self, os.close, fd)

    def __getitem__(self, span: slice) -> bytes:
        return os.pread(self._fd, span.stop - span.start, self._start + span.start)


class _Payload:
    """A payload written to a file part by part, with its size and CRC-32 so
    far: sections, then the head, then the head's size."""

    def __init__(self, f):
        self.f, self.size, self.crc = f, 0, 0

    def put(self, data: bytes) -> tuple[int, int]:
        self.f.write(data)
        self.crc = zlib.crc32(data, self.crc)
        self.size += len(data)
        return self.size - len(data), self.size

    def section(self, value) -> tuple[int, int]:
        """Write a value as a section; returns its span in the payload."""
        return self.put(marshal.dumps(value))


def _entry_path(files: list[str]) -> str | None:
    tag = sys.implementation.cache_tag
    # no entry where the interpreter keeps no bytecode cache, where an entry's
    # owner cannot be checked, or where the code has no fingerprint
    if not files or tag is None or not hasattr(os, "geteuid") or not _code_key():
        return None
    head, name = os.path.split(files[0])
    digest = source_hash(b"\0".join(os.fsencode(os.path.abspath(p)) for p in files)).hex()
    return os.path.join(head, "__pycache__", f"{name}.{digest}.{tag}.kbs")


# -- sections --------------------------------------------------------------------


def encode_assertion(a):
    """An assertion as the plain value a section stores."""
    args = a.args
    for arg in args:
        if arg.__class__ is not str:
            break
    else:
        return (a.predicate, *args)
    out = [a.predicate]
    for t in args:
        cls = t.__class__
        if cls is str:
            out.append(t)
        elif cls is Assertion:
            out.append(encode_assertion(t))
        elif cls is Measure:
            out.append([t.unit, t.text])
        else:  # na
            out.append(None)
    return tuple(out)


def _term_decoder():
    """A decoder of stored terms that makes one Measure per distinct
    (unit, text) it meets."""
    measures: dict[tuple, Measure] = {}

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

    return term


def encode_blocks(blocks, fields, at: dict[str, int], section) -> list[tuple[int, int]]:
    """Write each block as a section, its file as ``at[file]``; returns their
    spans.  A block's field assertion is stored as its subject alone: it is
    the subject's next assertion in ``fields``, which holds them in block
    order, so no assertion is stored twice."""
    met: dict[str, int] = {}  # subject -> its field assertions stored so far
    spans = []
    for b in blocks:
        stored = []
        for a in b.assertions:
            subject = a.args[0]
            own = fields.get(subject) if a.predicate in FIELDS else None
            i = met.get(subject, 0) if own else 0
            if own and i < len(own) and own[i] is a:
                met[subject] = i + 1
                stored.append(subject)
            else:
                stored.append(encode_assertion(a))
        spans.append(section((b.concept, [(lang.value, phrases) for lang, phrases in b.lexicon],
                              stored, b.line, at[b.file], b.assertion_lines)))
    return spans


def decode_blocks(payload, spans, files: list[str], fields) -> list[ObjectBlock]:
    """The blocks stored in the payload's sections at ``spans``, which follow
    one another and are read at once; a field assertion is the one
    ``fields`` holds, so blocks and fields share it, as they do in a parsed
    base."""
    if not spans:
        return []
    first = spans[0][0]
    data = memoryview(payload[first:spans[-1][1]])
    term = _term_decoder()
    taken: dict[str, int] = {}  # subject -> its field assertions read so far
    blocks = []
    for start, end in spans:
        concept, lexicon, stored, line, file, lines = marshal.loads(
            data[start - first:end - first])
        assertions = []
        for t in stored:
            if t.__class__ is str:
                i = taken.get(t, 0)
                taken[t] = i + 1
                assertions.append(fields[t][i])
            else:
                assertions.append(term(t))
        blocks.append(ObjectBlock(
            concept, [(_LANGUAGES[lang], phrases) for lang, phrases in lexicon],
            assertions, line, files[file], lines))
    return blocks


class SectionTable(dict):
    """Key -> its value, which a base read from a snapshot entry decodes from
    the key's section of the entry's payload on the key's first read and
    then records, so a later read is a plain dict lookup.  ``decode(data)``
    makes the value of a section's bytes.  A key with no section reads as
    ``()``, recorded too: a parsed base's table has no sections, so it reads
    a subject with no field assertions as ``()``.

    Each subject's field assertions and each language's lexicon tables are
    such tables, so a query decodes only the subjects and languages it
    reads."""

    __slots__ = ("payload", "spans", "decode")

    def __init__(self, payload=None, spans=None, decode=marshal.loads):
        super().__init__()
        self.payload = payload
        self.spans: dict = spans or {}
        self.decode = decode

    def __missing__(self, key):
        span = self.spans.get(key)
        value = () if span is None else self.decode(self.payload[span[0]:span[1]])
        # setdefault: a thread that decoded it meanwhile keeps its value
        return self.setdefault(key, value)


def decode_assertions(data: bytes) -> list[Assertion]:
    """The assertions stored in a section's bytes."""
    term = _term_decoder()
    return [term(a) for a in marshal.loads(data)]
