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
* a CRC-32 of the head (see below), so a damaged head is found before any
  of it is decoded.

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

The payload is a series of parts, then the head, then the head's size.
Each part is ``marshal`` data of plain values with a CRC-32 of its own,
which the head holds beside its span (see ``KnowledgeBase._snapshot``).
The base's keyed tables are stored as hash buckets (``keyed``): the
parents, the script names, each subject's field assertions, each
language's phrase, reach and lexicon tables, and the index's two maps.  A
key's bucket is the CRC-32 of its UTF-8 bytes modulo the table's bucket
count, which ``keyed.BUCKET_KEYS`` sets from the table's size; a bucket
holds its keys, their values and their places in the table.  The head
holds each table's default value for a key it lacks, its size, and its
buckets' offsets and CRCs as ``array`` bytes.  Every other part is one
section, read whole: the grids, the error diagnostics and the whole
diagnostics list, the census rows, the blocks, and the blocks' sizes.

A load checks and decodes the head, the grids and the error list, and
keeps the entry open rather than a copy of its payload.  A query decodes
only the buckets of the keys it names, and an absent key is answered by
its bucket too; a section is read when a query first reads it.  So a
warm command costs its query, not the size of the base.  A writer replaces
an entry and never changes one in place, so a base goes on reading the
entry it checked after a later write replaces it or ``__pycache__`` is
deleted; the file is closed when the base is freed.

The checksums find damage.  Damage in the header, the head, the grids or
the error list makes the load parse the files and write the entry again.
Damage in a bucket or a section that a later query reads removes the entry
and raises ``DamagedEntry``, a KbError that names it: the query gives no
answer from damaged bytes, and the next load parses.

Parts are written to the entry as they are made, a bucket at a time, so
writing one never holds a whole encoded table.  In a part, an assertion is
the tuple ``(predicate, *args)``, a measure the list ``[unit, text]``,
``na`` is ``None`` and a symbol is its string; a block holds each of its
field assertions as the assertion's subject, and its lexicon languages by
value.  No part holds a file name: each file is stored as its index in the
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
from array import array
from importlib.util import source_hash
from itertools import repeat
from pathlib import Path

from .errors import DamagedEntry, KbError
from .keyed import KeyedTable, bucket_count, bucket_of
from .parser import _LANGUAGES
from .terms import FIELDS, NA, Assertion, Measure, ObjectBlock

_MAGIC = b"scriptkb snapshot 2\0"


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

    def read(self) -> Entry | None:
        """The open entry, its head decoded, when it is the user's alone and
        its key and head CRC-32 match; else None."""
        if self.entry is None:
            return None
        try:
            fd = os.open(self.entry, os.O_RDONLY)
        except OSError:
            return None
        try:
            head = self._head(fd)
        except OSError:
            head = None
        if head is None:
            os.close(fd)
            return None
        return Entry(fd, len(self.key) + 4, head, self.entry)

    def _head(self, fd: int):
        """The head of the open entry, when it is the user's alone and its
        key and the head's CRC-32 match; else None."""
        st = os.fstat(fd)
        if st.st_uid != os.geteuid() or st.st_mode & 0o022:
            return None
        start = len(self.key) + 4
        header = os.pread(fd, start, 0)
        if header[:-4] != self.key or st.st_size < start + 8:
            return None
        size = int.from_bytes(os.pread(fd, 8, st.st_size - 8), "little")
        if size > st.st_size - start - 8:
            return None
        head = os.pread(fd, size, st.st_size - 8 - size)
        if zlib.crc32(head).to_bytes(4, "little") != header[-4:]:
            return None
        return marshal.loads(head)

    def write(self, make_head) -> None:
        """Write the entry through a temporary file in its directory, readable
        and writable by its owner alone.

        ``make_head(payload)`` writes the parts through the ``_Payload`` and
        makes the head to store.  It is called only once the temporary file
        is open, so a directory that takes no file costs no encoding.  A
        failure leaves no file behind and raises nothing."""
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
                head = marshal.dumps(make_head(_Payload(f)))
                f.write(head)
                f.write(len(head).to_bytes(8, "little"))
                f.seek(len(self.key))
                f.write(zlib.crc32(head).to_bytes(4, "little"))
            os.replace(tmp, self.entry)
        except OSError:
            with contextlib.suppress(OSError):
                os.unlink(tmp)


class Entry:
    """An open snapshot entry and its head, which names each part by its
    span in the payload and its CRC-32.  The file is closed when the last
    reference to the entry goes."""

    __slots__ = ("_fd", "_start", "head", "path", "__weakref__")

    def __init__(self, fd: int, start: int, head: dict, path: str):
        self._fd, self._start, self.head, self.path = fd, start, head, path
        weakref.finalize(self, os.close, fd)

    def read(self, start: int, end: int, crc: int) -> bytes:
        """The bytes of a part, read from the file.  A part whose CRC-32 does
        not match removes the entry and raises ``DamagedEntry``."""
        data = os.pread(self._fd, end - start, self._start + start)
        if zlib.crc32(data) != crc:
            self._remove()
            raise DamagedEntry(f"damaged snapshot entry {self.path} removed; "
                               f"the next command parses its files")
        return data

    def section(self, name: str):
        """The value of the section the head names ``name``."""
        return marshal.loads(self.read(*self.head[name]))

    def table(self, name: str, decode=None) -> KeyedTable:
        """The keyed table the head names ``name``, its values made by
        ``decode`` a bucket at a time, when given."""
        return KeyedTable(*self.head[name], entry=self, decode=decode)

    def _remove(self) -> None:
        """Unlink the entry, unless a later write has replaced it."""
        with contextlib.suppress(OSError):
            st, own = os.stat(self.path), os.fstat(self._fd)
            if (st.st_dev, st.st_ino) == (own.st_dev, own.st_ino):
                os.unlink(self.path)


class _Payload:
    """A payload written to a file part by part; each part written returns
    what the head keeps of it."""

    def __init__(self, f):
        self.f, self.size = f, 0

    def section(self, value) -> tuple[int, int, int]:
        """Write a value as a section; returns its span and CRC-32."""
        data = marshal.dumps(value)
        self.f.write(data)
        self.size += len(data)
        return self.size - len(data), self.size, zlib.crc32(data)

    def series(self, values) -> tuple[tuple[int, int, int], bytes]:
        """Write the values one after another, each as it is made, as one
        section; returns its span and CRC-32, and each value's size."""
        start, crc, sizes = self.size, 0, array("Q")
        for value in values:
            data = marshal.dumps(value)
            self.f.write(data)
            crc = zlib.crc32(data, crc)
            sizes.append(len(data))
            self.size += len(data)
        return (start, self.size, crc), sizes.tobytes()

    def table(self, table: KeyedTable, encode=None) -> tuple:
        """Write a table as its buckets, one section each, of its keys, their
        values as ``encode`` makes them, when given, and their places in the
        table; returns the table's default and size, and the buckets'
        offsets and CRCs, as ``Entry.table`` reads them."""
        whole = table.whole()
        keys, values = list(whole), list(whole.values())
        count = bucket_count(len(keys))
        buckets: list[list[int]] = [[] for _ in range(count)]
        for place, i in enumerate(map(bucket_of, keys, repeat(count))):
            buckets[i].append(place)
        offsets, crcs = array("Q"), array("I")
        for places in buckets:
            stored = [values[p] for p in places]
            start, _, crc = self.section((
                [keys[p] for p in places],
                stored if encode is None else list(map(encode, stored)),
                array("I", places).tobytes()))
            offsets.append(start)
            crcs.append(crc)
        offsets.append(self.size)
        return table.default, len(keys), offsets.tobytes(), crcs.tobytes()


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


def encode_assertions(assertions) -> list:
    """A subject's field assertions as the plain value a bucket stores."""
    return [encode_assertion(a) for a in assertions]


def decode_assertions(stored) -> list[Assertion]:
    """A subject's field assertions from their stored value."""
    term = _term_decoder()
    return [term(a) for a in stored]


def encode_blocks(blocks, fields, at: dict[str, int]):
    """Each block as the plain value its part of the blocks section stores,
    its file as ``at[file]``.  A block's field assertion is stored as its
    subject alone: it is the subject's next assertion in ``fields``, which
    holds them in block order, so no assertion is stored twice."""
    met: dict[str, int] = {}  # subject -> its field assertions stored so far
    for b in blocks:
        stored = []
        for a in b.assertions:
            subject = a.args[0]
            own = fields[subject] if a.predicate in FIELDS else None
            i = met.get(subject, 0) if own else 0
            if own and i < len(own) and own[i] is a:
                met[subject] = i + 1
                stored.append(subject)
            else:
                stored.append(encode_assertion(a))
        yield (b.concept, [(lang.value, phrases) for lang, phrases in b.lexicon],
               stored, b.line, at[b.file], b.assertion_lines)


def decode_blocks(data: bytes, sizes: bytes, files: list[str], fields) -> list[ObjectBlock]:
    """The blocks stored one after another in ``data``, each of its size in
    ``sizes``; a field assertion is the one ``fields`` holds, so blocks and
    fields share it, as they do in a parsed base."""
    data = memoryview(data)
    term = _term_decoder()
    taken: dict[str, int] = {}  # subject -> its field assertions read so far
    blocks = []
    start = 0
    for size in memoryview(sizes).cast("Q"):
        concept, lexicon, stored, line, file, lines = marshal.loads(data[start:start + size])
        start += size
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
