"""Tables read a key at a time: ``KeyedTable``.

A keyed table of a base read from a snapshot entry (``parsecache``) is
stored as hash buckets, which ``KeyedTable.write`` writes and a table read
from the entry reads.  A key's bucket is the CRC-32 of its UTF-8 bytes
modulo the table's bucket count, and the count follows from the table's
size: ``BUCKET_KEYS`` keys to a bucket, on average.  A bucket is one
``marshal`` section, with a CRC-32 of its own, of its keys, their values
and their places in the table, in the table's order.
"""

from __future__ import annotations

import marshal
import zlib
from array import array
from itertools import repeat

BUCKET_KEYS = 16  # a keyed table's keys to a bucket, on average


def bucket_count(size: int) -> int:
    """The buckets of a table of ``size`` keys, one at least."""
    return max(1, -(-size // BUCKET_KEYS))


def bucket_of(key: str, count: int) -> int:
    """The bucket of a key in a table of ``count`` buckets."""
    return zlib.crc32(key.encode("utf-8", "surrogatepass")) % count


class KeyedTable(dict):
    """Key -> value, with ``default`` the value of a key the table lacks.

    A table made by loading holds its keys and nothing more, and reads a
    lacking key as the default.  A table read from a snapshot entry starts
    empty: the first read of a key reads the bucket that holds it from the
    open entry (``parsecache.Entry``), which checks its CRC-32, and records
    the bucket's keys and then, when the key is not among them, the key
    with the default, so every later read of either is a plain dict lookup.
    Where stored values need ``decode`` to make them, each is decoded on its
    key's first read, so a query decodes the values of the keys it names
    alone.  So a query reads a key as ``table[key]``; ``in``, ``get``,
    ``len`` and iteration see only what the table holds so far.  ``whole()``
    reads the whole table, and two tables are equal when their whole tables
    are."""

    __slots__ = ("default", "_size", "_offsets", "_crcs", "_entry", "_decode", "_undecoded",
                 "_loaded", "_whole")

    def __init__(self, default=None, size=0, offsets=b"", crcs=b"", entry=None, decode=None):
        super().__init__()
        self.default, self._size, self._entry, self._decode = default, size, entry, decode
        self._offsets = memoryview(offsets).cast("Q")
        self._crcs = memoryview(crcs).cast("I")
        self._loaded = bytearray(len(self._crcs))
        self._undecoded: dict = {}  # key -> its stored value, from a bucket read
        self._whole = None  # the whole table, once read

    def __missing__(self, key):
        if self._entry is None or not isinstance(key, str):
            return self.default
        i = bucket_of(key, len(self._crcs))
        if not self._loaded[i]:
            self._load(i)
        # setdefault: a value another thread recorded meanwhile stays, so
        # the stored value is dropped only once the decoded one is recorded
        stored = self._undecoded.get(key)  # never None for a stored key
        if stored is None:
            return self.setdefault(key, self.default)
        value = self.setdefault(key, self._decode(stored))
        self._undecoded.pop(key, None)
        return value

    def write(self, section, encode=None) -> tuple:
        """Write the whole table as its buckets, each ``section(value)`` of its
        keys, their values as ``encode`` makes them, when given, and their
        places in the table; ``section`` returns the span and CRC-32 of what
        it wrote.  A bucket is encoded as it is written, so no whole encoded
        table is held.  Returns what ``parsecache.Entry.table`` reads the
        table by: its default and size, and its buckets' offsets and CRCs."""
        whole = self.whole()
        keys, values = list(whole), list(whole.values())
        count = bucket_count(len(keys))
        buckets: list[list[int]] = [[] for _ in range(count)]
        for place, i in enumerate(map(bucket_of, keys, repeat(count))):
            buckets[i].append(place)
        offsets, crcs = array("Q"), array("I")
        for places in buckets:
            stored = [values[p] for p in places]
            start, end, crc = section((
                [keys[p] for p in places],
                stored if encode is None else list(map(encode, stored)),
                array("I", places).tobytes()))
            offsets.append(start)
            crcs.append(crc)
        offsets.append(end)
        return self.default, len(keys), offsets.tobytes(), crcs.tobytes()

    def _load(self, i: int):
        """Read the stored bucket ``i`` and, on its first read, record its keys,
        with their values or, where they need decoding, their stored values;
        returns its keys and their places in the table."""
        keys, values, places = marshal.loads(self._entry.read(
            self._offsets[i], self._offsets[i + 1], self._crcs[i]))
        if not self._loaded[i]:
            if self._decode is None:
                for k, v in zip(keys, values):
                    self.setdefault(k, v)
            else:
                self._undecoded.update(zip(keys, values))
            self._loaded[i] = 1
        return keys, memoryview(places).cast("I")

    def whole(self) -> dict:
        """Every key and value, in the table's order; a table read from an
        entry reads each bucket on the first call, and keeps the values it
        holds and the whole table."""
        if self._entry is None:
            return self
        if self._whole is None:
            ordered: list = [None] * self._size
            for i in range(len(self._crcs)):
                keys, places = self._load(i)
                for k, place in zip(keys, places):
                    ordered[place] = (k, self[k])
            self._whole = dict(ordered)
        return self._whole

    def __eq__(self, other):
        if isinstance(other, KeyedTable):
            other = other.whole()
        return dict.__eq__(self.whole(), other)

    def __ne__(self, other):
        equal = self.__eq__(other)
        return equal if equal is NotImplemented else not equal
