"""A fixed pure-Python kernel that tracks the speed of the machine.

The VM the benchmark was built on switched between a fast and a slow
state, from several times a second to once in minutes, and the slow state
moved a pure-Python loop by up to 70% and the program by 30-40%.  The
worker runs this kernel between ops, about every 25 ms, and scales each
op's time by ``REF_NS`` over the mean kernel time within 0.25 s of the op,
so a timed metric reads as it would on a machine where the kernel takes
``REF_NS``.  The kernel does the kind of work the program does:
splitting and slicing lines, dict and set lookups in a table of 30k keys,
sorting and small allocations.  It never imports ``scriptkb``, so no
change to the program moves it.
"""

from __future__ import annotations

import time

REF_NS = 1_000_000  # the kernel's time on the reference machine

_KEYS = [f"k{i * 7919 % 100003:06d}" for i in range(30000)]
_TABLE = {k: i for i, k in enumerate(_KEYS)}
_LINES = [f"  (event{i % 12:02d}-of script{i % 97} [y {k}])  "
          for i, k in enumerate(_KEYS[::29])]


def kernel() -> int:
    total = 0
    for line in _LINES:
        head, _, rest = line.strip().strip("()").partition(" ")
        words = rest.split()
        total += len(words) + len(head)
        total += _TABLE.get(words[-1][:-2], 0) & 1
    groups: dict[str, set] = {}
    for k in _KEYS[::20]:
        groups.setdefault(k[-2:], set()).add(k)
    ranked = sorted((len(v), k) for k, v in groups.items())
    return total + len(ranked)


def sample() -> int:
    """One run of the kernel, in ns."""
    t = time.perf_counter_ns()
    kernel()
    return time.perf_counter_ns() - t
