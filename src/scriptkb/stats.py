"""Per-script census and database-level averages.

There is one row per concept of ``KnowledgeBase.script_concepts()``.  Rows
count a script's own assertions only (no inheritance), and leave out the
malformed ones its script view leaves out: events (gotos included, since
they are event assertions), roles, places, and "other" = entry conditions +
results + goals + emotions + duration + period + cost + role scripts.
Loading counts them in its pass over the assertions and stores each
script's row and each column's total, so a census reads no assertion and
builds no row, and the averages read no row.  Published
figures for well-known databases ship alongside so local numbers can be
read in context.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, fields

from .errors import EmptyDatabase
from .kb import CensusRow, KnowledgeBase


@dataclass(frozen=True)
class SummaryRow:
    scripts: int
    avg_subevents: float
    avg_roles: float
    avg_places: float
    avg_other: float


@dataclass(frozen=True)
class ReferenceRow:
    """A published census row, kept as display strings to preserve the
    precision the figures were reported with."""

    name: str
    scripts: str
    subevents: str
    roles: str
    places: str
    other: str


PUBLISHED = (
    ReferenceRow("Cyc", "185", "1.71", "0.032", "0.092", "15.76"),
    ReferenceRow("FrameNet", "20", "0", "4.94", "0", "0"),
    ReferenceRow("Gordon's EPs", "768", "3.12", "6.14", "1.71", "1.29"),
    ReferenceRow("ThoughtTreasure", "93", "8.57", "5.30", "0.86", "6.10"),
    ReferenceRow("WordNet 1.6", "427", "1.06", "0", "0", "0"),
)


def census(kb: KnowledgeBase) -> list[CensusRow]:
    """One row per script concept, name ascending, in a new list."""
    return list(kb._census)


def summary(kb: KnowledgeBase) -> SummaryRow:
    """Averages over the base's census: its row count and the column totals
    loading keeps."""
    n = len(kb._census)
    if not n:
        raise EmptyDatabase("no scripts loaded; averages are undefined")
    return SummaryRow(n, *(total / n for total in kb._census_totals))


# -- rendering ----------------------------------------------------------------

_COMPARISON_HEADER = ("Name", "Scripts (#)", "Subevents (#/script)",
                      "Roles (#/script)", "Places (#/script)", "Other (#/script)")


def _cells(r: CensusRow) -> tuple:
    """A row's values, read by name: ``dataclasses.astuple`` would deep-copy
    each one."""
    return r.script, r.subevents, r.roles, r.places, r.other


def _averages(s: SummaryRow) -> list[str]:
    """A summary's averages, two decimals each."""
    return [f"{v:.2f}" for v in (s.avg_subevents, s.avg_roles, s.avg_places, s.avg_other)]


def format_census(rows) -> str:
    header = tuple(f.name.capitalize() for f in fields(CensusRow))
    return _align([header] + [tuple(map(str, _cells(r))) for r in rows])


def format_comparison(local: SummaryRow) -> str:
    table = [_COMPARISON_HEADER]
    table.append(("local database", str(local.scripts), *_averages(local)))
    for row in PUBLISHED:
        table.append((f"{row.name} (published)", row.scripts, row.subevents, row.roles,
                      row.places, row.other))
    return _align(table)


def census_csv(kb: KnowledgeBase) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow([f.name for f in fields(CensusRow)])
    rows = census(kb)
    writer.writerows(map(_cells, rows))
    if rows:
        s = summary(kb)
        writer.writerow([])
        writer.writerow([f.name for f in fields(SummaryRow)])
        writer.writerow([s.scripts, *_averages(s)])
    return out.getvalue()


def _align(table) -> str:
    widths = [max(len(row[i]) for row in table) for i in range(len(table[0]))]
    lines = []
    for row in table:
        cells = [row[0].ljust(widths[0])]
        cells += [row[i].rjust(widths[i]) for i in range(1, len(row))]
        lines.append("  ".join(cells).rstrip())
    return "\n".join(lines)
