"""2-D occupancy grids describing where scripts happen.

A grid block looks like::

    ==hotel-room1//
    wwwwwwwwwwww    b:bed
    wbbbbb    mw    d:lockable-door
    ...

The header names the grid; each following line holds a raster row and,
after a run of four or more spaces, an optional ``key:concept`` legend
entry.  Rows may themselves contain runs of spaces, so the split point is
the first gap whose remainder actually looks like a legend entry.  A line
whose raster part is all spaces contributes only its legend entry.  The
block ends at a blank line.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .diagnostics import ERROR, WARNING, Diagnostic
from .errors import MalformedHeader, OutOfBounds

_LEGEND_GAP = 4  # spaces between a raster row and its legend entry, at least
_GAP_RE = re.compile(" {%d,}" % _LEGEND_GAP)
_LOOSE_ENTRY_RE = re.compile(r"\S*:\S*$")


@dataclass
class Grid:
    name: str
    rows: list[str] = field(default_factory=list)
    legend: dict[str, str] = field(default_factory=dict)
    # raw multi-character legend keys, kept losslessly (semantics unknown)
    extended_keys: dict[str, str] = field(default_factory=dict)
    line: int = field(default=0, compare=False)
    file: str = field(default="<grid>", compare=False)

    @property
    def width(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    @property
    def height(self) -> int:
        return len(self.rows)

    def object_at(self, col: int, row: int) -> str | None:
        """Concept at a cell, or None for spaces and unmapped characters."""
        if not (0 <= row < self.height and 0 <= col < self.width):
            raise OutOfBounds(f"({col}, {row}) outside {self.width}x{self.height} grid")
        ch = self.rows[row][col]
        if ch == " ":
            return None
        return self.legend.get(ch)

    def cells_of(self, concept: str) -> list[tuple[int, int]]:
        """All (col, row) cells holding the concept, in row-major order."""
        chars = {k for k, v in self.legend.items() if v == concept}
        if not chars:
            return []
        return [(c, r)
                for r, row in enumerate(self.rows)
                for c, ch in enumerate(row) if ch in chars]


def _split_row(line: str) -> tuple[str, str | None]:
    """Split a grid line into raster part and legend text.

    The legend starts at the first run of ``_LEGEND_GAP`` or more spaces
    whose remainder matches ``key:concept``; interior space runs inside the
    raster do not match and are kept.
    """
    for m in _GAP_RE.finditer(line):
        rest = line[m.end():].rstrip()
        if rest and _LOOSE_ENTRY_RE.fullmatch(rest):
            return line[:m.start()], rest
    return line.rstrip(), None


def parse_grid(text: str, *, filename: str = "<grid>",
               line: int = 1) -> tuple[Grid, list[Diagnostic]]:
    lines = text.split("\n")
    header = lines[0].rstrip()
    if not header.startswith("==") or not header.endswith("//") or len(header) < 5:
        raise MalformedHeader(f"bad grid header: {header!r}", line, 1)
    grid = Grid(header[2:-2].strip(), line=line, file=filename)
    diags: list[Diagnostic] = []

    def diag(severity, code, message, lineno):
        diags.append(Diagnostic(filename, lineno, 1, severity, code, message))

    for offset, raw in enumerate(lines[1:], start=1):
        if not raw.strip():
            break
        lineno = line + offset
        row_part, entry = _split_row(raw)
        if entry is not None:
            key, _, concept = entry.partition(":")
            if not key or not concept:
                diag(ERROR, "MalformedLegendEntry", f"bad legend entry {entry!r}", lineno)
            else:
                if len(key) > 1:
                    diag(WARNING, "ExtendedLegendKey",
                         f"legend key {key!r} longer than one character; "
                         f"using {key[0]!r} for the raster", lineno)
                    grid.extended_keys[key] = concept
                if key[0] in grid.legend:
                    diag(WARNING, "DuplicateLegendKey",
                         f"legend key {key[0]!r} defined again; last entry wins", lineno)
                grid.legend[key[0]] = concept
        if row_part.strip() or entry is None:
            grid.rows.append(row_part)

    width = max((len(r) for r in grid.rows), default=0)
    grid.rows = [r.ljust(width) for r in grid.rows]

    unmapped = sorted({ch for row in grid.rows for ch in row if ch != " "}
                      - set(grid.legend))
    for ch in unmapped:
        diag(WARNING, "UnmappedCharacter",
             f"character {ch!r} appears in the grid but not in the legend", line)
    return grid, diags


def render(grid: Grid) -> str:
    """Canonical text for a grid; reparsing it yields an equal grid."""
    entries = []
    for ch, concept in grid.legend.items():
        display = ch
        for raw, target in grid.extended_keys.items():
            if raw[0] == ch and target == concept:
                display = raw
                break
        entries.append(f"{display}:{concept}")
    width = grid.width
    lines = [f"=={grid.name}//"]
    for i in range(max(len(grid.rows), len(entries))):
        row = grid.rows[i] if i < len(grid.rows) else " " * width
        if i < len(entries):
            lines.append(row + " " * _LEGEND_GAP + entries[i])
        else:
            lines.append(row.rstrip())
    return "\n".join(lines) + "\n"
