import pytest

from scriptkb.errors import MalformedHeader, OutOfBounds
from scriptkb.grid import parse_grid, render

HOTEL = """\
==hotel-room1//
wwwwwwwwwwww    b:bed
wbbbbb    mw    d:lockable-door
wbbbbb     w    m:minibar
wx        Zw    w:wall
wwwwwwdddwww    x:phone
w               x:night-table
wwwwwwwwwwww    Z.wd:hotel-room"""


@pytest.fixture()
def hotel():
    return parse_grid(HOTEL)


def test_seven_rows(hotel):
    grid, _ = hotel
    assert grid.name == "hotel-room1"
    assert grid.height == 7
    assert grid.width == 12


def test_rows_uniform_width(hotel):
    grid, _ = hotel
    assert all(len(r) == max(len(r) for r in grid.rows) for r in grid.rows)


def test_legend_mappings(hotel):
    grid, _ = hotel
    assert grid.legend["b"] == "bed"
    assert grid.legend["d"] == "lockable-door"
    assert grid.legend["m"] == "minibar"
    assert grid.legend["w"] == "wall"


def test_duplicate_key_last_wins_with_diagnostic(hotel):
    grid, diags = hotel
    assert grid.legend["x"] == "night-table"
    assert any(d.code == "DuplicateLegendKey" for d in diags)


def test_extended_key_preserved(hotel):
    grid, diags = hotel
    assert grid.legend["Z"] == "hotel-room"
    assert grid.extended_keys == {"Z.wd": "hotel-room"}
    assert any(d.code == "ExtendedLegendKey" for d in diags)


def test_interior_gap_rows_kept_whole(hotel):
    # the second raster row contains a 4-space run that is not a legend split
    grid, _ = hotel
    assert grid.rows[1] == "wbbbbb    mw"


def test_bed_has_ten_cells(hotel):
    grid, _ = hotel
    cells = grid.cells_of("bed")
    assert len(cells) == 10
    assert cells == sorted(cells, key=lambda cr: (cr[1], cr[0]))  # row-major


def test_wall_count_matches_characters(hotel):
    grid, _ = hotel
    expected = sum(row.count("w") for row in grid.rows)
    assert len(grid.cells_of("wall")) == expected


def test_object_at_minibar(hotel):
    grid, _ = hotel
    assert grid.object_at(10, 1) == "minibar"


def test_object_at_space_is_none(hotel):
    grid, _ = hotel
    assert grid.object_at(6, 1) is None


def test_object_at_out_of_bounds(hotel):
    grid, _ = hotel
    with pytest.raises(OutOfBounds):
        grid.object_at(99, 0)
    with pytest.raises(OutOfBounds):
        grid.object_at(0, -1)


def test_exhaustive_scan_matches_cells_of(hotel):
    grid, _ = hotel
    by_concept = {}
    for row in range(grid.height):
        for col in range(grid.width):
            concept = grid.object_at(col, row)
            if concept is not None:
                by_concept.setdefault(concept, []).append((col, row))
    for concept in set(grid.legend.values()):
        assert grid.cells_of(concept) == by_concept.get(concept, [])


def test_nonspace_cells_all_covered(hotel):
    grid, _ = hotel
    total = sum(1 for row in grid.rows for ch in row if ch != " ")
    covered = sum(len(grid.cells_of(c)) for c in set(grid.legend.values()))
    assert covered == total


def test_render_round_trip(hotel):
    grid, _ = hotel
    again, diags = parse_grid(render(grid))
    assert again == grid
    assert not any(d.severity == "error" for d in diags)


def test_render_rows_equal_width(hotel):
    grid, _ = hotel
    body = render(grid).splitlines()[1:]
    rasters = [line[:grid.width] for line in body[:grid.height]]
    assert all(len(r) == grid.width for r in rasters)


def test_header_only_grid():
    grid, diags = parse_grid("==empty-room1//")
    assert grid.rows == []
    assert grid.legend == {}
    assert diags == []
    again, _ = parse_grid(render(grid))
    assert again == grid


def test_malformed_header():
    with pytest.raises(MalformedHeader):
        parse_grid("hotel-room1")
    with pytest.raises(MalformedHeader):
        parse_grid("==hotel-room1")


def test_unmapped_character_diagnosed():
    grid, diags = parse_grid("==shed1//\nqq    w:wall")
    assert any(d.code == "UnmappedCharacter" for d in diags)


def test_malformed_legend_entry_diagnosed():
    grid, diags = parse_grid("==shed1//\nww    :wall")
    assert any(d.code == "MalformedLegendEntry" for d in diags)


def test_legend_overflow_round_trips():
    grid, _ = parse_grid("==closet1//\nww    a:apple\n      b:board")
    assert grid.height == 1
    assert grid.legend == {"a": "apple", "b": "board"}
    again, _ = parse_grid(render(grid))
    assert again == grid


def test_blank_line_ends_grid():
    grid, _ = parse_grid("==shed1//\nww    w:wall\n\nww")
    assert grid.height == 1


def test_a_concept_outside_the_legend_has_no_cells(hotel):
    grid, _ = hotel
    assert grid.cells_of("sofa") == []
