"""Tests for the table data model."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ParseError
from repro.tables.model import Cell, Row, Table

GRID = [
    ["Vaccine", "Dose", "Efficacy"],
    ["Pfizer", "2", "95%"],
    ["Moderna", "2", "94%"],
]


def sample_table():
    return Table.from_grid(GRID, caption="Vaccine efficacy", header_rows=1,
                           paper_id="p1", table_id="t0")


class TestConstruction:
    def test_from_grid_labels_header_rows(self):
        table = sample_table()
        assert table.rows[0].is_metadata is True
        assert table.rows[1].is_metadata is False

    def test_dimensions(self):
        table = sample_table()
        assert table.num_rows == 3
        assert table.num_columns == 3

    def test_ragged_table_columns(self):
        table = Table.from_grid([["a"], ["b", "c", "d"]])
        assert table.num_columns == 3

    def test_empty_table(self):
        table = Table()
        assert table.num_rows == 0
        assert table.num_columns == 0


class TestAccess:
    def test_column(self):
        table = sample_table()
        assert table.column(0) == ["Vaccine", "Pfizer", "Moderna"]

    def test_column_pads_short_rows(self):
        table = Table.from_grid([["a", "b"], ["c"]])
        assert table.column(1) == ["b", ""]

    def test_column_out_of_range(self):
        with pytest.raises(ParseError):
            sample_table().column(5)

    def test_transposed(self):
        table = sample_table()
        flipped = table.transposed()
        assert flipped.rows[0].texts == ["Vaccine", "Pfizer", "Moderna"]
        assert flipped.num_rows == 3
        assert flipped.caption == table.caption


class TestSerialization:
    def test_roundtrip(self):
        table = sample_table()
        restored = Table.from_json(table.to_json())
        assert restored.row_texts() == table.row_texts()
        assert restored.caption == table.caption
        assert restored.paper_id == "p1"
        assert restored.rows[0].is_metadata is True

    def test_cell_json_is_minimal(self):
        assert Cell("x").to_json() == {"text": "x"}
        assert Cell("x", colspan=2, is_header=True).to_json() == {
            "text": "x", "colspan": 2, "is_header": True,
        }

    def test_cell_from_plain_string(self):
        assert Cell.from_json("hello").text == "hello"

    def test_row_from_texts(self):
        row = Row.from_texts(["a", "b"], is_metadata=True)
        assert row.texts == ["a", "b"]
        assert row.is_metadata is True


@given(st.lists(st.lists(st.text(max_size=8), min_size=1, max_size=5),
                min_size=1, max_size=6))
def test_json_roundtrip_preserves_grid(grid):
    table = Table.from_grid(grid)
    assert Table.from_json(table.to_json()).row_texts() == grid


@given(st.lists(st.lists(st.text(alphabet="ab", min_size=1, max_size=3),
                         min_size=2, max_size=4),
                min_size=2, max_size=5))
def test_double_transpose_on_rectangular_grid(grid):
    width = max(len(row) for row in grid)
    rectangular = [row + [""] * (width - len(row)) for row in grid]
    table = Table.from_grid(rectangular)
    assert table.transposed().transposed().row_texts() == rectangular
