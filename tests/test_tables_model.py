"""Tests for the table data model."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.corpus.wdc import WdcTableGenerator
from repro.errors import ParseError
from repro.kg.enrichment import EnrichmentPipeline
from repro.kg.fusion import FusionEngine
from repro.kg.matching import NodeMatcher
from repro.kg.metaprofile import extract_side_effect_records
from repro.kg.ontology import seed_covid_graph
from repro.tables.model import Cell, Row, Table, header_and_data

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


def _rows(*lines):
    """Row JSON from ``(texts, is_metadata)`` pairs; ``None`` is no label."""
    rows = []
    for texts, label in lines:
        row = {"cells": [{"text": text} for text in texts]}
        if label is not None:
            row["is_metadata"] = label
        rows.append(row)
    return {"caption": "", "rows": rows}


class TestHeaderAndData:
    """The one reader of a stored table's header: its row labels."""

    @pytest.mark.parametrize("table, header, data", [
        pytest.param(_rows((["A", "B"], None), (["1", "2"], None),
                           (["3", "4"], None)),
                     ["A", "B"], [["1", "2"], ["3", "4"]],
                     id="no-row-labelled-reads-the-first-as-header"),
        pytest.param(_rows((["A", "B"], True), (["1", "2"], None)),
                     ["A", "B"], [["1", "2"]],
                     id="th-fallback-labels-only-the-header"),
        pytest.param(_rows((["1", "2"], False), (["3", "4"], False)),
                     [], [["1", "2"], ["3", "4"]],
                     id="every-row-data-has-no-header"),
        pytest.param(_rows((["Title", ""], True), (["A", "B"], True),
                           (["1", "2"], False)),
                     ["A", "B"], [["1", "2"]],
                     id="the-last-header-line-gives-the-labels"),
        pytest.param(_rows((["1", "2"], False), (["A", "B"], True),
                           (["3", "4"], False)),
                     ["A", "B"], [["1", "2"], ["3", "4"]],
                     id="data-lines-keep-their-order"),
        pytest.param({"caption": "", "rows": []}, [], [],
                     id="empty-table"),
        pytest.param({"caption": ""}, [], [], id="no-rows-key"),
    ])
    def test_reads_the_labels(self, table, header, data):
        assert header_and_data(table) == (header, data)

    def test_wdc_title_row_reads_its_second_line(self):
        wdc = WdcTableGenerator(seed=3).generate(0, variant="title_row")
        grid = wdc.table.row_texts()
        assert wdc.metadata_lines == [0, 1]
        assert header_and_data(wdc.table.to_json()) == (grid[1], grid[2:])


def _titled(caption, header, data):
    """A stored table with a full-width title line above its header."""
    return {"caption": caption, "rows": [
        {"cells": [{"text": "Study overview"}]
         + [{"text": ""}] * (len(header) - 1), "is_metadata": True},
        {"cells": [{"text": text} for text in header], "is_metadata": True},
    ] + [
        {"cells": [{"text": text} for text in line], "is_metadata": False}
        for line in data
    ]}


TITLED_PAPER = {"paper_id": "p-titled", "body_text": [], "tables": [
    _titled("Table: Vaccine efficacy against symptomatic infection",
            ["Vaccine", "Doses", "Efficacy (%)"],
            [["Pfizer", "2", "95.0"], ["Moderna", "2", "94.1"]]),
    _titled("Table: Side effects reported after Pfizer vaccination, "
            "by dose",
            ["Side effect", "Dose 1 (%)", "Dose 2 (%)"],
            [["fever", "12.5", "20.0"], ["fatigue", "30.0", "41.2"]]),
]}


def test_extraction_reads_the_labelled_header_under_a_title_line():
    graph = seed_covid_graph()
    pipeline = EnrichmentPipeline(FusionEngine(graph, NodeMatcher(graph)))
    leaves = {
        (subtree.label, child.label)
        for subtree in pipeline.extract_subtrees(TITLED_PAPER)
        for child in subtree.children
    }
    assert leaves == {
        ("Vaccines", "Pfizer"), ("Vaccines", "Moderna"),
        ("Side-effects", "fever"), ("Side-effects", "fatigue"),
    }


def test_side_effect_records_read_the_labelled_dose_columns():
    records = extract_side_effect_records(TITLED_PAPER)
    assert sorted((r.effect, r.dose, r.rate) for r in records) == [
        ("fatigue", 1, 30.0), ("fatigue", 2, 41.2),
        ("fever", 1, 12.5), ("fever", 2, 20.0),
    ]


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
