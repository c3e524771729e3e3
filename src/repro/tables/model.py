"""Table data model: cells, rows, tables with clean JSON (de)serialization.

A :class:`Table` is the "semi-structured, clean JSON" form the paper's
post-processor emits.  Rows optionally carry metadata labels
(``is_metadata``): ground truth for the classifiers, and, once ingest
classified a table, its header as :func:`header_and_data` reads it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.errors import ParseError


@dataclass(frozen=True)
class Cell:
    """One table cell: its text plus span information from the HTML."""

    text: str
    colspan: int = 1
    rowspan: int = 1
    is_header: bool = False

    def to_json(self) -> dict[str, Any]:
        data: dict[str, Any] = {"text": self.text}
        if self.colspan != 1:
            data["colspan"] = self.colspan
        if self.rowspan != 1:
            data["rowspan"] = self.rowspan
        if self.is_header:
            data["is_header"] = True
        return data

    @classmethod
    def from_json(cls, data: dict[str, Any] | str) -> "Cell":
        if isinstance(data, str):
            return cls(text=data)
        return cls(
            text=data.get("text", ""),
            colspan=int(data.get("colspan", 1)),
            rowspan=int(data.get("rowspan", 1)),
            is_header=bool(data.get("is_header", False)),
        )


@dataclass
class Row:
    """One table row; ``is_metadata`` is the classification target."""

    cells: list[Cell]
    is_metadata: bool | None = None

    @classmethod
    def from_texts(cls, texts: list[str],
                   is_metadata: bool | None = None) -> "Row":
        return cls([Cell(text) for text in texts], is_metadata=is_metadata)

    @property
    def texts(self) -> list[str]:
        return [cell.text for cell in self.cells]

    def __len__(self) -> int:
        return len(self.cells)

    def to_json(self) -> dict[str, Any]:
        data: dict[str, Any] = {
            "cells": [cell.to_json() for cell in self.cells],
        }
        if self.is_metadata is not None:
            data["is_metadata"] = self.is_metadata
        return data

    @classmethod
    def from_json(cls, data: dict[str, Any]) -> "Row":
        return cls(
            cells=[Cell.from_json(cell) for cell in data.get("cells", [])],
            is_metadata=data.get("is_metadata"),
        )


@dataclass
class Table:
    """A parsed table: caption, rows, and provenance back to its paper."""

    rows: list[Row] = field(default_factory=list)
    caption: str = ""
    paper_id: str | None = None
    table_id: str | None = None

    @classmethod
    def from_grid(cls, grid: list[list[str]], caption: str = "",
                  header_rows: int = 0, **kwargs: Any) -> "Table":
        """Build a table from a plain grid of strings.

        The first ``header_rows`` rows are labeled metadata, the rest data.
        """
        rows = []
        for index, texts in enumerate(grid):
            rows.append(Row.from_texts(texts, is_metadata=index < header_rows))
        return cls(rows=rows, caption=caption, **kwargs)

    @property
    def num_rows(self) -> int:
        return len(self.rows)

    @property
    def num_columns(self) -> int:
        return max((len(row) for row in self.rows), default=0)

    def row_texts(self) -> list[list[str]]:
        return [row.texts for row in self.rows]

    def column(self, index: int) -> list[str]:
        """The texts of column ``index`` (empty string where a row is short)."""
        if index < 0 or index >= self.num_columns:
            raise ParseError(f"column {index} out of range")
        return [
            row.cells[index].text if index < len(row.cells) else ""
            for row in self.rows
        ]

    def transposed(self) -> "Table":
        """Column-major view, used for vertical (attribute-in-column) tables."""
        columns = [self.column(i) for i in range(self.num_columns)]
        rows = [Row.from_texts(column) for column in columns]
        return Table(rows=rows, caption=self.caption,
                     paper_id=self.paper_id, table_id=self.table_id)

    def to_json(self) -> dict[str, Any]:
        data: dict[str, Any] = {
            "caption": self.caption,
            "rows": [row.to_json() for row in self.rows],
        }
        if self.paper_id is not None:
            data["paper_id"] = self.paper_id
        if self.table_id is not None:
            data["table_id"] = self.table_id
        return data

    @classmethod
    def from_json(cls, data: dict[str, Any]) -> "Table":
        return cls(
            rows=[Row.from_json(row) for row in data.get("rows", [])],
            caption=data.get("caption", ""),
            paper_id=data.get("paper_id"),
            table_id=data.get("table_id"),
        )


def header_and_data(table: dict[str, Any]
                    ) -> tuple[list[str], list[list[str]]]:
    """A stored table's column labels and data lines, by its row labels.

    Rows labelled ``is_metadata`` are header lines, and the last of them
    gives the column labels; every other row is a data line, in order.
    A table in which no row carries a label reads its first row as the
    header.
    """
    rows = table.get("rows", [])
    lines = [[cell.get("text", "") for cell in row.get("cells", [])]
             for row in rows]
    labels = [row.get("is_metadata") for row in rows]
    if all(label is None for label in labels):
        labels = [index == 0 for index in range(len(rows))]
    header = [line for line, label in zip(lines, labels) if label]
    data = [line for line, label in zip(lines, labels) if not label]
    return (header[-1] if header else []), data
