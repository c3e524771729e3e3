"""Synthetic WDC-style web tables with ground-truth metadata labels.

The paper pre-trains its metadata classifiers on the Web Data Commons
table corpus (ref [61]) before fine-tuning on CORD-19 tables.  This
generator produces relational web tables across several non-medical
domains, in both orientations, with controllable row/column counts — the
exact axes the Section 3.3 evaluation varies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import SchemaError
from repro.tables.model import Table

#: Domain -> (attribute names, value factories keyed by attribute kind).
_DOMAINS: dict[str, list[tuple[str, str]]] = {
    "products": [
        ("Product", "name"), ("Brand", "name"), ("Price", "money"),
        ("Rating", "small_float"), ("Stock", "int"), ("Weight", "unit_kg"),
    ],
    "movies": [
        ("Title", "name"), ("Director", "name"), ("Year", "year"),
        ("Runtime", "unit_min"), ("Rating", "small_float"),
        ("Gross", "money"),
    ],
    "cities": [
        ("City", "name"), ("Country", "name"), ("Population", "int"),
        ("Area", "int"), ("Density", "float"), ("Founded", "year"),
    ],
    "athletes": [
        ("Athlete", "name"), ("Team", "name"), ("Age", "int"),
        ("Height", "float"), ("Medals", "int"), ("Best", "small_float"),
    ],
}

_NAME_PARTS = [
    "Alpha", "Nova", "Metro", "Prime", "Vista", "Orion", "Delta", "Zen",
    "Apex", "Terra", "Luna", "Echo", "Atlas", "Polar", "Vertex", "Summit",
]


@dataclass
class WdcTable:
    """A generated table plus its ground-truth description."""

    table: Table
    domain: str
    orientation: str  # "horizontal" | "vertical"
    metadata_lines: list[int]  # indices of metadata rows (post-orientation)


class WdcTableGenerator:
    """Generate labeled WDC-style web tables deterministically."""

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed

    def _value(self, rng: np.random.Generator, kind: str) -> str:
        if kind == "name":
            return (f"{rng.choice(_NAME_PARTS)}"
                    f"{rng.choice(_NAME_PARTS)}".strip())
        if kind == "money":
            return f"${float(rng.uniform(1, 2000)):.2f}"
        if kind == "small_float":
            return f"{float(rng.uniform(0, 10)):.1f}"
        if kind == "float":
            return f"{float(rng.uniform(10, 9000)):.1f}"
        if kind == "int":
            return str(int(rng.integers(1, 10_000_000)))
        if kind == "year":
            return str(int(rng.integers(1900, 2023)))
        if kind == "unit_kg":
            return f"{float(rng.uniform(0.1, 50)):.1f} kg"
        if kind == "unit_min":
            return f"{int(rng.integers(60, 220))} min"
        raise SchemaError(f"unknown value kind {kind!r}")

    #: Structural variants real web tables exhibit (horizontal only):
    #: "plain" header-at-top, a full-width "title_row" above the header,
    #: "headerless" continuation tables, and a trailing "summary_row".
    VARIANTS = ("plain", "title_row", "headerless", "summary_row")

    def generate(self, index: int, orientation: str = "horizontal",
                 num_data_rows: int | None = None,
                 num_columns: int | None = None,
                 variant: str = "plain") -> WdcTable:
        """Generate table ``index``; pure function of (seed, index, shape)."""
        if orientation not in ("horizontal", "vertical"):
            raise SchemaError(f"unknown orientation {orientation!r}")
        if variant not in self.VARIANTS:
            raise SchemaError(f"unknown variant {variant!r}")
        rng = np.random.default_rng((self.seed, index))
        domain = str(rng.choice(sorted(_DOMAINS)))
        schema = _DOMAINS[domain]
        if num_columns is None:
            num_columns = int(rng.integers(2, len(schema) + 1))
        num_columns = max(2, min(num_columns, len(schema)))
        if num_data_rows is None:
            num_data_rows = int(rng.integers(2, 12))

        attributes = schema[:num_columns]
        header = [name for name, _ in attributes]
        data_rows = [
            [self._value(rng, kind) for _, kind in attributes]
            for _ in range(num_data_rows)
        ]

        if orientation == "horizontal":
            grid = [header] + data_rows
            metadata_lines = [0]
            if variant == "title_row":
                # A full-width caption-like line above the header; both the
                # title and the header line are metadata.
                title = f"{domain.capitalize()} overview {index}"
                grid = [[title] + [""] * (num_columns - 1)] + grid
                metadata_lines = [0, 1]
            elif variant == "headerless":
                grid = data_rows
                metadata_lines = []
            elif variant == "summary_row":
                total = ["Total"] + [
                    str(int(rng.integers(100, 9999)))
                    for _ in range(num_columns - 1)
                ]
                grid = grid + [total]
            table = Table.from_grid(grid, caption=f"{domain} listing")
            for position, row in enumerate(table.rows):
                row.is_metadata = position in metadata_lines
        else:
            # Attribute names down the first column; records as columns.
            grid = [
                [header[j]] + [row[j] for row in data_rows]
                for j in range(num_columns)
            ]
            table = Table.from_grid(grid, caption=f"{domain} listing")
            # The line-level label refers to the table read column-wise:
            # after transposition, line 0 (the attribute-name column) is
            # the metadata line.
            metadata_lines = [0]
        return WdcTable(
            table=table, domain=domain, orientation=orientation,
            metadata_lines=metadata_lines,
        )
