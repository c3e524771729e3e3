"""Multi-layered 3D Meta-Profiles (paper Figure 6, ref [40]).

A meta-profile summarizes one topic across several papers in layered form.
Figure 6 shows vaccine side-effects "extracted from tables in three
papers, grouped by vaccine, dosage, and paper" — a 3-layer profile
(vaccine x dosage x paper) whose cells hold side-effect rates, replacing
the reading of all source papers.

:func:`build_side_effect_profile` constructs that exact profile from the
side-effect tables the corpus generator (or a real CORD-19 parse) emits.
"""

from __future__ import annotations

import re
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any

from repro.errors import GraphError
from repro.tables.model import header_and_data

_CAPTION_RE = re.compile(
    r"side effects reported after (\w[\w-]*) vaccination", re.IGNORECASE
)
_DOSE_RE = re.compile(r"dose\s*(\d+)", re.IGNORECASE)


@dataclass(frozen=True)
class SideEffectRecord:
    """One extracted fact: vaccine x dose x effect x rate x source paper."""

    vaccine: str
    dose: int
    effect: str
    rate: float
    paper_id: str


@dataclass
class MetaProfile:
    """A layered summary: layer names plus the records beneath them."""

    layers: tuple[str, ...]
    records: list[SideEffectRecord] = field(default_factory=list)

    # -- structure -----------------------------------------------------------

    def group(self) -> dict[str, dict[int, dict[str, list[SideEffectRecord]]]]:
        """records nested by layer: vaccine -> dose -> paper -> records."""
        nested: dict[str, dict[int, dict[str, list[SideEffectRecord]]]] = (
            defaultdict(lambda: defaultdict(lambda: defaultdict(list)))
        )
        for record in self.records:
            nested[record.vaccine][record.dose][record.paper_id].append(
                record
            )
        return {
            vaccine: {
                dose: dict(papers) for dose, papers in doses.items()
            }
            for vaccine, doses in nested.items()
        }

    @property
    def vaccines(self) -> list[str]:
        return sorted({record.vaccine for record in self.records})

    @property
    def papers(self) -> list[str]:
        return sorted({record.paper_id for record in self.records})

    @property
    def num_sources(self) -> int:
        """Distinct (vaccine, dose, paper) cells — Figure 6's "9 sources"."""
        return len({
            (record.vaccine, record.dose, record.paper_id)
            for record in self.records
        })

    # -- queries --------------------------------------------------------------

    def rates_for(self, vaccine: str, effect: str,
                  dose: int | None = None) -> list[float]:
        """Every reported rate for an effect (optionally one dose)."""
        return [
            record.rate for record in self.records
            if record.vaccine == vaccine and record.effect == effect
            and (dose is None or record.dose == dose)
        ]

    def mean_rate(self, vaccine: str, effect: str,
                  dose: int | None = None) -> float | None:
        rates = self.rates_for(vaccine, effect, dose)
        if not rates:
            return None
        return sum(rates) / len(rates)

    def top_effects(self, vaccine: str, top_k: int = 5
                    ) -> list[tuple[str, float]]:
        """Effects of a vaccine ranked by mean reported rate."""
        effects = {record.effect for record in self.records
                   if record.vaccine == vaccine}
        ranked = sorted(
            (
                (effect, self.mean_rate(vaccine, effect) or 0.0)
                for effect in effects
            ),
            key=lambda pair: -pair[1],
        )
        return ranked[:top_k]

    def to_json(self) -> dict[str, Any]:
        return {
            "layers": list(self.layers),
            "records": [
                {
                    "vaccine": r.vaccine, "dose": r.dose,
                    "effect": r.effect, "rate": r.rate,
                    "paper_id": r.paper_id,
                }
                for r in self.records
            ],
        }


def extract_side_effect_records(paper: dict[str, Any]
                                ) -> list[SideEffectRecord]:
    """Parse a paper's side-effect tables into records.

    Reads only the table content (caption + cells); the dose number comes
    from the column labels ("Dose 1 (%)", "Dose 2 (%)") that the rows'
    ``is_metadata`` labels name (:func:`~repro.tables.model.header_and_data`).
    """
    records = []
    for table in paper.get("tables", []):
        caption_match = _CAPTION_RE.search(table.get("caption", ""))
        if not caption_match:
            continue
        vaccine = caption_match.group(1)
        header, data_rows = header_and_data(table)
        dose_columns: dict[int, int] = {}
        for column, text in enumerate(header):
            dose_match = _DOSE_RE.search(text)
            if dose_match:
                dose_columns[column] = int(dose_match.group(1))
        for cells in data_rows:
            if not cells or not cells[0]:
                continue
            effect = cells[0]
            for column, dose in dose_columns.items():
                if column >= len(cells):
                    continue
                try:
                    rate = float(cells[column])
                except ValueError:
                    continue
                records.append(SideEffectRecord(
                    vaccine=vaccine, dose=dose, effect=effect,
                    rate=rate, paper_id=paper.get("paper_id", ""),
                ))
    return records


def build_side_effect_profile(papers: list[dict[str, Any]]) -> MetaProfile:
    """The Figure 6 profile: vaccine x dosage x paper over side effects."""
    records: list[SideEffectRecord] = []
    for paper in papers:
        records.extend(extract_side_effect_records(paper))
    if not records:
        raise GraphError(
            "no side-effect tables found in the given papers"
        )
    return MetaProfile(layers=("vaccine", "dosage", "paper"),
                       records=records)
