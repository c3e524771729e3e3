"""Pre-index quality gate for every ingest batch.

:meth:`CovidKG.ingest <repro.api.system.CovidKG.ingest>` runs it first,
so it is the library's rule as much as the streaming engine's: nothing
reaches the docstore, the indexes, the graph or the WAL until the whole
batch passes schema conformance (:func:`repro.corpus.schema
.validate_paper`, which also states the table shape every table reader
assumes) and batch-local duplicate detection.  Failures are collected
per document and surfaced as one typed
:class:`~repro.errors.IngestRejectedError` so a feed operator sees every
problem in one response instead of fixing them one 400 at a time.
"""

from __future__ import annotations

from typing import Any

from repro.corpus.schema import validate_paper
from repro.errors import IngestRejectedError, SchemaError


def gate_batch(papers: list[Any]) -> list[dict[str, Any]]:
    """All-or-nothing batch validation.

    Returns the validated papers, or raises
    :class:`IngestRejectedError` carrying one ``{"index", "paper_id",
    "error"}`` entry per failing document.  Duplicate ``paper_id``
    values *inside the batch* are rejected here too — the store's
    unique index would only catch them after half the batch had been
    indexed.
    """
    if not isinstance(papers, list):
        raise IngestRejectedError(
            f"batch must be a list of papers, got {type(papers).__name__}")
    if not papers:
        raise IngestRejectedError("batch is empty")
    rejects: list[dict[str, Any]] = []
    seen: dict[str, int] = {}
    validated: list[dict[str, Any]] = []
    for index, paper in enumerate(papers):
        paper_id = paper.get("paper_id", "?") \
            if isinstance(paper, dict) else "?"
        try:
            checked = validate_paper(paper)
        except SchemaError as exc:
            rejects.append({"index": index, "paper_id": str(paper_id),
                            "error": str(exc)})
            continue
        pid = checked["paper_id"]
        if pid in seen:
            rejects.append({
                "index": index, "paper_id": pid,
                "error": f"duplicate paper_id within the batch "
                         f"(first at index {seen[pid]})",
            })
            continue
        seen[pid] = index
        validated.append(checked)
    if rejects:
        raise IngestRejectedError(
            f"{len(rejects)} of {len(papers)} paper(s) rejected by the "
            "quality gate; nothing was ingested",
            rejects=rejects,
        )
    return validated
