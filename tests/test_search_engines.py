"""Integration tests for the three advanced search engines."""

import pytest

from repro.corpus.generator import CorpusGenerator, GeneratorConfig
from repro.errors import QueryError
from repro.search.all_fields import AllFieldsEngine
from repro.search.engine import PAGE_SIZE
from repro.search.table_search import TableSearchEngine
from repro.search.title_abstract import TitleAbstractCaptionEngine

HAND_PAPERS = [
    {
        "paper_id": "p-masks",
        "title": "Masks prevent transmission in hospitals",
        "abstract": "Cloth masks and respirators reduce aerosol spread.",
        "authors": [{"first": "A", "last": "Chen"}],
        "publish_time": "2021-03-01",
        "journal": "JAMA",
        "body_text": [{"section": "Results",
                       "text": "Mask mandates lowered infection rates."}],
        "tables": [],
        "figures": [{"caption": "Figure 1: mask effectiveness by type"}],
    },
    {
        "paper_id": "p-vent",
        "title": "Ventilator allocation strategies",
        "abstract": "ICU ventilators were scarce in the first wave.",
        "authors": [{"first": "B", "last": "Khan"}],
        "publish_time": "2020-05-01",
        "journal": "BMJ",
        "body_text": [{"section": "Methods",
                       "text": "We modeled ventilator demand."}],
        "tables": [
            {
                "caption": "Table: Ventilator usage by ICU",
                "table_id": "t0",
                "rows": [
                    {"cells": [{"text": "ICU"}, {"text": "Ventilators"}],
                     "is_metadata": True},
                    {"cells": [{"text": "North"}, {"text": "12"}]},
                    {"cells": [{"text": "South"}, {"text": "7"}]},
                ],
            },
        ],
        "figures": [],
    },
    {
        "paper_id": "p-vax",
        "title": "Vaccine efficacy against variants",
        "abstract": "Vaccines remain effective against the Delta variant.",
        "authors": [{"first": "C", "last": "Silva"}],
        "publish_time": "2021-09-01",
        "journal": "Nature Medicine",
        "body_text": [{"section": "Discussion",
                       "text": "Efficacy wanes slowly over months."}],
        "tables": [
            {
                "caption": "Table: Efficacy by vaccine",
                "table_id": "t0",
                "rows": [
                    {"cells": [{"text": "Vaccine"}, {"text": "Efficacy"}],
                     "is_metadata": True},
                    {"cells": [{"text": "Pfizer"}, {"text": "95%"}]},
                ],
            },
        ],
        "figures": [],
    },
]


@pytest.fixture(scope="module")
def all_fields():
    engine = AllFieldsEngine()
    engine.add_papers(HAND_PAPERS)
    return engine


@pytest.fixture(scope="module")
def table_engine():
    engine = TableSearchEngine()
    engine.add_papers(HAND_PAPERS)
    return engine


@pytest.fixture(scope="module")
def tac_engine():
    engine = TitleAbstractCaptionEngine()
    engine.add_papers(HAND_PAPERS)
    return engine


class TestAllFieldsEngine:
    def test_finds_masks_paper(self, all_fields):
        results = all_fields.search("masks")
        assert results.total_matches == 1
        assert results.results[0].paper_id == "p-masks"

    def test_stemming_matches_inflections(self, all_fields):
        # Document says "Ventilator(s)"; query is singular/different form.
        results = all_fields.search("ventilators")
        assert any(r.paper_id == "p-vent" for r in results)

    def test_snippets_highlight_matches(self, all_fields):
        results = all_fields.search("masks")
        snippets = results.results[0].snippets
        assert any("[[" in text for text in snippets.values())

    def test_match_in_figure_caption_found(self, all_fields):
        # "effectiveness" stems to "effect", which also matches the vaccine
        # paper's "effective" — stemming-match widens recall by design.
        results = all_fields.search("effectiveness")
        assert results.total_matches == 2
        masks = next(r for r in results if r.paper_id == "p-masks")
        assert "figure_captions" in masks.snippets

    def test_multi_term_query_requires_all_terms(self, all_fields):
        assert all_fields.search("masks hospitals").total_matches == 1
        assert all_fields.search("masks ventilator").total_matches == 0

    def test_exact_phrase(self, all_fields):
        assert all_fields.search('"aerosol spread"').total_matches == 1
        assert all_fields.search('"spread aerosol"').total_matches == 0

    def test_no_matches(self, all_fields):
        results = all_fields.search("zebra")
        assert results.total_matches == 0
        assert len(results) == 0

    def test_match_stage_runs_first(self, all_fields):
        # The columnar kernel fuses match+score into one stage; the
        # scalar pipeline must still put $match first (paper Section 2.1).
        results = all_fields.search("masks")
        assert results.stage_stats[0].stage.startswith("$columnar")
        all_fields.use_columnar = False
        try:
            results = all_fields.search("masks")
            assert results.stage_stats[0].stage.startswith("$match")
        finally:
            all_fields.use_columnar = True

    def test_pagination(self):
        engine = AllFieldsEngine()
        papers = CorpusGenerator(
            GeneratorConfig(seed=8, tables_per_paper=(0, 1))
        ).papers(40)
        engine.add_papers(papers)
        first = engine.search("covid patients cohort".split()[0], page=1)
        if first.total_matches > PAGE_SIZE:
            assert len(first) == PAGE_SIZE
            second = engine.search("covid", page=2)
            first_ids = {r.paper_id for r in first}
            second_ids = {r.paper_id for r in second}
            assert first_ids.isdisjoint(second_ids)


class TestTitleAbstractCaptionEngine:
    def test_title_only_search(self, tac_engine):
        results = tac_engine.search(title="masks")
        assert results.total_matches == 1
        assert results.results[0].paper_id == "p-masks"

    def test_inclusive_fields_all_must_match(self, tac_engine):
        # "masks" in title yes; "ventilator" in abstract no -> excluded.
        results = tac_engine.search(title="masks", abstract="ventilator")
        assert results.total_matches == 0

    def test_both_fields_match(self, tac_engine):
        results = tac_engine.search(title="vaccine", abstract="delta")
        assert results.total_matches == 1
        assert results.results[0].paper_id == "p-vax"

    def test_caption_search(self, tac_engine):
        results = tac_engine.search(caption="efficacy")
        assert results.total_matches == 1
        assert results.results[0].paper_id == "p-vax"

    def test_result_format_has_title_authors_abstract(self, tac_engine):
        results = tac_engine.search(title="masks")
        snippets = results.results[0].snippets
        assert "title" in snippets
        assert "authors" in snippets
        assert "abstract" in snippets
        assert "Chen" in snippets["authors"]

    def test_no_field_rejected(self, tac_engine):
        with pytest.raises(QueryError):
            tac_engine.search()


class TestTableSearchEngine:
    def test_matches_table_data_cells(self, table_engine):
        results = table_engine.search("Pfizer")
        assert results.total_matches == 1
        tables = results.results[0].extras["tables"]
        assert tables
        flat = [cell for row in tables[0]["rows"] for cell in row]
        assert any("[[Pfizer]]" in cell for cell in flat)

    def test_matches_table_caption(self, table_engine):
        results = table_engine.search("ventilator")
        assert results.total_matches == 1
        assert "[[Ventilator]]" in results.results[0].extras[
            "tables"
        ][0]["caption"]

    def test_body_only_match_is_not_a_table_hit(self, table_engine):
        # "masks" never occurs in any table: engine 3 must not return it.
        assert table_engine.search("masks").total_matches == 0

    def test_tables_ranked_caption_first(self):
        engine = TableSearchEngine()
        paper = dict(HAND_PAPERS[1])
        paper = {**paper, "paper_id": "p-two-tables", "tables": [
            {"caption": "No match here", "table_id": "t0",
             "rows": [{"cells": [{"text": "oxygen"}]}]},
            {"caption": "Oxygen therapy outcomes", "table_id": "t1",
             "rows": [{"cells": [{"text": "nothing"}]}]},
        ]}
        engine.add_paper(paper)
        results = engine.search("oxygen")
        tables = results.results[0].extras["tables"]
        assert tables[0]["table_id"] == "t1"  # caption hit ranks first

    def test_abstract_excerpt_shown_when_matching(self, table_engine):
        results = table_engine.search("ventilators")
        assert "abstract" in results.results[0].snippets


class TestCrossEngineRanking:
    def test_title_match_outranks_body_match(self):
        engine = AllFieldsEngine()
        title_paper = {
            **HAND_PAPERS[0], "paper_id": "in-title",
            "title": "Remdesivir trial outcomes",
            "abstract": "An antiviral study.",
            "body_text": [{"section": "x", "text": "unrelated"}],
            "figures": [],
        }
        body_paper = {
            **HAND_PAPERS[0], "paper_id": "in-body",
            "title": "Unrelated title",
            "abstract": "Nothing specific.",
            "body_text": [{"section": "x",
                           "text": "remdesivir mentioned in passing"}],
            "figures": [],
        }
        engine.add_papers([title_paper, body_paper])
        results = engine.search("remdesivir")
        assert [r.paper_id for r in results] == ["in-title", "in-body"]


# -- the engines' constant pipeline, checked once ---------------------------

@pytest.mark.parametrize("engine_name",
                         ["all_fields", "title_abstract", "table"])
def test_engine_pipelines_are_valid_and_run_as_planned(engine_name):
    """Only code builds a search pipeline, so one test checks it.

    The scalar path executes exactly ``$match``, ``$project``,
    ``$function`` and ``$sort`` (top-k or full), and pages by slicing
    the sorted run — there is no ``$skip``/``$limit`` stage.
    """
    engine = {"all_fields": AllFieldsEngine,
              "title_abstract": TitleAbstractCaptionEngine,
              "table": TableSearchEngine}[engine_name]()
    engine.add_papers(CorpusGenerator().papers(12))
    engine.use_columnar = False

    def search(page):
        if engine_name == "title_abstract":
            return engine.search(abstract="covid patients", page=page)
        return engine.search("covid patients", page=page)

    pages = []
    for full_sort in (False, True):
        engine.full_sort = full_sort
        results = search(2)
        executed = [stats.stage.split("(")[0]
                    for stats in results.stage_stats]
        assert executed == ["$match", "$project", "$function", "$sort"]
        pages.append([hit.paper_id for hit in results])
    assert pages[0] == pages[1]
    first = [hit.paper_id for hit in search(1)]
    assert not set(first) & set(pages[0])
    assert len(first) + len(pages[0]) == min(results.total_matches,
                                             2 * PAGE_SIZE)
