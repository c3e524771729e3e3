"""Request pricing: the pipeline cost estimate and the admission cost gate.

Two layers under test:

* :func:`estimate_pipeline_cost` — the worst-case request pricer the
  serving tier consults before it queues a request;
* ``ServeConfig.max_request_cost`` — the gate itself, end to end through
  :class:`QueryService` (rejections, the negative cache, stats fields)
  and ``repro-covidkg serve-stats --max-cost``.
"""

from __future__ import annotations

import pytest

from repro.api.system import CovidKG, CovidKGConfig
from repro.corpus.generator import CorpusGenerator, GeneratorConfig
from repro.docstore.cost import estimate_pipeline_cost
from repro.errors import RequestTooExpensiveError
from repro.serve.service import QueryService, ServeConfig


@pytest.fixture(scope="module")
def system():
    papers = CorpusGenerator(GeneratorConfig(
        seed=47, papers_per_week=15, tables_per_paper=(1, 2),
    )).papers(30)
    kg = CovidKG(CovidKGConfig(num_shards=3))
    kg.ingest(papers)
    return kg


# -- cost estimation -------------------------------------------------------

class TestEstimatePipelineCost:
    def test_match_only_costs_one_touch_per_document(self):
        estimate = estimate_pipeline_cost([{"$match": {}}], [10, 20, 30])
        assert estimate.documents_in == 60
        assert estimate.documents_out == 60
        assert estimate.total_cost == 60
        assert [s.stage for s in estimate.stages] == ["$match"]

    def test_bare_int_is_a_single_shard(self):
        assert estimate_pipeline_cost([{"$match": {}}], 25).total_cost == 25

    def test_empty_pipeline_is_free(self):
        estimate = estimate_pipeline_cost([], [100])
        assert estimate.total_cost == 0
        assert estimate.documents_out == estimate.documents_in == 100

    def test_topk_sort_prices_below_full_sort(self):
        full = estimate_pipeline_cost([{"$sort": {"score": -1}}], [1000])
        topk = estimate_pipeline_cost(
            [{"$sort": {"score": -1}}, {"$limit": 10}], [1000]
        )
        assert topk.total_cost < full.total_cost
        assert topk.documents_out == 10
        assert topk.stages[0].stage == "$sort(top-k)"
        # The folded $limit is priced inside the sort stage.
        assert len(topk.stages) == 1

    def test_skip_and_limit_both_fold_into_topk(self):
        estimate = estimate_pipeline_cost(
            [{"$sort": {"score": -1}}, {"$skip": 10}, {"$limit": 10}],
            [500],
        )
        assert len(estimate.stages) == 1
        assert estimate.documents_out == 10

    def test_function_stage_carries_its_factor(self):
        estimate = estimate_pipeline_cost(
            [{"$function": {"name": "rank", "as": "score"}}], [100]
        )
        assert estimate.total_cost == pytest.approx(400.0)
        assert estimate.documents_out == 100

    def test_unwind_fans_documents_out(self):
        estimate = estimate_pipeline_cost([{"$unwind": "$tables"}], [100])
        assert estimate.documents_out > 100

    def test_count_collapses_to_one_document(self):
        estimate = estimate_pipeline_cost([{"$count": "n"}], [10])
        assert estimate.documents_out == 1

    def test_search_pipeline_shape_prices_end_to_end(self, system):
        engine = system.all_fields
        estimate = estimate_pipeline_cost(
            engine.pipeline_plan(page=1), engine.shard_document_counts()
        )
        assert estimate.documents_in == len(system.store)
        assert estimate.total_cost > estimate.documents_in
        assert estimate.documents_out <= 10  # one page


# -- QueryService integration ----------------------------------------------

class TestServiceCostGate:
    def test_over_budget_request_rejected_before_fanout(self, system):
        with QueryService(system,
                          ServeConfig(max_request_cost=0.5)) as service:
            with pytest.raises(RequestTooExpensiveError):
                service.query("all_fields", query="vaccine")
            stats = service.stats()
            assert stats["cost_rejected"] >= 1
            assert stats["max_request_cost"] == 0.5

    def test_rejection_is_negative_cached(self, system):
        with QueryService(system,
                          ServeConfig(max_request_cost=0.5)) as service:
            with pytest.raises(RequestTooExpensiveError):
                service.query("all_fields", query="vaccine")
            with pytest.raises(RequestTooExpensiveError):
                service.query("all_fields", query="vaccine")
            stats = service.stats()
            assert stats["negative_hits"] >= 1
            assert stats["cost_rejected"] == 1  # priced once, replayed after

    def test_generous_budget_serves_normally(self, system):
        with QueryService(system,
                          ServeConfig(max_request_cost=1e9)) as service:
            result = service.query("all_fields", query="vaccine")
            assert result.value.total_matches >= 0
            assert service.stats()["cost_rejected"] == 0

    def test_every_engine_is_priced(self, system):
        with QueryService(system,
                          ServeConfig(max_request_cost=0.0)) as service:
            for engine, params in [
                ("all_fields", {"query": "vaccine"}),
                ("title_abstract", {"abstract": "vaccine"}),
                ("table", {"query": "dosage"}),
                ("kg", {"query": "side effects"}),
            ]:
                with pytest.raises(RequestTooExpensiveError):
                    service.query(engine, **params)


class TestServeStatsCli:
    def test_max_cost_flag(self, tmp_path, capsys):
        from repro.api.persistence import save_system
        from repro.cli import main

        papers = CorpusGenerator(GeneratorConfig(
            seed=48, papers_per_week=15, tables_per_paper=(1, 2),
        )).papers(12)
        kg = CovidKG(CovidKGConfig(num_shards=2))
        kg.ingest(papers)
        save_system(kg, tmp_path / "sys")

        exit_code = main([
            "serve-stats", "--system", str(tmp_path / "sys"),
            "--requests", "8", "--workers", "2",
            "--max-cost", "1000000", "vaccine",
        ])
        out = capsys.readouterr().out
        assert exit_code == 0
        assert "max_request_cost: 1000000" in out
        assert "cost_rejected: 0" in out
