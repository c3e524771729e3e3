"""Pipeline validation, and the search engines' pipeline checked by it."""

from __future__ import annotations

import pytest

from repro.analysis.pipeline_check import (
    PipelineValidationError,
    ensure_valid_pipeline,
    validate_pipeline,
)
from repro.docstore.functions import FunctionRegistry
from repro.errors import AggregationError


@pytest.fixture()
def registry():
    reg = FunctionRegistry()
    reg.register("rank", lambda doc: 1.0)
    return reg


GOOD_PIPELINE = [
    {"$match": {"year": {"$gte": 2020},
                "$or": [{"journal": "Nature"}, {"journal": "Cell"}]}},
    {"$project": {"title": 1, "year": 1}},
    {"$addFields": {"boost": {"$multiply": ["$year", 0.001]}}},
    {"$function": {"name": "rank", "args": ["$$ROOT"], "as": "score"}},
    {"$sort": {"score": -1}},
    {"$skip": 10},
    {"$limit": 10},
]


def test_good_pipeline_has_no_issues(registry):
    assert validate_pipeline(GOOD_PIPELINE, registry) == []
    assert ensure_valid_pipeline(GOOD_PIPELINE, registry) == []


def _errors(stages, registry=None):
    return [issue for issue in validate_pipeline(stages, registry)
            if issue.severity == "error"]


def test_non_list_pipeline_is_an_error():
    (issue,) = _errors({"$match": {}})
    assert "must be a list" in issue.message


def test_multi_key_stage_is_an_error():
    (issue,) = _errors([{"$match": {}, "$limit": 1}])
    assert "single-key" in issue.message


def test_unknown_stage_gets_a_did_you_mean_hint():
    (issue,) = _errors([{"$matc": {"x": 1}}])
    assert "unknown stage" in issue.message
    assert "$match" in issue.message


def test_unknown_match_operator_rejected():
    (issue,) = _errors([{"$match": {"x": {"$gtee": 3}}}])
    assert "$gtee" in issue.message and "$gte" in issue.message


def test_logical_operator_shape_checked():
    (issue,) = _errors([{"$match": {"$or": {"x": 1}}}])
    assert "non-empty list" in issue.message


def test_in_requires_array():
    (issue,) = _errors([{"$match": {"x": {"$in": 3}}}])
    assert "requires an array" in issue.message


def test_elem_match_subquery_validated():
    (issue,) = _errors([{"$match":
                         {"rows": {"$elemMatch": {"v": {"$bogus": 1}}}}}])
    assert "$bogus" in issue.message


def test_unregistered_function_stage_rejected(registry):
    (issue,) = _errors([{"$function": {"name": "nope"}}], registry)
    assert "not registered" in issue.message
    assert "rank" in issue.message  # the hint lists what exists


def test_function_stage_without_registry_skips_resolution():
    # registry=None: per-query functions may be registered later.
    assert _errors([{"$function": {"name": "later"}}], None) == []


def test_unregistered_function_expression_rejected(registry):
    (issue,) = _errors(
        [{"$addFields": {"s": {"$function": {"name": "ghost"}}}}], registry
    )
    assert "ghost" in issue.message


def test_unknown_expression_operator_rejected():
    (issue,) = _errors([{"$project": {"z": {"$addd": [1, 2]}}}])
    assert "$addd" in issue.message and "$add" in issue.message


def test_expression_arity_checked():
    (issue,) = _errors([{"$addFields": {"z": {"$divide": [1, 2, 3]}}}])
    assert "exactly 2 operands" in issue.message


def test_cond_shape_checked():
    (issue,) = _errors([{"$addFields": {"z": {"$cond": [1, 2]}}}])
    assert "$cond" in issue.message


def test_sort_direction_checked():
    (issue,) = _errors([{"$sort": {"score": "desc"}}])
    assert "must be 1 or -1" in issue.message


def test_skip_and_limit_must_be_nonnegative_ints():
    issues = _errors([{"$skip": -1}, {"$limit": "ten"}])
    assert len(issues) == 2


def test_unwind_path_shape_checked():
    (issue,) = _errors([{"$unwind": "authors"}])
    assert "starting with '$'" in issue.message


def test_group_requires_id_and_known_accumulators():
    issues = _errors([{"$group": {"total": {"$summ": "$x"}}}])
    messages = " ".join(issue.message for issue in issues)
    assert "_id" in messages
    assert "$summ" in messages and "$sum" in messages


def test_facet_subpipelines_validated(registry):
    (issue,) = _errors(
        [{"$facet": {"top": [{"$bogus": 1}]}}], registry
    )
    assert "facet 'top'" in issue.message and "$bogus" in issue.message


def test_bucket_boundaries_checked():
    (issue,) = _errors([{"$bucket": {"groupBy": "$y",
                                     "boundaries": [3, 1, 2]}}])
    assert "sorted" in issue.message


def test_perf_warning_match_not_first():
    issues = validate_pipeline(
        [{"$sort": {"x": 1}}, {"$match": {"x": 1}}]
    )
    assert [issue.severity for issue in issues] == ["warning"]
    assert "index pushdown" in issues[0].message


def test_no_match_warning_when_match_needs_computed_fields():
    issues = validate_pipeline([
        {"$group": {"_id": "$j", "n": {"$count": {}}}},
        {"$match": {"n": {"$gte": 2}}},
    ])
    assert issues == []


def test_perf_warning_sort_after_limit():
    issues = validate_pipeline(
        [{"$match": {"x": 1}}, {"$limit": 5}, {"$sort": {"x": 1}}]
    )
    assert [issue.severity for issue in issues] == ["warning"]
    assert "already-truncated" in issues[0].message


def test_ensure_valid_raises_with_all_errors(registry):
    with pytest.raises(PipelineValidationError) as excinfo:
        ensure_valid_pipeline(
            [{"$matc": {}}, {"$sort": {"x": 0}}], registry
        )
    assert len(excinfo.value.issues) == 2
    assert isinstance(excinfo.value, AggregationError)


def test_warnings_do_not_raise(registry):
    issues = ensure_valid_pipeline(
        [{"$limit": 5}, {"$sort": {"x": 1}}], registry
    )
    assert [issue.severity for issue in issues] == ["warning"]


# -- the search engines' constant pipeline, checked once --------------------

@pytest.mark.parametrize("ranker", ["tfidf", "bm25"])
@pytest.mark.parametrize("engine_name",
                         ["all_fields", "title_abstract", "table"])
def test_engine_pipelines_are_valid_and_run_as_planned(
        registry, engine_name, ranker):
    """Only code builds a search pipeline, so one test validates it.

    ``pipeline_plan`` is what admission prices; the scalar path must
    execute exactly its stages (``$skip``/``$limit`` as a slice).
    """
    from repro.corpus.generator import CorpusGenerator
    from repro.search.all_fields import AllFieldsEngine
    from repro.search.table_search import TableSearchEngine
    from repro.search.title_abstract import TitleAbstractCaptionEngine

    engine = {"all_fields": AllFieldsEngine,
              "title_abstract": TitleAbstractCaptionEngine,
              "table": TableSearchEngine}[engine_name](ranker=ranker)
    engine.add_papers(CorpusGenerator().papers(12))
    plan = engine.pipeline_plan(page=2)
    assert validate_pipeline(plan, registry) == []
    planned = [next(iter(stage)) for stage in plan]
    assert planned[4:] == ["$skip", "$limit"]

    engine.use_columnar = False
    for full_sort in (False, True):
        engine.full_sort = full_sort
        results = (engine.search(abstract="covid patients", page=2)
                   if engine_name == "title_abstract"
                   else engine.search("covid patients", page=2))
        executed = [stats.stage.split("(")[0]
                    for stats in results.stage_stats]
        assert executed == planned[:4]


def test_match_plan_documents_validate(registry):
    """The ``$match`` the scalar path really runs, phrase and synonyms
    included, passes the validator inside the planned pipeline."""
    from repro.search.all_fields import AllFieldsEngine
    from repro.search.columnar import MatchPlan
    from repro.search.query import parse_query
    from repro.search.synonyms import SynonymExpander

    plan = AllFieldsEngine().pipeline_plan()
    parsed = parse_query('"covid" vaccine')
    for match_plan in (
            MatchPlan.terms_over_fields(parsed, ["search.title",
                                                 "search.abstract"],
                                        expander=SynonymExpander()),
            MatchPlan.fields_over_terms([("search.title", parsed),
                                         ("search.abstract", parsed)])):
        assert validate_pipeline(
            [{"$match": match_plan.match_document()}] + plan[1:],
            registry) == []
