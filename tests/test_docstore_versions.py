"""Version counters: the invalidation signal behind the serving cache."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.docstore.collection import Collection
from repro.docstore.sharding import ShardedCollection
from repro.errors import DuplicateKeyError, ShardingError
from repro.kg.fusion import ExtractedSubtree, FusionEngine
from repro.kg.graph import KnowledgeGraph
from repro.kg.matching import NodeMatcher
from repro.kg.ontology import seed_covid_graph
from repro.kg.review import ExpertReviewQueue


class TestCollectionVersion:
    def test_every_mutation_bumps(self):
        # The store is insert-only: each inserted document is one step.
        collection = Collection("c")
        assert collection.version == 0
        collection.insert_one({"k": 1, "v": "a"})
        assert collection.version == 1
        collection.insert_many([{"k": 2}, {"k": 3}])
        assert collection.version == 3

    def test_reads_do_not_bump(self):
        collection = Collection("c")
        collection.insert_one({"k": 1})
        before = collection.version
        collection.find({"k": 1}).to_list()
        collection.find_one({"k": 1})
        collection.count()
        list(collection.scan({"k": 1}))
        assert collection.version == before

    def test_failed_unique_insert_does_not_bump(self):
        from repro.errors import DuplicateKeyError
        collection = Collection("c")
        collection.create_index("k", unique=True)
        collection.insert_one({"k": 1})
        before = collection.version
        with pytest.raises(DuplicateKeyError):
            collection.insert_one({"k": 1})
        assert collection.version == before

    def test_advance_version_never_lowers(self):
        collection = Collection("c")
        collection.advance_version(10)
        assert collection.version == 10
        collection.advance_version(3)
        assert collection.version == 10


class TestShardedCollectionVersion:
    def test_aggregates_across_shards(self):
        store = ShardedCollection("s", shard_key="k", num_shards=3)
        assert store.version == 0
        for i in range(7):
            store.insert_one({"k": f"key-{i}"})
        assert store.version == 7

    def test_advance_version(self):
        store = ShardedCollection("s", shard_key="k", num_shards=2)
        store.insert_one({"k": "a"})
        store.advance_version(100)
        assert store.version == 100
        store.insert_one({"k": "b"})
        assert store.version == 101


class _SummedVersion:
    """The store's counter as it was once computed: the sum of the
    shards' counters plus the offset ``advance_version`` adds."""

    def __init__(self, store):
        self.store = store
        self.offset = 0

    @property
    def version(self):
        return self.offset + sum(shard.version for shard in self.store.shards)

    def advance_version(self, floor):
        current = self.version
        if current < floor:
            self.offset += floor - current


#: A document routed by its key, or one without the shard key (a
#: ``ShardingError``, mid-batch in ``insert_many``).
_DOCUMENTS = st.one_of(
    st.builds(lambda key: {"k": key}, st.sampled_from("abcdef")),
    st.just({"other": 1}),
)
_OPERATIONS = st.lists(st.one_of(
    st.tuples(st.just("insert_one"), _DOCUMENTS),
    st.tuples(st.just("insert_many"), st.lists(_DOCUMENTS, max_size=6)),
    st.tuples(st.just("advance_version"), st.integers(0, 30)),
), max_size=20)


@settings(max_examples=200, deadline=None)
@given(operations=_OPERATIONS, num_shards=st.integers(1, 4))
@example(operations=[
    ("insert_many", [{"k": "a"}, {"k": "b"}, {"other": 1}, {"k": "c"}]),
    ("insert_many", [{"k": "d"}, {"k": "a"}, {"k": "e"}]),
    ("advance_version", 10),
    ("insert_one", {"k": "b"}),
    ("advance_version", 3),
    ("insert_one", {"k": "f"}),
], num_shards=2)
def test_one_counter_equals_the_summed_shard_counters(operations,
                                                       num_shards):
    """Refused rows (a missing shard key, a repeated unique key) leave
    the counter where the rows that landed put it."""
    store = ShardedCollection("s", shard_key="k", num_shards=num_shards)
    store.create_index("k", unique=True)
    reference = _SummedVersion(store)
    for name, argument in operations:
        if name == "advance_version":
            store.advance_version(argument)
            reference.advance_version(argument)
        else:
            try:
                getattr(store, name)(argument)
            except (ShardingError, DuplicateKeyError):
                pass
        assert store.version == reference.version


class TestKnowledgeGraphVersion:
    def test_structural_writes_bump(self):
        graph = KnowledgeGraph()
        v0 = graph.version
        child = graph.add_node("Vaccines")
        assert graph.version > v0
        v1 = graph.version
        graph.insert_parent("Interventions", child)
        assert graph.version > v1

    def test_reads_do_not_bump(self):
        graph = seed_covid_graph()
        before = graph.version
        list(graph.walk())
        graph.statistics()
        graph.path_to(graph.root_id)
        assert graph.version == before

    def test_touch_and_advance(self):
        graph = KnowledgeGraph()
        before = graph.version
        graph.touch()
        assert graph.version == before + 1
        graph.advance_version(before + 100)
        assert graph.version == before + 100

    def test_json_roundtrip_starts_nonzero(self):
        graph = seed_covid_graph()
        restored = KnowledgeGraph.from_json(graph.to_json())
        assert restored.version > 0

    def test_fusion_merge_touches_graph(self):
        graph = seed_covid_graph()
        engine = FusionEngine(graph, NodeMatcher(graph),
                              review_queue=ExpertReviewQueue())
        target = next(node for node in graph.walk()
                      if node.node_id != graph.root_id and node.is_leaf)
        before = graph.version
        result = engine.fuse(ExtractedSubtree(
            label=target.label, provenance="paper-1",
        ))
        assert result.action in ("merged", "auto_approved")
        assert graph.version > before


class TestPersistedVersions:
    def test_save_then_load_advances_counters(self, tmp_path):
        from repro.api.persistence import load_system, save_system
        from repro.api.system import CovidKG, CovidKGConfig
        from repro.corpus.generator import CorpusGenerator, GeneratorConfig

        corpus = CorpusGenerator(GeneratorConfig(
            seed=7, tables_per_paper=(1, 1),
        )).papers(6)
        system = CovidKG(CovidKGConfig(num_shards=2))
        system.ingest(corpus)
        saved_store, saved_kg = system.store.version, system.graph.version
        save_system(system, tmp_path / "sys")

        reloaded = load_system(tmp_path / "sys")
        # Strictly past the saved counters: a cache keyed against the
        # old process's snapshots can never read as fresh.
        assert reloaded.store.version > saved_store
        assert reloaded.graph.version > saved_kg

    def test_versions_file_written(self, tmp_path):
        import json

        from repro.api.persistence import save_system
        from repro.api.system import CovidKG

        save_system(CovidKG(), tmp_path / "sys")
        data = json.loads((tmp_path / "sys" / "versions.json").read_text())
        assert set(data) == {"store", "kg"}
