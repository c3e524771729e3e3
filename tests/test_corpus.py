"""Tests for the synthetic CORD-19 and WDC corpus generators."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.corpus import vocabulary_data as vd
from repro.corpus.generator import CorpusGenerator, GeneratorConfig
from repro.corpus.loader import load_papers_jsonl, save_papers_jsonl
from repro.corpus.schema import full_text, validate_paper
from repro.corpus.wdc import WdcTableGenerator
from repro.errors import PersistenceError, SchemaError
from repro.tables.html_parser import parse_html_table


@pytest.fixture(scope="module")
def generator():
    return CorpusGenerator(GeneratorConfig(seed=42, papers_per_week=10))


@pytest.fixture(scope="module")
def papers(generator):
    return generator.papers(60)


class TestSchema:
    def test_generated_papers_validate(self, papers):
        for paper in papers:
            validate_paper(paper)

    def test_missing_field_rejected(self, papers):
        broken = dict(papers[0])
        del broken["abstract"]
        with pytest.raises(SchemaError):
            validate_paper(broken)

    def test_bad_date_rejected(self, papers):
        broken = dict(papers[0])
        broken["publish_time"] = "July 2020"
        with pytest.raises(SchemaError):
            validate_paper(broken)

    def test_non_dict_rejected(self):
        with pytest.raises(SchemaError):
            validate_paper(["not", "a", "paper"])

    def test_full_text_collects_sections(self, papers):
        paper = papers[0]
        text = full_text(paper)
        assert paper["title"] in text
        assert paper["abstract"] in text


class TestGenerator:
    def test_deterministic(self):
        a = CorpusGenerator(GeneratorConfig(seed=7)).paper(3)
        b = CorpusGenerator(GeneratorConfig(seed=7)).paper(3)
        assert a == b

    def test_different_seeds_differ(self):
        a = CorpusGenerator(GeneratorConfig(seed=1)).paper(0)
        b = CorpusGenerator(GeneratorConfig(seed=2)).paper(0)
        assert a != b

    def test_unique_paper_ids(self, papers):
        ids = [paper["paper_id"] for paper in papers]
        assert len(set(ids)) == len(ids)

    def test_publish_time_advances_weekly(self, generator):
        early = generator.paper(0)["publish_time"]
        late = generator.paper(55)["publish_time"]  # 5+ weeks later
        assert late > early

    def test_weekly_batches_sizes(self, generator):
        batches = list(generator.weekly_batches(3))
        assert len(batches) == 3
        assert all(len(batch) == 10 for batch in batches)

    def test_topics_cover_configured_set(self, papers):
        seen = {paper["ground_truth"]["topic"] for paper in papers}
        assert len(seen) >= 5

    def test_topic_vocabulary_dominates_text(self, papers):
        # Text of a topic's paper should contain its topic terms.
        for paper in papers[:10]:
            topic = paper["ground_truth"]["topic"]
            text = full_text(paper).lower()
            hits = sum(1 for term in vd.TOPICS[topic] if term in text)
            assert hits >= 2

    def test_tables_have_labeled_headers(self, papers):
        tables = [t for paper in papers for t in paper["tables"]]
        assert tables, "no tables generated across 60 papers"
        for table in tables:
            assert table["rows"][0].get("is_metadata") is True

    def test_table_html_roundtrips_through_parser(self, papers):
        for paper in papers:
            for table_json in paper["tables"]:
                parsed = parse_html_table(table_json["html"])
                original_grid = [
                    [cell["text"] for cell in row["cells"]]
                    for row in table_json["rows"]
                ]
                assert parsed.row_texts() == original_grid
                assert parsed.caption == table_json["caption"]

    def test_side_effect_tables_record_ground_truth(self, papers):
        for paper in papers:
            for table in paper["tables"]:
                if table["kind"] == "side_effects":
                    assert paper["ground_truth"]["vaccines"]
                    assert paper["ground_truth"]["side_effects"]

    def test_unknown_topic_rejected(self):
        with pytest.raises(SchemaError):
            CorpusGenerator(GeneratorConfig(topics=["astrology"]))

    def test_unseen_vaccines_appear_at_low_rate(self):
        config = GeneratorConfig(seed=3, unseen_vaccine_rate=0.5)
        papers = CorpusGenerator(config).papers(40)
        unseen = {
            vaccine
            for paper in papers
            for vaccine in paper["ground_truth"]["vaccines"]
            if vaccine in vd.UNSEEN_VACCINES
        }
        assert unseen  # at 50% rate some must appear


class TestLoader:
    def test_roundtrip(self, papers, tmp_path):
        path = tmp_path / "corpus.jsonl"
        assert save_papers_jsonl(papers[:5], path) == 5
        loaded = load_papers_jsonl(path)
        assert loaded == papers[:5]

    def test_missing_file(self, tmp_path):
        with pytest.raises(PersistenceError):
            load_papers_jsonl(tmp_path / "nope.jsonl")

    def test_corrupt_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("{broken\n")
        with pytest.raises(PersistenceError):
            load_papers_jsonl(path)

    def test_invalid_paper_reported_with_line(self, papers, tmp_path):
        import json
        path = tmp_path / "invalid.jsonl"
        broken = dict(papers[0])
        del broken["title"]
        path.write_text(json.dumps(broken) + "\n")
        with pytest.raises(SchemaError, match="invalid.jsonl:1"):
            load_papers_jsonl(path)


class TestWdc:
    def test_horizontal_table_shape(self):
        generated = WdcTableGenerator(seed=1).generate(
            0, orientation="horizontal", num_data_rows=5, num_columns=4
        )
        assert generated.table.num_rows == 6
        assert generated.table.num_columns == 4
        assert generated.metadata_lines == [0]
        assert generated.table.rows[0].is_metadata is True

    def test_vertical_table_shape(self):
        generated = WdcTableGenerator(seed=1).generate(
            0, orientation="vertical", num_data_rows=5, num_columns=3
        )
        # Vertical: one row per attribute, one column per record (+ header).
        assert generated.table.num_rows == 3
        assert generated.table.num_columns == 6

    def test_deterministic(self):
        a = WdcTableGenerator(seed=5).generate(2)
        b = WdcTableGenerator(seed=5).generate(2)
        assert a.table.row_texts() == b.table.row_texts()

    def test_invalid_orientation(self):
        with pytest.raises(SchemaError):
            WdcTableGenerator().generate(0, orientation="diagonal")


@settings(deadline=None, max_examples=15)
@given(st.integers(0, 500))
def test_any_paper_index_validates(index):
    paper = CorpusGenerator(GeneratorConfig(seed=9)).paper(index)
    validate_paper(paper)


class TestCord19MetadataCsv:
    CSV = (
        "cord_uid,title,abstract,authors,publish_time,journal\n"
        'abc123,Masks work,"Cloth masks reduce spread.",'
        '"Chen, Wei; Garcia, Maria",2020-07-13,JAMA\n'
        "def456,Year only paper,Some abstract,Smith John,2021,BMJ\n"
        ",Missing id,abstract,,2020-01-01,X\n"
        "ghi789,No date paper,abstract,,,X\n"
        "abc123,Duplicate uid,abstract,,2020-02-02,X\n"
    )

    def write(self, tmp_path):
        path = tmp_path / "metadata.csv"
        path.write_text(self.CSV)
        return path

    def test_loads_valid_rows(self, tmp_path):
        from repro.corpus.loader import load_cord19_metadata_csv
        papers = load_cord19_metadata_csv(self.write(tmp_path))
        ids = [paper["paper_id"] for paper in papers]
        assert ids == ["abc123", "def456"]

    def test_author_parsing(self, tmp_path):
        from repro.corpus.loader import load_cord19_metadata_csv
        papers = load_cord19_metadata_csv(self.write(tmp_path))
        authors = papers[0]["authors"]
        assert authors[0] == {"first": "Wei", "last": "Chen"}
        assert authors[1] == {"first": "Maria", "last": "Garcia"}

    def test_year_only_dates_normalized(self, tmp_path):
        from repro.corpus.loader import load_cord19_metadata_csv
        papers = load_cord19_metadata_csv(self.write(tmp_path))
        assert papers[1]["publish_time"] == "2021-01-01"

    def test_rows_validate_against_schema(self, tmp_path):
        from repro.corpus.loader import load_cord19_metadata_csv
        for paper in load_cord19_metadata_csv(self.write(tmp_path)):
            validate_paper(paper)

    def test_limit(self, tmp_path):
        from repro.corpus.loader import load_cord19_metadata_csv
        papers = load_cord19_metadata_csv(self.write(tmp_path), limit=1)
        assert len(papers) == 1

    def test_missing_file(self, tmp_path):
        from repro.corpus.loader import load_cord19_metadata_csv
        with pytest.raises(PersistenceError):
            load_cord19_metadata_csv(tmp_path / "absent.csv")

    def test_loaded_papers_are_ingestible(self, tmp_path):
        from repro.api.system import CovidKG, CovidKGConfig
        from repro.corpus.loader import load_cord19_metadata_csv
        papers = load_cord19_metadata_csv(self.write(tmp_path))
        system = CovidKG(CovidKGConfig(num_shards=2))
        system.ingest(papers)
        assert system.search("masks").total_matches == 1


class TestIngestSkipDuplicates:
    def test_redelivered_batch_is_noop(self):
        from repro.api.system import CovidKG, CovidKGConfig
        papers = CorpusGenerator(GeneratorConfig(seed=91)).papers(5)
        system = CovidKG(CovidKGConfig(num_shards=2))
        system.ingest(papers)
        report = system.ingest(papers, skip_duplicates=True)
        assert len(system.store) == 5
        assert report.subtrees == 0

    def test_partial_overlap(self):
        from repro.api.system import CovidKG, CovidKGConfig
        gen = CorpusGenerator(GeneratorConfig(seed=92))
        system = CovidKG(CovidKGConfig(num_shards=2))
        system.ingest(gen.papers(4))
        system.ingest(gen.papers(6), skip_duplicates=True)
        assert len(system.store) == 6
