"""Tests for scale-out function execution over Spark."""
import copy
import gc
from collections import Counter
from dataclasses import replace

import pytest
from pyspark.sql import SparkSession
from pyspark.sql import functions as F

from repro.core import execute
from repro.core.direct import run_closed_direct, run_direct
from repro.core.evaporate import run_code, run_code_plus
from repro.core.execute import docs_frame, function_rows, run_functions
from repro.core.synthesis import compile_candidate, generate_candidates
from repro.core.schema import N_SCHEMA_SAMPLE
from repro.lakes import fda, nba, registry
from repro.lakes.base import DataLake, LakeSpec, Variant, build_lake


@pytest.fixture(scope="module")
def fda_cands(fda_lake, fda_llm):
    ids = sorted(fda_lake.docs.doc_id)[:3]
    cands = []
    for attr in ("applicant", "classification"):
        cands.extend(generate_candidates(fda_lake, fda_llm, attr, sample_ids=ids))
    return cands


class TestRunFunctions:
    def test_votes_shape(self, spark, fda_lake, fda_cands):
        votes = run_functions(spark, fda_lake, fda_cands).toPandas()
        assert set(votes.columns) == {"doc_id", "attribute", "fid", "value"}
        assert len(votes) == fda_lake.n_docs * len(fda_cands)

    def test_every_pair_present(self, spark, fda_lake, fda_cands):
        votes = run_functions(spark, fda_lake, fda_cands).toPandas()
        pairs = set(zip(votes.doc_id, votes.fid))
        assert len(pairs) == fda_lake.n_docs * len(fda_cands)

    def test_doc_subset(self, spark, fda_lake, fda_cands):
        ids = sorted(fda_lake.docs.doc_id)[:4]
        votes = run_functions(spark, fda_lake, fda_cands, doc_ids=ids).toPandas()
        assert set(votes.doc_id) == set(ids)

    def test_spark_matches_local_execution(self, spark, fda_lake, fda_cands):
        """The mapInPandas compile-per-partition path must agree exactly
        with compiling and applying the same sources on the driver."""
        votes = run_functions(spark, fda_lake, fda_cands).toPandas()
        text_of = dict(zip(fda_lake.docs.doc_id, fda_lake.docs.text))
        local = {
            (d, c.fid): compile_candidate(c)(text_of[d])
            for c in fda_cands for d in fda_lake.docs.doc_id
        }
        for r in votes.itertuples():
            assert local[(r.doc_id, r.fid)] == r.value

    def test_values_are_strings(self, spark, fda_lake, fda_cands):
        votes = run_functions(spark, fda_lake, fda_cands).toPandas()
        assert votes.value.map(lambda v: isinstance(v, str)).all()

    def test_vote_counts_oracle(self, spark, fda_lake, fda_cands):
        """Oracle check: non-empty vote counts per attribute computed in
        Spark equal the DuckDB aggregate over the same votes."""
        from pyspark.sql import functions as F
        from repro.oracle import assert_equivalent
        votes = run_functions(spark, fda_lake, fda_cands)
        votes_pd = votes.toPandas()
        agg = (
            votes.filter(F.col("value") != "")
            .groupBy("attribute").agg(F.count("*").alias("n_votes"))
        )
        assert_equivalent(
            agg,
            """SELECT attribute, COUNT(*) AS n_votes
               FROM votes WHERE value <> '' GROUP BY attribute""",
            votes=votes_pd,
        )


class TestDistinctSources:
    """Candidates that share a ``(source, fn_name)`` run once per doc and
    fan their value out to every fid."""

    @pytest.fixture(scope="class")
    def shared_cands(self, fda_cands):
        # each run of three candidates (six per attribute) takes the source
        # of its first one
        heads = [fda_cands[k - k % 3] for k in range(len(fda_cands))]
        out = [replace(c, source=h.source, fn_name=h.fn_name)
               for c, h in zip(fda_cands, heads)]
        assert len({(c.source, c.fn_name) for c in out}) <= len(out) // 3
        return out

    def test_rows_values_and_order(self, spark, fda_lake, shared_cands):
        votes = run_functions(spark, fda_lake, shared_cands).toPandas()
        docs = list(fda_lake.docs.doc_id)
        assert list(zip(votes.doc_id, votes.fid)) == [
            (d, c.fid) for d in docs for c in shared_cands]
        text_of = dict(zip(fda_lake.docs.doc_id, fda_lake.docs.text))
        local = {(d, c.fid): compile_candidate(c)(text_of[d])
                 for c in shared_cands for d in docs}
        assert dict(zip(zip(votes.doc_id, votes.fid), votes.value)) == local

    def test_each_source_applied_once_per_doc(self, fda_lake, shared_cands, monkeypatch):
        compiled, applied = Counter(), Counter()

        def counting_compile(cand):
            fn = compile_candidate(cand)
            compiled[cand.source] += 1

            def counted(text):
                applied[cand.source] += 1
                return fn(text)

            return counted

        monkeypatch.setattr(execute, "compile_candidate", counting_compile)
        row_fn = function_rows(shared_cands)()  # the executor's setup, run here
        rows = [row for d, t in zip(fda_lake.docs.doc_id, fda_lake.docs.text)
                for row in row_fn(d, t)]
        sources = {c.source for c in shared_cands}
        assert len(rows) == fda_lake.n_docs * len(shared_cands)
        assert compiled == Counter(dict.fromkeys(sources, 1))
        assert applied == Counter(dict.fromkeys(sources, fda_lake.n_docs))


VIEW = ["doc_id", "attribute", "value"]


@pytest.mark.parametrize("lake_pass,columns,expect", [
    (lambda spark, lake, cands: run_direct(spark, lake, doc_ids=[]),
     VIEW, {"tokens": 0, "n_docs": 0, "ranked_attrs": []}),
    (lambda spark, lake, cands: run_closed_direct(spark, lake, lake.gold_attrs, doc_ids=[]),
     VIEW, {"tokens": 0, "n_docs": 0}),
    (lambda spark, lake, cands: run_functions(spark, lake, cands, doc_ids=[]).toPandas(),
     ["doc_id", "attribute", "fid", "value"], {}),
    (lambda spark, lake, cands: run_code(spark, lake, doc_ids=[]), VIEW, {}),
    (lambda spark, lake, cands: run_code_plus(spark, lake, doc_ids=[]), VIEW, {}),
], ids=["run_direct", "run_closed_direct", "run_functions", "run_code", "run_code_plus"])
def test_empty_doc_selection(spark, fda_lake, fda_cands, lake_pass, columns, expect):
    """Every lake pass over an empty doc selection gives an empty table
    with its usual columns; the Direct runs spend no tokens."""
    res = lake_pass(spark, fda_lake, fda_cands)
    table = getattr(res, "table", res)
    assert table.empty and list(table.columns) == columns
    assert {k: getattr(res, k) for k in expect} == expect


def _synthetic_lake(n_docs: int, doc_tokens: int) -> DataLake:
    """A lake of filler prose only: no attributes, ~4 chars per token."""
    return build_lake(LakeSpec(
        name="big", topic="t", fmt="txt", attrs=[], variants=[Variant("v", 1.0, {}, "")],
        n_docs=n_docs, doc_tokens=doc_tokens, difficulty=0.0, fn_fragility=0.0))


class TestDocsFrame:
    """Each lake's docs frame is built once, persisted, lake-ordered and
    unpersisted with its lake."""

    @pytest.mark.parametrize("setting", registry.ALL_SETTINGS)
    def test_executor_render_equals_driver_render(self, spark, setting):
        lake = registry.make_lake(setting, 12)
        frame = docs_frame(spark, lake).toPandas()
        assert list(frame.doc_id) == list(lake.docs.doc_id) == lake.doc_ids
        assert list(frame.text) == list(lake.docs.text)  # str equality: byte for byte
        assert [lake.doc_text[d] for d in lake.doc_ids] == list(lake.docs.text)

    def test_over_48_mib_keeps_default_parallelism(self, spark):
        # 200 docs of ~300 KB each: 60 MB of text, above the 48 MiB where
        # createDataFrame(pandas) gives one partition
        lake = _synthetic_lake(200, 40_000)
        frame = docs_frame(spark, lake)
        assert frame.select(F.sum(F.length("text"))).first()[0] > 48 * 2**20
        parallelism = spark.sparkContext.defaultParallelism
        assert frame.rdd.getNumPartitions() == parallelism
        parts = frame.select("doc_id", F.spark_partition_id().alias("part")).toPandas()
        assert list(parts.doc_id) == lake.doc_ids
        assert parts.part.is_monotonic_increasing
        assert parts.part.nunique() == parallelism

    def test_built_once_per_lake(self, spark, fda_lake, monkeypatch):
        lake = copy.copy(fda_lake)  # a lake object no earlier test has passed over
        doc_range, built = SparkSession.range, []

        def spy(self, *args, **kwargs):  # docs_frame renders over spark.range
            built.append(lake)
            return doc_range(self, *args, **kwargs)

        monkeypatch.setattr(SparkSession, "range", spy)
        first = run_direct(spark, lake)
        second = run_direct(spark, lake)
        run_code_plus(spark, lake)
        assert len(built) == 1
        assert first.table.equals(second.table) and first.tokens == second.tokens

    def test_each_lake_object_has_its_own_frame(self, spark, fda_lake):
        a, b = copy.copy(fda_lake), copy.copy(fda_lake)
        assert docs_frame(spark, a) is docs_frame(spark, a)
        assert docs_frame(spark, a) is not docs_frame(spark, b)

    def test_unpersisted_with_its_lake(self, spark, fda_lake):
        lake = fda.make_lake(7)  # no other lake has its spec, so none shares its frame
        frame = docs_frame(spark, lake)
        assert frame.storageLevel.useMemory
        del lake
        gc.collect()
        assert not (frame.storageLevel.useMemory or frame.storageLevel.useDisk)
        for _ in range(8):  # new lakes, some at the freed lake's id
            assert docs_frame(spark, copy.copy(fda_lake)) is not frame

    def test_equal_specs_share_one_cache_until_the_last_lake_goes(self, spark):
        a, b = fda.make_lake(5), fda.make_lake(5)
        frame_a, frame_b = docs_frame(spark, a), docs_frame(spark, b)
        assert frame_a is not frame_b and frame_a.sameSemantics(frame_b)
        del a
        gc.collect()
        assert frame_b.storageLevel.useMemory
        del b
        gc.collect()
        assert not (frame_b.storageLevel.useMemory or frame_b.storageLevel.useDisk)

    def test_no_unpersist_after_its_context_stopped(self, spark, fda_lake, monkeypatch):
        lake = copy.copy(fda_lake)
        frame = docs_frame(spark, lake)
        monkeypatch.setattr(execute, "_live", lambda sc: False)  # as after spark.stop()
        del lake
        gc.collect()
        assert frame.storageLevel.useMemory
        frame.unpersist()


class TestDriverRenders:
    """The pipelines render on the driver only the docs they sample; the
    lake's text is rendered on the executors."""

    def test_code_plus_renders_only_its_samples(self, spark):
        lake = fda.make_lake(24)  # a fresh lake: nothing rendered yet
        run_code_plus(spark, lake)
        assert 0 < len(lake.doc_text) <= N_SCHEMA_SAMPLE
        assert "docs" not in vars(lake)

    def test_direct_renders_nothing(self, spark):
        lake = nba.make_lake(12)
        run_direct(spark, lake)
        assert len(lake.doc_text) == 0
        assert "docs" not in vars(lake)
