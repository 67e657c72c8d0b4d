"""End-to-end integration tests of the three EVAPORATE implementations.

Uses one shared ``prepare_code`` artifact per lake (module-scoped) so the
suite exercises the full pipeline without repaying synthesis each test.
"""
import copy
from dataclasses import replace

import pytest
from pyspark.sql import functions as F

from repro.core import aggregate as agg
from repro.core import direct, evaporate, execute
from repro.core.metrics import closed_text_f1, pair_f1
from repro.llm.mock_llm import MockLLM


@pytest.fixture(scope="module")
def fda_art(spark, fda_lake):
    return evaporate.prepare_code(spark, fda_lake)


@pytest.fixture(scope="module")
def fda_code_plus(spark, fda_art):
    return evaporate.finish_code_plus(spark, fda_art)


class TestCodePlusOpenIE:
    def test_table_nonempty(self, fda_code_plus):
        assert len(fda_code_plus.table) > 0
        assert list(fda_code_plus.table.columns) == ["doc_id", "attribute", "value"]

    def test_some_attributes_survive(self, fda_lake, fda_code_plus):
        alive = set(fda_code_plus.attrs)
        assert len(alive & set(fda_lake.gold_attrs)) >= 6

    def test_quality_band(self, fda_lake, fda_code_plus):
        prf = pair_f1(fda_code_plus.table, fda_lake.gold)
        assert 0.45 < prf.f1 < 0.95

    def test_precision_exceeds_recall(self, fda_lake, fda_code_plus):
        """Table 1: Code+ precision runs ~20 points above recall —
        filtered attributes are dropped rather than guessed."""
        prf = pair_f1(fda_code_plus.table, fda_lake.gold)
        assert prf.precision > prf.recall

    def test_ledger_has_all_stages(self, fda_code_plus):
        stages = set(fda_code_plus.ledger.by_stage)
        assert {"schema", "rerank", "synthesis", "eval_labels"} <= stages

    def test_tokens_sublinear(self, spark, fda_lake, fda_code_plus):
        """Code+ LLM tokens are fixed wrt lake size; amortized over 10k
        documents the code path wins by more than an order of magnitude
        (Table 3's reduction column)."""
        from repro.core.direct import run_direct
        ids = sorted(fda_lake.docs.doc_id)[:10]
        direct = run_direct(spark, fda_lake, doc_ids=ids)
        per_doc = direct.tokens / 10
        assert fda_code_plus.tokens < per_doc * 10_000 / 10


class TestCodePlusVsCode:
    def test_ensembling_beats_single_function(self, spark, fda_lake, fda_code_plus):
        """The paper's core quality claim: Code+ > Code by a wide margin
        (aggregation over many candidates vs one unvetted function)."""
        code = evaporate.run_code(spark, fda_lake)
        gold = fda_lake.gold
        plus = pair_f1(fda_code_plus.table, gold).f1
        single = pair_f1(code.table, gold).f1
        assert plus > single + 0.1

    def test_code_cheaper_than_code_plus(self, spark, fda_lake, fda_code_plus):
        code = evaporate.run_code(spark, fda_lake)
        assert code.tokens < fda_code_plus.tokens


class TestClosedIEMode:
    def test_given_schema_skips_schema_synthesis(self, spark, enron_lake):
        res = evaporate.run_code_plus(spark, enron_lake,
                                      given_attrs=enron_lake.gold_attrs)
        assert "schema" not in res.ledger.by_stage
        assert res.schema is None

    def test_closed_quality_high_on_enron(self, spark, enron_lake):
        res = evaporate.run_code_plus(spark, enron_lake,
                                      given_attrs=enron_lake.gold_attrs)
        f1 = closed_text_f1(res.table, enron_lake.gold, enron_lake.gold_attrs,
                            sorted(enron_lake.docs.doc_id))
        assert f1 > 0.75  # Table 1 ClosedIE band


class TestAggregatorAblation:
    def test_final_config_at_least_matches_mv(self, spark, fda_art, fda_code_plus):
        """Table 4 ordering on FDA: Algorithm 1 >= plain majority vote."""
        mv = evaporate.finish_code_plus(spark, fda_art, aggregator="mv")
        from repro.lakes import registry
        gold = fda_art.lake.gold
        f_mv = pair_f1(mv.table, gold).f1
        f_full = pair_f1(fda_code_plus.table, gold).f1
        assert f_full >= f_mv - 0.02

    def test_filter_prunes_functions(self, spark, fda_art):
        unfiltered = evaporate.finish_code_plus(spark, fda_art, aggregator="ws")
        filtered = evaporate.finish_code_plus(spark, fda_art, aggregator="ws_filter")
        n_unf = sum(len(p.kept) for p in unfiltered.plans.values())
        n_fil = sum(len(p.kept) for p in filtered.plans.values())
        assert n_fil < n_unf


class TestDeterminism:
    def test_code_plus_reproducible(self, spark, enron_lake):
        a = evaporate.run_code_plus(spark, enron_lake)
        b = evaporate.run_code_plus(spark, enron_lake)
        pa = a.table.sort_values(["doc_id", "attribute"]).reset_index(drop=True)
        pb = b.table.sort_values(["doc_id", "attribute"]).reset_index(drop=True)
        assert pa.equals(pb)
        assert a.tokens == b.tokens


class TestModelSweep:
    def test_jumbo_collapses_where_davinci_works(self, spark, fda_lake):
        """Table 5: the weakest model's Code+ pipeline produces a nearly
        empty table on FDA while davinci's is populated."""
        jumbo = evaporate.run_code_plus(spark, fda_lake, model="jumbo")
        davinci_rows = 1  # fda_code_plus fixture covers davinci; just compare sizes
        assert len(jumbo.table) < len(fda_lake.gold) * 0.3

    def test_jumbo_survives_enron(self, spark, enron_lake):
        """...but remains competitive on the easy, short-doc lake."""
        res = evaporate.run_code_plus(spark, enron_lake, model="jumbo")
        prf = pair_f1(res.table, enron_lake.gold)
        assert prf.f1 > 0.6


class TestOneLLMPerRun:
    def test_run_code_plus_builds_one_mock_llm(self, spark, enron_lake, monkeypatch):
        """MockLLM is a pure function of its constructor arguments, so a
        run builds it once and hands it to every stage."""
        calls = []
        init = MockLLM.__init__

        def counting_init(self, *args, **kwargs):
            calls.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(MockLLM, "__init__", counting_init)
        evaporate.run_code_plus(spark, enron_lake)
        assert len(calls) == 1


class TestVoteRowOrderInvariance:
    @pytest.mark.parametrize("permute", [
        lambda f: f.iloc[::-1],
        lambda f: f.sample(frac=1.0, random_state=7),
    ], ids=["reversed", "shuffled"])
    @pytest.mark.parametrize("aggregator", ["ws", "ws_abstain_filter"])
    def test_plans_tokens_table_independent_of_row_order(
            self, spark, fda_art, permute, aggregator):
        """The validation sample and the WS fit read the votes in (doc,
        candidate) order, not in the order Spark happened to collect."""
        want = evaporate.finish_code_plus(spark, fda_art, aggregator)
        art = replace(fda_art, votes_all=permute(fda_art.votes_all).reset_index(drop=True))
        got = evaporate.finish_code_plus(spark, art, aggregator)
        assert got.plans == want.plans
        assert got.ledger.by_stage == want.ledger.by_stage
        key = ["doc_id", "attribute"]
        assert got.table.sort_values(key).reset_index(drop=True).equals(
            want.table.sort_values(key).reset_index(drop=True))

    def test_vote_sums_in_doc_candidate_order(self, spark, fda_art, monkeypatch):
        """A cell's weights add in the order of the vote matrix's columns,
        so the vote reads a matrix in (doc, candidate) order, as Spark
        sums, whatever order the votes were collected in."""
        seen, vote = [], agg.aggregate_votes
        monkeypatch.setattr(agg, "aggregate_votes",
                            lambda votes, plans: seen.append(votes) or vote(votes, plans))
        collected = fda_art.votes_all  # as run_functions collects: lake docs, then candidates
        for votes_all in (collected, collected.iloc[::-1].reset_index(drop=True)):
            evaporate.finish_code_plus(spark, replace(fda_art, votes_all=votes_all))
        want, got = seen
        assert list(want.values[want.codes.ravel()]) == list(collected.value)
        assert list(got.doc_ids) == list(want.doc_ids)
        assert list(got.fids) == list(want.fids)
        assert list(got.values) == list(want.values)
        assert (got.codes == want.codes).all()


class TestDriverVoteEqualsSparkVote:
    """Code+ votes on the driver over the collected votes; Code votes in
    Spark. Given the same plans, the two give the same table."""

    @pytest.fixture(scope="class", params=["fda_lake", "enron_lake"])
    def lake(self, request):
        return request.getfixturevalue(request.param)

    @pytest.fixture(scope="class", params=[False, True], ids=["all_docs", "doc_ids"])
    def art(self, spark, lake, request):
        doc_ids = sorted(lake.docs.doc_id)[::3] if request.param else None
        return evaporate.prepare_code(spark, lake, doc_ids=doc_ids)

    @pytest.mark.parametrize("aggregator", list(agg.AGGREGATORS))
    def test_table_equals_spark_vote(self, spark, art, aggregator):
        res = evaporate.finish_code_plus(spark, art, aggregator)
        votes = spark.createDataFrame(art.votes_all)
        if art.doc_ids is not None:
            votes = votes.filter(F.col("doc_id").isin(set(art.doc_ids)))
        want = agg.aggregate_votes_spark(spark, votes, res.plans).toPandas()
        key = ["doc_id", "attribute"]
        assert len(res.table) > 0
        assert res.table.sort_values(key).reset_index(drop=True).equals(
            want.sort_values(key).reset_index(drop=True))


class TestNoSparkJobs:
    def test_finish_code_plus_starts_no_spark_job(self, spark, fda_art):
        """Code+'s aggregation reads only the driver's artifacts."""
        sc = spark.sparkContext

        def jobs(group, action):
            sc.setJobGroup(group, group)
            try:
                action()
            finally:
                sc.setLocalProperty("spark.jobGroup.id", None)
            return sc.statusTracker().getJobIdsForGroup(group)

        # the counter sees a job when there is one
        assert len(jobs("finish-code-plus-control", lambda: spark.range(3).collect())) == 1
        assert jobs("finish-code-plus", lambda: evaporate.finish_code_plus(spark, fda_art)) == []


class TestPartitionInvariance:
    def test_code_plus_independent_of_shuffle_partitions(self, spark, enron_lake):
        """Tables and tokens do not depend on how Spark shuffles the votes."""
        def run():
            res = evaporate.run_code_plus(spark, enron_lake)
            table = res.table.sort_values(["doc_id", "attribute"]).reset_index(drop=True)
            return table, res.tokens

        key = "spark.sql.shuffle.partitions"
        before = spark.conf.get(key)
        want_table, want_tokens = run()
        try:
            for n in (1, 7, 64):
                spark.conf.set(key, str(n))
                table, tokens = run()
                assert table.equals(want_table), n
                assert tokens == want_tokens, n
        finally:
            spark.conf.set(key, before)

    def test_code_plus_and_direct_independent_of_input_partitions(
            self, spark, enron_lake, monkeypatch):
        """Code+ votes, both pipelines' tables and tokens do not depend on
        how many partitions the cached docs frame has."""
        def run():
            lake = copy.copy(enron_lake)  # a new lake object builds its own frame
            art = evaporate.prepare_code(spark, lake)
            code_plus = evaporate.finish_code_plus(spark, art)
            d = direct.run_direct(spark, lake)
            n = execute.docs_frame(spark, lake).rdd.getNumPartitions()
            return n, (art.votes_all, code_plus.table, d.table), (code_plus.tokens, d.tokens)

        _, want_frames, want_tokens = run()
        for n in (1, 7, 64):
            monkeypatch.setattr(execute, "_n_partitions", lambda spark, n=n: n)
            got_n, frames, tokens = run()
            assert got_n == n
            assert all(f.equals(w) for f, w in zip(frames, want_frames)), n
            assert tokens == want_tokens, n
