"""Tests for Algorithm 1: abstention inference, scoring, filtering,
top-b bucketing and the weighted vote, on the driver and in Spark."""
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.core.aggregate import (AGGREGATORS, AggConfig, AttrPlan, VoteMatrix,
                                  aggregate_votes, aggregate_votes_spark,
                                  eval_labels, score_and_plan)
from repro.core.synthesis import Candidate
from repro.core.ws import B, top_b
from repro.llm.mock_llm import MockLLM
from repro.llm.tokens import TokenLedger
from repro.oracle import assert_equivalent


def _mk_cands(attr, fids):
    return [Candidate(f, attr, "A", "", "fn") for f in fids]


def _votes(rows):
    return pd.DataFrame(rows, columns=["doc_id", "attribute", "fid", "value"])


def _matrix(votes, docs=(), fids=()):
    """A votes frame's ``VoteMatrix``: a row per doc and a column per fid
    of the frame, in first-seen order, then of ``docs`` and ``fids``."""
    rows, cols = dict.fromkeys([*votes.doc_id, *docs]), dict.fromkeys([*votes.fid, *fids])
    return VoteMatrix.build(votes, list(rows), list(cols))


def _driver_vote(votes, plans):
    """``aggregate_votes`` over a votes frame, with a column for every
    kept fid, as a run has one for every candidate."""
    kept = [f for p in plans.values() for f in p.kept]
    return aggregate_votes(_matrix(votes, fids=kept), plans)


def _plan(cands, rows, labels, cfg):
    """``score_and_plan`` over attribute "a"'s vote rows, as a matrix
    whose rows cover the D_eval docs, as ``finish_code_plus`` builds it."""
    return score_and_plan("a", cands, labels, _matrix(_votes(rows), labels), cfg)


# Step 7 both ways, each returning a pandas (doc_id, attribute, value) table
VOTES = {
    "spark": lambda spark, votes, plans:
        aggregate_votes_spark(spark, spark.createDataFrame(votes), plans).toPandas(),
    "driver": lambda spark, votes, plans: _driver_vote(votes, plans),
}
each_vote = pytest.mark.parametrize("vote", list(VOTES.values()), ids=list(VOTES))


class TestAggregators:
    def test_four_configs(self):
        assert set(AGGREGATORS) == {"mv", "ws", "ws_filter", "ws_abstain_filter"}

    def test_baselines_do_not_filter(self):
        assert not AGGREGATORS["mv"].use_filter
        assert not AGGREGATORS["ws"].use_filter
        assert AGGREGATORS["ws_filter"].use_filter
        assert AGGREGATORS["ws_abstain_filter"].use_abstain


class TestEvalLabels:
    def test_labels_for_all_eval_docs(self, fda_lake):
        llm = MockLLM(fda_lake, "davinci")
        ids = sorted(fda_lake.docs.doc_id)[:5]
        led = TokenLedger()
        labels = eval_labels(fda_lake, llm, "applicant", ids, led)
        assert set(labels) == set(ids)
        assert led.by_stage["eval_labels"] > 0

    def test_refusals_mapped_to_empty(self, fda_lake):
        llm = MockLLM(fda_lake, "claude")
        ids = sorted(fda_lake.docs.doc_id)[:10]
        led = TokenLedger()
        for attr in fda_lake.gold_attrs[:4]:
            labels = eval_labels(fda_lake, llm, attr, ids, led)
            from repro.llm.mock_llm import CHATBOT_REFUSAL
            assert CHATBOT_REFUSAL not in labels.values()


class TestScoreAndPlan:
    def test_good_function_kept_bad_filtered(self):
        cands = _mk_cands("a", ["good", "bad"])
        eval_rows = []
        labels = {}
        for i in range(8):
            d = f"d{i}"
            labels[d] = f"v{i}"
            eval_rows.append((d, "a", "good", f"v{i}"))
            eval_rows.append((d, "a", "bad", "junk"))
        plan = _plan(cands, eval_rows, labels, AGGREGATORS["ws_abstain_filter"])
        assert "good" in plan.kept and "bad" not in plan.kept
        assert plan.scores["good"] > 0.9 > plan.scores["bad"]

    def test_high_e_scores_where_fired(self):
        """A high-precision/low-recall function survives in the high-e
        regime despite abstaining on most eval docs."""
        cands = _mk_cands("a", ["narrow"])
        labels = {f"d{i}": f"v{i}" for i in range(10)}
        rows = [("d0", "a", "narrow", "v0"), ("d1", "a", "narrow", "v1")]
        rows += [(f"d{i}", "a", "narrow", "") for i in range(2, 10)]
        plan = _plan(cands, rows, labels, AGGREGATORS["ws_abstain_filter"])
        assert plan.e == 1.0
        assert plan.kept == ["narrow"]  # scored only where it fired

    def test_low_e_empty_votes_count_as_correct(self):
        cands = _mk_cands("a", ["quiet"])
        labels = {f"d{i}": "" for i in range(10)}  # attribute absent
        rows = [(f"d{i}", "a", "quiet", "") for i in range(10)]
        plan = _plan(cands, rows, labels, AGGREGATORS["ws_abstain_filter"])
        assert plan.e == 0.0
        assert not plan.drop_empty
        assert plan.kept == ["quiet"]  # f1("","") == 1 on every doc

    def test_no_filter_keeps_bad(self):
        cands = _mk_cands("a", ["bad"])
        labels = {f"d{i}": f"v{i}" for i in range(5)}
        rows = [(f"d{i}", "a", "bad", "junk") for i in range(5)]
        plan = _plan(cands, rows, labels, AGGREGATORS["mv"])
        assert plan.kept == ["bad"]

    def test_top_m_cap(self):
        fids = [f"f{i}" for i in range(15)]
        cands = _mk_cands("a", fids)
        labels = {"d0": "v"}
        rows = [("d0", "a", f, "v") for f in fids]
        plan = _plan(cands, rows, labels, AggConfig())
        assert len(plan.kept) == 10

    def test_dead_attribute(self):
        cands = _mk_cands("a", ["f1"])
        labels = {f"d{i}": f"v{i}" for i in range(5)}
        rows = [(f"d{i}", "a", "f1", "wrong") for i in range(5)]
        plan = _plan(cands, rows, labels, AGGREGATORS["ws_abstain_filter"])
        assert not plan.alive


class TestVoteMatrix:
    def test_sample_reads_rows_then_candidates(self):
        """The validation sample is the first non-empty kept values, doc
        by doc, each doc's in candidate order, whatever order the plan
        keeps the functions in."""
        rows = [("d1", "a", "f1", ""), ("d1", "a", "f2", "x1"), ("d1", "a", "f3", "y1"),
                ("d2", "a", "f1", "z2"), ("d2", "a", "f2", "x2"), ("d2", "a", "f3", "")]
        m = _matrix(_votes(rows))
        assert m.sample(["f3", "f1"], 5) == ["y1", "z2"]
        assert m.sample(["f3", "f2", "f1"], 3) == ["x1", "y1", "z2"]


def _top_b(votes_for_doc, b):
    """``top_b`` over one doc's ``{fid: value}`` votes, as a one-row
    matrix, back to the ``{fid: value}`` votes it keeps."""
    m = _matrix(_votes([("d", "a", f, v) for f, v in votes_for_doc.items()]))
    [row] = top_b(m.codes, b)
    return {f: m.values[c] for f, c in zip(m.fids, row) if c >= 0}


class TestTopB:
    def test_keeps_top_buckets(self):
        votes = {f"f{i}": "x" for i in range(3)}
        votes.update({"g0": "y", "h0": "z", "h1": "w", "h2": "q"})
        out = _top_b(votes, 2)
        assert set(out.values()) <= {"x", "y", "q", "w", "z"}
        assert all(v == "x" for f, v in out.items() if f.startswith("f"))

    def test_b_larger_than_uniques_keeps_all(self):
        votes = {"a": "x", "b": "y"}
        assert _top_b(votes, 4) == votes


class TestSparkAggregation:
    @each_vote
    def test_weighted_vote_picks_heavier(self, spark, vote):
        votes = _votes([
            ("d1", "a", "f1", "right"), ("d1", "a", "f2", "wrong"),
            ("d1", "a", "f3", "wrong"),
        ])
        plans = {"a": AttrPlan("a", 1.0, {}, ["f1", "f2", "f3"],
                               {"f1": 5.0, "f2": 1.0, "f3": 1.0}, True)}
        out = vote(spark, votes, plans)
        assert out.value.tolist() == ["right"]

    @each_vote
    def test_mv_equal_weights_majority(self, spark, vote):
        votes = _votes([
            ("d1", "a", "f1", "x"), ("d1", "a", "f2", "x"),
            ("d1", "a", "f3", "y"),
        ])
        plans = {"a": AttrPlan("a", 1.0, {}, ["f1", "f2", "f3"],
                               {"f1": 1.0, "f2": 1.0, "f3": 1.0}, True)}
        out = vote(spark, votes, plans)
        assert out.value.tolist() == ["x"]

    @each_vote
    def test_drop_empty_abstains(self, spark, vote):
        votes = _votes([
            ("d1", "a", "f1", ""), ("d1", "a", "f2", ""),
            ("d1", "a", "f3", "val"),
        ])
        plans = {"a": AttrPlan("a", 1.0, {}, ["f1", "f2", "f3"],
                               {f: 1.0 for f in ("f1", "f2", "f3")}, True)}
        out = vote(spark, votes, plans)
        assert out.value.tolist() == ["val"]

    @each_vote
    def test_keep_empty_can_suppress(self, spark, vote):
        """Low-e regime: empty votes are no-value predictions and can
        outvote a spurious extraction."""
        votes = _votes([
            ("d1", "a", "f1", ""), ("d1", "a", "f2", ""),
            ("d1", "a", "f3", "halluc"),
        ])
        plans = {"a": AttrPlan("a", 0.0, {}, ["f1", "f2", "f3"],
                               {f: 1.0 for f in ("f1", "f2", "f3")}, False)}
        out = vote(spark, votes, plans)
        assert out.empty  # "" wins the cell and is not emitted

    def test_no_alive_plans_empty_result(self, spark):
        votes = spark.createDataFrame(_votes([("d1", "a", "f1", "x")]))
        plans = {"a": AttrPlan("a", 1.0, {}, [], {}, True)}
        out = aggregate_votes_spark(spark, votes, plans).toPandas()
        assert out.empty

    @each_vote
    def test_matches_duckdb_oracle(self, spark, vote):
        """Oracle: the argmax-by-weight cell winner equals the DuckDB
        window-function equivalent."""
        rows = []
        for d in range(6):
            for f, v in (("f1", "x"), ("f2", "x"), ("f3", f"y{d % 2}")):
                rows.append((f"d{d}", "a", f, v))
        votes_pd = _votes(rows)
        weights = {"f1": 2.0, "f2": 1.0, "f3": 1.5}
        plans = {"a": AttrPlan("a", 1.0, {}, list(weights), weights, True)}
        out = vote(spark, votes_pd, plans)
        weights_pd = pd.DataFrame(
            [(f, w) for f, w in weights.items()], columns=["fid", "weight"])
        assert_equivalent(
            out[["doc_id", "value"]],
            """WITH scored AS (
                 SELECT v.doc_id, v.value, SUM(w.weight) AS s
                 FROM votes v JOIN weights w USING (fid)
                 WHERE v.value <> '' GROUP BY v.doc_id, v.value),
               ranked AS (
                 SELECT doc_id, value,
                        ROW_NUMBER() OVER (PARTITION BY doc_id
                                           ORDER BY s DESC, value ASC) AS rn
                 FROM scored)
               SELECT doc_id, value FROM ranked WHERE rn = 1""",
            votes=votes_pd, weights=weights_pd,
        )

    @each_vote
    def test_top_b_buckets_match_duckdb_oracle(self, spark, vote):
        """Cells with more than B distinct values: only each cell's B
        most-voted values (ties by value) can win, so a heavy function
        voting a rare value loses to lighter but more common ones. The
        SQL spells out the bucketing window."""
        weights = {f"f{j}": 1.0 for j in range(10)}
        weights["heavy"] = 50.0
        # d0: x 3 votes, then b, c, d, e 2 each, heavy's z 1: the buckets
        # are x, b, c, d (count, then value), so e and z drop and x wins
        rows = [("d0", "a", f, v) for f, v in zip(
            weights, ["x", "x", "x", "e", "e", "d", "d", "c", "c", "b", "z"])]
        # d1: five singletons; heavy's a5 is fifth in value order and drops,
        # and the four kept values tie on score, so a0 wins by value
        rows += [("d1", "a", f"f{j}", f"a{j}") for j in range(4)]
        rows.append(("d1", "a", "heavy", "a5"))
        # d2: heavy votes with a top bucket and wins it outright
        rows += [("d2", "a", f, v) for f, v in zip(
            weights, ["p", "p", "q", "q", "r", "r", "s", "t", "u", "v", "q"])]
        # d3: m and k tie on count and score, k wins by value; p and
        # heavy's zz are fifth and sixth and drop
        rows += [("d3", "a", f, v) for f, v in zip(
            weights, ["m", "m", "k", "k", "n", "o", "p"])]
        rows.append(("d3", "a", "heavy", "zz"))
        votes_pd = _votes(rows)
        plans = {"a": AttrPlan("a", 1.0, {}, list(weights), weights, True)}
        out = vote(spark, votes_pd, plans)
        assert dict(zip(out.doc_id, out.value)) == {
            "d0": "x", "d1": "a0", "d2": "q", "d3": "k"}
        weights_pd = pd.DataFrame(list(weights.items()), columns=["fid", "weight"])
        assert_equivalent(
            out[["doc_id", "value"]],
            f"""WITH counted AS (
                 SELECT v.doc_id, v.value, COUNT(*) AS n, SUM(w.weight) AS s
                 FROM votes v JOIN weights w USING (fid)
                 WHERE v.value <> '' GROUP BY v.doc_id, v.value),
               bucketed AS (
                 SELECT *, ROW_NUMBER() OVER (PARTITION BY doc_id
                                              ORDER BY n DESC, value ASC) AS br
                 FROM counted),
               ranked AS (
                 SELECT doc_id, value,
                        ROW_NUMBER() OVER (PARTITION BY doc_id
                                           ORDER BY s DESC, value ASC) AS rn
                 FROM bucketed WHERE br <= {B})
               SELECT doc_id, value FROM ranked WHERE rn = 1""",
            votes=votes_pd, weights=weights_pd,
        )

    @each_vote
    def test_ties_break_in_utf8_byte_order(self, spark, vote):
        """Equal counts and scores go to the first value in Spark's UTF-8
        byte order, which the driver's code order follows, whichever
        function voted it: "z" beats "é", and "" beats "a", which leaves
        the cell empty. In bucketing too: among five single votes "é" is
        fifth, so heavy's "é" drops and "a" wins; among four it is fourth
        and stays, so heavy's "é" wins."""
        weights = {"f1": 1.0, "f2": 1.0, "f3": 1.0, "f4": 1.0, "heavy": 5.0}
        rows = [("d1", "a", "f1", "é"), ("d1", "a", "f2", "z"),
                ("d2", "a", "f1", "z"), ("d2", "a", "f2", "é"),
                ("d3", "a", "f1", "a"), ("d3", "a", "f2", ""),
                ("d4", "a", "f1", ""), ("d4", "a", "f2", "a")]
        rows += [("d5", "a", f, v) for f, v in zip(weights, ["a", "b", "c", "z", "é"])]
        rows += [("d6", "a", f, v) for f, v in zip(["f1", "heavy", "f2", "f3"],
                                                   ["a", "é", "b", "z"])]
        plans = {"a": AttrPlan("a", 0.0, {}, list(weights), weights, False)}
        out = vote(spark, _votes(rows), plans)
        assert dict(zip(out.doc_id, out.value)) == {"d1": "z", "d2": "z", "d5": "a", "d6": "é"}

    @pytest.mark.parametrize("vote", [
        lambda spark, votes, plans: aggregate_votes_spark(
            spark, spark.createDataFrame(votes).coalesce(1), plans).toPandas(),
        VOTES["driver"],
    ], ids=list(VOTES))
    def test_weights_sum_in_row_order(self, spark, vote):
        """A cell's weights add one at a time in row order: f1, f2, f3 sum
        0.1 + 0.2 + 0.3 to just above heavy's 0.6, so "b" beats "a",
        which the reverse order would tie (and "a" would win by value),
        whatever order the plan keeps the functions in. In Spark a doc's
        votes come from one partition, as ``run_functions`` gives them."""
        weights = {"f1": 0.1, "f2": 0.2, "f3": 0.3, "heavy": 0.6}
        assert weights["f1"] + weights["f2"] + weights["f3"] > weights["heavy"] \
            == weights["f3"] + weights["f2"] + weights["f1"]
        rows = [("d1", "a", f, "a" if f == "heavy" else "b") for f in weights]
        for kept in (list(weights), list(weights)[::-1]):  # kept order is not row order
            plans = {"a": AttrPlan("a", 1.0, {}, kept, weights, True)}
            assert vote(spark, _votes(rows), plans).value.tolist() == ["b"], kept

    def test_one_shuffle(self, spark):
        """The weight table is broadcast into the join, and the vote's
        groupBy and both windows share one hash partitioning."""
        votes = spark.createDataFrame(_votes([("d1", "a", "f1", "x")]))
        plans = {"a": AttrPlan("a", 1.0, {}, ["f1"], {"f1": 1.0}, True)}
        plan = aggregate_votes_spark(spark, votes, plans)._jdf.queryExecution() \
            .executedPlan().toString()
        assert plan.count("Exchange hashpartitioning") == 1
        assert plan.count("BroadcastExchange") == 1


class TestSingleFunction:
    """EVAPORATE-CODE votes through ``aggregate_votes_spark`` with one
    unit-weight function per attribute and empty outputs dropped."""

    @staticmethod
    def _plans(attr_to_fid):
        return {a: AttrPlan(a, 0.0, {}, [f], {f: 1.0}, True)
                for a, f in attr_to_fid.items()}

    def test_selects_one_fid(self, spark):
        votes = spark.createDataFrame(_votes([
            ("d1", "a", "f1", "x"), ("d1", "a", "f2", "other"),
            ("d2", "a", "f1", ""),
        ]))
        out = aggregate_votes_spark(spark, votes, self._plans({"a": "f1"})).toPandas()
        assert out.value.tolist() == ["x"]  # f2 ignored, empty dropped

    def test_empty_mapping(self, spark):
        votes = spark.createDataFrame(_votes([("d1", "a", "f1", "x")]))
        out = aggregate_votes_spark(spark, votes, self._plans({})).toPandas()
        assert out.empty


class TestDriverVote:
    @pytest.mark.parametrize("rows,kept", [
        ([], ["f1"]), ([("d1", "a", "f1", "x")], []),
    ], ids=["no_votes", "no_alive_plan"])
    def test_empty_table_has_view_columns(self, rows, kept):
        plans = {"a": AttrPlan("a", 1.0, {}, kept, {f: 1.0 for f in kept}, True)}
        out = _driver_vote(_votes(rows), plans)
        assert out.empty and list(out.columns) == ["doc_id", "attribute", "value"]


class TestOracle:
    """``repro.oracle`` must reject a wrong result, not only accept a
    right one (the positive case is ``test_matches_duckdb_oracle``)."""

    SQL = "SELECT fid, COUNT(*) AS cnt FROM votes GROUP BY fid"

    @pytest.fixture
    def votes_pd(self):
        return _votes([("d1", "a", "f1", "x"), ("d2", "a", "f1", "y"),
                       ("d1", "a", "f2", "x")])

    def test_detects_wrong_result(self, spark, votes_pd):
        bad = spark.createDataFrame(votes_pd).groupBy("fid").agg(
            (F.count("*") + 1).alias("cnt"))
        with pytest.raises(AssertionError):
            assert_equivalent(bad, self.SQL, votes=votes_pd)

    def test_detects_column_mismatch(self, spark, votes_pd):
        agg = spark.createDataFrame(votes_pd).groupBy("fid").agg(
            F.count("*").alias("wrong_name"))
        with pytest.raises(AssertionError):
            assert_equivalent(agg, self.SQL, votes=votes_pd)
