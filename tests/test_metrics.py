"""Tests for Pair F1, Text F1 and schema F1@k — including a DuckDB
oracle of the whole Pair F1 computation."""
import duckdb
import pandas as pd
import pytest

from repro.core.metrics import (PRF, _tuples, closed_text_f1, pair_f1,
                                schema_f1_at_k, text_f1_strings)

def _pd(rows):
    return pd.DataFrame(rows, columns=["doc_id", "attribute", "value"])


class TestPRF:
    def test_from_counts(self):
        prf = PRF.from_counts(5, 10, 20)
        assert prf.precision == 0.5 and prf.recall == 0.25
        assert prf.f1 == pytest.approx(1 / 3)

    def test_zero_denominators(self):
        assert PRF.from_counts(0, 0, 0).f1 == 0.0


class TestPairF1:
    """Every case runs on pandas input here and on Spark input in
    ``TestPairF1Spark``."""

    @pytest.fixture
    def df(self):
        return _pd

    def test_perfect(self, df):
        rows = [("d1", "a", "x"), ("d2", "b", "y")]
        prf = pair_f1(df(rows), df(rows))
        assert prf.f1 == 1.0

    def test_no_partial_credit_on_value(self, df):
        pred = [("d1", "a", "x extra")]
        gold = [("d1", "a", "x")]
        assert pair_f1(df(pred), df(gold)).f1 == 0.0

    def test_attribute_name_must_match(self, df):
        pred = [("d1", "director details", "x")]
        gold = [("d1", "director", "x")]
        assert pair_f1(df(pred), df(gold)).f1 == 0.0

    def test_attribute_case_insensitive(self, df):
        pred = [("d1", "Director", "x")]
        gold = [("d1", "director", "x")]
        assert pair_f1(df(pred), df(gold)).f1 == 1.0

    def test_empty_prediction_dropped(self, df):
        pred = [("d1", "a", ""), ("d1", "b", "y")]
        gold = [("d1", "b", "y")]
        assert pair_f1(df(pred), df(gold)).f1 == 1.0

    def test_whitespace_only_prediction_dropped(self, df):
        pred = [("d1", "a", "\t"), ("d1", "b", "y"), ("d2", "c", "\n")]
        gold = [("d1", "b", "y")]
        assert pair_f1(df(pred), df(gold)).precision == 1.0

    def test_empty_prediction_table(self, df):
        prf = pair_f1(df([]), df([("d1", "a", "x")]))
        assert (prf.precision, prf.recall, prf.f1) == (0.0, 0.0, 0.0)

    def test_precision_recall_split(self, df):
        pred = [("d1", "a", "x"), ("d1", "junk", "z")]
        gold = [("d1", "a", "x"), ("d1", "b", "y")]
        prf = pair_f1(df(pred), df(gold))
        assert prf.precision == 0.5 and prf.recall == 0.5

    def test_whitespace_normalized(self, df):
        pred = [("d1", "a", "x   y")]
        gold = [("d1", "a", "x y")]
        assert pair_f1(df(pred), df(gold)).f1 == 1.0

    def test_duplicates_deduped(self, df):
        pred = [("d1", "a", "x"), ("d1", "a", "x")]
        gold = [("d1", "a", "x")]
        prf = pair_f1(df(pred), df(gold))
        assert prf.precision == 1.0

    def test_counts_match_duckdb(self, df):
        """Oracle: DuckDB SQL implementing the same canonicalisation
        (attribute space-trimmed and lowercased; value whitespace runs
        collapsed, space-trimmed; null/empty values dropped; set
        semantics) yields the counts ``pair_f1`` scores with."""
        pred = [
            ("d1", " A ", "x"), ("d1", "b", "wrong"), ("d2", "a", "x2  \t y"),
            ("d2", "junk", "j"), ("d1", "a", "x"), ("d1", "c", None),
            ("d2", "c", " \t\n "), ("d3", "Name", "Ann\n\nLee "),
        ]
        gold = [
            ("d1", "a", "x"), ("d1", "b", "y"), ("d2", "a", "x2 y"),
            ("d3", "name", "Ann Lee"), ("d3", "name", "Ann Lee"), ("d1", "c", "z"),
        ]
        canon = r"""SELECT DISTINCT doc_id, lower(trim(attribute, ' ')) AS attribute,
                           trim(regexp_replace(value, '[ \t\n\v\f\r]+', ' ', 'g'), ' ') AS value
                    FROM {} WHERE value IS NOT NULL"""
        sql = f"""WITH p AS ({canon.format("pred")}), g AS ({canon.format("gold")}),
                       pn AS (SELECT * FROM p WHERE value <> ''),
                       gn AS (SELECT * FROM g WHERE value <> '')
                  SELECT (SELECT count(*) FROM pn JOIN gn USING (doc_id, attribute, value)),
                         (SELECT count(*) FROM pn), (SELECT count(*) FROM gn)"""
        con = duckdb.connect()
        try:
            con.register("pred", _pd(pred))
            con.register("gold", _pd(gold))
            counts = con.execute(sql).fetchone()
        finally:
            con.close()
        p, g = _tuples(df(pred)), _tuples(df(gold))
        assert counts == (len(p & g), len(p), len(g)) == (3, 5, 5)
        assert pair_f1(df(pred), df(gold)) == PRF.from_counts(*counts)


class TestPairF1Spark(TestPairF1):
    @pytest.fixture
    def df(self, spark):
        return lambda rows: spark.createDataFrame(
            rows, schema="doc_id string, attribute string, value string")


class TestTextF1:
    @pytest.mark.parametrize("pred,gold,expected", [
        ("exact match", "exact match", 1.0),
        ("", "", 1.0),
        ("", "value", 0.0),
        ("value", "", 0.0),
        ("completely different", "other thing", 0.0),
    ])
    def test_cases(self, pred, gold, expected):
        assert text_f1_strings(pred, gold) == pytest.approx(expected)

    def test_partial_overlap(self):
        f1 = text_f1_strings("new york city", "new york")
        assert 0.7 < f1 < 0.9  # 2 common tokens: p=2/3, r=1 -> 0.8

    def test_case_insensitive(self):
        assert text_f1_strings("Class II", "class ii") == 1.0

    def test_punctuation_tokenized(self):
        assert text_f1_strings("K123456", "k123456") == 1.0

    def test_none_handled(self):
        assert text_f1_strings(None, None) == 1.0
        assert text_f1_strings(None, "x") == 0.0

    def test_repeated_tokens_counted_once(self):
        assert text_f1_strings("a a a", "a") < 1.0


class TestClosedTextF1:
    def test_perfect_grid(self, spark):
        pred = pd.DataFrame([("d1", "a", "x")], columns=["doc_id", "attribute", "value"])
        gold = pred.copy()
        assert closed_text_f1(pred, gold, ["a"], ["d1"]) == 1.0

    def test_missing_cell_counts_against(self):
        pred = pd.DataFrame(columns=["doc_id", "attribute", "value"])
        gold = pd.DataFrame([("d1", "a", "x")], columns=["doc_id", "attribute", "value"])
        assert closed_text_f1(pred, gold, ["a"], ["d1"]) == 0.0

    def test_both_absent_scores_one(self):
        pred = pd.DataFrame(columns=["doc_id", "attribute", "value"])
        gold = pd.DataFrame(columns=["doc_id", "attribute", "value"])
        assert closed_text_f1(pred, gold, ["a"], ["d1"]) == 1.0

    def test_averages_over_grid(self):
        pred = pd.DataFrame([("d1", "a", "x")], columns=["doc_id", "attribute", "value"])
        gold = pd.DataFrame([("d1", "a", "x"), ("d1", "b", "y")],
                            columns=["doc_id", "attribute", "value"])
        assert closed_text_f1(pred, gold, ["a", "b"], ["d1"]) == 0.5


class TestSchemaF1:
    def test_perfect(self):
        assert schema_f1_at_k(["a", "b"], ["a", "b"]) == 1.0

    def test_truncates_at_k(self):
        assert schema_f1_at_k(["a", "b", "c"], ["a", "b"]) == 1.0

    def test_partial(self):
        assert schema_f1_at_k(["a", "x"], ["a", "b"]) == 0.5

    def test_case_insensitive(self):
        assert schema_f1_at_k(["A"], ["a"]) == 1.0

    def test_empty_pred(self):
        assert schema_f1_at_k([], ["a"]) == 0.0
