"""Tests for the EVAPORATE-DIRECT pipeline (Spark mapInPandas over docs)."""
from collections import Counter

import pytest

from repro.core.aggregate import eval_labels
from repro.core.direct import openie_doc, run_closed_direct, run_direct
from repro.core.metrics import closed_text_f1, pair_f1
from repro.core.schema import N_SCHEMA_SAMPLE, sample_doc_ids, synthesize_schema
from repro.llm.mock_llm import CHATBOT_REFUSAL, MockLLM
from repro.llm.tokens import TokenLedger


@pytest.fixture(scope="module")
def fda_direct(spark, fda_lake):
    return run_direct(spark, fda_lake)


class TestRunDirect:
    def test_table_columns(self, fda_direct):
        assert list(fda_direct.table.columns) == ["doc_id", "attribute", "value"]

    def test_covers_documents(self, fda_lake, fda_direct):
        assert fda_direct.n_docs == fda_lake.n_docs
        assert fda_direct.table.doc_id.nunique() > fda_lake.n_docs * 0.8

    def test_tokens_positive_and_linear(self, spark, fda_lake, fda_direct):
        ids = sorted(fda_lake.docs.doc_id)[:6]
        half = run_direct(spark, fda_lake, doc_ids=ids)
        assert 0 < half.tokens < fda_direct.tokens

    def test_ranked_attrs_head_is_gold_heavy(self, fda_lake, fda_direct):
        k = len(fda_lake.gold_attrs)
        head = set(fda_direct.ranked_attrs[:k])
        overlap = head & set(fda_lake.gold_attrs)
        assert len(overlap) >= k * 0.4

    def test_deterministic(self, spark, fda_lake):
        ids = sorted(fda_lake.docs.doc_id)[:5]
        a = run_direct(spark, fda_lake, doc_ids=ids)
        b = run_direct(spark, fda_lake, doc_ids=ids)
        pa = a.table.sort_values(["doc_id", "attribute"]).reset_index(drop=True)
        pb = b.table.sort_values(["doc_id", "attribute"]).reset_index(drop=True)
        assert pa.equals(pb) and a.tokens == b.tokens

    def test_quality_midrange_on_fda(self, fda_lake, fda_direct):
        """Direct quality on FDA sits in the paper's band: well below
        perfect (inconsistency errors), well above chance."""
        prf = pair_f1(fda_direct.table, fda_lake.gold)
        assert 0.2 < prf.f1 < 0.75

    def test_easy_lake_beats_hard_lake(self, spark, enron_lake, fda_lake, fda_direct):
        enron = run_direct(spark, enron_lake)
        e_prf = pair_f1(enron.table, enron_lake.gold)
        f_prf = pair_f1(fda_direct.table, fda_lake.gold)
        assert e_prf.f1 > f_prf.f1 + 0.15  # Enron ~0.9 vs FDA ~0.45


class TestRunClosedDirect:
    def test_grid_complete(self, spark, enron_lake):
        ids = sorted(enron_lake.docs.doc_id)[:5]
        res = run_closed_direct(spark, enron_lake, enron_lake.gold_attrs,
                                doc_ids=ids)
        assert len(res.table) == len(ids) * len(enron_lake.gold_attrs)
        assert res.tokens > 0

    def test_closed_beats_open_quality(self, spark, fda_lake, fda_direct):
        """ClosedIE (attribute given) is the LLM's high-quality mode —
        Text F1 well above the OpenIE pair F1 (Table 7 vs Table 3)."""
        ids = sorted(fda_lake.docs.doc_id)[:8]
        res = run_closed_direct(spark, fda_lake, fda_lake.gold_attrs, doc_ids=ids)
        f1 = closed_text_f1(res.table,
                            fda_lake.gold[fda_lake.gold.doc_id.isin(ids)],
                            fda_lake.gold_attrs, ids)
        assert f1 > 0.6


@pytest.mark.parametrize("lake_name,model", [
    ("fda_lake", "davinci"), ("nba_lake", "gpt4"), ("enron_lake", "jumbo"),
])
class TestDriverAndSparkAgree:
    """The driver-side loops (schema synthesis, D_eval labels) and the
    Spark pipelines (Direct OpenIE, Direct ClosedIE) prompt the LLM on a
    doc through the same code, so they agree cell for cell and token for
    token."""

    def test_schema_tokens_equal_direct_tokens(self, request, spark, lake_name, model):
        lake = request.getfixturevalue(lake_name)
        sr = synthesize_schema(lake, MockLLM(lake, model))
        dr = run_direct(spark, lake, model,
                        doc_ids=sample_doc_ids(lake, N_SCHEMA_SAMPLE))
        assert sr.ledger.by_stage["schema"] == dr.tokens

    def test_direct_ranking_equals_driver_loop(self, request, spark, lake_name, model):
        """Direct ranks attributes by (-doc count, name) and keeps the
        head-k attributes' rows, as a driver loop over the same docs does."""
        lake = request.getfixturevalue(lake_name)
        ids = sample_doc_ids(lake, N_SCHEMA_SAMPLE)
        llm = MockLLM(lake, model)
        merged = {d: openie_doc(llm, d, lake.doc_text[d])[0] for d in ids}
        doc_counts = Counter(a for m in merged.values() for a in m)
        ranked = sorted(doc_counts, key=lambda a: (-doc_counts[a], a))
        head = set(ranked[: len(lake.gold_attrs)])
        rows = sorted((d, a, v) for d, m in merged.items() for a, v in m.items() if a in head)
        res = run_direct(spark, lake, model, doc_ids=ids)
        assert res.ranked_attrs == ranked
        assert sorted(map(tuple, res.table.values.tolist())) == rows

    def test_eval_labels_equal_closed_direct(self, request, spark, lake_name, model):
        lake = request.getfixturevalue(lake_name)
        ids = sample_doc_ids(lake, N_SCHEMA_SAMPLE)
        llm, ledger = MockLLM(lake, model), TokenLedger()
        labels = {a: eval_labels(lake, llm, a, ids, ledger) for a in lake.gold_attrs}
        res = run_closed_direct(spark, lake, lake.gold_attrs, model, doc_ids=ids)
        spark_cells = {
            (r.doc_id, r.attribute): "" if r.value == CHATBOT_REFUSAL else r.value
            for r in res.table.itertuples()
        }
        driver_cells = {(d, a): v for a, by_doc in labels.items()
                        for d, v in by_doc.items()}
        assert spark_cells == driver_cells
        assert ledger.by_stage["eval_labels"] == res.tokens
