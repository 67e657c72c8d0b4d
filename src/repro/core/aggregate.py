"""Algorithm 1 (EVAPORATE-CODE+): score, filter, and ensemble functions.

Steps, mapped to the paper's pseudocode:
  2. Collect sample predictions — votes on D_eval + LLM F labels.
  3. Handle abstentions — estimate ``e`` = fraction of D_eval docs where
     F extracts a value; e > TAU means empty function outputs are
     *abstentions*, e <= TAU means they are *predictions of no-value*.
  4. Score functions — Text-F1 agreement with F's labels; in the high-e
     regime a function is scored only where it extracted a value (so
     high-precision / low-recall variant-specific functions survive).
  5. Filter — drop s_j <= 0.5 (worse-than-random, the WS assumption),
     keep the TOP_M best scorers.
  6. Collect votes — full-lake function execution (``execute.py``).
  7. Aggregation — per-document top-B vote bucketing, then the WS label
     model's accuracy-weighted vote (or plain MV for the baseline).
     Code+ reads one integer-coded ``VoteMatrix`` of its collected votes
     for scoring, the WS fit and its driver vote (``aggregate_votes``),
     through ``ws``'s one vote rule; Code, which collects no votes, votes
     in Spark (``aggregate_votes_spark``). Both give the same cells.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession, Window
from pyspark.sql import functions as F

from repro.core.direct import closed_doc
from repro.core.metrics import text_f1_strings
from repro.core.synthesis import Candidate
from repro.core.ws import B, fit_label_model, tally, top_b, winner
from repro.lakes.base import DataLake
from repro.llm.mock_llm import CHATBOT_REFUSAL, MockLLM
from repro.llm.tokens import TokenLedger


TAU = 0.5  # e above this: empty function outputs are abstentions
TOP_M = 10  # functions kept per attribute (the paper's top-10)


@dataclass(frozen=True)
class AggConfig:
    """Aggregation strategy (Table 4 ablation axes)."""

    method: str = "ws"  # "ws" | "mv"
    use_filter: bool = True
    use_abstain: bool = True


# Table 4 columns
AGGREGATORS: dict[str, AggConfig] = {
    "mv": AggConfig(method="mv", use_filter=False, use_abstain=False),
    "ws": AggConfig(method="ws", use_filter=False, use_abstain=False),
    "ws_filter": AggConfig(method="ws", use_filter=True, use_abstain=False),
    "ws_abstain_filter": AggConfig(method="ws", use_filter=True, use_abstain=True),
}


@dataclass
class AttrPlan:
    """Per-attribute outcome of scoring/filtering + learned vote weights."""

    attribute: str
    e: float
    scores: dict[str, float]
    kept: list[str]
    weights: dict[str, float]
    drop_empty: bool  # e > TAU and abstentions enabled

    @property
    def alive(self) -> bool:
        return bool(self.kept)


def eval_labels(
    lake: DataLake, llm: MockLLM, attr: str, eval_ids: list[str],
    ledger: TokenLedger,
) -> dict[str, str]:
    """LLM F extractions on D_eval — Algorithm 1's pseudo ground truth."""
    out: dict[str, str] = {}
    for d in eval_ids:
        v, t = closed_doc(llm, d, lake.doc_text[d], attr)
        ledger.add("eval_labels", t)
        out[d] = "" if v == CHATBOT_REFUSAL else v
    return out


@dataclass(frozen=True)
class VoteMatrix:
    """Every vote of a run as one (lake docs x candidates) ``int32`` matrix
    of value codes, ``-1`` where a doc was not run. Rows follow the lake
    and columns the candidates, whatever order the votes were collected
    in. The codes come from one sorted factorize, so a smaller code is
    the first string in Python ``str`` order, which is Spark's UTF-8 byte
    order, and ``""``, when present, is code 0."""

    doc_ids: pd.Index
    fids: pd.Index
    codes: np.ndarray
    values: np.ndarray  # code -> value, and a last "" that code -1 reads

    @classmethod
    def build(cls, votes: pd.DataFrame, doc_ids: list[str], fids: list[str]) -> VoteMatrix:
        """The matrix of a ``(doc_id, attribute, fid, value)`` frame."""
        value, values = pd.factorize(votes.value, sort=True)
        rows, cols = pd.Index(doc_ids), pd.Index(fids)
        codes = np.full((len(rows), len(cols)), -1, dtype=np.int32)
        codes[rows.get_indexer(votes.doc_id), cols.get_indexer(votes.fid)] = value
        return cls(rows, cols, codes, np.append(np.asarray(values, dtype=object), ""))

    @property
    def first_value(self) -> int:
        """The smallest code of a non-empty value."""
        return int(self.values[0] == "" and len(self.values) > 1)

    def select(self, doc_ids: list[str] | None) -> VoteMatrix:
        """The rows of ``doc_ids`` (all rows for None)."""
        if doc_ids is None:
            return self
        rows = self.doc_ids.isin(set(doc_ids))
        return VoteMatrix(self.doc_ids[rows], self.fids, self.codes[rows], self.values)

    def sample(self, fids: list[str], n: int) -> list[str]:
        """The first ``n`` non-empty values of ``fids``, row by row, each
        row's in candidate order."""
        flat = self.codes[:, np.sort(self.fids.get_indexer(fids))].ravel()
        return list(self.values[flat[flat >= self.first_value][:n]])


def score_and_plan(
    attr: str,
    candidates: list[Candidate],
    labels: dict[str, str],
    votes: VoteMatrix,
    cfg: AggConfig,
) -> AttrPlan:
    """Steps 3-5 + label-model fitting for one attribute, from the run's
    votes (which cover D_eval)."""
    e = (
        sum(1 for v in labels.values() if v) / len(labels) if labels else 0.0
    )
    fids = [c.fid for c in candidates if c.attribute == attr]

    # Scoring regime: without abstention-handling, functions are scored
    # only where they fired (the off-the-shelf assumption that empty
    # means abstain). With it, the regime is e-conditional: high-e keeps
    # fired-only precision scoring; low-e scores over all of D_eval so
    # empty-on-absent counts as correct and fire-on-absent is penalized.
    fired_only = (not cfg.use_abstain) or e > TAU
    rows = votes.doc_ids.get_indexer(list(labels))
    scores: dict[str, float] = {}
    for fid in fids:
        col = votes.values[votes.codes[rows, votes.fids.get_loc(fid)]]
        ms = [text_f1_strings(lab, vote) for lab, vote in zip(labels.values(), col)
              if vote or not fired_only]
        scores[fid] = sum(ms) / len(ms) if ms else 0.0

    if cfg.use_filter:
        kept = [f for f in fids if scores[f] > 0.5]
        kept = sorted(kept, key=lambda f: (-scores[f], f))[:TOP_M]
    else:
        kept = sorted(fids, key=lambda f: (-scores[f], f))[:TOP_M]

    # Voting: off-the-shelf MV/WS treat empty outputs as abstentions
    # (Snorkel convention). With abstention handling, empties become
    # *no-value predictions* in the low-e regime, letting the ensemble
    # actively suppress hallucinated values for absent attributes.
    drop_empty = e > TAU if cfg.use_abstain else True
    plan = AttrPlan(attr, e, scores, kept, {f: 1.0 for f in kept}, drop_empty)
    if cfg.method == "ws" and kept:
        codes, cols = _kept_votes(votes, plan)
        # a doc where every kept function abstains is left out
        model = fit_label_model(codes[(codes >= 0).any(axis=1)], cols)
        plan.weights = {f: model.weight(f) for f in kept}
    return plan


def _kept_votes(votes: VoteMatrix, plan: AttrPlan) -> tuple[np.ndarray, list[str]]:
    """The plan's kept functions' votes, columns in candidate order, less
    ``""`` votes where it drops empties and the votes outside each doc's
    top-B values; and those columns' fids."""
    cols = np.sort(votes.fids.get_indexer(plan.kept))
    codes = votes.codes[:, cols]
    if plan.drop_empty:
        codes = np.where(codes >= votes.first_value, codes, -1)
    return top_b(codes, B), list(votes.fids[cols])


def aggregate_votes(votes: VoteMatrix, plans: dict[str, AttrPlan]) -> pd.DataFrame:
    """Step 7 on the driver: ``aggregate_votes_spark``'s vote over a
    vote matrix.

    Per alive plan, each doc's kept top-B votes (``_kept_votes``, the
    votes the WS fit read) elect the value with the largest weight sum,
    ties to the first value; a winning ``""`` is no value. A weight sum
    adds in candidate order, as Spark's ``sum`` adds a doc's rows in
    ``run_functions``' order, so the scores are Spark's to the bit; code
    order is Spark's string order, so ties break alike. Returns
    ``(doc_id, attribute, value)``, attributes in ``plans`` order and
    docs sorted, with empty and no-vote cells absent.
    """
    order = votes.doc_ids.argsort()
    docs = votes.doc_ids[order]
    cells = [pd.DataFrame(columns=["doc_id", "attribute", "value"])]
    for p in plans.values():
        if p.alive:
            codes, cols = _kept_votes(votes, p)
            _, score = tally(codes, np.array([float(p.weights.get(f, 1.0)) for f in cols]))
            win = winner(codes, score)[order]
            ok = win >= votes.first_value
            cells.append(pd.DataFrame({"doc_id": docs[ok], "attribute": p.attribute,
                                       "value": votes.values[win[ok]]}))
    return pd.concat(cells, ignore_index=True)


def aggregate_votes_spark(
    spark: SparkSession,
    votes: DataFrame,
    plans: dict[str, AttrPlan],
) -> DataFrame:
    """Step 7 in Spark: weighted vote per (doc, attribute), for votes
    that were never collected (EVAPORATE-CODE).

    Joins the votes DataFrame with the broadcast per-function weight
    table, applies the abstention rule and per-document top-B bucketing
    with window functions, and picks the argmax-weight value per cell.
    Returns ``(doc_id, attribute, value)`` with empty/no-vote cells absent.
    """
    rows = [
        (p.attribute, fid, float(p.weights.get(fid, 1.0)), bool(p.drop_empty))
        for p in plans.values() if p.alive
        for fid in p.kept
    ]
    wdf = spark.createDataFrame(
        pd.DataFrame(rows, columns=["attribute", "fid", "weight", "drop_empty"]),
        schema="attribute string, fid string, weight double, drop_empty boolean",
    )
    # One shuffle: the weight table (at most attrs x TOP_M rows, whatever
    # the lake) is broadcast into the join, and the hash partitioning on
    # (doc_id, attribute) serves the groupBy and both windows.
    v = votes.join(F.broadcast(wdf), on=["attribute", "fid"], how="inner")
    v = v.filter(~(F.col("drop_empty") & (F.col("value") == "")))
    v = v.repartition("doc_id", "attribute")

    # per-doc top-b bucketing on raw counts
    cell = Window.partitionBy("doc_id", "attribute")
    counts = v.groupBy("doc_id", "attribute", "value").agg(
        F.count("*").alias("n"), F.sum("weight").alias("score")
    )
    bucketed = counts.withColumn(
        "bucket_rank",
        F.row_number().over(cell.orderBy(F.desc("n"), F.asc("value"))),
    ).filter(F.col("bucket_rank") <= B)

    winner = bucketed.withColumn(
        "rank",
        F.row_number().over(cell.orderBy(F.desc("score"), F.asc("value"))),
    ).filter(F.col("rank") == 1)
    return winner.filter(F.col("value") != "").select("doc_id", "attribute", "value")


__all__ = [
    "AggConfig", "AGGREGATORS", "AttrPlan", "VoteMatrix", "eval_labels",
    "score_and_plan", "aggregate_votes", "aggregate_votes_spark",
]
