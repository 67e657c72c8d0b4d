"""Evaluation metrics: Pair F1 (OpenIE), Text F1 (ClosedIE), schema F1@k.

Pair F1 follows Lockard et al. / Deng et al.: the prediction and gold
are sets of (doc_id, attribute, value) tuples; all three elements must
match exactly for credit. Text F1 is the SQuAD token-overlap F1.
Both run on the driver over the pandas tables the pipelines already
collect (Pair F1 is oracle-checked against DuckDB SQL in the tests).
"""
from __future__ import annotations

import re
from dataclasses import dataclass

import pandas as pd
from pyspark.sql import DataFrame


@dataclass(frozen=True)
class PRF:
    """Precision / recall / F1 triple (fractions in [0, 1])."""

    precision: float
    recall: float
    f1: float

    @staticmethod
    def from_counts(n_correct: int, n_pred: int, n_gold: int) -> "PRF":
        p = n_correct / n_pred if n_pred else 0.0
        r = n_correct / n_gold if n_gold else 0.0
        f = 2 * p * r / (p + r) if (p + r) else 0.0
        return PRF(p, r, f)


_WS_RUN = re.compile(r"[ \t\n\v\f\r]+")


def _as_pandas(df: DataFrame | pd.DataFrame) -> pd.DataFrame:
    return df.toPandas() if isinstance(df, DataFrame) else df


def _tuples(df: DataFrame | pd.DataFrame) -> set[tuple[str, str, str]]:
    """Canonical ``(doc_id, attribute, value)`` set; empty values dropped."""
    out = set()
    for d, a, v in _as_pandas(df)[["doc_id", "attribute", "value"]].itertuples(index=False):
        if pd.isna(v):
            continue
        v = _WS_RUN.sub(" ", v).strip(" ")
        if v:
            out.add((d, a.strip(" ").lower(), v))
    return out


def pair_f1(pred: DataFrame | pd.DataFrame, gold: DataFrame | pd.DataFrame) -> PRF:
    """Pair F1 between predicted and gold (doc_id, attribute, value) sets.

    Null and whitespace-only predicted values are dropped (a "no value"
    prediction is the absence of a tuple). Attribute names are compared
    after normalization (lowercase/trim), values after whitespace
    collapse — exact match otherwise, no partial credit.
    """
    p, g = _tuples(pred), _tuples(gold)
    return PRF.from_counts(len(p & g), len(p), len(g))


_TOKEN_RE = re.compile(r"[A-Za-z0-9]+")


def text_f1_strings(pred: str | None, gold: str | None) -> float:
    """SQuAD-style token F1 between two strings (both-empty -> 1.0)."""
    pt = _TOKEN_RE.findall((pred or "").lower())
    gt = _TOKEN_RE.findall((gold or "").lower())
    if not pt and not gt:
        return 1.0
    if not pt or not gt:
        return 0.0
    common: dict[str, int] = {}
    for t in gt:
        common[t] = common.get(t, 0) + 1
    overlap = 0
    for t in pt:
        if common.get(t, 0) > 0:
            overlap += 1
            common[t] -= 1
    if overlap == 0:
        return 0.0
    p = overlap / len(pt)
    r = overlap / len(gt)
    return 2 * p * r / (p + r)


def closed_text_f1(pred: DataFrame | pd.DataFrame, gold: DataFrame | pd.DataFrame,
                   attrs: list[str], all_doc_ids: list[str]) -> float:
    """Mean Text F1 over every (doc, attribute) cell of the closed schema.

    Cells where both sides are empty score 1.0 (correctly predicting "no
    value"); one-sided empties score 0. Every cell of the (doc x
    attribute) grid is looked up in both tables.
    """
    pmap = {(r.doc_id, str(r.attribute).lower()): r.value
            for r in _as_pandas(pred).itertuples()}
    gmap = {(r.doc_id, str(r.attribute).lower()): r.value
            for r in _as_pandas(gold).itertuples()}
    scores = [
        text_f1_strings(pmap.get((d, a.lower())), gmap.get((d, a.lower())))
        for d in all_doc_ids
        for a in attrs
    ]
    return float(pd.Series(scores).mean()) if scores else 0.0


def schema_f1_at_k(pred_attrs: list[str], gold_attrs: list[str]) -> float:
    """F1@k between predicted and gold attribute sets, k = |gold|."""
    k = len(gold_attrs)
    pred = [a.lower().strip() for a in pred_attrs[:k]]
    gold = {a.lower().strip() for a in gold_attrs}
    n_correct = len(set(pred) & gold)
    return PRF.from_counts(n_correct, len(pred), len(gold)).f1
