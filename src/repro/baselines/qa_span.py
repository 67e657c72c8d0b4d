"""Simulated extractive-QA span baseline (Appendix C.1, Table 6).

Stand-in for DeBERTaV3-Large fine-tuned on SQuAD 2.0. Span extractors
are trained on natural-language paragraphs; the paper finds they degrade
sharply on semi-structured markup and long documents (Table 6:
43.5-56.5 ClosedIE F1 vs Evaporate's 73.7-93.3). The simulation
reproduces the mechanism: extraction succeeds only when the attribute
label and value sit in a sentence-sized plain-text window, with extra
failure probability on markup-heavy and long documents.
"""
from __future__ import annotations

import re

import pandas as pd

from repro.lakes.base import DataLake
from repro.util import hash_uniform


def _window_quality(lake: DataLake, text: str) -> float:
    """Probability scale for span extraction on this document.

    Span extractors are trained on natural-language paragraphs; they
    degrade on markup, on long documents, and on header-style
    ``Label: value`` text that lacks sentence structure (Appendix C.1).
    """
    lines = [l for l in text.split("\n") if l.strip()]
    markup = len(re.findall(r"<[^>]+>", text)) / max(1, len(lines))
    long_doc = min(1.0, len(text) / 30_000)
    headerish = sum(
        bool(re.match(r"^\s*[A-Za-z0-9()\- ]{2,30}(:|--|=)", l)) for l in lines
    ) / max(1, len(lines))
    return max(0.15, 1.0 - 0.5 * min(1.0, markup) - 0.3 * long_doc
               - 0.45 * headerish)


def run_qa_span_baseline(lake: DataLake, seed: int = 0) -> pd.DataFrame:
    """ClosedIE predictions for the gold schema, value-by-value."""
    rows = []
    gold = {(r.doc_id, r.attribute): r.value for r in lake.gold.itertuples()}
    for r in lake.docs.itertuples():
        q = _window_quality(lake, r.text)
        for attr in lake.gold_attrs:
            value = gold.get((r.doc_id, attr), "")
            u = hash_uniform("qa", seed, lake.name, r.doc_id, attr)
            if not value:
                # no-answer calibration of SQuAD2 models is imperfect
                if u < 0.15:
                    rows.append((r.doc_id, attr, "unknown"))
                continue
            if u < 0.58 * q:
                rows.append((r.doc_id, attr, value))  # exact span
            elif u < 0.78 * q:
                toks = value.split()  # partial span
                rows.append((r.doc_id, attr, " ".join(toks[: max(1, len(toks) // 2)])))
            elif u < 0.9:
                continue  # predicted no-answer
            else:
                # wrong span: grabs neighbouring prose
                ctx = re.sub(r"<[^>]+>", " ", r.text)
                start = int(hash_uniform("qa-span", seed, r.doc_id, attr) * max(1, len(ctx) - 60))
                rows.append((r.doc_id, attr, " ".join(ctx[start:start + 50].split()[:6])))
    return pd.DataFrame(rows, columns=["doc_id", "attribute", "value"])
