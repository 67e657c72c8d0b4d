"""Schema synthesis (§3.2.1): identify attributes from a small doc sample.

Processes only k << n documents with the OpenIE prompt, counts the
attribute surfaces, then a re-ranking LLM call merges aliases to
canonical names and upweights attributes it judges useful. The token
cost is fixed with respect to the lake size — this is half of the
paper's sublinearity argument.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.direct import openie_doc
from repro.lakes.base import DataLake
from repro.llm.mock_llm import MockLLM
from repro.llm.tokens import TokenLedger

UPWEIGHT = 3.0  # multiplicative boost for LLM-endorsed attributes (§3.2.1)
N_SCHEMA_SAMPLE = 10  # docs for schema synthesis + D_eval (paper §4.1)


@dataclass
class SchemaResult:
    """Ranked candidate attributes + the tokens spent finding them."""

    ranked_attrs: list[str]
    counts: dict[str, float]
    ledger: TokenLedger = field(default_factory=TokenLedger)


def sample_doc_ids(lake: DataLake, k: int) -> list[str]:
    """Deterministic evenly-spaced sample of k document ids."""
    ids = sorted(lake.doc_ids)
    if k >= len(ids):
        return ids
    step = len(ids) / k
    return [ids[min(len(ids) - 1, int(i * step))] for i in range(k)]


def synthesize_schema(lake: DataLake, llm: MockLLM) -> SchemaResult:
    """Run schema synthesis over an N_SCHEMA_SAMPLE-document sample
    (driver-side: the sample is tiny by design; the scale-out work is
    elsewhere)."""
    ledger = TokenLedger()
    counts: dict[str, int] = {}
    for doc_id in sample_doc_ids(lake, N_SCHEMA_SAMPLE):
        seen, t = openie_doc(llm, doc_id, lake.doc_text[doc_id])
        ledger.add("schema", t)
        for a in seen:
            counts[a] = counts.get(a, 0) + 1

    merged, useful, t = llm.rerank_attributes(counts)
    ledger.add("rerank", t)
    weighted = {
        a: c * (UPWEIGHT if a in useful else 1.0) for a, c in merged.items()
    }
    ranked = sorted(weighted, key=lambda a: (-weighted[a], a))
    return SchemaResult(ranked_attrs=ranked, counts=weighted, ledger=ledger)
