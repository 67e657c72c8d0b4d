"""Function synthesis (§3.2.2, §3.3.1): prompt the LLM to write extractors.

For each attribute, Evaporate keyword-searches the sample documents for
the portions mentioning the attribute (``MockLLM.mention_chunk``),
inserts those chunks into the two prompt templates P_A (regex,
zero-shot) and P_B (two in-context examples), and collects the generated
Python sources as *candidate functions*. Candidate diversity — across
sample documents (formatting variants) and across prompt styles — is
what Algorithm 1 later exploits.
"""
from __future__ import annotations

import re
from dataclasses import dataclass

from repro.lakes.base import DataLake
from repro.llm.mock_llm import MockLLM
from repro.llm.tokens import TokenLedger


@dataclass(frozen=True)
class Candidate:
    """One synthesized extractor function."""

    fid: str
    attribute: str
    style: str  # "A" | "B"
    source: str
    fn_name: str


def generate_candidates(
    lake: DataLake,
    llm: MockLLM,
    attr: str,
    *,
    sample_ids: list[str],
    styles: tuple[str, ...] = ("A", "B"),
    ledger: TokenLedger | None = None,
) -> list[Candidate]:
    """Generate candidate functions for one attribute.

    One candidate per (sample document, prompt style) — |sample| x
    |styles| candidates, duplicates included: two sample docs of the
    same formatting variant yield the same function, and that
    redundancy legitimately reinforces the majority under aggregation
    (the paper ensembles the top-10 candidates as-is).
    """
    ledger = ledger if ledger is not None else TokenLedger()
    out: list[Candidate] = []
    for i, doc_id in enumerate(sample_ids):
        chunk = llm.mention_chunk(attr, lake.doc_text[doc_id])
        for style in styles:
            src, fn_name, t = llm.synthesize_function(attr, chunk, style, salt=doc_id)
            ledger.add("synthesis", t)
            out.append(Candidate(
                fid=f"{attr}::{style}{i}", attribute=attr, style=style,
                source=src, fn_name=fn_name,
            ))
    return out


def compile_candidate(cand: Candidate):
    """Compile a candidate's source into a callable.

    Returns a wrapper that coerces any outcome to a string: exceptions
    and non-string returns become ``""``/joined text — machine-generated
    functions "always provide some output" (§3.3.2 Assumption 1).
    """
    env: dict = {"re": re}
    try:
        exec(cand.source, env)  # noqa: S102 - sandboxed synthetic source
        fn = env[cand.fn_name]
    except Exception:
        return lambda text: ""

    def safe(text: str) -> str:
        try:
            out = fn(text)
        except Exception:
            return ""
        if out is None:
            return ""
        if isinstance(out, (list, tuple)):
            out = ", ".join(str(x) for x in out)
        return str(out).strip()[:300]

    return safe
