"""Tests for candidate generation, compilation, and sandboxing."""
import pytest

from repro.core.chunk import split_chunks
from repro.core.synthesis import Candidate, compile_candidate, generate_candidates
from repro.llm.tokens import TokenLedger


class TestGenerateCandidates:
    def test_count_is_docs_times_styles(self, fda_lake, fda_llm):
        ids = sorted(fda_lake.docs.doc_id)[:5]
        cands = generate_candidates(fda_lake, fda_llm, "applicant", sample_ids=ids)
        assert len(cands) == 10  # 5 docs x 2 styles (paper's top-10 pool)

    def test_single_style(self, fda_lake, fda_llm):
        ids = sorted(fda_lake.docs.doc_id)[:3]
        cands = generate_candidates(fda_lake, fda_llm, "applicant", sample_ids=ids,
                                    styles=("A",))
        assert len(cands) == 3
        assert all(c.style == "A" for c in cands)

    def test_fids_unique(self, fda_lake, fda_llm):
        ids = sorted(fda_lake.docs.doc_id)[:5]
        cands = generate_candidates(fda_lake, fda_llm, "panel", sample_ids=ids)
        fids = [c.fid for c in cands]
        assert len(fids) == len(set(fids))

    def test_tokens_metered(self, fda_lake, fda_llm):
        led = TokenLedger()
        generate_candidates(fda_lake, fda_llm, "applicant",
                            sample_ids=sorted(fda_lake.docs.doc_id)[:2],
                            ledger=led)
        assert led.by_stage["synthesis"] > 0

    def test_deterministic(self, fda_lake, fda_llm):
        ids = sorted(fda_lake.docs.doc_id)[:4]
        a = generate_candidates(fda_lake, fda_llm, "classification", sample_ids=ids)
        b = generate_candidates(fda_lake, fda_llm, "classification", sample_ids=ids)
        assert [c.source for c in a] == [c.source for c in b]

    def test_pool_contains_working_function(self, fda_lake, fda_llm):
        """At least one candidate extracts the exact gold value on some doc."""
        ids = sorted(fda_lake.docs.doc_id)[:5]
        cands = generate_candidates(fda_lake, fda_llm, "product code", sample_ids=ids)
        for c in cands:
            fn = compile_candidate(c)
            for _, doc in fda_lake.docs.iterrows():
                gold = fda_llm.gold_pairs(doc.doc_id).get("product code")
                if gold and fn(doc.text) == gold:
                    return
        pytest.fail("no working candidate in the pool")


class TestCompileCandidate:
    def test_broken_source_returns_empty(self):
        c = Candidate("f", "a", "A", "def broken(:\n  pass", "broken")
        fn = compile_candidate(c)
        assert fn("anything") == ""

    def test_raising_function_coerced_to_empty(self):
        src = "def f(text):\n    raise ValueError('boom')\n"
        fn = compile_candidate(Candidate("f", "a", "A", src, "f"))
        assert fn("x") == ""

    def test_none_coerced_to_empty(self):
        src = "def f(text):\n    return None\n"
        fn = compile_candidate(Candidate("f", "a", "A", src, "f"))
        assert fn("x") == ""

    def test_list_joined(self):
        src = "def f(text):\n    return ['a', 'b']\n"
        fn = compile_candidate(Candidate("f", "a", "A", src, "f"))
        assert fn("x") == "a, b"

    def test_output_truncated(self):
        src = "def f(text):\n    return 'z' * 10000\n"
        fn = compile_candidate(Candidate("f", "a", "A", src, "f"))
        assert len(fn("x")) == 300

    def test_non_string_stringified(self):
        src = "def f(text):\n    return 42\n"
        fn = compile_candidate(Candidate("f", "a", "A", src, "f"))
        assert fn("x") == "42"

    def test_missing_function_name(self):
        src = "def other(text):\n    return 'x'\n"
        fn = compile_candidate(Candidate("f", "a", "A", src, "expected"))
        assert fn("x") == ""

    def test_regex_available_in_env(self):
        src = ("import re\ndef f(text):\n"
               "    return re.search('v=(1)', text).group(1)\n")
        fn = compile_candidate(Candidate("f", "a", "A", src, "f"))
        assert fn("v=1") == "1"


class TestFindMentionChunk:
    """The keyword search that picks each synthesis prompt's chunk."""

    def test_finds_chunk_with_label(self, fda_lake, fda_llm):
        doc = fda_lake.docs.iloc[0]
        # pick an attribute that is present in this document but NOT in
        # its first chunk, so the keyword search has to do real work
        chunks = split_chunks(doc.text)
        gold = fda_llm.gold_pairs(doc.doc_id)
        attr = next(a for a in reversed(list(gold)) if gold[a] not in chunks[0])
        ch = fda_llm.mention_chunk(attr, doc.text)
        assert attr in ch.lower() or gold[attr] in ch

    def test_unknown_attr_falls_back(self, fda_llm):
        ch = fda_llm.mention_chunk("zzz unknown", "a\nb")
        assert ch == "a\nb"
