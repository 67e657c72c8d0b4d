"""Unit tests for token accounting."""
import pytest

from repro.core.cost import tokens_to_usd
from repro.llm.tokens import TokenLedger, count_tokens


class TestCountTokens:
    def test_empty(self):
        assert count_tokens("") == 0

    def test_minimum_one(self):
        assert count_tokens("a") == 1

    def test_four_chars_per_token(self):
        assert count_tokens("x" * 400) == 100

    def test_monotone_in_length(self):
        assert count_tokens("a" * 100) < count_tokens("a" * 1000)

    def test_rounding(self):
        assert count_tokens("x" * 6) == 2  # 6/4 = 1.5 -> 2


class TestUsd:
    def test_davinci_rate(self):
        assert tokens_to_usd(1000) == pytest.approx(0.02)

    def test_scales_linearly(self):
        assert tokens_to_usd(2_000_000) == pytest.approx(40.0)


class TestTokenLedger:
    def test_empty_total(self):
        assert TokenLedger().total == 0

    def test_add_accumulates(self):
        led = TokenLedger()
        led.add("schema", 100)
        led.add("schema", 50)
        led.add("synthesis", 25)
        assert led.by_stage == {"schema": 150, "synthesis": 25}
        assert led.total == 175

    def test_merge(self):
        a, b = TokenLedger(), TokenLedger()
        a.add("schema", 10)
        b.add("schema", 5)
        b.add("rerank", 7)
        a.merge(b)
        assert a.total == 22
        assert a.by_stage["schema"] == 15

    def test_merge_returns_self(self):
        a = TokenLedger()
        assert a.merge(TokenLedger()) is a
