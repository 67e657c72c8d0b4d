"""The benchmark's tracer (``perfbench/tracing.py``) wraps the pipeline's
layers by name and reads a few of their arguments and results. These
tests run it, unchanged, over a small Code+ and Direct run, so a change
that renames or reshapes something it reads fails here first."""
import inspect
import sys
from pathlib import Path

import pytest

from repro.core import direct, evaporate
from repro.harness import tables  # noqa: F401  (wrapped by the tracer)
from repro.llm.mock_llm import MockLLM

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from tracing import Tracer  # noqa: E402


def _run(spark, fda_lake, nba_lake):
    """Code+ on FDA and Direct on NBA: each run's sorted table and tokens."""
    key = ["doc_id", "attribute", "value"]
    runs = (evaporate.run_code_plus(spark, fda_lake), direct.run_direct(spark, nba_lake))
    return [(r.table.sort_values(key).reset_index(drop=True), r.tokens) for r in runs]


def _functions():
    """Every function and class bound in a ``repro`` module, and
    ``MockLLM.__init__``: what the tracer may replace."""
    out = {("MockLLM", "__init__"): MockLLM.__init__}
    for name, module in list(sys.modules.items()):
        if (name == "repro" or name.startswith("repro.")) and module is not None:
            out.update({(name, k): v for k, v in vars(module).items()
                        if inspect.isfunction(v) or inspect.isclass(v)})
    return out


@pytest.fixture(scope="module")
def traced(spark, fda_lake, nba_lake):
    want = _run(spark, fda_lake, nba_lake)
    before = _functions()
    with Tracer() as tracer:
        got = _run(spark, fda_lake, nba_lake)
    return want, got, tracer, before, _functions()


class TestTracerContract:
    def test_counts_code_plus_layers(self, traced):
        m = traced[2].pass_metrics("setup")
        for key in ("plan.calls", "ws.calls", "ws.vote_docs", "execute.applications"):
            assert m[key] > 0, key

    def test_tables_and_tokens_unchanged(self, traced):
        want, got = traced[:2]
        for (w_table, w_tokens), (g_table, g_tokens) in zip(want, got):
            assert g_table.equals(w_table)
            assert g_tokens == w_tokens

    def test_originals_restored(self, traced):
        before, after = traced[3:]
        assert ("repro.harness.tables", "table1") in before
        assert [k for k in before if after.get(k) is not before[k]] == []
