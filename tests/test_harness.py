"""Structural tests of the table harness (small configurations).

Full-scale regeneration happens in jobs/run_all.py and benchmarks/; here we check
the harness produces correctly-shaped frames with paper reference
columns, and that the central Table-3 relationship (Code+ > Direct on
FDA, large token reduction) holds at mini scale.
"""
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core import evaporate
from repro.harness import paper, tables


@pytest.fixture(scope="module")
def mini_cfg():
    return tables.HarnessConfig(n_docs=16, sample_size=6, sites_per_domain=1,
                                groups=["fda", "enron"])


@pytest.fixture(scope="module")
def t3(spark, mini_cfg):
    return tables.table3(spark, mini_cfg)


@pytest.fixture(scope="module")
def t6(spark, mini_cfg):
    return tables.table6(spark, mini_cfg)


class TestTable3Harness:
    def test_rows_and_columns(self, t3, mini_cfg):
        assert len(t3) == len(mini_cfg.groups) + 1  # + Average
        for col in ("direct_f1", "code_f1", "direct_mtok", "code_mtok",
                    "reduction", "delta_f1"):
            assert col in t3.columns and f"{col}_paper" in t3.columns

    def test_paper_references_attached(self, t3):
        fda = t3[t3.source.str.startswith("FDA")].iloc[0]
        assert fda.direct_f1_paper == paper.TABLE3["fda"]["direct_f1"]

    def test_code_plus_beats_direct_on_fda(self, t3):
        fda = t3[t3.source.str.startswith("FDA")].iloc[0]
        assert fda.code_f1 > fda.direct_f1

    def test_token_reduction_order_of_magnitude(self, t3):
        fda = t3[t3.source.str.startswith("FDA")].iloc[0]
        assert fda.reduction > 10

    def test_no_nans_in_measured(self, t3):
        for col in ("direct_f1", "code_f1"):
            assert not t3[col].isna().any()


class TestTable6Harness:
    def test_shape(self, t6):
        assert len(t6) == 2
        assert {"n_attrs", "closed_f1", "closed_f1_paper"} <= set(t6.columns)


class TestHelpers:
    def test_to_markdown(self, t3):
        md = tables.to_markdown(t3)
        assert md.startswith("|") and "direct_f1" in md

    def test_settings_limit(self):
        cfg = tables.HarnessConfig(sites_per_domain=2)
        assert len(tables._settings(cfg, "swde_movie")) == 2
        assert len(tables._settings(cfg, "fda")) == 1

    def test_mean_skips_none(self):
        assert tables._mean([{"x": 1.0}, {"x": None}, {"x": 3.0}], "x") == 2.0

    def test_mean_empty_is_nan(self):
        assert math.isnan(tables._mean([], "x"))

    def test_table3_reduction_is_ratio_of_unrounded_means(self, monkeypatch):
        """Each group's reduction is the ratio of its unrounded token means,
        and the Average is the mean of those unrounded ratios."""
        mtok = {"fda": [(39.04, 0.44), (38.96, 0.38)], "enron": [(8.04, 0.166)]}

        def runs(cfg, group, measure):
            return [{"direct_f1": 50.0, "direct_mtok": d, "direct_usd": 1.0,
                     "code_f1": 60.0, "code_mtok": c, "code_usd": 1.0}
                    for d, c in mtok[group]]

        def mean(xs):
            return sum(xs) / len(xs)

        monkeypatch.setattr(tables, "_per_setting", runs)
        t3 = tables.table3(None, tables.HarnessConfig(groups=["fda", "enron"]))
        got = dict(zip(t3.source, t3.reduction))
        ratio = {g: mean([d for d, _ in v]) / mean([c for _, c in v]) for g, v in mtok.items()}
        # the rounded means, 39.0 / 0.4 and 8.0 / 0.2, would give 98 and 40
        assert got["FDA (TXT)"] == round(ratio["fda"], 0) == 95
        assert got["Enron Emails (TXT)"] == round(ratio["enron"], 0) == 48
        assert got["Average"] == round(mean(list(ratio.values())), 1) == 71.8


# ``mini_cfg``'s Tables 3, 6 and 7, pinned byte for byte: they carry the
# derived and re-rounded columns (delta_f1, reduction, whole-dollar usd).
_PINNED_MD = {
    "table3": [
        "| source | direct_f1 | direct_f1_paper | direct_mtok | direct_mtok_paper | direct_usd | direct_usd_paper | code_f1 | code_f1_paper | code_mtok | code_mtok_paper | code_usd | code_usd_paper | delta_f1 | delta_f1_paper | reduction | reduction_paper |",
        "|---|---|---|---|---|---|---|---|---|---|---|---|---|---|---|---|---|",
        "| FDA (TXT) | 54.9 | 48.6 | 38.9 | 145.6 | 777.8 | 2900 | 75.6 | 64.9 | 0.4 | 1.9 | 8.2 | 38 | 20.7 | 16.3 | 95.0 | 77 |",
        "| Enron Emails (TXT) | 97.5 | 90.9 | 8.0 | 21.2 | 159.6 | 425 | 86.1 | 87.1 | 0.2 | 0.6 | 3.3 | 12 | -11.4 | -3.8 | 48.0 | 35 |",
        "| Average | 76.2 | 55.4 | 23.4 | 258.0 | 468.7 | 5157 | 80.8 | 67.5 | 0.3 | 1.9 | 5.8 | 39 | 4.6 | 12.1 | 71.6 | 110 |",
    ],
    "table6": [
        "| source | n_attrs | closed_f1 | closed_f1_paper |",
        "|---|---|---|---|",
        "| FDA (TXT) | 16.0 | 64.4 | 56.5 |",
        "| Enron Emails (TXT) | 15.0 | 54.1 | 53.7 |",
    ],
    "table7": [
        "| source | n_attrs | n_attrs_paper | f1 | f1_paper | mtok | mtok_paper | usd | usd_paper |",
        "|---|---|---|---|---|---|---|---|---|",
        "| FDA (TXT) | 16.0 | 16.0 | 90.1 | 78.0 | 171.9 | 241 | 3439.0 | 4816 |",
        "| Enron Emails (TXT) | 15.0 | 15.0 | 97.2 | 85.3 | 62.9 | 140 | 1259.0 | 2790 |",
        "| Average | 15.5 | 21.6 | 93.7 | 79.9 | 117.4 | 289 | 2349.0 | 5785 |",
    ],
}


class TestPinnedMarkdown:
    def test_table3(self, t3):
        assert tables.to_markdown(t3).split("\n") == _PINNED_MD["table3"]

    def test_table6(self, t6):
        assert tables.to_markdown(t6).split("\n") == _PINNED_MD["table6"]

    def test_table7(self, spark, mini_cfg):
        t7 = tables.table7(spark, mini_cfg)
        assert tables.to_markdown(t7).split("\n") == _PINNED_MD["table7"]


def test_table1_then_table4_finish_code_plus_order(spark, monkeypatch):
    """Table 1 finishes its ClosedIE then its OpenIE Code+ run; Table 4
    re-aggregates one OpenIE run as mv, ws, ws_filter, ws_abstain_filter.
    The benchmark's ``tables-small`` reference checks its runs in this order."""
    finish = evaporate.finish_code_plus
    calls = []

    def tap(spark_, art, aggregator="ws_abstain_filter"):
        calls.append(("closed" if art.schema is None else "open", aggregator))
        return finish(spark_, art, aggregator)

    monkeypatch.setattr(evaporate, "finish_code_plus", tap)
    cfg = tables.HarnessConfig(n_docs=12, sites_per_domain=1, groups=["fda"])
    tables.table1(spark, cfg)
    tables.table4(spark, cfg)
    assert calls == [("closed", "ws_abstain_filter"), ("open", "ws_abstain_filter"),
                     ("open", "mv"), ("open", "ws"), ("open", "ws_filter"),
                     ("open", "ws_abstain_filter")]


def _run_all(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": f"{root / 'src'}{os.pathsep}{root}"}
    return subprocess.run(
        [sys.executable, str(root / "jobs" / "run_all.py"), *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=60)


class TestRunAllCli:
    @pytest.mark.parametrize("args", [["table9"], ["table6", "table9"]])
    def test_unknown_table_exits_before_writing(self, tmp_path, args):
        """An unknown name fails the whole call up front: no table runs,
        not even the valid ones named before it."""
        (tmp_path / "results").mkdir()
        proc = _run_all(tmp_path, *args)
        assert proc.returncode != 0
        assert "unknown table(s): table9" in proc.stderr
        assert list((tmp_path / "results").iterdir()) == []

    def test_missing_results_dir_exits_before_spark(self, tmp_path):
        """Started outside the repo root, a valid table fails up front
        instead of after computing the table."""
        proc = _run_all(tmp_path, "table6")
        assert proc.returncode != 0
        assert "no results/ directory" in proc.stderr
        assert "===" not in proc.stdout
        assert list(tmp_path.iterdir()) == []
