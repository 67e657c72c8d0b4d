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

from repro.harness import paper, tables


@pytest.fixture(scope="module")
def mini_cfg():
    return tables.HarnessConfig(n_docs=16, sample_size=6, sites_per_domain=1,
                                groups=["fda", "enron"])


@pytest.fixture(scope="module")
def t3(spark, mini_cfg):
    return tables.table3(spark, mini_cfg)


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
    def test_shape(self, spark, mini_cfg):
        t6 = tables.table6(spark, mini_cfg)
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
