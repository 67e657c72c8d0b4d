"""The one SparkSession recipe, shared by ``jobs/run_all.py``, pytest's
``spark`` fixture and the benchmark harness."""
from __future__ import annotations

from pyspark.sql import SparkSession


def build_session(app: str) -> SparkSession:
    """The one SparkSession recipe: jobs, ``run_all``, and pytest's fixture.

    Automatic broadcast joins are disabled, so no size estimate picks a
    join strategy. These pipelines are join-light: the one join, votes x
    weights in Code's ``aggregate_votes_spark``, broadcasts its small
    weight table by an explicit hint.
    """
    return (
        SparkSession.builder.appName(app)
        .config("spark.ui.showConsoleProgress", "false")
        .config("spark.sql.shuffle.partitions", "16")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
