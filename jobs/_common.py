"""The one SparkSession recipe, shared by ``jobs/run_all.py``, pytest's
``spark`` fixture and the benchmark harness."""
from __future__ import annotations

from pyspark.sql import SparkSession


def build_session(app: str) -> SparkSession:
    """The one SparkSession recipe: jobs, ``run_all``, and pytest's fixture.

    Broadcast joins are disabled so the shuffle path is what runs; these
    pipelines are join-light (votes x weights, pred x gold).
    """
    return (
        SparkSession.builder.appName(app)
        .config("spark.ui.showConsoleProgress", "false")
        .config("spark.sql.shuffle.partitions", "16")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
