"""Partitioning-quality metrics as Spark DataFrame aggregations.

All metrics consume an *assignment* DataFrame(src, dst, pid):

* replication factor  RF = (1/|V|) Σ_i |V(p_i)|   (paper §2),
* edge balance        α  = max_i |p_i| / (|E|/k),
* vertex balance      std/avg of |V(p_i)| over partitions (Table 5).

numpy twins operate on :class:`PartitionResult` for driver-side use
(RF's is :meth:`PartitionResult.replication_factor`); tests assert
Spark and numpy agree and oracle-check the Spark versions against
DuckDB SQL.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from .common import PartitionResult


def covered_vertices(assignment: DataFrame) -> DataFrame:
    """DataFrame(pid, v): vertex v is covered by (replicated on) pid."""
    return (
        assignment.select("pid", F.col("src").alias("v"))
        .unionAll(assignment.select("pid", F.col("dst").alias("v")))
        .distinct()
    )


def replication_factor(assignment: DataFrame) -> float:
    """RF over vertices incident to at least one edge."""
    cov = covered_vertices(assignment)
    total = cov.count()
    nv = cov.select("v").distinct().count()
    return total / nv


def edge_balance(assignment: DataFrame, *, k: int) -> float:
    """max_i |p_i| / (|E|/k) — 1.0 is perfect balance."""
    sizes = assignment.groupBy("pid").count()
    mx = sizes.agg(F.max("count")).first()[0]
    m = assignment.count()
    return float(mx) / (m / k)


def vertex_balance(assignment: DataFrame) -> float:
    """Std-deviation / average of per-partition covered-vertex counts
    (Table 5's metric; population std as the paper reports spread over
    the fixed set of k partitions)."""
    per = covered_vertices(assignment).groupBy("pid").count()
    row = per.agg(
        F.stddev_pop("count").alias("sd"), F.avg("count").alias("avg")
    ).first()
    return float(row["sd"]) / float(row["avg"])


def assignment_to_spark(spark: SparkSession, res: PartitionResult) -> DataFrame:
    """Lift a driver-side PartitionResult into DataFrame(src, dst, pid)."""
    return spark.createDataFrame(
        pd.DataFrame(
            {
                "src": res.assignment[:, 0],
                "dst": res.assignment[:, 1],
                "pid": res.assignment[:, 2],
            }
        )
    )


# --- numpy twins -------------------------------------------------------

def edge_balance_np(res: PartitionResult) -> float:
    m = res.assignment.shape[0]
    return float(res.sizes.max()) / (m / res.k)


def vertex_balance_np(res: PartitionResult) -> float:
    per = res.covered().sum(axis=1).astype(np.float64)
    return float(per.std() / per.mean())
