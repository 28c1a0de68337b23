"""Stateless hashing partitioners DBH and Grid as Spark DataFrame jobs.

These are the Θ(|E|) baselines of the paper (Table 1): every edge's
partition is a pure function of its endpoint ids/degrees, so — unlike
the sequential stateful partitioners — they are embarrassingly parallel
and are implemented end-to-end in the DataFrame API. The hash is a
Knuth multiplicative hash expressible identically in Spark SQL and
DuckDB SQL, so tests oracle-check the full assignment. The SQL form
multiplies in signed 64-bit arithmetic, so it is exact only for ids
below 2^63 / 2654435761 ≈ 3.47·10⁹ (corpus ids are ≤ ~2^21); the numpy
form (:func:`hash_np`) multiplies in uint64, which leaves the residue
mod 2^32 exact for every 32-bit id.

``dbh_np`` is a numpy twin used where a driver-side result object is
needed (complexity benches, Table 4 harness).
"""
from __future__ import annotations

import numpy as np
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from ..graphs.degrees import degrees_df
from ..graphs.generators import EdgeList
from .common import PartitionResult

_KNUTH = 2654435761


def hash_expr(col: str, k: int) -> str:
    """SQL text of the vertex hash, valid in Spark SQL and DuckDB."""
    return f"cast((({col} * {_KNUTH}) % 4294967296) % {k} as bigint)"


def hash_np(ids: np.ndarray, k: int) -> np.ndarray:
    """The vertex hash of :func:`hash_expr` on a numpy id array, as int64."""
    h = (ids.astype(np.uint64) * np.uint64(_KNUTH)) % np.uint64(4294967296)
    return (h % np.uint64(k)).astype(np.int64)


def partition_dbh(edges: DataFrame, *, k: int) -> DataFrame:
    """Degree-Based Hashing (Xie et al., NeurIPS '14): hash the edge by
    its lower-degree endpoint (ties → smaller id). Returns
    DataFrame(src, dst, pid)."""
    deg = degrees_df(edges)
    d_src = deg.select(F.col("v").alias("src"), F.col("degree").alias("d_src"))
    d_dst = deg.select(F.col("v").alias("dst"), F.col("degree").alias("d_dst"))
    j = edges.join(d_src, "src").join(d_dst, "dst")
    pick = F.when(
        (F.col("d_src") < F.col("d_dst"))
        | ((F.col("d_src") == F.col("d_dst")) & (F.col("src") < F.col("dst"))),
        F.col("src"),
    ).otherwise(F.col("dst"))
    return j.withColumn("picked", pick).selectExpr(
        "src", "dst", hash_expr("picked", k) + " as pid"
    )


def partition_grid(edges: DataFrame, *, k: int) -> DataFrame:
    """Grid/2D hashing (GraphBuilder): k must be a perfect square s²;
    pid = (h(src) mod s)·s + (h(dst) mod s). Returns
    DataFrame(src, dst, pid)."""
    s = int(round(k**0.5))
    if s * s != k:
        raise ValueError(f"grid partitioning needs square k, got {k}")
    return edges.selectExpr(
        "src",
        "dst",
        f"({hash_expr('src', s)}) * {s} + ({hash_expr('dst', s)}) as pid",
    )


def dbh_np(el: EdgeList, *, k: int) -> PartitionResult:
    """Driver-side DBH with identical semantics to :func:`partition_dbh`."""
    deg = el.degrees().astype(np.int64)
    src = el.edges[:, 0].astype(np.int64)
    dst = el.edges[:, 1].astype(np.int64)
    use_src = (deg[src] < deg[dst]) | ((deg[src] == deg[dst]) & (src < dst))
    picked = np.where(use_src, src, dst)
    pid = hash_np(picked, k)
    assignment = np.stack([src, dst, pid], axis=1)
    cov = np.zeros((k, el.n), dtype=bool)
    cov[pid, src] = True
    cov[pid, dst] = True
    return PartitionResult(assignment=assignment, k=k, n=el.n, replicas=cov, stats={})
