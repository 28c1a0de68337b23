"""Degree pipeline and the τ split (paper §3.1) as Spark DataFrame jobs.

The split classifies vertices into high-degree (``d(v) > τ·mean_degree``)
and low-degree, then partitions the edge set into

* ``E_h2h`` — both endpoints high-degree → streaming phase, and
* ``E \\ E_h2h`` — at least one low endpoint → in-memory NE++ phase.

Each function has a numpy twin used by the driver-side partitioner
cores (suffix ``_np``; :meth:`EdgeList.degrees` for :func:`degrees_df`);
tests assert Spark and numpy agree and oracle-check the Spark jobs
against DuckDB SQL.
"""
from __future__ import annotations

import numpy as np
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from .generators import EdgeList


def degrees_df(edges: DataFrame) -> DataFrame:
    """Undirected per-vertex degree: DataFrame(v, degree).

    Counts each edge once per endpoint (the input holds each undirected
    edge exactly once).
    """
    ends = edges.select(F.col("src").alias("v")).unionAll(
        edges.select(F.col("dst").alias("v"))
    )
    return ends.groupBy("v").agg(F.count("*").alias("degree"))


def mean_degree(degrees: DataFrame) -> float:
    """Mean vertex degree ∅_d over vertices incident to ≥1 edge."""
    return float(degrees.agg(F.avg("degree")).first()[0])


def high_vertices(degrees: DataFrame, tau: float) -> DataFrame:
    """Vertices with d(v) > τ·∅_d: DataFrame(v)."""
    thresh = tau * mean_degree(degrees)
    return degrees.where(F.col("degree") > F.lit(thresh)).select("v")


def split_edges(edges: DataFrame, high: DataFrame) -> tuple[DataFrame, DataFrame]:
    """Split into (in-memory edges, E_h2h) given the high-vertex set."""
    h_src = high.select(F.col("v").alias("src")).withColumn("src_high", F.lit(True))
    h_dst = high.select(F.col("v").alias("dst")).withColumn("dst_high", F.lit(True))
    marked = (
        edges.join(h_src, on="src", how="left")
        .join(h_dst, on="dst", how="left")
        .withColumn("h2h", F.coalesce("src_high", F.lit(False)) & F.coalesce("dst_high", F.lit(False)))
    )
    keep = ["src", "dst"]
    inmem = marked.where(~F.col("h2h")).select(*keep)
    h2h = marked.where(F.col("h2h")).select(*keep)
    return inmem, h2h


# --- numpy twins (used by the driver-side partitioner cores) -----------

def high_mask_np(deg: np.ndarray, tau: float) -> np.ndarray:
    """Boolean mask of high-degree vertices.

    The mean is taken over vertices with degree ≥ 1, matching
    :func:`mean_degree` (compact analog graphs have no isolated
    vertices, but subgraphs passed through here may).
    """
    nz = deg[deg > 0]
    mean = nz.mean() if len(nz) else 0.0
    return deg > tau * mean


def split_edges_np(el: EdgeList, high: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split the edge array into (in-memory edges, E_h2h)."""
    h2h = high[el.edges[:, 0]] & high[el.edges[:, 1]]
    return el.edges[~h2h], el.edges[h2h]
