"""gasx — a GraphX-like vertex-cut graph processing engine on DataFrames.

PySpark has no GraphX binding, so the paper's Spark/GraphX evaluation
(Table 4) runs on this engine. It executes iterative graph algorithms
in the GAS/Pregel pattern over an *edge-partitioned* graph, with the
same two-stage aggregation that makes edge partitioning matter on a
real cluster:

1. **local combine** — messages are aggregated per ``(pid, vertex)``
   inside each edge partition;
2. **global combine** — the per-partition partials are shuffled and
   merged per vertex (the replica synchronization step).

Stage 2's row count per iteration is exactly the number of (partition,
vertex) replica pairs that carry messages — bounded by Σ_i |V(p_i)| =
RF·|V|. That count is the machine-independent communication volume the
paper's processing-time differences come from, and gasx reports it next
to wall time (DESIGN.md substitution 2).

Input everywhere: an assignment DataFrame(src, dst, pid) as produced by
:func:`repro.core.metrics.assignment_to_spark` or the hashing
partitioners. Graphs are undirected: edges are symmetrized (each copy
stays in its partition) before messaging.
"""
from __future__ import annotations

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from ..core.metrics import covered_vertices


def symmetrize(assignment: DataFrame) -> DataFrame:
    """Both directions of every edge, each keeping its pid."""
    fwd = assignment.select("pid", "src", "dst")
    rev = assignment.select(
        "pid", F.col("dst").alias("src"), F.col("src").alias("dst")
    )
    return fwd.unionAll(rev)


def vertices(assignment: DataFrame) -> DataFrame:
    """DataFrame(v): all vertices incident to at least one edge."""
    return (
        assignment.select(F.col("src").alias("v"))
        .unionAll(assignment.select(F.col("dst").alias("v")))
        .distinct()
    )


def comm_volume(assignment: DataFrame) -> int:
    """Σ_i |V(p_i)| — per-iteration replica-sync upper bound."""
    return covered_vertices(assignment).count()


def two_stage_agg(msgs: DataFrame, agg_col: str, how: str) -> tuple[DataFrame, int]:
    """The engine kernel: local per-(pid, dst) combine, then global
    per-dst combine. Returns (DataFrame(dst, <agg_col>), partial_rows)
    where partial_rows is this iteration's replica-sync volume.
    ``how`` is "sum" or "min".
    """
    fn = F.sum if how == "sum" else F.min
    partial = (
        msgs.groupBy("pid", "dst").agg(fn(agg_col).alias(agg_col)).localCheckpoint()
    )
    rows = partial.count()
    total = partial.groupBy("dst").agg(fn(agg_col).alias(agg_col))
    return total, rows
