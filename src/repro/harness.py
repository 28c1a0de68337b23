"""Experiment harnesses — one per reproduced table (DESIGN.md §2).

Each ``run_tableN`` returns a list of row-dicts and is wrapped by a
``jobs/`` entrypoint (prints the table) and a ``benchmarks/`` target
(times it under pytest-benchmark). EXPERIMENTS.md records the paper's
numbers next to one bench-scale run of these harnesses.
"""
from __future__ import annotations

import os
import time

import numpy as np
from pyspark.sql import SparkSession

from .core.common import check_valid
from .core.hashing import dbh_np
from .core.hep import partition_hep
from .core.memory_model import (
    hep_footprint_bytes,
    ne_footprint_bytes,
    streaming_footprint_bytes,
)
from .core.metrics import (
    assignment_to_spark,
    edge_balance_np,
    vertex_balance_np,
)
from .core.ne import partition_ne
from .core.sne import partition_sne
from .core.streaming import partition_streaming
from .gasx.algorithms import bfs, connected_components, pagerank
from .graphs.generators import EdgeList, graph, graph_type, to_spark
from .paging.page_cache import run_nepp_paged
from .tau.precompute import footprint_sweep

# Table 4 partitioner lineup (the paper's: HEP-100/10/1, NE, SNE, HDRF, DBH)
TABLE4_PARTITIONERS = ("HEP-100", "HEP-10", "HEP-1", "NE", "SNE", "HDRF", "DBH")
# Fig. 8 adds the remaining streaming baselines we implement
FIG8_EXTRA = ("Greedy", "Random")


def run_partitioner(name: str, el: EdgeList, *, k: int):
    """Dispatch by lineup name; returns (PartitionResult, seconds).

    After the timer stops, the result is checked: a valid partitioning
    of ``el`` (without α, since DBH is unbalanced by design) whose
    ``replicas`` hold every vertex its assignment covers.
    """
    t0 = time.perf_counter()
    if name.startswith("HEP-"):
        res = partition_hep(el, k=k, tau=float(name.split("-")[1]))
    elif name == "NE":
        res = partition_ne(el, k=k)
    elif name == "SNE":
        res = partition_sne(el, k=k)
    elif name == "HDRF":
        res = partition_streaming(el, k=k, method="hdrf")
    elif name == "Greedy":
        res = partition_streaming(el, k=k, method="greedy")
    elif name == "Random":
        res = partition_streaming(el, k=k, method="random")
    elif name == "DBH":
        res = dbh_np(el, k=k)
    else:
        raise ValueError(name)
    seconds = time.perf_counter() - t0
    check_valid(el, res)
    assert not (res.covered() & ~res.replicas).any(), f"{name}: covered vertex not in replicas"
    return res, seconds


def footprint_model(name: str, el: EdgeList, *, k: int) -> int:
    """§4.2-style modeled footprint for a lineup member."""
    deg = el.degrees().astype(np.int64)
    if name.startswith("HEP-"):
        return hep_footprint_bytes(deg, tau=float(name.split("-")[1]), k=k)
    if name in ("NE", "SNE"):
        b = ne_footprint_bytes(deg, k=k)
        if name == "SNE":  # buffer holds only ~2·|E|/k edges
            m = int(deg.sum()) // 2
            buf = min(m, 2 * -(-m // k))
            return int(b * buf / max(m, 1)) + streaming_footprint_bytes(el.n, k=k)
        return b
    return streaming_footprint_bytes(el.n, k=k)


# --- Table 1: complexity scaling ---------------------------------------

def run_table1(*, sizes=(0.1, 0.2, 0.4), ks=(4, 8, 16), base_graph="OK") -> list[dict]:
    """Empirical scaling of partitioning run-time vs |E| (at k=8) and
    vs k (at the largest size): the shape behind Table 1's complexity
    classes — DBH flat in k, HDRF/Greedy linear in k, HEP dominated by
    the NE++ term."""
    rows = []
    for s in sizes:
        el = graph(base_graph, scale=s)
        for name in ("HEP-10", "HDRF", "DBH"):
            _, t = run_partitioner(name, el, k=8)
            rows.append(dict(axis="|E|", scale=s, m=el.m, k=8, partitioner=name, seconds=round(t, 4)))
    el = graph(base_graph, scale=sizes[-1])
    for k in ks:
        for name in ("HEP-10", "HDRF", "DBH"):
            _, t = run_partitioner(name, el, k=k)
            rows.append(dict(axis="k", scale=sizes[-1], m=el.m, k=k, partitioner=name, seconds=round(t, 4)))
    return rows


# --- Table 2: τ pre-computation run-time -------------------------------

def run_table2(
    spark: SparkSession,
    *,
    names=("LJ", "OK", "WI", "IT", "TW", "FR", "UK"),
    scale: float = 1.0,
    taus=(0.5, 1.0, 2.0, 5.0, 10.0, 50.0, 100.0),
    k: int = 32,
) -> list[dict]:
    """Time the Spark τ-footprint sweep per graph (paper Table 2)."""
    rows = []
    for name in names:
        el = graph(name, scale=scale)
        edges = to_spark(spark, el).localCheckpoint()  # exclude generation
        t0 = time.perf_counter()
        sweep = footprint_sweep(edges, taus=list(taus), k=k)
        dt = time.perf_counter() - t0
        rows.append(
            dict(
                graph=name,
                m=el.m,
                seconds=round(dt, 3),
                footprint_tau_min=sweep[0][1],
                footprint_tau_max=sweep[-1][1],
            )
        )
    return rows


# --- Table 3: dataset corpus -------------------------------------------

def run_table3(*, names=("LJ", "OK", "BR", "WI", "IT", "TW", "FR", "UK"), scale: float = 1.0) -> list[dict]:
    rows = []
    for name in names:
        el = graph(name, scale=scale)
        rows.append(
            dict(
                graph=name,
                vertices=el.n,
                edges=el.m,
                size_mib=round(el.size_bytes / 2**20, 2),
                type=graph_type(name),
                mean_degree=round(2 * el.m / el.n, 1),
            )
        )
    return rows


# --- Table 4: partitioning + distributed graph processing --------------

def run_table4(
    spark: SparkSession,
    *,
    names=("OK", "IT", "TW"),
    scale: float = 0.5,
    k: int = 32,
    partitioners=TABLE4_PARTITIONERS,
    pr_iters: int = 5,
    bfs_sources: int = 2,
    cc_max_iter: int = 15,
) -> list[dict]:
    """Partitioning time, RF, and PageRank/BFS/CC processing cost per
    (graph, partitioner). Processing cost = wall seconds *and* replica-
    sync rows (the machine-independent communication volume)."""
    rows = []
    for gname in names:
        el = graph(gname, scale=scale)
        rng = np.random.default_rng(7)
        sources = rng.integers(0, el.n, bfs_sources)
        for pname in partitioners:
            res, t_part = run_partitioner(pname, el, k=k)
            adf = assignment_to_spark(spark, res).localCheckpoint()
            ranks, pr_stats = pagerank(adf, n_iter=pr_iters)
            bfs_wall, bfs_comm = 0.0, 0
            for s in sources:
                _, st = bfs(adf, source=int(s))
                bfs_wall += st.wall_s
                bfs_comm += st.comm_rows
            _, cc_stats = connected_components(adf, max_iter=cc_max_iter)
            rows.append(
                dict(
                    graph=gname,
                    partitioner=pname,
                    t_partition_s=round(t_part, 3),
                    rf=round(res.replication_factor(), 3),
                    pr_s=round(pr_stats.wall_s, 2),
                    pr_comm=pr_stats.comm_rows,
                    bfs_s=round(bfs_wall, 2),
                    bfs_comm=bfs_comm,
                    cc_s=round(cc_stats.wall_s, 2),
                    cc_comm=cc_stats.comm_rows,
                )
            )
            adf.unpersist()
    return rows


# --- Table 5: vertex balancing -----------------------------------------

def run_table5(
    *, names=("OK", "IT", "TW"), scale: float = 1.0, k: int = 32, taus=(100.0, 10.0, 1.0)
) -> list[dict]:
    rows = []
    for gname in names:
        el = graph(gname, scale=scale)
        for tau in taus:
            res = partition_hep(el, k=k, tau=tau)
            check_valid(el, res)
            rows.append(
                dict(
                    graph=gname,
                    partitioner=f"HEP-{tau:g}",
                    vertex_balance=round(vertex_balance_np(res), 3),
                    rf=round(res.replication_factor(), 3),
                )
            )
    return rows


# --- Table 6: paging vs hybrid partitioning ----------------------------

def run_table6(
    *,
    name: str = "OK",
    scale: float = 1.0,
    k: int = 32,
    tau: float = 100.0,
    fractions=(1.0, 0.9, 0.8, 0.7, 0.6, 0.5, 0.4),
) -> list[dict]:
    """Paged NE++ at a ladder of memory limits vs HEP-1's footprint."""
    el = graph(name, scale=scale)
    deg = el.degrees().astype(np.int64)
    full = hep_footprint_bytes(deg, tau=tau, k=k)
    rows = []
    for f in fractions:
        r = run_nepp_paged(el, k=k, tau=tau, limit_bytes=int(full * f))
        rows.append(
            dict(
                limit_frac=f,
                limit_bytes=r.limit_bytes,
                hard_faults=r.hard_faults,
                modeled_runtime_s=round(r.modeled_runtime_s, 3),
            )
        )
    # the HEP alternative at τ=1: smaller footprint, no faults
    hep1 = partition_hep(el, k=k, tau=1.0)
    check_valid(el, hep1)
    rows.append(
        dict(
            limit_frac="HEP-1",
            limit_bytes=hep_footprint_bytes(deg, tau=1.0, k=k),
            hard_faults=0,
            modeled_runtime_s=round(
                hep1.stats["t_inmem_s"] + hep1.stats["t_stream_s"], 3
            ),
            rf=round(hep1.replication_factor(), 3),
        )
    )
    return rows


# --- Fig. 8 / Fig. 9 extras --------------------------------------------

def run_fig8(
    *, names=("LJ", "OK", "BR", "WI", "IT", "TW"), scale: float = 0.5, k: int = 32
) -> list[dict]:
    rows = []
    lineup = list(TABLE4_PARTITIONERS) + list(FIG8_EXTRA)
    for gname in names:
        el = graph(gname, scale=scale)
        for pname in lineup:
            res, t = run_partitioner(pname, el, k=k)
            rows.append(
                dict(
                    graph=gname,
                    partitioner=pname,
                    rf=round(res.replication_factor(), 3),
                    seconds=round(t, 3),
                    balance=round(edge_balance_np(res), 3),
                    mem_model_mib=round(footprint_model(pname, el, k=k) / 2**20, 3),
                )
            )
    return rows


def run_fig9(
    *, name: str = "OK", scale: float = 0.5, k: int = 32, taus=(100.0, 10.0, 1.0)
) -> list[dict]:
    """HEP vs the simple hybrid (NE + random streaming), §5.4."""
    el = graph(name, scale=scale)
    rows = []
    for tau in taus:
        t0 = time.perf_counter()
        hep = partition_hep(el, k=k, tau=tau)
        t_hep = time.perf_counter() - t0
        t0 = time.perf_counter()
        simple = partition_hep(el, k=k, tau=tau, inmem="ne", streaming_method="random")
        t_simple = time.perf_counter() - t0
        check_valid(el, hep)
        check_valid(el, simple)
        rows.append(
            dict(
                tau=tau,
                rf_hep=round(hep.replication_factor(), 3),
                rf_simple=round(simple.replication_factor(), 3),
                t_hep_s=round(t_hep, 3),
                t_simple_s=round(t_simple, 3),
                rf_ratio=round(simple.replication_factor() / hep.replication_factor(), 2),
                t_inmem_hep_s=round(hep.stats["t_inmem_s"], 3),
                t_inmem_simple_s=round(simple.stats["t_inmem_s"], 3),
            )
        )
    return rows


def print_rows(title: str, rows: list[dict]) -> None:
    """Aligned fixed-width dump of a row-dict table; also persisted to
    ``bench_results/<slug>.txt`` (pytest captures stdout of passing
    tests, so the bench harness leaves artifacts for EXPERIMENTS.md)."""
    lines = [f"== {title}"]
    if not rows:
        lines[0] += ": no rows"
    else:
        cols = list(rows[0].keys())
        widths = {
            c: max(len(c), *(len(str(r.get(c, ""))) for r in rows)) for c in cols
        }
        lines.append("  " + "  ".join(c.ljust(widths[c]) for c in cols))
        for r in rows:
            lines.append(
                "  " + "  ".join(str(r.get(c, "")).ljust(widths[c]) for c in cols)
            )
    text = "\n".join(lines)
    print(text)
    out_dir = os.environ.get("REPRO_RESULTS_DIR", "bench_results")
    try:
        os.makedirs(out_dir, exist_ok=True)
        slug = "".join(c if c.isalnum() else "_" for c in title.split("(")[0]).strip("_")
        with open(os.path.join(out_dir, f"{slug}.txt"), "w") as f:
            f.write(text + "\n")
    except OSError:
        pass  # printing is the contract; the artifact is best-effort
