"""Spark degree pipeline + τ split, oracle-checked against DuckDB."""
import numpy as np
import pytest
from pyspark.sql import functions as F

from repro.graphs.degrees import (
    degrees_df,
    high_mask_np,
    high_vertices,
    mean_degree,
    split_edges,
    split_edges_np,
)
from repro.graphs.generators import to_pandas, to_spark
from repro.oracle import assert_equivalent

from .conftest import tiny_graph

DEGREE_SQL = """
    SELECT v, count(*) AS degree FROM (
        SELECT src AS v FROM edges UNION ALL SELECT dst AS v FROM edges
    ) GROUP BY v
"""


@pytest.mark.parametrize("name", ["OK", "IT"])
def test_degrees_oracle(spark, name):
    el = tiny_graph(name)
    edges = to_spark(spark, el)
    assert_equivalent(degrees_df(edges), DEGREE_SQL, edges=to_pandas(el))


@pytest.mark.parametrize("name", ["OK", "WI"])
def test_degrees_match_numpy(spark, name):
    el = tiny_graph(name)
    deg_np = el.degrees()
    rows = degrees_df(to_spark(spark, el)).collect()
    for r in rows:
        assert deg_np[r["v"]] == r["degree"]
    assert len(rows) == int((deg_np > 0).sum())


def test_mean_degree_matches_numpy(spark):
    el = tiny_graph("OK")
    m_spark = mean_degree(degrees_df(to_spark(spark, el)))
    deg = el.degrees()
    assert m_spark == pytest.approx(deg[deg > 0].mean())


@pytest.mark.parametrize("tau", [1.0, 2.0])
def test_high_vertices_oracle(spark, tau):
    el = tiny_graph("OK")
    edges = to_spark(spark, el)
    deg = degrees_df(edges)
    thresh = tau * mean_degree(deg)
    sql = f"""
        SELECT v FROM ({DEGREE_SQL}) WHERE degree > {thresh!r}
    """
    assert_equivalent(high_vertices(deg, tau), sql, edges=to_pandas(el))


@pytest.mark.parametrize("tau", [1.0, 2.0, 10.0])
def test_split_matches_numpy(spark, tau):
    el = tiny_graph("TW")
    edges = to_spark(spark, el)
    high = high_vertices(degrees_df(edges), tau)
    inmem, h2h = split_edges(edges, high)
    mask = high_mask_np(el.degrees(), tau)
    inmem_np, h2h_np = split_edges_np(el, mask)
    assert inmem.count() == len(inmem_np)
    assert h2h.count() == len(h2h_np)
    got = {(r["src"], r["dst"]) for r in h2h.collect()}
    want = {(int(a), int(b)) for a, b in h2h_np}
    assert got == want


def test_split_is_partition_of_edges(spark):
    el = tiny_graph("OK")
    edges = to_spark(spark, el)
    high = high_vertices(degrees_df(edges), 1.0)
    inmem, h2h = split_edges(edges, high)
    assert inmem.count() + h2h.count() == el.m
    assert inmem.intersect(h2h).count() == 0


def test_h2h_oracle_via_join(spark):
    """The h2h split expressed independently in DuckDB SQL."""
    el = tiny_graph("OK")
    edges = to_spark(spark, el)
    deg = degrees_df(edges)
    tau = 1.0
    thresh = tau * mean_degree(deg)
    _, h2h = split_edges(edges, high_vertices(deg, tau))
    sql = f"""
        WITH d AS ({DEGREE_SQL})
        SELECT e.src, e.dst FROM edges e
        JOIN d ds ON ds.v = e.src JOIN d dd ON dd.v = e.dst
        WHERE ds.degree > {thresh!r} AND dd.degree > {thresh!r}
    """
    assert_equivalent(h2h, sql, edges=to_pandas(el))


def test_high_mask_threshold_strict(spark):
    """d(v) > τ·∅_d is strict: a vertex exactly at the mean is low at
    τ=1 (star-free regular graph ⇒ nothing high)."""
    import numpy as np

    from repro.graphs.generators import EdgeList

    cyc = EdgeList(
        edges=np.array([[i, (i + 1) % 5] for i in range(5)], dtype=np.uint32), n=5
    )
    assert not high_mask_np(cyc.degrees(), 1.0).any()
