"""DBH / Grid Spark partitioners, oracle-checked end-to-end in DuckDB."""
import numpy as np
import pytest

from repro.core.hashing import _KNUTH, dbh_np, hash_np, partition_dbh, partition_grid
from repro.graphs.generators import to_pandas, to_spark
from repro.oracle import assert_equivalent

from .conftest import tiny_graph

DEGREE_SQL = """
    SELECT v, count(*) AS degree FROM (
        SELECT src AS v FROM edges UNION ALL SELECT dst AS v FROM edges
    ) GROUP BY v
"""


@pytest.mark.parametrize("k", [4, 8, 32])
def test_dbh_oracle(spark, k):
    """Full DBH assignment reproduced independently in DuckDB SQL."""
    el = tiny_graph("OK")
    edges = to_spark(spark, el)
    sql = f"""
        WITH d AS ({DEGREE_SQL})
        SELECT e.src, e.dst,
               CAST((((CASE WHEN ds.degree < dd.degree
                             OR (ds.degree = dd.degree AND e.src < e.dst)
                        THEN e.src ELSE e.dst END) * {_KNUTH})
                     % 4294967296) % {k} AS BIGINT) AS pid
        FROM edges e
        JOIN d ds ON ds.v = e.src JOIN d dd ON dd.v = e.dst
    """
    assert_equivalent(partition_dbh(edges, k=k), sql, edges=to_pandas(el))


@pytest.mark.parametrize("k", [4, 16])
def test_grid_oracle(spark, k):
    el = tiny_graph("TW")
    edges = to_spark(spark, el)
    s = int(round(k**0.5))
    sql = f"""
        SELECT src, dst,
               CAST(((src * {_KNUTH}) % 4294967296) % {s} AS BIGINT) * {s}
             + CAST(((dst * {_KNUTH}) % 4294967296) % {s} AS BIGINT) AS pid
        FROM edges
    """
    assert_equivalent(partition_grid(edges, k=k), sql, edges=to_pandas(el))


def test_grid_requires_square_k(spark):
    el = tiny_graph("TW")
    with pytest.raises(ValueError):
        partition_grid(to_spark(spark, el), k=32)


@pytest.mark.parametrize("k", [8, 32])
def test_dbh_spark_matches_numpy(spark, k):
    el = tiny_graph("WI")
    got = {
        (r["src"], r["dst"]): r["pid"]
        for r in partition_dbh(to_spark(spark, el), k=k).collect()
    }
    res = dbh_np(el, k=k)
    for s, d, p in res.assignment:
        assert got[(s, d)] == p


def test_grid_pids_in_range(spark):
    el = tiny_graph("LJ")
    df = partition_grid(to_spark(spark, el), k=16)
    mx = df.agg({"pid": "max"}).first()[0]
    mn = df.agg({"pid": "min"}).first()[0]
    assert 0 <= mn and mx < 16


def test_grid_constrains_candidates(spark):
    """Grid property: each vertex's edges land in ≤ 2·s−1 partitions."""
    el = tiny_graph("OK")
    k, s = 16, 4
    df = partition_grid(to_spark(spark, el), k=k).toPandas()
    import pandas as pd

    cov = pd.concat(
        [
            df[["src", "pid"]].rename(columns={"src": "v"}),
            df[["dst", "pid"]].rename(columns={"dst": "v"}),
        ]
    ).drop_duplicates()
    per_vertex = cov.groupby("v")["pid"].nunique()
    assert per_vertex.max() <= 2 * s - 1


def test_dbh_hashes_low_degree_endpoint():
    """DBH's point: the low-degree endpoint determines the partition,
    so a hub's edges spread while leaves stay put. On a star, every
    edge hashes by its leaf."""
    from .conftest import star_graph

    el = star_graph(10)
    res = dbh_np(el, k=4)
    leaf_pid = ((np.arange(1, 11) * _KNUTH) % 4294967296) % 4
    assert (res.assignment[:, 2] == leaf_pid[res.assignment[:, 1] - 1]).all()


@pytest.mark.parametrize("k", [1, 3, 32])
def test_hash_np_exact_for_32bit_ids(k):
    """The numpy hash equals exact integer arithmetic up to 2^32 - 1,
    past the ~3.47·10⁹ ids where a signed 64-bit product overflows."""
    ids = np.array([0, 1, 2**21, 3_474_877_000, 3_500_000_000, 2**32 - 2, 2**32 - 1], dtype=np.uint32)
    want = [((int(x) * _KNUTH) % 2**32) % k for x in ids]
    got = hash_np(ids, k)
    assert got.dtype == np.int64
    assert got.tolist() == want
