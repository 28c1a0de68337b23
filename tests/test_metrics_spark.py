"""Metric DataFrame jobs vs numpy twins and the DuckDB oracle."""
import numpy as np
import pytest

from repro.core.hep import partition_hep
from repro.core.metrics import (
    assignment_to_spark,
    covered_vertices,
    edge_balance,
    edge_balance_np,
    replication_factor,
    vertex_balance,
    vertex_balance_np,
)
from repro.core.streaming import partition_streaming
from repro.oracle import assert_equivalent

from .conftest import star_graph, tiny_graph


def _assignment_pdf(res):
    import pandas as pd

    return pd.DataFrame(
        {
            "src": res.assignment[:, 0],
            "dst": res.assignment[:, 1],
            "pid": res.assignment[:, 2],
        }
    )


@pytest.fixture(scope="module")
def hep_result():
    return partition_hep(tiny_graph("OK"), k=8, tau=2.0)


def test_covered_vertices_oracle(spark, hep_result):
    adf = assignment_to_spark(spark, hep_result)
    sql = """
        SELECT DISTINCT pid, v FROM (
            SELECT pid, src AS v FROM a UNION ALL SELECT pid, dst AS v FROM a
        )
    """
    assert_equivalent(covered_vertices(adf), sql, a=_assignment_pdf(hep_result))


def test_replication_factor_spark_vs_np(spark, hep_result):
    adf = assignment_to_spark(spark, hep_result)
    assert replication_factor(adf) == pytest.approx(hep_result.replication_factor())


def test_edge_balance_spark_vs_np(spark, hep_result):
    adf = assignment_to_spark(spark, hep_result)
    assert edge_balance(adf, k=8) == pytest.approx(edge_balance_np(hep_result))


def test_vertex_balance_spark_vs_np(spark, hep_result):
    adf = assignment_to_spark(spark, hep_result)
    assert vertex_balance(adf) == pytest.approx(
        vertex_balance_np(hep_result), rel=1e-6
    )


def test_star_graph_rf_hand_computed(spark):
    """Paper Fig. 1: star split across 2 partitions ⇒ only the hub is
    replicated twice ⇒ RF = (n_leaves + 2) / (n_leaves + 1)."""
    el = star_graph(6)
    res = partition_streaming(el, k=2, method="hdrf", alpha=1.4)
    if len(np.unique(res.assignment[:, 2])) == 2:
        adf = assignment_to_spark(spark, res)
        assert replication_factor(adf) == pytest.approx(8 / 7)


def test_rf_lower_bound_one(spark, hep_result):
    adf = assignment_to_spark(spark, hep_result)
    assert replication_factor(adf) >= 1.0


def test_sizes_oracle(spark, hep_result):
    adf = assignment_to_spark(spark, hep_result)
    sizes = adf.groupBy("pid").count()
    assert_equivalent(
        sizes,
        "SELECT pid, count(*) AS count FROM a GROUP BY pid",
        a=_assignment_pdf(hep_result),
    )
