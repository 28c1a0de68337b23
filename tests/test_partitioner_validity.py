"""Validity matrix: every partitioner must produce a *valid* edge
partitioning (each edge exactly once, pids in range, balance bound)
on every analog graph for every k — the paper's §2 problem definition.
"""
import numpy as np
import pytest

from repro.core.common import PartitionResult, check_valid
from repro.core.hashing import dbh_np
from repro.core.hep import partition_hep
from repro.core.ne import partition_ne
from repro.core.nepp import partition_nepp
from repro.core.sne import partition_sne
from repro.core.streaming import partition_streaming
from repro.graphs.generators import EdgeList

from .conftest import TEST_GRAPHS, path_graph, star_graph, tiny_graph, two_triangles

KS = (4, 8, 32)


def hep_full(el, k, tau):
    return partition_hep(el, k=k, tau=tau)


PARTITIONERS = {
    "hep-100": lambda el, k: partition_hep(el, k=k, tau=100.0),
    "hep-10": lambda el, k: partition_hep(el, k=k, tau=10.0),
    "hep-1": lambda el, k: partition_hep(el, k=k, tau=1.0),
    "ne": lambda el, k: partition_ne(el, k=k),
    "sne": lambda el, k: partition_sne(el, k=k),
    "hdrf": lambda el, k: partition_streaming(el, k=k, method="hdrf"),
    "greedy": lambda el, k: partition_streaming(el, k=k, method="greedy"),
    "random": lambda el, k: partition_streaming(el, k=k, method="random"),
    "simple-hybrid-1": lambda el, k: partition_hep(
        el, k=k, tau=1.0, inmem="ne", streaming_method="random"
    ),
}

# DBH is stateless hashing: valid but unbalanced by design, so it is
# checked without the α bound.
UNBALANCED = {"dbh": lambda el, k: dbh_np(el, k=k)}


@pytest.mark.parametrize("k", KS)
@pytest.mark.parametrize("name", TEST_GRAPHS)
@pytest.mark.parametrize("pname", sorted(PARTITIONERS))
def test_valid_partitioning(pname, name, k):
    el = tiny_graph(name)
    res = PARTITIONERS[pname](el, k)
    check_valid(el, res, alpha=1.10)


@pytest.mark.parametrize("k", KS)
@pytest.mark.parametrize("name", TEST_GRAPHS)
def test_dbh_valid(name, k):
    el = tiny_graph(name)
    check_valid(el, UNBALANCED["dbh"](el, k))


@pytest.mark.parametrize("pname", sorted(PARTITIONERS))
def test_valid_on_star(pname):
    el = star_graph(12)
    res = PARTITIONERS[pname](el, 2)
    check_valid(el, res, alpha=1.5)


@pytest.mark.parametrize("pname", sorted(PARTITIONERS))
def test_valid_on_path(pname):
    el = path_graph(25)
    res = PARTITIONERS[pname](el, 4)
    check_valid(el, res, alpha=1.5)


@pytest.mark.parametrize("pname", sorted(PARTITIONERS))
def test_valid_on_disconnected(pname):
    """Disconnected components force re-initialization (§3.2.3 case 2)."""
    el = two_triangles()
    res = PARTITIONERS[pname](el, 2)
    check_valid(el, res, alpha=1.5)


@pytest.mark.parametrize("k", KS)
@pytest.mark.parametrize("tau", [100.0, 10.0, 1.0, 0.5])
def test_nepp_plus_h2h_cover_everything(tau, k):
    """NE++'s assignment plus its external h2h edges cover the graph."""
    el = tiny_graph("OK")
    res, h2h = partition_nepp(el, k=k, tau=tau)
    assert res.assignment.shape[0] + len(h2h) == el.m


@pytest.mark.parametrize("pname", sorted(PARTITIONERS) + ["dbh"])
def test_k1_single_partition(pname):
    el = tiny_graph("LJ")
    fn = PARTITIONERS.get(pname, UNBALANCED.get(pname))
    res = fn(el, 1)
    assert (res.assignment[:, 2] == 0).all()
    assert res.assignment.shape[0] == el.m


@pytest.mark.parametrize("pname", ["hep-10", "ne", "hdrf"])
def test_replicas_superset_of_covered(pname):
    """The partitioner-maintained replica sets must cover at least the
    assignment-derived covered sets (they may be slightly larger for
    NE++ because seeds/secondary vertices may end up contributing no
    edge to that partition)."""
    el = tiny_graph("OK")
    res = PARTITIONERS[pname](el, 8)
    cov = res.covered()
    assert (res.replicas | cov == res.replicas).all()


def test_check_valid_empty_graph():
    """An empty edge list with an empty assignment is valid; the pid
    range check must not reduce over zero rows."""
    el = EdgeList(edges=np.empty((0, 2), dtype=np.uint32), n=0)
    res = PartitionResult(assignment=np.empty((0, 3), dtype=np.int64), k=4, n=0)
    check_valid(el, res, alpha=1.05)


def test_check_valid_rejects_pid_out_of_range():
    el = star_graph(3)
    res = partition_streaming(el, k=2)
    res.assignment[0, 2] = 2
    with pytest.raises(AssertionError, match="pid out of range"):
        check_valid(el, res)
