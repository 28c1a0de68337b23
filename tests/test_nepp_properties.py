"""NE++-specific properties: pruning, lazy removal, clean-up, seeds,
capacity adaptation — the §3.2 contributions."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.common import check_valid
from repro.core.hep import partition_hep
from repro.core.ne import partition_ne
from repro.core.nepp import partition_nepp
from repro.graphs.csr import build_pruned_csr
from repro.graphs.generators import EdgeList

from .conftest import TEST_GRAPHS, tiny_graph
from .test_csr import random_edgelist


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_nepp_valid_on_random_graphs(data):
    """Property: lazy edge removal never double-assigns or loses an
    edge, for arbitrary graphs, k and τ (in-memory part + h2h = E)."""
    el = random_edgelist(data.draw)
    k = data.draw(st.integers(min_value=1, max_value=6))
    tau = data.draw(st.sampled_from([0.5, 1.0, 2.0, 100.0]))
    res = partition_hep(el, k=k, tau=tau)
    check_valid(el, res, alpha=2.0)


@pytest.mark.parametrize("name", TEST_GRAPHS)
def test_high_degree_adjacency_never_read(name):
    """The pruned CSR is sufficient: NE++ must never index the column
    array through a high-degree vertex. We verify by construction —
    high vertices have empty lists — plus a paranoid touch-hook check
    that every access lies inside some low vertex's list bounds."""
    el = tiny_graph(name)
    csr = build_pruned_csr(el, tau=1.0)
    low = ~csr.high
    spans = []
    for v in np.flatnonzero(low):
        total = csr.out_size[v] + csr.in_size[v]
        if total:
            spans.append((csr.out_start[v] * 4, (csr.out_start[v] + total) * 4))
    spans.sort()
    accesses = []
    csr.touch = lambda lo, hi: accesses.append((lo, hi))
    partition_nepp(el, k=8, tau=1.0, csr=csr)
    import bisect

    starts = [s for s, _ in spans]
    for lo, hi in accesses:
        i = bisect.bisect_right(starts, lo) - 1
        assert i >= 0 and hi <= spans[i][1], "access outside low-vertex lists"


@pytest.mark.parametrize("name", TEST_GRAPHS)
@pytest.mark.parametrize("k", [8, 32])
def test_cleanup_removes_only_fraction(name, k):
    """Fig. 7's claim: lazy removal touches strictly less of the column
    array than eager removal's 100% (absolute fractions shrink with
    graph scale; the bench re-measures at bench scale)."""
    el = tiny_graph(name)
    res, _ = partition_nepp(el, k=k, tau=10.0)
    frac = res.stats["cleaned_entries"] / max(res.stats["initial_col_entries"], 1)
    assert frac < 0.95, f"cleanup touched {frac:.0%} of the column array"


def test_cleanup_fraction_smaller_on_web_graph():
    """Fig. 7 shape: web graphs (IT) need less clean-up than social
    graphs (OK) — the expansion keeps S_i small on local structure."""
    frac = {}
    for name in ("IT", "OK"):
        res, _ = partition_nepp(tiny_graph(name), k=32, tau=10.0)
        frac[name] = res.stats["cleaned_entries"] / res.stats["initial_col_entries"]
    assert frac["IT"] < frac["OK"]


@pytest.mark.parametrize("name", ["OK", "IT", "TW"])
def test_nepp_quality_matches_ne(name):
    """§5.2: NE++ yields the same partitioning quality as NE (same
    heuristic); allow a modest tolerance for tie-breaking differences."""
    el = tiny_graph(name)
    k = 16
    rf_ne = partition_ne(el, k=k).replication_factor()
    rf_pp = partition_hep(el, k=k, tau=10**9).replication_factor()
    assert rf_pp <= rf_ne * 1.15, (rf_pp, rf_ne)


@pytest.mark.parametrize("name", ["OK", "TW"])
def test_capacity_bound_adapted(name):
    """§3.2.3: NE++ balances the *in-memory* edges — capacity is
    ⌈|E \\ E_h2h|/k⌉, not ⌈|E|/k⌉."""
    el = tiny_graph(name)
    k = 8
    res, _ = partition_nepp(el, k=k, tau=1.0)
    m_inmem = res.stats["m_inmem"]
    assert res.stats["cap"] == -(-m_inmem // k)
    assert res.sizes.max() <= res.stats["cap"] + el.degrees().max()


def test_low_tau_classifies_high_vertices():
    el = tiny_graph("OK")
    res, h2h = partition_nepp(el, k=8, tau=1.0)
    assert res.stats["high_count"] > 0
    assert len(h2h) > 0


def test_tau_monotone_h2h():
    """Lower τ ⇒ more high-degree vertices ⇒ more streamed edges."""
    el = tiny_graph("OK")
    h2h_sizes = [
        len(partition_nepp(el, k=8, tau=t)[1]) for t in (100.0, 2.0, 1.0, 0.5)
    ]
    assert h2h_sizes == sorted(h2h_sizes)


def test_all_partitions_within_cap_plus_spill():
    """Cascading spill keeps every expansion partition at ≤ cap (the
    last may take the remainder)."""
    el = tiny_graph("OK")
    k = 32
    res, _ = partition_nepp(el, k=k, tau=100.0)
    cap = res.stats["cap"]
    assert (res.sizes[:-1] <= cap).all()


def test_hep_streaming_warm_start_used():
    """HEP's streaming phase starts from NE++'s replica state: on a
    graph with h2h edges, informed HDRF must beat uninformed random
    streaming of the same edges (statistically, fixed seed)."""
    el = tiny_graph("OK")
    k = 16
    rf_informed = partition_hep(el, k=k, tau=1.0, streaming_method="hdrf").replication_factor()
    rf_random = partition_hep(el, k=k, tau=1.0, streaming_method="random").replication_factor()
    assert rf_informed <= rf_random


def test_deterministic_given_same_input():
    el = tiny_graph("TW")
    a = partition_hep(el, k=8, tau=10.0)
    b = partition_hep(el, k=8, tau=10.0)
    assert np.array_equal(a.assignment, b.assignment)


def test_single_edge_graph():
    el = EdgeList(edges=np.array([[0, 1]], dtype=np.uint32), n=2)
    res = partition_hep(el, k=4, tau=1.0)
    check_valid(el, res, alpha=4.0)


def test_empty_partitions_allowed_for_tiny_graphs():
    el = EdgeList(edges=np.array([[0, 1], [1, 2]], dtype=np.uint32), n=3)
    res = partition_hep(el, k=8, tau=100.0)
    check_valid(el, res, alpha=8.0)
