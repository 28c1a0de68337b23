"""Unit + property tests for the CSR / pruned-CSR substrate (§3.2.1)."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs.csr import build_csr, build_pruned_csr
from repro.graphs.degrees import high_mask_np
from repro.graphs.generators import EdgeList, _dedup_compact

from .conftest import TEST_GRAPHS, star_graph, tiny_graph


def random_edgelist(draw) -> EdgeList:
    n = draw(st.integers(min_value=2, max_value=40))
    m = draw(st.integers(min_value=1, max_value=120))
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    src = rng.integers(0, n, m).astype(np.uint64)
    dst = rng.integers(0, n, m).astype(np.uint64)
    el = _dedup_compact(src, dst)
    if el.m == 0:
        el = EdgeList(edges=np.array([[0, 1]], dtype=np.uint32), n=2)
    return el


def _csr_edge_set(csr):
    """Reconstruct the directed edge set from out-lists (src-side)."""
    out = []
    for v in range(csr.n):
        for u in csr.out_neighbors(v):
            out.append((v, int(u)))
    return out


def _pair_set(edges):
    return {tuple(sorted((int(a), int(b)))) for a, b in edges}


@pytest.mark.parametrize("name", TEST_GRAPHS)
def test_full_csr_roundtrip(name):
    el = tiny_graph(name)
    csr = build_csr(el)
    got = _csr_edge_set(csr)
    want = [(int(a), int(b)) for a, b in el.edges]
    assert sorted(got) == sorted(want)


@pytest.mark.parametrize("name", TEST_GRAPHS)
def test_full_csr_in_lists_mirror_out_lists(name):
    el = tiny_graph(name)
    csr = build_csr(el)
    ins = []
    for v in range(csr.n):
        for u in csr.in_neighbors(v):
            ins.append((int(u), v))
    assert sorted(ins) == sorted((int(a), int(b)) for a, b in el.edges)


@pytest.mark.parametrize("name", TEST_GRAPHS)
def test_full_csr_degrees(name):
    el = tiny_graph(name)
    csr = build_csr(el)
    deg = el.degrees()
    for v in range(el.n):
        assert csr.degree(v) == deg[v]


@pytest.mark.parametrize("name", TEST_GRAPHS)
@pytest.mark.parametrize("tau", [1.0, 2.0, 10.0])
def test_pruned_csr_partitions_edge_set(name, tau):
    """Pruned column array (out-lists) + h2h file together cover every
    edge exactly once."""
    el = tiny_graph(name)
    csr = build_pruned_csr(el, tau=tau)
    covered = _pair_set(csr.h2h)
    # an edge survives in the low src's out-list or, if src is high,
    # only in the low dst's in-list
    for v in range(csr.n):
        for u in csr.out_neighbors(v):
            covered.add(tuple(sorted((v, int(u)))))
        for u in csr.in_neighbors(v):
            if csr.high[int(u)]:
                covered.add(tuple(sorted((v, int(u)))))
    assert covered == _pair_set(el.edges)


@pytest.mark.parametrize("name", TEST_GRAPHS)
@pytest.mark.parametrize("tau", [1.0, 2.0])
def test_pruned_csr_high_vertices_have_no_lists(name, tau):
    el = tiny_graph(name)
    csr = build_pruned_csr(el, tau=tau)
    for v in np.flatnonzero(csr.high):
        assert csr.out_size[v] == 0 and csr.in_size[v] == 0


@pytest.mark.parametrize("name", TEST_GRAPHS)
def test_pruned_csr_smaller_at_lower_tau(name):
    """Lower τ ⇒ more pruning ⇒ fewer column entries (the memory knob)."""
    el = tiny_graph(name)
    sizes = [
        build_pruned_csr(el, tau=t).col_entries for t in (100.0, 2.0, 1.0, 0.5)
    ]
    assert sizes == sorted(sizes, reverse=True)


@pytest.mark.parametrize("name", TEST_GRAPHS)
def test_pruned_h2h_matches_mask(name):
    el = tiny_graph(name)
    tau = 1.0
    csr = build_pruned_csr(el, tau=tau)
    high = high_mask_np(el.degrees().astype(np.int64), tau)
    want = el.edges[high[el.edges[:, 0]] & high[el.edges[:, 1]]]
    assert _pair_set(csr.h2h) == _pair_set(want)
    assert np.array_equal(csr.high, high)


def test_star_graph_pruning():
    """In a star, the hub is high-degree at τ=1; all edges are hub-leaf
    so nothing is h2h and each leaf keeps the edge on its side."""
    el = star_graph(6)
    csr = build_pruned_csr(el, tau=1.0)
    assert csr.high[0]
    assert not csr.high[1:].any()
    assert len(csr.h2h) == 0
    assert csr.col_entries == 6  # one entry per leaf


def test_remove_neighbors_swap_removal():
    el = star_graph(4)  # hub 0 with leaves 1..4
    csr = build_csr(el, with_eids=False)
    nb = csr.out_neighbors(0).tolist()
    assert sorted(nb) == [1, 2, 3, 4]
    keep = [nb[1], nb[3]]  # drop entries 0 and 2
    removed = csr.remove_neighbors(0, keep, [])
    assert removed == 2
    assert csr.out_size[0] == 2
    assert len(csr.out_neighbors(0)) == 2
    assert csr.out_neighbors(0).tolist() == keep


def test_touch_hook_fires_on_access():
    el = tiny_graph("OK")
    csr = build_csr(el, with_eids=False)
    calls = []
    csr.touch = lambda lo, hi: calls.append((lo, hi))
    csr.out_neighbors(0)
    csr.in_neighbors(0)
    assert calls, "touch hook did not fire"
    for lo, hi in calls:
        assert 0 <= lo < hi <= len(csr.col) * 4


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_pruned_csr_covers_random_graphs(data):
    """Property: pruning never loses or duplicates an edge."""
    el = random_edgelist(data.draw)
    tau = data.draw(st.sampled_from([0.5, 1.0, 2.0, 10.0]))
    csr = build_pruned_csr(el, tau=tau)
    stored = set()
    for v in range(csr.n):
        for u in csr.out_neighbors(v):
            stored.add(tuple(sorted((v, int(u)))))
        for u in csr.in_neighbors(v):
            stored.add(tuple(sorted((v, int(u)))))
    h2h = _pair_set(csr.h2h)
    assert stored | h2h == _pair_set(el.edges)
    assert not (stored & h2h), "edge both in column array and h2h file"
    # storage multiplicity: once per low endpoint side
    high = csr.high
    for a, b in el.edges:
        mult = int(not high[int(a)]) + int(not high[int(b)])
        if mult == 0:
            assert tuple(sorted((int(a), int(b)))) in h2h
