"""Streaming partitioner unit tests (HDRF / Greedy / random, §3.3)."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.hep import partition_hep
from repro.core.nepp import partition_nepp
from repro.core.streaming import StreamState, partition_streaming, stream_edges
from repro.graphs.generators import rmat

from .conftest import star_graph, tiny_graph

METHODS = ("hdrf", "greedy", "random")


def _reference_stream_edges(edges, *, state, degrees, cap, method="hdrf", lam=1.1, seed=0):
    """The numpy per-edge loop that ``stream_edges`` replaced, frozen as
    the exact-match reference: every partition is scored with length-k
    array operations on each edge."""
    replicas, sizes = state.replicas, state.sizes
    pids = np.empty(len(edges), dtype=np.int64)
    rng = np.random.default_rng(seed)
    deg = degrees.astype(np.float64)

    def choose_balanced(cands):
        return int(cands[np.argmin(sizes[cands])])

    for idx in range(len(edges)):
        u = int(edges[idx, 0])
        v = int(edges[idx, 1])
        open_ = sizes < cap
        if not open_.any():
            open_ = sizes == sizes.min()
        if method == "hdrf":
            du, dv = deg[u], deg[v]
            tot = du + dv
            theta_u = du / tot if tot else 0.5
            c_rep = replicas[:, u] * (2.0 - theta_u) + replicas[:, v] * (1.0 + theta_u)
            mx, mn = sizes.max(), sizes.min()
            c_bal = lam * (mx - sizes) / (1.0 + mx - mn)
            score = np.where(open_, c_rep + c_bal, -np.inf)
            p = choose_balanced(np.flatnonzero(score == score.max()))
        elif method == "greedy":
            au = replicas[:, u] & open_
            av = replicas[:, v] & open_
            both = au & av
            if both.any():
                p = choose_balanced(np.flatnonzero(both))
            elif (au | av).any():
                p = choose_balanced(np.flatnonzero(au | av))
            else:
                p = choose_balanced(np.flatnonzero(open_))
        else:
            cands = np.flatnonzero(open_)
            p = int(cands[rng.integers(0, len(cands))])
        pids[idx] = p
        replicas[p, u] = True
        replicas[p, v] = True
        sizes[p] += 1
    return pids


def assert_matches_reference(edges, n, k, degrees, cap, method, *, replicas=None, sizes=None, **kw):
    """``stream_edges`` and the reference give the same pids, replicas
    and sizes from the same (optionally warm) start state."""
    runs = []
    for fn in (stream_edges, _reference_stream_edges):
        state = StreamState(
            n,
            k,
            replicas=None if replicas is None else replicas.copy(),
            sizes=sizes,
        )
        pids = fn(edges, state=state, degrees=degrees, cap=cap, method=method, **kw)
        runs.append((pids, state))
    (got, s_got), (want, s_want) = runs
    assert np.array_equal(got, want)
    assert np.array_equal(s_got.replicas, s_want.replicas)
    assert s_got.sizes.dtype == np.int64
    assert np.array_equal(s_got.sizes, s_want.sizes)


def test_hdrf_beats_random_quality():
    el = tiny_graph("OK")
    rf_h = partition_streaming(el, k=16, method="hdrf").replication_factor()
    rf_r = partition_streaming(el, k=16, method="random").replication_factor()
    assert rf_h < rf_r


def test_greedy_beats_random_quality():
    el = tiny_graph("OK")
    rf_g = partition_streaming(el, k=16, method="greedy").replication_factor()
    rf_r = partition_streaming(el, k=16, method="random").replication_factor()
    assert rf_g < rf_r


def test_hdrf_respects_capacity():
    el = tiny_graph("TW")
    alpha = 1.05
    res = partition_streaming(el, k=8, method="hdrf", alpha=alpha)
    assert res.sizes.max() <= np.ceil(alpha * el.m / 8)


def test_hdrf_deterministic():
    el = tiny_graph("LJ")
    a = partition_streaming(el, k=8, method="hdrf")
    b = partition_streaming(el, k=8, method="hdrf")
    assert np.array_equal(a.assignment, b.assignment)


def test_random_seed_changes_assignment():
    el = tiny_graph("LJ")
    a = partition_streaming(el, k=8, method="random", seed=1)
    b = partition_streaming(el, k=8, method="random", seed=2)
    assert not np.array_equal(a.assignment[:, 2], b.assignment[:, 2])


def test_unknown_method_raises():
    el = star_graph(3)
    with pytest.raises(ValueError):
        partition_streaming(el, k=2, method="nope")


def test_replicas_match_assignment_coverage():
    """For pure streaming the replica sets equal the covered sets."""
    el = tiny_graph("WI")
    res = partition_streaming(el, k=8, method="hdrf")
    assert np.array_equal(res.replicas, res.covered())


def test_warm_start_attracts_edges():
    """An edge whose endpoints are already replicated on partition 0
    must be assigned there by HDRF when loads are level."""
    state = StreamState(n=4, k=3)
    state.replicas[0, 1] = True
    state.replicas[0, 2] = True
    degrees = np.array([1, 2, 2, 1])
    pids = stream_edges(
        np.array([[1, 2]]), state=state, degrees=degrees, cap=10, method="hdrf"
    )
    assert pids[0] == 0


def test_hdrf_balance_term_spreads_load():
    """With no replication signal, HDRF must spread edges (balance term
    dominates): a stream of disjoint edges lands on distinct partitions."""
    state = StreamState(n=8, k=4)
    edges = np.array([[0, 1], [2, 3], [4, 5], [6, 7]])
    degrees = np.ones(8)
    pids = stream_edges(edges, state=state, degrees=degrees, cap=10, method="hdrf")
    assert len(set(pids.tolist())) == 4


def test_capacity_overflow_fallback():
    """When every partition is at cap, the least-loaded one is used
    rather than dropping the edge."""
    el = star_graph(10)
    res = partition_streaming(el, k=3, method="hdrf", alpha=1.0)
    assert res.assignment.shape[0] == el.m


def test_stream_state_shared_mutation():
    state = StreamState(n=4, k=2)
    stream_edges(
        np.array([[0, 1]]), state=state, degrees=np.ones(4), cap=5, method="hdrf"
    )
    assert state.sizes.sum() == 1
    assert state.replicas.any()


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("k", [1, 3, 32, 64])
@pytest.mark.parametrize("name", ["OK", "IT"])
def test_matches_reference_cold(name, k, method):
    el = tiny_graph(name)
    cap = max(1, int(np.ceil(1.05 * el.m / k)))
    assert_matches_reference(el.edges, el.n, k, el.degrees(), cap, method, seed=7)


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("tau", [1.0, 10.0])
@pytest.mark.parametrize("name", ["OK", "TW"])
def test_matches_reference_warm_from_nepp(name, tau, method):
    """HEP's hand-off: NE++'s replica sets and loads warm the stream.
    At scale 0.05 both graphs have h2h edges at τ=10 as well."""
    el = tiny_graph(name, scale=0.05)
    k = 16
    inmem, h2h = partition_nepp(el, k=k, tau=tau)
    assert len(h2h) > 0
    cap = max(1, int(np.ceil(1.05 * el.m / k)))
    assert_matches_reference(
        h2h, el.n, k, el.degrees(), cap, method, replicas=inmem.replicas, sizes=inmem.sizes, seed=3
    )


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("cap", [1, 3])
def test_matches_reference_all_full_fallback(method, cap):
    """α=1.0 with ⌊|E|/k⌋ slots per partition (and fewer) runs out of
    room: once every partition is at cap the least-loaded ones are the
    candidates."""
    el = star_graph(10)
    assert_matches_reference(el.edges, el.n, 3, el.degrees(), cap, method, seed=1)


@pytest.mark.parametrize("method", METHODS)
def test_matches_reference_zero_degree_endpoints(method):
    """Degrees of 0 on both endpoints make θ=0.5 (tot == 0)."""
    edges = np.array([[0, 1], [2, 3], [0, 1], [1, 2], [4, 5]], dtype=np.uint32)
    degrees = np.array([0, 0, 0, 0, 3, 1])
    assert_matches_reference(edges, 6, 3, degrees, 10, method)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_matches_reference_random_streams(data):
    n = data.draw(st.integers(1, 12), label="n")
    k = data.draw(st.integers(1, 70), label="k")
    m = data.draw(st.integers(0, 40), label="m")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="state_seed"))
    edges = rng.integers(0, n, size=(m, 2)).astype(np.uint32)
    warm = data.draw(st.booleans(), label="warm")
    replicas = rng.random((k, n)) < 0.3 if warm else None
    sizes = rng.integers(0, 6, size=k) if warm else None
    assert_matches_reference(
        edges,
        n,
        k,
        rng.integers(0, 4, size=n),
        data.draw(st.integers(0, 10), label="cap"),
        data.draw(st.sampled_from(METHODS), label="method"),
        replicas=replicas,
        sizes=sizes,
        lam=data.draw(st.sampled_from([0.0, 0.5, 1.1, 4.0]), label="lam"),
        seed=data.draw(st.integers(0, 100), label="seed"),
    )


def test_bad_method_rejected_without_edges():
    state = StreamState(n=2, k=2)
    with pytest.raises(ValueError, match="unknown streaming method"):
        stream_edges(
            np.empty((0, 2), dtype=np.uint32), state=state, degrees=np.zeros(2), cap=1, method="nope"
        )


def test_negative_lam_rejected():
    state = StreamState(n=2, k=2)
    with pytest.raises(ValueError, match="lam"):
        stream_edges(np.array([[0, 1]]), state=state, degrees=np.ones(2), cap=1, lam=-0.1)


def test_hep_rejects_bad_method_with_no_h2h_edges():
    """At τ=100 this graph has no high-degree vertex, so nothing is
    streamed; the method is still checked."""
    el = rmat(scale=8, n_edges=500)
    assert len(partition_nepp(el, k=4, tau=100)[1]) == 0
    with pytest.raises(ValueError, match="unknown streaming method"):
        partition_hep(el, k=4, tau=100, streaming_method="nope")
