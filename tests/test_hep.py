"""HEP's one pipeline: both in-memory phases (NE++ and the §5.4 NE
baseline) feed the same streaming and concatenation tail."""
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.common import check_valid
from repro.core.hep import partition_hep
from repro.graphs.csr import build_pruned_csr
from repro.graphs.generators import EdgeList

from .conftest import path_graph, tiny_graph

INMEM = ("nepp", "ne")

# SHA-256 of assignment bytes then replicas bytes, recorded from the
# separate HEP and simple-hybrid modules that ``inmem`` replaced:
# (HEP, simple hybrid) per (graph, τ, k).
DIGESTS = {
    ("OK", 1.0, 4): (
        "17fca3adb436f15fb5be441753020ab20c1ac77d92cc34fb3b3d635d14ba5bbe",
        "e2e42c27fd58ef85153af230c5d021063d3db771a228bc1b9a2b3f6ac29f7bb6",
    ),
    ("OK", 1.0, 32): (
        "34d4af7f9b19d3e977aea084b0c986e8c86bc34b2132ee8c75a883d697fcacef",
        "72928e7112c118967fdcf67f2e6403eeff1a618dac577464b9c296ce7930a18b",
    ),
    ("OK", 10.0, 4): (
        "c3b3063d87fb35a19e04933b0e1693f2caf537b040d184b9e7eee8fa4f0ba904",
        "1d4c037db5f266f843b8193b611fef7073ea4d63a5302b1070c2117b8599784d",
    ),
    ("OK", 10.0, 32): (
        "5a5bbfe7490df9e5003314fe8bacba841fd6cd47c828b767ee126d76d43b3868",
        "956d83442f23d6c483654947474df14a6407e637aec603a9e84af97fe4c03320",
    ),
    ("IT", 1.0, 4): (
        "6e18bfe8760db91ff971b701839c7e3c4bd45285e927e0178789633150bc0977",
        "ecb7cf04cb84b005691b3d4dea8ef8dd2c6d0bf64f3553903e460c8f843aa1be",
    ),
    ("IT", 1.0, 32): (
        "e19979b81f89fd385c7c4dc227238ace64d00ee155ea4ccb9b986cb46c4b7e81",
        "368f4d56f86d210ceeb56f8c108bbf2e8f7dc0edd9bbbafcbaa28d98e6faff25",
    ),
    ("IT", 10.0, 4): (
        "ce55eabc69239d3bd89204b927badcdc534fc65846dabf2ead49587f3b88ca24",
        "3bc0f126eebdceb8b466e0822b90c5c01d295a50b81e566e26d3659219b7f9d7",
    ),
    ("IT", 10.0, 32): (
        "d4f4cb7251d188eac503328043afc826ec7674ec5d36d2a070604ce2f3ba95dd",
        "0d8773895c1e739a3684635451471e7b595edd3468d0afb6ba82232890750b01",
    ),
}


def _digest(res) -> str:
    h = hashlib.sha256(np.ascontiguousarray(res.assignment, dtype=np.int64).tobytes())
    h.update(np.ascontiguousarray(res.replicas, dtype=bool).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("name, tau, k", sorted(DIGESTS))
def test_output_pinned(name, tau, k):
    el = tiny_graph(name)
    want_hep, want_simple = DIGESTS[name, tau, k]
    assert _digest(partition_hep(el, k=k, tau=tau)) == want_hep
    simple = partition_hep(el, k=k, tau=tau, inmem="ne", streaming_method="random")
    assert _digest(simple) == want_simple


def test_unknown_inmem_rejected():
    with pytest.raises(ValueError, match="unknown inmem"):
        partition_hep(tiny_graph("OK"), k=4, tau=1.0, inmem="sne")


def test_csr_with_ne_rejected():
    el = tiny_graph("OK")
    with pytest.raises(ValueError, match="csr="):
        partition_hep(el, k=4, tau=1.0, inmem="ne", csr=build_pruned_csr(el, tau=1.0))


def _edges(pairs, n):
    return EdgeList(edges=np.array(pairs, dtype=np.uint32).reshape(-1, 2), n=n)


@pytest.mark.parametrize("inmem", INMEM)
@pytest.mark.parametrize(
    "pairs", [[[0, 1], [1, 2], [0, 1], [2, 3]], [[0, 1], [1, 2], [1, 0]]], ids=["same", "reversed"]
)
def test_duplicate_edges_rejected(inmem, pairs):
    with pytest.raises(ValueError, match="duplicate"):
        partition_hep(_edges(pairs, 4), k=2, tau=100.0, inmem=inmem)


@pytest.mark.parametrize("inmem", INMEM)
def test_self_loop_rejected(inmem):
    with pytest.raises(ValueError, match="self-loop"):
        partition_hep(_edges([[0, 1], [1, 1]], 2), k=2, tau=100.0, inmem=inmem)


@pytest.mark.parametrize("inmem", INMEM)
@pytest.mark.parametrize("bad", [3, 2**32 - 1])
def test_id_out_of_range_rejected(inmem, bad):
    with pytest.raises(ValueError, match="vertex id"):
        partition_hep(_edges([[0, 1], [1, bad]], 3), k=2, tau=100.0, inmem=inmem)


@pytest.mark.parametrize("inmem", INMEM)
@pytest.mark.parametrize("n", [0, 5])
def test_empty_graph(inmem, n):
    el = _edges([], n)
    res = partition_hep(el, k=4, tau=1.0, inmem=inmem)
    check_valid(el, res, alpha=1.05)
    assert res.replicas.shape == (4, n) and not res.replicas.any()


@pytest.mark.parametrize("inmem", INMEM)
@pytest.mark.parametrize("tau", [100.0, 1.0, 0.1])
def test_more_partitions_than_edges(inmem, tau):
    el = path_graph(4)  # 3 edges
    res = partition_hep(el, k=8, tau=tau, inmem=inmem)
    check_valid(el, res, alpha=1.05)
    assert not (res.covered() & ~res.replicas).any()


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_contract_enforced_on_raw_edge_lists(data):
    """Raw edge lists, self-loops and repeated pairs included: HEP
    either rejects the input or returns a valid partitioning, and it
    rejects exactly the inputs that break the contract."""
    n = data.draw(st.integers(1, 8), label="n")
    pairs = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=20))
    el = _edges(pairs, n)
    keys = [tuple(sorted(p)) for p in pairs]
    valid = all(a != b for a, b in keys) and len(set(keys)) == len(keys)
    k = data.draw(st.integers(1, 6), label="k")
    tau = data.draw(st.sampled_from([0.1, 1.0, 100.0]), label="tau")
    if not valid:
        with pytest.raises(ValueError):
            partition_hep(el, k=k, tau=tau)
        return
    res = partition_hep(el, k=k, tau=tau)
    check_valid(el, res, alpha=1.05)
