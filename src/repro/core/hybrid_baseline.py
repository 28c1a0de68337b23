"""Simple hybrid baseline (paper §5.4 / Fig. 9).

Answers "how much of HEP is the *design* vs hybridization per se":
G_REST (edges with ≥1 low-degree endpoint) is partitioned with the
plain **NE** baseline — full CSR, eager bookkeeping — and G_H2H with
**uninformed random streaming**. HEP should beat this on run-time
(NE++ vs NE), memory (pruned CSR) and replication factor (informed
HDRF vs random).
"""
from __future__ import annotations

import time

import numpy as np

from ..graphs.degrees import high_mask_np, split_edges_np
from ..graphs.generators import EdgeList
from .common import PartitionResult
from .ne import partition_ne
from .streaming import StreamState, stream_edges


def partition_simple_hybrid(
    el: EdgeList, *, k: int, tau: float, alpha: float = 1.05, seed: int = 0
) -> PartitionResult:
    """NE on G_REST + random streaming on G_H2H at threshold ``tau``."""
    t0 = time.perf_counter()
    high = high_mask_np(el.degrees().astype(np.int64), tau)
    rest, h2h = split_edges_np(el, high)
    # NE runs on the rest-subgraph; vertex ids are shared with el so no
    # relabeling is needed (isolated ids simply never appear).
    rest_el = EdgeList(edges=rest.copy(), n=el.n)
    inmem = partition_ne(rest_el, k=k, seed=seed)
    t1 = time.perf_counter()
    state = StreamState(el.n, k, replicas=inmem.replicas, sizes=inmem.sizes)
    cap = max(1, int(np.ceil(alpha * el.m / k)))
    pids = stream_edges(
        h2h,
        state=state,
        degrees=el.degrees(),
        cap=cap,
        method="random",
        seed=seed,
    )
    t2 = time.perf_counter()
    if len(h2h):
        streamed = np.empty((len(h2h), 3), dtype=np.int64)
        streamed[:, 0] = h2h[:, 0]
        streamed[:, 1] = h2h[:, 1]
        streamed[:, 2] = pids
        assignment = np.concatenate([inmem.assignment, streamed])
    else:
        assignment = inmem.assignment
    return PartitionResult(
        assignment=assignment,
        k=k,
        n=el.n,
        replicas=state.replicas,
        stats={
            "tau": tau,
            "n_h2h": int(len(h2h)),
            "t_inmem_s": t1 - t0,
            "t_stream_s": t2 - t1,
        },
    )
