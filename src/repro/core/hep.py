"""HEP — Hybrid Edge Partitioner (the paper's system, §3).

Phase 1 partitions ``E \\ E_h2h`` in memory with NE++ (pruned CSR);
phase 2 streams ``E_h2h`` through HDRF, warm-started with the replica
sets and partition loads produced by phase 1 ("informed stateful
streaming", §3.3). ``τ`` is the memory knob: lower τ ⇒ more vertices
classified high-degree ⇒ smaller column array, more edges streamed.

The §5.4 simple hybrid (Fig. 9) is the same pipeline with plain NE in
phase 1 and uninformed random streaming in phase 2:
``partition_hep(el, k=k, tau=tau, inmem="ne", streaming_method="random")``.
"""
from __future__ import annotations

import time

import numpy as np

from ..graphs.csr import CSR
from ..graphs.degrees import high_mask_np, split_edges_np
from ..graphs.generators import EdgeList
from .common import PartitionResult, check_edgelist
from .ne import partition_ne
from .nepp import partition_nepp
from .streaming import StreamState, stream_edges

_INMEM = ("nepp", "ne")


def partition_hep(
    el: EdgeList,
    *,
    k: int,
    tau: float,
    alpha: float = 1.05,
    inmem: str = "nepp",
    streaming_method: str = "hdrf",
    lam: float = 1.1,
    seed: int = 0,
    csr: CSR | None = None,
) -> PartitionResult:
    """Run HEP at threshold ``tau``: in-memory phase, then streaming.

    ``inmem`` picks the phase-1 partitioner of ``E \\ E_h2h``: ``"nepp"``
    (NE++ on the pruned CSR, optionally the pre-built ``csr``) or
    ``"ne"`` (the NE baseline on the split-off rest-subgraph, with its
    full CSR). ``streaming_method`` picks how ``E_h2h`` is streamed,
    warm-started from phase 1 either way. ``"ne"`` with ``"random"`` is
    the §5.4 simple hybrid. Raises ``ValueError`` if ``el`` breaks the
    :class:`EdgeList` contract (see :func:`.common.check_edgelist`).
    """
    check_edgelist(el)
    if inmem not in _INMEM:
        raise ValueError(f"unknown inmem {inmem!r}; expected one of {_INMEM}")
    if csr is not None and inmem == "ne":
        raise ValueError("csr= is a pre-built pruned CSR for NE++; NE builds its own")
    t0 = time.perf_counter()
    if inmem == "nepp":
        part, h2h = partition_nepp(el, k=k, tau=tau, csr=csr)
    else:
        rest, h2h = split_edges_np(el, high_mask_np(el.degrees(), tau))
        # vertex ids are shared with el, so no relabeling is needed
        # (isolated ids simply never appear in the rest-subgraph)
        part = partition_ne(EdgeList(edges=rest.copy(), n=el.n), k=k, seed=seed)
    t1 = time.perf_counter()
    state = StreamState(el.n, k, replicas=part.replicas, sizes=part.sizes)
    cap = max(1, int(np.ceil(alpha * el.m / k)))
    pids = stream_edges(
        h2h,
        state=state,
        degrees=el.degrees(),
        cap=cap,
        method=streaming_method,
        lam=lam,
        seed=seed,
    )
    t2 = time.perf_counter()
    if len(h2h):
        streamed = np.empty((len(h2h), 3), dtype=np.int64)
        streamed[:, 0] = h2h[:, 0]
        streamed[:, 1] = h2h[:, 1]
        streamed[:, 2] = pids
        assignment = np.concatenate([part.assignment, streamed])
    else:
        assignment = part.assignment
    return PartitionResult(
        assignment=assignment,
        k=k,
        n=el.n,
        replicas=state.replicas,
        stats={
            **part.stats,
            "tau": tau,
            "n_h2h": int(len(h2h)),
            "t_inmem_s": t1 - t0,
            "t_stream_s": t2 - t1,
            "streaming_method": streaming_method,
        },
    )
