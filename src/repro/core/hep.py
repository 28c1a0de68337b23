"""HEP — Hybrid Edge Partitioner (the paper's system, §3).

Phase 1 partitions ``E \\ E_h2h`` in memory with NE++ (pruned CSR);
phase 2 streams ``E_h2h`` through HDRF, warm-started with the replica
sets and partition loads produced by phase 1 ("informed stateful
streaming", §3.3). ``τ`` is the memory knob: lower τ ⇒ more vertices
classified high-degree ⇒ smaller column array, more edges streamed.
"""
from __future__ import annotations

import time

import numpy as np

from ..graphs.csr import CSR
from ..graphs.generators import EdgeList
from .common import PartitionResult
from .nepp import partition_nepp
from .streaming import StreamState, stream_edges


def partition_hep(
    el: EdgeList,
    *,
    k: int,
    tau: float,
    alpha: float = 1.05,
    streaming_method: str = "hdrf",
    lam: float = 1.1,
    seed: int = 0,
    csr: CSR | None = None,
) -> PartitionResult:
    """Run full HEP (NE++ then informed streaming) at threshold ``tau``.

    ``streaming_method="random"`` degrades phase 2 to uninformed random
    placement — that plus ``use_ne_baseline`` in
    :mod:`.hybrid_baseline` forms the §5.4 ablation.
    """
    t0 = time.perf_counter()
    inmem = partition_nepp(el, k=k, tau=tau, csr=csr)
    t1 = time.perf_counter()
    h2h = inmem.stats["h2h"]
    state = StreamState(el.n, k, replicas=inmem.replicas, sizes=inmem.sizes)
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
        assignment = np.concatenate([inmem.assignment, streamed])
    else:
        assignment = inmem.assignment
    return PartitionResult(
        assignment=assignment,
        k=k,
        n=el.n,
        replicas=state.replicas,
        stats={
            **{s: v for s, v in inmem.stats.items() if s != "h2h"},
            "tau": tau,
            "n_h2h": int(len(h2h)),
            "t_inmem_s": t1 - t0,
            "t_stream_s": t2 - t1,
            "streaming_method": streaming_method,
        },
    )
