"""NE++ — the paper's memory-efficient in-memory partitioner (§3.2).

Differences from the NE baseline (:mod:`repro.core.ne`), per the paper:

* **Pruned CSR** (§3.2.1): adjacency lists of high-degree vertices are
  not stored; high-degree vertices sit *a priori* in every secondary
  set and are never moved to the core ("no expansion via a high-degree
  vertex"), so their lists are never needed.
* **Lazy edge removal** (§3.2.2): edge assignment never mutates the
  column array during expansion; after each partition a clean-up pass
  (Alg. 2) walks only the vertices remaining in S_i and swap-removes
  entries pointing into C ∪ S_i (Theorem 3.1 guarantees core vertices
  are never rescanned, so their stale entries are harmless).
* **Sequential seed search** (§3.2.3): a monotone vertex-id cursor
  replaces NE's randomized retry loop (skipped vertices can never
  become suitable again: the high/core/empty-adjacency conditions are
  permanent).
* **Adapted capacity bound** ``⌈|E \\ E_h2h|/k⌉`` (§3.2.3).
* **Last-partition fast path** (Alg. 3): remaining in-memory edges are
  assigned by a single sweep — out-lists fully, in-lists only for
  high-degree sources (low-low edges are assigned from the src side
  only, avoiding double assignment without any bookkeeping).
* **Spill-over** (Alg. 1, lines 26-28): edges overflowing a full
  partition go to the next partition, whose covered set gains their
  endpoints.
"""
from __future__ import annotations

import heapq

import numpy as np

from ..graphs.csr import CSR, build_pruned_csr
from ..graphs.generators import EdgeList
from .common import PartitionResult


def partition_nepp(
    el: EdgeList,
    *,
    k: int,
    tau: float,
    csr: CSR | None = None,
) -> tuple[PartitionResult, np.ndarray]:
    """Partition the in-memory edge set of ``el`` into ``k`` parts.

    Returns ``(result, h2h)``, the same shape as
    :func:`~repro.graphs.degrees.split_edges_np`: ``result``'s assignment
    covers only the in-memory edges ``E \\ E_h2h``, and ``h2h`` holds
    the external ``E_h2h`` edges for the streaming phase (:mod:`.hep`).
    ``csr`` may be supplied pre-built (e.g. with a paging ``touch``
    hook); it is consumed (mutated by clean-up).
    """
    csr = csr if csr is not None else build_pruned_csr(el, tau=tau)
    n = csr.n
    high = csr.high
    m_inmem = el.m - len(csr.h2h)
    cap = max(1, -(-m_inmem // k))  # ⌈|E \ E_h2h| / k⌉
    initial_entries = csr.col_entries  # before clean-up shrinks lists

    core = np.zeros(n, dtype=bool)
    in_s = np.zeros(n, dtype=bool)  # low vertices in the current S_i
    replicas = np.zeros((k, n), dtype=bool)
    d_ext = np.zeros(n, dtype=np.int64)
    sizes = np.zeros(k, dtype=np.int64)
    a_src: list[np.ndarray] = []
    a_dst: list[np.ndarray] = []
    assigned_total = 0
    cleaned_entries = 0
    seed_ptr = 0

    a_runs: list[tuple[int, int]] = []  # (pid, run length): expanded at the end

    def record(u_arr: np.ndarray, v_arr: np.ndarray, pid: int) -> None:
        nonlocal assigned_total
        if len(u_arr) == 0:
            return
        a_src.append(np.asarray(u_arr, dtype=np.int64))
        a_dst.append(np.asarray(v_arr, dtype=np.int64))
        a_runs.append((pid, len(u_arr)))
        sizes[pid] += len(u_arr)
        assigned_total += len(u_arr)

    def assign_split(v: int, w_out: np.ndarray, w_in: np.ndarray, i: int) -> None:
        """Assign the edges between vertex ``v`` and its already-covered
        neighbors (``w_out`` from v's out-list ⇒ edges (v, w); ``w_in``
        from v's in-list ⇒ edges (w, v)), spilling any overflow beyond
        partition i's capacity onward (Alg. 1 lines 26-28). The spill
        cascades across subsequent partitions so that none exceeds its
        capacity bound — the paper reports perfect edge balance for
        HEP; the last partition absorbs any remainder. Spilled
        endpoints join the covered set of their partition."""
        no, ni = len(w_out), len(w_in)
        if no + ni == 0:
            return
        us = np.empty(no + ni, dtype=np.int64)
        vs = np.empty(no + ni, dtype=np.int64)
        us[:no] = v
        vs[:no] = w_out
        us[no:] = w_in
        vs[no:] = v
        pos, j = 0, i
        while pos < len(us):
            if j >= k - 1:
                j = k - 1
                take = len(us) - pos
            else:
                room = int(cap - sizes[j])
                if room <= 0:
                    j += 1
                    continue
                take = min(room, len(us) - pos)
            seg_u, seg_v = us[pos : pos + take], vs[pos : pos + take]
            record(seg_u, seg_v, j)
            # mark both endpoints replicated on j — this also covers
            # high-degree endpoints, whose a-priori S_i membership is
            # never materialized by the move functions, and spilled
            # endpoints joining S_{i+1}
            replicas[j, seg_u] = True
            replicas[j, seg_v] = True
            pos += take

    for i in range(k - 1):
        if assigned_total >= m_inmem:
            break
        in_s[:] = False
        s_list: list[int] = []
        heap: list[tuple[int, int]] = []

        def move_to_secondary(u: int, i: int = i, s_list=s_list, heap=heap) -> None:
            """Alg. 1 lines 16-28, with high-degree vertices counted as
            members of S_i and capacity-aware spill."""
            in_s[u] = True
            replicas[i, u] = True
            s_list.append(u)
            out_nb = csr.out_neighbors(u)
            in_nb = csr.in_neighbors(u)
            no = len(out_nb)
            nb = np.concatenate([out_nb, in_nb]).astype(np.int64)
            hit = core[nb] | in_s[nb] | high[nb]
            # edges to already-covered neighbors are assigned now; the
            # out-list holds (u, w) edges, the in-list (w, u) edges.
            w_out = nb[:no][hit[:no]]
            w_in = nb[no:][hit[no:]]
            assign_split(u, w_out, w_in, i)
            d_ext[u] = len(nb) - len(w_out) - len(w_in)
            heapq.heappush(heap, (int(d_ext[u]), u))
            # external degrees of low S_i neighbors shrink by one
            w_all = np.concatenate([w_out, w_in])
            upd = w_all[in_s[w_all] & ~core[w_all]]
            if len(upd):
                np.subtract.at(d_ext, upd, 1)
                for wi in upd.tolist():
                    heapq.heappush(heap, (int(d_ext[wi]), wi))

        def move_to_core(v: int, i: int = i) -> None:
            """Alg. 1 lines 12-15. For seeds (never in S_i) the edges to
            a-priori-secondary high-degree neighbors are assigned here,
            since no MoveToSecondary will ever scan the high side."""
            was_in_s = bool(in_s[v])
            core[v] = True
            replicas[i, v] = True
            out_nb = csr.out_neighbors(v)
            in_nb = csr.in_neighbors(v)
            if not was_in_s:
                h_out = out_nb[high[out_nb]].astype(np.int64)
                h_in = in_nb[high[in_nb]].astype(np.int64)
                assign_split(v, h_out, h_in, i)
            nb = np.concatenate([out_nb, in_nb])
            cand = nb[~(core[nb] | in_s[nb] | high[nb])]
            for wi in cand.tolist():
                move_to_secondary(wi)

        while sizes[i] < cap and assigned_total < m_inmem:
            v = -1
            while heap:
                d, u = heapq.heappop(heap)
                if in_s[u] and not core[u] and d == d_ext[u]:
                    v = u
                    break
            if v < 0:
                # Initialization (§3.2.3): sequential seed search.
                while seed_ptr < n and (
                    high[seed_ptr] or core[seed_ptr] or csr.degree(seed_ptr) == 0
                ):
                    seed_ptr += 1
                if seed_ptr >= n:
                    break  # no suitable vertex anywhere: all edges done
                v = seed_ptr
            move_to_core(v)

        # Clean-up (Alg. 2): only vertices still in S_i can be rescanned.
        for u in s_list:
            if core[u]:
                continue
            out_nb = csr.out_neighbors(u)
            in_nb = csr.in_neighbors(u)
            cleaned_entries += csr.remove_neighbors(
                u,
                core[out_nb] | in_s[out_nb] | high[out_nb],
                core[in_nb] | in_s[in_nb] | high[in_nb],
            )

    # Last partition (Alg. 3): sweep low non-core vertices that still
    # hold column entries (the others cannot contribute edges).
    last = k - 1
    nonempty = (csr.out_size + csr.in_size) > 0
    for v in np.flatnonzero(~high & ~core & nonempty).tolist():
        out_nb = csr.out_neighbors(v).astype(np.int64)
        if len(out_nb):
            record(np.full(len(out_nb), v, dtype=np.int64), out_nb, last)
            replicas[last, v] = True
            replicas[last, out_nb] = True
        in_nb = csr.in_neighbors(v).astype(np.int64)
        in_high = in_nb[high[in_nb]]
        if len(in_high):
            record(in_high, np.full(len(in_high), v, dtype=np.int64), last)
            replicas[last, v] = True
            replicas[last, in_high] = True

    if a_src:
        pids = np.repeat(
            np.array([p for p, _ in a_runs], dtype=np.int64),
            np.array([c for _, c in a_runs], dtype=np.int64),
        )
        assignment = np.stack(
            [np.concatenate(a_src), np.concatenate(a_dst), pids], axis=1
        )
    else:
        assignment = np.empty((0, 3), dtype=np.int64)
    return PartitionResult(
        assignment=assignment,
        k=k,
        n=n,
        replicas=replicas,
        stats={
            "m_inmem": m_inmem,
            "cap": cap,
            "cleaned_entries": cleaned_entries,
            "initial_col_entries": initial_entries,
            "high_count": int(high.sum()),
        },
    ), csr.h2h
