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

The expansion loop runs on Python scalars: vertex states sit in one
``bytearray`` (free / in S_i / core / high), external degrees and
partition sizes in lists, neighbor lists are read once per visit as
Python lists, and assignment rows go to one interleaved ``array('q')``
that becomes the ``(m, 3)`` assignment without a copy. The per-vertex
cost is thus a few list comprehensions instead of a dozen numpy calls
on ~30-element arrays.
"""

from __future__ import annotations

from array import array
from heapq import heappop, heappush

import numpy as np

from ..graphs.csr import CSR, build_pruned_csr
from ..graphs.generators import EdgeList
from .common import PartitionResult

# vertex states, one byte per vertex
_FREE, _SECONDARY, _CORE, _HIGH = 0, 1, 2, 3


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
    m_inmem = el.m - len(csr.h2h)
    cap = max(1, -(-m_inmem // k))  # ⌈|E \ E_h2h| / k⌉
    initial_entries = csr.col_entries  # before clean-up shrinks lists
    out_of, in_of = csr.out_neighbors, csr.in_neighbors

    # high vertices are a-priori members of every S_i; a vertex in S_i
    # that moves to the core stays _CORE, so "in S_i and not core" is
    # exactly state _SECONDARY
    state = bytearray(csr.high.astype(np.uint8) * _HIGH)
    marked = bytearray(k * n)  # (k, n) replica marks of seeds and S_i moves
    d_ext = [0] * n
    sizes = [0] * k
    rows = array("q")  # flat (src, dst, pid) triples
    assigned_total = 0
    cleaned_entries = 0
    seed_ptr = 0
    # S_i's members in order and its heap of (external degree, vertex)
    # entries, stale ones skipped on pop; rebound for each partition i
    s_list: list[int] = []
    heap: list[tuple[int, int]] = []

    def emit(us: list[int], vs: list[int], pid: int) -> None:
        flat = [pid] * (3 * len(us))
        flat[0::3] = us
        flat[1::3] = vs
        rows.extend(flat)

    def assign_split(v: int, w_out: list[int], w_in: list[int], i: int) -> None:
        """Assign the edges between vertex ``v`` and its already-covered
        neighbors (``w_out`` from v's out-list ⇒ edges (v, w); ``w_in``
        from v's in-list ⇒ edges (w, v)), spilling any overflow beyond
        partition i's capacity onward (Alg. 1 lines 26-28). The spill
        cascades across subsequent partitions so that none exceeds its
        capacity bound — the paper reports perfect edge balance for
        HEP; the last partition absorbs any remainder. Replicas of the
        endpoints (high-degree ones and spilled ones joining S_{i+1}
        included) are taken from the assignment at the end."""
        nonlocal assigned_total
        total = len(w_out) + len(w_in)
        if total == 0:
            return
        us = [v] * len(w_out) + w_in
        vs = w_out + [v] * len(w_in)
        assigned_total += total
        pos, j = 0, i
        while pos < total:
            if j >= k - 1:
                j = k - 1
                take = total - pos
            else:
                room = cap - sizes[j]
                if room <= 0:
                    j += 1
                    continue
                take = min(room, total - pos)
            emit(us[pos : pos + take], vs[pos : pos + take], j)
            sizes[j] += take
            pos += take

    def move_to_secondary(u: int) -> None:
        """Alg. 1 lines 16-28, with high-degree vertices counted as
        members of S_i and capacity-aware spill."""
        state[u] = _SECONDARY
        marked[i * n + u] = 1
        s_list.append(u)
        out_nb = out_of(u).tolist()
        in_nb = in_of(u).tolist()
        # edges to already-covered neighbors are assigned now; the
        # out-list holds (u, w) edges, the in-list (w, u) edges.
        w_out = [w for w in out_nb if state[w]]
        w_in = [w for w in in_nb if state[w]]
        assign_split(u, w_out, w_in, i)
        d_ext[u] = len(out_nb) + len(in_nb) - len(w_out) - len(w_in)
        heappush(heap, (d_ext[u], u))
        # external degrees of S_i neighbors shrink by one
        for w in w_out + w_in:
            if state[w] == _SECONDARY:
                d_ext[w] -= 1
                heappush(heap, (d_ext[w], w))

    def move_to_core(v: int) -> None:
        """Alg. 1 lines 12-15. For seeds (never in S_i) the edges to
        a-priori-secondary high-degree neighbors are assigned here,
        since no MoveToSecondary will ever scan the high side."""
        was_in_s = state[v] == _SECONDARY
        state[v] = _CORE
        marked[i * n + v] = 1
        out_nb = out_of(v).tolist()
        in_nb = in_of(v).tolist()
        if not was_in_s:
            h_out = [w for w in out_nb if state[w] == _HIGH]
            h_in = [w for w in in_nb if state[w] == _HIGH]
            assign_split(v, h_out, h_in, i)
        cand = [w for w in out_nb if not state[w]]
        cand += [w for w in in_nb if not state[w]]
        for w in cand:
            move_to_secondary(w)

    for i in range(k - 1):
        if assigned_total >= m_inmem:
            break
        s_list = []
        heap = []
        while sizes[i] < cap and assigned_total < m_inmem:
            v = -1
            while heap:
                d, u = heappop(heap)
                if state[u] == _SECONDARY and d == d_ext[u]:
                    v = u
                    break
            if v < 0:
                # Initialization (§3.2.3): sequential seed search.
                while seed_ptr < n and (
                    state[seed_ptr] >= _CORE or csr.degree(seed_ptr) == 0
                ):
                    seed_ptr += 1
                if seed_ptr >= n:
                    break  # no suitable vertex anywhere: all edges done
                v = seed_ptr
            move_to_core(v)

        # Clean-up (Alg. 2): only vertices still in S_i can be rescanned;
        # they keep the entries pointing outside C ∪ S_i.
        for u in s_list:
            if state[u] == _CORE:
                continue
            keep_out = [w for w in out_of(u).tolist() if not state[w]]
            keep_in = [w for w in in_of(u).tolist() if not state[w]]
            cleaned_entries += csr.remove_neighbors(u, keep_out, keep_in)
        for u in s_list:
            if state[u] == _SECONDARY:
                state[u] = _FREE

    # Last partition (Alg. 3): sweep low non-core vertices that still
    # hold column entries (the others cannot contribute edges).
    last = k - 1
    nonempty = (csr.out_size + csr.in_size) > 0
    low_open = np.frombuffer(state, dtype=np.uint8) < _CORE
    for v in np.flatnonzero(low_open & nonempty).tolist():
        out_nb = out_of(v).tolist()
        if out_nb:
            emit([v] * len(out_nb), out_nb, last)
        in_high = [w for w in in_of(v).tolist() if state[w] == _HIGH]
        if in_high:
            emit(in_high, [v] * len(in_high), last)

    assignment = np.frombuffer(rows, dtype=np.int64).reshape(-1, 3)
    replicas = np.frombuffer(marked, dtype=bool).reshape(k, n)
    replicas[assignment[:, 2], assignment[:, 0]] = True
    replicas[assignment[:, 2], assignment[:, 1]] = True
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
            "high_count": int(csr.high.sum()),
        },
    ), csr.h2h
