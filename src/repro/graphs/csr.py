"""CSR graph representation used by the partitioner cores (paper §3.2.1).

Per the paper, the column array stores each vertex's adjacency as a
contiguous block: the *out-list* (edges where the vertex is the
left-hand ``src`` in the input edge list) followed by the *in-list*
(edges where it is ``dst``). Two index arrays locate the two lists, and
per-list *size fields* track the number of valid entries so that lazy
edge removal can swap-delete an entry in O(1) (Alg. 2).

Two build modes:

* :func:`build_csr` — full graph, plus a parallel edge-id array and an
  edge-validity bitmap for the NE *baseline*'s eager bookkeeping (the
  auxiliary structure the paper criticizes, §3.2.2).
* :func:`build_pruned_csr` — NE++'s pruned representation: adjacency
  lists of high-degree vertices (``d(v) > τ·∅_d``) are omitted, and
  edges between two high-degree vertices are written to the external
  ``h2h`` array instead (they are streamed later).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .degrees import high_mask_np
from .generators import EdgeList

ID_BYTES = 4  # b_id in the paper's memory model (32-bit vertex ids)


@dataclass
class CSR:
    """Mutable CSR with separated out/in lists and swap-removal support."""

    n: int
    out_start: np.ndarray  # (n,) int64 — start of v's out-list in col
    out_size: np.ndarray  # (n,) int64 — valid entries in v's out-list
    in_start: np.ndarray  # (n,) int64
    in_size: np.ndarray  # (n,) int64
    col: np.ndarray  # (2·|E_inmem_sides|,) uint32 neighbor ids
    high: np.ndarray  # (n,) bool — high-degree mask (all False when full)
    h2h: np.ndarray  # (m2, 2) uint32 — external high-high edges
    col_eid: np.ndarray | None = None  # parallel edge ids (full CSR only)
    # paging instrumentation: called with (byte_lo, byte_hi) on every
    # contiguous column-array access; None → zero overhead.
    touch: object = field(default=None, repr=False)

    def degree(self, v: int) -> int:
        """Current (valid) stored degree of v."""
        return int(self.out_size[v] + self.in_size[v])

    def out_neighbors(self, v: int) -> np.ndarray:
        s = self.out_start[v]
        e = s + self.out_size[v]
        if self.touch is not None and e > s:
            self.touch(int(s) * ID_BYTES, int(e) * ID_BYTES)
        return self.col[s:e]

    def in_neighbors(self, v: int) -> np.ndarray:
        s = self.in_start[v]
        e = s + self.in_size[v]
        if self.touch is not None and e > s:
            self.touch(int(s) * ID_BYTES, int(e) * ID_BYTES)
        return self.col[s:e]

    def remove_neighbors(self, v: int, keep_out: list[int], keep_in: list[int]) -> int:
        """Shrink v's lists to the ``keep_*`` entries; returns the count removed.

        ``keep_out``/``keep_in`` are the entries of v's *current valid*
        out/in lists to keep, in list order. Compaction (write the kept
        entries to the front, shrink the size) is equivalent to repeated
        swap-with-last + size decrement and keeps the cost linear in the
        list length, as in the paper.
        """
        removed = 0
        for start, size, keep in (
            (self.out_start, self.out_size, keep_out),
            (self.in_start, self.in_size, keep_in),
        ):
            sz = int(size[v])
            if len(keep) < sz:
                s = start[v]
                self.col[s : s + len(keep)] = keep
                size[v] = len(keep)
                removed += sz - len(keep)
        return removed

    @property
    def col_entries(self) -> int:
        """Total currently-valid column-array entries."""
        return int(self.out_size.sum() + self.in_size.sum())


def _fill_lists(
    n: int, src: np.ndarray, dst: np.ndarray, eid: np.ndarray | None
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray | None]:
    """Build (out_start, out_size, in_start, in_size, col, col_eid).

    The out-list of each vertex is filled from (src→dst) edges sorted by
    src; the in-list from (dst→src) sorted by dst. Out and in segments
    of a vertex are adjacent in ``col``.
    """
    out_deg = np.bincount(src, minlength=n).astype(np.int64)
    in_deg = np.bincount(dst, minlength=n).astype(np.int64)
    total = out_deg + in_deg
    starts = np.concatenate([[0], np.cumsum(total)])[:-1]
    out_start = starts
    in_start = starts + out_deg
    col = np.zeros(int(total.sum()), dtype=np.uint32)
    col_eid = np.zeros(int(total.sum()), dtype=np.int64) if eid is not None else None

    o = np.argsort(src, kind="stable")
    pos = out_start[src[o]] + _rank_within_group(src[o])
    col[pos] = dst[o]
    if col_eid is not None:
        col_eid[pos] = eid[o]

    o = np.argsort(dst, kind="stable")
    pos = in_start[dst[o]] + _rank_within_group(dst[o])
    col[pos] = src[o]
    if col_eid is not None:
        col_eid[pos] = eid[o]
    return out_start, out_deg.copy(), in_start, in_deg.copy(), col, col_eid


def _rank_within_group(sorted_keys: np.ndarray) -> np.ndarray:
    """0,1,2,... within each run of equal values in a sorted key array."""
    if len(sorted_keys) == 0:
        return np.zeros(0, dtype=np.int64)
    idx = np.arange(len(sorted_keys), dtype=np.int64)
    new_group = np.concatenate([[True], sorted_keys[1:] != sorted_keys[:-1]])
    group_start = np.maximum.accumulate(np.where(new_group, idx, 0))
    return idx - group_start


def build_csr(el: EdgeList, *, with_eids: bool = True) -> CSR:
    """Full CSR over all edges (the NE baseline's representation)."""
    src = el.edges[:, 0].astype(np.int64)
    dst = el.edges[:, 1].astype(np.int64)
    eid = np.arange(el.m, dtype=np.int64) if with_eids else None
    os_, osz, is_, isz, col, col_eid = _fill_lists(el.n, src, dst, eid)
    return CSR(
        n=el.n,
        out_start=os_,
        out_size=osz,
        in_start=is_,
        in_size=isz,
        col=col,
        high=np.zeros(el.n, dtype=bool),
        h2h=np.empty((0, 2), dtype=np.uint32),
        col_eid=col_eid,
    )


def build_pruned_csr(el: EdgeList, *, tau: float) -> CSR:
    """Pruned CSR (paper §3.2.1): drop high-degree adjacency lists.

    Edges between two high-degree vertices go to the external ``h2h``
    array (the paper's external-memory edge file); an edge with exactly
    one high endpoint survives only in the low endpoint's list.
    """
    deg = el.degrees().astype(np.int64)
    high = high_mask_np(deg, tau)
    src = el.edges[:, 0].astype(np.int64)
    dst = el.edges[:, 1].astype(np.int64)
    is_h2h = high[src] & high[dst]
    h2h = el.edges[is_h2h].copy()
    ksrc, kdst = src[~is_h2h], dst[~is_h2h]
    # drop the side owned by a high-degree vertex
    out_keep = ~high[ksrc]
    in_keep = ~high[kdst]
    # build out segments from kept-src edges, in segments from kept-dst
    # edges; sizes per vertex:
    out_deg = np.bincount(ksrc[out_keep], minlength=el.n).astype(np.int64)
    in_deg = np.bincount(kdst[in_keep], minlength=el.n).astype(np.int64)
    total = out_deg + in_deg
    starts = np.concatenate([[0], np.cumsum(total)])[:-1]
    out_start = starts
    in_start = starts + out_deg
    col = np.zeros(int(total.sum()), dtype=np.uint32)

    s, d = ksrc[out_keep], kdst[out_keep]
    o = np.argsort(s, kind="stable")
    col[out_start[s[o]] + _rank_within_group(s[o])] = d[o]
    s, d = kdst[in_keep], ksrc[in_keep]
    o = np.argsort(s, kind="stable")
    col[in_start[s[o]] + _rank_within_group(s[o])] = d[o]

    return CSR(
        n=el.n,
        out_start=out_start,
        out_size=out_deg.copy(),
        in_start=in_start,
        in_size=in_deg.copy(),
        col=col,
        high=high,
        h2h=h2h,
    )
