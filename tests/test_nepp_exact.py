"""Exact-match gate for NE++: ``partition_nepp`` against the numpy
per-vertex loop it replaced, frozen here as the reference. Assignment,
replicas, stats, h2h, the post-run CSR and the sequence of column-array
touches (which drives the Table 6 paging simulator) must all agree."""
import heapq

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.common import PartitionResult
from repro.core.nepp import partition_nepp
from repro.graphs.csr import build_pruned_csr
from repro.graphs.generators import EdgeList

from .conftest import path_graph, star_graph, tiny_graph, two_triangles
from .test_csr import random_edgelist


def _reference_remove_neighbors(csr, v, mask_out, mask_in) -> int:
    """The mask form of ``CSR.remove_neighbors`` the reference used."""
    removed = 0
    for start, size, mask in ((csr.out_start, csr.out_size, mask_out), (csr.in_start, csr.in_size, mask_in)):
        s = start[v]
        sz = int(size[v])
        if sz and mask.any():
            keep = csr.col[s : s + sz][~mask]
            csr.col[s : s + len(keep)] = keep
            size[v] = len(keep)
            removed += sz - len(keep)
    return removed


def _reference_partition_nepp(el, *, k, tau, csr):
    """The numpy NE++ loop that ``partition_nepp`` replaced: boolean
    membership arrays, per-vertex fancy indexing and ``np.subtract.at``,
    a list of small row arrays concatenated at the end."""
    n = csr.n
    high = csr.high
    m_inmem = el.m - len(csr.h2h)
    cap = max(1, -(-m_inmem // k))
    initial_entries = csr.col_entries

    core = np.zeros(n, dtype=bool)
    in_s = np.zeros(n, dtype=bool)
    replicas = np.zeros((k, n), dtype=bool)
    d_ext = np.zeros(n, dtype=np.int64)
    sizes = np.zeros(k, dtype=np.int64)
    a_src, a_dst, a_runs = [], [], []
    assigned_total = 0
    cleaned_entries = 0
    seed_ptr = 0

    def record(u_arr, v_arr, pid):
        nonlocal assigned_total
        if len(u_arr) == 0:
            return
        a_src.append(np.asarray(u_arr, dtype=np.int64))
        a_dst.append(np.asarray(v_arr, dtype=np.int64))
        a_runs.append((pid, len(u_arr)))
        sizes[pid] += len(u_arr)
        assigned_total += len(u_arr)

    def assign_split(v, w_out, w_in, i):
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
            replicas[j, seg_u] = True
            replicas[j, seg_v] = True
            pos += take

    for i in range(k - 1):
        if assigned_total >= m_inmem:
            break
        in_s[:] = False
        s_list = []
        heap = []

        def move_to_secondary(u, i=i, s_list=s_list, heap=heap):
            in_s[u] = True
            replicas[i, u] = True
            s_list.append(u)
            out_nb = csr.out_neighbors(u)
            in_nb = csr.in_neighbors(u)
            no = len(out_nb)
            nb = np.concatenate([out_nb, in_nb]).astype(np.int64)
            hit = core[nb] | in_s[nb] | high[nb]
            w_out = nb[:no][hit[:no]]
            w_in = nb[no:][hit[no:]]
            assign_split(u, w_out, w_in, i)
            d_ext[u] = len(nb) - len(w_out) - len(w_in)
            heapq.heappush(heap, (int(d_ext[u]), u))
            w_all = np.concatenate([w_out, w_in])
            upd = w_all[in_s[w_all] & ~core[w_all]]
            if len(upd):
                np.subtract.at(d_ext, upd, 1)
                for wi in upd.tolist():
                    heapq.heappush(heap, (int(d_ext[wi]), wi))

        def move_to_core(v, i=i):
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
                while seed_ptr < n and (
                    high[seed_ptr] or core[seed_ptr] or csr.degree(seed_ptr) == 0
                ):
                    seed_ptr += 1
                if seed_ptr >= n:
                    break
                v = seed_ptr
            move_to_core(v)

        for u in s_list:
            if core[u]:
                continue
            out_nb = csr.out_neighbors(u)
            in_nb = csr.in_neighbors(u)
            cleaned_entries += _reference_remove_neighbors(
                csr,
                u,
                core[out_nb] | in_s[out_nb] | high[out_nb],
                core[in_nb] | in_s[in_nb] | high[in_nb],
            )

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
        assignment = np.stack([np.concatenate(a_src), np.concatenate(a_dst), pids], axis=1)
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


def assert_matches_reference(el, k, tau):
    runs = []
    for fn in (partition_nepp, _reference_partition_nepp):
        csr = build_pruned_csr(el, tau=tau)
        touches = []
        csr.touch = lambda lo, hi, touches=touches: touches.append((lo, hi))
        res, h2h = fn(el, k=k, tau=tau, csr=csr)
        runs.append((res, h2h, csr, touches))
    (got, got_h2h, got_csr, got_touch), (want, want_h2h, want_csr, want_touch) = runs
    assert got.assignment.dtype == np.int64
    assert got.assignment.shape == want.assignment.shape
    assert np.array_equal(got.assignment, want.assignment)
    assert got.replicas.dtype == bool and got.replicas.shape == (k, el.n)
    assert np.array_equal(got.replicas, want.replicas)
    assert got.stats == want.stats
    assert np.array_equal(got_h2h, want_h2h)
    for name in ("col", "out_size", "in_size"):
        assert np.array_equal(getattr(got_csr, name), getattr(want_csr, name)), name
    assert got_touch == want_touch


@pytest.mark.parametrize("name", ["OK", "IT", "TW"])
@pytest.mark.parametrize("tau", [100.0, 10.0, 1.0])
@pytest.mark.parametrize("k", [1, 2, 4, 32])
def test_matches_reference_analogs(name, tau, k):
    assert_matches_reference(tiny_graph(name, 0.05), k, tau)


@pytest.mark.parametrize(
    "make", [lambda: star_graph(6), lambda: path_graph(9), two_triangles], ids=["star", "path", "disconnected"]
)
@pytest.mark.parametrize("tau", [100.0, 1.0, 0.5])
@pytest.mark.parametrize("k", [1, 2, 3, 8])
def test_matches_reference_small(make, tau, k):
    assert_matches_reference(make(), k, tau)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_matches_reference_random_graphs(data):
    el = random_edgelist(data.draw)
    k = data.draw(st.integers(min_value=1, max_value=12), label="k")
    tau = data.draw(st.sampled_from([0.3, 0.5, 1.0, 2.0, 100.0]), label="tau")
    assert_matches_reference(el, k, tau)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_matches_reference_raw_multigraphs(data):
    """Outside the EdgeList contract too (``partition_nepp`` does not
    check it; ``partition_hep`` does): with a repeated pair a neighbor's
    external degree drops twice in one move. The reference pushes the
    final value twice, the scalar loop each intermediate value; the extra heap
    entries are stale either way, so the output must not differ."""
    n = data.draw(st.integers(2, 10), label="n")
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda p: p[0] != p[1])
    pairs = data.draw(st.lists(pair, min_size=1, max_size=40), label="pairs")
    el = EdgeList(edges=np.array(pairs, dtype=np.uint32), n=n)
    k = data.draw(st.integers(min_value=1, max_value=6), label="k")
    tau = data.draw(st.sampled_from([0.5, 1.0, 100.0]), label="tau")
    assert_matches_reference(el, k, tau)
