"""Shared types for partitioner results and driver-side validity checks."""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..graphs.generators import EdgeList


@dataclass
class PartitionResult:
    """Outcome of an edge partitioning run.

    ``assignment`` is an ``(m, 3)`` int64 array of ``(src, dst, pid)``
    rows, one per input edge, with ``(src, dst)`` in the input edge
    list's orientation. ``replicas`` is the ``(k, n)`` boolean covered-
    vertex matrix maintained by the partitioner itself (used to seed
    HEP's informed streaming); metrics recompute coverage from
    ``assignment`` so the two can be cross-checked in tests.
    """

    assignment: np.ndarray
    k: int
    n: int
    replicas: np.ndarray | None = None
    stats: dict = field(default_factory=dict)

    @property
    def sizes(self) -> np.ndarray:
        """Edges per partition, shape (k,)."""
        return np.bincount(self.assignment[:, 2], minlength=self.k)

    def covered(self) -> np.ndarray:
        """(k, n) bool: vertex v is covered by partition p (from assignment)."""
        cov = np.zeros((self.k, self.n), dtype=bool)
        cov[self.assignment[:, 2], self.assignment[:, 0]] = True
        cov[self.assignment[:, 2], self.assignment[:, 1]] = True
        return cov

    def replication_factor(self) -> float:
        """RF = (1/|V|) Σ_i |V(p_i)| over vertices incident to ≥1 edge."""
        cov = self.covered()
        nv = len(np.unique(self.assignment[:, :2]))
        return float(cov.sum() / nv)


def _pair_key(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    lo = np.minimum(a, b).astype(np.uint64)
    hi = np.maximum(a, b).astype(np.uint64)
    return (lo << np.uint64(32)) | hi


def check_edgelist(el: EdgeList) -> None:
    """Raise ``ValueError`` unless ``el`` keeps the :class:`EdgeList`
    contract: ids in ``0..n-1``, no self-loop, and each unordered pair
    at most once (one sort of the pair keys)."""
    if el.m == 0:
        return
    e = el.edges
    if e.min() < 0 or e.max() >= el.n:
        raise ValueError(f"vertex id outside 0..{el.n - 1}")
    if (e[:, 0] == e[:, 1]).any():
        raise ValueError("self-loop in edge list")
    key = np.sort(_pair_key(e[:, 0], e[:, 1]))
    if (key[1:] == key[:-1]).any():
        raise ValueError("duplicate undirected edge in edge list")


def check_valid(el: EdgeList, res: PartitionResult, *, alpha: float | None = None) -> None:
    """Assert ``res`` is a *valid* edge partitioning of ``el``.

    Every input undirected edge must be assigned to exactly one
    partition, pids must be in range, and (optionally) the balancing
    constraint |p_i| ≤ α·|E|/k must hold. Raises AssertionError.
    """
    a = res.assignment
    assert a.shape == (el.m, 3), f"assigned {a.shape[0]} of {el.m} edges"
    if el.m:  # min/max have no identity on an empty assignment
        assert a[:, 2].min() >= 0 and a[:, 2].max() < res.k, "pid out of range"
    want = np.sort(_pair_key(el.edges[:, 0], el.edges[:, 1]))
    got = np.sort(_pair_key(a[:, 0], a[:, 1]))
    assert np.array_equal(want, got), "assigned edge set differs from input edge set"
    if alpha is not None:
        cap = alpha * el.m / res.k
        assert res.sizes.max() <= np.ceil(cap), (
            f"balance violated: max |p_i|={res.sizes.max()} > {cap:.1f}"
        )
