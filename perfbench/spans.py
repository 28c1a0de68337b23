"""In-memory span recorder for the benchmark's traced run.

Spans are recorded from the benchmark's side only: the module attributes
that the pipeline looks up at call time (``repro.core.hep.partition_nepp``,
``repro.core.nepp.build_pruned_csr``, ...) are swapped for timing
wrappers while a :meth:`Tracer.patched` block is active, and restored on
exit. Nothing inside ``src/`` is edited.
"""
from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    """Spans as ``[name, start, end, parent]`` rows; ``parent`` is the
    index of the enclosing span, or -1 at top level."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self._open[-1] if self._open else -1])
        self._open.append(idx)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[idx][2] = time.perf_counter()

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    @contextmanager
    def patched(self, targets):
        """Wrap ``getattr(owner, attr)`` as span ``name`` for each
        ``(owner, attr, name)`` in ``targets`` until the block exits."""
        saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in targets]
        try:
            for (owner, attr, name), (_, _, fn) in zip(targets, saved):
                setattr(owner, attr, self.wrap(name, fn))
            yield self
        finally:
            for owner, attr, fn in saved:
                setattr(owner, attr, fn)

    def named(self, name: str) -> list[int]:
        return [i for i, s in enumerate(self.spans) if s[0] == name]

    def duration(self, idx: int) -> float:
        _, start, end, _ = self.spans[idx]
        return end - start

    def total(self, name: str) -> float:
        """Summed duration of every span called ``name``."""
        return sum(self.duration(i) for i in self.named(name))

    def self_time(self, name: str) -> float:
        """Summed duration of the ``name`` spans minus their direct children."""
        ids = set(self.named(name))
        children = sum(self.duration(i) for i, s in enumerate(self.spans) if s[3] in ids)
        return self.total(name) - children

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        rows = [
            {"name": n, "start": s, "end": e, "parent": p} for n, s, e, p in self.spans
        ]
        path.write_text(json.dumps(rows))
