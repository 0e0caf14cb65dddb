"""In-memory spans around the benchmark's calls into slowqkd modules.

A span records its name, start and end (``perf_counter_ns``), the span that
was open when it started, and the run id.  The layer of a span is the part
of its name before the first dot (``optimizer.optimize_point`` belongs to
``optimizer``).  Calls made tens of thousands of times per second (one
``key_rate`` per optimizer evaluation) are not given spans of their own:
``leaf`` adds their count and total time to the span that is open, which is
enough to split self time between layers.

Wrappers are installed by replacing module attributes for the duration of
a traced pass (``patched``); nothing in ``src/`` is edited.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext
from typing import Any, Callable, Iterator

_now = time.perf_counter_ns


class Tracer:
    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[dict[str, Any]] = []
        self._open: list[dict[str, Any]] = []
        self._root_leaves: dict[str, list[int]] = {}
        self._next_id = 0

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[dict[str, Any]]:
        rec = {
            "id": self._next_id,
            "parent": self._open[-1]["id"] if self._open else None,
            "name": name,
            "run": self.run_id,
            "attrs": attrs,
            "leaves": {},
            "start_ns": _now(),
        }
        self._next_id += 1
        self._open.append(rec)
        try:
            yield rec
        finally:
            rec["end_ns"] = _now()
            self._open.pop()
            self.spans.append(rec)

    def wrap(self, name: str, fn: Callable, annotate: Callable | None = None) -> Callable:
        """``fn`` inside a span; ``annotate(attrs, args, result)`` may add attributes."""

        def traced(*args: Any, **kwargs: Any) -> Any:
            with self.span(name) as rec:
                result = fn(*args, **kwargs)
                if annotate is not None:
                    annotate(rec["attrs"], args, result)
            return result

        return traced

    def leaf(self, name: str, fn: Callable) -> Callable:
        """``fn`` with its calls counted and timed into the open span."""

        def counted(*args: Any, **kwargs: Any) -> Any:
            t0 = _now()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = _now() - t0
                leaves = self._open[-1]["leaves"] if self._open else self._root_leaves
                acc = leaves.get(name)
                if acc is None:
                    leaves[name] = [1, dt]
                else:
                    acc[0] += 1
                    acc[1] += dt

        return counted


def span(tracer: Tracer | None, name: str, **attrs: Any):
    """A span when tracing, otherwise a no-op context."""
    return nullcontext() if tracer is None else tracer.span(name, **attrs)


@contextmanager
def patched(replacements: list[tuple[object, str, Any]]) -> Iterator[None]:
    """Set ``obj.attr = value`` for each triple, restoring the originals on exit."""
    saved = [(obj, attr, getattr(obj, attr)) for obj, attr, _ in replacements]
    try:
        for obj, attr, value in replacements:
            setattr(obj, attr, value)
        yield
    finally:
        for obj, attr, value in reversed(saved):
            setattr(obj, attr, value)


def duration_s(rec: dict[str, Any]) -> float:
    return (rec["end_ns"] - rec["start_ns"]) / 1e9


def children_s(spans: list[dict[str, Any]]) -> dict[int, float]:
    """Seconds covered by each span's direct child spans and leaf calls."""
    covered: dict[int, float] = {}
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] = covered.get(s["parent"], 0.0) + duration_s(s)
        leaf_s = sum(t for _, t in s["leaves"].values()) / 1e9
        covered[s["id"]] = covered.get(s["id"], 0.0) + leaf_s
    return covered


def self_seconds(spans: list[dict[str, Any]]) -> dict[str, float]:
    """Self time per layer: span time not covered by child spans or leaf calls,
    plus the leaf calls' own time credited to the leaf's layer."""
    covered = children_s(spans)
    out: dict[str, float] = {}
    for s in spans:
        layer = s["name"].split(".", 1)[0]
        out[layer] = out.get(layer, 0.0) + duration_s(s) - covered.get(s["id"], 0.0)
        for leaf, (_, t) in s["leaves"].items():
            leaf_layer = leaf.split(".", 1)[0]
            out[leaf_layer] = out.get(leaf_layer, 0.0) + t / 1e9
    return out
