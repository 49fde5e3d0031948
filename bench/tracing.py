"""In-memory spans recorded around calls into the package's layers.

A span has a name, start, end, parent and operation id, plus counters
recorded where the work happens.  Spans stay in memory and are written
once, when the run ends.  Times come from ``time.perf_counter``, which is
the system-wide monotonic clock on Linux, so spans recorded in a child
process line up with the parent's clock.

Layers are named after the package modules: a wrapped function's span is
``<module>.<function>``, e.g. ``susceptibility.compute_spectrum``.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    """Span recorder for one process; wrappers are installed from outside."""

    def __init__(self):
        self.spans: list[dict] = []
        self.op: int | None = None
        self._stack: list[dict] = []
        self._lock = threading.Lock()

    @contextmanager
    def span(self, name: str):
        record = {"id": len(self.spans), "name": name, "op": self.op,
                  "parent": self._stack[-1]["id"] if self._stack else None,
                  "start": time.perf_counter(), "end": None, "counts": {}}
        self.spans.append(record)
        self._stack.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def count(self, key: str, amount: float) -> None:
        """Add to a counter of the innermost open span (any thread)."""
        with self._lock:
            if self._stack:
                counts = self._stack[-1]["counts"]
                counts[key] = counts.get(key, 0) + amount

    def wrap(self, fn, name: str | None = None, counter=None):
        """``fn`` inside a span; ``counter(result, args)`` gives counts."""
        name = name or f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
                if counter is not None:
                    record["counts"].update(counter(result, args))
            return result
        return traced

    def count_points(self, fn):
        """``fn(omega, ...)`` that adds its number of points to ``points``."""
        @functools.wraps(fn)
        def counted(omega, *args, **kwargs):
            self.count("points", getattr(omega, "size", 1))
            return fn(omega, *args, **kwargs)
        return counted


def _size(result, args):
    return {"output.bytes": args[0].stat().st_size}


def _propagate(result, args):
    params = args[1]
    return {"propagation.cells": params.z_steps * params.t_steps,
            "propagation.converged": int(bool(result.converged))}


# Counters per wrapped public function, keyed by function name.
COUNTERS = {
    "parse_config": lambda result, args: {"config.calls": 1},
    "integrate_bloch": lambda result, args: {"bloch.samples": len(result.t)},
    "integrate_linearized": lambda result, args: {"bloch.linearized_nfev": result.nfev},
    "propagate_pulse": _propagate,
    "level_table": lambda result, args: {"levels.rows": len(result)},
    "write_csv": _size,
    "write_json": _size,
}


def instrument(tracer: Tracer, namespace, names) -> None:
    """Rebind ``names`` in ``namespace`` to span-recording wrappers."""
    for name in names:
        setattr(namespace, name,
                tracer.wrap(getattr(namespace, name), counter=COUNTERS.get(name)))


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the time its child spans cover."""
    covered: dict[int, float] = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] += s["end"] - s["start"]
    return {s["id"]: s["end"] - s["start"] - covered[s["id"]] for s in spans}


def layer_totals(spans: list[dict]) -> dict[str, float]:
    """Summed self time (``<span>_s``), calls and counters over layer spans.

    The root ``op`` span of a warm operation is not a layer and is skipped.

    Counter keys without a dot are per-span (``points`` becomes
    ``<span>_points``); dotted keys are layer counters used as they are.
    """
    totals: dict[str, float] = defaultdict(float)
    selfs = self_times(spans)
    for s in spans:
        if s["name"] == "op":
            continue
        totals[f"{s['name']}_s"] += selfs[s["id"]]
        totals[f"{s['name']}_calls"] += 1
        for key, value in s["counts"].items():
            totals[key if "." in key else f"{s['name']}_{key}"] += value
    return dict(totals)
