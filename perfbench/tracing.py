"""Spans and counters around the calls into each smsp layer.

Tracing is installed only for the traced run. Every wrapper replaces a name
in the module that calls it (for example ``smsp.partition.side_of_cut``), so
the library itself is untouched. A span records its name, the operation it
belongs to, start, end and parent span; spans stay in memory until the run
writes them out. Self time is a span's duration minus its direct children's.
"""

from __future__ import annotations

import json
import os
from collections import defaultdict
from contextlib import contextmanager
from multiprocessing import connection
from time import perf_counter

import numpy as np

import smsp.cutgen
import smsp.geometry
import smsp.inference
import smsp.parallel
import smsp.partition
import smsp.shape


class Tracer:
    def __init__(self):
        self.spans = []  # [name, op, start, end, parent index]
        self.counts = defaultdict(float)  # (op, key) -> value
        self.op = None
        self._stack = []
        self._pid = os.getpid()

    def open(self, name) -> int:
        idx = len(self.spans)
        self.spans.append([name, self.op, perf_counter(), None, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        return idx

    def close(self, idx) -> None:
        self.spans[idx][3] = perf_counter()
        self._stack.pop()

    def count(self, key, n=1) -> None:
        self.counts[(self.op, key)] += n

    def in_parent(self) -> bool:
        return os.getpid() == self._pid

    @contextmanager
    def operation(self, op, patches):
        """Trace one benchmark operation with the given patch set installed."""
        saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in patches]
        self.op = op
        for owner, attr, make in patches:
            setattr(owner, attr, make(self, getattr(owner, attr)))
        idx = self.open("op." + op)
        try:
            yield
        finally:
            self.close(idx)
            for owner, attr, orig in reversed(saved):
                setattr(owner, attr, orig)
            self.op = None

    # ---- aggregation ----

    def self_times(self):
        """{(op, name): (calls, total duration, self time)}."""
        child = [0.0] * len(self.spans)
        for name, op, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for (name, op, t0, t1, _), c in zip(self.spans, child):
            agg = out[(op, name)]
            agg[0] += 1
            agg[1] += t1 - t0
            agg[2] += t1 - t0 - c
        return out

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "fields": ["name", "op", "start", "end", "parent"],
                    "spans": self.spans,
                    "counts": [[op, key, v] for (op, key), v in sorted(self.counts.items(), key=str)],
                },
                fh,
            )


# ---- wrappers ----


def _rows(arg):
    return len(np.atleast_2d(arg))  # points given as (n, 2), or one point as (2,)


def spanned(name, points=None):
    """Factory: wrap a function in a span; ``points(args)`` counts the points it was given."""

    def make(tr, fn):
        def wrapper(*args, **kwargs):
            if points is not None:
                tr.count(name + ".points", points(args))
            idx = tr.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tr.close(idx)

        return wrapper

    return make


def _sample_cut_masked(tr, fn):
    inner = spanned("cutgen.sample_cut_masked")(tr, fn)

    def wrapper(*args, **kwargs):
        out = inner(*args, **kwargs)
        tr.count("cutgen.accepted")
        return out

    return wrapper


def _counted(key):
    def make(tr, fn):
        def wrapper(*args, **kwargs):
            tr.count(key)
            return fn(*args, **kwargs)

        return wrapper

    return make


def _advance(tr, fn):
    inner = spanned("partition.advance")(tr, fn)

    def wrapper(state, *args, **kwargs):
        out = inner(state, *args, **kwargs)
        tr.count("partition.events." + state.last_event.kind.replace("-", "_"))
        return out

    return wrapper


def _resample(tr, fn):
    inner = spanned("parallel.resample")(tr, fn)

    def wrapper(self, ancestors, still_active):
        tr.count("parallel.resample_calls")
        tr.count("parallel.distinct_ancestors", len({int(a) for a in ancestors}))
        return inner(self, ancestors, still_active)

    return wrapper


def _send_bytes(tr, fn):
    def wrapper(self, buf):
        if tr.in_parent():
            tr.count("parallel.ipc_bytes", memoryview(buf).nbytes)
            tr.count("parallel.ipc_messages")
        return fn(self, buf)

    return wrapper


def _recv_bytes(tr, fn):
    def wrapper(self, *args):
        buf = fn(self, *args)
        if tr.in_parent():
            tr.count("parallel.ipc_bytes", buf.getbuffer().nbytes)
            tr.count("parallel.ipc_messages")
        return buf

    return wrapper


class _TracedJson:
    """Stands in for the json module inside smsp.inference."""

    def __init__(self, tr, real):
        self._dump = spanned("inference.json")(tr, real.dump)
        self._load = spanned("inference.json")(tr, real.load)

    def dump(self, *args, **kwargs):
        return self._dump(*args, **kwargs)

    def load(self, *args, **kwargs):
        return self._load(*args, **kwargs)


# Compute layers, traced at one worker: (owner, attribute, wrapper factory).
COMPUTE = [
    (smsp.partition, "smallest_enclosing_circle", spanned("geometry.smallest_enclosing_circle")),
    (smsp.cutgen, "smallest_enclosing_circle", spanned("geometry.smallest_enclosing_circle")),
    (smsp.partition, "side_of_cut", spanned("geometry.side_of_cut", lambda a: _rows(a[0]))),
    (smsp.cutgen, "side_of_cut", spanned("geometry.side_of_cut", lambda a: _rows(a[0]))),
    (smsp.shape, "side_of_cut", spanned("geometry.side_of_cut", lambda a: _rows(a[0]))),
    (smsp.geometry, "bezier_y_at_x", spanned("geometry.bezier_y_at_x", lambda a: np.size(a[1]))),
    (smsp.partition, "sample_cut_masked", _sample_cut_masked),
    (smsp.cutgen, "sample_offset", _counted("cutgen.proposals")),
    (smsp.parallel, "advance", _advance),
    (smsp.parallel, "weight_increment", spanned("likelihood.weight_increment")),
    (smsp.parallel, "clone_state", spanned("parallel.clone_state")),
    (smsp.inference, "route_points", spanned("partition.route_points", lambda a: _rows(a[1]))),
    (smsp.inference, "predict_proba", spanned("inference.predict_proba")),
    (smsp.inference, "model_to_dict", spanned("inference.model_to_dict")),
    (smsp.inference, "model_from_dict", spanned("inference.model_from_dict")),
    (smsp.inference, "json", _TracedJson),
    (smsp.shape, "discretize_cuts", spanned("shape.discretize_cuts")),
    (smsp.shape, "mark_interior", spanned("shape.mark_interior")),
]

# The engine's per-round phases in the parent and its pipe traffic, traced at
# two workers; worker processes are forked with these patches but count nothing.
PARALLEL = [
    (smsp.parallel.SMCEngine, "_advance_all", spanned("parallel.advance")),
    (smsp.parallel.SMCEngine, "_resample", _resample),
    (smsp.parallel.SMCEngine, "_finalize", spanned("parallel.finalize")),
    (connection.Connection, "_send_bytes", _send_bytes),
    (connection.Connection, "_recv_bytes", _recv_bytes),
]
