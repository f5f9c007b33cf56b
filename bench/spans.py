"""In-memory span recording around the program's public functions.

A Tracer wraps a function so that each call records a span: name, start,
end and the span that was open when it began (its parent).  Spans live in
flat arrays while the traced operation runs; self time is worked out
afterwards, as a span's duration minus the part of it its children cover.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time
from array import array
from dataclasses import dataclass


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self._open: list[int] = []
        self.missing: list[str] = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name: str, fn):
        """Return fn recording one span named `name` per call."""
        nid = self._name_id(name)
        clock = time.perf_counter_ns
        names, parents, starts, ends, open_ = (
            self.name, self.parent, self.start, self.end, self._open)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(open_[-1] if open_ else -1)
            ends.append(0)
            open_.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                open_.pop()

        return traced

    def __len__(self) -> int:
        return len(self.start)

    def to_json(self, run_id: str) -> dict:
        """Columnar span dump; times in ns relative to the first span."""
        t0 = self.start[0] if len(self) else 0
        return {
            "run_id": run_id,
            "names": self.names,
            "spans": {
                "name": list(self.name),
                "parent": list(self.parent),
                "start_ns": [t - t0 for t in self.start],
                "end_ns": [t - t0 for t in self.end],
            },
        }

    def dump(self, path, run_id: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json(run_id), fh, separators=(",", ":"))


def self_times(parent, start, end) -> list[int]:
    """Per-span self time: duration minus the union of the children's
    intervals, clipped to the span.  Spans must be listed in start order,
    which is the order Tracer records them in."""
    n = len(start)
    covered = [0] * n
    frontier = list(start)  # per parent: end of the children covered so far
    for i in range(n):
        p = parent[i]
        if p < 0:
            continue
        lo = max(start[i], frontier[p])
        hi = min(end[i], end[p])
        if hi > lo:
            covered[p] += hi - lo
        if hi > frontier[p]:
            frontier[p] = hi
    return [end[i] - start[i] - covered[i] for i in range(n)]


@dataclass
class LayerStats:
    calls: int = 0
    self_ns: int = 0


def layer_stats(tracer: Tracer) -> dict[str, LayerStats]:
    stats = {name: LayerStats() for name in tracer.names}
    for nid, self_ns in zip(tracer.name, self_times(tracer.parent, tracer.start, tracer.end)):
        s = stats[tracer.names[nid]]
        s.calls += 1
        s.self_ns += self_ns
    return stats


def durations(tracer: Tracer, name: str) -> list[int]:
    nid = tracer.names.index(name)
    return [e - s for k, s, e in zip(tracer.name, tracer.start, tracer.end) if k == nid]


@contextlib.contextmanager
def patched(tracer: Tracer, sites):
    """Replace each (module, attribute) in `sites` by a traced wrapper for
    the duration of the block.  `sites` maps (module name, attribute path)
    to a layer name; an attribute path may be dotted, as in
    "cmd_run.callback".  Sites that do not exist are skipped and listed in
    tracer.missing."""
    undo = []
    tracer.missing = []
    try:
        for (module_name, attr_path), layer in sites.items():
            owner = importlib.import_module(module_name)
            *parents, attr = attr_path.split(".")
            for part in parents:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None)
            if original is None:
                tracer.missing.append(f"{module_name}.{attr_path}")
                continue
            setattr(owner, attr, tracer.wrap(layer, original))
            undo.append((owner, attr, original))
        yield tracer
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)
