"""In-memory span recorder for timing relaystop's layers from outside.

A span is (name, parent span, start, end). Spans are appended to flat arrays
while the program runs and are only aggregated or written once it is done, so
recording costs a few appends per call. The parent of a span is the innermost
span open when it starts; the program is single-threaded, so a span's direct
children never overlap and its self time is its duration minus theirs.
"""
from __future__ import annotations

import functools
import time
from array import array

import numpy as np

clock = time.perf_counter


class Recorder:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._open: list[int] = []
        self.counters: dict[str, int] = {}

    def wrap(self, name: str, fn, rows_arg: int | None = None):
        """Return fn wrapped in a span called ``name``.

        With ``rows_arg``, the row count of that positional argument is added
        to the counter ``name + '.rows'``.
        """
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]
        rows_key = name + ".rows"
        name_id, parent, start, end, open_ = (self.name_id, self.parent, self.start,
                                              self.end, self._open)

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(open_[-1] if open_ else -1)
            end.append(0.0)
            open_.append(idx)
            if rows_arg is not None:
                self.counters[rows_key] = (self.counters.get(rows_key, 0)
                                           + len(args[rows_arg]))
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                open_.pop()

        return spanned

    def first_start(self, names) -> float | None:
        """Start time of the earliest span with one of ``names``."""
        wanted = {self._ids[n] for n in names if n in self._ids}
        for nid, t in zip(self.name_id, self.start):
            if nid in wanted:
                return t
        return None

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: number of calls, total seconds and self seconds."""
        nid = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        nested = parent >= 0
        child_time = np.bincount(parent[nested], weights=dur[nested], minlength=dur.size)
        own = dur - child_time
        k = len(self.names)
        calls = np.bincount(nid, minlength=k)
        total = np.bincount(nid, weights=dur, minlength=k)
        self_total = np.bincount(nid, weights=own, minlength=k)
        return {name: {"calls": int(calls[i]), "s": float(total[i]),
                       "self_s": float(self_total[i])}
                for i, name in enumerate(self.names)}

    def save(self, path) -> None:
        """Write every span, with the name table, as a compressed .npz file."""
        np.savez_compressed(
            path, names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start), end=np.frombuffer(self.end))
