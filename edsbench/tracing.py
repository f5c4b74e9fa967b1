"""Spans around the benchmark's calls into edspower, kept in memory.

A span records name, start, end, parent span and item id.  Per name the
tracer also sums calls, busy time (span duration) and any counts taken
from the call's return value.
"""
from __future__ import annotations

import json
import time
from collections import defaultdict


class _NoTrace:
    on = False

    @staticmethod
    def call(name, fn, *args, counts=None):
        return fn(*args)


NO_TRACE = _NoTrace()


class Tracer:
    on = True

    def __init__(self) -> None:
        self.item = None
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._stats: dict[str, dict] = defaultdict(lambda: defaultdict(int))

    def call(self, name, fn, *args, counts=None):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        start = time.perf_counter()
        try:
            result = fn(*args)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, self.item)
        stats = self._stats[name]
        stats["calls"] += 1
        stats["busy_s"] += end - start
        if counts is not None:
            for key, value in counts(result).items():
                stats[key] += value
        return result

    def take_stats(self) -> dict[str, dict]:
        """Totals per span name since the last call, as plain dicts."""
        stats = {name: dict(fields) for name, fields in self._stats.items()}
        self._stats.clear()
        return stats

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for index, (name, start, end, parent, item) in enumerate(self.spans):
                fh.write(json.dumps({"id": index, "name": name, "start": start, "end": end,
                                     "parent": parent, "item": item}) + "\n")
