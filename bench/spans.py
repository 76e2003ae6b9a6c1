"""Pass timing and in-memory spans for the benchmark.

Every pass is timed, with or without tracing: its wall time, the set-up part
of each route it runs, and the total duration of every named call, all
without the time of speed probes.  With
tracing on, each call also leaves a span ``(name, start, end, parent, pass)``
in memory; the spans are written out when the run ends.

Span names are ``<layer>.<call>``.  The layer is the part before the first
dot and is one of the program's layers (io, relief, builder, dsl, engine,
trace); ``bench.pass`` is the root span of a pass and ``bench.probe`` a speed
probe inside it.

The host speed is probed before and after a pass, and inside it at the start
of a route or between engine steps once CHECK_EVERY_S have passed since the
last probe.  Probe time is not pass time.  Each stretch of the pass between
two probes is rescaled by the mean of those two probes (see speed.py).
"""

from __future__ import annotations

import json
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

import speed

PASS_SPAN = "bench.pass"
PROBE_SPAN = "bench.probe"

#: Longest stretch of a pass between two speed probes, where it can be cut.
CHECK_EVERY_S = 0.25


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[list] = []  # [name, start, end, parent index, pass id]
        self._stack: list[int] = []
        self.pass_id = -1
        self.totals: dict[str, float] = defaultdict(float)
        self.setup_s = 0.0
        self._route_start: float | None = None
        self._probes: list[tuple[float, float, float]] = []  # (start, end, probe time)
        self._in_pass = False

    # -- passes, routes and speed probes ----------------------------------------

    def run_pass(self, pass_id: int, body):
        """Run ``body()`` as pass ``pass_id``, between two speed probes."""
        self.pass_id = pass_id
        self.totals = defaultdict(float)
        self.setup_s = 0.0
        self._probes = []
        self._probe()
        self._in_pass = True
        try:
            with self.span(PASS_SPAN):
                return body()
        finally:
            self._in_pass = False
            self._probe()

    def _probe(self) -> None:
        start = perf_counter()
        took = speed.probe()
        end = perf_counter()
        self._probes.append((start, end, took))
        if self._in_pass:
            self.leaf(PROBE_SPAN, start, end)

    def checkpoint(self) -> None:
        """Probe the host speed if CHECK_EVERY_S have passed since the last probe."""
        if self._in_pass and perf_counter() - self._probes[-1][1] >= CHECK_EVERY_S:
            self._probe()

    @property
    def wall_s(self) -> float:
        """Host seconds of the last pass, probes excluded."""
        return self.totals[PASS_SPAN]

    def scale(self) -> float:
        """Factor from host seconds of the last pass to reference seconds."""
        ref = raw = 0.0
        for (_, end, before), (start, _, after) in zip(self._probes, self._probes[1:]):
            raw += start - end
            ref += (start - end) * speed.REFERENCE_S / ((before + after) / 2)
        return ref / raw

    def begin_route(self) -> None:
        """A route (one CLI path) starts; its set-up runs until setup_done."""
        self.checkpoint()
        self._route_start = perf_counter()

    def setup_done(self) -> None:
        """The running route reached its first engine step or solver loop."""
        if self._route_start is not None:
            self.setup_s += perf_counter() - self._route_start
            self._route_start = None

    # -- spans ---------------------------------------------------------------

    @contextmanager
    def span(self, name: str):
        """Time a call; its total leaves out the speed probes made inside it."""
        start = perf_counter()
        probed = self.totals[PROBE_SPAN]
        record = None
        if self.enabled:
            record = [name, start, start, self._stack[-1] if self._stack else -1, self.pass_id]
            self._stack.append(len(self.spans))
            self.spans.append(record)
        try:
            yield
        finally:
            end = perf_counter()
            if record is not None:
                self._stack.pop()
                record[2] = end
            self.totals[name] += end - start - (self.totals[PROBE_SPAN] - probed)

    def leaf(self, name: str, start: float, end: float) -> None:
        """A span timed by the caller (used per engine step)."""
        self.totals[name] += end - start
        if self.enabled:
            self.spans.append([name, start, end, self._stack[-1] if self._stack else -1, self.pass_id])

    # -- analysis --------------------------------------------------------------

    def self_times(self, pass_id: int) -> dict[str, float]:
        """Self time per span name within one pass: a span's duration minus
        the part its child spans cover (children never overlap)."""
        child_time: dict[int, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        rows = [(i, s) for i, s in enumerate(self.spans) if s[4] == pass_id]
        for _, (_, start, end, parent, _) in rows:
            if parent >= 0:
                child_time[parent] += end - start
        for i, (name, start, end, _, _) in rows:
            own[name] += (end - start) - child_time[i]
        return dict(own)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as out:
            for name, start, end, parent, pass_id in self.spans:
                out.write(json.dumps({"name": name, "start": start, "end": end,
                                      "parent": parent, "pass": pass_id}) + "\n")
