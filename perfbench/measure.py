"""Timing helpers: the machine-speed reference loop and the span tracer.

Three things live here, all owned by the benchmark rather than the program:

* :class:`SpeedClock` times one pass of real work between two runs of a
  fixed pure-Python reference loop and scales the pass by the loop's
  measured time over its nominal time.  On a shared VM the interpreter's
  speed drifts by tens of percent within seconds; a pass that ran while the
  machine was slow is scaled down by the same factor the loop saw.
* :func:`start_echo_server` is the latency reference: a minimal server of
  the program's line protocol that answers every record ``ok`` at once.
  Open-loop latency below a millisecond is mostly the time idle vCPUs and
  threads take to wake, which the reference loop does not see; the echo,
  driven by the same client at the same rate on the same event loop, does.
* :class:`Tracer` records spans (name, start, end, parent) around calls into
  the program's public functions, in memory, and reduces them to per-layer
  self times and per-call latency samples when the run ends.
"""

from __future__ import annotations

import asyncio
import json
import statistics
import threading
import time
from dataclasses import dataclass, field
from typing import Callable

#: Iterations of the reference loop.
REF_ITERATIONS = 150_000
#: Its nominal duration in seconds: the median of 200 timings on the
#: reference machine (2 vCPU KVM guest, CPython 3.11).  Scaled figures read
#: as "what the pass would have taken on that machine at that speed".
REF_NOMINAL_S = 0.0300


#: Nominal due-to-reply latency of the echo reference in ms at the open-loop
#: rate: its median on the reference machine when otherwise quiet.  A scaled
#: latency is the median over records of (latency / the paired echo's
#: latency) times this: "what it would have been had the echo answered in
#: this time".
RTT_NOMINAL_MS = 0.20


def reference_loop(n: int = REF_ITERATIONS) -> int:
    """A fixed mix of integer arithmetic and dict stores (no allocation growth)."""
    acc = 0
    table: dict[int, int] = {}
    for i in range(n):
        acc = (acc * 1103515245 + 12345 + i) & 0x7FFFFFFF
        table[acc & 1023] = i
    return acc + len(table)


def time_reference() -> float:
    """Seconds one reference loop takes right now."""
    t0 = time.perf_counter()
    reference_loop()
    return time.perf_counter() - t0


@dataclass
class Timed:
    """One timed pass: wall seconds and the reference readings around it."""

    raw_s: float
    ref_before_s: float
    ref_after_s: float

    @property
    def speed(self) -> float:
        """Measured reference time over nominal (>1: the machine ran slow)."""
        return (self.ref_before_s + self.ref_after_s) / (2.0 * REF_NOMINAL_S)

    @property
    def scaled_s(self) -> float:
        """The pass time at nominal machine speed."""
        return self.raw_s / self.speed


@dataclass
class SpeedClock:
    """Times passes against the reference loop and keeps every reading.

    Back-to-back passes share the reading between them: the loop after one
    pass is the loop before the next, until :meth:`reference` is called on
    its own or :meth:`detach` marks other work in between.
    """

    refs: list[float] = field(default_factory=list)
    _last: float | None = None

    def reference(self) -> float:
        ref = time_reference()
        self.refs.append(ref)
        self._last = ref
        return ref

    def start(self) -> float:
        """The reading before a pass: the last one if still attached, else fresh."""
        return self._last if self._last is not None else self.reference()

    def detach(self) -> None:
        """Forget the last reading: the next pass takes its own."""
        self._last = None

    def time(self, fn: Callable[[], object]) -> tuple[Timed, object]:
        """Run ``fn`` once between two reference loops."""
        before = self.start()
        t0 = time.perf_counter()
        out = fn()
        raw = time.perf_counter() - t0
        return Timed(raw, before, self.reference()), out

    def bracket(self, raw_s: float, before: float) -> Timed:
        """Close a pass timed elsewhere (an async phase) with a reference loop."""
        return Timed(raw_s, before, self.reference())


async def _echo(reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
    """Answer the line protocol the way the program's transport does, minus the program."""
    try:
        while raw := await reader.readline():
            if raw.startswith(b"hello "):
                answer = {"status": "hello"}
            elif raw.strip() == b"bye":
                answer = {"status": "bye"}
            else:
                answer = {"status": "ok", "id": json.loads(raw)["id"]}
            writer.write((json.dumps(answer) + "\n").encode())
            await writer.drain()
            if answer["status"] == "bye":
                break
    finally:
        writer.close()


async def start_echo_server() -> asyncio.Server:
    """The latency reference, listening on a free loopback port."""
    return await asyncio.start_server(_echo, "127.0.0.1", 0)


class Span:
    __slots__ = ("name", "start", "end", "parent", "child_s")

    def __init__(self, name: str, start: float, parent: "Span | None") -> None:
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.child_s = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Tracer:
    """In-memory spans with per-thread parent stacks.

    ``enabled=False`` makes :meth:`span` a no-op and :meth:`wrap` leave the
    target untouched, so untraced runs execute exactly the program's code.
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: list[Span] = []
        self._local = threading.local()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> Span | None:
        if not self.enabled:
            return None
        stack = self._stack()
        span = Span(name, time.perf_counter(), stack[-1] if stack else None)
        stack.append(span)
        return span

    def end(self, span: Span | None) -> None:
        if span is None:
            return
        span.end = time.perf_counter()
        self._stack().pop()
        if span.parent is not None:
            span.parent.child_s += span.duration
        self.spans.append(span)

    def span(self, name: str) -> "_SpanContext":
        return _SpanContext(self, name)

    def wrap(self, obj: object, attr: str, name: str) -> None:
        """Time every call of ``obj.attr`` as a span (traced runs only)."""
        if not self.enabled:
            return
        inner = getattr(obj, attr)
        begin, end = self.begin, self.end

        def traced(*args, **kwargs):
            span = begin(name)
            try:
                return inner(*args, **kwargs)
            finally:
                end(span)

        setattr(obj, attr, traced)

    def durations(self, name: str) -> list[float]:
        return [s.duration for s in self.spans if s.name == name]

    def self_times(self) -> dict[str, float]:
        """Seconds per layer not covered by that span's child spans."""
        out: dict[str, float] = {}
        for s in self.spans:
            out[s.layer] = out.get(s.layer, 0.0) + s.duration - s.child_s
        return out


class _SpanContext:
    __slots__ = ("tracer", "name", "span")

    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> None:
        self.span = self.tracer.begin(self.name)

    def __exit__(self, *exc) -> None:
        self.tracer.end(self.span)


def median(values: list[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def quantile(values: list[float], q: float) -> float:
    """The ``q`` quantile by linear interpolation (0 for no samples)."""
    if not values:
        return 0.0
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)
