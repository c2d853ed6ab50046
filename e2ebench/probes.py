"""Benchmark-owned probes at the layer boundaries of the AdOC stack.

Nothing here reaches into ``repro``: every probe is a proxy the
benchmark puts *between* two public layers, so the library runs the
same code with or without it.

* :class:`Spans` records one span per layer call (name, start, end,
  parent) into a :class:`repro.obs.tracer.EventTracer` kept in memory;
* :class:`CountingEndpoint` sits between ``AdocSocket`` and the link
  and counts ``send``/``recv`` calls, bytes and time spent inside them;
* :class:`PacedEndpoint` is the depot workload's 80 Mbit/s link;
* :class:`TimedSocket` wraps an ``AdocSocket`` and times ``write``,
  ``read``/``read_exact`` (one ``core.read`` span) and ``close``.
"""

from __future__ import annotations

import itertools
import threading
import time

from repro.obs.tracer import EventTracer
from repro.transport.base import Endpoint

__all__ = ["Spans", "LinkCounters", "CountingEndpoint", "PacedEndpoint", "TimedSocket"]


class _NullSpan:
    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc: object) -> None:
        return None


_NULL_SPAN = _NullSpan()


class _Span:
    __slots__ = ("_spans", "_name", "_id", "_parent", "_t0")

    def __init__(self, spans: "Spans", name: str) -> None:
        self._spans = spans
        self._name = name

    def __enter__(self) -> None:
        spans = self._spans
        stack = spans._stack()
        self._parent = stack[-1] if stack else spans.op_id
        self._id = next(spans._ids)
        stack.append(self._id)
        self._t0 = time.monotonic()

    def __exit__(self, *exc: object) -> None:
        t1 = time.monotonic()
        spans = self._spans
        spans._stack().pop()
        spans.tracer.record(
            "span", self._name, ts=self._t0, dur=t1 - self._t0,
            id=self._id, parent=self._parent,
        )


class Spans:
    """Parent-linked spans around layer calls, kept in memory.

    A span's parent is the innermost span open on the same thread or,
    for work on a library thread (the AdOC reception thread calling
    ``recv``), the operation the load thread has open: the load is one
    closed loop, so whatever runs during an operation is caused by it.
    With ``tracer=None`` every ``span()`` is a shared no-op, which is
    how the untraced runs measure the end-to-end metrics.
    """

    def __init__(self, tracer: EventTracer | None) -> None:
        self.tracer = tracer
        self._ids = itertools.count(1)
        self._tls = threading.local()
        self.op_id = 0

    def _stack(self) -> list[int]:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def detach(self) -> None:
        """Make spans later opened on this thread roots, not children of
        the load thread's operation (for work outside any operation)."""
        self._stack().append(0)

    def span(self, name: str):
        if self.tracer is None:
            return _NULL_SPAN
        return _Span(self, name)

    def op(self, name: str):
        """A root span; spans on other threads attach to it while open."""
        if self.tracer is None:
            return _NULL_SPAN
        return _OpSpan(self, name)


class _OpSpan(_Span):
    __slots__ = ("_outer",)

    def __enter__(self) -> None:
        super().__enter__()
        self._outer = self._spans.op_id
        self._spans.op_id = self._id

    def __exit__(self, *exc: object) -> None:
        self._spans.op_id = self._outer
        super().__exit__(*exc)


class LinkCounters:
    """Calls, bytes and seconds inside ``send``/``recv`` for one role.

    Each direction is driven by one thread at a time (the emitting
    thread sends, the reception thread receives), so the counters need
    no lock.
    """

    def __init__(self) -> None:
        self.send_calls = 0
        self.send_bytes = 0
        self.send_s = 0.0
        self.recv_calls = 0
        self.recv_bytes = 0
        self.recv_s = 0.0

    def snapshot(self) -> dict[str, float]:
        return dict(vars(self))


class CountingEndpoint(Endpoint):
    """Transparent :class:`Endpoint` proxy feeding :class:`LinkCounters`."""

    def __init__(self, inner: Endpoint, counters: LinkCounters, spans: Spans) -> None:
        self._inner = inner
        self._counters = counters
        self._spans = spans

    def send(self, data) -> int:
        c = self._counters
        with self._spans.span("transport.send"):
            t0 = time.perf_counter()
            n = self._inner.send(data)
            c.send_s += time.perf_counter() - t0
        c.send_calls += 1
        c.send_bytes += n
        return n

    def send_vectors(self, buffers) -> int:
        c = self._counters
        with self._spans.span("transport.send"):
            t0 = time.perf_counter()
            n = self._inner.send_vectors(buffers)
            c.send_s += time.perf_counter() - t0
        c.send_calls += 1
        c.send_bytes += n
        return n

    def recv(self, n: int) -> bytes:
        c = self._counters
        with self._spans.span("transport.recv"):
            t0 = time.perf_counter()
            data = self._inner.recv(n)
            c.recv_s += time.perf_counter() - t0
        c.recv_calls += 1
        c.recv_bytes += len(data)
        return data

    def settimeout(self, timeout: float | None) -> None:
        self._inner.settimeout(timeout)

    def gettimeout(self) -> float | None:
        return self._inner.gettimeout()

    def shutdown_write(self) -> None:
        self._inner.shutdown_write()

    def close(self) -> None:
        self._inner.close()


class _Bucket:
    __slots__ = ("tokens", "stamp", "lock")

    def __init__(self, burst: int) -> None:
        self.tokens = float(burst)
        self.stamp = time.monotonic()
        self.lock = threading.Lock()


class PacedEndpoint(Endpoint):
    """Token-bucket pacing of both directions of a real socket.

    ``repro.transport.PacedEndpoint`` is not used because it paces sends
    only and its default burst is a tenth of the rate, 1 MB at
    80 Mbit/s.  That burst swallows AdOC's whole 256 KB bandwidth probe,
    which then reads above the 500 Mbit/s fast-network threshold, so the
    store direction is sent raw (a 4 MB ascii store: wire ratio 1.00,
    against 3.25 through this class).  Here each call moves at most
    ``burst`` bytes and debits the direction's bucket, sleeping off any
    deficit, so the probe and the reception thread both see the
    configured rate.
    """

    def __init__(self, inner: Endpoint, rate_bps: float, burst: int = 16 * 1024) -> None:
        self._inner = inner
        self._rate = rate_bps / 8.0
        self._burst = burst
        self._tx = _Bucket(burst)
        self._rx = _Bucket(burst)

    def _debit(self, bucket: _Bucket, nbytes: int) -> None:
        with bucket.lock:
            now = time.monotonic()
            bucket.tokens = min(
                self._burst, bucket.tokens + (now - bucket.stamp) * self._rate
            )
            bucket.stamp = now
            bucket.tokens -= nbytes
            deficit = -bucket.tokens
        if deficit > 0:
            time.sleep(deficit / self._rate)

    def _refund(self, bucket: _Bucket, nbytes: int) -> None:
        with bucket.lock:
            bucket.tokens += nbytes

    def send(self, data) -> int:
        chunk = memoryview(data)[: self._burst]
        self._debit(self._tx, len(chunk))
        sent = self._inner.send(chunk)
        if sent < len(chunk):
            self._refund(self._tx, len(chunk) - sent)
        return sent

    def recv(self, n: int) -> bytes:
        data = self._inner.recv(min(n, self._burst))
        if data:
            self._debit(self._rx, len(data))
        return data

    def settimeout(self, timeout: float | None) -> None:
        self._inner.settimeout(timeout)

    def gettimeout(self) -> float | None:
        return self._inner.gettimeout()

    def shutdown_write(self) -> None:
        self._inner.shutdown_write()

    def close(self) -> None:
        self._inner.close()


class TimedSocket:
    """Proxy for an ``AdocSocket``: spans and timings of its public calls.

    Installed as ``AdocCommunicator.socket`` (or used directly by the
    bulk workload), so the middleware above it calls through unchanged.
    """

    def __init__(self, sock, spans: Spans) -> None:
        self._sock = sock
        self._spans = spans
        self.write_s: list[float] = []
        self.write_bytes = 0
        self.read_bytes = 0
        self.close_s: float | None = None
        #: ``stats.snapshot()`` taken just before close (the descriptor,
        #: and with it ``stats``, is gone afterwards).
        self.final_stats = None

    def write(self, buf):
        with self._spans.span("core.write"):
            t0 = time.perf_counter()
            result = self._sock.write(buf)
            self.write_s.append(time.perf_counter() - t0)
        self.write_bytes += len(buf)
        return result

    def write_levels(self, buf, min_level: int, max_level: int):
        with self._spans.span("core.write"):
            t0 = time.perf_counter()
            result = self._sock.write_levels(buf, min_level, max_level)
            self.write_s.append(time.perf_counter() - t0)
        self.write_bytes += len(buf)
        return result

    def read(self, n: int) -> bytes:
        with self._spans.span("core.read"):
            data = self._sock.read(n)
        self.read_bytes += len(data)
        return data

    def read_exact(self, n: int) -> bytes:
        with self._spans.span("core.read"):
            data = self._sock.read_exact(n)
        self.read_bytes += len(data)
        return data

    @property
    def stats(self):
        return self._sock.stats

    def close(self) -> int:
        self.final_stats = self._sock.stats.snapshot()
        with self._spans.span("core.close"):
            t0 = time.perf_counter()
            try:
                return self._sock.close()
            finally:
                self.close_s = time.perf_counter() - t0
