"""The blocking AdOC sender: a dispatcher thread and an emission loop.

The sending half of Figure 1, as a thin driver of the send core
(:mod:`repro.core.sendcore`), which decides the path, each buffer's
level, degradation and the divergence windows.  This module moves the
bytes: small messages go out as one vectored send and the probe as a
timed raw send, both from the calling thread; the pipeline runs a
**dispatcher** thread that reads ``buffer_size`` buffers, hands each to
a codec executor at the core's level and drains completions — in
submission order — into the FIFO packet queue, which the calling
thread's **emission loop** drains into the socket.

The executor is the process-wide shared codec pool
(``AdocConfig.compress_workers``), so N buffers compress on N cores
with a byte-identical wire; or a synchronous executor — the paper's
single compression thread — for ``compress_workers=0``, for messages
shorter than :data:`_MIN_POOLED_BUFFERS` buffers, and after the pool
closes mid-message.

Any :class:`~repro.core.sources.ChunkSource` feeds the engine (zero-copy
views of in-memory payloads, bounded file chunks, END-terminated pipes),
so peak resident payload is O(buffer_size).  Record headers ride as
packet *prefixes* and queued packets are coalesced into vectored sends,
so the hot path never copies payload bytes.  ``tests/golden`` pins the
wire.
"""

from __future__ import annotations

import threading
import time
from functools import partial
from typing import Any, BinaryIO, Callable

from ..analysis.lockgraph import make_condition, make_lock
from ..obs.telemetry import Telemetry, resolve_telemetry
from ..transport.base import Endpoint, TransportTimeout, sendall_vectors
from .compressor import compress_buffer
from .config import AdocConfig, DEFAULT_CONFIG
from .deadlines import DeadlineExceeded, TransferError
from .fifo import PacketQueue, QueueClosed, QueuedPacket
from .sendcore import (
    BYPASS,
    PROBE,
    SendCore,
    SendMessage,
    SendResult,
    raw_message_vectors,
    raw_record_vectors,
)
from .sources import BytesSource, ChunkSource, source_for_stream
from .stats import ConnectionStats

__all__ = ["SendResult", "MessageSender", "raw_message_vectors"]

#: Upper bound on packets coalesced into one vectored send.  Each
#: packet contributes at most two vectors (prefix + payload), so a
#: batch stays well under the transport's IOV_MAX while still amortising
#: the per-send cost across a full queue burst.
_MAX_BATCH = 64

#: A known-length message shorter than this many buffers compresses on
#: the synchronous executor even when pooling is enabled: with fewer
#: buffers than a worker window there is nothing to overlap, and the
#: pool's hand-off gaps would let the emission side drain the queue
#: between buffers, distorting the Figure-2 signal for messages too
#: short to ever reach steady state.
_MIN_POOLED_BUFFERS = 4


class _SyncExecutor:
    """Runs each codec job in the submitting thread, then reports it."""

    workers = 0

    def submit(self, fn: Callable[..., Any], *args: Any, on_done) -> None:
        try:
            result = fn(*args)
        except Exception as exc:  # adoclint: disable=ADOC106 -- graceful degradation by design: the failure goes to on_done, the core ships the buffer raw and SendResult.degraded reports it
            on_done(None, exc)
            return
        on_done(result, None)


_SYNC = _SyncExecutor()


class _Completions:
    """Codec completions, handed to the dispatcher by buffer id.

    Pushers are pool workers and must never block (a slow connection
    must not stall the shared pool), so the store is unbounded — its
    size is capped by the core's in-flight window.  The popping
    dispatcher bounds its wait with ``timeout``; the lock is a leaf.
    """

    def __init__(self) -> None:
        self._lock = make_lock("sender.completions.lock")
        self._ready = make_condition(self._lock, "sender.completions.ready")
        self._items: dict[int, tuple] = {}

    def done(self, buffer_id, buf, level, mode, outcome, error) -> None:
        """A codec ``on_done`` callback, its job's details bound first."""
        with self._lock:
            self._items[buffer_id] = (buf, level, outcome, error, mode)
            self._ready.notify()

    def pop(self, buffer_id: int, timeout: float | None) -> tuple:
        with self._lock:
            if not self._ready.wait_for(lambda: buffer_id in self._items, timeout):
                raise DeadlineExceeded("compression result overdue", stage="compress")
            return self._items.pop(buffer_id)

    def drain(self, count: int, timeout: float) -> None:
        """Wait (bounded) until ``count`` outstanding jobs have reported.

        Failure-path helper: the borrowed buffers those jobs hold must
        be released before the send call unwinds.  Gives up quietly at
        the deadline — the jobs run on daemon threads and the message
        is being torn down anyway.
        """
        with self._lock:
            self._ready.wait_for(lambda: len(self._items) >= count, timeout)
            self._items.clear()


class MessageSender:
    """Sends messages over one endpoint with AdOC semantics.

    One instance per connection: its :class:`SendCore` keeps the
    divergence guard's per-level bandwidth records across messages,
    exactly as the C library's per-descriptor state does.
    """

    def __init__(
        self,
        endpoint: Endpoint,
        config: AdocConfig = DEFAULT_CONFIG,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.endpoint = endpoint
        self.config = config
        self.clock = clock
        self.core = SendCore(config, clock)
        self.divergence = self.core.divergence
        self.telemetry: Telemetry = resolve_telemetry(config)
        self.stats = ConnectionStats(self.telemetry)
        if self.telemetry.enabled:
            self.telemetry.register_connection("send", self)

    # -- public entry points -------------------------------------------------

    def send(self, data: bytes | bytearray | memoryview, config: AdocConfig | None = None) -> SendResult:
        """Send one in-memory message; blocks until fully emitted.

        The buffer is *borrowed*, never copied: it must stay unchanged
        until the call returns (the same contract as ``writev``).
        """
        result = self._send_source(BytesSource(data), config or self.config)
        self.stats.record_send(result)
        return result

    def send_stream(self, stream: BinaryIO, config: AdocConfig | None = None) -> SendResult:
        """Send a file object, streaming it in ``buffer_size`` chunks.

        Seekable streams get a known-length message (and the small/probe
        fast paths); pipes fall back to an END-terminated message
        through the adaptive pipeline.  Either way only one chunk of the
        stream is resident at a time.
        """
        result = self._send_source(source_for_stream(stream), config or self.config)
        self.stats.record_send(result)
        return result

    # -- the streaming engine ------------------------------------------------

    def _send_source(self, source: ChunkSource, cfg: AdocConfig) -> SendResult:
        """One message from any source, with bounded blocking.

        When ``cfg.io_timeout_s`` is set, every blocking step — raw
        sends, the probe, queue hand-offs, the emission loop — is
        bounded, and a stalled transport surfaces as
        :exc:`~repro.core.deadlines.DeadlineExceeded` (a structured
        ``TransferError``) instead of a thread parked forever.
        """
        if cfg.io_timeout_s is not None and hasattr(self.endpoint, "settimeout"):
            self.endpoint.settimeout(cfg.io_timeout_s)
        try:
            return self._send_message(source, self.core.begin(source.length, cfg))
        except TransportTimeout as exc:
            raise DeadlineExceeded(
                f"send stalled past {cfg.io_timeout_s}s: {exc}", stage="send"
            ) from exc

    def _send_message(self, source: ChunkSource, msg: SendMessage) -> SendResult:
        """Drive the core's ladder for one message."""
        cfg = msg.config
        if msg.path == BYPASS and source.zero_copy:
            # The whole message in one vectored send: no thread, no copy.
            vectors = raw_record_vectors(source.read(msg.total))
            msg.wire_bytes += sendall_vectors(self.endpoint, [msg.header, *vectors])
            return msg.finish()
        msg.wire_bytes += sendall_vectors(self.endpoint, [msg.header])
        if msg.path == BYPASS:
            msg.wire_bytes += self._send_raw(source, cfg.buffer_size)
            return msg.finish()
        if msg.path == PROBE:
            probe = source.read_exact(msg.probe_bytes)
            t0 = self.clock()
            msg.wire_bytes += sendall_vectors(
                self.endpoint, raw_record_vectors(probe, cfg.buffer_size)
            )
            if msg.probe_done(len(probe), self.clock() - t0):
                # Very fast network: ship the rest raw.  Record
                # boundaries continue from the probe offset.
                msg.wire_bytes += self._send_raw(source, cfg.buffer_size)
                return msg.finish()
        consumed = self._run_pipeline(source, msg)
        if msg.trailer:
            msg.wire_bytes += sendall_vectors(self.endpoint, [msg.trailer])
        return msg.finish(consumed)

    def _send_raw(self, source: ChunkSource, size: int) -> int:
        """Send the rest of ``source`` as raw records of up to ``size``."""
        wire = 0
        while len(chunk := source.read(size)):
            wire += sendall_vectors(self.endpoint, raw_record_vectors(chunk))
        return wire

    # -- the adaptive pipeline -----------------------------------------------

    def _run_pipeline(self, source: ChunkSource, msg: SendMessage) -> int:
        """Dispatcher thread + emission loop over the source's remainder.

        Returns how much payload the pipeline pulled from the source.
        """
        cfg = msg.config
        tele = resolve_telemetry(cfg)
        queue: PacketQueue = PacketQueue(cfg.queue_capacity, tele, "send")
        error: list[BaseException] = []
        consumed = [0]
        worker = threading.Thread(
            target=self._dispatch,
            args=(source, msg, queue, error, consumed, tele),
            name="adoc-compress",
            daemon=True,
        )
        worker.start()
        try:
            with tele.span("emit"):
                self._emission_loop(queue, msg)
        except BaseException as exc:
            # The emission loop already closed the queue; the worker
            # unblocks on QueueClosed.  Bound the join so the failure
            # path can never hang on a wedged worker.
            worker.join(cfg.join_timeout_s)
            if isinstance(exc, TransportTimeout):
                raise DeadlineExceeded(
                    f"emission stalled past {cfg.io_timeout_s}s: {exc}",
                    stage="send",
                ) from exc
            raise
        worker.join(cfg.join_timeout_s)
        if worker.is_alive():
            queue.close()
            worker.join(cfg.join_timeout_s)
            if worker.is_alive():
                raise TransferError(
                    "compression thread failed to stop after the message "
                    "was emitted",
                    stage="teardown",
                )
        if error:
            exc = error[0]
            if isinstance(exc, TransportTimeout):
                raise DeadlineExceeded(
                    f"compression side stalled: {exc}", stage="send"
                ) from exc
            raise exc
        return consumed[0]

    def _dispatch(
        self,
        source: ChunkSource,
        msg: SendMessage,
        queue: PacketQueue,
        error: list[BaseException],
        consumed: list[int],
        tele: Telemetry,
    ) -> None:
        """Keep the core's window of buffers at the codec; emit in order.

        Backpressure blocks *this* thread when it enqueues packets,
        never a pool worker, so a slow connection cannot stall other
        connections' codec work.  If the shared pool is closed
        mid-message (process shutdown racing a transfer), the message
        finishes on the synchronous executor.
        """
        cfg = msg.config
        timeout = cfg.io_timeout_s
        completions = _Completions()
        stream_key = object()  # per-message identity for in-order delivery
        try:
            executor = self._executor(cfg, msg.total)
            msg.start_pipeline(executor.workers)
            with tele.span("compress"):
                while True:
                    while executor is not None and msg.can_submit():
                        executor = self._submit_next(
                            source, msg, queue, consumed, executor,
                            completions, stream_key,
                        )
                    if msg.inflight == 0:
                        break
                    # complete() takes the buffer out of flight before
                    # its packets are enqueued: if the enqueue fails,
                    # the drain below waits only for jobs outstanding.
                    bid = msg.next_completion
                    records = msg.complete(bid, *completions.pop(bid, timeout))
                    for pkt in msg.packets(records, bid):
                        queue.put(pkt, timeout)
                    records = pkt = None  # hold no buffer during the next one
        except QueueClosed:
            pass  # emission side failed; it carries the real error
        except BaseException as exc:  # noqa: BLE001 - reported to caller
            error.append(exc)
        finally:
            # A dead message's borrowed input buffers, still held by
            # in-flight jobs, must not outlive the send call (the caller
            # may reuse them the moment it returns): wait, bounded.
            if msg.inflight:
                completions.drain(msg.inflight, cfg.join_timeout_s)
            queue.close()

    def _submit_next(
        self,
        source: ChunkSource,
        msg: SendMessage,
        queue: PacketQueue,
        consumed: list[int],
        executor: Any,
        completions: _Completions,
        stream_key: object,
    ) -> Any:
        """Hand the source's next buffer to the codec at the core's level.

        Returns the executor for the buffers after it — the synchronous
        one once the shared pool has closed — or ``None`` at the end of
        the source.
        """
        cfg = msg.config
        buf = source.read(cfg.buffer_size)
        if not len(buf):
            return None
        consumed[0] += len(buf)
        bid, level = msg.submit(len(buf), queue.size())
        job = (compress_buffer, buf, level, msg.guard, cfg)
        done = partial(completions.done, bid, buf, level)
        if executor is not _SYNC:
            from ..serve.pool import PoolClosed  # serve sits above core

            try:
                executor.submit(
                    *job, key=stream_key, on_done=partial(done, "pooled"),
                    timeout=cfg.io_timeout_s,
                )
                return executor
            except PoolClosed:
                msg.one_at_a_time()
        _SYNC.submit(*job, on_done=partial(done, "inline"))
        return _SYNC

    def _executor(self, cfg: AdocConfig, total: int | None) -> Any:
        """The shared codec pool, or the synchronous executor.

        ``compress_workers=0`` opts out (the paper's original two-thread
        pipeline); a compression-disabled stream is all raw records, so
        pooling would be pure overhead; short known-length messages
        stay synchronous too (see :data:`_MIN_POOLED_BUFFERS`).
        Unknown-length sources (pipes) are pooled: they are open-ended
        streams.  The import is lazy because :mod:`repro.serve` sits
        above this module in the package graph.
        """
        if cfg.compress_workers == 0 or cfg.compression_disabled:
            return _SYNC
        if total is not None and total < _MIN_POOLED_BUFFERS * cfg.buffer_size:
            return _SYNC
        from ..serve.pool import shared_pool

        return shared_pool(cfg.compress_workers)

    def _emission_loop(self, queue: PacketQueue, msg: SendMessage) -> None:
        """Drain the queue into the socket, reporting each packet.

        Packets already queued under the same (buffer, level) window are
        coalesced into one vectored send (up to :data:`_MAX_BATCH`
        packets), so a burst of framed packets costs one syscall
        instead of one per packet.
        """
        timeout = msg.config.io_timeout_s
        msg.open_windows()
        pending: QueuedPacket | None = None
        try:
            while True:
                pkt = pending if pending is not None else queue.get(timeout)
                pending = None
                if pkt is None:
                    break
                key = (pkt.buffer_id, pkt.level)
                vectors: list[bytes | memoryview] = []
                count = 0
                while True:
                    msg.emitting(pkt)
                    if pkt.prefix:
                        vectors.append(pkt.prefix)
                    if len(pkt.payload):
                        vectors.append(pkt.payload)
                    count += 1
                    if count >= _MAX_BATCH:
                        break
                    nxt = queue.poll()
                    if nxt is None:
                        break
                    if (nxt.buffer_id, nxt.level) != key:
                        pending = nxt
                        break
                    pkt = nxt
                sendall_vectors(self.endpoint, vectors)
        except BaseException:
            queue.close()  # unblock the dispatcher
            raise

