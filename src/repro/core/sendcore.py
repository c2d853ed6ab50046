"""The send core: AdOC's whole send ladder, once, with no I/O.

This module is the only place the sender's logic (paper sections 3 and
5) lives.  It owns no thread, socket or timer and reads an injected
clock: drivers report observations (message length, queue depth, probe
timing, codec outcomes, packets leaving for the wire) and get decisions
and framing back.  The drivers are the blocking
:class:`~repro.core.sender.MessageSender`, the reactor
:class:`~repro.serve.channel.AdocChannel`, and
:func:`~repro.simulator.pipeline.simulate_adoc_message`, which feeds it
modelled costs on the simulation clock.

Per message (:meth:`SendCore.begin`): a **bypass** when compression is
disabled or a known-length message is below ``small_message_threshold``
unforced; else, unless forced, a timed raw **probe** of ``probe_size``
bytes (:meth:`SendMessage.probe_done`) — above ``fast_network_bps`` the
rest goes raw, and the probe doubles as two level-0 divergence windows;
else the **pipeline**: a Figure-2 level per ``buffer_size`` buffer
(:meth:`SendMessage.submit`) with buffers still at a codec counted at
their raw packetization and a slow-start in-flight window; a codec
failure ships the buffer raw and pins the rest to level 0
(:meth:`SendMessage.complete`); records become packets counted against
the incompressible guard's holdoff (:meth:`SendMessage.packets`); and
packets leaving for the wire close (buffer, level) windows that feed
the divergence guard (:meth:`SendMessage.emitting`).

The divergence records persist across messages (one per connection, as
in the C library); the level adapter and incompressible guard are per
message.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator

from ..obs.telemetry import Telemetry, resolve_telemetry
from .adaptation import LevelAdapter
from .config import AdocConfig, DEFAULT_CONFIG
from .divergence import DivergenceGuard
from .fifo import QueuedPacket
from .guards import IncompressibleGuard
from .packets import Record, end_record_bytes, pack_message_header, pack_record_header

__all__ = [
    "BYPASS",
    "PROBE",
    "PIPELINE",
    "SendCore",
    "SendMessage",
    "SendResult",
    "raw_message_vectors",
    "raw_record_vectors",
]

_log = logging.getLogger("repro.core.sendcore")

#: The three paths a message can take down the ladder.
BYPASS = "bypass"
PROBE = "probe"
PIPELINE = "pipeline"

#: Shortest time a probe or a bandwidth window is taken to have lasted:
#: a burst the socket buffer absorbs instantly must not divide by zero.
_MIN_ELAPSED_S = 1e-9


@dataclass
class SendResult:
    """What one message send did.

    ``wire_bytes`` is the paper's ``*slen`` out-parameter: bytes that
    actually crossed the wire (headers included), so the achieved
    compression ratio is ``payload_bytes / wire_bytes``.
    """

    payload_bytes: int
    wire_bytes: int
    elapsed_s: float
    pipeline_used: bool = False
    probe_bps: float | None = None
    fast_path: bool = False
    levels_used: dict[int, int] = field(default_factory=dict)
    guard_trips: int = 0
    #: True when a codec failure forced the stream down to raw
    #: (level 0) mid-message — the payload still arrived intact.
    degraded: bool = False

    @property
    def compression_ratio(self) -> float:
        if self.wire_bytes == 0:
            return 1.0
        return self.payload_bytes / self.wire_bytes


def raw_record_vectors(
    data: bytes | memoryview, size: int | None = None
) -> list[bytes | memoryview]:
    """Raw (level-0) records of ``size`` bytes (default: one record)
    covering ``data``, as vectors: each header, then its payload view."""
    size = size or max(len(data), 1)
    vectors: list[bytes | memoryview] = []
    for off in range(0, len(data), size):
        chunk = data[off : off + size]
        vectors += (pack_record_header(0, len(chunk), len(chunk)), chunk)
    return vectors


def raw_message_vectors(
    data: bytes | bytearray | memoryview,
) -> list[bytes | memoryview]:
    """Frame one in-memory payload as a whole raw message.

    Message header, record header, payload view — no copy: the bytes
    the small-message bypass emits.
    """
    view = data if isinstance(data, memoryview) else memoryview(data)
    return [pack_message_header(len(data)), *raw_record_vectors(view)]


def _packetize(
    rec: Record, packet_size: int, buffer_id: int = 0
) -> Iterator[QueuedPacket]:
    """Split one record into packet-size slices, header as first prefix.

    The 9-byte record header rides on the first packet's ``prefix``
    instead of being copied into a serialized buffer; payload slices
    stay views of the record's payload.  Original bytes are attributed
    to slices pro rata, remainder to the last slice, so per-level
    bandwidth accounting sums exactly.
    """
    payload = rec.payload
    n = len(payload)
    prefix = rec.header_bytes()
    if n == 0:
        yield QueuedPacket(b"", rec.level, rec.original_size, buffer_id, prefix)
        return
    assigned = 0
    for off in range(0, n, packet_size):
        chunk = payload[off : off + packet_size]
        if off + len(chunk) >= n:
            orig = rec.original_size - assigned
        else:
            orig = rec.original_size * len(chunk) // n
        assigned += orig
        yield QueuedPacket(chunk, rec.level, orig, buffer_id, prefix)
        prefix = b""


def _packets_for(nbytes: int, packet_size: int) -> int:
    """Packets a buffer would occupy uncompressed (ceiling division)."""
    return -(-nbytes // packet_size)


class SendCore:
    """Per-connection send state: the divergence records and the clock.

    ``divergence`` may be shared across cores (the simulator models one
    connection over several calls); ``use_divergence=False`` removes
    the guard (ablation).  ``adapter_factory(config, divergence,
    incompressible_guard)`` substitutes another level controller.
    """

    def __init__(
        self,
        config: AdocConfig = DEFAULT_CONFIG,
        clock: Callable[[], float] = time.monotonic,
        divergence: DivergenceGuard | None = None,
        use_divergence: bool = True,
        adapter_factory: Callable[..., LevelAdapter] | None = None,
        telemetry: Telemetry | None = None,
    ) -> None:
        self.config = config
        self.clock = clock
        if use_divergence:
            self.divergence: DivergenceGuard | None = divergence or DivergenceGuard(
                config.divergence_forbid_s
            )
        else:
            self.divergence = None
        self.adapter_factory = adapter_factory
        self.telemetry = telemetry

    def begin(
        self, total: int | None, config: AdocConfig | None = None
    ) -> "SendMessage":
        """Start one message of ``total`` bytes (``None``: unknown)."""
        return SendMessage(self, total, config or self.config)


class SendMessage:
    """One message's walk down the ladder.  See the module docstring.

    Drivers read :attr:`path` and :attr:`header`, report what they did,
    and add the bytes they put on the wire to :attr:`wire_bytes`.
    """

    def __init__(self, core: SendCore, total: int | None, config: AdocConfig) -> None:
        self.core = core
        self.config = cfg = config
        self.total = total
        self.started = core.clock()
        self.header = pack_message_header(total or 0, length_known=total is not None)
        #: Bytes closing the message: the END record of an unknown-length one.
        self.trailer = b"" if total is not None else end_record_bytes()
        if total is None:
            self.path = PIPELINE
        elif cfg.compression_disabled or (
            not cfg.compression_forced and total < cfg.small_message_threshold
        ):
            self.path = BYPASS
        elif cfg.compression_forced:
            self.path = PIPELINE
        else:
            self.path = PROBE
        #: Leading bytes to send raw and time (probe path only).
        self.probe_bytes = min(cfg.probe_size, total) if self.path == PROBE else 0
        self.probe_bps: float | None = None
        self.fast_path = False
        self.pipeline_used = False
        self.degraded = False
        self.wire_bytes = 0
        self.levels_used: dict[int, int] = {}
        # Pipeline state, set up by start_pipeline().
        self.guard: IncompressibleGuard | None = None
        self.adapter: LevelAdapter | None = None
        self.telemetry: Telemetry | None = None
        #: Buffers handed to a codec and not yet completed.
        self.inflight = 0
        #: Their raw packetization: part of the Figure-2 queue signal.
        self.pending_packets = 0
        self._window = 1
        self._window_cap = 1
        self.next_completion = 0
        # The emission side's current (buffer, level) bandwidth window.
        self._win_key: tuple[int, int] | None = None
        self._win_start = 0.0
        self._win_orig = 0

    # -- the probe ---------------------------------------------------------

    def probe_done(self, nbytes: int, elapsed: float) -> bool:
        """Record a raw probe of ``nbytes`` that took ``elapsed`` seconds.

        The sender has no feedback channel, so the estimate is how fast
        the link accepted the bytes.  Returns True when that exceeds
        ``fast_network_bps``: the rest of the message then goes raw.
        The probe is also a measured level-0 transfer, fed to the
        divergence guard as two windows so raw throughput has a trusted
        record even when the queue never empties.
        """
        elapsed = max(elapsed, _MIN_ELAPSED_S)
        divergence = self.core.divergence
        if divergence is not None:
            divergence.observe(0, nbytes // 2, elapsed / 2)
            divergence.observe(0, nbytes - nbytes // 2, elapsed / 2)
        self.probe_bps = nbytes * 8.0 / elapsed
        self.fast_path = self.probe_bps > self.config.fast_network_bps
        return self.fast_path

    # -- level decisions and in-flight accounting --------------------------

    def start_pipeline(self, workers: int = 0) -> None:
        """Enter the adaptive pipeline; ``workers`` codecs run in parallel.

        ``workers=0`` means buffers compress one at a time in order, so
        exactly one may be in flight — the paper's single compression
        thread.  Otherwise up to ``max(2, 2 * workers)`` may be.
        """
        cfg = self.config
        core = self.core
        self.pipeline_used = True
        self._window_cap = max(2, 2 * workers) if workers else 1
        self.telemetry = (
            core.telemetry if core.telemetry is not None else resolve_telemetry(cfg)
        )
        self.guard = IncompressibleGuard(
            cfg.incompressible_ratio, cfg.incompressible_holdoff
        )
        if core.adapter_factory is not None:
            self.adapter = core.adapter_factory(cfg, core.divergence, self.guard)
        else:
            self.adapter = LevelAdapter(
                cfg, core.divergence, self.guard, self.telemetry
            )

    def one_at_a_time(self) -> None:
        """From now on compress one buffer at a time (codec pool gone)."""
        self._window = self._window_cap = 1

    def can_submit(self) -> bool:
        """True while another buffer fits in the in-flight window."""
        return self.inflight < self._window

    def submit(self, nbytes: int, queued_packets: int) -> tuple[int, int]:
        """Decide the level for the next ``nbytes`` buffer.

        ``queued_packets`` is what the driver's send queue holds; the
        buffers still at a codec are added at their raw packetization
        (an upper bound — their compressed size is not known yet), so
        the Figure-2 signal counts everything committed to the wire.
        Returns ``(buffer_id, level)`` and counts the buffer in flight.
        """
        assert self.adapter is not None, "start_pipeline() first"
        cfg = self.config
        level = self.adapter.next_level(
            queued_packets + self.pending_packets, self.core.clock()
        )
        if cfg.compression_disabled or self.degraded:
            level = 0
        buffer_id = self.next_completion + self.inflight
        self.inflight += 1
        self.pending_packets += _packets_for(nbytes, cfg.packet_size)
        return buffer_id, level

    def buffer_done(self, buffer_id: int, nbytes: int) -> None:
        """A buffer left the codec; buffers complete in submission order."""
        assert buffer_id == self.next_completion, (
            f"buffer {buffer_id} completed, expected {self.next_completion}"
        )
        self.next_completion += 1
        self.inflight -= 1
        self.pending_packets -= _packets_for(nbytes, self.config.packet_size)
        if self._window < self._window_cap:
            self._window += 1

    def complete(
        self,
        buffer_id: int,
        buf: bytes | memoryview,
        level: int,
        outcome: tuple[list[Record], bool] | None,
        error: BaseException | None,
        mode: str = "inline",
    ) -> list[Record]:
        """Turn one buffer's codec outcome into records.

        ``outcome`` is what :func:`~repro.core.compressor.compress_buffer`
        returned.  A codec failure (``error``) must not kill the message:
        the buffer ships raw and every later decision is pinned to level
        0 — raw records are always legal, the receiver needs nothing.
        """
        self.buffer_done(buffer_id, len(buf))
        tele = self.telemetry
        if error is not None or outcome is None:
            self.degraded = True
            records = [Record(0, len(buf), buf)]
            _log.warning(
                "codec failed at level %d on buffer %d; degrading stream to raw",
                level, buffer_id,
            )
            tele.event("degraded", "codec_failure", buffer_id=buffer_id, level=level)
        else:
            records = outcome[0]
        if tele.enabled:
            tele.tracer.record(
                "buffer", "buffer_compressed", buffer_id=buffer_id, level=level,
                in_bytes=len(buf), out_bytes=sum(len(r.payload) for r in records),
            )
            counter = tele.metrics.counter
            counter(
                "adoc_compress_buffers_total",
                "buffers through the send compression stage", ("mode",),
            ).inc(mode=mode)
            counter(
                "adoc_compress_bytes_total",
                "payload bytes through the send compression stage", ("mode",),
            ).inc(len(buf), mode=mode)
            if error is not None:
                counter(
                    "adoc_compress_degraded_total",
                    "buffers shipped raw after a codec failure", ("mode",),
                ).inc(mode=mode)
        return records

    # -- records -> packets -> wire ----------------------------------------

    def packets(
        self, records: Iterable[Record], buffer_id: int
    ) -> Iterator[QueuedPacket]:
        """The packets of ``records``, in wire order.

        Each packet counts against the incompressible guard's holdoff
        once the driver has taken it (after the ``yield`` returns), so a
        driver blocked handing a packet on has not emitted it yet.
        """
        packet_size = self.config.packet_size
        guard = self.guard
        for rec in records:
            for pkt in _packetize(rec, packet_size, buffer_id):
                yield pkt
                if guard is not None:
                    guard.note_packet_emitted()

    def open_windows(self) -> None:
        """The emission side starts draining: the first window opens."""
        self._win_start = self.core.clock()

    def emitting(self, pkt: QueuedPacket) -> None:
        """A packet goes to the wire.

        Visible bandwidth is measured over (buffer, level) windows:
        per-packet send gaps are dominated by socket-buffer absorption
        and would credit whichever level runs while the buffer has room,
        while a whole buffer measures the sustained rate at its level.
        A window is observed when the next one starts.  The last window
        of a message has no successor to bound it — it would end when
        the socket buffer swallows the tail, reading hundreds of MB/s
        or more — so it is never observed: that one reading would
        outweigh the link rate in the record the next message on the
        connection starts from, and veto compression there.
        """
        key = (pkt.buffer_id, pkt.level)
        if key != self._win_key:
            if self._win_key is not None:
                now = self.core.clock()
                self._observe_window(now)
                self._win_start = now
                self._win_orig = 0
            self._win_key = key
        self._win_orig += pkt.original_bytes
        self.wire_bytes += pkt.wire_length
        self.levels_used[pkt.level] = self.levels_used.get(pkt.level, 0) + 1

    def _observe_window(self, now: float) -> None:
        divergence = self.core.divergence
        if divergence is not None and self._win_orig > 0:
            divergence.observe(
                self._win_key[1],
                self._win_orig,
                max(now - self._win_start, _MIN_ELAPSED_S),
            )

    # -- the outcome -------------------------------------------------------

    def finish(self, consumed: int = 0) -> SendResult:
        """The :class:`SendResult`; ``consumed`` sizes an unknown length."""
        return SendResult(
            self.total if self.total is not None else consumed,
            self.wire_bytes,
            self.core.clock() - self.started,
            pipeline_used=self.pipeline_used,
            probe_bps=self.probe_bps,
            fast_path=self.fast_path,
            levels_used=self.levels_used,
            guard_trips=self.guard.trips if self.guard is not None else 0,
            degraded=self.degraded,
        )
