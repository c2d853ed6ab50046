"""Channels: roundtrips, blocking-engine interop, wire byte-identity."""

from __future__ import annotations

import threading
import time

import pytest

from repro.core import DEFAULT_CONFIG, AdocConfig, AdocSocket
from repro.core.api import adoc_attach, adoc_detach, adoc_read, adoc_write
from repro.core.sender import MessageSender, raw_message_vectors
from repro.data import ascii_data, incompressible_data
from repro.serve.channel import AdocChannel, NonBlockingEndpoint, PlainChannel
from repro.serve.pool import WorkerPool
from repro.serve.reactor import Reactor
from repro.transport import socketpair_endpoints

from ..golden.util import (
    GOLDEN_CFG,
    SHAPES,
    current_zlib_version,
    fixture_path,
    recorded_zlib_version,
)
from .test_reactor import run_on_loop

#: Small buffers so even modest payloads exercise the chunk pipeline;
#: no io timeout — these tests assert logic, not stall detection.
CFG = AdocConfig(
    buffer_size=16 * 1024,
    packet_size=2 * 1024,
    slice_size=2 * 1024,
    small_message_threshold=8 * 1024,
    probe_size=4 * 1024,
    io_timeout_s=None,
)
#: max_level=0 disables compression outright: the deterministic wire
#: shape shared byte-for-byte by both engines.
RAW_CFG = AdocConfig(
    min_level=0,
    max_level=0,
    small_message_threshold=8 * 1024,
    probe_size=4 * 1024,
    io_timeout_s=None,
)


@pytest.fixture
def loop(no_thread_leaks):
    reactor = Reactor(name="chan-test")
    pool = WorkerPool(workers=2, max_pending=64, name="chan-pool")
    reactor.run_in_thread()
    yield reactor, pool
    reactor.close()
    pool.close()


class Collector:
    """Reassemble messages at the boundaries the channel reports.

    ``on_data``/``on_message_end`` run on the loop thread; the chunk
    buffer is cut into a finished payload at each boundary there, so a
    test thread waiting on message N never races message N+1's bytes.
    """

    def __init__(self) -> None:
        self.chunks: list[bytes] = []
        self.payloads: list[bytes] = []
        self.messages = 0
        self.closed = threading.Event()
        self.close_error: BaseException | None = None
        self._cond = threading.Condition()

    def on_data(self, data: bytes) -> None:
        self.chunks.append(bytes(data))

    def on_message_end(self) -> None:
        with self._cond:
            self.payloads.append(b"".join(self.chunks))
            self.chunks.clear()
            self.messages += 1
            self._cond.notify_all()

    def on_close(self, error: BaseException | None) -> None:
        self.close_error = error
        self.closed.set()

    def wait_message(self, index: int = 0, timeout: float = 10.0) -> bytes:
        with self._cond:
            arrived = self._cond.wait_for(
                lambda: len(self.payloads) > index, timeout
            )
            assert arrived, f"message {index} never finished"
            return self.payloads[index]


def _wire(loop, cls, endpoint, collector, config=CFG, **kwargs):
    reactor, pool = loop
    if cls is AdocChannel:
        channel = cls(reactor, endpoint, pool, config)
        channel.on_message_end = collector.on_message_end
    else:
        channel = cls(reactor, endpoint, config)
    channel.on_data = collector.on_data
    channel.on_close = collector.on_close
    run_on_loop(reactor, channel.open)
    return channel


def test_plain_channels_pass_raw_bytes_both_ways(loop):
    reactor, _ = loop
    a, b = socketpair_endpoints()
    ca, cb = Collector(), Collector()
    cha = _wire(loop, PlainChannel, a, ca)
    chb = _wire(loop, PlainChannel, b, cb)
    run_on_loop(reactor, lambda: cha.send_message(b"ping"))
    run_on_loop(reactor, lambda: chb.send_message(b"pong"))
    deadline = threading.Event()
    for collector, expect in ((cb, b"ping"), (ca, b"pong")):
        for _ in range(1000):
            if b"".join(collector.chunks) == expect:
                break
            deadline.wait(0.01)
        assert b"".join(collector.chunks) == expect
    run_on_loop(reactor, cha.close)
    # Closing one side EOFs the other; its channel closes cleanly.
    assert cb.closed.wait(10.0)
    assert cb.close_error is None


def test_adoc_channel_roundtrip_compressed(loop):
    reactor, _ = loop
    a, b = socketpair_endpoints()
    ca, cb = Collector(), Collector()
    # Pinning min == max forces compression at a fixed level: the wire
    # must shrink regardless of how fast the backlog drains.
    forced = CFG.with_levels(6, 6)
    cha = _wire(loop, AdocChannel, a, ca, config=forced)
    chb = _wire(loop, AdocChannel, b, cb, config=forced)
    payload = ascii_data(300 * 1024, seed=3)
    run_on_loop(reactor, lambda: cha.send_message(payload))
    assert cb.wait_message() == payload
    assert cb.messages == 1
    assert cha.messages_out == 1 and chb.messages_in == 1
    # Compressible ASCII must actually compress on the wire.
    assert cha.bytes_out < len(payload)
    run_on_loop(reactor, cha.close)
    run_on_loop(reactor, chb.close)


def test_adoc_channel_queues_messages_while_tx_busy(loop):
    reactor, _ = loop
    a, b = socketpair_endpoints()
    ca, cb = Collector(), Collector()
    cha = _wire(loop, AdocChannel, a, ca)
    chb = _wire(loop, AdocChannel, b, cb)
    payloads = [ascii_data(100 * 1024, seed=i) for i in range(3)]

    def send_all() -> None:
        for p in payloads:
            cha.send_message(p)

    run_on_loop(reactor, send_all)
    for i, expected in enumerate(payloads):
        assert cb.wait_message(i) == expected
    assert chb.messages_in == 3
    run_on_loop(reactor, cha.close)
    run_on_loop(reactor, chb.close)


def test_reactor_sender_interops_with_blocking_reader(loop):
    # AdocChannel frames on one end, the blocking adoc_read engine
    # consumes on the other: wire compatibility by construction.
    reactor, _ = loop
    a, b = socketpair_endpoints()
    cha = _wire(loop, AdocChannel, a, Collector())
    fd = adoc_attach(b, CFG)
    payload = ascii_data(250 * 1024, seed=11)
    try:
        run_on_loop(reactor, lambda: cha.send_message(payload))
        got = bytearray()
        while len(got) < len(payload):
            got += adoc_read(fd, len(payload) - len(got))
        assert bytes(got) == payload
    finally:
        run_on_loop(reactor, cha.close)
        adoc_detach(fd)
        b.close()


def test_blocking_sender_interops_with_reactor_reader(loop):
    reactor, _ = loop
    a, b = socketpair_endpoints()
    cb = Collector()
    chb = _wire(loop, AdocChannel, b, cb)
    fd = adoc_attach(a, CFG)
    payload = ascii_data(250 * 1024, seed=12)
    try:
        sent = threading.Thread(
            target=adoc_write, args=(fd, payload), name="blocking-writer"
        )
        sent.start()
        sent.join(10.0)
        assert not sent.is_alive()
        assert cb.wait_message() == payload
    finally:
        run_on_loop(reactor, chb.close)
        adoc_detach(fd)
        a.close()


def test_raw_wire_bytes_identical_to_blocking_engine(loop):
    # Golden byte-identity on the deterministic (uncompressed) path:
    # the reactor channel and the blocking MessageSender must emit the
    # same bytes for the same message.
    class Capture:
        def __init__(self) -> None:
            self.buffer = bytearray()

        def send(self, data) -> int:
            self.buffer += data
            return len(data)

        def recv(self, n: int) -> bytes:
            return b""

        def close(self) -> None:
            pass

    payload = ascii_data(64 * 1024, seed=5)
    golden = Capture()
    MessageSender(golden, RAW_CFG).send(payload)

    reactor, _ = loop
    a, b = socketpair_endpoints()
    cha = _wire(
        loop, AdocChannel, a, Collector(),
        config=RAW_CFG,
    )
    run_on_loop(reactor, lambda: cha.send_message(payload))
    wire = bytearray()
    while len(wire) < len(golden.buffer):
        chunk = b.recv(65536)
        assert chunk, "reactor channel sent fewer bytes than the blocking engine"
        wire += chunk
    assert bytes(wire) == bytes(golden.buffer)
    run_on_loop(reactor, cha.close)
    b.close()


def test_small_message_bypass_matches_raw_vectors(loop):
    # Below the small-message threshold the channel frames raw inline —
    # identical to the blocking sender's bypass.
    reactor, _ = loop
    payload = b"tiny but framed"
    expected = b"".join(bytes(v) for v in raw_message_vectors(payload))
    a, b = socketpair_endpoints()
    cha = _wire(loop, AdocChannel, a, Collector())
    run_on_loop(reactor, lambda: cha.send_message(payload))
    wire = bytearray()
    while len(wire) < len(expected):
        chunk = b.recv(65536)
        assert chunk
        wire += chunk
    assert bytes(wire) == expected
    run_on_loop(reactor, cha.close)
    b.close()


def test_endpoint_without_fileno_is_rejected():
    class NotASocket:
        pass

    with pytest.raises(TypeError):
        NonBlockingEndpoint(NotASocket())


class _DrainedAt:
    """Endpoint whose ``recv`` side drains at most ``rate`` bytes/s.

    Idle time earns no credit: each read is paid for after the previous
    one, so the sender sees the rate from its first byte to its last.
    """

    def __init__(self, inner, rate: float) -> None:
        self._inner = inner
        self._rate = rate
        self._free_at = 0.0

    def recv(self, n: int) -> bytes:
        data = self._inner.recv(min(n, 16 * 1024))
        now = time.monotonic()
        self._free_at = max(self._free_at, now) + len(data) / self._rate
        time.sleep(self._free_at - now)
        return data

    def send(self, data) -> int:
        return self._inner.send(data)

    def close(self) -> None:
        self._inner.close()


#: The reading end fails on a stalled sender instead of hanging the test.
READER_CFG = AdocConfig(io_timeout_s=30.0)


def _send_and_drain(loop, cha, reader, payload: bytes) -> float:
    """Send ``payload`` on ``cha``; return its wire ratio once read back."""
    reactor, _ = loop
    before = cha.bytes_out
    run_on_loop(reactor, lambda: cha.send_message(payload))
    assert reader.read_exact(len(payload)) == payload
    return len(payload) / (cha.bytes_out - before)


def test_default_config_adapts_to_a_slow_reader(loop):
    """Unpinned levels: a 10 MB/s reader leaves room to compress.

    The blocking sender reaches ratio ~3.6 here; a reactor channel that
    under-counts its queue signal sends everything raw (ratio 1.00).
    """
    reactor, _ = loop
    a, b = socketpair_endpoints()
    cha = _wire(loop, AdocChannel, a, Collector(), config=DEFAULT_CONFIG)
    reader = AdocSocket(_DrainedAt(b, 10e6), READER_CFG)
    try:
        ratio = _send_and_drain(loop, cha, reader, ascii_data(8 * 1024 * 1024, seed=21))
        assert ratio >= 2.0
    finally:
        run_on_loop(reactor, cha.close)
        reader.close()


def test_adapts_again_after_an_incompressible_message(loop):
    """ASCII, then incompressible data, then ASCII on one channel.

    The incompressible guard's holdoff must end with the packets it
    counts, and the connection's bandwidth records must not carry the
    second message's tail into a veto of the third message's levels.
    """
    reactor, _ = loop
    a, b = socketpair_endpoints()
    cha = _wire(loop, AdocChannel, a, Collector(), config=DEFAULT_CONFIG)
    reader = AdocSocket(_DrainedAt(b, 10e6), READER_CFG)
    try:
        first = _send_and_drain(loop, cha, reader, ascii_data(8 * 1024 * 1024, seed=21))
        assert first >= 2.0
        _send_and_drain(loop, cha, reader, incompressible_data(4 * 1024 * 1024, seed=22))
        ratio = _send_and_drain(loop, cha, reader, ascii_data(8 * 1024 * 1024, seed=23))
        assert ratio >= 2.0
    finally:
        run_on_loop(reactor, cha.close)
        reader.close()


class _ShapeRecorder:
    """Stands in for a MessageSender: records what a golden shape sends."""

    def __init__(self) -> None:
        self.sent: list[tuple[bytes, AdocConfig]] = []

    def send(self, data, config=None):
        self.sent.append((data, config or GOLDEN_CFG))

    def send_stream(self, stream, config=None):
        pass  # unknown length: the reactor channel only sends buffers


KNOWN_LENGTH = []
for _shape in SHAPES:
    _rec = _ShapeRecorder()
    _shape.run(_rec)
    if _rec.sent:
        KNOWN_LENGTH.append((_shape, *_rec.sent[0]))


@pytest.mark.parametrize(
    "shape,payload,config", KNOWN_LENGTH, ids=[s.name for s, *_ in KNOWN_LENGTH]
)
def test_reactor_wire_matches_golden_fixture(loop, shape, payload, config):
    if shape.zlib_dependent and recorded_zlib_version() != current_zlib_version():
        pytest.skip("fixture generated with another zlib build")
    expected = fixture_path(shape).read_bytes()
    reactor, _ = loop
    a, b = socketpair_endpoints()
    b.settimeout(10.0)  # a short wire fails the test instead of hanging it
    cha = _wire(loop, AdocChannel, a, Collector(), config=config)
    run_on_loop(reactor, lambda: cha.send_message(payload))
    wire = bytearray()
    while len(wire) < len(expected):
        chunk = b.recv(65536)
        assert chunk, "reactor channel sent fewer bytes than the fixture"
        wire += chunk
    run_on_loop(reactor, cha.close)
    assert b.recv(65536) == b"", "reactor channel sent more bytes than the fixture"
    b.close()
    assert bytes(wire) == expected
