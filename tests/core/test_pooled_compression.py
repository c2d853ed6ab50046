"""Pool-backed blocking compression: ordering, degradation, teardown.

The blocking engine's compression stage runs on the process-wide shared
:class:`~repro.serve.pool.WorkerPool` by default
(``AdocConfig.compress_workers``).  These tests pin the contracts that
make that safe:

* the wire is byte-identical to the inline path even when workers
  complete out of order (the pool's per-key FIFO reinsertion);
* a codec failure mid-stream — with other buffers in flight — degrades
  exactly like inline: the failed buffer ships raw, the rest of the
  stream pins to level 0, the payload survives;
* the shared pool's threads reap on ``shutdown_shared_pool`` and the
  pool is lazily recreated afterwards;
* ``compress_workers=0`` never touches the shared pool.
"""

from __future__ import annotations

import sys
import threading
import time
from dataclasses import replace

import pytest

from repro.core import AdocConfig, AdocSocket, MessageSender
from repro.core import sender as sender_mod
from repro.core.compressor import compress_buffer
from repro.serve import pool as pool_mod
from repro.serve.pool import SHARED_POOL_NAME, shared_pool, shutdown_shared_pool
from repro.data import ascii_data
from repro.transport import pipe_pair

# Small buffers so a modest message spans many of them; forced zlib-6
# keeps every level decision deterministic (timing cannot change the
# wire), which is what lets the byte-identity assertions below hold.
CFG = AdocConfig(
    buffer_size=8 * 1024,
    packet_size=2 * 1024,
    slice_size=2 * 1024,
    small_message_threshold=4 * 1024,
    probe_size=2 * 1024,
).with_levels(6, 6)

N_BUFFERS = 12
DATA = ascii_data(N_BUFFERS * CFG.buffer_size, seed=9)


class CollectEndpoint:
    """Endpoint that records every byte written to it."""

    def __init__(self) -> None:
        self.wire = bytearray()

    def send(self, data) -> int:
        self.wire += data
        return len(data)

    def send_vectors(self, buffers) -> int:
        n = 0
        for b in buffers:
            self.wire += b
            n += len(b)
        return n

    def recv(self, n: int) -> bytes:
        return b""

    def close(self) -> None:
        pass


def send_wire(cfg: AdocConfig, data: bytes = DATA) -> tuple[bytes, object]:
    ep = CollectEndpoint()
    result = MessageSender(ep, cfg).send(data)
    return bytes(ep.wire), result


def shared_pool_threads() -> list[threading.Thread]:
    prefix = f"adoc-{SHARED_POOL_NAME}-"
    return [t for t in threading.enumerate() if t.name.startswith(prefix)]


class TestInOrderReinsertion:
    def test_wire_identical_to_inline_under_out_of_order_completion(
        self, monkeypatch
    ):
        """Early buffers finish *last*; the wire must not notice.

        The first buffers sleep longest, so with several in flight the
        completion order is roughly the reverse of submission order —
        the pool's per-key reorder buffer has to restore FIFO before
        anything reaches the packet queue.
        """
        baseline, base_result = send_wire(replace(CFG, compress_workers=0))

        calls: list[str] = []
        lock = threading.Lock()

        def slow_early(buf, level, guard, config):
            with lock:
                idx = len(calls)
                calls.append(threading.current_thread().name)
            time.sleep(max(0.0, (N_BUFFERS - idx) * 0.01))
            return compress_buffer(buf, level, guard, config)

        monkeypatch.setattr(sender_mod, "compress_buffer", slow_early)
        wire, result = send_wire(CFG)

        assert wire == baseline
        assert result.wire_bytes == base_result.wire_bytes
        assert result.payload_bytes == len(DATA)
        prefix = f"adoc-{SHARED_POOL_NAME}-"
        assert any(name.startswith(prefix) for name in calls), (
            "compression never ran on the shared pool"
        )

    def test_pooled_default_wire_matches_inline(self):
        """No fault injection: the plain default path is byte-identical."""
        inline, _ = send_wire(replace(CFG, compress_workers=0))
        pooled, result = send_wire(CFG)
        assert pooled == inline
        assert result.pipeline_used


    def test_wire_identical_under_thread_stress(self):
        """More workers than cores and a tiny switch interval: completions
        race the dispatcher, and the wire must still match."""
        inline, _ = send_wire(replace(CFG, compress_workers=0))
        old = sys.getswitchinterval()
        shutdown_shared_pool()
        sys.setswitchinterval(1e-5)
        try:
            deadline = time.monotonic() + 20.0
            for _ in range(5):
                wire, result = send_wire(replace(CFG, compress_workers=4))
                assert wire == inline
                assert result.payload_bytes == len(DATA)
                assert time.monotonic() < deadline
        finally:
            sys.setswitchinterval(old)
            shutdown_shared_pool()


class TestDegradation:
    def test_codec_failure_mid_stream_with_workers_in_flight(
        self, monkeypatch
    ):
        """Buffer 4 blows up while its neighbours are still compressing.

        The failed buffer must ship raw, every *later* submission must
        pin to level 0, and the message must stay decodable — the
        receiver needs no special handling because raw records are
        always legal.
        """
        fail_at = 4
        seen: list[int] = []
        lock = threading.Lock()

        def flaky(buf, level, guard, config):
            with lock:
                idx = len(seen)
                seen.append(level)
            time.sleep(0.005)  # keep several buffers genuinely in flight
            if idx == fail_at:
                raise RuntimeError("injected codec failure")
            return compress_buffer(buf, level, guard, config)

        monkeypatch.setattr(sender_mod, "compress_buffer", flaky)
        wire, result = send_wire(CFG)

        assert result.degraded
        assert result.payload_bytes == len(DATA)
        # Level-0 packets exist (the failed buffer and the pinned tail).
        assert result.levels_used.get(0, 0) > 0
        # The stream pins to raw once the failure is *known*; with the
        # slow-start window the discovery lags a few buffers, but the
        # tail of the submissions must all be raw.
        assert seen[-1] == 0
        # The payload survives: decode the captured wire byte stream.
        a, b = pipe_pair()
        try:
            rx = AdocSocket(b, CFG)
            done = threading.Event()
            out: list[bytes] = []

            def reader():
                out.append(rx.read_exact(len(DATA)))
                done.set()

            t = threading.Thread(target=reader, daemon=True)
            t.start()
            a.send(wire)
            assert done.wait(30.0), "receiver did not finish"
            t.join(5.0)
            assert out[0] == DATA
        finally:
            a.close()
            b.close()


class TestSharedPoolLifecycle:
    def test_shutdown_reaps_threads_and_next_use_recreates(self):
        pool = shared_pool()
        assert shared_pool_threads(), "shared pool started no threads"
        assert shared_pool() is pool  # cached

        shutdown_shared_pool()
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline and shared_pool_threads():
            time.sleep(0.02)
        assert not shared_pool_threads(), "shared pool threads leaked"

        # Lazily recreated on next use, and actually usable.
        wire, result = send_wire(CFG)
        assert result.payload_bytes == len(DATA)
        assert shared_pool_threads()

    def test_worker_count_honoured_on_creation(self):
        shutdown_shared_pool()
        try:
            pool = shared_pool(3)
            assert pool.workers == 3
            # Later callers share it regardless of their own setting.
            assert shared_pool(5) is pool
        finally:
            shutdown_shared_pool()


class TestInlineFallback:
    def test_compress_workers_zero_never_touches_the_pool(self, monkeypatch):
        def explode(workers=None):
            raise AssertionError("shared_pool must not be called")

        monkeypatch.setattr(pool_mod, "shared_pool", explode)
        wire, result = send_wire(replace(CFG, compress_workers=0))
        assert result.payload_bytes == len(DATA)
        assert result.pipeline_used

    def test_short_known_length_message_stays_inline(self, monkeypatch):
        def explode(workers=None):
            raise AssertionError("short messages must compress inline")

        monkeypatch.setattr(pool_mod, "shared_pool", explode)
        # Three buffers: under the pooled-engagement threshold.
        data = ascii_data(3 * CFG.buffer_size, seed=2)
        wire, result = send_wire(CFG, data)
        assert result.payload_bytes == len(data)

    def test_pool_closed_mid_message_falls_back_inline(self, monkeypatch):
        """A shutdown racing a transfer finishes the message inline.

        A helper thread closes the shared pool once compression is
        demonstrably under way (closing from inside a worker would
        self-join).  The forced level keeps the wire deterministic, so
        whichever buffers ended up inline, the bytes must match the
        pure-inline send exactly.
        """
        pool = shared_pool()
        started = threading.Event()

        def slow(buf, level, guard, config):
            started.set()
            time.sleep(0.01)
            return compress_buffer(buf, level, guard, config)

        monkeypatch.setattr(sender_mod, "compress_buffer", slow)

        def closer():
            started.wait(10.0)
            pool.close(join_timeout=10.0)

        t = threading.Thread(target=closer, daemon=True)
        t.start()
        try:
            wire, result = send_wire(CFG)
        finally:
            t.join(20.0)
            shutdown_shared_pool()
        inline, _ = send_wire(replace(CFG, compress_workers=0))
        assert wire == inline
        assert result.payload_bytes == len(DATA)


class TestConfigValidation:
    def test_negative_workers_rejected(self):
        with pytest.raises(ValueError, match="compress_workers"):
            AdocConfig(compress_workers=-1)

    def test_zero_and_none_accepted(self):
        assert AdocConfig(compress_workers=0).compress_workers == 0
        assert AdocConfig().compress_workers is None
