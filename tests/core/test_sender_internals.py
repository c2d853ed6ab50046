"""Sender internals: the probe, bypass ladder, stream sizing."""

from __future__ import annotations

import io

import pytest

from repro.core import AdocConfig, MessageSender, SendResult
from repro.core.sources import stream_size as _stream_size
from repro.core.sendcore import BYPASS, PIPELINE, PROBE, SendCore
from repro.transport import pipe_pair, shaped_pair

CFG = AdocConfig(
    buffer_size=16 * 1024,
    packet_size=2 * 1024,
    slice_size=2 * 1024,
    small_message_threshold=8 * 1024,
    probe_size=4 * 1024,
)


class TestProbe:
    def test_probe_feeds_level0_divergence_records(self, background):
        """The probe doubles as level-0 bandwidth evidence: two windows,
        satisfying the guard's MIN_SAMPLES rule (DESIGN.md §7.3)."""
        a, b = shaped_pair(
            bandwidth_bps=80e6, latency_s=1e-4, buffer_bytes=2 * 1024, seed=1
        )
        sender = MessageSender(a, CFG)
        drainer = background(_drain_until_eof, b)
        sender.send(b"z" * 200_000)
        a.close()
        drainer.join()
        rec = sender.divergence._records.get(0)
        assert rec is not None
        assert rec.samples >= 2
        # The record reflects the shaped line rate, not memcpy speed.
        assert rec.bandwidth < 80e6  # bytes/s upper bound sanity

    def test_fast_link_triggers_fast_path(self, background):
        # Unshaped pipes absorb the probe instantly -> "very fast".
        a, b = pipe_pair()
        sender = MessageSender(a, CFG)
        drainer = background(_drain_until_eof, b)
        result = sender.send(b"q" * 100_000)
        a.close()
        drainer.join()
        assert result.fast_path
        assert not result.pipeline_used
        assert result.probe_bps > CFG.fast_network_bps

    def test_slow_link_engages_pipeline(self, background):
        a, b = shaped_pair(
            bandwidth_bps=200e6, latency_s=1e-4, buffer_bytes=2 * 1024, seed=2
        )
        sender = MessageSender(a, CFG)
        drainer = background(_drain_until_eof, b)
        result = sender.send(b"q" * 100_000)
        a.close()
        drainer.join()
        assert result.pipeline_used
        assert result.probe_bps < CFG.fast_network_bps


class TestBypassLadder:
    """The ladder's first rung, decided by the send core."""

    def test_small_message_bypass(self):
        core = SendCore(CFG)
        assert core.begin(100).path == BYPASS
        assert core.begin(100_000).path == PROBE

    def test_forced_never_bypasses(self):
        cfg = CFG.with_levels(1, 10)
        assert SendCore(cfg).begin(1).path == PIPELINE

    def test_disabled_always_bypasses(self):
        cfg = CFG.with_levels(0, 0)
        assert SendCore(cfg).begin(10**9).path == BYPASS


class TestStreamSize:
    def test_seekable(self):
        f = io.BytesIO(b"0123456789")
        assert _stream_size(f) == 10
        f.read(4)
        assert _stream_size(f) == 6  # remaining, not total
        assert f.tell() == 4  # position restored

    def test_unseekable_returns_none(self):
        class NoSeek(io.RawIOBase):
            def tell(self):
                raise OSError("unseekable")

        assert _stream_size(NoSeek()) is None


class TestSendResult:
    def test_ratio_zero_wire(self):
        assert SendResult(0, 0, 0.0).compression_ratio == 1.0

    def test_ratio(self):
        assert SendResult(1000, 250, 0.0).compression_ratio == 4.0


def _drain_until_eof(endpoint) -> None:
    while endpoint.recv(65536):
        pass
