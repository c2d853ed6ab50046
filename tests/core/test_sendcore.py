"""Property tests on the pure send core, driven without threads or sockets.

This harness is the send core's fourth driver.  It plays the codec and
the queue itself: random buffer sizes and textures, random queue
observations, a random number of parallel codec workers, and codec
failures injected at random buffers.  Whatever the schedule, the core
must keep the ladder's invariants.
"""

from __future__ import annotations

import random
from collections import deque

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import AdocConfig
from repro.core.compressor import compress_buffer
from repro.core.packets import Record
from repro.core.sendcore import BYPASS, PIPELINE, PROBE, SendCore

PACKET = 512
CFG = AdocConfig(
    buffer_size=4 * PACKET,
    packet_size=PACKET,
    slice_size=PACKET,
    small_message_threshold=8 * PACKET,
    probe_size=4 * PACKET,
    incompressible_holdoff=6,
)


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        self.now += 1e-3
        return self.now


def _payload(n: int, texture: str, rng: random.Random) -> bytes:
    if texture == "random":
        return rng.randbytes(n)
    words = [b"alpha ", b"beta ", b"gamma ", b"delta "]
    out = bytearray()
    while len(out) < n:
        out += rng.choice(words)
    return bytes(out[:n])


class Run:
    """One message through the core, with the harness as codec and queue."""

    def __init__(self, core: SendCore, cfg: AdocConfig, workers: int, seed: int):
        self.msg = core.begin(None, cfg)
        self.msg.start_pipeline(workers)
        self.cfg = cfg
        self.rng = random.Random(seed)
        self.jobs: deque[tuple[int, bytes, int]] = deque()
        self.decisions: list[tuple[int, bool, bool]] = []  # level, degraded, holdoff
        self.records: list[Record] = []
        self.packet_orig = 0
        self.since_trip = 0
        self.trips = 0

    def decide(self, buf: bytes, queued: int) -> None:
        degraded = self.msg.degraded
        bid, level = self.msg.submit(len(buf), queued)
        holdoff = self.msg.adapter.history[-1].holdoff
        self.decisions.append((level, degraded, holdoff))
        if self.trips:
            assert holdoff == (self.since_trip < self.cfg.incompressible_holdoff)
        else:
            assert not holdoff
        self.jobs.append((bid, buf, level))

    def complete_one(self, fail: bool) -> None:
        bid, buf, level = self.jobs.popleft()
        if fail:
            outcome, err = None, RuntimeError("injected codec failure")
        else:
            outcome, err = compress_buffer(buf, level, self.msg.guard, self.cfg), None
        if self.msg.guard.trips > self.trips:
            self.trips = self.msg.guard.trips
            self.since_trip = 0
        records = self.msg.complete(bid, buf, level, outcome, err)
        assert sum(r.original_size for r in records) == len(buf)
        self.records += records
        for pkt in self.msg.packets(records, bid):
            self.msg.emitting(pkt)
            self.packet_orig += pkt.original_bytes
            self.since_trip += 1


levels = st.tuples(st.integers(0, 10), st.integers(0, 10)).map(sorted)


@settings(max_examples=60, deadline=None)
@given(
    sizes=st.lists(st.integers(1, 3 * CFG.buffer_size), min_size=1, max_size=12),
    textures=st.lists(st.sampled_from(["ascii", "random"]), min_size=12, max_size=12),
    queued=st.lists(st.integers(0, 80), min_size=12, max_size=12),
    failures=st.sets(st.integers(0, 11), max_size=3),
    workers=st.integers(0, 3),
    bounds=levels,
    seed=st.integers(0, 2**16),
)
def test_core_invariants_hold_for_any_schedule(
    sizes, textures, queued, failures, workers, bounds, seed
):
    cfg = CFG.with_levels(*bounds)
    core = SendCore(cfg, clock=FakeClock())
    run = Run(core, cfg, workers, seed)
    msg = run.msg
    bufs = [_payload(n, textures[i], run.rng) for i, n in enumerate(sizes)]
    pending = deque(bufs)
    completed = 0
    while pending or msg.inflight:
        while pending and msg.can_submit():
            run.decide(pending.popleft(), queued[len(run.decisions)])
        # Complete in submission order, sometimes before the window
        # is full, as a real pool may.
        if msg.inflight and (not pending or run.rng.random() < 0.5 or not msg.can_submit()):
            run.complete_one(completed in failures)
            completed += 1

    total = sum(sizes)
    # Records' original sizes sum to the input, and so do the packets'.
    assert sum(r.original_size for r in run.records) == total
    assert run.packet_orig == total
    # Levels stay in bounds; after a known failure they are all raw.
    for level, degraded, _ in run.decisions:
        if degraded:
            assert level == 0
        else:
            assert cfg.min_level <= level <= cfg.max_level
    # A failure pins the rest of the message.
    assert msg.degraded == bool(failures & set(range(len(sizes))))
    # In-flight accounting returns to zero at the end of the message.
    assert msg.inflight == 0
    assert msg.pending_packets == 0
    result = msg.finish(total)
    assert result.payload_bytes == total
    assert sum(result.levels_used.values()) > 0


@settings(max_examples=50, deadline=None)
@given(holdoff=st.integers(0, 20), emitted=st.integers(0, 30))
def test_holdoff_expires_after_its_packet_count(holdoff, emitted):
    cfg = AdocConfig(incompressible_holdoff=holdoff, packet_size=PACKET,
                     buffer_size=64 * PACKET, slice_size=PACKET)
    msg = SendCore(cfg, clock=FakeClock()).begin(None)
    msg.start_pipeline()
    assert msg.guard.check_packet(100, 100)  # incompressible: trips
    raw = Record(0, emitted * PACKET, bytes(emitted * PACKET))
    for _ in msg.packets([raw] if emitted else [], 0):
        pass
    assert msg.guard.active == (emitted < holdoff)
    _, level = msg.submit(PACKET, 40)
    assert msg.adapter.history[-1].holdoff == (emitted < holdoff)
    if emitted < holdoff:
        assert level == cfg.min_level


@settings(max_examples=50, deadline=None)
@given(
    failure_at=st.integers(0, 5),
    bounds=st.tuples(st.integers(0, 10), st.integers(0, 10)).map(sorted),
)
def test_codec_failure_pins_rest_of_message_to_raw(failure_at, bounds):
    cfg = CFG.with_levels(*bounds)
    msg = SendCore(cfg, clock=FakeClock()).begin(None)
    msg.start_pipeline()
    levels = []
    for i in range(8):
        bid, level = msg.submit(CFG.buffer_size, 35)
        levels.append(level)
        buf = bytes(CFG.buffer_size)
        if i == failure_at:
            records = msg.complete(bid, buf, level, None, RuntimeError("boom"))
            assert records == [Record(0, len(buf), buf)]
        else:
            msg.complete(bid, buf, level, compress_buffer(buf, level, msg.guard, cfg), None)
    assert all(level == 0 for level in levels[failure_at + 1 :])
    assert msg.finish(8 * CFG.buffer_size).degraded


@given(total=st.integers(0, 4 * CFG.small_message_threshold), bounds=levels)
@settings(max_examples=100, deadline=None)
def test_ladder_path_follows_the_config(total, bounds):
    cfg = CFG.with_levels(*bounds)
    msg = SendCore(cfg).begin(total)
    if cfg.compression_disabled or (
        not cfg.compression_forced and total < cfg.small_message_threshold
    ):
        assert msg.path == BYPASS
    elif cfg.compression_forced:
        assert msg.path == PIPELINE
    else:
        assert msg.path == PROBE
        assert msg.probe_bytes == min(cfg.probe_size, total)


def test_inflight_buffers_count_in_the_queue_signal():
    """Buffers still at a codec read as their raw packets (slow start)."""
    per_buffer = CFG.buffer_size // CFG.packet_size
    msg = SendCore(CFG, clock=FakeClock()).begin(None)
    msg.start_pipeline(workers=2)
    buf = bytes(CFG.buffer_size)
    a, _ = msg.submit(len(buf), 5)
    assert not msg.can_submit()  # the window starts at one buffer
    msg.buffer_done(a, len(buf))
    b, _ = msg.submit(len(buf), 7)
    assert msg.can_submit()  # one completion grew it to two
    c, _ = msg.submit(len(buf), 7)
    seen = [trace.queue_size for trace in msg.adapter.history]
    assert seen == [5, 7, 7 + per_buffer]
    assert msg.pending_packets == 2 * per_buffer
    msg.buffer_done(b, len(buf))
    msg.buffer_done(c, len(buf))
    assert (msg.inflight, msg.pending_packets) == (0, 0)


def test_the_unbounded_last_window_is_not_observed():
    """A window is measured only once the next one starts."""
    msg = SendCore(CFG, clock=FakeClock()).begin(None)
    msg.start_pipeline()
    msg.open_windows()
    for buffer_id in range(3):
        raw = Record(0, PACKET, bytes(PACKET))
        for pkt in msg.packets([raw], buffer_id):
            msg.emitting(pkt)
    record = msg.core.divergence._records[0]
    assert record.samples == 2  # buffers 0 and 1; buffer 2 has no successor
