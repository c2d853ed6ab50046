"""Simulated AdOC transfer: the Figure-1 pipeline on a virtual clock.

The model runs the *live* send ladder — the
:class:`~repro.core.sendcore.SendCore` the blocking and reactor engines
run, driven here with the simulation clock: bypass, probe and fast
path, the Figure-2 level per buffer, both guards, the packetization and
the per-(buffer, level) divergence windows.  Only the costs
(compression time, wire time) come from the calibrated model instead of
real execution.  What the simulator itself supplies:

* **compression cost** — each buffer at the core's level is consumed
  one packet's worth of output per timeout, so queue dynamics match the
  live thread; the output size comes from the data profile's ratio;
* **emission process** — drains packets into a byte-bounded "socket
  buffer" store, reporting each to the core's bandwidth windows;
* **link process** — serializes socket-buffer chunks at the profile's
  bandwidth (with jitter and Markov congestion), pays propagation
  latency once per stream, and respects receiver-window backpressure;
* **reception + decompression processes** — the receiving half of
  Figure 1; decompression speed comes from the cost model scaled by the
  profile's ``receiver_cpu_scale``.

Fixed CPU overheads are calibrated against Table 2 of the paper (see
:data:`ADOC_FRAMING_S`, :data:`THREAD_STARTUP_S`,
:data:`PIPELINE_STALL_RTTS`).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..core.config import AdocConfig, DEFAULT_CONFIG
from ..core.divergence import DivergenceGuard
from ..core.packets import RECORD_HEADER_SIZE, Record
from ..core.sendcore import BYPASS, PROBE, SendCore, SendResult
from ..transport.profiles import NetworkProfile
from .costmodel import DataProfile
from .engine import Environment, Store, Timeout

__all__ = [
    "SimTransferResult",
    "simulate_adoc_message",
    "simulate_posix_message",
    "ADOC_FRAMING_S",
    "THREAD_STARTUP_S",
    "PIPELINE_STALL_RTTS",
]

#: Fixed AdOC bookkeeping per message (framing, descriptor lookup,
#: small-path buffer management).  Calibrated to Table 2: AdOC's 0-byte
#: ping-pong is 15-20 us above plain read/write on a Gbit LAN and
#: indistinguishable on slower networks.
ADOC_FRAMING_S = 18e-6

#: Cost of spinning up the pipeline (two threads, queue, mutexes), per
#: message.  Calibrated to Table 2's "forced compression" column on the
#: LANs, where the RTT terms are small: a forced 0-byte ping-pong pays
#: this twice and lands at 1.8 ms (100 Mbit) / 1.6 ms (Gbit).
THREAD_STARTUP_S = 0.75e-3

#: Extra round-trip fraction a pipelined message loses to the transport
#: (framed multi-segment writes interacting with delayed-ACK/Nagle).
#: Calibrated to Table 2's forced column on the WANs: a ping-pong (two
#: messages) shows +1.8 RTT — +145 ms on the 80 ms-RTT Internet path,
#: +16 ms on 9.2 ms Renater — i.e. 0.9 RTT per one-way message.
PIPELINE_STALL_RTTS = 0.9


@dataclass
class SimTransferResult(SendResult):
    """Outcome of one simulated one-way message transfer."""

    queue_peak: int = 0

    @property
    def app_bandwidth_bps(self) -> float:
        """Payload bits per second as the application perceives them."""
        if self.elapsed_s <= 0:
            return float("inf")
        return self.payload_bytes * 8.0 / self.elapsed_s


class _Link:
    """Serialization + latency + jitter/congestion on sim time.

    ``rate_schedule`` (optional) maps the current sim time to a
    bandwidth multiplier, for controlled dynamic-environment scenarios
    (the paper's motivating case: the visible bandwidth changes during
    the transfer and the level must follow).
    """

    def __init__(
        self,
        profile: NetworkProfile,
        rng: random.Random,
        rate_schedule=None,
    ) -> None:
        self.rate = profile.bandwidth_bps / 8.0
        self.latency = profile.latency_s
        self.jitter = profile.jitter
        self.congestion = profile.congestion
        self.rng = rng
        self.rate_schedule = rate_schedule
        self._congested = False

    def ser_time(self, nbytes: int, now: float = 0.0) -> float:
        rate = self.rate
        if self.rate_schedule is not None:
            rate *= max(self.rate_schedule(now), 1e-9)
        if self.congestion is not None:
            c = self.congestion
            flip = c.exit_prob if self._congested else c.enter_prob
            if self.rng.random() < flip:
                self._congested = not self._congested
            if self._congested:
                rate *= c.slowdown
        t = nbytes / rate
        if self.jitter is not None:
            t += self.jitter.sample(self.rng)
        return t


def simulate_posix_message(
    size: int, profile: NetworkProfile, seed: int = 0, rate_schedule=None
) -> SimTransferResult:
    """Baseline: plain read/write of ``size`` bytes over the profile.

    One-way delivery time of a continuous stream: propagation latency
    plus serialization of every chunk (with the same stochastic link
    model AdOC faces).
    """
    rng = random.Random(seed)
    link = _Link(profile, rng, rate_schedule)
    elapsed = link.latency
    chunk = profile.mtu
    remaining = size
    while remaining > 0:
        n = min(chunk, remaining)
        elapsed += link.ser_time(n, elapsed)
        remaining -= n
    return SimTransferResult(size, size, elapsed)


def simulate_adoc_message(
    size: int,
    data: DataProfile,
    profile: NetworkProfile,
    config: AdocConfig = DEFAULT_CONFIG,
    seed: int = 0,
    divergence: DivergenceGuard | None = None,
    use_divergence: bool = True,
    adapter_factory=None,
    rate_schedule=None,
) -> SimTransferResult:
    """Simulate one ``adoc_write`` of ``size`` bytes of ``data`` texture.

    ``divergence`` may be shared across calls to model per-connection
    persistence of the bandwidth records (as the live library does).
    ``use_divergence=False`` removes the guard entirely (ablation);
    ``adapter_factory(config, divergence, inc_guard)`` may substitute a
    different level controller (adaptation-policy ablation).
    """
    cfg = config
    rng = random.Random(seed)
    link = _Link(profile, rng, rate_schedule)
    result = SimTransferResult(size, 0, 0.0)

    env = Environment()
    core = SendCore(
        cfg,
        clock=lambda: env.now,
        divergence=divergence,
        use_divergence=use_divergence,
        adapter_factory=adapter_factory,
    )
    msg = core.begin(size)
    header_wire = len(msg.header)

    if msg.path == BYPASS:
        wire = header_wire + (RECORD_HEADER_SIZE if size else 0) + size
        base = simulate_posix_message(wire, profile, seed, rate_schedule)
        result.wire_bytes = wire
        result.elapsed_s = base.elapsed_s + ADOC_FRAMING_S
        return result

    sock = Store(env, capacity=profile.buffer_bytes)
    recv_sock = Store(env, capacity=profile.buffer_bytes)
    queue = Store(env, capacity=cfg.queue_capacity)
    recv_queue = Store(env, capacity=cfg.recv_queue_packets)

    state = {"wire": header_wire, "done_at": None, "delivered": 0}

    sender_cpu = profile.sender_cpu_scale
    recv_cpu = profile.receiver_cpu_scale
    packet_size = cfg.packet_size

    def raw_to_socket(nbytes: int):
        # One raw record written inline (no pipeline thread), straight
        # into the socket buffer so the writes feel the link drain rate.
        state["wire"] += nbytes + RECORD_HEADER_SIZE
        for off in range(0, nbytes, packet_size):
            n = min(packet_size, nbytes - off)
            wire_n = n + (RECORD_HEADER_SIZE if off == 0 else 0)
            yield sock.put(("chunk", wire_n, 0, n), weight=wire_n)

    def to_queue(records, buffer_id: int):
        for pkt in msg.packets(records, buffer_id):
            state["wire"] += pkt.wire_length
            yield queue.put(pkt)

    def compression_proc():
        offset = 0
        if msg.path == PROBE:
            # The probe goes out as one raw record before any pipeline
            # thread exists; the thread start-up is paid only if the
            # probe decides to adapt.  Forced compression pays it at
            # once.
            t0 = env.now
            yield from raw_to_socket(msg.probe_bytes)
            offset = msg.probe_bytes
            if msg.probe_done(msg.probe_bytes, env.now - t0):
                while offset < size:
                    n = min(cfg.buffer_size, size - offset)
                    yield from raw_to_socket(n)
                    offset += n
                queue.close()
                return
        yield Timeout(THREAD_STARTUP_S)

        msg.start_pipeline()
        while offset < size:
            buf = min(cfg.buffer_size, size - offset)
            buffer_id, level = msg.submit(buf, queue.size())
            if level == 0:
                # No compression: raw record, no CPU time.
                yield from to_queue([Record(0, buf, _blank(buf))], buffer_id)
            else:
                # Compress incrementally: each produced packet is one
                # record covering ratio * packet_size input bytes, and
                # the incompressible guard judges it as the live codec
                # judges each slice.
                cost = data.cost(level)
                per_packet_input = packet_size * cost.ratio
                consumed = 0
                while consumed < buf:
                    step = max(int(min(per_packet_input, buf - consumed)), 1)
                    yield Timeout(step / (cost.compress_bps * sender_cpu))
                    out = int(step / cost.ratio)
                    consumed += step
                    yield from to_queue([Record(level, step, _blank(out))], buffer_id)
                    if msg.guard.check_packet(step, out):
                        break
                if consumed < buf:
                    rest = buf - consumed
                    yield from to_queue([Record(0, rest, _blank(rest))], buffer_id)
            msg.buffer_done(buffer_id, buf)
            offset += buf
        queue.close()

    def emission_proc():
        # Per-(buffer, level) bandwidth windows, exactly as the live
        # emission loop measures them.
        msg.open_windows()
        while True:
            pkt = yield queue.get()
            if pkt is None:
                break
            msg.emitting(pkt)
            wire_n = pkt.wire_length
            yield sock.put(
                ("chunk", wire_n, pkt.level, pkt.original_bytes), weight=wire_n
            )
        sock.close()

    def link_proc():
        first = True
        while True:
            item = yield sock.get()
            if item is None:
                break
            _, wire_n, level, orig_n = item
            yield Timeout(link.ser_time(wire_n, env.now))
            if first:
                yield Timeout(link.latency)
                first = False
            yield recv_sock.put(item, weight=wire_n)
        recv_sock.close()

    def reception_proc():
        while True:
            item = yield recv_sock.get()
            if item is None:
                break
            yield recv_queue.put(item)
        recv_queue.close()

    def decompression_proc():
        while True:
            item = yield recv_queue.get()
            if item is None:
                break
            _, wire_n, level, orig_n = item
            if level > 0 and orig_n > 0:
                cost = data.cost(level)
                yield Timeout(orig_n / (cost.decompress_bps * recv_cpu))
            state["delivered"] += orig_n
            state["done_at"] = env.now

    env.process(compression_proc(), "compress")
    env.process(emission_proc(), "emit")
    env.process(link_proc(), "link")
    env.process(reception_proc(), "recv")
    env.process(decompression_proc(), "decompress")
    env.run()

    if state["delivered"] != size:
        raise AssertionError(
            f"simulation delivered {state['delivered']} of {size} bytes"
        )

    elapsed = state["done_at"] if state["done_at"] is not None else env.now
    elapsed += ADOC_FRAMING_S
    if not msg.fast_path:
        # The pipelined wire pattern loses a fraction of an RTT to
        # transport stalls (Table 2 calibration).
        elapsed += PIPELINE_STALL_RTTS * profile.rtt_s
    result.wire_bytes = state["wire"]
    result.elapsed_s = elapsed
    result.pipeline_used = msg.pipeline_used
    result.fast_path = msg.fast_path
    result.probe_bps = msg.probe_bps
    result.levels_used = msg.levels_used
    result.guard_trips = msg.guard.trips if msg.guard is not None else 0
    result.queue_peak = queue.peak_size
    return result


def _blank(nbytes: int) -> memoryview:
    """Stand-in payload of ``nbytes``: the model tracks sizes, not bytes."""
    return memoryview(bytes(nbytes))
