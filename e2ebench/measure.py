"""Turning workload outcomes and spans into the benchmark's metrics.

End-to-end metrics come from an untraced :class:`Outcome`; per-layer
metrics from a traced one, its spans, the codec micro-benchmark, the
untraced twin (for the tracing overhead) and the plain reference run.
A layer the workload does not exercise reads 0 (the bulk transfer has
no server, no middleware and no depot).
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict

from repro import DEFAULT_CONFIG
from repro.compress import codec_for_level

from probes import Spans
from workloads import LINK_RATE_BPS, Op, Outcome

__all__ = ["end_to_end", "per_layer", "codec_bench"]

#: Codec micro-benchmark: whole AdOC input buffers, as the sender
#: compresses them.
CODEC_BUFFER = DEFAULT_CONFIG.buffer_size
CODEC_BUFFERS = 2
CODEC_PASSES = 3

#: Spans whose self time is reported, per operation.
SELF_SPANS = (
    "bench.op", "depot.store", "depot.load",
    "middleware.write_message", "middleware.read_message",
    "core.write", "core.read", "core.close",
    "transport.send", "transport.recv",
)


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _p99(values) -> float:
    if len(values) < 2:
        return _median(values)
    return statistics.quantiles(values, n=100, method="inclusive")[98]


def _mbps(nbytes: float, seconds: float) -> float:
    return nbytes * 8 / 1e6 / seconds if seconds > 0 else 0.0


def end_to_end(out: Outcome) -> dict[str, float]:
    """The end-to-end metrics of one untraced run.

    Rates are medians over windows of whole workload cycles, so a burst
    of load from outside the benchmark moves one window, not the run.
    CPU cost is the windows' total: per window it follows the levels the
    adaptation happened to pick, which vary more than their mix does.
    """
    goodput, rate = [], []
    cpu_s = payload_total = 0.0
    for w in out.windows:
        payload = sum(o.up + o.down for o in w.ops)
        goodput.append(_mbps(payload, sum(o.end - o.start for o in w.ops)))
        rate.append(len(w.ops) / w.wall_s)
        cpu_s += w.cpu_s
        payload_total += payload
    return {
        "setup_s": _median(out.setup_s),
        "goodput_mbps": _median(goodput),
        "cpu_s_per_gb": cpu_s / (payload_total / 1e9),
        "ops_per_s": _median(rate),
        "latency_p50_ms": _median(_latencies(out)) * 1e3,
        "teardown_s": _median(out.teardown_s),
    }


def _latencies(out: Outcome) -> list[float]:
    g = out.latency_group
    return [
        sum(o.end - o.start for o in out.ops[i:i + g])
        for i in range(0, len(out.ops) - g + 1, g)
    ]


def codec_bench(corpus: dict, spans: Spans) -> tuple[dict[str, float], int, list[str]]:
    """``compress.l{level}.{encode_mbps,decode_mbps,ratio}.{class}``.

    Times ``codec_for_level(level)`` over whole AdOC buffers of the
    workload's own ascii and binary inputs; each speed is the median of
    a few passes.  Returns the metrics, the round trips attempted and
    the failures (a decode that does not give the input back).
    """
    metrics: dict[str, float] = {}
    attempted, errors = 0, []
    for cls in ("ascii", "binary"):
        data = corpus[cls]
        buffers = [
            data[i * CODEC_BUFFER:(i + 1) * CODEC_BUFFER] for i in range(CODEC_BUFFERS)
        ]
        total = sum(len(b) for b in buffers)
        for level in range(1, 11):
            codec = codec_for_level(level)
            enc_s, dec_s = [], []
            for _ in range(CODEC_PASSES):
                t0 = time.perf_counter()
                with spans.span("codec.compress"):
                    packed = [codec.compress(b) for b in buffers]
                t1 = time.perf_counter()
                with spans.span("codec.decompress"):
                    unpacked = [codec.decompress(p, len(b)) for p, b in zip(packed, buffers)]
                t2 = time.perf_counter()
                enc_s.append(t1 - t0)
                dec_s.append(t2 - t1)
                attempted += 1
                if unpacked != buffers:
                    errors.append(f"codec level {level} does not round-trip {cls}")
            key = f"compress.l{level}"
            metrics[f"{key}.encode_mbps.{cls}"] = _mbps(total, _median(enc_s))
            metrics[f"{key}.decode_mbps.{cls}"] = _mbps(total, _median(dec_s))
            metrics[f"{key}.ratio.{cls}"] = total / sum(len(p) for p in packed)
    return metrics, attempted, errors


def _self_time(spans: Spans) -> dict[str, float]:
    """Seconds of each span not covered by its children, summed by name."""
    events = spans.tracer.events("span")
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for e in events:
        children[e.args["parent"]].append((e.ts, e.ts + e.dur))
    total: dict[str, float] = defaultdict(float)
    for e in events:
        lo, hi = e.ts, e.ts + e.dur
        covered, reach = 0.0, lo
        for a, b in sorted(children.get(e.args["id"], ())):
            a, b = max(a, reach), min(b, hi)
            if b > a:
                covered += b - a
                reach = b
        total[e.name] += e.dur - covered
    return total


def _directions(ops: list[Op]) -> tuple[float, float]:
    """Goodput of the depot's store calls and of its load calls."""
    return (
        _mbps(sum(o.up for o in ops if o.store_s), sum(o.store_s for o in ops)),
        _mbps(sum(o.down for o in ops if o.load_s), sum(o.load_s for o in ops)),
    )


def _span_ms(spans: Spans, name: str) -> list[float]:
    return [e.dur * 1e3 for e in spans.tracer.events("span") if e.name == name]


def per_layer(workload: str, traced: Outcome, spans: Spans, untraced: Outcome,
              reference: Outcome, codec: dict[str, float]) -> dict[str, float]:
    m: dict[str, float] = dict(codec)
    ops = traced.ops
    busy = sum(o.end - o.start for o in ops)
    server_side = workload != "bulk-lan100"

    # core: the client's AdocSocket(s).
    snaps = [s.final_stats for s in traced.sockets]
    levels: dict[int, int] = defaultdict(int)
    for s in snaps:
        for level, count in s.levels_used.items():
            levels[level] += count
    packets = sum(levels.values())
    payload = sum(s.payload_bytes for s in snaps)
    wire = sum(s.wire_bytes for s in snaps)
    m["core.wire_ratio"] = payload / wire if wire else 0.0
    m["core.mean_level"] = (
        sum(k * v for k, v in levels.items()) / packets if packets else 0.0
    )
    m["core.level0_share"] = levels[0] / packets if packets else 0.0
    m["core.level1_share"] = levels[1] / packets if packets else 0.0
    m["core.path.small"] = sum(s.small_path for s in snaps)
    m["core.path.fast"] = sum(s.fast_path for s in snaps)
    m["core.path.pipeline"] = sum(s.pipeline_path for s in snaps)
    m["core.guard_trips"] = sum(s.guard_trips for s in snaps)
    m["core.degraded"] = sum(s.degraded for s in snaps)
    m["core.send_s_p50"] = _median([t for s in traced.sockets for t in s.write_s])
    m["core.recv_tail_s_p50"] = _median([o.tail_s for o in ops])
    m["core.close_s"] = _median([s.close_s for s in traced.sockets])

    # transport: the benchmark's endpoint proxy.
    link = {k: sum(d[k] for d in traced.links) for k in traced.links[0]}
    m["transport.send_calls"] = link["send_calls"]
    m["transport.bytes_per_send"] = link["send_bytes"] / max(link["send_calls"], 1)
    m["transport.send_blocked_share"] = link["send_s"] / traced.wall_s
    m["transport.recv_calls"] = link["recv_calls"]
    m["transport.recv_wait_share"] = link["recv_s"] / traced.wall_s
    # On bulk the proxies on both ends count the same bytes once each way.
    wire_bytes = link["send_bytes"] + (link["recv_bytes"] if server_side else 0)
    rate = LINK_RATE_BPS[workload]
    m["transport.link_utilization"] = wire_bytes * 8 / (rate * busy) if rate else 0.0

    # serve: wire ratios at the client proxy, and the server's pool.
    if server_side:
        m["serve.store_wire_ratio"] = (
            sum(s.write_bytes for s in traced.sockets) / link["send_bytes"]
        )
        m["serve.load_wire_ratio"] = (
            sum(s.read_bytes for s in traced.sockets) / link["recv_bytes"]
        )
    else:
        m["serve.store_wire_ratio"] = m["serve.load_wire_ratio"] = 0.0
    m["serve.pool.completed"] = traced.server_stats.get("pool_completed", 0)

    # middleware and the RPC mix.
    m["middleware.write_message_ms_p50"] = _median(_span_ms(spans, "middleware.write_message"))
    m["middleware.read_reply_ms_p50"] = _median(_span_ms(spans, "middleware.read_message"))
    m["middleware.server.requests"] = traced.server_stats.get("requests", 0)
    m["middleware.server.errors"] = traced.server_stats.get("errors", 0)
    for kind in ("echo_small", "dgemm", "echo_large"):
        m[f"rpc.{kind}_p50_ms"] = _median(
            [(o.end - o.start) * 1e3 for o in ops if o.kind == kind]
        )

    # depot: each direction on its own.
    m["depot.store_s_p50"] = _median([o.store_s for o in ops if o.store_s])
    m["depot.load_s_p50"] = _median([o.load_s for o in ops if o.load_s])
    m["depot.store_goodput_mbps"], m["depot.load_goodput_mbps"] = _directions(ops)

    # ref: the same loop without AdOC (pinned raw / plain mode).
    ref = end_to_end(reference)
    adoc = end_to_end(untraced)
    m["ref.goodput_mbps"] = ref["goodput_mbps"]
    m["ref.latency_p50_ms"] = ref["latency_p50_ms"]
    m["ref.ops_per_s"] = ref["ops_per_s"]
    m["ref.adoc_speedup"] = adoc["goodput_mbps"] / ref["goodput_mbps"]
    m["ref.store_goodput_mbps"], m["ref.load_goodput_mbps"] = _directions(reference.ops)

    # obs: what tracing costs, and where the traced time went.
    traced_e2e = end_to_end(traced)
    for name, value in adoc.items():
        m[f"obs.tracing_overhead.{name}"] = traced_e2e[name] / value - 1.0
    # Not gated: on the CPU-bound loopback workload it follows the host's
    # contention more than the program (see README.md).
    m["obs.latency_p99_ms"] = _p99(_latencies(untraced)) * 1e3
    m["obs.trace_events"] = spans.tracer.recorded
    m["obs.trace_dropped"] = spans.tracer.dropped
    self_s = _self_time(spans)
    for name in SELF_SPANS:
        m[f"obs.self_ms_per_op.{name}"] = self_s.get(name, 0.0) * 1e3 / len(ops)
    return m
