"""The three workloads, driven through the public ``repro`` API.

Each ``run_*`` function sets up its link, runs a closed loop of
operations until the deadline, verifies every result, closes the client
first while the peer is still up, and returns an :class:`Outcome`.
Data comes only from :func:`make_corpus`, seeded by the command line.

* ``bulk-lan100``: one-way 8 MB ``AdocSocket.write`` -> ``read_exact``
  transfers over a fresh ``LAN100`` shaped pair each, cycling through
  the ascii, binary and incompressible classes.
* ``rpc-loopback``: a persistent ``AdocCommunicator`` connection to a
  ``ReactorRpcServer(mode="adoc")`` on loopback TCP; cycles of 8 x echo
  2 KB, 1 x dgemm n=64, 1 x echo 1 MB.
* ``depot-paced``: a ``serve_depot(mode="adoc")`` connection paced at
  80 Mbit/s each way; cycles of allocate -> store 4 MB -> load -> free,
  ascii and binary alternating.

The two server workloads split a run into :data:`SESSIONS` sessions,
each a fresh server and connection: rpc-loopback's throughput and the
compression levels depot-paced's adaptation settles on differ from one
connection to the next by more than they drift within one, so a run
reports over several.

``reference=True`` runs the same loop the way unmodified software
would: levels pinned to (0, 0) on bulk, ``mode="plain"`` with a
``PlainCommunicator`` on the two servers.
"""

from __future__ import annotations

import socket
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from repro import LAN100, AdocSocket
from repro.data import (
    ascii_data,
    binary_data,
    decode_matrix_ascii,
    dense_matrix,
    encode_matrix_ascii,
    incompressible_data,
)
from repro.depot import ByteArrayDepot
from repro.depot.service import serve_depot
from repro.middleware import (
    AdocCommunicator,
    ConnectionLost,
    MsgType,
    PlainCommunicator,
    RpcError,
    RpcMessage,
    read_message,
    write_message,
)
from repro.middleware.server import ReactorRpcServer
from repro.transport import SocketEndpoint

from probes import CountingEndpoint, LinkCounters, PacedEndpoint, Spans, TimedSocket

__all__ = ["WORKLOADS", "LINK_RATE_BPS", "Op", "Outcome", "make_corpus"]

MB = 1024 * 1024
BULK_BYTES = 8 * MB
DEPOT_BYTES = 4 * MB
DEPOT_RATE_BPS = 80e6
#: Configured capacity of each workload's link; None for bare loopback.
LINK_RATE_BPS = {
    "bulk-lan100": LAN100.bandwidth_bps,
    "rpc-loopback": None,
    "depot-paced": DEPOT_RATE_BPS,
}
#: Sessions per run on the server workloads (see the module docstring).
SESSIONS = 3
#: Setups timed per run on the server workloads; setup_s is their median.
SETUP_REPEATS = 61
#: rpc-loopback cycles (of 10 calls) per measurement window, ~1 s.
RPC_WINDOW_CYCLES = 50
#: An operation slower than this counts as failed (timeout).
OP_TIMEOUT_S = 60.0


@dataclass
class Op:
    """One completed and verified client operation."""

    kind: str
    start: float
    end: float
    up: int
    down: int
    #: From the client's last write returning to the result being
    #: complete (depot: of the load call), i.e. the receive backlog.
    tail_s: float
    store_s: float = 0.0
    load_s: float = 0.0
    #: Process CPU seconds (both ends) when the operation ended.
    cpu: float = 0.0


@dataclass
class Window:
    """Consecutive operations and the wall and CPU seconds they took,
    counted from the previous window's end or the loop's start."""

    ops: list[Op]
    wall_s: float
    cpu_s: float


@dataclass
class Outcome:
    ops: list[Op] = field(default_factory=list)
    windows: list[Window] = field(default_factory=list)
    attempted: int = 0
    #: One line per failed operation.
    errors: list[str] = field(default_factory=list)
    setup_s: list[float] = field(default_factory=list)
    teardown_s: list[float] = field(default_factory=list)
    #: Wall seconds of the measured loops.
    wall_s: float = 0.0
    #: The client link proxy's counters as each measured loop ended,
    #: before the client's close (bulk: the sending ends' sends and the
    #: receiving ends' receives).
    links: list[dict[str, float]] = field(default_factory=list)
    #: Every client-side AdocSocket of the run, in order.
    sockets: list[TimedSocket] = field(default_factory=list)
    #: Summed over the run's servers.
    server_stats: dict[str, int] = field(default_factory=dict)
    #: Consecutive operations that make one latency sample.
    latency_group: int = 1

    @property
    def failed(self) -> int:
        return len(self.errors)

    def fail(self, what: str) -> None:
        self.errors.append(what)

    def close_loop(self, first_op: int, window: int, t_begin: float,
                   cpu_begin: float, link: LinkCounters) -> None:
        """Book the loop that produced ``ops[first_op:]``."""
        ops = self.ops[first_op:]
        self.wall_s += time.perf_counter() - t_begin
        self.links.append(link.snapshot())
        wall0, cpu0 = t_begin, cpu_begin
        window = min(window, len(ops)) or 1
        for i in range(0, len(ops) - window + 1, window):
            chunk = ops[i:i + window]
            self.windows.append(Window(chunk, chunk[-1].end - wall0, chunk[-1].cpu - cpu0))
            wall0, cpu0 = chunk[-1].end, chunk[-1].cpu


def make_corpus(workload: str, seed: int) -> dict:
    """Every input a workload sends, generated from ``seed`` alone."""
    s = seed * 16
    if workload == "bulk-lan100":
        return {
            "ascii": ascii_data(BULK_BYTES, s),
            "binary": binary_data(BULK_BYTES, s + 1),
            "incompressible": incompressible_data(BULK_BYTES, s + 2),
        }
    if workload == "rpc-loopback":
        small = [binary_data(2048, s + k) for k in range(16)]
        large = [binary_data(MB, s + 100 + k) for k in range(2)]
        pairs = []
        for k in range(4):
            a = encode_matrix_ascii(dense_matrix(64, s + 200 + 2 * k))
            b = encode_matrix_ascii(dense_matrix(64, s + 201 + 2 * k))
            pairs.append((a, b, decode_matrix_ascii(a) @ decode_matrix_ascii(b)))
        return {
            "small": small,
            "large": large,
            "dgemm": pairs,
            "ascii": b"".join(a + b for a, b, _ in pairs),
            "binary": large[0],
        }
    if workload == "depot-paced":
        return {
            "ascii": ascii_data(DEPOT_BYTES, s),
            "binary": binary_data(DEPOT_BYTES, s + 1),
        }
    raise ValueError(f"unknown workload {workload!r}")


def _describe(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


# -- bulk-lan100 ---------------------------------------------------------------


def _bulk_transfer(out: Outcome, link: LinkCounters, spans: Spans, payload: bytes,
                   cls: str, pair_seed: int, pinned: bool) -> None:
    t0 = time.perf_counter()
    a, b = LAN100.make_pair(seed=pair_seed)
    tx = TimedSocket(AdocSocket(CountingEndpoint(a, link, spans)), spans)
    rx = TimedSocket(AdocSocket(CountingEndpoint(b, link, spans)), spans)
    out.setup_s.append(time.perf_counter() - t0)
    out.sockets.append(tx)

    got: dict = {}

    def reader() -> None:
        try:
            got["data"] = rx.read_exact(len(payload))
            got["end"] = time.perf_counter()
        except Exception as exc:  # noqa: BLE001 - reported as a failed op
            got["error"] = exc

    thread = threading.Thread(target=reader, name="e2ebench-reader", daemon=True)
    thread.start()
    out.attempted += 1
    try:
        with spans.op("bench.op"):
            start = time.perf_counter()
            if pinned:
                tx.write_levels(payload, 0, 0)
            else:
                tx.write(payload)
            sent = time.perf_counter()
            thread.join(OP_TIMEOUT_S)
    except Exception as exc:  # noqa: BLE001 - reported as a failed op
        out.fail(f"{cls} write: {_describe(exc)}")
    else:
        if thread.is_alive():
            out.fail(f"{cls} transfer: no delivery within {OP_TIMEOUT_S}s")
        elif "error" in got:
            out.fail(f"{cls} read: {_describe(got['error'])}")
        elif got["data"] != payload:
            out.fail(f"{cls} transfer: delivered bytes differ from the payload")
        else:
            end = got["end"]
            out.ops.append(Op(cls, start, end, len(payload), 0, end - sent,
                              cpu=time.process_time()))
    t1 = time.perf_counter()
    tx.close()
    out.teardown_s.append(time.perf_counter() - t1)
    rx.close()
    thread.join(OP_TIMEOUT_S)
    if thread.is_alive():
        out.fail(f"{cls} reader thread still running after close")


def run_bulk(corpus: dict, seconds: float, spans: Spans, reference: bool,
             seed: int) -> Outcome:
    classes = ("ascii", "binary", "incompressible")
    # One latency sample is one message of each class: single transfers
    # differ by class more than by run, so their median is unstable.
    out, link = Outcome(latency_group=len(classes)), LinkCounters()
    cpu_begin, t_begin = time.process_time(), time.perf_counter()
    deadline = t_begin + seconds
    k = 0
    # Whole class cycles only, so every run weighs the classes equally.
    while not out.failed and (k == 0 or time.perf_counter() < deadline):
        for cls in classes:
            _bulk_transfer(out, link, spans, corpus[cls], cls, seed * 1000 + k, reference)
            k += 1
            if out.failed:
                break
    out.close_loop(0, len(classes), t_begin, cpu_begin, link)
    return out


# -- rpc-loopback and depot-paced ------------------------------------------------


class _Session:
    """A server plus one client connection: the two server workloads."""

    def __init__(self, out: Outcome, spans: Spans, mode: str, make_server,
                 paced: bool) -> None:
        t0 = time.perf_counter()
        self.server, address = make_server(mode)
        sock = socket.create_connection(address, timeout=10.0)
        sock.settimeout(None)
        # As `adoc send` and tcp_pair do: without it Nagle plus delayed
        # ACK holds every small reply for tens of milliseconds.
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        link = SocketEndpoint(sock)
        if paced:
            link = PacedEndpoint(link, DEPOT_RATE_BPS)
        self.link = LinkCounters()
        endpoint = CountingEndpoint(link, self.link, spans)
        if mode == "adoc":
            self.comm = AdocCommunicator(endpoint)
            self.socket = self.comm.socket = TimedSocket(self.comm.socket, spans)
        else:
            self.comm = PlainCommunicator(endpoint)
            self.socket = None
        out.setup_s.append(time.perf_counter() - t0)
        self.spans = spans

    def call(self, name: str, args: list[bytes]) -> tuple[list[bytes], float]:
        """One RPC; returns the reply arguments and when sending ended."""
        spans = self.spans
        with spans.span("middleware.write_message"):
            write_message(self.comm, RpcMessage(MsgType.REQUEST, name, args))
        sent = time.perf_counter()
        with spans.span("middleware.read_message"):
            reply = read_message(self.comm)
        if reply is None:
            raise ConnectionLost("connection closed before a reply")
        if reply.type != MsgType.RESPONSE or reply.status != 0:
            detail = reply.args[0].decode("utf-8", "replace") if reply.args else "?"
            raise RpcError(f"{name} failed remotely: {detail}")
        return reply.args, sent

    def close(self, out: Outcome) -> None:
        """Client first, peer still up (as a real client finds it), then
        the server."""
        self.spans.detach()
        t0 = time.perf_counter()
        self.comm.close()
        out.teardown_s.append(time.perf_counter() - t0)
        stats = out.server_stats
        for key, value in (
            ("requests", self.server.stats.requests),
            ("errors", self.server.stats.errors),
            ("pool_completed", self.server.pool.stats()["completed"]),
        ):
            stats[key] = stats.get(key, 0) + value
        self.server.close()


def _run_sessions(out: Outcome, spans: Spans, mode: str, make_server, paced: bool,
                  seconds: float, window: int, make_cycle) -> None:
    """:data:`SESSIONS` sessions of ``seconds / SESSIONS`` each.

    ``make_cycle(session)`` returns a callable giving one workload cycle
    as a list of checks; each check runs one operation, verifies it and
    returns its :class:`Op`.  A session's client close waits out the
    library's teardown on a closer thread while the next session runs;
    at most two connections are open at once.
    """
    # Spare setups never read, so closing them starts no reception
    # thread and stays out of teardown_s, which times loaded clients.
    # They are spread before, between and after the sessions: setup time
    # drifts with the host's load over seconds.
    per_slot = (SETUP_REPEATS - SESSIONS) // (SESSIONS + 1)

    def spare_setups() -> None:
        for _ in range(per_slot):
            spare = _Session(out, spans, mode, make_server, paced)
            spare.comm.close()
            spare.server.close()

    def reap(closer: threading.Thread) -> None:
        closer.join(2 * OP_TIMEOUT_S)
        if closer.is_alive():
            out.fail("client close did not return")

    closers: list[threading.Thread] = []
    try:
        for i in range(SESSIONS):
            if i >= 2:
                # A closing client keeps its connection until the close
                # returns: at most one of them beside the next session.
                reap(closers[i - 2])
            spare_setups()
            session = _Session(out, spans, mode, make_server, paced)
            if session.socket is not None:
                out.sockets.append(session.socket)
            _closed_loop(out, session, seconds / SESSIONS, window, make_cycle(session))
            closer = threading.Thread(
                target=session.close, args=(out,), name="e2ebench-closer", daemon=True
            )
            closer.start()
            closers.append(closer)
            if out.failed:
                break
        spare_setups()
    finally:
        for closer in closers:
            reap(closer)


def _closed_loop(out: Outcome, session: _Session, seconds: float, window: int,
                 cycle) -> None:
    """Run ``cycle`` until the deadline, whole cycles only."""
    first = len(out.ops)
    cpu_begin, t_begin = time.process_time(), time.perf_counter()
    deadline = t_begin + seconds
    while not out.failed and (len(out.ops) == first or time.perf_counter() < deadline):
        for check in cycle():
            out.attempted += 1
            try:
                op = check()
            except Exception as exc:  # noqa: BLE001 - reported as a failed op
                out.fail(_describe(exc))
                break
            if op.end - op.start > OP_TIMEOUT_S:
                out.fail(f"{op.kind}: {op.end - op.start:.1f}s exceeds {OP_TIMEOUT_S}s")
                break
            op.cpu = time.process_time()
            out.ops.append(op)
    out.close_loop(first, window, t_begin, cpu_begin, session.link)


def _rpc_server(mode: str):
    server = ReactorRpcServer("e2ebench-rpc", mode=mode)
    return server, server.listen()


def run_rpc(corpus: dict, seconds: float, spans: Spans, reference: bool,
            seed: int) -> Outcome:
    out = Outcome()
    small, large, pairs = corpus["small"], corpus["large"], corpus["dgemm"]
    counter = iter(range(1 << 62))

    def make_cycle(session: _Session):
        def echo(kind: str, payload: bytes):
            def check() -> Op:
                with spans.op("bench.op"):
                    start = time.perf_counter()
                    args, sent = session.call("echo", [payload])
                    end = time.perf_counter()
                if args != [payload]:
                    raise RpcError(f"{kind}: echoed bytes differ")
                return Op(kind, start, end, len(payload), len(args[0]), end - sent)
            return check

        def dgemm(a: bytes, b: bytes, expected: np.ndarray):
            def check() -> Op:
                with spans.op("bench.op"):
                    start = time.perf_counter()
                    args, sent = session.call("dgemm", [a, b])
                    end = time.perf_counter()
                if len(args) != 1 or not np.allclose(decode_matrix_ascii(args[0]), expected):
                    raise RpcError("dgemm: product differs from A @ B")
                return Op("dgemm", start, end, len(a) + len(b), len(args[0]), end - sent)
            return check

        def cycle():
            i = next(counter)
            checks = [echo("echo_small", small[(8 * i + j) % len(small)]) for j in range(8)]
            checks.append(dgemm(*pairs[i % len(pairs)]))
            checks.append(echo("echo_large", large[i % len(large)]))
            return checks

        return cycle

    _run_sessions(out, spans, "plain" if reference else "adoc", _rpc_server, False,
                  seconds, RPC_WINDOW_CYCLES * 10, make_cycle)
    return out


def _depot_server(mode: str):
    return serve_depot(ByteArrayDepot(total_capacity=64 * MB), mode=mode)


def run_depot(corpus: dict, seconds: float, spans: Spans, reference: bool,
              seed: int) -> Outcome:
    out = Outcome()
    offset = (0).to_bytes(8, "big")

    def make_cycle(session: _Session):
        def store_load(cls: str, payload: bytes):
            def check() -> Op:
                with spans.op("bench.op"):
                    start = time.perf_counter()
                    (_, read_cap, write_cap), _ = session.call(
                        "ibp.allocate", [len(payload).to_bytes(8, "big")]
                    )
                    t_store = time.perf_counter()
                    with spans.span("depot.store"):
                        stored, _ = session.call("ibp.store", [write_cap, offset, payload])
                    t_load = time.perf_counter()
                    with spans.span("depot.load"):
                        (data,), sent = session.call("ibp.load", [read_cap, offset, b""])
                    t_loaded = time.perf_counter()
                    session.call("ibp.free", [write_cap])
                    end = time.perf_counter()
                if int.from_bytes(stored[0], "big") != len(payload):
                    raise RpcError(f"{cls} store: depot reports {stored[0]!r} bytes")
                if data != payload:
                    raise RpcError(f"{cls} load: loaded bytes differ from the stored ones")
                return Op(cls, start, end, len(payload), len(data), t_loaded - sent,
                          store_s=t_load - t_store, load_s=t_loaded - t_load)
            return check

        def cycle():
            return [store_load("ascii", corpus["ascii"]),
                    store_load("binary", corpus["binary"])]

        return cycle

    _run_sessions(out, spans, "plain" if reference else "adoc", _depot_server, True,
                  seconds, 2, make_cycle)
    return out


WORKLOADS = {
    "bulk-lan100": run_bulk,
    "rpc-loopback": run_rpc,
    "depot-paced": run_depot,
}
