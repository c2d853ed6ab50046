"""Endpoint conformance: a close from another thread wakes a blocked recv.

Teardown depends on it: ``adoc_close`` closes the endpoint and then
joins the reception thread, which is usually parked in ``recv()``.  If
closing does not wake that call, every close waits out the full join
timeout and the thread outlives its connection.  Every endpoint type is
checked: real sockets, the wrappers that delegate ``close`` to them, the
in-memory pipes and the shaped conduit.
"""

from __future__ import annotations

import select
import threading
import time

import pytest

from repro.serve.channel import NonBlockingEndpoint
from repro.transport import (
    LAN100,
    FaultyEndpoint,
    PacedEndpoint,
    pipe_pair,
    socketpair_endpoints,
)

#: A woken recv must return within this long after close().
WAKE_S = 0.1


def _socket():
    ep, peer = socketpair_endpoints()
    return ep, lambda: ep.recv(4096), peer


def _faulty():
    inner, peer = socketpair_endpoints()
    ep = FaultyEndpoint(inner)
    return ep, lambda: ep.recv(4096), peer


def _paced():
    inner, peer = socketpair_endpoints()
    ep = PacedEndpoint(inner, rate_bps=80e6)
    return ep, lambda: ep.recv(4096), peer


def _non_blocking():
    # A reactor waits in select() rather than recv(); after shutdown the
    # socket reads as EOF, so the wait ends and try_recv sees b"".
    inner, peer = socketpair_endpoints()
    ep = NonBlockingEndpoint(inner)

    def wait_then_recv():
        select.select([ep], [], [])
        return ep.try_recv(4096)

    return ep, wait_then_recv, peer


def _pipe():
    ep, peer = pipe_pair()
    return ep, lambda: ep.recv(4096), peer


def _shaped():
    ep, peer = LAN100.make_pair(seed=1)
    return ep, lambda: ep.recv(4096), peer


@pytest.mark.parametrize(
    "make",
    [_socket, _faulty, _paced, _non_blocking, _pipe, _shaped],
    ids=["socket", "faulty", "paced", "non_blocking", "pipe", "shaped"],
)
def test_close_from_another_thread_wakes_blocked_recv(make):
    endpoint, blocking_recv, peer = make()
    returned = threading.Event()
    woke_at: list[float] = []

    def reader() -> None:
        try:
            blocking_recv()
        except Exception:  # noqa: BLE001 - an error return also wakes it
            pass
        woke_at.append(time.monotonic())
        returned.set()

    t = threading.Thread(target=reader, name="blocked-recv", daemon=True)
    t.start()
    time.sleep(0.05)  # let the reader park in the kernel
    assert not returned.is_set(), "recv returned before any close"
    closed_at = time.monotonic()
    endpoint.close()
    woke = returned.wait(2.0)
    peer.close()
    t.join(2.0)
    assert woke and not t.is_alive(), "close did not wake the blocked recv"
    assert woke_at[0] - closed_at < WAKE_S
