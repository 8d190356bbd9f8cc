"""Keep-alive connections: no response waits for the client's delayed ACK.

A response goes out as two sends, headers then body.  With Nagle's
algorithm on, the body of every response after the first on a reused
connection waits until the client acknowledges the headers, and a client
delays that ACK by ~40 ms.  The service turns Nagle off on every accepted
socket, so a request on a warm connection costs its compute alone.
"""

from __future__ import annotations

import socket
import time

from repro.serving.server import LabelingRequestHandler

#: Requests in the timing check and what the stall would cost them.
N_REQUESTS = 20
STALL_S = 0.040


def test_served_socket_sets_tcp_nodelay(harness_factory, monkeypatch):
    seen = []
    setup = LabelingRequestHandler.setup

    def recording_setup(handler):
        setup(handler)
        seen.append(
            handler.connection.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
        )

    monkeypatch.setattr(LabelingRequestHandler, "setup", recording_setup)
    harness = harness_factory()
    status, payload, _ = harness.keep_alive_client().request("GET", "/healthz")
    assert (status, payload["status"]) == (200, "ok")
    assert len(seen) == 1 and seen[0] != 0


def test_sequential_requests_on_one_connection_do_not_stall(harness_factory):
    harness = harness_factory()
    client = harness.keep_alive_client()
    client.request("GET", "/healthz")  # connect outside the timed loop
    sock = client.connection.sock
    started = time.perf_counter()
    for _ in range(N_REQUESTS):
        status, _, headers = client.request("GET", "/healthz")
        assert status == 200
        assert headers.get("Connection", "").lower() != "close"
    elapsed = time.perf_counter() - started
    assert client.connection.sock is sock  # every request reused the socket
    # With the stall each request costs >= 40 ms (>= 0.8 s in all); without
    # it a /healthz round trip is well under a millisecond.
    assert elapsed < N_REQUESTS * STALL_S / 2, (
        f"{N_REQUESTS} keep-alive requests took {elapsed:.3f}s"
    )
