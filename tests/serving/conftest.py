"""Shared fixtures for the serving test suite.

Every test talks to the service over a *real* HTTP socket — the server is
bound to an ephemeral localhost port and served from a daemon thread — but
workers run as :func:`repro.runner.worker.run_worker` loops on threads
(the supervisor-test idiom), so the full cold path (HTTP → broker → worker
→ result store → HTTP) is exercised without subprocess startup per test.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.runner.worker import run_worker
from repro.serving import LabelingService
from repro.serving.server import serve


class ServingClient:
    """A tiny urllib client: ``(status, payload, headers)`` per call."""

    def __init__(self, base_url: str):
        self.base_url = base_url

    def request(self, method: str, path: str, body=None):
        data = json.dumps(body).encode("utf-8") if body is not None else None
        request = urllib.request.Request(
            self.base_url + path, data=data, method=method
        )
        if data is not None:
            request.add_header("Content-Type", "application/json")
        try:
            with urllib.request.urlopen(request, timeout=30) as response:
                return response.status, json.loads(response.read()), dict(response.headers)
        except urllib.error.HTTPError as error:
            return error.code, json.loads(error.read()), dict(error.headers)

    def raw(self, method: str, path: str, body=None) -> bytes:
        """The exact response bytes (for byte-identity assertions)."""
        data = json.dumps(body).encode("utf-8") if body is not None else None
        request = urllib.request.Request(
            self.base_url + path, data=data, method=method
        )
        if data is not None:
            request.add_header("Content-Type", "application/json")
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.read()

    def get(self, path: str):
        return self.request("GET", path)

    def post(self, path: str, body=None):
        return self.request("POST", path, body)

    def delete(self, path: str):
        return self.request("DELETE", path)


class KeepAliveClient:
    """One persistent ``http.client`` connection: ``(status, payload, headers)`` per call.

    :class:`ServingClient` opens a connection per request, so it never sees
    what happens to the second response on a reused connection.
    """

    def __init__(self, host: str, port: int):
        self.connection = http.client.HTTPConnection(host, port, timeout=30)

    def request(self, method: str, path: str, body=None):
        data = json.dumps(body).encode("utf-8") if body is not None else None
        headers = {} if data is None else {"Content-Type": "application/json"}
        self.connection.request(method, path, body=data, headers=headers)
        response = self.connection.getresponse()
        return response.status, json.loads(response.read()), dict(response.headers)

    def close(self) -> None:
        self.connection.close()


class ServingHarness:
    """One service + HTTP server + optional thread workers, torn down cleanly."""

    def __init__(self, tmp_path, **service_kwargs):
        self.spool = tmp_path / "spool"
        self.cache_dir = tmp_path / "cache"
        service_kwargs.setdefault("poll_interval", 0.05)
        self.service = LabelingService(self.spool, self.cache_dir, **service_kwargs)
        self.server = serve(self.service, quiet=True)
        host, port = self.server.server_address[:2]
        self.client = ServingClient(f"http://{host}:{port}")
        self._address = (host, port)
        self._keep_alive: list[KeepAliveClient] = []
        self._server_thread = threading.Thread(
            target=self.server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
        )
        self._server_thread.start()
        self._worker_threads: list[threading.Thread] = []

    def keep_alive_client(self) -> KeepAliveClient:
        """A client holding one connection open; closed at shutdown."""
        client = KeepAliveClient(*self._address)
        self._keep_alive.append(client)
        return client

    def start_worker(self, **kwargs) -> threading.Thread:
        """Run one worker loop on a thread against the shared spool/cache."""
        kwargs.setdefault("idle_timeout", 5.0)
        kwargs.setdefault("poll_interval", 0.05)
        kwargs.setdefault("quiet", True)
        thread = threading.Thread(
            target=run_worker,
            args=(str(self.spool), str(self.cache_dir)),
            kwargs=kwargs,
            daemon=True,
        )
        thread.start()
        self._worker_threads.append(thread)
        return thread

    def join_workers(self, timeout: float = 60.0) -> None:
        for thread in self._worker_threads:
            thread.join(timeout=timeout)

    def poll_until_done(self, key: str, timeout: float = 60.0):
        """Poll ``GET /label/<key>`` until a terminal status; returns the last reply.

        *timeout* is wall time: a pending poll is itself held for up to a
        watcher tick, so the sleeps between polls undercount it.
        """
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            status, payload, headers = self.client.get(f"/label/{key}")
            if status != 202:
                return status, payload, headers
            time.sleep(0.1)
        raise AssertionError(f"label job {key} still pending after {timeout}s")

    def shutdown(self) -> None:
        for client in self._keep_alive:
            client.close()
        self.server.shutdown()
        self.server.server_close()
        self.service.close()
        self.join_workers(timeout=5.0)


@pytest.fixture()
def harness_factory(tmp_path):
    """Build serving harnesses; everything is shut down at teardown."""
    built = []

    def factory(**service_kwargs):
        harness = ServingHarness(tmp_path / f"h{len(built)}", **service_kwargs)
        built.append(harness)
        return harness

    yield factory
    for harness in built:
        harness.shutdown()
