"""The stdlib HTTP layer: routes, CLI entry point, graceful drain.

``python -m repro.serving.server --spool DIR --cache-dir DIR`` starts the
always-on labeling service over an existing worker fleet (spawn workers
with ``python -m repro.runner.worker`` or the supervisor; this process
never executes trials itself).  The server is a
:class:`http.server.ThreadingHTTPServer` — one daemon thread per request —
delegating every route to the HTTP-independent
:class:`~repro.serving.service.LabelingService` and rendering its
``(status, payload, headers)`` answers through
:func:`~repro.serving.schemas.canonical_json`, so responses are
byte-stable across processes.

Routes
======

==========  ===============================  =====================================
``POST``    ``/label``                       submit a label request (200/202/429)
``GET``     ``/label/<key>``                 poll a job by content key; a pending
                                             job's poll is held up to one watcher
                                             tick (200/202/404/500)
``GET``     ``/sessions``                    list sessions
``POST``    ``/sessions``                    open an interactive session
``POST``    ``/sessions/<id>/lfs``           stream one LF into a session
``GET``     ``/sessions/<id>/labels``        the session's current labels
``POST``    ``/sessions/<id>/evict``         force-suspend a session to disk
``DELETE``  ``/sessions/<id>``               close a session
``GET``     ``/healthz``                     liveness (503 while draining)
``GET``     ``/stats``                       counters for ops and tests
==========  ===============================  =====================================

SIGINT/SIGTERM trigger a graceful drain: new work is refused with 503,
pending jobs get a grace period to finish, live sessions are suspended to
disk, and the process exits 0.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.runner.brokers import DEFAULT_LEASE_TTL
from repro.serving.schemas import canonical_json
from repro.serving.service import LabelingService

#: Maximum accepted request-body size; a labeling request is a dataset
#: name and an LF list, so anything near this is malformed or hostile.
MAX_BODY_BYTES = 4 * 1024 * 1024


class LabelingRequestHandler(BaseHTTPRequestHandler):
    """Translate HTTP requests into :class:`LabelingService` calls.

    The handler owns no state: the service lives on the server object
    (``self.server.service``), and every response body is rendered with
    :func:`canonical_json` so identical payloads are identical bytes.
    """

    protocol_version = "HTTP/1.1"
    server_version = "repro-labeling"
    # A response goes out as two sends (headers, then body).  With Nagle on,
    # every response after the first on a keep-alive connection holds its
    # body until the client's delayed ACK of the headers: ~40 ms per request.
    disable_nagle_algorithm = True

    # Quiet by default: per-request lines go through log_message, which the
    # CLI's --quiet suppresses entirely.
    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        """Per-request log line (suppressed when the server is quiet)."""
        if not getattr(self.server, "quiet", False):
            sys.stderr.write(
                "%s - %s\n" % (self.address_string(), format % args)
            )

    @property
    def service(self) -> LabelingService:
        """The service instance the owning server was built around."""
        return self.server.service

    def do_GET(self) -> None:  # noqa: N802 - stdlib casing
        """Route GET requests."""
        parts = [part for part in self.path.split("?", 1)[0].split("/") if part]
        if parts == ["healthz"]:
            self._respond(*self.service.healthz())
        elif parts == ["stats"]:
            self._respond(*self.service.stats())
        elif parts == ["sessions"]:
            self._respond(*self.service.list_sessions())
        elif len(parts) == 2 and parts[0] == "label":
            self._respond(*self.service.status(parts[1]))
        elif len(parts) == 3 and parts[0] == "sessions" and parts[2] == "labels":
            self._respond(*self.service.session_labels(parts[1]))
        else:
            self._respond(404, {"error": f"no route for GET {self.path}"}, {})

    def do_POST(self) -> None:  # noqa: N802 - stdlib casing
        """Route POST requests."""
        parts = [part for part in self.path.split("?", 1)[0].split("/") if part]
        if parts == ["label"]:
            body, error = self._read_json()
            self._respond(*(error or self.service.submit(body)))
        elif parts == ["sessions"]:
            body, error = self._read_json()
            self._respond(*(error or self.service.create_session(body)))
        elif len(parts) == 3 and parts[0] == "sessions" and parts[2] == "lfs":
            body, error = self._read_json()
            self._respond(*(error or self.service.session_add_lf(parts[1], body)))
        elif len(parts) == 3 and parts[0] == "sessions" and parts[2] == "evict":
            self._respond(*self.service.session_evict(parts[1]))
        else:
            self._respond(404, {"error": f"no route for POST {self.path}"}, {})

    def do_DELETE(self) -> None:  # noqa: N802 - stdlib casing
        """Route DELETE requests."""
        parts = [part for part in self.path.split("?", 1)[0].split("/") if part]
        if len(parts) == 2 and parts[0] == "sessions":
            self._respond(*self.service.session_delete(parts[1]))
        else:
            self._respond(404, {"error": f"no route for DELETE {self.path}"}, {})

    def _read_json(self):
        """Parse the request body as JSON; returns ``(body, error_response)``."""
        try:
            length = int(self.headers.get("Content-Length", 0))
        except ValueError:
            length = -1
        if length < 0 or length > MAX_BODY_BYTES:
            return None, (413, {"error": "request body too large or unsized"}, {})
        raw = self.rfile.read(length) if length else b""
        try:
            return json.loads(raw.decode("utf-8") or "null"), None
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            return None, (400, {"error": f"invalid JSON body: {error}"}, {})

    def _respond(self, status: int, payload: dict, headers: dict) -> None:
        """Send one canonical-JSON response."""
        body = canonical_json(payload)
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in headers.items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)


class LabelingServer(ThreadingHTTPServer):
    """A :class:`ThreadingHTTPServer` carrying the service for its handlers."""

    daemon_threads = True

    def __init__(self, address, service: LabelingService, quiet: bool = False):
        super().__init__(address, LabelingRequestHandler)
        self.service = service
        self.quiet = quiet


def serve(
    service: LabelingService,
    host: str = "127.0.0.1",
    port: int = 0,
    quiet: bool = False,
) -> LabelingServer:
    """Bind a :class:`LabelingServer` (port 0 = ephemeral); does not block.

    The caller runs ``server.serve_forever()`` (or a thread does, in
    tests) and is responsible for ``server.shutdown()``.
    """
    return LabelingServer((host, port), service, quiet=quiet)


def build_parser() -> argparse.ArgumentParser:
    """CLI for ``python -m repro.serving.server``."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.serving.server",
        description="Always-on labeling service over a repro worker fleet.",
    )
    parser.add_argument("--spool", required=True, help="spool directory shared with workers")
    parser.add_argument("--cache-dir", required=True, help="result-store root shared with workers")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0, help="0 binds an ephemeral port")
    parser.add_argument("--lease-ttl", type=float, default=DEFAULT_LEASE_TTL)
    parser.add_argument("--max-inflight", type=int, default=8)
    parser.add_argument("--retry-after", type=float, default=1.0)
    parser.add_argument("--max-sessions", type=int, default=8)
    parser.add_argument("--session-dir", default=None)
    parser.add_argument("--poll-interval", type=float, default=0.2)
    parser.add_argument("--drain-grace", type=float, default=30.0,
                        help="seconds pending jobs get to finish on SIGINT/SIGTERM")
    parser.add_argument("--quiet", action="store_true")
    return parser


def main(argv: list[str] | None = None) -> int:
    """Entry point: serve until SIGINT/SIGTERM, then drain and exit 0.

    Prints ``serving http://HOST:PORT`` on stdout once bound (flushed), so
    examples and smoke tests can parse the ephemeral address.
    """
    args = build_parser().parse_args(argv)
    service = LabelingService(
        args.spool,
        args.cache_dir,
        lease_ttl=args.lease_ttl,
        max_inflight=args.max_inflight,
        retry_after=args.retry_after,
        max_sessions=args.max_sessions,
        session_dir=args.session_dir,
        poll_interval=args.poll_interval,
    )
    server = serve(service, host=args.host, port=args.port, quiet=args.quiet)
    host, port = server.server_address[:2]
    print(f"serving http://{host}:{port}", flush=True)

    stop = threading.Event()

    def _signal_drain(signum, frame):
        # Only flag here: drain touches locks and must not run in signal
        # context while a request thread holds them.
        stop.set()
        threading.Thread(target=server.shutdown, daemon=True).start()

    signal.signal(signal.SIGINT, _signal_drain)
    signal.signal(signal.SIGTERM, _signal_drain)

    try:
        server.serve_forever(poll_interval=0.1)
    finally:
        summary = service.drain(grace=args.drain_grace)
        server.server_close()
        if not args.quiet:
            print(
                "drained"
                f" pending={summary['pending']}"
                f" suspended_sessions={summary['suspended']}",
                flush=True,
            )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
