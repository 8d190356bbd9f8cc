"""Run the always-on labeling service end to end on a single machine.

Demonstrates the serving layer over a live worker fleet:

1. start ``python -m repro.serving.server`` as a subprocess (ephemeral
   port, parsed from its startup line) over a shared spool/cache;
2. start one elastic supervisor (``python -m repro.runner.supervisor``)
   that scales worker daemons to the queue;
3. submit a cold label request over HTTP, poll it to completion, and
   verify the response is **byte-identical** to a direct in-process engine
   run of the same canonicalised spec;
4. repeat the request, then again with a mixed-case dataset name, and
   verify both are served warm from the result store with **zero** new
   broker enqueues (``/stats`` proves it); then repeat it 10 times over one
   keep-alive connection and require a median round trip of at most
   20 ms (a response that waits for the client's delayed ACK takes
   >= 40 ms);
5. stream LFs into an interactive session, force an eviction to disk
   mid-stream, resume, and verify the final labels match an uninterrupted
   session;
6. SIGINT the server and verify it drains and exits cleanly (code 0).

Usage::

    python examples/serving_demo.py [--dataset youtube] [--scale 0.15] \
        [--num-workers 2] [--keep-dirs]
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import urllib.error
import urllib.parse
import urllib.request
from http.client import HTTPConnection

from repro.runner import run_trial
from repro.runner.fleet import fleet_paths, subprocess_env, supervisor_command
from repro.serving.schemas import canonical_json, label_payload, parse_label_request
from repro.serving.sessions import LabelingSession

#: Warm repeats over one keep-alive connection, and the median round trip
#: they must stay under.
KEEP_ALIVE_REPEATS = 10
KEEP_ALIVE_MAX_MEDIAN_MS = 20.0

LFS = [
    {"type": "keyword", "keyword": "check", "label": 1},
    {"type": "keyword", "keyword": "subscribe", "label": 1},
    {"type": "keyword", "keyword": "song", "label": 0},
    {"type": "keyword", "keyword": "love", "label": 0},
]


def http(base: str, method: str, path: str, body=None):
    """One JSON request; returns ``(status, payload)``."""
    data = json.dumps(body).encode("utf-8") if body is not None else None
    request = urllib.request.Request(base + path, data=data, method=method)
    if data is not None:
        request.add_header("Content-Type", "application/json")
    try:
        with urllib.request.urlopen(request, timeout=60) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def http_raw(base: str, method: str, path: str, body=None) -> bytes:
    """One JSON request; returns the exact response bytes (2xx only)."""
    data = json.dumps(body).encode("utf-8") if body is not None else None
    request = urllib.request.Request(base + path, data=data, method=method)
    if data is not None:
        request.add_header("Content-Type", "application/json")
    with urllib.request.urlopen(request, timeout=60) as response:
        return response.read()


def keep_alive_round_trips(base: str, body, expected: bytes, repeats: int) -> list[float]:
    """Seconds per ``POST /label`` of *body*, *repeats* times over one connection.

    Each response must be *expected*, byte for byte.
    """
    url = urllib.parse.urlsplit(base)
    connection = HTTPConnection(url.hostname, url.port, timeout=60)
    data = json.dumps(body).encode("utf-8")
    seconds = []
    try:
        connection.connect()
        for _ in range(repeats):
            started = time.perf_counter()
            connection.request(
                "POST", "/label", body=data, headers={"Content-Type": "application/json"}
            )
            response = connection.getresponse()
            payload = response.read()
            seconds.append(time.perf_counter() - started)
            assert response.status == 200 and payload == expected
    finally:
        connection.close()
    return seconds


def start_server(spool: str, cache_dir: str):
    """Launch the serving daemon; returns ``(process, base_url)``."""
    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro.serving.server",
            "--spool", spool, "--cache-dir", cache_dir,
            "--port", "0", "--poll-interval", "0.1",
        ],
        env=subprocess_env(),
        stdout=subprocess.PIPE,
        text=True,
    )
    line = process.stdout.readline().strip()
    assert line.startswith("serving http://"), f"unexpected startup line: {line!r}"
    return process, line.split(" ", 1)[1]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dataset", default="youtube")
    parser.add_argument("--scale", type=float, default=0.15)
    parser.add_argument("--num-workers", type=int, default=2)
    parser.add_argument("--work-dir", default=None)
    parser.add_argument("--keep-dirs", action="store_true")
    args = parser.parse_args()

    work_dir = args.work_dir or tempfile.mkdtemp(prefix="repro-serving-")
    spool, cache_dir = fleet_paths(work_dir)
    body = {"dataset": args.dataset, "lfs": LFS, "scale": args.scale}

    print("Starting labeling server ...")
    server, base = start_server(spool, cache_dir)
    print(f"  server up at {base}")
    print(f"Starting a supervisor (max {args.num_workers} workers) ...")
    supervisor = subprocess.Popen(
        supervisor_command(
            spool, cache_dir,
            max_workers=args.num_workers, tasks_per_worker=1,
            worker_idle_timeout=5, interval=0.3,
        ),
        env=subprocess_env(),
    )

    try:
        status, payload = http(base, "GET", "/healthz")
        assert (status, payload["status"]) == (200, "ok")

        print("Submitting a cold label request ...")
        status, payload = http(base, "POST", "/label", body)
        assert status == 202, (status, payload)
        key = payload["key"]
        deadline = time.monotonic() + 300
        while True:
            status, payload = http(base, "GET", f"/label/{key}")
            if status != 202:
                break
            assert time.monotonic() < deadline, "label job timed out"
            time.sleep(0.2)
        assert status == 200, (status, payload)
        served = http_raw(base, "GET", f"/label/{key}")
        print(f"  done: final_test_accuracy={payload['final_test_accuracy']:.4f}")

        print("Verifying byte-identity against a direct engine run ...")
        spec = parse_label_request(body)
        direct = canonical_json(label_payload(spec, run_trial(spec)))
        assert served == direct, "served payload differs from the direct engine run"
        print(f"  {len(served)} bytes, identical")

        print("Repeating the request, then with a mixed-case dataset name "
              "(must be warm, zero new enqueues) ...")
        warm = http_raw(base, "POST", "/label", body)
        assert warm == served
        mixed = http_raw(base, "POST", "/label", {**body, "dataset": args.dataset.title()})
        assert mixed == served, "a mixed-case dataset name became a different trial"
        _, stats = http(base, "GET", "/stats")
        assert stats["requests"]["enqueued"] == 1, stats["requests"]
        assert stats["requests"]["warm_hits"] == 2, stats["requests"]
        print(f"  warm hit; broker enqueues still {stats['requests']['enqueued']}")

        print(f"Repeating it {KEEP_ALIVE_REPEATS} times over one keep-alive connection ...")
        rounds = keep_alive_round_trips(base, body, served, KEEP_ALIVE_REPEATS)
        median_ms = 1000 * statistics.median(rounds)
        assert median_ms <= KEEP_ALIVE_MAX_MEDIAN_MS, (
            f"median keep-alive warm round trip {median_ms:.1f} ms > "
            f"{KEEP_ALIVE_MAX_MEDIAN_MS:g} ms: responses wait for the client's delayed ACK"
        )
        print(f"  median round trip {median_ms:.2f} ms")

        print("Streaming LFs into a session (evict + resume mid-stream) ...")
        _, info = http(
            base, "POST", "/sessions",
            {"dataset": args.dataset, "scale": args.scale, "seed": 7},
        )
        sid = info["session_id"]
        for lf in LFS[:2]:
            status, _payload = http(base, "POST", f"/sessions/{sid}/lfs", lf)
            assert status == 200
        status, payload = http(base, "POST", f"/sessions/{sid}/evict")
        assert (status, payload["evicted"]) == (200, True)
        for lf in LFS[2:]:
            status, _payload = http(base, "POST", f"/sessions/{sid}/lfs", lf)
            assert status == 200
        _, resumed = http(base, "GET", f"/sessions/{sid}/labels")
        control = LabelingSession("control", args.dataset, seed=7, scale=args.scale)
        for lf in LFS:
            control.add_lf(lf)
        strip = lambda p: {k: v for k, v in p.items() if k != "session"}  # noqa: E731
        assert canonical_json(strip(resumed)) == canonical_json(
            strip(control.label_payload())
        ), "evicted-then-resumed session diverged from the uninterrupted one"
        print(f"  resumed session identical (coverage={resumed['labels']['coverage']:.3f})")
    finally:
        print("Draining the server (SIGINT) ...")
        server.send_signal(signal.SIGINT)
        code = server.wait(timeout=120)
        assert code == 0, f"server exited {code}, expected clean drain (0)"
        print("  server drained and exited 0")
        supervisor.send_signal(signal.SIGINT)
        code = supervisor.wait(timeout=120)
        assert code == 130, f"supervisor exited {code}, expected 130 (SIGINT)"

    if args.keep_dirs:
        print(f"Spool/cache kept under {work_dir}")
    elif args.work_dir is None:
        shutil.rmtree(work_dir, ignore_errors=True)
    print("OK")


if __name__ == "__main__":
    main()
