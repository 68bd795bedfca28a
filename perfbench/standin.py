"""Stand-in chat-completion model for the episodes-remote workload.

Usage: python3 perfbench/standin.py --store STORE --dataset DATASET --ready-file PATH

Binds 127.0.0.1 on a free port, writes the port to ``--ready-file`` once it
listens, and answers ``POST`` requests in the chat-completion wire format
``estateqa.backends.HttpBackend`` sends: ``{model, temperature, messages}``
in, ``{"choices": [{"message": {"role": "assistant", "content": ...}}]}``
out. Each reply is what ``OracleBackend`` gives for the same prompt, sent
after a fixed 10 ms delay. ``GET /stats`` reports the request count and the total
handling time. The server stops on SIGTERM.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

DELAY_S = 0.010  # the stand-in model's fixed latency per request


class Stats:
    def __init__(self) -> None:
        self.requests = 0
        self.errors = 0
        self.handling_ns = 0
        self.lock = threading.Lock()

    def record(self, handling_ns: int, ok: bool) -> None:
        with self.lock:
            self.requests += 1
            self.errors += not ok
            self.handling_ns += handling_ns

    def to_dict(self) -> dict[str, float]:
        with self.lock:
            return {
                "requests": self.requests,
                "errors": self.errors,
                "handling_ms": self.handling_ns / 1e6,
            }


def make_handler(backend, stats: Stats):
    from estateqa.backends import BackendError

    class Handler(BaseHTTPRequestHandler):
        def do_POST(self) -> None:  # noqa: N802 - http.server naming
            start = time.perf_counter_ns()
            try:
                length = int(self.headers.get("Content-Length", "0"))
                payload = json.loads(self.rfile.read(length))
                messages = payload["messages"]
                time.sleep(DELAY_S)
                reply = backend.complete(messages[0]["content"], messages[1:])
                body = {"choices": [{"message": {"role": "assistant", "content": reply}}]}
                status = 200
            except (KeyError, IndexError, TypeError, ValueError, BackendError) as exc:
                body = {"error": {"message": str(exc)}}
                status = 400
            self._send(status, body)
            stats.record(time.perf_counter_ns() - start, status == 200)

        def do_GET(self) -> None:  # noqa: N802
            if self.path == "/stats":
                self._send(200, stats.to_dict())
            else:
                self._send(404, {"error": {"message": "not found"}})

        def _send(self, status: int, body: dict) -> None:
            data = json.dumps(body, ensure_ascii=False).encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            self.wfile.write(data)

        def log_message(self, format: str, *args) -> None:  # quiet
            pass

    return Handler


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--store", required=True)
    parser.add_argument("--dataset", required=True)
    parser.add_argument("--ready-file", required=True)
    args = parser.parse_args(argv)

    from estateqa.domain import read_instances
    from estateqa.evaluator import make_oracle_backend
    from estateqa.store import GeoStore

    store = GeoStore.open(args.store)
    backend = make_oracle_backend(list(read_instances(args.dataset)), store)
    store.close()

    stats = Stats()
    server = ThreadingHTTPServer(("127.0.0.1", 0), make_handler(backend, stats))
    server.daemon_threads = True

    def stop(_signum, _frame) -> None:
        threading.Thread(target=server.shutdown, daemon=True).start()

    signal.signal(signal.SIGTERM, stop)
    tmp = args.ready_file + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(str(server.server_address[1]))
    os.replace(tmp, args.ready_file)
    try:
        server.serve_forever(poll_interval=0.05)
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
