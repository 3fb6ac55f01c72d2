"""Local chat-completion service standing in for a remote model.

Usage: python3 perfbench/stub.py --plan plan.json --seed N --request-ms 22
       --sample-ms 1 [--throttle-share 0.03]

Prints ``port <n>`` once it listens on 127.0.0.1. Endpoints:

- ``POST /v1/chat/completions``: the wire format the program's chat backend
  speaks. Informalization, bootstrap and proving prompts are told apart by
  the section marker they end with. A reply depends only on the theorem the
  prompt names and on how many replies were served for that theorem since
  the last reset, following the plan the benchmark wrote: each theorem's
  informal text and its count of bad leading replies, and each problem's
  first correct sample. A run therefore replays identically.
- ``GET /stats``: requests, samples and 429 answers served since the reset.
- ``POST /reset``: forget all counters before the next pass.

Each request waits ``request-ms`` plus ``sample-ms`` per requested sample.
A seeded share of requests is answered 429 once, to exercise the client's
retry. Replies go out in one write with Nagle off: with two writes, delayed
ACKs add tens of milliseconds per request and the benchmark would measure
the TCP stack instead of the program.
"""

import argparse
import http.server
import json
import os
import random
import re
import signal
import socket
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

from inputs import (
    COMMENTED_SECTION,
    FL_PROOF_SECTION,
    FL_STATEMENT_SECTION,
    NEVER,
    NL_SECTION,
    comment_proof,
    corrupt,
    informal_reply,
    prove_reply,
)

_NAME = re.compile(r"(?:theorem|lemma)\s+(\S+)")


def _between(text: str, start: str, end: str) -> str:
    head = text.rsplit(start, 1)[1]
    return head.split(end, 1)[0]


class Replies:
    """Deterministic replies plus the counters the benchmark checks."""

    def __init__(self, plan: dict, seed: int, throttle_share: float):
        self.theorems = plan["theorems"]
        self.first_correct = plan["first_correct"]
        self.seed = seed
        self.throttle_share = throttle_share
        self.lock = threading.Lock()
        self.reset()

    def reset(self) -> None:
        with self.lock:
            self.served = {}
            self.throttled = set()
            self.stats = {"requests": 0, "samples": 0, "throttled": 0}

    def _text(self, kind: str, name: str, prompt: str, index: int) -> str:
        if kind == "informalize":
            plan = self.theorems[name]
            return informal_reply(plan["nl"], index, plan["informal_failures"])
        if kind == "bootstrap":
            proof = _between(prompt, FL_PROOF_SECTION + "\n",
                             "\n\n" + COMMENTED_SECTION)
            nl = _between(prompt, NL_SECTION + "\n", "\n\n" + FL_PROOF_SECTION)
            good = comment_proof(proof, nl)
            bad = self.theorems[name]["bootstrap_failures"]
            return corrupt(good) if index < bad else good
        statement = _between(prompt, FL_STATEMENT_SECTION + "\n",
                             "\n\n" + FL_PROOF_SECTION)
        return prove_reply(statement, index, self.first_correct.get(name, NEVER))

    def answer(self, prompt: str, n: int):
        """(status, texts). Classifies the prompt by its closing section."""
        if prompt.endswith(COMMENTED_SECTION + "\n"):
            kind = "bootstrap"
            name_source = _between(prompt, FL_PROOF_SECTION + "\n",
                                   "\n\n" + COMMENTED_SECTION)
        elif prompt.endswith(NL_SECTION + "\n"):
            kind = "informalize"
            name_source = prompt.rsplit(FL_STATEMENT_SECTION + "\n", 1)[1]
        elif prompt.endswith(FL_PROOF_SECTION + "\n"):
            kind = "prove"
            name_source = prompt.rsplit(FL_STATEMENT_SECTION + "\n", 1)[1]
        else:
            return 400, []
        match = _NAME.search(name_source)
        if match is None or (kind != "prove" and match.group(1) not in self.theorems):
            return 400, []
        key = (kind, match.group(1))
        with self.lock:
            self.stats["requests"] += 1
            first = self.served.get(key, 0)
            roll = random.Random(f"throttle:{self.seed}:{key}:{first}").random()
            if roll < self.throttle_share and (key, first) not in self.throttled:
                self.throttled.add((key, first))
                self.stats["throttled"] += 1
                return 429, []
            self.served[key] = first + n
            self.stats["samples"] += n
        return 200, [self._text(kind, key[1], prompt, first + i) for i in range(n)]


def make_handler(replies: Replies, request_s: float, sample_s: float):
    class Handler(http.server.BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        timeout = 5.0  # an idle keep-alive connection gives its thread back

        def setup(self):
            super().setup()
            self.connection.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

        def log_message(self, *args):
            pass

        def _send(self, status: int, payload) -> None:
            body = json.dumps(payload).encode("utf-8")
            head = (f"HTTP/1.1 {status} {self.responses[status][0]}\r\n"
                    "Content-Type: application/json\r\n"
                    f"Content-Length: {len(body)}\r\n\r\n").encode("ascii")
            self.wfile.write(head + body)

        def _body(self) -> bytes:
            return self.rfile.read(int(self.headers.get("Content-Length", 0)))

        def do_GET(self):
            if self.path == "/stats":
                with replies.lock:
                    self._send(200, dict(replies.stats))
            else:
                self._send(404, {})

        def do_POST(self):
            body = self._body()
            if self.path == "/reset":
                replies.reset()
                self._send(200, {})
                return
            if self.path != "/v1/chat/completions":
                self._send(404, {})
                return
            request = json.loads(body)
            n = int(request.get("n", 1))
            status, texts = replies.answer(request["messages"][-1]["content"], n)
            time.sleep(request_s + sample_s * n)
            if status != 200:
                self._send(status, {"error": "throttled" if status == 429 else "bad prompt"})
                return
            self._send(200, {"choices": [
                {"message": {"role": "assistant", "content": t}, "finish_reason": "stop"}
                for t in texts
            ]})

    return Handler


class PooledServer(http.server.HTTPServer):
    """Serves connections on a fixed pool of at most nproc threads."""

    def __init__(self, address, handler, workers: int):
        super().__init__(address, handler)
        self.pool = ThreadPoolExecutor(max_workers=workers)

    def process_request(self, request, client_address):
        self.pool.submit(self._serve, request, client_address)

    def _serve(self, request, client_address):
        try:
            self.finish_request(request, client_address)
        except Exception:
            self.handle_error(request, client_address)
        finally:
            self.shutdown_request(request)


def _exit_with_parent(parent: int) -> None:
    while os.getppid() == parent:
        time.sleep(0.5)
    os._exit(0)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--plan", required=True,
                        help="JSON with the per-theorem and per-problem reply plan")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--request-ms", type=float, required=True)
    parser.add_argument("--sample-ms", type=float, default=0.0)
    parser.add_argument("--throttle-share", type=float, default=0.0)
    args = parser.parse_args()
    with open(args.plan, "r", encoding="utf-8") as source:
        plan = json.load(source)
    replies = Replies(plan, args.seed, args.throttle_share)
    handler = make_handler(replies, args.request_ms / 1000.0, args.sample_ms / 1000.0)
    server = PooledServer(("127.0.0.1", 0), handler, workers=os.cpu_count() or 1)
    signal.signal(signal.SIGTERM, lambda *_: os._exit(0))
    threading.Thread(target=_exit_with_parent, args=(os.getppid(),), daemon=True).start()
    print(f"port {server.server_address[1]}", flush=True)
    server.serve_forever()
    return 0


if __name__ == "__main__":
    sys.exit(main())
