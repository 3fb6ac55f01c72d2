"""Tests for the generation client: retry, budget, backends."""

import contextlib
import http.server
import json
import os
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from leanforge import genclient
from leanforge.config import ProverSettings
from leanforge.genclient import (
    BackendUnavailable,
    BudgetExceeded,
    ChatCompletionBackend,
    GenerationBudget,
    GenerationRequest,
    GenerationResponse,
    MalformedBackendReply,
    MockBackend,
    Reservation,
    RetryPolicy,
    Sampler,
    complete,
    estimate_tokens,
    in_order,
)
from leanforge.prover import (
    MockVerifier,
    PoolExample,
    Problem,
    initial_state,
    run_iteration,
)
from leanforge.trainprep import WhitespaceTokenizer
from fixtures.listings import SQINEQ_COMMENTED


class TestRequestValidation:
    def test_response_requires_flag_per_sample(self):
        with pytest.raises(ValueError):
            GenerationResponse(
                samples=("a", "b"), backend_name="m", latency_ms=0.0,
                truncated=(False,),
            )


class TestEstimateTokens:
    def test_empty(self):
        assert estimate_tokens("") == 0

    def test_rounds_up(self):
        assert estimate_tokens("abcd") == 1
        assert estimate_tokens("abcde") == 2
        assert estimate_tokens("x" * 10) == 3


class TestMockBackend:
    def test_empty_script_serves_default(self):
        backend = MockBackend(default_text="fallback")
        out = backend.generate(GenerationRequest(prompt="anything", n_samples=2))
        assert out == [("fallback", False), ("fallback", False)]

    def test_pattern_serves_proof_listing(self):
        backend = MockBackend(script=[("algebra_sqineq", SQINEQ_COMMENTED)])
        prompt = "prove algebra_sqineq_2unitcircatblt1 please"
        ((sample, _),) = backend.generate(GenerationRequest(prompt=prompt))
        assert sample == SQINEQ_COMMENTED

    def test_first_declared_pattern_wins(self):
        backend = MockBackend(script=[("needle", "first"), ("need", "second")])
        ((sample, _),) = backend.generate(GenerationRequest(prompt="a needle here"))
        assert sample == "first"

    def test_sequence_response_consumed_per_sample(self):
        backend = MockBackend(script=[("p", ["one", "two"])])
        req = GenerationRequest(prompt="p")
        assert backend.generate(req)[0][0] == "one"
        assert backend.generate(req)[0][0] == "two"
        # exhausted sequences repeat their last entry
        assert backend.generate(req)[0][0] == "two"

    def test_string_script_is_pure_lookup(self):
        a = MockBackend(script=[("p", "stable")])
        b = MockBackend(script=[("p", "stable")])
        req = GenerationRequest(prompt="p", n_samples=3)
        assert a.generate(req) == b.generate(req) == [("stable", False)] * 3


class _Flaky:
    """Backend failing transiently a fixed number of times, then delegating."""

    name = "flaky"

    def __init__(self, failures, inner):
        self.failures = failures
        self.inner = inner
        self.calls = 0

    def generate(self, request):
        self.calls += 1
        if self.calls <= self.failures:
            raise BackendUnavailable("scripted outage")
        return self.inner.generate(request)


def recording_policy(**kwargs):
    sleeps = []
    policy = RetryPolicy(sleep=sleeps.append, **kwargs)
    return policy, sleeps


class TestComplete:
    def test_mock_returns_requested_samples(self):
        response = complete(
            GenerationRequest(prompt="p", n_samples=3),
            MockBackend(script=[("p", "ok")]),
        )
        assert response.samples == ("ok", "ok", "ok")
        assert response.truncated == (False, False, False)
        assert response.attempts == 1
        assert response.backend_name == "mock"
        assert response.latency_ms >= 0.0

    def test_two_failures_then_success_counts_attempts(self):
        backend = _Flaky(2, MockBackend(script=[("p", "recovered")]))
        policy, sleeps = recording_policy(jitter_seed=7)
        response = complete(GenerationRequest(prompt="p"), backend, retry=policy)
        assert response.samples == ("recovered",)
        assert response.attempts == 3
        assert sleeps == [policy.delay(1), policy.delay(2)]

    def test_exhausted_attempts_raise(self):
        backend = _Flaky(99, MockBackend())
        policy, sleeps = recording_policy(max_attempts=4)
        with pytest.raises(BackendUnavailable, match="after 4 attempts"):
            complete(GenerationRequest(prompt="p"), backend, retry=policy)
        assert backend.calls == 4
        assert len(sleeps) == 3

    def test_wall_clock_ceiling_stops_retries(self):
        backend = _Flaky(99, MockBackend())
        policy, sleeps = recording_policy(base_delay=10.0, wall_clock_ceiling=5.0)
        with pytest.raises(BackendUnavailable, match="retry ceiling"):
            complete(GenerationRequest(prompt="p"), backend, retry=policy)
        assert sleeps == []

    def test_total_backoff_never_exceeds_ceiling(self):
        for seed in range(5):
            backend = _Flaky(99, MockBackend())
            policy, sleeps = recording_policy(
                max_attempts=5, base_delay=1.5, wall_clock_ceiling=4.0,
                jitter_seed=seed,
            )
            with pytest.raises(BackendUnavailable):
                complete(GenerationRequest(prompt="p"), backend, retry=policy)
            assert sum(sleeps) <= 4.0

    def test_delay_schedule_deterministic_and_capped(self):
        policy = RetryPolicy(base_delay=1.0, max_delay=60.0, jitter_seed=3)
        first = [policy.delay(k) for k in range(1, 8)]
        second = [policy.delay(k) for k in range(1, 8)]
        assert first == second
        for k, pause in enumerate(first, start=1):
            assert pause <= 60.0
            assert pause >= 0.5 * min(60.0, 2 ** (k - 1)) * 0.999

    def test_malformed_reply_not_retried(self):
        class Broken:
            name = "broken"
            calls = 0

            def generate(self, request):
                self.calls += 1
                raise MalformedBackendReply("gibberish")

        backend = Broken()
        with pytest.raises(MalformedBackendReply):
            complete(GenerationRequest(prompt="p"), backend)
        assert backend.calls == 1

    def test_wrong_sample_count_rejected(self):
        class Overeager:
            name = "overeager"

            def generate(self, request):
                return [("a", False)] * (request.n_samples + 1)

        with pytest.raises(MalformedBackendReply, match="requested 2"):
            complete(GenerationRequest(prompt="p", n_samples=2), Overeager())

    def test_request_budget_enforced(self):
        budget = GenerationBudget(max_requests=2)
        backend = MockBackend()
        for _ in range(2):
            complete(GenerationRequest(prompt="p"), backend, budget=budget)
        with pytest.raises(BudgetExceeded, match="request ceiling"):
            complete(GenerationRequest(prompt="p"), backend, budget=budget)
        assert budget.requests_used == 2

    def test_token_budget_enforced(self):
        budget = GenerationBudget(max_tokens=100)
        request = GenerationRequest(prompt="x" * 40, max_new_tokens=95)
        with pytest.raises(BudgetExceeded, match="token ceiling"):
            complete(request, MockBackend(), budget=budget)
        assert budget.tokens_used == 0

    def test_token_budget_accumulates(self):
        budget = GenerationBudget(max_tokens=1000)
        request = GenerationRequest(prompt="x" * 40, max_new_tokens=90)
        complete(request, MockBackend(), budget=budget)
        assert budget.tokens_used == 100
        assert budget.requests_used == 1


class TestReservations:
    def test_reservation_counts_against_the_ceilings(self):
        budget = GenerationBudget(max_requests=5, max_tokens=1000)
        first = budget.reserve(3, 300)
        assert first is not None
        assert budget.reserve(3, 300) is None  # 6 requests > 5
        assert budget.reserve(2, 701) is None  # 1001 tokens > 1000
        second = budget.reserve(2, 700)
        with pytest.raises(BudgetExceeded):
            complete(GenerationRequest(prompt="p", max_new_tokens=1),
                     MockBackend(), budget=budget)
        assert (budget.requests_used, budget.requests_reserved) == (0, 5)
        second.release()
        first.release()
        assert (budget.requests_reserved, budget.tokens_reserved) == (0, 0)

    def test_charges_move_from_reserved_to_used(self):
        budget = GenerationBudget(max_requests=4, max_tokens=1000)
        request = GenerationRequest(prompt="x" * 40, max_new_tokens=90)
        reservation = budget.reserve(2, 200)
        complete(request, MockBackend(), budget=reservation)
        assert (budget.requests_used, budget.tokens_used) == (1, 100)
        assert (budget.requests_reserved, budget.tokens_reserved) == (1, 100)
        reservation.release()
        assert (budget.requests_reserved, budget.tokens_reserved) == (0, 0)
        assert (budget.requests_used, budget.tokens_used) == (1, 100)

    def test_charge_past_the_reservation_refused(self):
        budget = GenerationBudget()
        reservation = budget.reserve(1, 100)
        request = GenerationRequest(prompt="x" * 40, max_new_tokens=90)
        complete(request, MockBackend(), budget=reservation)
        with pytest.raises(BudgetExceeded, match="reservation"):
            complete(request, MockBackend(), budget=reservation)
        assert budget.requests_used == 1

    def test_concurrent_charges_respect_the_ceiling(self):
        budget = GenerationBudget(max_requests=50)
        request = GenerationRequest(prompt="p")

        def charge_all(_):
            taken = 0
            for _ in range(40):
                try:
                    budget.charge(request)
                    taken += 1
                except BudgetExceeded:
                    pass
            return taken

        with ThreadPoolExecutor(max_workers=4) as pool:
            taken = sum(pool.map(charge_all, range(4)))
        assert taken == budget.requests_used == 50


def units(items, prompt="p"):
    """``(item, prompt)`` units, drawn from ``items`` as they are started."""
    return ((item, prompt) for item in items)


def concurrent(concurrency, **settings):
    """A sampler whose mock backend keeps ``concurrency`` units in flight."""
    backend = MockBackend()
    backend.concurrency = concurrency
    return Sampler(backend, **settings)


class TestInOrder:
    def test_results_come_in_item_order_when_later_items_finish_first(self):
        finished = []
        lock = threading.Lock()

        def work(item, charge):
            time.sleep(0.004 * (6 - item))
            with lock:
                finished.append(item)
            return item * 10

        out = list(in_order(units(range(6)), work, concurrent(4), 1))
        assert out == [(i, i * 10) for i in range(6)]
        assert finished != sorted(finished)  # the items did overlap

    def test_never_more_than_concurrency_in_flight(self):
        active, peak = [0], [0]
        lock = threading.Lock()

        def work(item, charge):
            with lock:
                active[0] += 1
                peak[0] = max(peak[0], active[0])
            time.sleep(0.005)
            with lock:
                active[0] -= 1
            return item

        assert [r for _, r in in_order(units(range(12)), work, concurrent(3), 1)] == \
            list(range(12))
        assert peak[0] == 3

    def test_failure_propagates_after_the_results_before_it(self):
        def work(item, charge):
            if item == 2:
                raise RuntimeError("item 2 failed")
            time.sleep(0.02 if item < 2 else 0.0)
            return item

        yielded = []
        with pytest.raises(RuntimeError, match="item 2 failed"):
            for item, _ in in_order(units(range(8)), work, concurrent(4), 1):
                yielded.append(item)
        assert yielded == [0, 1]

    def test_items_are_drawn_only_as_they_start(self):
        drawn = []

        def items():
            for i in range(10):
                drawn.append(i)
                yield i

        def work(item, charge):
            if item == 1:
                raise RuntimeError("item 1 failed")
            time.sleep(0.05 if item == 0 else 0.0)
            return item

        yielded = []
        with pytest.raises(RuntimeError, match="item 1 failed"):
            for item, _ in in_order(units(items()), work, concurrent(2), 1):
                yielded.append(item)
        # item 1 fails while item 0 still runs: nothing after it starts
        assert yielded == [0]
        assert len(drawn) <= 3

    @pytest.mark.parametrize("fail", [False, True])
    def test_reservations_are_returned(self, fail):
        budget = GenerationBudget(max_requests=100, max_tokens=10_000)
        sampler = concurrent(3, budget=budget, max_new_tokens=8)
        charges = []

        def work(item, ask):
            charges.append(ask.charge)
            ask(f"r{item}")
            if fail and item == 3:
                raise RuntimeError("after one charge")
            return item

        def drain():
            return list(in_order(units(range(6), "p" * 8), work, sampler, 4))

        if fail:
            with pytest.raises(RuntimeError, match="after one charge"):
                drain()
        else:
            assert len(drain()) == 6
        assert all(isinstance(c, Reservation) for c in charges)
        assert (budget.requests_reserved, budget.tokens_reserved) == (0, 0)
        assert budget.requests_used == len(charges)
        assert budget.tokens_used == 10 * len(charges)

    def test_item_that_does_not_fit_runs_alone_on_the_budget(self):
        budget = GenerationBudget(max_requests=5)
        sampler = concurrent(3, budget=budget, max_new_tokens=1)  # 2 tokens
        active = [0]
        seen = []
        lock = threading.Lock()

        def work(item, ask):
            with lock:
                active[0] += 1
                seen.append((item, isinstance(ask.charge, Reservation), active[0]))
            time.sleep(0.005)
            for _ in range(2):
                try:
                    ask(f"r{item}")
                except BudgetExceeded:
                    break
            with lock:
                active[0] -= 1
            return item

        out = list(in_order(units(range(4)), work, sampler, 2))
        assert [item for item, _ in out] == [0, 1, 2, 3]
        by_item = {item: (reserved, peers) for item, reserved, peers in seen}
        # items 0 and 1 reserve 4 of the 5 requests; item 2 cannot reserve
        # its 2, so it waits for both and runs alone on the last request;
        # item 3 then finds nothing left and runs alone as well
        assert by_item[0][0] and by_item[1][0]
        assert by_item[2] == (False, 1)
        assert by_item[3] == (False, 1)
        assert budget.requests_used == 5

    def test_shared_budget_under_thread_switch_stress(self):
        # eight threads on a tight ceiling, switching as often as they can:
        # every item is charged what a serial run charges it
        budget = GenerationBudget(max_requests=150)
        sampler = concurrent(8, budget=budget, max_new_tokens=1)

        def wanted(item):
            return item % 5 + 1

        def work(item, ask):
            taken = 0
            for _ in range(wanted(item)):
                try:
                    ask(f"r{item}")
                except BudgetExceeded:
                    break
                taken += 1
            return taken

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            out = list(in_order(units(range(100)), work, sampler, 5))
        finally:
            sys.setswitchinterval(interval)
        expected, left = [], 150
        for item in range(100):
            expected.append(min(wanted(item), left))
            left -= expected[-1]
        assert [taken for _, taken in out] == expected
        assert budget.requests_used == 150
        assert (budget.requests_reserved, budget.tokens_reserved) == (0, 0)

    def test_mock_serves_one_caller_and_chat_two_per_connection(self):
        assert MockBackend().concurrency == 1
        chat = ChatCompletionBackend("http://127.0.0.1:9/v1", "m", max_in_flight=3)
        assert chat.concurrency == 6


def test_only_genclient_builds_requests():
    # every paid stage asks through a Sampler; no other module spells out
    # the request path
    package = os.path.dirname(genclient.__file__)
    for name in sorted(os.listdir(package)):
        if name.endswith(".py") and name != "genclient.py":
            with open(os.path.join(package, name), encoding="utf-8") as source:
                text = source.read()
            assert "GenerationRequest(" not in text, name
            assert "complete(" not in text, name


class _ChatHandler(http.server.BaseHTTPRequestHandler):
    """Chat-completion endpoint; the path picks the failure mode."""

    seen = []
    flaky_failures = 0

    def do_POST(self):
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        type(self).seen.append(
            {"path": self.path, "body": body, "auth": self.headers.get("Authorization")}
        )
        if self.path == "/unauth":
            self._send(401, b'{"error": "bad key"}')
            return
        if self.path == "/outage":
            self._send(503, b"down")
            return
        if self.path == "/flaky" and type(self).flaky_failures > 0:
            type(self).flaky_failures -= 1
            self._send(500, b"hiccup")
            return
        if self.path == "/badjson":
            self._send(200, b"this is not json")
            return
        n = body["n"]
        if self.path == "/short":
            n -= 1
        finish = "length" if self.path == "/truncate" else "stop"
        user = body["messages"][-1]["content"]
        choices = [
            {"message": {"content": f"reply {i} to {user[:10]}"}, "finish_reason": finish}
            for i in range(n)
        ]
        self._send(200, json.dumps({"choices": choices}).encode())

    def _send(self, status, payload):
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):
        pass


@pytest.fixture()
def chat_server():
    server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), _ChatHandler)
    thread = threading.Thread(target=server.serve_forever,
                              kwargs={"poll_interval": 0.05}, daemon=True)
    thread.start()
    _ChatHandler.seen = []
    _ChatHandler.flaky_failures = 0
    yield f"http://127.0.0.1:{server.server_address[1]}"
    server.shutdown()
    server.server_close()
    thread.join()


@pytest.fixture()
def chat(chat_server):
    """Builds backends on ``chat_server`` paths and closes them after the test."""
    with contextlib.ExitStack() as built:
        yield lambda path, **kwargs: built.enter_context(contextlib.closing(
            ChatCompletionBackend(chat_server + path, **kwargs)))


class TestChatCompletionBackend:
    def test_wire_contract(self, chat, monkeypatch):
        monkeypatch.setenv("TEST_LLM_KEY", "sk-test-123")
        backend = chat("/ok", model="prover-1", api_key_env="TEST_LLM_KEY",
                       system_prompt="You are a Lean4 expert.")
        request = GenerationRequest(
            prompt="prove it", n_samples=2, temperature=0.4,
            max_new_tokens=256,
        )
        out = backend.generate(request)
        assert len(out) == 2
        assert out[0] == ("reply 0 to prove it", False)

        sent = _ChatHandler.seen[-1]
        assert sent["auth"] == "Bearer sk-test-123"
        assert sent["body"]["model"] == "prover-1"
        assert sent["body"]["temperature"] == 0.4
        assert sent["body"]["n"] == 2
        assert sent["body"]["max_tokens"] == 256
        assert "stop" not in sent["body"]
        roles = [m["role"] for m in sent["body"]["messages"]]
        assert roles == ["system", "user"]
        assert sent["body"]["messages"][0]["content"] == "You are a Lean4 expert."

    def test_no_key_env_sends_no_auth_header(self, chat):
        backend = chat("/ok", model="m")
        backend.generate(GenerationRequest(prompt="p"))
        assert _ChatHandler.seen[-1]["auth"] is None

    def test_missing_key_is_unavailable(self, chat, monkeypatch):
        monkeypatch.delenv("ABSENT_KEY_VAR", raising=False)
        backend = chat("/ok", model="m", api_key_env="ABSENT_KEY_VAR")
        with pytest.raises(BackendUnavailable, match="ABSENT_KEY_VAR"):
            backend.generate(GenerationRequest(prompt="p"))
        assert _ChatHandler.seen == []

    def test_truncation_flag_from_finish_reason(self, chat):
        backend = chat("/truncate", model="m")
        (pair,) = backend.generate(GenerationRequest(prompt="p"))
        assert pair[1] is True

    def test_server_error_is_transient(self, chat):
        backend = chat("/outage", model="m")
        with pytest.raises(BackendUnavailable, match="503"):
            backend.generate(GenerationRequest(prompt="p"))

    def test_complete_retries_flaky_server(self, chat):
        _ChatHandler.flaky_failures = 1
        backend = chat("/flaky", model="m")
        policy, sleeps = recording_policy()
        response = complete(GenerationRequest(prompt="p"), backend, retry=policy)
        assert response.attempts == 2
        assert len(sleeps) == 1

    def test_auth_failure_not_retried(self, chat):
        backend = chat("/unauth", model="m")
        policy, sleeps = recording_policy()
        with pytest.raises(MalformedBackendReply, match="401"):
            complete(GenerationRequest(prompt="p"), backend, retry=policy)
        assert len(_ChatHandler.seen) == 1
        assert sleeps == []

    def test_unparseable_body_rejected(self, chat):
        backend = chat("/badjson", model="m")
        with pytest.raises(MalformedBackendReply, match="unparseable"):
            backend.generate(GenerationRequest(prompt="p"))

    def test_short_choice_list_rejected(self, chat):
        backend = chat("/short", model="m")
        with pytest.raises(MalformedBackendReply, match="requested 2"):
            backend.generate(GenerationRequest(prompt="p", n_samples=2))

    def test_connection_refused_is_unavailable(self):
        with contextlib.closing(ChatCompletionBackend(
                "http://127.0.0.1:9/ok", model="m", timeout=0.5)) as backend:
            with pytest.raises(BackendUnavailable):
                backend.generate(GenerationRequest(prompt="p"))


class _KeepAliveHandler(http.server.BaseHTTPRequestHandler):
    """Chat endpoint that keeps each connection open until it idles out."""

    protocol_version = "HTTP/1.1"

    def do_POST(self):
        self.rfile.read(int(self.headers["Content-Length"]))
        time.sleep(0.005)
        body = json.dumps({"choices": [
            {"message": {"content": "no proof here"}, "finish_reason": "stop"}
        ]}).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


class _PooledServer(http.server.HTTPServer):
    """Serves connections on a fixed number of handler threads, as a server
    behind a worker pool does: a connection holds its thread until it closes
    or idles out, and a connection beyond the pool waits for a free thread.
    Counts the connections it accepts."""

    def __init__(self, workers, idle_s):
        handler = type("Handler", (_KeepAliveHandler,), {"timeout": idle_s})
        super().__init__(("127.0.0.1", 0), handler)
        self.accepted = 0
        self.ended = threading.Event()  # set as a connection ends
        self.workers = ThreadPoolExecutor(max_workers=workers)

    def process_request(self, request, client_address):
        self.accepted += 1
        self.workers.submit(self._serve, request, client_address)

    def _serve(self, request, client_address):
        try:
            self.finish_request(request, client_address)
        finally:
            self.shutdown_request(request)
            self.ended.set()


@contextlib.contextmanager
def pooled_server(workers, idle_s):
    """A running ``_PooledServer`` and its chat endpoint. Close every
    backend on it first: a connection left open holds a handler thread
    until it idles out."""
    server = _PooledServer(workers=workers, idle_s=idle_s)
    thread = threading.Thread(target=server.serve_forever,
                              kwargs={"poll_interval": 0.05}, daemon=True)
    thread.start()
    try:
        yield server, f"http://127.0.0.1:{server.server_address[1]}/v1/chat"
    finally:
        server.shutdown()
        server.workers.shutdown()
        server.server_close()
        thread.join()


class TestConnectionBound:
    IDLE_S = 3.0

    def test_round_never_opens_more_connections_than_max_in_flight(self):
        problems = [Problem(name=f"p{i}", fl_statement=f"theorem p{i} : True :=")
                    for i in range(6)]
        seeds = [PoolExample("seed", "Statement: s.", "theorem seed : True := trivial")]
        # 2 × max_in_flight problems in flight
        settings = ProverSettings(n_samples=2, k_min=1, k_max=1)
        with pooled_server(2, self.IDLE_S) as (server, url), contextlib.closing(
                ChatCompletionBackend(url, model="m", max_in_flight=2)) as backend:
            started = time.perf_counter()
            state = run_iteration(initial_state(problems, seeds), problems,
                                  Sampler(backend), MockVerifier({}), settings,
                                  WhitespaceTokenizer())
            elapsed = time.perf_counter() - started
        assert state.budget_used == 12
        assert server.accepted <= 2
        # a third connection would wait for an idle one to time out
        assert elapsed < self.IDLE_S / 3

    def test_close_ends_the_keep_alive_connection(self):
        with pooled_server(1, self.IDLE_S) as (server, url):
            backend = ChatCompletionBackend(url, model="m")
            try:
                backend.generate(GenerationRequest(prompt="p"))
                assert not server.ended.is_set()
            finally:
                backend.close()
            # the server sees the connection end now, not when it idles out
            assert server.ended.wait(self.IDLE_S / 3)
