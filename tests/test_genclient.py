"""Tests for the generation client: retry, budget, backends."""

import collections
import contextlib
import gc
import http.server
import json
import os
import resource
import socket
import ssl
import subprocess
import sys
import threading
import time
import warnings
from concurrent.futures import ThreadPoolExecutor

import pytest

import leanforge
from leanforge import genclient
from leanforge.config import ConfigError, ProverSettings
from leanforge.genclient import (
    BackendUnavailable,
    BudgetExceeded,
    GenClientError,
    GenerationRequest,
    GenerationResponse,
    complete,
    estimate_tokens,
    in_order,
)
from leanforge.prover import (
    MockVerifier,
    PoolExample,
    Problem,
    run_iteration,
)
from leanforge.trainprep import WhitespaceTokenizer
from fixtures.listings import SQINEQ_COMMENTED
from support import (
    KeyedBackend,
    chat_backend,
    make_budget,
    make_request,
    make_sampler,
    mock_backend,
    retry_policy,
)


class TestRequestValidation:
    def test_response_requires_flag_per_sample(self):
        with pytest.raises(ValueError):
            GenerationResponse(
                samples=("a", "b"), latency_ms=0.0,
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
        backend = mock_backend(default_text="fallback")
        out = backend.generate(make_request("anything", n_samples=2))
        assert out == [("fallback", False), ("fallback", False)]

    def test_pattern_serves_proof_listing(self):
        backend = mock_backend([("algebra_sqineq", SQINEQ_COMMENTED)])
        prompt = "prove algebra_sqineq_2unitcircatblt1 please"
        ((sample, _),) = backend.generate(make_request(prompt))
        assert sample == SQINEQ_COMMENTED

    def test_first_declared_pattern_wins(self):
        backend = mock_backend([("needle", "first"), ("need", "second")])
        ((sample, _),) = backend.generate(make_request("a needle here"))
        assert sample == "first"

    def test_sequence_response_consumed_per_sample(self):
        backend = mock_backend([("p", ["one", "two"])])
        req = make_request("p")
        assert backend.generate(req)[0][0] == "one"
        assert backend.generate(req)[0][0] == "two"
        # exhausted sequences repeat their last entry
        assert backend.generate(req)[0][0] == "two"

    def test_string_script_is_pure_lookup(self):
        a = mock_backend([("p", "stable")])
        b = mock_backend([("p", "stable")])
        req = make_request("p", n_samples=3)
        assert a.generate(req) == b.generate(req) == [("stable", False)] * 3


class _Flaky:
    """Backend failing transiently a fixed number of times, then delegating."""

    name = "flaky"
    concurrency = 1

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
    policy = retry_policy(sleep=sleeps.append, **kwargs)
    return policy, sleeps


class TestComplete:
    def test_mock_returns_requested_samples(self):
        response = complete(
            make_request("p", n_samples=3),
            mock_backend([("p", "ok")]),
            retry_policy(),
        )
        assert response.samples == ("ok", "ok", "ok")
        assert response.truncated == (False, False, False)
        assert response.attempts == 1
        assert response.latency_ms >= 0.0

    def test_two_failures_then_success_counts_attempts(self):
        backend = _Flaky(2, mock_backend([("p", "recovered")]))
        policy, sleeps = recording_policy(jitter_seed=7)
        response = complete(make_request("p"), backend, retry=policy)
        assert response.samples == ("recovered",)
        assert response.attempts == 3
        assert sleeps == [policy.delay(1), policy.delay(2)]

    def test_exhausted_attempts_raise(self):
        backend = _Flaky(99, mock_backend())
        policy, sleeps = recording_policy(max_attempts=4)
        with pytest.raises(BackendUnavailable, match="after 4 attempts"):
            complete(make_request("p"), backend, retry=policy)
        assert backend.calls == 4
        assert len(sleeps) == 3

    def test_wall_clock_ceiling_stops_retries(self):
        backend = _Flaky(99, mock_backend())
        policy, sleeps = recording_policy(base_delay=10.0, wall_clock_ceiling=5.0)
        with pytest.raises(BackendUnavailable, match="retry ceiling"):
            complete(make_request("p"), backend, retry=policy)
        assert sleeps == []

    def test_total_backoff_never_exceeds_ceiling(self):
        for seed in range(5):
            backend = _Flaky(99, mock_backend())
            policy, sleeps = recording_policy(
                max_attempts=5, base_delay=1.5, wall_clock_ceiling=4.0,
                jitter_seed=seed,
            )
            with pytest.raises(BackendUnavailable):
                complete(make_request("p"), backend, retry=policy)
            assert sum(sleeps) <= 4.0

    def test_delay_schedule_deterministic_and_capped(self):
        policy = retry_policy(base_delay=1.0, max_delay=60.0, jitter_seed=3)
        first = [policy.delay(k) for k in range(1, 8)]
        second = [policy.delay(k) for k in range(1, 8)]
        assert first == second
        for k, pause in enumerate(first, start=1):
            assert pause <= 60.0
            assert pause >= 0.5 * min(60.0, 2 ** (k - 1)) * 0.999

    def test_malformed_reply_not_retried(self):
        class Broken:
            name = "broken"
            concurrency = 1
            calls = 0

            def generate(self, request):
                self.calls += 1
                raise GenClientError("gibberish")

        backend = Broken()
        with pytest.raises(GenClientError, match="^gibberish$"):
            complete(make_request("p"), backend, retry_policy())
        assert backend.calls == 1

    def test_wrong_sample_count_rejected(self):
        class Overeager:
            name = "overeager"
            concurrency = 1

            def generate(self, request):
                return [("a", False)] * (request.n_samples + 1)

        with pytest.raises(GenClientError, match="requested 2"):
            complete(make_request("p", n_samples=2), Overeager(), retry_policy())

    def test_sample_with_a_lone_surrogate_rejected(self):
        # JSON may escape half of a UTF-16 pair; such a text cannot be written
        # as UTF-8, so it never reaches a stage
        texts = ["plain", "∀ n, 𝔽 n", "half a pair \ud800 here"]
        backend = mock_backend([("p", texts)])
        with pytest.raises(GenClientError, match="sample 2 holds a lone surrogate"):
            complete(make_request("p", n_samples=3), backend, retry_policy())
        good = complete(make_request("q"), mock_backend(default_text=texts[1]),
                        retry_policy())
        assert good.samples == (texts[1],)

    def test_request_budget_enforced(self):
        budget = make_budget(max_requests=2)
        for _ in range(2):
            budget.charge(make_request("p"))
        with pytest.raises(BudgetExceeded, match="request ceiling"):
            budget.charge(make_request("p"))
        assert budget.requests_used == 2

    def test_token_budget_enforced(self):
        budget = make_budget(max_tokens=100)
        request = make_request("x" * 40, max_new_tokens=95)
        with pytest.raises(BudgetExceeded, match="token ceiling"):
            budget.charge(request)
        assert budget.tokens_used == 0

    def test_token_budget_accumulates(self):
        budget = make_budget(max_tokens=1000)
        request = make_request("x" * 40, max_new_tokens=90)
        budget.charge(request)
        assert budget.tokens_used == 100
        assert budget.requests_used == 1

    def test_concurrent_charges_respect_the_ceiling(self):
        budget = make_budget(max_requests=50)
        request = make_request("p")

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
    backend = mock_backend()
    backend.concurrency = concurrency
    return make_sampler(backend, **settings)


class TestInOrder:
    def test_results_come_in_item_order_when_later_items_finish_first(self):
        finished = []
        lock = threading.Lock()

        def work(item, charge):
            time.sleep(0.004 * (6 - item))
            with lock:
                finished.append(item)
            return item * 10

        out = list(in_order(units(range(6)), work, concurrent(4)))
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

        assert [r for _, r in in_order(units(range(12)), work, concurrent(3))] == \
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
            for item, _ in in_order(units(range(8)), work, concurrent(4)):
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
            for item, _ in in_order(units(items()), work, concurrent(2)):
                yielded.append(item)
        # item 1 fails while item 0 still runs: nothing after it starts
        assert yielded == [0]
        assert len(drawn) <= 3

    def test_units_after_a_failure_stop_asking(self):
        # four units in flight at a backend concurrency of 2; unit 2 fails
        # after its first request
        drawn, asked = [], collections.Counter()
        lock = threading.Lock()

        def items():
            for i in range(10):
                drawn.append(i)
                yield i

        def work(item, ask):
            for i in range(20):
                if item == 2 and i == 1:
                    raise RuntimeError("item 2 failed")
                ask(f"r{item}:{i}")
                with lock:
                    asked[item] += 1
                time.sleep(0.005)
            return item

        yielded = []
        with pytest.raises(RuntimeError, match="item 2 failed"):
            for item, _ in in_order(units(items()), work, concurrent(2), in_flight=4):
                yielded.append(item)
        # the units before it run to their end; the one after it stops at its
        # next request, and nothing after that starts
        assert yielded == [0, 1]
        assert asked[0] == asked[1] == 20
        assert asked[3] < 20
        assert len(drawn) <= 5

    def test_units_stop_asking_once_the_reader_stops(self):
        asked = collections.Counter()
        lock = threading.Lock()

        def work(item, ask):
            for i in range(0 if item == 0 else 50):
                ask(f"r{item}:{i}")
                with lock:
                    asked[item] += 1
                time.sleep(0.01)
            return item

        results = in_order(units(range(4)), work, concurrent(2), in_flight=4)
        assert next(results) == (0, 0)
        results.close()  # as when a KeyboardInterrupt leaves the reader's loop
        assert all(asked[item] < 50 for item in (1, 2, 3))

    @pytest.mark.parametrize("ceiling", [{"max_requests": 5}, {"max_tokens": 10}])
    def test_a_ceiling_runs_one_unit_at_a_time(self, ceiling):
        # each request costs 2 tokens, so either ceiling admits five: the
        # units run one by one, whatever the backend's concurrency, and stop
        # where the serial run stops
        def run(concurrency):
            budget = make_budget(**ceiling)
            sampler = concurrent(concurrency, budget=budget, max_new_tokens=1)
            active, peak = [0], [0]
            lock = threading.Lock()

            def work(item, ask):
                with lock:
                    active[0] += 1
                    peak[0] = max(peak[0], active[0])
                sent = 0
                for i in range(2):
                    time.sleep(0.005)
                    try:
                        ask(f"r{item}:{i}")
                    except BudgetExceeded:
                        break
                    sent += 1
                with lock:
                    active[0] -= 1
                return sent

            out = list(in_order(units(range(4)), work, sampler, in_flight=4))
            return out, (budget.requests_used, budget.tokens_used), peak[0]

        serial = run(1)
        assert serial == ([(0, 2), (1, 2), (2, 1), (3, 0)], (5, 10), 1)
        assert run(3) == serial

    @pytest.mark.parametrize("concurrency", [1, 3])
    def test_a_capped_run_stops_at_the_unit_that_raised(self, concurrency):
        budget = make_budget(max_requests=100)
        sampler = concurrent(concurrency, budget=budget, max_new_tokens=1)
        drawn = []

        def items():
            for item in range(6):
                drawn.append(item)
                yield item

        def work(item, ask):
            ask(f"r{item}")
            if item == 2:
                raise RuntimeError("item 2 failed")
            return item

        yielded = []
        with pytest.raises(RuntimeError, match="item 2 failed"):
            for item, _ in in_order(units(items()), work, sampler, in_flight=4):
                yielded.append(item)
        # serial whatever the concurrency: nothing after the failing unit is
        # drawn, and only the requests sent before it are charged
        assert yielded == [0, 1]
        assert drawn == [0, 1, 2]
        assert budget.requests_used == 3

    def test_a_pooled_unit_may_ask_as_often_as_it_needs(self):
        # with no ceiling a unit is not held to a count of requests: each of
        # these asks three times and every request is sent
        budget = make_budget()
        backend = KeyedBackend(lambda request: "ok", 0, 2)

        def work(item, ask):
            return [ask(f"r{item}:{i}").samples[0] for i in range(3)]

        out = list(in_order(units(range(4)), work, make_sampler(backend, budget=budget)))
        assert out == [(i, ["ok"] * 3) for i in range(4)]
        assert backend.calls == budget.requests_used == 12

    def test_shared_budget_under_thread_switch_stress(self):
        # eight threads on a budget with no ceiling, switching as often as
        # they can: every request is sent and counted exactly once
        budget = make_budget()
        backend = KeyedBackend(lambda request: "ok", 0, 8)
        sampler = make_sampler(backend, budget=budget, max_new_tokens=1)

        def wanted(item):
            return item % 5 + 1

        def work(item, ask):
            for i in range(wanted(item)):
                ask(f"r{item}:{i}")
            return wanted(item)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            out = list(in_order(units(range(100)), work, sampler))
        finally:
            sys.setswitchinterval(interval)
        sent = sum(wanted(item) for item in range(100))
        assert [item for item, _ in out] == list(range(100))
        assert backend.calls == budget.requests_used == sent
        assert budget.tokens_used == 2 * sent  # one prompt token, one new token

    @pytest.mark.parametrize("concurrency", [1, 2])
    def test_budget_at_its_ceiling_refuses_before_sending(self, concurrency):
        budget = make_budget(max_requests=1)
        budget.charge(make_request("p"))
        backend = KeyedBackend(lambda request: "ok", 0, concurrency)

        def work(item, ask):
            with pytest.raises(BudgetExceeded, match="request ceiling"):
                ask(f"r{item}")
            return item

        sampler = make_sampler(backend, budget=budget)
        assert list(in_order(units(range(3)), work, sampler)) == [(i, i) for i in range(3)]
        assert backend.calls == 0
        assert budget.requests_used == 1

    def test_mock_serves_one_caller_and_chat_two_per_connection(self):
        assert mock_backend().concurrency == 1
        chat = chat_backend("http://127.0.0.1:9/v1", "m", max_in_flight=3)
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
    release = threading.Event()  # lets a ``/slow`` request end

    def do_POST(self):
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        type(self).seen.append(
            {"path": self.path, "body": body, "auth": self.headers.get("Authorization"),
             "agent": self.headers.get("User-Agent")}
        )
        if self.path == "/slow":
            # no reply: the client has given up by now
            type(self).release.wait(5)
            return
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
        if self.path == "/nullcontent":
            self._send(200, b'{"choices": [{"message": {"content": null}}]}')
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


def _serve_chat(server, scheme):
    """Runs ``server``, a ``_ChatHandler`` server, and yields its base URL."""
    thread = threading.Thread(target=server.serve_forever,
                              kwargs={"poll_interval": 0.05}, daemon=True)
    thread.start()
    _ChatHandler.seen = []
    _ChatHandler.flaky_failures = 0
    _ChatHandler.release = threading.Event()
    yield f"{scheme}://127.0.0.1:{server.server_address[1]}"
    _ChatHandler.release.set()
    server.shutdown()
    server.server_close()
    thread.join()


@pytest.fixture()
def chat_server():
    yield from _serve_chat(
        http.server.ThreadingHTTPServer(("127.0.0.1", 0), _ChatHandler), "http")


# A self-signed certificate for localhost and 127.0.0.1, valid 2020-2120,
# and its key, made with OpenSSL 3.5:
#   openssl req -x509 -newkey ec -pkeyopt ec_paramgen_curve:prime256v1 -nodes \
#     -keyout localhost.key -out localhost.crt -subj /CN=localhost \
#     -addext "subjectAltName=DNS:localhost,IP:127.0.0.1" \
#     -not_before 20200101000000Z -not_after 21200101000000Z
FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")
LOCALHOST_CERT = os.path.join(FIXTURES, "localhost.crt")
LOCALHOST_KEY = os.path.join(FIXTURES, "localhost.key")


@pytest.fixture()
def tls_chat_server():
    """``chat_server`` over TLS, with the localhost certificate."""
    context = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
    context.load_cert_chain(LOCALHOST_CERT, LOCALHOST_KEY)
    server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), _ChatHandler)
    server.socket = context.wrap_socket(server.socket, server_side=True)
    yield from _serve_chat(server, "https")


@pytest.fixture()
def chat(chat_server):
    """Builds backends on ``chat_server`` paths and closes them after the test."""
    with contextlib.ExitStack() as built:
        yield lambda path, **kwargs: built.enter_context(contextlib.closing(
            chat_backend(chat_server + path, **kwargs)))


class TestChatCompletionBackend:
    def test_wire_contract(self, chat, monkeypatch):
        monkeypatch.setenv("TEST_LLM_KEY", "sk-test-123")
        backend = chat("/ok", model="prover-1", api_key_env="TEST_LLM_KEY",
                       system_prompt="You are a Lean4 expert.")
        request = GenerationRequest("prove it", 256, 0.4, n_samples=2)
        out = backend.generate(request)
        assert len(out) == 2
        assert out[0] == ("reply 0 to prove it", False)

        sent = _ChatHandler.seen[-1]
        assert sent["auth"] == "Bearer sk-test-123"
        assert sent["agent"] == f"leanforge/{leanforge.__version__}"
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
        backend.generate(make_request("p"))
        assert _ChatHandler.seen[-1]["auth"] is None

    def test_unset_key_env_is_a_config_error_as_the_backend_is_built(
            self, chat, monkeypatch):
        monkeypatch.delenv("ABSENT_KEY_VAR", raising=False)
        with pytest.raises(ConfigError,
                           match="backend.api_key_env: .*ABSENT_KEY_VAR is not set"):
            chat("/ok", model="m", api_key_env="ABSENT_KEY_VAR")
        assert _ChatHandler.seen == []

    @pytest.mark.parametrize("key", ["sk-1\r\nX-Injected: 1", "sk-\u00e9"])
    def test_key_a_header_cannot_carry_is_a_config_error(self, chat, monkeypatch, key):
        monkeypatch.setenv("ODD_KEY_VAR", key)
        with pytest.raises(ConfigError, match="ODD_KEY_VAR holds a character"):
            chat("/ok", model="m", api_key_env="ODD_KEY_VAR")
        assert _ChatHandler.seen == []

    def test_truncation_flag_from_finish_reason(self, chat):
        backend = chat("/truncate", model="m")
        (pair,) = backend.generate(make_request("p"))
        assert pair[1] is True

    def test_server_error_is_transient(self, chat):
        backend = chat("/outage", model="m")
        with pytest.raises(BackendUnavailable, match="503"):
            backend.generate(make_request("p"))

    def test_complete_retries_flaky_server(self, chat):
        _ChatHandler.flaky_failures = 1
        backend = chat("/flaky", model="m")
        policy, sleeps = recording_policy()
        response = complete(make_request("p"), backend, retry=policy)
        assert response.attempts == 2
        assert len(sleeps) == 1

    def test_auth_failure_not_retried(self, chat):
        backend = chat("/unauth", model="m")
        policy, sleeps = recording_policy()
        with pytest.raises(GenClientError, match="401"):
            complete(make_request("p"), backend, retry=policy)
        assert len(_ChatHandler.seen) == 1
        assert sleeps == []

    def test_unparseable_body_rejected(self, chat):
        backend = chat("/badjson", model="m")
        policy, sleeps = recording_policy()
        with pytest.raises(GenClientError, match="unparseable") as raised:
            complete(make_request("p"), backend, retry=policy)
        assert type(raised.value) is GenClientError
        assert len(_ChatHandler.seen) == 1
        assert sleeps == []

    def test_content_that_is_not_text_rejected(self, chat):
        backend = chat("/nullcontent", model="m")
        policy, sleeps = recording_policy()
        with pytest.raises(GenClientError, match="not a string") as raised:
            complete(make_request("p"), backend, retry=policy)
        assert type(raised.value) is GenClientError
        assert len(_ChatHandler.seen) == 1
        assert sleeps == []

    def test_short_choice_list_rejected(self, chat):
        backend = chat("/short", model="m")
        policy, sleeps = recording_policy()
        with pytest.raises(GenClientError, match="requested 2"):
            complete(make_request("p", n_samples=2), backend, retry=policy)
        assert len(_ChatHandler.seen) == 1
        assert sleeps == []

    def test_connection_refused_is_unavailable(self):
        with contextlib.closing(chat_backend(
                "http://127.0.0.1:9/ok", model="m", timeout=0.5)) as backend:
            with pytest.raises(BackendUnavailable):
                backend.generate(make_request("p"))

    def test_timed_out_connection_is_closed(self, chat):
        backend = chat("/slow", model="m", timeout=0.2)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            with pytest.raises(BackendUnavailable, match="request failed: timed out"):
                backend.generate(make_request("p"))
            # a socket dropped unclosed warns as it is collected
            gc.collect()
        assert [w for w in caught if w.category is ResourceWarning] == []
        assert len(_ChatHandler.seen) == 1

    def test_https_checks_the_certificate_against_the_ca_store(
            self, tls_chat_server, monkeypatch):
        monkeypatch.setenv("SSL_CERT_FILE", LOCALHOST_CERT)
        with contextlib.closing(chat_backend(tls_chat_server + "/ok", model="m")) as backend:
            assert backend.generate(make_request("p")) == [("reply 0 to p", False)]
        monkeypatch.delenv("SSL_CERT_FILE")
        with contextlib.closing(chat_backend(tls_chat_server + "/ok", model="m")) as backend:
            with pytest.raises(BackendUnavailable, match="certificate verify failed"):
                backend.generate(make_request("p"))
        assert len(_ChatHandler.seen) == 1


def test_cli_start_up_loads_no_http_library(chat_server):
    # the chat backend speaks HTTP/1.1 on a socket, imported only when one
    # is built, and loads ssl only for an https:// endpoint; modules the
    # interpreter loaded before the import (a site hook, say) do not count
    code = ("import sys; before = set(sys.modules); import leanforge.cli; "
            "print(*sorted(set(sys.modules) - before)); "
            "from leanforge import config, genclient; "
            "backend = genclient.ChatCompletionBackend(config.BackendSettings("
            "kind='chat', endpoint=sys.argv[1], model='m')); "
            "backend.generate(genclient.GenerationRequest('p', 8, 0.0)); "
            "backend.close(); print(*sorted(set(sys.modules) - before))")
    src = os.path.dirname(os.path.dirname(leanforge.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    at_start, after_request = subprocess.run(
        [sys.executable, "-c", code, chat_server + "/ok"],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, check=True).stdout.splitlines()
    assert "leanforge.genclient" in at_start.split()
    roots = {"requests", "urllib3", "charset_normalizer", "idna", "certifi",
             "http", "email", "ssl"}
    assert [name for name in at_start.split()
            if name.split(".")[0] in roots | {"socket"}] == []
    assert [name for name in after_request.split() if name.split(".")[0] in roots] == []
    assert len(_ChatHandler.seen) == 1


_OK = json.dumps({"choices": [
    {"message": {"content": "ok"}, "finish_reason": "stop"}]}).encode()
_SIZED = b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n%s" % (len(_OK), _OK)


class _ScriptedServer:
    """Answers the requests it reads, in order, with ``replies``: each the
    bytes to send and whether to close the connection after them. Serves
    one connection at a time, counts the connections it accepts, and
    keeps each request's head lines."""

    def __init__(self, replies):
        self.replies = collections.deque(replies)
        self.heads = []
        self.accepted = 0
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.listener.settimeout(5)
        self.thread = threading.Thread(target=self._serve, daemon=True)
        self.thread.start()

    def _serve(self):
        with self.listener:
            while self.replies:
                try:
                    connection, _ = self.listener.accept()
                except OSError:
                    return
                self.accepted += 1
                connection.settimeout(5)
                with connection, connection.makefile("rb") as reader:
                    try:
                        self._answer(connection, reader)
                    except OSError:
                        pass

    def _answer(self, connection, reader):
        while self.replies:
            head = []
            line = reader.readline()
            while line not in (b"", b"\r\n"):
                head.append(line.decode("ascii").rstrip("\r\n"))
                line = reader.readline()
            if not line:  # the client closed the connection
                return
            reader.read(int(dict(h.split(": ", 1) for h in head[1:])["Content-Length"]))
            self.heads.append(head)
            reply, close = self.replies.popleft()
            connection.sendall(reply)
            if close:
                return


@contextlib.contextmanager
def scripted_server(*replies):
    """A running ``_ScriptedServer`` and its chat endpoint."""
    server = _ScriptedServer(replies)
    try:
        yield server, f"http://127.0.0.1:{server.listener.getsockname()[1]}/v1"
    finally:
        server.thread.join(10)


class TestWire:
    # parity with http.client, whose head, framing and errors the backend
    # keeps

    def test_request_head_is_the_one_http_client_sends(self, monkeypatch):
        monkeypatch.setenv("TEST_LLM_KEY", "sk-test-123")
        with scripted_server((_SIZED, False)) as (server, url), contextlib.closing(
                chat_backend(url, model="m", api_key_env="TEST_LLM_KEY")) as backend:
            backend.generate(make_request("p"))
        port = url.split(":")[2].split("/")[0]
        (head,) = server.heads
        length = head.pop(3)
        assert head == [
            "POST /v1 HTTP/1.1", f"Host: 127.0.0.1:{port}", "Accept-Encoding: identity",
            "Content-Type: application/json",
            f"User-Agent: leanforge/{leanforge.__version__}",
            "Authorization: Bearer sk-test-123",
        ]
        assert length.startswith("Content-Length: ")

    @pytest.mark.parametrize("first, connections", [
        ((b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
          b"%x;note=first\r\n%s\r\n%x\r\n%s\r\n0\r\nX-Digest: none\r\n\r\n"
          % (5, _OK[:5], len(_OK) - 5, _OK[5:]), False), 1),
        ((b"HTTP/1.1 100 Continue\r\n\r\n" + _SIZED, False), 1),
        ((_SIZED.replace(b"OK\r\n", b"OK\r\nConnection: close\r\n"), True), 2),
        ((b"HTTP/1.0 200 OK\r\nContent-Type: application/json\r\n\r\n" + _OK, True), 2),
    ], ids=["chunked", "continue", "connection-close", "http-1.0-read-to-close"])
    def test_reply_framing(self, first, connections):
        # a reply that may leave its connection open is read to its end:
        # the next request goes on the same connection
        with scripted_server(first, (_SIZED, False)) as (server, url), contextlib.closing(
                chat_backend(url, model="m")) as backend:
            assert backend.generate(make_request("p")) == [("ok", False)]
            assert backend.generate(make_request("p")) == [("ok", False)]
        assert server.accepted == connections

    @pytest.mark.parametrize("first", [
        b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n%s" % (len(_OK) + 10, _OK),
        b"SPDY/9 banana\r\n\r\n",
        b"HTTP/1.1 200 OK\r\nX-Pad: " + b"a" * 70000 + b"\r\n\r\n",
    ], ids=["cut-short", "garbage-status-line", "over-long-header"])
    def test_broken_reply_is_unavailable_and_its_connection_dropped(self, first):
        with scripted_server((first, True), (_SIZED, False)) as (server, url), \
                contextlib.closing(chat_backend(url, model="m")) as backend:
            with pytest.raises(BackendUnavailable, match="request failed"):
                backend.generate(make_request("p"))
            assert backend.generate(make_request("p")) == [("ok", False)]
        assert server.accepted == 2


class _KeepAliveHandler(http.server.BaseHTTPRequestHandler):
    """Chat endpoint that keeps each connection open until it idles out."""

    protocol_version = "HTTP/1.1"

    def do_POST(self):
        self.rfile.read(int(self.headers["Content-Length"]))
        self.server.posts += 1
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
        self.posts = 0
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
                chat_backend(url, model="m", max_in_flight=2)) as backend:
            started = time.perf_counter()
            attempts = run_iteration(1, problems, tuple(seeds), make_sampler(backend),
                                     MockVerifier({}), settings, WhitespaceTokenizer(),
                                     {p.name: {} for p in problems})
            elapsed = time.perf_counter() - started
        assert len(attempts) == 12
        assert server.accepted <= 2
        # a third connection would wait for an idle one to time out
        assert elapsed < self.IDLE_S / 3

    def test_close_ends_the_keep_alive_connection(self):
        with pooled_server(1, self.IDLE_S) as (server, url):
            backend = chat_backend(url, model="m")
            try:
                backend.generate(make_request("p"))
                assert not server.ended.is_set()
            finally:
                backend.close()
            # the server sees the connection end now, not when it idles out
            assert server.ended.wait(self.IDLE_S / 3)

    def test_connection_the_server_closed_is_reopened_not_resent(self):
        # the server drops a connection idle for 0.05 s: the second request
        # finds its pooled connection closed and opens a fresh one, before
        # anything is written
        with pooled_server(1, 0.05) as (server, url), contextlib.closing(
                chat_backend(url, model="m")) as backend:
            policy, sleeps = recording_policy()
            first = complete(make_request("p"), backend, retry=policy)
            assert server.ended.wait(self.IDLE_S / 3)
            time.sleep(0.3)
            second = complete(make_request("p"), backend, retry=policy)
        assert (first.attempts, second.attempts, sleeps) == (1, 1, [])
        assert (server.accepted, server.posts) == (2, 2)

    @pytest.mark.skipif(resource.getrlimit(resource.RLIMIT_NOFILE)[0] < 1200,
                        reason="needs about 1,200 open files")
    def test_pooled_connection_past_descriptor_1023_is_reused(self):
        # select.select refuses a descriptor of 1024 or more; the idle check
        # must not
        with contextlib.ExitStack() as held:
            for _ in range(1100):
                held.enter_context(open(os.devnull, "rb"))
            with pooled_server(1, self.IDLE_S) as (server, url), contextlib.closing(
                    chat_backend(url, model="m")) as backend:
                backend.generate(make_request("p"))
                backend.generate(make_request("p"))
        assert (server.accepted, server.posts) == (1, 2)
