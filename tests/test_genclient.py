"""Tests for the generation client: templates, retry, budget, backends."""

import http.server
import json
import threading

import pytest

from leanforge.genclient import (
    FL_PROOF_SECTION,
    FL_STATEMENT_SECTION,
    NL_SECTION,
    SYSTEM_PROVER,
    BackendUnavailable,
    BudgetExceeded,
    ChatCompletionBackend,
    GenerationBudget,
    GenerationRequest,
    GenerationResponse,
    MalformedBackendReply,
    MissingSlot,
    MockBackend,
    PromptTemplate,
    RetryPolicy,
    complete,
    estimate_tokens,
    informalization_template,
    prover_template,
    render_prompt,
)
from fixtures.listings import SQINEQ_COMMENTED


class TestPromptTemplate:
    def test_no_slots_returns_literal(self):
        template = PromptTemplate.parse("plain", "just text, no holes")
        assert render_prompt(template, {}) == "just text, no holes"
        assert template.slots == frozenset()

    def test_parse_segments(self):
        template = PromptTemplate.parse("t", "a ${x} b ${y}")
        assert template.segments == (
            ("lit", "a "), ("slot", "x"), ("lit", " b "), ("slot", "y"),
        )
        assert template.slots == {"x", "y"}

    def test_render_binds_slots(self):
        template = PromptTemplate.parse("t", "${greeting}, ${name}!")
        out = render_prompt(template, {"greeting": "hello", "name": "lean"})
        assert out == "hello, lean!"

    def test_missing_slot_named(self):
        template = PromptTemplate.parse("t", "${present} ${absent}")
        with pytest.raises(MissingSlot, match="absent"):
            render_prompt(template, {"present": "x"})

    def test_slot_marker_in_binding_not_reexpanded(self):
        template = PromptTemplate.parse("t", "A ${x} B")
        out = render_prompt(template, {"x": "${y}"})
        assert out == "A ${y} B"

    def test_extra_bindings_ignored(self):
        template = PromptTemplate.parse("t", "${x}")
        assert render_prompt(template, {"x": "1", "unused": "2"}) == "1"

    def test_informalization_prompt_has_statement_marker(self):
        out = render_prompt(
            informalization_template(),
            {
                "examples": "EXAMPLE BLOCK\n\n",
                "fl_statement": "theorem t : 1 = 1 :=",
                "fl_proof": "theorem t : 1 = 1 := rfl",
            },
        )
        assert FL_STATEMENT_SECTION in out
        assert out.startswith("EXAMPLE BLOCK")
        assert out.rstrip().endswith(NL_SECTION)

    def test_prover_prompt_section_order(self):
        out = render_prompt(
            prover_template(),
            {"examples": "", "nl": "Show 1 = 1.", "fl_statement": "theorem t : 1 = 1 :="},
        )
        assert 0 <= out.index(NL_SECTION) < out.index(FL_STATEMENT_SECTION)
        assert out.index(FL_STATEMENT_SECTION) < out.index(FL_PROOF_SECTION)
        assert "Lean4 expert" in SYSTEM_PROVER


class TestRequestValidation:
    def test_zero_samples_rejected(self):
        with pytest.raises(ValueError):
            GenerationRequest(prompt="p", n_samples=0)

    def test_zero_tokens_rejected(self):
        with pytest.raises(ValueError):
            GenerationRequest(prompt="p", max_new_tokens=0)

    def test_negative_temperature_rejected(self):
        with pytest.raises(ValueError):
            GenerationRequest(prompt="p", temperature=-0.1)

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
    thread.join()


class TestChatCompletionBackend:
    def test_wire_contract(self, chat_server, monkeypatch):
        monkeypatch.setenv("TEST_LLM_KEY", "sk-test-123")
        backend = ChatCompletionBackend(
            chat_server + "/ok", model="prover-1", api_key_env="TEST_LLM_KEY",
            system_prompt=SYSTEM_PROVER,
        )
        request = GenerationRequest(
            prompt="prove it", n_samples=2, temperature=0.4,
            max_new_tokens=256, stop_sequences=("###",),
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
        assert sent["body"]["stop"] == ["###"]
        roles = [m["role"] for m in sent["body"]["messages"]]
        assert roles == ["system", "user"]
        assert sent["body"]["messages"][0]["content"] == SYSTEM_PROVER

    def test_no_key_env_sends_no_auth_header(self, chat_server):
        backend = ChatCompletionBackend(chat_server + "/ok", model="m")
        backend.generate(GenerationRequest(prompt="p"))
        assert _ChatHandler.seen[-1]["auth"] is None

    def test_missing_key_is_unavailable(self, chat_server, monkeypatch):
        monkeypatch.delenv("ABSENT_KEY_VAR", raising=False)
        backend = ChatCompletionBackend(
            chat_server + "/ok", model="m", api_key_env="ABSENT_KEY_VAR"
        )
        with pytest.raises(BackendUnavailable, match="ABSENT_KEY_VAR"):
            backend.generate(GenerationRequest(prompt="p"))
        assert _ChatHandler.seen == []

    def test_truncation_flag_from_finish_reason(self, chat_server):
        backend = ChatCompletionBackend(chat_server + "/truncate", model="m")
        (pair,) = backend.generate(GenerationRequest(prompt="p"))
        assert pair[1] is True

    def test_server_error_is_transient(self, chat_server):
        backend = ChatCompletionBackend(chat_server + "/outage", model="m")
        with pytest.raises(BackendUnavailable, match="503"):
            backend.generate(GenerationRequest(prompt="p"))

    def test_complete_retries_flaky_server(self, chat_server):
        _ChatHandler.flaky_failures = 1
        backend = ChatCompletionBackend(chat_server + "/flaky", model="m")
        policy, sleeps = recording_policy()
        response = complete(GenerationRequest(prompt="p"), backend, retry=policy)
        assert response.attempts == 2
        assert len(sleeps) == 1

    def test_auth_failure_not_retried(self, chat_server):
        backend = ChatCompletionBackend(chat_server + "/unauth", model="m")
        policy, sleeps = recording_policy()
        with pytest.raises(MalformedBackendReply, match="401"):
            complete(GenerationRequest(prompt="p"), backend, retry=policy)
        assert len(_ChatHandler.seen) == 1
        assert sleeps == []

    def test_unparseable_body_rejected(self, chat_server):
        backend = ChatCompletionBackend(chat_server + "/badjson", model="m")
        with pytest.raises(MalformedBackendReply, match="unparseable"):
            backend.generate(GenerationRequest(prompt="p"))

    def test_short_choice_list_rejected(self, chat_server):
        backend = ChatCompletionBackend(chat_server + "/short", model="m")
        with pytest.raises(MalformedBackendReply, match="requested 2"):
            backend.generate(GenerationRequest(prompt="p", n_samples=2))

    def test_connection_refused_is_unavailable(self):
        backend = ChatCompletionBackend("http://127.0.0.1:9/ok", model="m", timeout=0.5)
        with pytest.raises(BackendUnavailable):
            backend.generate(GenerationRequest(prompt="p"))
