"""Uniform client for text-generation backends.

One request/response shape covers the remote chat-completion adapter and the
deterministic mock used by tests and offline runs.  Prompts are built from
``PromptTemplate`` with ``${slot}`` markers, rendered in a single pass so
slot syntax inside bound values is never re-expanded.

API keys are read from environment variables named in the backend config;
they never appear in config files or serialized state.
"""

from __future__ import annotations

import logging
import os
import random
import re
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import requests

logger = logging.getLogger(__name__)

SYSTEM_PROVER = (
    "You are a Lean4 expert who can write good Lean4 code based on natural "
    "language mathematical theorem and proof"
)
SYSTEM_INFORMALIZER = (
    "You are a mathematician who can write natural language proof based on "
    "Lean4 proof"
)

NL_SECTION = "### Natural language version of theorem and proof:"
FL_STATEMENT_SECTION = "### Lean4 version of theorem statement:"
FL_PROOF_SECTION = "### Lean4 version of theorem and proof:"


class GenClientError(Exception):
    pass


class MissingSlot(GenClientError):
    def __init__(self, slot: str):
        super().__init__(f"unbound template slot {slot!r}")
        self.slot = slot


class BackendUnavailable(GenClientError):
    """Transient transport or service failure; retried by complete()."""


class MalformedBackendReply(GenClientError):
    """The backend answered but violated the wire contract; not retried."""


class BudgetExceeded(GenClientError):
    pass


# --- prompt templates ---------------------------------------------------------

_SLOT = re.compile(r"\$\{([A-Za-z_][A-Za-z0-9_]*)\}")


@dataclass(frozen=True)
class PromptTemplate:
    """Literal text interleaved with named slots.

    segments is an ordered tuple of ("lit", text) and ("slot", name) parts.
    """

    name: str
    segments: Tuple[Tuple[str, str], ...]

    @property
    def slots(self) -> frozenset:
        return frozenset(text for kind, text in self.segments if kind == "slot")

    @classmethod
    def parse(cls, name: str, text: str) -> "PromptTemplate":
        segments: List[Tuple[str, str]] = []
        pos = 0
        for match in _SLOT.finditer(text):
            if match.start() > pos:
                segments.append(("lit", text[pos : match.start()]))
            segments.append(("slot", match.group(1)))
            pos = match.end()
        if pos < len(text):
            segments.append(("lit", text[pos:]))
        return cls(name=name, segments=tuple(segments))


def render_prompt(template: PromptTemplate, bindings: Dict[str, str]) -> str:
    parts = []
    for kind, text in template.segments:
        if kind == "lit":
            parts.append(text)
        else:
            if text not in bindings:
                raise MissingSlot(text)
            parts.append(bindings[text])
    return "".join(parts)


def informalization_template() -> PromptTemplate:
    """Prompt asking for the NL rendering of a Lean4 theorem and proof."""
    return PromptTemplate.parse(
        "informalize",
        "${examples}"
        + FL_STATEMENT_SECTION
        + "\n${fl_statement}\n\n"
        + FL_PROOF_SECTION
        + "\n${fl_proof}\n\n"
        + NL_SECTION
        + "\n",
    )


def prover_template() -> PromptTemplate:
    """Prompt asking for a Lean4 proof given NL guidance and the statement."""
    return PromptTemplate.parse(
        "prove",
        "${examples}"
        + NL_SECTION
        + "\n${nl}\n\n"
        + FL_STATEMENT_SECTION
        + "\n${fl_statement}\n\n"
        + FL_PROOF_SECTION
        + "\n",
    )


# --- requests and responses ---------------------------------------------------


@dataclass(frozen=True)
class GenerationRequest:
    prompt: str
    max_new_tokens: int = 512
    temperature: float = 0.7
    n_samples: int = 1
    stop_sequences: Tuple[str, ...] = ()
    request_id: str = ""

    def __post_init__(self):
        if self.n_samples < 1:
            raise ValueError("n_samples must be >= 1")
        if self.max_new_tokens < 1:
            raise ValueError("max_new_tokens must be >= 1")
        if self.temperature < 0:
            raise ValueError("temperature must be >= 0")


@dataclass(frozen=True)
class GenerationResponse:
    samples: Tuple[str, ...]
    backend_name: str
    latency_ms: float
    truncated: Tuple[bool, ...]
    attempts: int = 1

    def __post_init__(self):
        if len(self.samples) != len(self.truncated):
            raise ValueError("one truncation flag per sample required")


def estimate_tokens(text: str) -> int:
    """Crude provider-agnostic token estimate: about four characters each."""
    if not text:
        return 0
    return max(1, (len(text) + 3) // 4)


@dataclass
class GenerationBudget:
    """Approximate request/token ceiling shared across a pipeline stage.

    Charged once per logical request, up front: prompt estimate plus the
    worst-case completion (max_new_tokens per sample).  Retries of a failed
    attempt are not re-charged.
    """

    max_requests: Optional[int] = None
    max_tokens: Optional[int] = None
    requests_used: int = 0
    tokens_used: int = 0

    def charge(self, request: GenerationRequest) -> None:
        cost = estimate_tokens(request.prompt) + request.max_new_tokens * request.n_samples
        if self.max_requests is not None and self.requests_used + 1 > self.max_requests:
            raise BudgetExceeded(
                f"request ceiling {self.max_requests} reached"
            )
        if self.max_tokens is not None and self.tokens_used + cost > self.max_tokens:
            raise BudgetExceeded(
                f"token ceiling {self.max_tokens} would be exceeded "
                f"({self.tokens_used} used, next request needs ~{cost})"
            )
        self.requests_used += 1
        self.tokens_used += cost


@dataclass
class RetryPolicy:
    """Exponential backoff with deterministic jitter.

    The delay before retry k is base_delay * 2^(k-1), capped at max_delay,
    scaled into [0.5, 1.0) by a jitter value derived only from (jitter_seed,
    attempt), so schedules are reproducible.  complete() stops retrying once
    the next sleep would push cumulative backoff past wall_clock_ceiling.
    """

    max_attempts: int = 5
    base_delay: float = 1.0
    max_delay: float = 60.0
    wall_clock_ceiling: float = 300.0
    jitter_seed: int = 0
    sleep: Callable[[float], None] = time.sleep

    def delay(self, attempt: int) -> float:
        raw = min(self.max_delay, self.base_delay * 2 ** (attempt - 1))
        jitter = random.Random(f"{self.jitter_seed}:{attempt}").random()
        return raw * (0.5 + 0.5 * jitter)


def complete(
    request: GenerationRequest,
    backend,
    retry: Optional[RetryPolicy] = None,
    budget: Optional[GenerationBudget] = None,
) -> GenerationResponse:
    """Run one generation request with retry, budget, and contract checks."""
    policy = retry or RetryPolicy()
    if budget is not None:
        budget.charge(request)
    started = time.perf_counter()
    attempt = 1
    slept = 0.0
    while True:
        try:
            pairs = backend.generate(request)
            break
        except BackendUnavailable as exc:
            if attempt >= policy.max_attempts:
                raise BackendUnavailable(
                    f"backend {backend.name} failed after {attempt} attempts: {exc}"
                ) from exc
            pause = policy.delay(attempt)
            if slept + pause > policy.wall_clock_ceiling:
                raise BackendUnavailable(
                    f"retry ceiling {policy.wall_clock_ceiling}s reached "
                    f"after {attempt} attempts: {exc}"
                ) from exc
            logger.warning(
                "backend %s attempt %d failed (%s), retrying in %.1fs",
                backend.name, attempt, exc, pause,
            )
            policy.sleep(pause)
            slept += pause
            attempt += 1
    latency_ms = (time.perf_counter() - started) * 1000.0
    if len(pairs) != request.n_samples:
        raise MalformedBackendReply(
            f"backend {backend.name} returned {len(pairs)} samples, "
            f"requested {request.n_samples}"
        )
    return GenerationResponse(
        samples=tuple(text for text, _ in pairs),
        backend_name=backend.name,
        latency_ms=latency_ms,
        truncated=tuple(flag for _, flag in pairs),
        attempts=attempt,
    )


# --- backends -----------------------------------------------------------------


class MockBackend:
    """Deterministic scripted backend.

    script is an ordered list of (substring_pattern, response); the first
    pattern contained in the prompt wins.  A string response is a pure
    lookup: the same prompt always yields the same text.  A list response is
    consumed one entry per sample in call order (the last entry repeats once
    exhausted), which lets fixtures script "fail twice, then succeed"
    sequences.  Unmatched prompts get default_text.
    """

    def __init__(
        self,
        script: Optional[Sequence[Tuple[str, Union[str, Sequence[str]]]]] = None,
        default_text: str = "sorry",
        name: str = "mock",
    ):
        self.script = list(script or [])
        self.default_text = default_text
        self.name = name
        self._cursor: Dict[int, int] = {}

    def _lookup(self, prompt: str, rule_index: int) -> str:
        response = self.script[rule_index][1] if rule_index >= 0 else self.default_text
        if isinstance(response, str):
            return response
        served = self._cursor.get(rule_index, 0)
        self._cursor[rule_index] = served + 1
        return response[min(served, len(response) - 1)]

    def generate(self, request: GenerationRequest) -> List[Tuple[str, bool]]:
        matched = -1
        for i, (pattern, _) in enumerate(self.script):
            if pattern in request.prompt:
                matched = i
                break
        return [
            (self._lookup(request.prompt, matched), False)
            for _ in range(request.n_samples)
        ]


class ChatCompletionBackend:
    """Adapter for chat-completion HTTP services.

    Wire format: POST {model, messages, temperature, n, max_tokens[, stop]}
    to the endpoint; reply {choices: [{message: {content}, finish_reason}]}.
    The bearer token comes from the environment variable named by
    api_key_env; a missing key surfaces as BackendUnavailable at call time.
    """

    def __init__(
        self,
        endpoint: str,
        model: str,
        api_key_env: Optional[str] = None,
        system_prompt: str = "",
        timeout: float = 120.0,
        session=None,
        name: Optional[str] = None,
    ):
        self.endpoint = endpoint
        self.model = model
        self.api_key_env = api_key_env
        self.system_prompt = system_prompt
        self.timeout = timeout
        self.name = name or model
        self._session = session or requests.Session()

    def _headers(self) -> Dict[str, str]:
        headers = {"Content-Type": "application/json"}
        if self.api_key_env:
            key = os.environ.get(self.api_key_env)
            if not key:
                raise BackendUnavailable(
                    f"environment variable {self.api_key_env} is not set"
                )
            headers["Authorization"] = f"Bearer {key}"
        return headers

    def generate(self, request: GenerationRequest) -> List[Tuple[str, bool]]:
        messages = []
        if self.system_prompt:
            messages.append({"role": "system", "content": self.system_prompt})
        messages.append({"role": "user", "content": request.prompt})
        body = {
            "model": self.model,
            "messages": messages,
            "temperature": request.temperature,
            "n": request.n_samples,
            "max_tokens": request.max_new_tokens,
        }
        if request.stop_sequences:
            body["stop"] = list(request.stop_sequences)
        try:
            reply = self._session.post(
                self.endpoint, json=body, headers=self._headers(), timeout=self.timeout
            )
        except requests.RequestException as exc:
            raise BackendUnavailable(f"request failed: {exc}") from exc
        if reply.status_code == 429 or reply.status_code >= 500:
            raise BackendUnavailable(f"service returned {reply.status_code}")
        if reply.status_code != 200:
            raise MalformedBackendReply(
                f"service returned {reply.status_code}: {reply.text[:200]}"
            )
        try:
            choices = reply.json()["choices"]
            out = [
                (c["message"]["content"], c.get("finish_reason") == "length")
                for c in choices
            ]
        except (ValueError, KeyError, TypeError) as exc:
            raise MalformedBackendReply(f"unparseable reply: {exc}") from exc
        if len(out) != request.n_samples:
            raise MalformedBackendReply(
                f"reply has {len(out)} choices, requested {request.n_samples}"
            )
        return out
