"""Uniform client for text-generation backends.

One request/response shape covers the remote chat-completion adapter and the
deterministic mock used by tests and offline runs.  Requests carry a finished
prompt string; the prompts themselves are built in ``leanforge.prompts``.
The chat system message, if any, is the backend's configured
``system_prompt``.

A stage asks the model in one way only. Its ``Sampler`` holds the backend,
the retry policy, the budget and the settings of every request. It runs
its units (a theorem, a problem: each an item and the prompt it sends)
through ``in_order``, which keeps up to ``backend.concurrency`` of them in
flight (one for a backend without the attribute), prices each unit's
budget reservation from its prompt, and hands each unit's work an ``Ask``
that sends that prompt. Results come back in unit order. No other module
builds a request or calls ``complete``.

API keys are read from environment variables named in the backend config;
they never appear in config files or serialized state.
"""

from __future__ import annotations

import collections
import logging
import os
import random
import threading
import time
from dataclasses import dataclass, field
from typing import (
    Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union,
)

import requests

logger = logging.getLogger(__name__)


class GenClientError(Exception):
    pass


class BackendUnavailable(GenClientError):
    """Transient transport or service failure; retried by complete()."""


class MalformedBackendReply(GenClientError):
    """The backend answered but violated the wire contract; not retried."""


class BudgetExceeded(GenClientError):
    pass


# --- requests and responses ---------------------------------------------------


@dataclass(frozen=True)
class GenerationRequest:
    prompt: str
    max_new_tokens: int = 512
    temperature: float = 0.7
    n_samples: int = 1
    request_id: str = ""


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
    attempt are not re-charged.  Charges and reservations take one lock, so
    concurrent callers see the ceilings exactly.
    """

    max_requests: Optional[int] = None
    max_tokens: Optional[int] = None
    requests_used: int = 0
    tokens_used: int = 0
    requests_reserved: int = field(default=0, init=False)
    tokens_reserved: int = field(default=0, init=False)
    _lock: threading.Lock = field(default_factory=threading.Lock, init=False,
                                  repr=False, compare=False)

    def _ceiling_crossed(self, requests: int, tokens: int) -> Optional[str]:
        """Which ceiling ``requests`` and ``tokens`` more would cross beside
        what is used and reserved already, or None; the caller holds the lock."""
        if self.max_requests is not None and (
                self.requests_used + self.requests_reserved + requests > self.max_requests):
            return f"request ceiling {self.max_requests} reached"
        if self.max_tokens is not None and (
                self.tokens_used + self.tokens_reserved + tokens > self.max_tokens):
            return (f"token ceiling {self.max_tokens} would be exceeded "
                    f"({self.tokens_used} used, next request needs ~{tokens})")
        return None

    def charge(self, request: GenerationRequest) -> None:
        cost = _cost(request)
        with self._lock:
            crossed = self._ceiling_crossed(1, cost)
            if crossed:
                raise BudgetExceeded(crossed)
            self.requests_used += 1
            self.tokens_used += cost

    def reserve(self, requests: int, tokens: int) -> Optional["Reservation"]:
        """Set aside ``requests`` and ``tokens`` for one caller, or return
        None when they do not fit under the ceilings beside what is used
        and reserved already."""
        with self._lock:
            if self._ceiling_crossed(requests, tokens):
                return None
            self.requests_reserved += requests
            self.tokens_reserved += tokens
        return Reservation(self, requests, tokens)


class Reservation:
    """Budget set aside by ``GenerationBudget.reserve``.

    Passed to ``complete`` in place of the budget: each charge moves its cost
    from reserved to used and fails only past the reservation. ``release``
    hands back what was not charged.
    """

    def __init__(self, budget: GenerationBudget, requests: int, tokens: int):
        self.budget = budget
        self.requests = requests
        self.tokens = tokens

    def charge(self, request: GenerationRequest) -> None:
        cost = _cost(request)
        if self.requests < 1 or cost > self.tokens:
            raise BudgetExceeded("request exceeds its reservation")
        with self.budget._lock:
            self.requests -= 1
            self.tokens -= cost
            self.budget.requests_reserved -= 1
            self.budget.tokens_reserved -= cost
            self.budget.requests_used += 1
            self.budget.tokens_used += cost

    def release(self) -> None:
        with self.budget._lock:
            self.budget.requests_reserved -= self.requests
            self.budget.tokens_reserved -= self.tokens
            self.requests = self.tokens = 0


def _cost(request: GenerationRequest) -> int:
    """Tokens a budget charges for ``request``."""
    return estimate_tokens(request.prompt) + request.max_new_tokens * request.n_samples


def in_order(
    units: Iterable[Tuple[Any, str]],
    work: Callable[[Any, Ask], Any],
    sampler: Sampler,
    attempts: int,
) -> Iterator[Tuple[Any, Any]]:
    """Run ``work(item, ask)`` over ``units``, ``(item, prompt)`` pairs, up to
    the backend's ``concurrency`` at once, and yield ``(item, result)`` in
    unit order, each as soon as it and every earlier result are in. Units
    are drawn only as they are started; ``ask`` sends the unit's prompt.

    At concurrency 1 the units run one by one on the calling thread, each
    charging the budget itself: this is the serial run. Above it they run
    on a thread pool, and with a budget each unit first reserves, in unit
    order, ``attempts`` requests of its prompt; its ``ask`` charges that
    reservation, which is released when the work returns or raises. A unit
    whose reservation does not fit waits for every earlier unit and then
    runs alone on the budget itself, so it sees what the serial run sees
    and a run that hits a ceiling stops where the serial run stops.

    When the work of unit k raises, no unit is started once that is seen,
    and the exception propagates after the results before k are yielded.
    """
    concurrency = getattr(sampler.backend, "concurrency", 1)
    if concurrency == 1:
        # No pool: with one unit in flight a worker thread only adds
        # hand-offs, and a mock run's informalize and bootstrap ran about a
        # third slower through one (2-core host, Python 3.11).
        for item, prompt in units:
            yield item, work(item, Ask(sampler, prompt))
        return
    # Imported here: the CLI's start-up does not pay for the thread pool.
    from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait

    def run(item, ask):
        try:
            return work(item, ask)
        finally:
            if ask.charge is not None:
                ask.charge.release()

    queue: collections.deque = collections.deque()  # (item, future), unyielded

    def finished():
        while queue and queue[0][1].done():
            item, future = queue.popleft()
            yield item, future.result()

    def failed() -> bool:
        return any(f.done() and f.exception() is not None for _, f in queue)

    budget = sampler.budget
    with ThreadPoolExecutor(max_workers=concurrency) as pool:
        for item, prompt in units:
            running = [f for _, f in queue if not f.done()]
            while len(running) >= concurrency:
                wait(running, return_when=FIRST_COMPLETED)
                yield from finished()
                running = [f for _, f in queue if not f.done()]
            if failed():
                break
            charge = None
            if budget is not None:
                cost = _cost(sampler.request(prompt))
                charge = budget.reserve(attempts, attempts * cost)
                if charge is None:
                    wait([f for _, f in queue])
                    yield from finished()
            future = pool.submit(run, item, Ask(sampler, prompt, charge))
            queue.append((item, future))
            if budget is not None and charge is None:
                wait([future])
            yield from finished()
        while queue:
            item, future = queue.popleft()
            yield item, future.result()


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


@dataclass(frozen=True)
class Sampler:
    """How a stage asks the model: the backend, the retry policy, the
    budget every request is charged to, and the settings of each request."""

    backend: Any
    retry: Optional[RetryPolicy] = None
    budget: Optional[GenerationBudget] = None
    max_new_tokens: int = 512
    temperature: float = 0.7

    def request(self, prompt: str, request_id: str = "") -> GenerationRequest:
        return GenerationRequest(prompt, self.max_new_tokens, self.temperature,
                                 request_id=request_id)


@dataclass(frozen=True)
class Ask:
    """One unit's way to ask: ``ask(request_id)`` sends ``prompt`` through
    ``complete`` with the sampler's settings. It charges ``charge``, the
    unit's reservation, or the sampler's budget when that is None."""

    sampler: Sampler
    prompt: str
    charge: Optional[Reservation] = None

    def __call__(self, request_id: str) -> GenerationResponse:
        s = self.sampler
        return complete(s.request(self.prompt, request_id), s.backend, s.retry,
                        s.budget if self.charge is None else self.charge)


# --- backends -----------------------------------------------------------------


class MockBackend:
    """Deterministic scripted backend.

    script is an ordered list of (substring_pattern, response); the first
    pattern contained in the prompt wins.  A string response is a pure
    lookup: the same prompt always yields the same text.  A list response is
    consumed one entry per sample in call order (the last entry repeats once
    exhausted), which lets fixtures script "fail twice, then succeed"
    sequences.  Unmatched prompts get default_text.  Because list responses
    are served in call order, a mock serves one caller at a time.
    """

    concurrency = 1

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

    Wire format: POST {model, messages, temperature, n, max_tokens} to the
    endpoint; reply {choices: [{message: {content}, finish_reason}]}.
    The bearer token comes from the environment variable named by
    api_key_env; a missing key surfaces as BackendUnavailable at call time.

    All calls share one keep-alive session whose connection pool holds at
    most ``max_in_flight`` connections and blocks when they are all busy,
    so concurrent callers never open more; a call's latency includes the
    wait for a free connection. Stages keep two units in flight per
    connection (``concurrency``), so one unit's reply can be checked while
    another's request waits.
    """

    def __init__(
        self,
        endpoint: str,
        model: str,
        api_key_env: Optional[str] = None,
        system_prompt: str = "",
        timeout: float = 120.0,
        max_in_flight: int = 2,
        name: Optional[str] = None,
    ):
        self.endpoint = endpoint
        self.model = model
        self.api_key_env = api_key_env
        self.system_prompt = system_prompt
        self.timeout = timeout
        self.name = name or model
        self.concurrency = 2 * max_in_flight
        self._session = requests.Session()
        adapter = requests.adapters.HTTPAdapter(
            pool_maxsize=max_in_flight, pool_block=True)
        self._session.mount("http://", adapter)
        self._session.mount("https://", adapter)

    def close(self) -> None:
        """Close the session's connections."""
        self._session.close()

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
