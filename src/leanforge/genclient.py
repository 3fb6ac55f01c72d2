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
flight, or as many as its caller asks above a concurrency of one, and
one at a time when the budget has a ceiling. It hands each unit's work
an ``Ask`` that charges each request to the budget and sends that
prompt. Results come back in unit order. No other module builds a
request or calls ``complete``.

API keys are read from environment variables named in the backend config;
they never appear in config files or serialized state.
"""

from __future__ import annotations

import collections
import json
import logging
import os
import random
import re
import select
import threading
import time
import urllib.parse
from dataclasses import dataclass, field
from typing import (
    Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union,
)

from . import __version__
from .config import BackendSettings, BudgetSettings, ConfigError, RetrySettings

logger = logging.getLogger(__name__)

_USER_AGENT = f"leanforge/{__version__}"


class GenClientError(Exception):
    """A failed request. Raised as itself for a reply that breaks the wire
    contract, which ``complete`` does not retry."""


class BackendUnavailable(GenClientError):
    """Transient transport or service failure; retried by complete()."""


class BudgetExceeded(GenClientError):
    """A request the budget refuses; not sent."""


# --- requests and responses ---------------------------------------------------


@dataclass(frozen=True)
class GenerationRequest:
    prompt: str
    max_new_tokens: int
    temperature: float
    n_samples: int = 1
    request_id: str = ""


@dataclass(frozen=True)
class GenerationResponse:
    samples: Tuple[str, ...]
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
    """The request/token ceilings of ``settings``, shared across a pipeline
    stage. Every run has one: with no ceiling set it refuses nothing, and
    still counts every request and token.

    Charged once per logical request, up front: prompt estimate plus the
    worst-case completion (max_new_tokens per sample).  Retries of a failed
    attempt are not re-charged.  Charges take one lock, so concurrent
    callers count every request once.  A stage whose budget has a ceiling
    runs its units one at a time (``in_order``), so it stops where a serial
    run stops.
    """

    settings: BudgetSettings
    requests_used: int = field(default=0, init=False)
    tokens_used: int = field(default=0, init=False)
    _lock: threading.Lock = field(default_factory=threading.Lock, init=False,
                                  repr=False, compare=False)

    def charge(self, request: GenerationRequest) -> None:
        cost = estimate_tokens(request.prompt) + request.max_new_tokens * request.n_samples
        max_requests, max_tokens = self.settings.max_requests, self.settings.max_tokens
        with self._lock:
            if max_requests is not None and self.requests_used >= max_requests:
                raise BudgetExceeded(f"request ceiling {max_requests} reached")
            if max_tokens is not None and self.tokens_used + cost > max_tokens:
                raise BudgetExceeded(
                    f"token ceiling {max_tokens} would be exceeded "
                    f"({self.tokens_used} used, next request needs ~{cost})")
            self.requests_used += 1
            self.tokens_used += cost


def in_order(
    units: Iterable[Tuple[Any, str]],
    work: Callable[[Any, Ask], Any],
    sampler: Sampler,
    *,
    in_flight: Optional[int] = None,
) -> Iterator[Tuple[Any, Any]]:
    """Run ``work(item, ask)`` over ``units``, ``(item, prompt)`` pairs, up to
    the backend's ``concurrency`` at once, and yield ``(item, result)`` in
    unit order, each as soon as it and every earlier result are in. Units
    are drawn only as they are started; ``ask`` charges the sampler's
    budget and sends a request of the unit's prompt.

    At concurrency 1, or when the budget has a ceiling, the units run one
    by one on the calling thread: this is the serial run, and a run that
    hits a ceiling stops where it stops. Otherwise they run on a thread
    pool, ``in_flight`` of them at once when it is given: for units that
    mostly wait on a backend and a verifier that each bound their own
    work, so that a long unit does not start late, behind shorter ones.

    When the work of unit k raises, no unit is started once that is seen,
    the ``ask`` of every running unit after k raises ``Halted`` at its next
    request, and the exception propagates after the results before k are
    yielded. Once the caller stops reading, or an exception such as
    ``KeyboardInterrupt`` leaves this generator, every ``ask`` raises
    ``Halted``, so the pool waits only for the requests and checks under
    way.
    """
    concurrency = sampler.backend.concurrency
    ceilings = sampler.budget.settings
    capped = ceilings.max_requests is not None or ceilings.max_tokens is not None
    if concurrency == 1 or capped:
        # No pool: a capped run must charge what the serial run charges,
        # and with one unit in flight a worker thread only adds hand-offs;
        # a mock run's informalize and bootstrap ran about a third slower
        # through one (2-core host, Python 3.11).
        never = _Halt()
        for item, prompt in units:
            yield item, work(item, Ask(sampler, prompt, never))
        return
    if in_flight is not None:
        concurrency = in_flight
    # Imported here: the CLI's start-up does not pay for the thread pool.
    from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait

    queue: collections.deque = collections.deque()  # (item, future), unyielded
    halt = _Halt()

    def finished():
        while queue and queue[0][1].done():
            item, future = queue.popleft()
            yield item, future.result()

    def on_done(index):
        def stop_later_units(future):
            if future.exception() is not None:
                halt.after(index)
        return stop_later_units

    with ThreadPoolExecutor(max_workers=concurrency) as pool:
        try:
            for index, (item, prompt) in enumerate(units):
                running = [f for _, f in queue if not f.done()]
                while len(running) >= concurrency:
                    wait(running, return_when=FIRST_COMPLETED)
                    yield from finished()
                    running = [f for _, f in queue if not f.done()]
                if halt.last < index:  # an earlier unit raised
                    break
                future = pool.submit(work, item, Ask(sampler, prompt, halt, index))
                future.add_done_callback(on_done(index))
                queue.append((item, future))
                yield from finished()
            while queue:
                item, future = queue.popleft()
                yield item, future.result()
        finally:
            halt.after(-1)


class Halted(Exception):
    """Raised by the ``ask`` of a unit whose result ``in_order`` will not
    read. Not a GenClientError: a stage's work does not take it for a
    failed request."""


class _Halt:
    """The position after which ``in_order``'s units send no request."""

    def __init__(self):
        self.last = float("inf")
        self._lock = threading.Lock()

    def after(self, index: int) -> None:
        with self._lock:
            self.last = min(self.last, index)


@dataclass
class RetryPolicy:
    """Exponential backoff with deterministic jitter, by ``settings``.

    The delay before retry k is base_delay * 2^(k-1), capped at max_delay,
    scaled into [0.5, 1.0) by a jitter value derived only from (jitter_seed,
    attempt), so schedules are reproducible.  complete() makes at most
    max_attempts attempts, and stops retrying once the next sleep would push
    cumulative backoff past wall_clock_ceiling.
    """

    settings: RetrySettings
    jitter_seed: int
    sleep: Callable[[float], None] = time.sleep

    def delay(self, attempt: int) -> float:
        s = self.settings
        raw = min(s.max_delay, s.base_delay * 2 ** (attempt - 1))
        jitter = random.Random(f"{self.jitter_seed}:{attempt}").random()
        return raw * (0.5 + 0.5 * jitter)


# A JSON reply may escape half of a UTF-16 pair (``\ud800``); the decoded
# text then cannot be written as UTF-8.
_SURROGATE = re.compile("[\ud800-\udfff]")


def complete(request: GenerationRequest, backend, retry: RetryPolicy) -> GenerationResponse:
    """Send one generation request, with retry and contract checks; the
    caller has charged it."""
    limits = retry.settings
    started = time.perf_counter()
    attempt = 1
    slept = 0.0
    while True:
        try:
            pairs = backend.generate(request)
            break
        except BackendUnavailable as exc:
            if attempt >= limits.max_attempts:
                raise BackendUnavailable(
                    f"backend {backend.name} failed after {attempt} attempts: {exc}"
                ) from exc
            pause = retry.delay(attempt)
            if slept + pause > limits.wall_clock_ceiling:
                raise BackendUnavailable(
                    f"retry ceiling {limits.wall_clock_ceiling}s reached "
                    f"after {attempt} attempts: {exc}"
                ) from exc
            logger.warning(
                "backend %s attempt %d failed (%s), retrying in %.1fs",
                backend.name, attempt, exc, pause,
            )
            retry.sleep(pause)
            slept += pause
            attempt += 1
    latency_ms = (time.perf_counter() - started) * 1000.0
    if len(pairs) != request.n_samples:
        raise GenClientError(
            f"backend {backend.name} returned {len(pairs)} samples, "
            f"requested {request.n_samples}"
        )
    for index, (text, _) in enumerate(pairs):
        # an ASCII text, the common case, is known to be one without a scan
        if not text.isascii() and _SURROGATE.search(text):
            raise GenClientError(
                f"backend {backend.name} sample {index} holds a lone surrogate, "
                "which no file can hold as UTF-8"
            )
    return GenerationResponse(
        samples=tuple(text for text, _ in pairs),
        latency_ms=latency_ms,
        truncated=tuple(flag for _, flag in pairs),
        attempts=attempt,
    )


@dataclass(frozen=True)
class Sampler:
    """How a stage asks the model: the backend, the retry policy, the
    budget every request is charged to, and the settings of each request."""

    backend: Any
    retry: RetryPolicy
    budget: GenerationBudget
    max_new_tokens: int
    temperature: float

    def request(self, prompt: str, request_id: str) -> GenerationRequest:
        return GenerationRequest(prompt, self.max_new_tokens, self.temperature,
                                 request_id=request_id)


@dataclass(frozen=True)
class Ask:
    """One unit's way to ask: ``ask(request_id)`` charges a request of
    ``prompt`` to the sampler's budget, then sends it through ``complete``
    with the sampler's settings. No request is sent once ``halt`` passes
    ``index``."""

    sampler: Sampler
    prompt: str
    halt: _Halt
    index: int = 0

    def __call__(self, request_id: str) -> GenerationResponse:
        if self.index > self.halt.last:
            raise Halted(f"request {request_id} not sent: its result will not be read")
        s = self.sampler
        request = s.request(self.prompt, request_id)
        s.budget.charge(request)
        return complete(request, s.backend, s.retry)


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

    name = "mock"
    concurrency = 1

    def __init__(
        self,
        script: Sequence[Tuple[str, Union[str, Sequence[str]]]],
        default_text: str,
    ):
        self.script = list(script)
        self.default_text = default_text
        self._cursor: Dict[int, int] = {}

    def close(self) -> None:
        """Nothing to close: the mock holds no connection."""

    def _lookup(self, rule_index: int) -> str:
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
            (self._lookup(matched), False)
            for _ in range(request.n_samples)
        ]


class ChatCompletionBackend:
    """Adapter for chat-completion HTTP services, configured by ``settings``
    and named by its model.

    Wire format: POST {model, messages, temperature, n, max_tokens} to the
    endpoint; reply {choices: [{message: {content}, finish_reason}]}, with
    the ``system_prompt`` as a system message when it is set. The bearer
    token comes from the environment variable named by api_key_env, read
    once: an unset one raises ``ConfigError`` as the backend is built.

    The backend speaks HTTP/1.1 on its own sockets: each request goes out
    in one write, and the reply is read from the socket's buffered reader
    (``_read_reply``). ``socket`` is imported as a backend is built, and
    ``ssl`` only for an ``https://`` endpoint, so a run on the mock backend
    pays for neither, and one on an ``http://`` endpoint not for ``ssl``
    (about 20 ms). TLS checks the server's certificate and host name
    against the default CA store, as ``http.client`` does.

    All calls share a pool of keep-alive connections. At most
    ``max_in_flight`` requests are on the wire at once and a further call
    blocks until one ends, so concurrent callers never open more
    connections; a call's latency includes that wait. The most recently
    used idle connection is taken first, unless the server has closed it
    meanwhile: then a fresh one is opened. A request once written is never
    sent again on another connection, since a POST is not idempotent;
    whether to try again is ``complete``'s decision. ``informalize`` and
    ``bootstrap`` keep two units in flight per connection
    (``concurrency``), so one unit's reply can be checked while another's
    request waits; ``prove`` keeps one problem more per verifier check. A
    budget with a ceiling keeps one unit in flight (``in_order``).
    """

    def __init__(self, settings: BackendSettings):
        auth = ""
        if settings.api_key_env:
            key = os.environ.get(settings.api_key_env)
            if not key:
                raise ConfigError([f"backend.api_key_env: environment variable "
                                   f"{settings.api_key_env} is not set"])
            if not (key.isascii() and key.isprintable()):
                raise ConfigError([f"backend.api_key_env: environment variable "
                                   f"{settings.api_key_env} holds a character "
                                   "a header cannot carry"])
            auth = f"Authorization: Bearer {key}\r\n"
        self.settings = settings
        self.name = settings.model
        self.concurrency = 2 * settings.max_in_flight
        url = urllib.parse.urlsplit(settings.endpoint)
        self._tls = None
        if url.scheme == "https":
            import ssl

            self._tls = ssl.create_default_context()
            self._tls.set_alpn_protocols(["http/1.1"])
        default_port = 443 if self._tls is not None else 80
        host = url.hostname
        self._address = (host, url.port or default_port)
        # the head http.client writes: Host names the port only when it is
        # not the scheme's, and an IPv6 address in brackets, without its zone
        if not host.isascii():
            host = host.encode("idna").decode("ascii")
        if ":" in host:
            host = f"[{host.partition('%')[0]}]"
        if url.port not in (None, default_port):
            host = f"{host}:{url.port}"
        target = (url.path or "/") + (f"?{url.query}" if url.query else "")
        self._head = (f"POST {target} HTTP/1.1\r\nHost: {host}\r\n"
                      "Accept-Encoding: identity\r\nContent-Length: ").encode("ascii")
        self._fields = (f"\r\nContent-Type: application/json\r\n"
                        f"User-Agent: {_USER_AGENT}\r\n{auth}\r\n").encode("ascii")
        self._slots = threading.BoundedSemaphore(settings.max_in_flight)
        self._idle: list = []  # open (socket, reader) pairs, the most recently used last
        self._idle_lock = threading.Lock()

    def close(self) -> None:
        """Close the idle connections."""
        with self._idle_lock:
            idle, self._idle = self._idle, []
        for connection in idle:
            _close(connection)

    def _connect(self):
        """A new connection: a socket (TLS for https://) and its reader."""
        import socket

        sock = socket.create_connection(self._address, self.settings.timeout)
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            if self._tls is not None:
                sock = self._tls.wrap_socket(sock, server_hostname=self._address[0])
            return sock, sock.makefile("rb")
        except BaseException:
            sock.close()
            raise

    def _checkout(self):
        """An idle connection the server has kept open, or a new one."""
        with self._idle_lock:
            while self._idle:
                connection = self._idle.pop()
                # with no request outstanding, a socket that reads as ready
                # holds the server's close (or bytes nobody asked for);
                # poll, unlike select, takes a descriptor past 1023
                ready = select.poll()
                ready.register(connection[0], select.POLLIN)
                if not ready.poll(0):
                    return connection
                _close(connection)
        return self._connect()

    def _post(self, body: bytes) -> Tuple[int, bytes]:
        """The status and body of the reply to one POST of ``body``."""
        message = b"%s%d%s%s" % (self._head, len(body), self._fields, body)
        with self._slots:
            connection = None
            try:
                connection = self._checkout()
                connection[0].sendall(message)
                status, data, reusable = _read_reply(connection[1])
            except (OSError, ValueError) as exc:
                if connection is not None:
                    _close(connection)
                raise BackendUnavailable(f"request failed: {exc}") from exc
            if reusable:
                with self._idle_lock:
                    self._idle.append(connection)
            else:
                _close(connection)
        return status, data

    def generate(self, request: GenerationRequest) -> List[Tuple[str, bool]]:
        messages = []
        if self.settings.system_prompt:
            messages.append({"role": "system", "content": self.settings.system_prompt})
        messages.append({"role": "user", "content": request.prompt})
        body = {
            "model": self.settings.model,
            "messages": messages,
            "temperature": request.temperature,
            "n": request.n_samples,
            "max_tokens": request.max_new_tokens,
        }
        status, data = self._post(json.dumps(body).encode())
        if status == 429 or status >= 500:
            raise BackendUnavailable(f"service returned {status}")
        if status != 200:
            text = data.decode("utf-8", errors="replace")
            raise GenClientError(f"service returned {status}: {text[:200]}")
        try:
            choices = json.loads(data)["choices"]
            out = [
                (c["message"]["content"], c.get("finish_reason") == "length")
                for c in choices
            ]
        except (ValueError, KeyError, TypeError) as exc:
            raise GenClientError(f"unparseable reply: {exc}") from exc
        if any(type(text) is not str for text, _ in out):
            raise GenClientError("reply has a choice whose content is not a string")
        return out


# http.client's limits: the longest status, header or chunk-size line, and
# the most header (or trailer) lines of one reply
_MAX_LINE = 65536
_MAX_FIELDS = 100

_STATUS_LINE = re.compile(rb"HTTP/1\.(\d+) +([1-9]\d\d)(?: |\r?\n)")
_CHUNK_SIZE = re.compile(rb"[0-9A-Fa-f]+")


def _close(connection) -> None:
    sock, reader = connection
    reader.close()
    sock.close()


def _line(reader) -> bytes:
    line = reader.readline(_MAX_LINE + 1)
    if len(line) > _MAX_LINE:
        raise ValueError(f"reply line longer than {_MAX_LINE} bytes")
    if not line:
        raise ConnectionError("connection closed before the reply ended")
    return line


def _fields(reader) -> Dict[bytes, bytes]:
    """The header (or trailer) fields up to the blank line that ends them,
    by lower-case name."""
    fields = {}
    for _ in range(_MAX_FIELDS + 1):
        line = _line(reader)
        if line in (b"\r\n", b"\n"):
            return fields
        name, colon, value = line.partition(b":")
        if not colon:
            raise ValueError(f"malformed header line {line[:80]!r}")
        fields[name.strip().lower()] = value.strip()
    raise ValueError(f"more than {_MAX_FIELDS} header lines")


def _read_reply(reader) -> Tuple[int, bytes, bool]:
    """The status and body of one HTTP/1.x reply, and whether its
    connection may carry another request: a 1.1 reply that does not close
    it and whose body is not delimited by the close.

    Interim (1xx) replies are read past; a 204 or 304 reply has no body.
    The body is framed by ``Transfer-Encoding: chunked`` (extensions and
    trailer read past), else by ``Content-Length``, else by the close.
    A malformed or cut-short reply raises ``ValueError`` or ``OSError``.
    """
    while True:
        line = _line(reader)
        status_line = _STATUS_LINE.match(line)
        if status_line is None:
            raise ValueError(f"malformed status line {line[:80]!r}")
        fields = _fields(reader)
        status = int(status_line[2])
        if status >= 200:
            break
    reusable = (status_line[1] != b"0"
                and b"close" not in fields.get(b"connection", b"").lower())
    if status in (204, 304):
        return status, b"", reusable
    if fields.get(b"transfer-encoding", b"").lower() == b"chunked":
        return status, _chunked_body(reader), reusable
    length = fields.get(b"content-length")
    if length is None:
        return status, reader.read(), False
    if not length.isdigit():
        raise ValueError(f"malformed Content-Length {length[:80]!r}")
    size = int(length)
    data = reader.read(size)
    if len(data) < size:
        raise ValueError(f"reply body ended after {len(data)} of {size} bytes")
    return status, data, reusable


def _chunked_body(reader) -> bytes:
    chunks = []
    while True:
        line = _line(reader)
        size = line.split(b";", 1)[0].strip()
        if not _CHUNK_SIZE.fullmatch(size):
            raise ValueError(f"malformed chunk size line {line[:80]!r}")
        size = int(size, 16)
        if not size:
            _fields(reader)  # the trailer
            return b"".join(chunks)
        chunk = reader.read(size)
        if len(chunk) < size or reader.read(2) != b"\r\n":
            raise ValueError(f"chunk of {size} bytes cut short or not ended by CRLF")
        chunks.append(chunk)
