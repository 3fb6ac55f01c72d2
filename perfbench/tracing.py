"""Spans and counts around the program's public functions, installed from
outside the program.

``install`` replaces every public function of the leanforge modules (all but
``cli`` and ``config``, which only dispatch) and the public methods listed in
``METHODS`` with a wrapper that records a span: name, start, end, parent
span and the CLI command it ran under. Modules that bind a name by direct
import (``prover`` holds ``complete`` and ``count_tokens``, ``trainprep``
holds ``count_tactic_steps``) keep their own reference, so the wrapper is
bound into every leanforge namespace that holds the original; no call
escapes its span.

Spans stay in memory until the run ends. A span's self time is its duration
minus the part of it that its child spans cover.
"""

import functools
import importlib
import inspect
import itertools
import json
import pkgutil
import threading
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional

UNTRACED_MODULES = ("cli", "config")

# Formatting helpers called once per candidate example per packing step:
# the call count is quadratic in the example count and each call is cheaper
# than a span, so their time stays in the self time of the packer.
UNTRACED_FUNCTIONS = ("trainprep.example_block", "prover.format_pool_example")

METHODS = (
    ("retrieval", "HashEmbedder", "embed"),
    ("trainprep", "WhitespaceTokenizer", "count"),
    ("trainprep", "VocabTokenizer", "count"),
    ("genclient", "MockBackend", "generate"),
    ("genclient", "ChatCompletionBackend", "generate"),
    ("prover", "MockVerifier", "check"),
    ("prover", "ExternalVerifier", "check"),
)


class Span:
    __slots__ = ("name", "id", "parent", "command", "start", "end", "error")

    def __init__(self, name: str, span_id: int, parent: Optional[int], command: str):
        self.name = name
        self.id = span_id
        self.parent = parent
        self.command = command
        self.error = ""


class Tracer:
    def __init__(self):
        self.spans: List[Span] = []
        self.counts: Counter = Counter()
        self.latencies: Dict[str, List[float]] = defaultdict(list)
        self.command = ""
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def active(self, name: str) -> bool:
        """True when the calling thread is inside a span called ``name``."""
        return any(span.name == name for span in self._stack())

    def count(self, key: str, value: float = 1) -> None:
        with self._lock:
            self.counts[key] += value

    def wrap(self, name: str, fn: Callable, observe: Optional[Callable] = None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            span = Span(name, next(self._ids), stack[-1].id if stack else None,
                        self.command)
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
                self.spans.append(span)
            if observe is not None:
                observe(self, args, result)
            return result

        return traced


# --- observers: counts taken where the work happens ----------------------------


def _lexed(tracer, args, result):
    tracer.count("lex_bytes", len(args[0].encode("utf-8")))


def _embedded(tracer, args, result):
    tracer.count("embed_texts", len(args[1]))


def _tokenized(tracer, args, result):
    if tracer.active("trainprep.emit_training_set"):
        tracer.count("prep_chars_counted", len(args[1]))


def _completed(tracer, args, result):
    samples = len(result.samples)
    tracer.count("complete_samples", samples)
    tracer.count("complete_retries", result.attempts - 1)
    with tracer._lock:
        tracer.latencies["complete_ms"].append(result.latency_ms)
    if tracer.active("prover.run_iteration"):
        tracer.count("prover_samples", samples)


def _checked(tracer, args, result):
    if result[0] == "verified":
        tracer.count("verifier_verified")


def _informalized(tracer, args, result):
    if result.verdict == "pass":
        tracer.count("informal_passes")


def _packed(tracer, args, result):
    tracer.count("pack_examples", result.example_count)


def _evaluated(tracer, args, result):
    if result.verdict == "error":
        tracer.count("prover_error_verdicts")


OBSERVERS = {
    "corpus.lex_lean": _lexed,
    "retrieval.HashEmbedder.embed": _embedded,
    "trainprep.WhitespaceTokenizer.count": _tokenized,
    "trainprep.VocabTokenizer.count": _tokenized,
    "genclient.complete": _completed,
    "prover.MockVerifier.check": _checked,
    "prover.ExternalVerifier.check": _checked,
    "informalize.informalize_theorem": _informalized,
    "trainprep.pack_block": _packed,
    "prover.evaluate_sample": _evaluated,
}


def install(tracer: Tracer, package: str = "leanforge") -> int:
    """Wrap the package's public functions and METHODS; returns how many."""
    root = importlib.import_module(package)
    modules = {info.name: importlib.import_module(f"{package}.{info.name}")
               for info in pkgutil.iter_modules(root.__path__)}
    wrappers = {}
    for short, module in modules.items():
        if short in UNTRACED_MODULES:
            continue
        for attr, obj in vars(module).items():
            name = f"{short}.{attr}"
            if (attr.startswith("_") or not inspect.isfunction(obj)
                    or obj.__module__ != module.__name__ or name in UNTRACED_FUNCTIONS):
                continue
            wrappers[obj] = tracer.wrap(name, obj, OBSERVERS.get(name))
    for module in [root, *modules.values()]:
        for attr, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                setattr(module, attr, wrappers[obj])
    for short, cls_name, method in METHODS:
        cls = getattr(modules[short], cls_name)
        name = f"{short}.{cls_name}.{method}"
        setattr(cls, method, tracer.wrap(name, cls.__dict__[method], OBSERVERS.get(name)))
    return len(wrappers) + len(METHODS)


# --- summary -------------------------------------------------------------------


def _covered(start: float, end: float, children: List[Span]) -> float:
    """Length of [start, end] covered by the union of the children's spans."""
    total = 0.0
    reach = start
    for child in sorted(children, key=lambda s: s.start):
        lo = max(child.start, reach)
        hi = min(child.end, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def summarize(tracer: Tracer) -> dict:
    children: Dict[int, List[Span]] = defaultdict(list)
    for span in tracer.spans:
        if span.parent is not None:
            children[span.parent].append(span)
    functions: Dict[str, List[float]] = {}
    waits = Counter()
    verifier_ms: List[float] = []
    derived = Counter()
    for span in tracer.spans:
        duration = span.end - span.start
        kids = children.get(span.id, [])
        row = functions.setdefault(span.name, [0, 0.0, 0.0, 0])
        row[0] += 1
        row[1] += duration - _covered(span.start, span.end, kids)
        row[2] += duration
        row[3] += 1 if span.error else 0
        if span.name.endswith(".generate"):
            waits["backend_s"] += duration
            waits[f"backend_s:{span.command}"] += duration
        elif span.name.endswith("Verifier.check"):
            waits["verifier_s"] += duration
            waits[f"verifier_s:{span.command}"] += duration
            verifier_ms.append(duration * 1000.0)
        elif span.name == "bootstrap.bootstrap_theorem":
            replies = sum(1 for k in kids if k.name == "genclient.complete")
            derived["bootstrap_theorems"] += 1
            derived["bootstrap_first_reply"] += 1 if replies == 1 and not span.error else 0
        elif span.name == "informalize.informalize_theorem":
            derived["informalize_attempts"] += sum(
                1 for k in kids if k.name == "genclient.complete")
    return {
        "spans": len(tracer.spans),
        "functions": functions,
        "counts": dict(tracer.counts),
        "waits": dict(waits),
        "derived": dict(derived),
        "latency_ms": {"complete": tracer.latencies["complete_ms"],
                       "verifier": verifier_ms},
    }


def write_spans(tracer: Tracer, path: str) -> None:
    """One JSON array per span: name, id, parent, command, start, end, error."""
    with open(path, "w", encoding="utf-8") as sink:
        for s in tracer.spans:
            sink.write(json.dumps([s.name, s.id, s.parent, s.command,
                                   s.start, s.end, s.error]) + "\n")
