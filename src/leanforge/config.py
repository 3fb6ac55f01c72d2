"""Pipeline configuration.

One YAML file configures every stage. String values may reference
environment variables as ``${VAR}``; that is the only way secrets enter the
tool, and the backend section deliberately has no field for a literal API
key, only for the name of the variable holding one. Validation collects
every problem it can find before any stage runs.
"""

import hashlib
import os
import re
from dataclasses import dataclass, field, fields, is_dataclass
from typing import List, Optional, Tuple

import yaml

from . import artifacts
from .genclient import (
    ChatCompletionBackend,
    GenerationBudget,
    MockBackend,
    RetryPolicy,
)
from .prover import ExternalVerifier, MockVerifier
from .trainprep import VocabTokenizer, WhitespaceTokenizer


class ConfigError(ValueError):
    """One or more configuration problems; .errors lists them all."""

    def __init__(self, errors: List[str]):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


# Fixed output names inside the working directory, one per stage artifact.
STAGE_FILES = {
    "theorems": "theorems.jsonl",
    "extract_skips": "extract_skips.jsonl",
    "projection": "projection.json",
    "loss_trace": "loss_trace.csv",
    "histogram": "similarity_histogram.csv",
    "informal_checkpoint": "informalize.ckpt.jsonl",
    "informal": "informal.jsonl",
    "obt": "obt.jsonl",
    "train": "train.jsonl",
    "train_skips": "train_skips.jsonl",
    "report": "report.jsonl",
    "attempts": "prove.attempts.jsonl",
    "sample": "sample.jsonl",
    "review": "review.txt",
}


@dataclass
class CorpusSettings:
    path: str = ""
    commit: str = "unspecified"


@dataclass
class RetrievalSettings:
    dimension: int = 64
    projection_dim: Optional[int] = None
    lr: float = 0.05
    steps: int = 500
    batch_size: int = 8
    pairs: str = ""     # training input: JSONL of nl/fl texts or vectors
    examples: str = ""  # example pool for informalization prompts
    side: str = "nl"    # which side of the pool the index ranks against


@dataclass
class RetrySettings:
    max_attempts: int = 5
    base_delay: float = 1.0
    max_delay: float = 60.0
    wall_clock_ceiling: float = 300.0


@dataclass
class BudgetSettings:
    max_requests: Optional[int] = None
    max_tokens: Optional[int] = None


@dataclass
class BackendSettings:
    kind: str = "mock"  # "mock" | "chat"
    script: str = ""    # mock: JSON file of pattern/response rules
    default_text: str = "sorry"
    endpoint: str = ""
    model: str = ""
    api_key_env: str = ""
    system_prompt: str = ""
    timeout: float = 120.0
    max_in_flight: int = 2  # chat: open connections, at most
    temperature: float = 0.7
    max_new_tokens: int = 2048
    retry: RetrySettings = field(default_factory=RetrySettings)
    budget: BudgetSettings = field(default_factory=BudgetSettings)


@dataclass
class InformalizeSettings:
    max_attempts: int = 3
    k_examples: int = 3
    max_tokens: int = 2048
    repetition_ngram: int = 4
    repetition_ratio_max: float = 0.3


@dataclass
class BootstrapSettings:
    mode: str = "interleaved"  # "interleaved" | "head"
    max_attempts: int = 3


@dataclass
class PrepSettings:
    token_budget: int = 2048
    tokenizer: str = "whitespace"  # "whitespace" | "vocab"
    vocab: str = ""
    use_nl: bool = True
    use_bootstrapped: bool = True
    use_block: bool = True
    use_curriculum: bool = True
    examples_use_bootstrapped: Optional[bool] = None


@dataclass
class ProverSettings:
    problems: str = ""
    seed_examples: str = ""
    n_samples: int = 128
    max_rounds: int = 2
    k_min: int = 10
    k_max: int = 16
    token_budget: int = 4096
    max_new_tokens: int = 1024
    verifier: str = "mock"  # "mock" | "external"
    answer_key: str = ""    # mock: JSON of name -> canonical proof
    command: List[str] = field(default_factory=list)
    timeout_s: float = 300.0


@dataclass
class PipelineConfig:
    seed: int = 0
    workdir: str = "work"
    corpus: CorpusSettings = field(default_factory=CorpusSettings)
    retrieval: RetrievalSettings = field(default_factory=RetrievalSettings)
    backend: BackendSettings = field(default_factory=BackendSettings)
    informalize: InformalizeSettings = field(default_factory=InformalizeSettings)
    bootstrap: BootstrapSettings = field(default_factory=BootstrapSettings)
    prep: PrepSettings = field(default_factory=PrepSettings)
    prover: ProverSettings = field(default_factory=ProverSettings)


def stage_path(config: PipelineConfig, key: str) -> str:
    return os.path.join(config.workdir, STAGE_FILES[key])


# --- loading -------------------------------------------------------------------

_ENV_REF = re.compile(r"\$\{([A-Za-z_][A-Za-z0-9_]*)\}")


def _interpolate(value, errors: List[str], where: str):
    if isinstance(value, str):
        def replace(match):
            name = match.group(1)
            if name not in os.environ:
                errors.append(
                    f"{where}: environment variable {name} is not set")
                return match.group(0)
            return os.environ[name]

        return _ENV_REF.sub(replace, value)
    if isinstance(value, dict):
        return {k: _interpolate(v, errors, f"{where}.{k}") for k, v in value.items()}
    if isinstance(value, list):
        return [_interpolate(v, errors, f"{where}[{i}]")
                for i, v in enumerate(value)]
    return value


def _build(cls, data, errors: List[str], where: str):
    if not isinstance(data, dict):
        errors.append(f"{where}: expected a mapping, got {type(data).__name__}")
        return cls()
    known = {f.name: f for f in fields(cls)}
    kwargs = {}
    for key, value in data.items():
        if key not in known:
            errors.append(f"{where}.{key}: unknown key")
            continue
        field_info = known[key]
        if is_dataclass(field_info.type):
            kwargs[key] = _build(field_info.type, value, errors, f"{where}.{key}")
        else:
            kwargs[key] = value
    try:
        return cls(**kwargs)
    except TypeError as exc:
        errors.append(f"{where}: {exc}")
        return cls()


_SECTIONS = {
    "corpus": CorpusSettings,
    "retrieval": RetrievalSettings,
    "backend": BackendSettings,
    "informalize": InformalizeSettings,
    "bootstrap": BootstrapSettings,
    "prep": PrepSettings,
    "prover": ProverSettings,
}


def load_config(path: str) -> PipelineConfig:
    """Parse, interpolate, and validate a config file. Raises ConfigError
    with every problem found, not just the first."""
    errors: List[str] = []
    try:
        with open(path, "r", encoding="utf-8") as source:
            raw = yaml.safe_load(source) or {}
    except FileNotFoundError:
        raise ConfigError([f"config file not found: {path}"])
    except yaml.YAMLError as exc:
        raise ConfigError([f"{path}: cannot parse config: {exc}"])
    if not isinstance(raw, dict):
        raise ConfigError([f"{path}: top level must be a mapping"])

    raw = _interpolate(raw, errors, "config")
    if "backend" in raw and isinstance(raw["backend"], dict):
        if "api_key" in raw["backend"]:
            errors.append(
                "backend.api_key: secrets never live in config files; set "
                "backend.api_key_env to the name of an environment variable")
            raw["backend"].pop("api_key")

    config = PipelineConfig()
    for key, value in raw.items():
        if key in ("seed", "workdir"):
            setattr(config, key, value)
        elif key in _SECTIONS:
            setattr(config, key, _build(_SECTIONS[key], value, errors, key))
        else:
            errors.append(f"{key}: unknown section")
    errors.extend(validate(config))
    if errors:
        raise ConfigError(errors)
    return config


def validate(config: PipelineConfig) -> List[str]:
    """Range and consistency checks. Returns problems, empty when clean."""
    e: List[str] = []

    def check(condition, message: str):
        # Conditions are thunks so a wrong-typed value (string where a
        # number belongs) reads as a failed check, not a crash.
        try:
            ok = condition()
        except TypeError:
            ok = False
        if not ok:
            e.append(message)

    check(lambda: isinstance(config.seed, int)
          and not isinstance(config.seed, bool),
          "seed: must be an integer")
    check(lambda: bool(config.workdir), "workdir: must be nonempty")

    r = config.retrieval
    check(lambda: r.dimension >= 1, "retrieval.dimension: must be >= 1")
    check(lambda: r.projection_dim is None
          or 1 <= r.projection_dim <= r.dimension,
          "retrieval.projection_dim: must be in [1, dimension]")
    check(lambda: r.lr > 0, "retrieval.lr: must be positive")
    check(lambda: r.steps >= 0, "retrieval.steps: must be >= 0")
    check(lambda: r.batch_size >= 2, "retrieval.batch_size: must be >= 2")
    check(lambda: r.side in ("nl", "fl"),
          "retrieval.side: must be 'nl' or 'fl'")

    b = config.backend
    check(lambda: b.kind in ("mock", "chat"),
          "backend.kind: must be 'mock' or 'chat'")
    if b.kind == "chat":
        check(lambda: bool(b.endpoint),
              "backend.endpoint: required for chat backends")
        check(lambda: bool(b.model),
              "backend.model: required for chat backends")
    check(lambda: b.timeout > 0, "backend.timeout: must be positive")
    check(lambda: isinstance(b.max_in_flight, int) and b.max_in_flight >= 1,
          "backend.max_in_flight: must be an integer >= 1")
    check(lambda: b.temperature >= 0, "backend.temperature: must be >= 0")
    check(lambda: b.max_new_tokens >= 1,
          "backend.max_new_tokens: must be >= 1")
    check(lambda: b.retry.max_attempts >= 1,
          "backend.retry.max_attempts: must be >= 1")
    check(lambda: b.retry.base_delay > 0,
          "backend.retry.base_delay: must be positive")
    check(lambda: b.retry.max_delay >= b.retry.base_delay,
          "backend.retry.max_delay: must be >= base_delay")
    check(lambda: b.retry.wall_clock_ceiling > 0,
          "backend.retry.wall_clock_ceiling: must be positive")
    for cap_name in ("max_requests", "max_tokens"):
        cap = getattr(b.budget, cap_name)
        check(lambda cap=cap: cap is None or cap >= 1,
              f"backend.budget.{cap_name}: must be >= 1 when set")

    i = config.informalize
    check(lambda: i.max_attempts >= 1, "informalize.max_attempts: must be >= 1")
    check(lambda: i.k_examples >= 0, "informalize.k_examples: must be >= 0")
    check(lambda: i.max_tokens >= 1, "informalize.max_tokens: must be >= 1")
    check(lambda: i.repetition_ngram >= 1,
          "informalize.repetition_ngram: must be >= 1")
    check(lambda: 0 < i.repetition_ratio_max <= 1,
          "informalize.repetition_ratio_max: must be in (0, 1]")

    check(lambda: config.bootstrap.mode in ("interleaved", "head"),
          "bootstrap.mode: must be 'interleaved' or 'head'")
    check(lambda: config.bootstrap.max_attempts >= 1,
          "bootstrap.max_attempts: must be >= 1")

    p = config.prep
    check(lambda: p.token_budget >= 1, "prep.token_budget: must be >= 1")
    check(lambda: p.tokenizer in ("whitespace", "vocab"),
          "prep.tokenizer: must be 'whitespace' or 'vocab'")
    if p.tokenizer == "vocab":
        check(lambda: bool(p.vocab),
              "prep.vocab: required for the vocab tokenizer")

    v = config.prover
    check(lambda: v.n_samples >= 1, "prover.n_samples: must be >= 1")
    check(lambda: v.max_rounds >= 1, "prover.max_rounds: must be >= 1")
    check(lambda: 1 <= v.k_min <= v.k_max,
          "prover.k_min/k_max: must satisfy 1 <= k_min <= k_max")
    check(lambda: v.token_budget >= 1, "prover.token_budget: must be >= 1")
    check(lambda: v.max_new_tokens >= 1, "prover.max_new_tokens: must be >= 1")
    check(lambda: v.verifier in ("mock", "external"),
          "prover.verifier: must be 'mock' or 'external'")
    if v.verifier == "external":
        check(lambda: bool(v.command),
              "prover.command: required for external verifier")
    check(lambda: v.timeout_s > 0, "prover.timeout_s: must be positive")
    return e


# --- derived objects -----------------------------------------------------------


def fork_seed(root: int, label: str) -> int:
    """Stage seeds derive from one root so runs are reproducible end to end
    while stages stay statistically independent."""
    digest = hashlib.sha256(f"{root}:{label}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass(frozen=True)
class _ScriptRule:
    """One mock script rule: a prompt that holds ``pattern`` is answered
    with ``response``, or with ``responses`` one per sample in call order."""

    pattern: str
    response: Optional[str] = None
    responses: Optional[Tuple[str, ...]] = None

    def __post_init__(self):
        if (self.response is None) == (self.responses is None):
            raise ValueError("needs one of 'response' and 'responses'")
        if self.responses == ():
            raise ValueError("responses is empty")


def _read_json(path: str):
    try:
        return artifacts.read_json(path)
    except artifacts.ArtifactError as exc:
        raise ConfigError([str(exc)]) from None


def make_backend(settings: BackendSettings):
    if settings.kind == "chat":
        return ChatCompletionBackend(
            endpoint=settings.endpoint,
            model=settings.model,
            api_key_env=settings.api_key_env or None,
            system_prompt=settings.system_prompt,
            timeout=settings.timeout,
            max_in_flight=settings.max_in_flight,
        )
    script: List[Tuple[str, object]] = []
    if settings.script:
        rules = _read_json(settings.script)
        if type(rules) is not list:
            raise ConfigError([f"{settings.script}: rules are not a list"])
        for index, entry in enumerate(rules):
            try:
                rule = artifacts.decode(
                    entry, _ScriptRule, f"{settings.script}: rule {index}")
            except artifacts.ArtifactError as exc:
                raise ConfigError([str(exc)]) from None
            script.append((rule.pattern, rule.responses or rule.response))
    return MockBackend(script=script, default_text=settings.default_text)


def make_retry(settings: RetrySettings, jitter_seed: int = 0) -> RetryPolicy:
    return RetryPolicy(
        max_attempts=settings.max_attempts,
        base_delay=settings.base_delay,
        max_delay=settings.max_delay,
        wall_clock_ceiling=settings.wall_clock_ceiling,
        jitter_seed=jitter_seed,
    )


def make_budget(settings: BudgetSettings) -> Optional[GenerationBudget]:
    if settings.max_requests is None and settings.max_tokens is None:
        return None
    return GenerationBudget(max_requests=settings.max_requests,
                            max_tokens=settings.max_tokens)


def make_tokenizer(settings: PrepSettings):
    if settings.tokenizer == "vocab":
        return VocabTokenizer.from_file(settings.vocab)
    return WhitespaceTokenizer()


def make_verifier(settings: ProverSettings):
    if settings.verifier == "external":
        return ExternalVerifier(settings.command, timeout_s=settings.timeout_s)
    key = {}
    if settings.answer_key:
        key = _read_json(settings.answer_key)
        if type(key) is not dict:
            raise ConfigError(
                [f"{settings.answer_key}: not an object of name -> proof"])
        for name, proof in key.items():
            if type(proof) is not str:
                raise ConfigError(
                    [f"{settings.answer_key}: proof of {name!r} is not a string"])
    return MockVerifier(key)
