"""Pipeline configuration.

One YAML file configures every stage. String values may reference
environment variables as ``${VAR}``; that is the only way secrets enter the
tool, and the backend section deliberately has no field for a literal API
key, only for the name of the variable holding one. Validation collects
every problem it can find before any stage runs.

Each setting is declared once, as a field of its section. Its type is
checked as the file is read, by the rule that reads every record field
(``artifacts.fit``), and its range in ``validate``; a stage and the runtime
objects built from its section take the values as they are.
"""

import hashlib
import os
import re
import urllib.parse
from dataclasses import dataclass, field, fields, is_dataclass
from typing import Dict, List, Optional, Tuple

import yaml

from . import artifacts


class ConfigError(ValueError):
    """One or more configuration problems; .errors lists them all."""

    def __init__(self, errors: List[str]):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


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
    pairs: str = ""     # training input: JSONL of nl/fl texts
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
    command: Tuple[str, ...] = ()
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


def stage_path(config: PipelineConfig, name: str) -> str:
    """The path of the workdir artifact ``name``."""
    return os.path.join(config.workdir, name)


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


def _build(cls, data, errors: List[str], where: str = ""):
    """``cls`` from the mapping ``data``; an unknown key or a value of the
    wrong type is an error naming its key, and the field keeps its default.
    A value's type is judged by the rule that reads record fields."""
    if not isinstance(data, dict):
        errors.append(f"{where}: expected a mapping, got {type(data).__name__}")
        return cls()
    known = {f.name: f for f in fields(cls)}
    kwargs = {}
    for key, value in data.items():
        name = f"{where}.{key}" if where else key
        field_info = known.get(key)
        if field_info is None:
            errors.append(f"{name}: unknown key")
        elif is_dataclass(field_info.type):
            kwargs[key] = _build(field_info.type, value, errors, name)
        else:
            try:
                kwargs[key] = artifacts.fit(value, field_info.type)
            except artifacts.Mismatch:
                errors.append(f"{name}: must be "
                              f"{artifacts.expected(field_info.type)}, got {value!r}")
    return cls(**kwargs)


def load_config(path: str, overrides: Optional[Dict[str, object]] = None
                ) -> PipelineConfig:
    """Parse, interpolate, and validate a config file. Raises ConfigError
    with every problem found, not just the first.

    ``overrides`` maps ``section.key`` to a value that replaces the file's
    before any check, so a command-line flag is checked by the same rules,
    with the same messages, as the key it overrides."""
    errors: List[str] = []
    try:
        with open(path, "r", encoding="utf-8") as source:
            # libyaml's loader where PyYAML has it: the same SafeConstructor,
            # so the same values, parsed in C
            raw = yaml.load(
                source, Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader)) or {}
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError([f"{path}: cannot read config: {exc}"])
    except yaml.YAMLError as exc:
        raise ConfigError([f"{path}: cannot parse config: {exc}"])
    if not isinstance(raw, dict):
        raise ConfigError([f"{path}: top level must be a mapping"])

    raw = _interpolate(raw, errors, "config")
    for name, value in (overrides or {}).items():
        section, key = name.split(".")
        if isinstance(raw.setdefault(section, {}), dict):
            raw[section][key] = value
    if isinstance(raw.get("backend"), dict) and "api_key" in raw["backend"]:
        errors.append(
            "backend.api_key: secrets never live in config files; set "
            "backend.api_key_env to the name of an environment variable")
        raw["backend"].pop("api_key")

    config = _build(PipelineConfig, raw, errors)
    # a mistyped key keeps its default: its own error stands for it
    named = {error.split(":")[0] for error in errors}
    errors.extend(e for e in validate(config) if e.split(":")[0] not in named)
    if errors:
        raise ConfigError(errors)
    return config


def validate(config: PipelineConfig) -> List[str]:
    """Range and consistency checks, the only ones on a setting. Returns
    problems, empty when clean. Types are checked as the file is read."""
    r, b, i, p, v = (config.retrieval, config.backend, config.informalize,
                     config.prep, config.prover)
    rules = [
        (bool(config.workdir), "workdir: must be nonempty"),
        (r.dimension >= 1, "retrieval.dimension: must be >= 1"),
        (r.projection_dim is None or 1 <= r.projection_dim <= r.dimension,
         "retrieval.projection_dim: must be in [1, dimension]"),
        (r.lr > 0, "retrieval.lr: must be positive"),
        (r.steps >= 0, "retrieval.steps: must be >= 0"),
        (r.batch_size >= 2, "retrieval.batch_size: must be >= 2"),
        (r.side in ("nl", "fl"), "retrieval.side: must be 'nl' or 'fl'"),
        (b.kind in ("mock", "chat"), "backend.kind: must be 'mock' or 'chat'"),
        (b.kind != "chat" or bool(b.endpoint),
         "backend.endpoint: required for chat backends"),
        (b.kind != "chat" or not b.endpoint or _http_url(b.endpoint),
         "backend.endpoint: must be an http:// or https:// URL with a host"),
        (b.kind != "chat" or bool(b.model),
         "backend.model: required for chat backends"),
        (b.timeout > 0, "backend.timeout: must be positive"),
        (b.max_in_flight >= 1, "backend.max_in_flight: must be >= 1"),
        (b.temperature >= 0, "backend.temperature: must be >= 0"),
        (b.max_new_tokens >= 1, "backend.max_new_tokens: must be >= 1"),
        (b.retry.max_attempts >= 1, "backend.retry.max_attempts: must be >= 1"),
        (b.retry.base_delay > 0, "backend.retry.base_delay: must be positive"),
        (b.retry.max_delay >= b.retry.base_delay,
         "backend.retry.max_delay: must be >= base_delay"),
        (b.retry.wall_clock_ceiling > 0,
         "backend.retry.wall_clock_ceiling: must be positive"),
        (b.budget.max_requests is None or b.budget.max_requests >= 1,
         "backend.budget.max_requests: must be >= 1 when set"),
        (b.budget.max_tokens is None or b.budget.max_tokens >= 1,
         "backend.budget.max_tokens: must be >= 1 when set"),
        (i.max_attempts >= 1, "informalize.max_attempts: must be >= 1"),
        (i.k_examples >= 0, "informalize.k_examples: must be >= 0"),
        (i.max_tokens >= 1, "informalize.max_tokens: must be >= 1"),
        (i.repetition_ngram >= 1, "informalize.repetition_ngram: must be >= 1"),
        (0 < i.repetition_ratio_max <= 1,
         "informalize.repetition_ratio_max: must be in (0, 1]"),
        (config.bootstrap.mode in ("interleaved", "head"),
         "bootstrap.mode: must be 'interleaved' or 'head'"),
        (config.bootstrap.max_attempts >= 1,
         "bootstrap.max_attempts: must be >= 1"),
        (p.token_budget >= 1, "prep.token_budget: must be >= 1"),
        (p.tokenizer in ("whitespace", "vocab"),
         "prep.tokenizer: must be 'whitespace' or 'vocab'"),
        (p.tokenizer != "vocab" or bool(p.vocab),
         "prep.vocab: required for the vocab tokenizer"),
        (v.n_samples >= 1, "prover.n_samples: must be >= 1"),
        (v.max_rounds >= 1, "prover.max_rounds: must be >= 1"),
        (1 <= v.k_min <= v.k_max,
         "prover.k_min/k_max: must satisfy 1 <= k_min <= k_max"),
        (v.token_budget >= 1, "prover.token_budget: must be >= 1"),
        (v.max_new_tokens >= 1, "prover.max_new_tokens: must be >= 1"),
        (v.verifier in ("mock", "external"),
         "prover.verifier: must be 'mock' or 'external'"),
        (v.verifier != "external" or bool(v.command),
         "prover.command: required for external verifier"),
        (v.timeout_s > 0, "prover.timeout_s: must be positive"),
    ]
    return [message for ok, message in rules if not ok]


def _http_url(text: str) -> bool:
    """Whether ``text`` is an http:// or https:// URL with a host, and a
    port that reads as one if it names any."""
    try:
        url = urllib.parse.urlsplit(text)
        url.port
    except ValueError:
        return False
    return url.scheme in ("http", "https") and bool(url.hostname)


def fork_seed(root: int, label: str) -> int:
    """Stage seeds derive from one root so runs are reproducible end to end
    while stages stay statistically independent."""
    digest = hashlib.sha256(f"{root}:{label}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")
