"""Natural-language statement+proof generation for Lean4 theorems.

Each theorem is informalized with retrieved in-context examples, the reply
is quality-checked (length, repetition, required sections), and failures are
re-queried up to a retry limit.  Failed records stay in the dataset with a
fail verdict so corpus accounting is exact.  Long runs checkpoint after
every record and can resume; a checkpoint that does not match the input is
refused unless a restart is requested.
"""

from __future__ import annotations

import contextlib
import logging
import os
from collections import Counter
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from . import artifacts, genclient, retrieval
from .corpus import TheoremRecord
from .genclient import (
    FL_PROOF_SECTION,
    NL_SECTION,
    GenerationRequest,
    informalization_template,
    render_prompt,
)
from .trainprep import WhitespaceTokenizer

logger = logging.getLogger(__name__)

OVERLENGTH = "OVERLENGTH"
REPETITION = "REPETITION"
MISSING_SECTION = "MISSING_SECTION"
BACKEND_ERROR = "BACKEND_ERROR"


class CheckpointCorrupt(RuntimeError):
    """The checkpoint cannot be reconciled with the requested run."""


@dataclass(frozen=True)
class QualityLimits:
    max_tokens: int = 2048
    repetition_ngram: int = 4
    repetition_ratio_max: float = 0.3
    required_sections: Tuple[str, ...] = ("Statement:", "Proof:")

    def __post_init__(self):
        if self.max_tokens <= 0 or self.repetition_ngram <= 0:
            raise ValueError("limits must be positive")
        if not 0 < self.repetition_ratio_max <= 1:
            raise ValueError("repetition_ratio_max must be in (0, 1]")


@dataclass(frozen=True)
class QualityVerdict:
    passed: bool
    reasons: Tuple[str, ...]


@dataclass(frozen=True)
class InformalizationResult:
    theorem_name: str
    nl_statement_and_proof: str
    examples_used: Tuple[str, ...]
    attempts: int
    verdict: str  # "pass" or "fail"
    reasons: Tuple[str, ...]  # final attempt's failure codes, empty on pass
    attempt_reasons: Tuple[Tuple[str, ...], ...] = ()


@dataclass(frozen=True)
class ExamplePair:
    """An aligned example: NL text plus the full FL theorem text."""

    name: str
    nl: str
    fl: str


def quality_check(nl_text: str, limits: QualityLimits, tokenizer=None) -> QualityVerdict:
    """Screen a generated NL text against the configured limits.

    Repetition fails only when some n-gram both repeats (count >= 2) and
    dominates (share of all n-grams above the ratio); short texts whose
    n-grams are all distinct never trip it.
    """
    tok = tokenizer or WhitespaceTokenizer()
    reasons = []
    if tok.count(nl_text) > limits.max_tokens:
        reasons.append(OVERLENGTH)
    tokens = tok.tokens(nl_text) if hasattr(tok, "tokens") else nl_text.split()
    n = limits.repetition_ngram
    grams = [tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1)]
    if grams:
        top = Counter(grams).most_common(1)[0][1]
        if top >= 2 and top / len(grams) > limits.repetition_ratio_max:
            reasons.append(REPETITION)
    for marker in limits.required_sections:
        if marker not in nl_text:
            reasons.append(MISSING_SECTION)
            break
    return QualityVerdict(passed=not reasons, reasons=tuple(reasons))


# --- example retrieval ---------------------------------------------------------


def build_example_index(
    pool: Sequence[ExamplePair],
    embedder,
    head: retrieval.ProjectionHead,
    side: str = "nl",
) -> retrieval.SimilarityIndex:
    """Index the pool for retrieval, keyed by example name.

    side="nl" indexes the pool's NL texts (queries cross the language gap
    through the trained head); side="fl" indexes the FL texts directly.
    """
    if side not in ("nl", "fl"):
        raise ValueError(f"unknown index side {side!r}")
    texts = [p.nl if side == "nl" else p.fl for p in pool]
    vectors = embedder.embed(texts)
    return retrieval.build_index(
        [(p.name, v) for p, v in zip(pool, vectors)], head
    )


def select_examples(
    record: TheoremRecord,
    index: retrieval.SimilarityIndex,
    pool: Sequence[ExamplePair],
    k: int,
    embedder,
) -> List[ExamplePair]:
    """The k pool entries most similar to the record's FL statement."""
    by_name = {p.name: p for p in pool}
    query = embedder.embed([record.statement])[0]
    ranked = retrieval.top_k(index, query, k)
    return [by_name[name] for name, _ in ranked]


# --- per-theorem generation -----------------------------------------------------


def format_example(pair: ExamplePair) -> str:
    return f"{FL_PROOF_SECTION}\n{pair.fl}\n\n{NL_SECTION}\n{pair.nl}\n\n"


def informalization_prompt(record: TheoremRecord, examples: Sequence[ExamplePair]) -> str:
    return render_prompt(
        informalization_template(),
        {
            "examples": "".join(format_example(p) for p in examples),
            "fl_statement": record.statement,
            "fl_proof": record.proof,
        },
    )


def informalize_theorem(
    record: TheoremRecord,
    examples: Sequence[ExamplePair],
    backend,
    limits: QualityLimits,
    max_attempts: int = 3,
    tokenizer=None,
    retry: Optional[genclient.RetryPolicy] = None,
    budget: Optional[genclient.GenerationBudget] = None,
    max_new_tokens: int = 2048,
    temperature: float = 0.7,
) -> InformalizationResult:
    """Generate and screen the NL text, re-querying on quality failures.

    Backend failures are recorded as BACKEND_ERROR attempts rather than
    raised, so one dead record cannot stop a corpus run.
    """
    if max_attempts < 1:
        raise ValueError("max_attempts must be >= 1")
    prompt = informalization_prompt(record, examples)
    example_names = tuple(p.name for p in examples)
    attempt_reasons: List[Tuple[str, ...]] = []
    text = ""
    for attempt in range(1, max_attempts + 1):
        try:
            response = genclient.complete(
                GenerationRequest(
                    prompt=prompt,
                    max_new_tokens=max_new_tokens,
                    temperature=temperature,
                    request_id=f"informalize:{record.name}:{attempt}",
                ),
                backend,
                retry=retry,
                budget=budget,
            )
        except genclient.GenClientError as exc:
            logger.warning("informalize %s attempt %d: %s", record.name, attempt, exc)
            attempt_reasons.append((BACKEND_ERROR,))
            if isinstance(exc, genclient.BudgetExceeded):
                break
            continue
        text = response.samples[0]
        verdict = quality_check(text, limits, tokenizer)
        reasons = verdict.reasons
        if response.truncated[0] and OVERLENGTH not in reasons:
            reasons = (OVERLENGTH,) + reasons
        attempt_reasons.append(reasons)
        if not reasons:
            return InformalizationResult(
                theorem_name=record.name,
                nl_statement_and_proof=text,
                examples_used=example_names,
                attempts=attempt,
                verdict="pass",
                reasons=(),
                attempt_reasons=tuple(attempt_reasons),
            )
    return InformalizationResult(
        theorem_name=record.name,
        nl_statement_and_proof=text,
        examples_used=example_names,
        attempts=len(attempt_reasons),
        verdict="fail",
        reasons=attempt_reasons[-1] if attempt_reasons else (),
        attempt_reasons=tuple(attempt_reasons),
    )


# --- corpus orchestration --------------------------------------------------------


@dataclass
class InformalizeConfig:
    backend: object
    limits: QualityLimits = field(default_factory=QualityLimits)
    max_attempts: int = 3
    k_examples: int = 3
    pool: Sequence[ExamplePair] = ()
    index: Optional[retrieval.SimilarityIndex] = None
    embedder: object = None
    tokenizer: object = None
    checkpoint_path: Optional[str] = None
    restart: bool = False
    retry: Optional[genclient.RetryPolicy] = None
    budget: Optional[genclient.GenerationBudget] = None
    max_new_tokens: int = 2048
    temperature: float = 0.7


def _result_to_entry(result: InformalizationResult) -> dict:
    return {
        "theorem_name": result.theorem_name,
        "nl_statement_and_proof": result.nl_statement_and_proof,
        "examples_used": list(result.examples_used),
        "attempts": result.attempts,
        "verdict": result.verdict,
        "reasons": list(result.reasons),
        "attempt_reasons": [list(r) for r in result.attempt_reasons],
    }


def _result_from_entry(raw: dict) -> InformalizationResult:
    return InformalizationResult(
        theorem_name=raw["theorem_name"],
        nl_statement_and_proof=raw["nl_statement_and_proof"],
        examples_used=tuple(raw["examples_used"]),
        attempts=raw["attempts"],
        verdict=raw["verdict"],
        reasons=tuple(raw["reasons"]),
        attempt_reasons=tuple(tuple(r) for r in raw["attempt_reasons"]),
    )


def load_checkpoint(path: str) -> List[InformalizationResult]:
    """The checkpointed results, after dropping a torn final line.

    The torn line is cut from the file, so the resumed run regenerates its
    record and appends after the last whole entry.
    """
    try:
        lines = artifacts.resume_jsonl(path)
    except artifacts.ArtifactError as exc:
        raise CheckpointCorrupt(
            f"{exc}; pass restart to discard the checkpoint") from exc
    results = []
    for line in lines:
        try:
            results.append(_result_from_entry(line.entry))
        except (ValueError, KeyError, TypeError) as exc:
            raise CheckpointCorrupt(
                f"{path}:{line.lineno}: unreadable checkpoint entry ({exc}); "
                "pass restart to discard the checkpoint"
            ) from exc
    return results


def _validate_resume(
    done: Sequence[InformalizationResult],
    records: Sequence[TheoremRecord],
    config: InformalizeConfig,
) -> None:
    if len(done) > len(records):
        raise CheckpointCorrupt(
            f"checkpoint has {len(done)} entries for {len(records)} records; "
            "pass restart to discard the checkpoint"
        )
    for i, (result, record) in enumerate(zip(done, records)):
        if result.theorem_name != record.name:
            raise CheckpointCorrupt(
                f"checkpoint entry {i} is {result.theorem_name!r} but input "
                f"record {i} is {record.name!r}; pass restart to discard"
            )
        if result.verdict == "pass":
            verdict = quality_check(
                result.nl_statement_and_proof, config.limits, config.tokenizer
            )
            if not verdict.passed:
                raise CheckpointCorrupt(
                    f"checkpoint pass entry {result.theorem_name!r} violates "
                    f"current limits ({', '.join(verdict.reasons)}); "
                    "pass restart to regenerate"
                )


def informalize_corpus(
    records: Sequence[TheoremRecord], config: InformalizeConfig
) -> List[InformalizationResult]:
    """One result per record, in input order, checkpointed after each."""
    done: List[InformalizationResult] = []
    if config.checkpoint_path and os.path.exists(config.checkpoint_path):
        if config.restart:
            os.remove(config.checkpoint_path)
        else:
            done = load_checkpoint(config.checkpoint_path)
            _validate_resume(done, records, config)
            if done:
                logger.info("resuming after %d checkpointed records", len(done))
    results = list(done)
    checkpoint = (artifacts.appending_jsonl(config.checkpoint_path)
                  if config.checkpoint_path else contextlib.nullcontext())
    with checkpoint as append:
        for record in records[len(done):]:
            examples: Sequence[ExamplePair] = ()
            if config.index is not None and config.pool and config.embedder is not None:
                examples = select_examples(
                    record, config.index, config.pool, config.k_examples, config.embedder
                )
            result = informalize_theorem(
                record,
                examples,
                config.backend,
                config.limits,
                max_attempts=config.max_attempts,
                tokenizer=config.tokenizer,
                retry=config.retry,
                budget=config.budget,
                max_new_tokens=config.max_new_tokens,
                temperature=config.temperature,
            )
            results.append(result)
            if append is not None:
                append(_result_to_entry(result))
    return results


def save_informal_dataset(
    records: Sequence[TheoremRecord],
    results: Sequence[InformalizationResult],
    path: str,
) -> None:
    """Write the NL-FL aligned dataset, one theorem per line.

    Fail-verdict records are retained so the corpus counts add up; the NL
    field carries whatever the last attempt produced.
    """
    by_name = {r.theorem_name: r for r in results}
    kept = [(record, by_name[record.name]) for record in records
            if record.name in by_name]
    artifacts.write_jsonl(path, (
        {
            "Name": record.name,
            "Statement": record.statement,
            "Proof": record.proof,
            "File_path": record.file_path,
            "Commit": record.commit,
            "Generated_informal_statement_and_proof": result.nl_statement_and_proof,
            "verdict": result.verdict,
            "reasons": list(result.reasons),
        }
        for record, result in kept
    ))
