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
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from . import artifacts, genclient, prompts, retrieval
from .bootstrap import InformalRecord
from .config import InformalizeSettings
from .corpus import TheoremRecord
from .prover import PoolExample
from .trainprep import WhitespaceTokenizer

logger = logging.getLogger(__name__)

OVERLENGTH = "OVERLENGTH"
REPETITION = "REPETITION"
MISSING_SECTION = "MISSING_SECTION"
BACKEND_ERROR = "BACKEND_ERROR"

REQUIRED_SECTIONS = ("Statement:", "Proof:")


class CheckpointCorrupt(RuntimeError):
    """The checkpoint cannot be reconciled with the requested run."""


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
    attempt_reasons: Tuple[Tuple[str, ...], ...]


def quality_check(nl_text: str, settings: InformalizeSettings) -> QualityVerdict:
    """Screen a generated NL text against the limits in ``settings``
    (``max_tokens``, ``repetition_ngram``, ``repetition_ratio_max``) and
    for ``REQUIRED_SECTIONS``.

    Length and repetition are measured in ``WhitespaceTokenizer`` tokens.
    Repetition fails only when some n-gram both repeats (count >= 2) and
    dominates (share of all n-grams above the ratio); short texts whose
    n-grams are all distinct never trip it.
    """
    tok = WhitespaceTokenizer()
    reasons = []
    if tok.count(nl_text) > settings.max_tokens:
        reasons.append(OVERLENGTH)
    tokens = tok.tokens(nl_text)
    n = settings.repetition_ngram
    grams = [tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1)]
    if grams:
        top = Counter(grams).most_common(1)[0][1]
        if top >= 2 and top / len(grams) > settings.repetition_ratio_max:
            reasons.append(REPETITION)
    for marker in REQUIRED_SECTIONS:
        if marker not in nl_text:
            reasons.append(MISSING_SECTION)
            break
    return QualityVerdict(passed=not reasons, reasons=tuple(reasons))


# --- example retrieval ---------------------------------------------------------


def build_example_index(
    pool: Sequence[PoolExample],
    embedder,
    head: retrieval.ProjectionHead,
    side: str = "nl",
) -> retrieval.SimilarityIndex:
    """Index the pool for retrieval. An entry's id is its (name, position)
    in the pool: similarity ties rank by name, and entries that share a
    name stay apart.

    side="nl" indexes the pool's NL texts (queries cross the language gap
    through the trained head); side="fl" indexes the FL texts directly.
    """
    texts = [p.nl if side == "nl" else p.fl for p in pool]
    vectors = embedder.embed(texts)
    return retrieval.build_index(
        [((p.name, i), v) for i, (p, v) in enumerate(zip(pool, vectors))], head
    )


def select_examples(
    record: TheoremRecord,
    index: retrieval.SimilarityIndex,
    pool: Sequence[PoolExample],
    k: int,
    embedder,
) -> List[PoolExample]:
    """The k pool entries most similar to the record's FL statement;
    ``index`` is ``build_example_index`` over the same pool."""
    query = embedder.embed([record.statement])[0]
    ranked = retrieval.top_k(index, query, k)
    return [pool[position] for (_, position), _ in ranked]


# --- per-theorem generation -----------------------------------------------------


def informalize_theorem(
    record: TheoremRecord,
    examples: Sequence[PoolExample],
    ask: genclient.Ask,
    settings: InformalizeSettings,
) -> InformalizationResult:
    """Generate and screen the NL text, re-querying on quality failures up
    to ``settings.max_attempts`` attempts.

    ``ask`` sends the record's prompt, built with ``examples``. Backend
    failures are recorded as BACKEND_ERROR attempts rather than raised, so
    one dead record cannot stop a corpus run.
    """
    max_attempts = settings.max_attempts
    example_names = tuple(p.name for p in examples)
    attempt_reasons: List[Tuple[str, ...]] = []
    text = ""
    for attempt in range(1, max_attempts + 1):
        try:
            response = ask(f"informalize:{record.name}:{attempt}")
        except genclient.GenClientError as exc:
            logger.warning("informalize %s attempt %d: %s", record.name, attempt, exc)
            attempt_reasons.append((BACKEND_ERROR,))
            if isinstance(exc, genclient.BudgetExceeded):
                break
            continue
        text = response.samples[0]
        verdict = quality_check(text, settings)
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


def load_checkpoint(path: str) -> List[InformalizationResult]:
    """The checkpointed results, after dropping a torn final line.

    The torn line is cut from the file, so the resumed run regenerates its
    record and appends after the last whole entry.
    """
    try:
        return [artifacts.as_record(path, line, InformalizationResult)
                for line in artifacts.resume_jsonl(path)]
    except artifacts.ArtifactError as exc:
        raise CheckpointCorrupt(
            f"{exc}; pass restart to discard the checkpoint") from exc


def _validate_resume(
    done: Sequence[InformalizationResult],
    records: Sequence[TheoremRecord],
    settings: InformalizeSettings,
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
            verdict = quality_check(result.nl_statement_and_proof, settings)
            if not verdict.passed:
                raise CheckpointCorrupt(
                    f"checkpoint pass entry {result.theorem_name!r} violates "
                    f"current limits ({', '.join(verdict.reasons)}); "
                    "pass restart to regenerate"
                )


def informalize_corpus(
    records: Sequence[TheoremRecord],
    sampler: genclient.Sampler,
    settings: InformalizeSettings,
    pool: Sequence[PoolExample] = (),
    index: Optional[retrieval.SimilarityIndex] = None,
    embedder=None,
    checkpoint_path: Optional[str] = None,
    restart: bool = False,
) -> List[InformalizationResult]:
    """One result per record, in input order, checkpointed after each.

    With an ``index`` (``build_example_index`` over ``pool`` with
    ``embedder``), each prompt shows the record's ``k_examples`` nearest
    pool entries. A checkpoint at ``checkpoint_path`` is resumed, or
    discarded with ``restart``.

    Records go through ``genclient.in_order``: up to the backend's
    ``concurrency`` are in flight, each a whole ``informalize_theorem``
    call. With a budget, a record reserves ``max_attempts`` requests of
    the prompt it sends, examples included. Results, and checkpoint lines,
    come in record order, so a crash leaves a checkpoint that is a prefix
    of the records.
    """
    done: List[InformalizationResult] = []
    if checkpoint_path and os.path.exists(checkpoint_path):
        if restart:
            os.remove(checkpoint_path)
        else:
            done = load_checkpoint(checkpoint_path)
            _validate_resume(done, records, settings)
            if done:
                logger.info("resuming after %d checkpointed records", len(done))

    def units():
        for record in records[len(done):]:
            examples: Sequence[PoolExample] = ()
            if index is not None:
                examples = select_examples(
                    record, index, pool, settings.k_examples, embedder)
            yield (record, examples), prompts.informalization_prompt(
                examples, record.statement, record.proof)

    def work(item, ask):
        record, examples = item
        return informalize_theorem(record, examples, ask, settings)

    results = list(done)
    checkpoint = (artifacts.appending_jsonl(checkpoint_path)
                  if checkpoint_path else contextlib.nullcontext())
    with checkpoint as append, contextlib.closing(genclient.in_order(
            units(), work, sampler, settings.max_attempts)) as finished:
        for _, result in finished:
            results.append(result)
            if append is not None:
                append(result)
    return results


def save_informal_dataset(
    records: Sequence[TheoremRecord],
    results: Sequence[InformalizationResult],
    path: str,
) -> None:
    """Write the NL-FL aligned dataset, one line per record, in record order.

    ``results[i]`` is the result for ``records[i]``; names need not be
    unique. Fail-verdict records are retained so the corpus counts add up;
    the NL field carries whatever the last attempt produced.
    """
    artifacts.write_jsonl(path, (
        InformalRecord(record.name, record.statement, record.proof, record.file_path,
                       record.commit, result.nl_statement_and_proof, result.verdict,
                       result.reasons)
        for record, result in zip(records, results, strict=True)
    ))
