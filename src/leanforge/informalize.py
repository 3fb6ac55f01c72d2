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

import numpy as np

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


_DISCARD = "run without --resume to discard the checkpoint"


@dataclass(frozen=True)
class InformalizationResult:
    theorem_name: str
    nl_statement_and_proof: str
    examples_used: Tuple[str, ...]
    attempts: int
    verdict: str  # "pass" or "fail"
    reasons: Tuple[str, ...]  # final attempt's failure codes, empty on pass
    attempt_reasons: Tuple[Tuple[str, ...], ...]


def quality_check(nl_text: str, settings: InformalizeSettings) -> Tuple[str, ...]:
    """The reasons a generated NL text fails the limits in ``settings``
    (``max_tokens``, ``repetition_ngram``, ``repetition_ratio_max``) and
    ``REQUIRED_SECTIONS``, in that order; empty when it passes.

    Length and repetition are measured in ``WhitespaceTokenizer`` tokens.
    Repetition fails only when some n-gram both repeats (count >= 2) and
    dominates (share of all n-grams above the ratio); short texts whose
    n-grams are all distinct never trip it.
    """
    tokens = WhitespaceTokenizer().tokens(nl_text)
    reasons = []
    if len(tokens) > settings.max_tokens:
        reasons.append(OVERLENGTH)
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
    return tuple(reasons)


# --- example retrieval ---------------------------------------------------------


def build_example_index(
    pool: Sequence[PoolExample],
    embedder,
    head: retrieval.ProjectionHead,
    side: str,
) -> retrieval.SimilarityIndex:
    """Index the pool for retrieval. An entry's id is its (name, position)
    in the pool: similarity ties rank by name, and entries that share a
    name stay apart.

    ``side`` is ``retrieval.side``: "nl" indexes the pool's NL texts
    (queries cross the language gap through the trained head); "fl"
    indexes the FL texts directly.
    """
    texts = [p.nl if side == "nl" else p.fl for p in pool]
    vectors = embedder.embed(texts)
    return retrieval.build_index(
        [((p.name, i), v) for i, (p, v) in enumerate(zip(pool, vectors))], head
    )


def select_examples(
    query: np.ndarray,
    index: retrieval.SimilarityIndex,
    pool: Sequence[PoolExample],
    k: int,
) -> List[PoolExample]:
    """The k pool entries most similar to ``query``, the embedding of a
    record's FL statement; ``index`` is ``build_example_index`` over the
    same pool."""
    ranked = retrieval.top_k(index, query, k)
    return [pool[position] for (_, position), _ in ranked]


# --- per-theorem generation -----------------------------------------------------


def informalize_theorem(
    record: TheoremRecord,
    position: int,
    examples: Sequence[PoolExample],
    ask: genclient.Ask,
    settings: InformalizeSettings,
) -> InformalizationResult:
    """Generate and screen the NL text, re-querying on quality failures up
    to ``settings.max_attempts`` attempts.

    ``ask`` sends the record's prompt, built with ``examples``; each request
    id holds ``position``, the record's index in the corpus, since names
    repeat. Backend failures are recorded as BACKEND_ERROR attempts rather
    than raised, so one dead record cannot stop a corpus run.
    """
    max_attempts = settings.max_attempts
    example_names = tuple(p.name for p in examples)
    attempt_reasons: List[Tuple[str, ...]] = []
    text = ""
    for attempt in range(1, max_attempts + 1):
        try:
            response = ask(f"informalize:{position}:{record.name}:{attempt}")
        except genclient.GenClientError as exc:
            logger.warning("informalize %s attempt %d: %s", record.name, attempt, exc)
            attempt_reasons.append((BACKEND_ERROR,))
            if isinstance(exc, genclient.BudgetExceeded):
                break
            continue
        text = response.samples[0]
        reasons = quality_check(text, settings)
        if response.truncated[0] and OVERLENGTH not in reasons:
            reasons = (OVERLENGTH,) + reasons
        attempt_reasons.append(reasons)
        if not reasons:
            break
    reasons = attempt_reasons[-1]
    return InformalizationResult(
        theorem_name=record.name,
        nl_statement_and_proof=text,
        examples_used=example_names,
        attempts=len(attempt_reasons),
        verdict="fail" if reasons else "pass",
        reasons=reasons,
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
        raise artifacts.ArtifactError(f"{exc}; {_DISCARD}") from exc


def _validate_resume(
    done: Sequence[InformalizationResult],
    records: Sequence[TheoremRecord],
    settings: InformalizeSettings,
) -> None:
    if len(done) > len(records):
        raise artifacts.ArtifactError(
            f"checkpoint has {len(done)} entries for {len(records)} records; "
            f"{_DISCARD}")
    for i, (result, record) in enumerate(zip(done, records)):
        if result.theorem_name != record.name:
            raise artifacts.ArtifactError(
                f"checkpoint entry {i} is {result.theorem_name!r} but input "
                f"record {i} is {record.name!r}; {_DISCARD}")
        if result.verdict == "pass":
            reasons = quality_check(result.nl_statement_and_proof, settings)
            if reasons:
                raise artifacts.ArtifactError(
                    f"checkpoint pass entry {result.theorem_name!r} violates "
                    f"current limits ({', '.join(reasons)}); {_DISCARD}")


def informalize_corpus(
    records: Sequence[TheoremRecord],
    sampler: genclient.Sampler,
    settings: InformalizeSettings,
    pool: Sequence[PoolExample],
    index: Optional[retrieval.SimilarityIndex],
    embedder,
    checkpoint_path: str,
    restart: bool,
) -> List[InformalizationResult]:
    """One result per record, in input order, checkpointed after each.

    With an ``index`` (``build_example_index`` over ``pool`` with
    ``embedder``), each prompt shows the record's ``k_examples`` nearest
    pool entries; the statements of the records still to run are embedded
    in one ``embed`` call before any is sent. With None for ``index`` no
    prompt shows an example. A checkpoint at ``checkpoint_path`` is
    resumed, or discarded with ``restart``.

    Records go through ``genclient.in_order``: up to the backend's
    ``concurrency`` are in flight (one when the budget has a ceiling),
    each a whole ``informalize_theorem`` call. Results, and checkpoint
    lines, come in record order, so a crash leaves a checkpoint that is a
    prefix of the records.
    """
    done: List[InformalizationResult] = []
    if os.path.exists(checkpoint_path):
        if restart:
            os.remove(checkpoint_path)
        else:
            done = load_checkpoint(checkpoint_path)
            _validate_resume(done, records, settings)
            if done:
                logger.info("resuming after %d checkpointed records", len(done))

    pending = records[len(done):]
    queries = (embedder.embed([record.statement for record in pending])
               if index is not None else [None] * len(pending))

    def units():
        for position, (record, query) in enumerate(zip(pending, queries), len(done)):
            examples: Sequence[PoolExample] = ()
            if index is not None:
                examples = select_examples(query, index, pool, settings.k_examples)
            yield (record, position, examples), prompts.informalization_prompt(
                examples, record.statement, record.proof)

    def work(item, ask):
        return informalize_theorem(*item, ask, settings)

    results = list(done)
    with artifacts.appending_jsonl(checkpoint_path) as append, contextlib.closing(
            genclient.in_order(units(), work, sampler)) as finished:
        for _, result in finished:
            results.append(result)
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
