"""Instruction-tuning dataset assembly.

Takes the bootstrapped corpus and emits instruction/target records, sorted
easy-to-hard by tactic count and block-packed: each record's instruction is
prefixed with as many whole predecessor records as fit the context budget,
treating the sorted dataset as a ring; with block packing off a record is
a ring of one and gets no examples.  Instructions are built, counted and
filled by ``leanforge.prompts``, the same functions that build the prover's
prompts, so the model sees one layout in training and testing.

The packed records go to a writer as they are built, so ``prep`` holds one
instruction at a time however many examples each one takes; what it keeps
for the whole run is the dataset, one example block per record and, in
``artifacts.write_jsonl``, each block's escape.
"""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, List, Optional, Sequence, Tuple

from . import artifacts
from .config import PrepSettings
from .prompts import PromptCounter, PromptExceedsBudget, fit_blocks, proof_prompt

logger = logging.getLogger(__name__)


# --- tokenizers ---------------------------------------------------------------


class WhitespaceTokenizer:
    """Splitter on word runs and single punctuation marks.

    No token spans whitespace, so counts add at a whitespace seam:
    count(a+b) == count(a) + count(b) when a ends in whitespace or b starts
    with it. At any other seam two tokens can merge into one (join constant
    J=0: count(a+b) <= count(a) + count(b)).
    """

    _TOKEN = re.compile(r"\w+|[^\w\s]")

    def tokens(self, text: str) -> List[str]:
        return self._TOKEN.findall(text)

    def count(self, text: str) -> int:
        return len(self._TOKEN.findall(text))


class VocabTokenizer:
    """Greedy longest-match against a fixed vocabulary.

    Whitespace separates candidates and costs nothing; characters not
    covered by the vocabulary count one token each. Entries hold no
    whitespace, so no match spans it and counts add at a whitespace seam,
    as for ``WhitespaceTokenizer``. At any other seam a straddling match
    can split (join constant J=1).
    """

    def __init__(self, vocabulary: Iterable[str]):
        self._vocab = {_vocab_entry(v) for v in vocabulary if v}
        self._max_len = max((len(v) for v in self._vocab), default=1)

    @classmethod
    def from_file(cls, path: str) -> "VocabTokenizer":
        """One entry per line; blank lines are skipped."""
        entries = []
        for lineno, line in enumerate(artifacts.read_text(path).split("\n"), 1):
            if not line.strip():
                continue
            try:
                entries.append(_vocab_entry(line))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
        return cls(entries)

    def count(self, text: str) -> int:
        total = 0
        i = 0
        n = len(text)
        while i < n:
            if text[i].isspace():
                i += 1
                continue
            length = min(self._max_len, n - i)
            while length > 1 and text[i : i + length] not in self._vocab:
                length -= 1
            total += 1
            i += length
        return total


def _vocab_entry(entry: str) -> str:
    if any(ch.isspace() for ch in entry):
        raise ValueError(f"vocabulary entry {entry!r} contains whitespace")
    return entry


# --- record shapes ------------------------------------------------------------


@dataclass(frozen=True)
class PackSource:
    """One theorem's texts as used by the packer. target is the proof
    written into the target slot, and the proof shown when the record
    serves as an in-context example."""

    name: str
    nl: Optional[str]
    statement: str
    target: str
    difficulty: int


@dataclass(frozen=True)
class PackedRecord:
    instruction: str
    target: str
    example_count: int
    token_count: int = artifacts.wire(None)
    difficulty: int


# --- curriculum and packing ---------------------------------------------------


def curriculum_sort(records: Sequence) -> List:
    """Stable ascending sort by difficulty; ties keep input order."""
    return sorted(records, key=lambda r: r.difficulty)


def counted_blocks(
    records: Sequence[PackSource], counter: PromptCounter
) -> List[Tuple[str, int]]:
    """Each record's in-context example block with its token count."""
    return [counter.block(record.nl, record.target) for record in records]


def pack_block(
    records: Sequence[PackSource],
    i: int,
    budget: int,
    counter: PromptCounter,
    blocks: Sequence[Tuple[str, int]],
) -> PackedRecord:
    """Fill record i's instruction with whole ring predecessors.

    Predecessors are taken nearest-first (i-1, i-2, ... wrapping to the end
    of the dataset) while they fit, and prepended, so the final instruction
    reads oldest example first and ends with record i's own sections.
    ``blocks[j]`` is record j's block and count from ``counted_blocks``.
    The record's zero-example instruction and its target hold the sections
    of its own block and its statement section (``PromptCounter.statement``),
    and each predecessor adds its block's count (``fit_blocks``), so the
    total is exact without counting the assembled text, or any of the
    record's texts but its statement. Raises ``PromptExceedsBudget`` when
    the record alone is over ``budget``.
    """
    n = len(records)
    record = records[i]
    base = blocks[i][1] + counter.statement(record.statement)
    nearest_first = (blocks[(i - step) % n] for step in range(1, n))
    taken, used = fit_blocks(record.name, base, nearest_first, budget)
    return PackedRecord(
        instruction=proof_prompt(reversed(taken), record.nl, record.statement),
        target=record.target,
        example_count=len(taken),
        token_count=used,
        difficulty=record.difficulty,
    )


def pack_sources(records: Sequence, settings: PrepSettings) -> List[PackSource]:
    """Project bootstrapped dataset records onto the packer's view.

    Each record's ``difficulty`` is its proof's tactic-step count, which
    ``bootstrap.load_obt_dataset`` takes from ``corpus.code_and_steps``, the
    one scan of the proof that also gives the code it re-verifies.
    The target, and so each in-context example, is the commented proof
    under ``use_bootstrapped`` and the plain proof otherwise; the NL text
    is None, so no prompt shows it, under ``use_nl: false``.
    """
    return [
        PackSource(
            name=record.name,
            nl=record.generated_informal_statement_and_proof if settings.use_nl else None,
            statement=record.statement,
            target=record.commented_proof if settings.use_bootstrapped else record.proof,
            difficulty=record.difficulty,
        )
        for record in records
    ]


def emit_training_set(
    records: Sequence, settings: PrepSettings, tokenizer,
    write: Callable[[Iterator[PackedRecord]], None],
) -> List[dict]:
    """Pack the dataset into ``write`` and return a skip report of
    oversized records.

    ``write`` is called once, within this call, with an iterator that packs
    each record as it is taken, so only the record being written holds its
    instruction; it must take every record. Each record is either handed to
    ``write`` or reported as skipped. The ``use_*`` switches of ``settings``
    cover the four ablation arms: NL guidance in instructions, bootstrapped
    targets, block packing and curriculum order. Every record fits
    ``token_budget`` tokens of ``tokenizer``."""
    sources = pack_sources(records, settings)
    if settings.use_curriculum:
        sources = curriculum_sort(sources)
    counter = PromptCounter(tokenizer)
    # each record's block is counted once, whichever rings it serves in, and
    # gives the count of its own instruction too
    blocks = counted_blocks(sources, counter)
    skipped: List[dict] = []

    def packed() -> Iterator[PackedRecord]:
        for i, source in enumerate(sources):
            if settings.use_block:
                ring, ring_blocks, at = sources, blocks, i
            else:  # each record is a ring of one: no examples
                ring, ring_blocks, at = [source], blocks[i : i + 1], 0
            try:
                item = pack_block(ring, at, settings.token_budget, counter, ring_blocks)
            except PromptExceedsBudget as exc:
                logger.warning("skipping %s: %s", source.name, exc)
                skipped.append(
                    {"name": exc.name, "reason": "record-exceeds-budget",
                     "token_count": exc.needed, "budget": exc.budget}
                )
                continue
            yield item

    # the packing runs inside this call, where the traced run counts the
    # tokenizer's work for prep
    write(packed())
    return skipped
