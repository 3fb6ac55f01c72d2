"""Instruction-tuning dataset assembly.

Takes the bootstrapped corpus and emits instruction/target records, sorted
easy-to-hard by tactic count and block-packed: each record's instruction is
prefixed with as many whole predecessor records as fit the context budget,
treating the sorted dataset as a ring.  The in-context example format uses
the same section markers as the inference prompts so the model sees one
distribution in training and testing.
"""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

from . import artifacts
from .corpus import count_tactic_steps
from .genclient import FL_PROOF_SECTION, FL_STATEMENT_SECTION, NL_SECTION

logger = logging.getLogger(__name__)


class RecordExceedsBudget(ValueError):
    def __init__(self, name: str, needed: int, budget: int):
        super().__init__(
            f"record {name!r} needs {needed} tokens on its own, budget is {budget}"
        )
        self.name = name
        self.needed = needed
        self.budget = budget


# --- tokenizers ---------------------------------------------------------------


class WhitespaceTokenizer:
    """Splitter on word runs and single punctuation marks.

    Join constant J=0: concatenating two texts can only merge tokens at the
    seam, never create extra ones, so count(a+b) <= count(a) + count(b).
    """

    name = "whitespace"
    _TOKEN = re.compile(r"\w+|[^\w\s]")

    def tokens(self, text: str) -> List[str]:
        return self._TOKEN.findall(text)

    def count(self, text: str) -> int:
        return len(self._TOKEN.findall(text))


class VocabTokenizer:
    """Greedy longest-match against a fixed vocabulary.

    Whitespace separates candidates and costs nothing; characters not
    covered by the vocabulary count one token each.  Join constant J=1: a
    seam can split at most one straddling match.
    """

    def __init__(self, vocabulary: Iterable[str], name: str = "vocab"):
        self.name = name
        self._vocab = {v for v in vocabulary if v and not v.isspace()}
        self._max_len = max((len(v) for v in self._vocab), default=1)

    @classmethod
    def from_file(cls, path: str, name: str = "vocab") -> "VocabTokenizer":
        with open(path, "r", encoding="utf-8") as f:
            return cls((line.rstrip("\n") for line in f if line.strip()), name=name)

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


# --- record shapes ------------------------------------------------------------


@dataclass(frozen=True)
class PackSource:
    """One theorem's texts as used by the packer.

    target is the proof written into the target slot; example_fl is the
    proof text shown when this record serves as an in-context example (the
    two differ only when example bootstrapping is toggled separately).
    """

    name: str
    nl: str
    statement: str
    target: str
    example_fl: str
    difficulty: int


@dataclass(frozen=True)
class InstructionRecord:
    instruction: str
    target: str
    source_name: str
    difficulty: int


@dataclass(frozen=True)
class PackedRecord:
    instruction: str
    target: str
    example_count: int
    token_count: int
    source_name: str
    difficulty: int


def example_block(nl: str, fl: str, use_nl: bool = True) -> str:
    parts = []
    if use_nl:
        parts += [NL_SECTION, "\n", nl, "\n\n"]
    parts += [FL_PROOF_SECTION, "\n", fl, "\n\n"]
    return "".join(parts)


def instruction_cap(nl: str, statement: str, use_nl: bool = True) -> str:
    """The record's own contribution: its sections up to the open proof slot."""
    parts = []
    if use_nl:
        parts += [NL_SECTION, "\n", nl, "\n\n"]
    parts += [FL_STATEMENT_SECTION, "\n", statement, "\n\n", FL_PROOF_SECTION, "\n"]
    return "".join(parts)


def base_instruction(source: PackSource, use_nl: bool = True) -> InstructionRecord:
    return InstructionRecord(
        instruction=instruction_cap(source.nl, source.statement, use_nl),
        target=source.target,
        source_name=source.name,
        difficulty=source.difficulty,
    )


# --- curriculum and packing ---------------------------------------------------


def curriculum_sort(records: Sequence) -> List:
    """Stable ascending sort by difficulty; ties keep input order."""
    return sorted(records, key=lambda r: r.difficulty)


def pack_block(
    records: Sequence[PackSource],
    i: int,
    budget: int,
    tokenizer,
    use_nl: bool = True,
) -> PackedRecord:
    """Fill record i's instruction with whole ring predecessors.

    Predecessors are taken nearest-first (i-1, i-2, ... wrapping to the end
    of the dataset) and prepended, so the final instruction reads oldest
    example first and ends with record i's own sections.  Token totals are
    recounted on the assembled text at every step: concatenation can merge
    tokens at seams, so running sums would drift.
    """
    n = len(records)
    record = records[i]
    cap = instruction_cap(record.nl, record.statement, use_nl)
    target_tokens = tokenizer.count(record.target)

    def assemble(k: int) -> Tuple[str, int]:
        blocks = [
            example_block(
                records[(i - step) % n].nl,
                records[(i - step) % n].example_fl,
                use_nl,
            )
            for step in range(k, 0, -1)
        ]
        instruction = "".join(blocks) + cap
        return instruction, tokenizer.count(instruction) + target_tokens

    instruction, used = assemble(0)
    if used > budget:
        raise RecordExceedsBudget(record.name, used, budget)
    k = 0
    while k < n - 1:
        next_instruction, next_used = assemble(k + 1)
        if next_used > budget:
            break
        k += 1
        instruction, used = next_instruction, next_used
    return PackedRecord(
        instruction=instruction,
        target=record.target,
        example_count=k,
        token_count=used,
        source_name=record.name,
        difficulty=record.difficulty,
    )


@dataclass
class PrepConfig:
    """Switches cover the four ablation arms: NL guidance in instructions,
    bootstrapped targets, block packing, curriculum order."""

    context_budget: int
    tokenizer: object
    use_nl: bool = True
    use_bootstrapped: bool = True
    use_block: bool = True
    use_curriculum: bool = True
    # None: in-context examples show the same proof text as targets
    examples_use_bootstrapped: Optional[bool] = None


def pack_sources(records: Sequence, config: PrepConfig) -> List[PackSource]:
    """Project bootstrapped dataset records onto the packer's view."""
    example_boot = (
        config.use_bootstrapped
        if config.examples_use_bootstrapped is None
        else config.examples_use_bootstrapped
    )
    sources = []
    for record in records:
        target = record.commented_proof if config.use_bootstrapped else record.proof
        example_fl = record.commented_proof if example_boot else record.proof
        sources.append(
            PackSource(
                name=record.name,
                nl=record.generated_informal_statement_and_proof,
                statement=record.statement,
                target=target,
                example_fl=example_fl,
                difficulty=count_tactic_steps(record.proof),
            )
        )
    return sources


def emit_training_set(
    records: Sequence, config: PrepConfig
) -> Tuple[List[PackedRecord], List[dict]]:
    """Produce the packed dataset plus a skip report of oversized records."""
    sources = pack_sources(records, config)
    if config.use_curriculum:
        sources = curriculum_sort(sources)
    packed: List[PackedRecord] = []
    skipped: List[dict] = []
    for i, source in enumerate(sources):
        try:
            if config.use_block:
                item = pack_block(
                    sources, i, config.context_budget, config.tokenizer, config.use_nl
                )
            else:
                base = base_instruction(source, config.use_nl)
                used = config.tokenizer.count(base.instruction) + config.tokenizer.count(
                    base.target
                )
                if used > config.context_budget:
                    raise RecordExceedsBudget(source.name, used, config.context_budget)
                item = PackedRecord(
                    instruction=base.instruction,
                    target=base.target,
                    example_count=0,
                    token_count=used,
                    source_name=source.name,
                    difficulty=source.difficulty,
                )
        except RecordExceedsBudget as exc:
            logger.warning("skipping %s: %s", source.name, exc)
            skipped.append(
                {"name": exc.name, "reason": "record-exceeds-budget",
                 "token_count": exc.needed, "budget": exc.budget}
            )
            continue
        packed.append(item)
    return packed, skipped


def save_training_set(packed: Sequence[PackedRecord], path: str) -> None:
    artifacts.write_jsonl(path, (
        {
            "instruction": record.instruction,
            "target": record.target,
            "example_count": record.example_count,
            "difficulty": record.difficulty,
        }
        for record in packed
    ))


def save_skip_report(skipped: Sequence[dict], path: str) -> None:
    artifacts.write_jsonl(path, skipped)
