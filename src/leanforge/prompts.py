"""Every text leanforge sends to a model or writes as a training instruction.

Block training only helps when the prover sees the layout the model was
trained on, so ``prep`` instructions and ``prove`` prompts are built by the
same two functions: ``example_block`` for each in-context example and
``proof_prompt`` for the whole text.  Both stages count those texts with
``PromptCounter`` and fill them with ``fit_blocks``, which raises
``PromptExceedsBudget`` when a prompt does not fit even with no examples.
Informalization and comment bootstrapping have their own prompts, built
from the same section markers. Bound texts are inserted as they are: a
``${x}`` or a section marker inside an NL or FL text is never expanded or
reinterpreted.
"""

from typing import Iterable, List, Optional, Sequence, Tuple

from .artifacts import Joined

NL_SECTION = "### Natural language version of theorem and proof:"
FL_STATEMENT_SECTION = "### Lean4 version of theorem statement:"
FL_PROOF_SECTION = "### Lean4 version of theorem and proof:"
COMMENTED_SECTION = "### Commented Lean4 version of theorem and proof:"

COMMENT_INSTRUCTION = (
    "Document the natural language proof inside the Lean4 proof below by "
    "inserting `--` comment lines next to the steps they explain. Copy the "
    "Lean4 code exactly: do not add, remove, reorder, or rewrite any code."
)


def _shows_nl(nl: Optional[str]) -> bool:
    """Whether a prompt holds an NL section for ``nl``: not for None
    (``prep.use_nl: false``) and not for a blank text."""
    return bool(nl) and not nl.isspace()


def example_block(nl: Optional[str], fl: str) -> str:
    """One in-context example: its NL section (none when ``_shows_nl`` says
    so), then its Lean4 proof. Both texts are stripped, so an example reads
    the same whatever whitespace its source carried."""
    head = f"{NL_SECTION}\n{nl.strip()}\n\n" if _shows_nl(nl) else ""
    return f"{head}{FL_PROOF_SECTION}\n{fl.strip()}\n\n"


def proof_prompt(blocks: Iterable[str], nl: Optional[str], statement: str) -> Joined:
    """The proving prompt, which is also the training instruction: the
    example blocks in order, then the open record's NL (none when
    ``_shows_nl`` says so), statement and an empty proof section. The
    record's own texts are kept as they are.

    The text is ``Joined`` from the block objects and the record's own
    sections, so ``write_jsonl`` escapes a block that many instructions
    share once."""
    head = f"{NL_SECTION}\n{nl}\n\n" if _shows_nl(nl) else ""
    return Joined((
        *blocks,
        f"{head}{FL_STATEMENT_SECTION}\n{statement}\n\n{FL_PROOF_SECTION}\n",
    ))


class PromptExceedsBudget(ValueError):
    """Even the zero-example prompt is larger than the token budget."""

    def __init__(self, name: str, needed: int, budget: int):
        super().__init__(
            f"{name!r} needs {needed} tokens with no examples, budget is {budget}")
        self.name = name
        self.needed = needed
        self.budget = budget


class PromptCounter:
    """Token counts of the texts that ``example_block`` and ``proof_prompt``
    build, summed from the counts of their parts.

    Every seam in those texts, between a section header and its text or
    between two sections, is whitespace, and counts add at a whitespace
    seam for both tokenizers; stripping a text removes only whitespace,
    which no token holds. So a prompt's count is the sum of its section
    headers' counts, each counted here once, and the counts of its texts,
    and no assembled text is counted.
    """

    def __init__(self, tokenizer):
        self.count = tokenizer.count
        self._nl, self._statement, self._proof = (
            tokenizer.count(header)
            for header in (NL_SECTION, FL_STATEMENT_SECTION, FL_PROOF_SECTION))

    def _nl_section(self, nl: Optional[str]) -> int:
        """The count of ``nl``'s section; 0 when the prompt holds none."""
        return self._nl + self.count(nl) if _shows_nl(nl) else 0

    def block(self, nl: Optional[str], fl: str) -> Tuple[str, int]:
        """``example_block(nl, fl)`` and its count."""
        return example_block(nl, fl), self._nl_section(nl) + self._proof + self.count(fl)

    def statement(self, statement: str) -> int:
        """The count of ``statement``'s section. A zero-example
        ``proof_prompt`` followed by its proof holds the sections of that
        proof's example block and this one."""
        return self._statement + self.count(statement)

    def prompt(self, nl: Optional[str], statement: str) -> int:
        """The count of ``proof_prompt((), nl, statement)``."""
        return self._nl_section(nl) + self.statement(statement) + self._proof


def fit_blocks(
    name: str, base: int, blocks: Iterable[Tuple[str, int]], budget: int
) -> Tuple[List[str], int]:
    """Take (block, token count) pairs in order while the running total,
    starting at ``base``, stays within ``budget``; stop at the first that
    does not fit. Returns the blocks taken and the total. Raises
    ``PromptExceedsBudget`` for ``name`` when ``base`` alone is over.

    The total is the exact count of the blocks joined and followed by the
    prompt that ``base`` counts: every example block ends in whitespace, and
    counts add at a whitespace seam for both tokenizers.
    """
    if base > budget:
        raise PromptExceedsBudget(name, base, budget)
    taken: List[str] = []
    used = base
    for block, count in blocks:
        if used + count > budget:
            break
        used += count
        taken.append(block)
    return taken, used


def informalization_prompt(examples: Sequence, statement: str, proof: str) -> str:
    """Ask for the NL statement and proof of a Lean4 theorem.

    Each example (anything with ``fl`` and ``nl``) shows a proof and then
    its NL rendering, texts as they are; the theorem's proof already starts
    with its statement, so the proof section holds ``proof`` alone.
    """
    shown = "".join(
        f"{FL_PROOF_SECTION}\n{e.fl}\n\n{NL_SECTION}\n{e.nl}\n\n" for e in examples
    )
    return (
        f"{shown}{FL_STATEMENT_SECTION}\n{statement}\n\n"
        f"{FL_PROOF_SECTION}\n{proof}\n\n{NL_SECTION}\n"
    )


def bootstrap_prompt(nl: str, proof: str) -> str:
    """Ask for ``proof`` with ``nl`` woven in as ``--`` comment lines."""
    return (
        f"{COMMENT_INSTRUCTION}\n\n{NL_SECTION}\n{nl}\n\n"
        f"{FL_PROOF_SECTION}\n{proof}\n\n{COMMENTED_SECTION}\n"
    )
