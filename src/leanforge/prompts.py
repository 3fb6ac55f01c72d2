"""Every text leanforge sends to a model or writes as a training instruction.

Block training only helps when the prover sees the layout the model was
trained on, so ``prep`` instructions and ``prove`` prompts are built by the
same two functions: ``example_block`` for each in-context example and
``proof_prompt`` for the whole text.  Informalization and comment
bootstrapping have their own prompts, built from the same section markers.
Bound texts are inserted as they are: a ``${x}`` or a section marker inside
an NL or FL text is never expanded or reinterpreted.
"""

from typing import Iterable, Optional, Sequence

NL_SECTION = "### Natural language version of theorem and proof:"
FL_STATEMENT_SECTION = "### Lean4 version of theorem statement:"
FL_PROOF_SECTION = "### Lean4 version of theorem and proof:"
COMMENTED_SECTION = "### Commented Lean4 version of theorem and proof:"

COMMENT_INSTRUCTION = (
    "Document the natural language proof inside the Lean4 proof below by "
    "inserting `--` comment lines next to the steps they explain. Copy the "
    "Lean4 code exactly: do not add, remove, reorder, or rewrite any code."
)


def shows_nl(nl: Optional[str]) -> bool:
    """Whether a prompt holds an NL section for ``nl``: not for None
    (``prep.use_nl: false``) and not for a blank text."""
    return bool(nl) and not nl.isspace()


def example_block(nl: Optional[str], fl: str) -> str:
    """One in-context example: its NL section (none when ``shows_nl`` says
    so), then its Lean4 proof. Both texts are stripped, so an example reads
    the same whatever whitespace its source carried."""
    head = f"{NL_SECTION}\n{nl.strip()}\n\n" if shows_nl(nl) else ""
    return f"{head}{FL_PROOF_SECTION}\n{fl.strip()}\n\n"


def proof_prompt(blocks: Iterable[str], nl: Optional[str], statement: str) -> str:
    """The proving prompt, which is also the training instruction: the
    example blocks in order, then the open record's NL (none when
    ``shows_nl`` says so), statement and an empty proof section. The
    record's own texts are kept as they are."""
    head = f"{NL_SECTION}\n{nl}\n\n" if shows_nl(nl) else ""
    return (
        f"{''.join(blocks)}{head}"
        f"{FL_STATEMENT_SECTION}\n{statement}\n\n{FL_PROOF_SECTION}\n"
    )


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
