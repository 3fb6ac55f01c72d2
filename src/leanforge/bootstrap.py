"""Comment-based NL-FL bootstrapping of Lean4 proofs.

Natural language reasoning is woven into a verified Lean4 proof as comments,
producing records that pair both views of the same argument.  Two placements
are supported: interleaved (a backend inserts ``--`` lines next to the
tactics they explain) and head (the whole NL proof is prepended as one block
comment, no backend involved).  Either way the commented text must carry the
exact code token stream of the original proof; anything else is rejected.
"""

import logging
from dataclasses import dataclass
from enum import Enum
from typing import Dict, List, Optional, Sequence, Tuple

from . import artifacts, corpus
from .corpus import LexError, TheoremRecord, TokenDivergence
from .genclient import (
    FL_PROOF_SECTION,
    NL_SECTION,
    GenClientError,
    GenerationBudget,
    GenerationRequest,
    PromptTemplate,
    RetryPolicy,
    complete,
    render_prompt,
)
from .informalize import InformalizationResult

logger = logging.getLogger(__name__)

COMMENTED_SECTION = "### Commented Lean4 version of theorem and proof:"

COMMENT_INSTRUCTION = (
    "Document the natural language proof inside the Lean4 proof below by "
    "inserting `--` comment lines next to the steps they explain. Copy the "
    "Lean4 code exactly: do not add, remove, reorder, or rewrite any code."
)


class BootstrapVerificationFailed(RuntimeError):
    """The commented proof does not carry the original code token stream."""

    def __init__(self, name: str, divergence: Optional[TokenDivergence], detail: str = ""):
        self.name = name
        self.divergence = divergence
        if divergence is not None:
            where = (
                f"token {divergence.index}: expected {divergence.expected!r}, "
                f"got {divergence.actual!r} at offset {divergence.offset}"
            )
        else:
            where = detail or "output does not lex"
        super().__init__(f"bootstrap verification failed for {name}: {where}")


class PreconditionViolated(ValueError):
    """A record-assembly input does not satisfy its contract."""


class BootstrapMode(Enum):
    INTERLEAVED = "interleaved"
    HEAD = "head"


@dataclass(frozen=True)
class ObtRecord:
    """One NL-FL aligned record: a theorem, its NL rendition, and the
    comment-bootstrapped proof."""

    name: str
    statement: str
    proof: str
    file_path: str
    commit: str
    generated_informal_statement_and_proof: str
    commented_proof: str


# Serialized field names. The loader also accepts the lowercase attribute
# names as a mirror.
_WIRE_FIELDS: Tuple[Tuple[str, str], ...] = (
    ("name", "Name"),
    ("statement", "Statement"),
    ("proof", "Proof"),
    ("file_path", "File_path"),
    ("commit", "Commit"),
    (
        "generated_informal_statement_and_proof",
        "Generated_informal_statement_and_proof",
    ),
    ("commented_proof", "Commented_proof"),
)


# --- verification ---------------------------------------------------------------


def sanitize_comment_body(text: str) -> str:
    """Break any block-comment delimiters in ``text`` so it can sit inside one.

    `-/` is split first; splitting `/-` second cannot recreate a `-/` because
    the first pass already separated every `-` from a following `/`.
    """
    return text.replace("-/", "- /").replace("/-", "/ -")


def head_bootstrap(nl_text: str, proof: str) -> str:
    """Prepend the NL proof as a single block comment. Deterministic."""
    return "/- " + sanitize_comment_body(nl_text) + " -/\n" + proof


def verify_bootstrap(
    original_proof: str, commented_proof: str
) -> Tuple[bool, Optional[TokenDivergence]]:
    """Check that the commented proof preserves the original code exactly.

    Comments and whitespace are free; code and string-literal tokens must
    match in content and order. Returns the first divergence when they do
    not, with the offset locating it in the commented text.
    """
    divergence = corpus.token_divergence(original_proof, commented_proof)
    return divergence is None, divergence


# --- interleaved generation ------------------------------------------------------


def bootstrap_template() -> PromptTemplate:
    text = (
        COMMENT_INSTRUCTION
        + "\n\n"
        + NL_SECTION
        + "\n${nl}\n\n"
        + FL_PROOF_SECTION
        + "\n${fl_proof}\n\n"
        + COMMENTED_SECTION
        + "\n"
    )
    return PromptTemplate.parse("bootstrap", text)


def bootstrap_prompt(record: TheoremRecord, nl_text: str) -> str:
    return render_prompt(
        bootstrap_template(), {"nl": nl_text, "fl_proof": record.proof}
    )


def _unfence(text: str) -> str:
    """Strip one Markdown code fence if the reply arrives wrapped in one."""
    stripped = text.strip()
    if not stripped.startswith("```"):
        return text
    lines = stripped.splitlines()[1:]
    if lines and lines[-1].strip() == "```":
        lines = lines[:-1]
    return "\n".join(lines)


def bootstrap_theorem(
    record: TheoremRecord,
    nl_text: str,
    backend,
    mode: BootstrapMode,
    max_attempts: int = 3,
    retry: Optional[RetryPolicy] = None,
    budget: Optional[GenerationBudget] = None,
    max_new_tokens: int = 1024,
    temperature: float = 0.7,
) -> str:
    """Produce a commented proof for one theorem, verified against the original.

    Head mode is a pure text transformation. Interleaved mode asks the
    backend and re-checks each reply; after ``max_attempts`` unverifiable
    replies it raises with the last divergence. Backend failures propagate.
    """
    if max_attempts < 1:
        raise ValueError("max_attempts must be >= 1")
    if mode is BootstrapMode.HEAD:
        return head_bootstrap(nl_text, record.proof)

    prompt = bootstrap_prompt(record, nl_text)
    divergence: Optional[TokenDivergence] = None
    detail = ""
    for attempt in range(1, max_attempts + 1):
        request = GenerationRequest(
            prompt=prompt,
            max_new_tokens=max_new_tokens,
            temperature=temperature,
            n_samples=1,
            request_id=f"bootstrap:{record.name}:{attempt}",
        )
        response = complete(request, backend, retry=retry, budget=budget)
        candidate = _unfence(response.samples[0])
        try:
            ok, divergence = verify_bootstrap(record.proof, candidate)
        except LexError as exc:
            ok, divergence, detail = False, None, f"output does not lex: {exc}"
        if ok:
            return candidate
        logger.warning(
            "bootstrap attempt %d/%d for %s failed verification",
            attempt, max_attempts, record.name,
        )
    raise BootstrapVerificationFailed(record.name, divergence, detail)


# --- record assembly -------------------------------------------------------------


def assemble_obt_record(
    theorem: TheoremRecord,
    informal: InformalizationResult,
    commented_proof: str,
) -> ObtRecord:
    """Combine a theorem, its accepted NL text, and a verified commented proof."""
    if informal.verdict != "pass":
        raise PreconditionViolated(
            f"informal: verdict is {informal.verdict!r} for {theorem.name}, need 'pass'"
        )
    ok, divergence = verify_bootstrap(theorem.proof, commented_proof)
    if not ok:
        raise PreconditionViolated(
            f"commented_proof: diverges from proof of {theorem.name} at "
            f"token {divergence.index} ({divergence.expected!r} vs "
            f"{divergence.actual!r})"
        )
    record = ObtRecord(
        name=theorem.name,
        statement=theorem.statement,
        proof=theorem.proof,
        file_path=theorem.file_path,
        commit=theorem.commit,
        generated_informal_statement_and_proof=informal.nl_statement_and_proof,
        commented_proof=commented_proof,
    )
    for attr, _ in _WIRE_FIELDS:
        if not getattr(record, attr):
            raise PreconditionViolated(f"{attr}: empty for {theorem.name}")
    return record


# --- corpus driver ---------------------------------------------------------------


@dataclass
class BootstrapStats:
    """Per-cause accounting for one bootstrapping run."""

    total: int = 0
    emitted: int = 0
    informal_failures: int = 0
    verification_fallbacks: int = 0
    backend_fallbacks: int = 0


def bootstrap_corpus(
    records: Sequence[TheoremRecord],
    informals: Sequence[InformalizationResult],
    backend=None,
    mode: BootstrapMode = BootstrapMode.INTERLEAVED,
    max_attempts: int = 3,
    retry: Optional[RetryPolicy] = None,
    budget: Optional[GenerationBudget] = None,
    max_new_tokens: int = 1024,
    temperature: float = 0.7,
) -> Tuple[List[ObtRecord], BootstrapStats]:
    """Bootstrap every record whose informalization passed.

    Interleaved records that cannot be verified (or whose backend gave out)
    fall back to head mode, so no accepted informalization is dropped; the
    stats record why each fallback happened.
    """
    if len(records) != len(informals):
        raise ValueError(
            f"got {len(records)} records but {len(informals)} informalization results"
        )
    if mode is BootstrapMode.INTERLEAVED and backend is None:
        raise ValueError("interleaved mode needs a backend")

    out: List[ObtRecord] = []
    stats = BootstrapStats()
    for record, informal in zip(records, informals):
        stats.total += 1
        if informal.theorem_name != record.name:
            raise ValueError(
                f"record {record.name} paired with informalization of "
                f"{informal.theorem_name}"
            )
        if informal.verdict != "pass":
            stats.informal_failures += 1
            continue
        nl_text = informal.nl_statement_and_proof
        if mode is BootstrapMode.HEAD:
            commented = head_bootstrap(nl_text, record.proof)
        else:
            try:
                commented = bootstrap_theorem(
                    record, nl_text, backend, mode,
                    max_attempts=max_attempts, retry=retry, budget=budget,
                    max_new_tokens=max_new_tokens, temperature=temperature,
                )
            except BootstrapVerificationFailed:
                stats.verification_fallbacks += 1
                commented = head_bootstrap(nl_text, record.proof)
            except GenClientError as exc:
                logger.warning("backend gave out on %s (%s), using head mode",
                               record.name, exc)
                stats.backend_fallbacks += 1
                commented = head_bootstrap(nl_text, record.proof)
        out.append(assemble_obt_record(record, informal, commented))
        stats.emitted += 1
    return out, stats


# --- dataset files ---------------------------------------------------------------


def obt_to_entry(record: ObtRecord) -> Dict[str, str]:
    return {wire: getattr(record, attr) for attr, wire in _WIRE_FIELDS}


def obt_from_entry(entry: Dict[str, str]) -> ObtRecord:
    values = {}
    for attr, wire in _WIRE_FIELDS:
        if wire in entry:
            values[attr] = entry[wire]
        elif attr in entry:
            values[attr] = entry[attr]
        else:
            raise PreconditionViolated(f"{wire}: missing from record entry")
    return ObtRecord(**values)


def save_obt_dataset(records: Sequence[ObtRecord], path: str) -> None:
    artifacts.write_jsonl(path, map(obt_to_entry, records))


def load_obt_dataset(path: str) -> List[ObtRecord]:
    """Load an OBT dataset, re-verifying every record.

    The code-preservation invariant is enforced here as well as at
    creation, so a hand-edited file cannot smuggle in altered proofs.
    """
    try:
        lines = artifacts.read_jsonl(path)
    except artifacts.ArtifactError as exc:
        raise PreconditionViolated(str(exc)) from exc
    out: List[ObtRecord] = []
    for line in lines:
        record = obt_from_entry(line.entry)
        for attr, wire in _WIRE_FIELDS:
            if not getattr(record, attr):
                raise PreconditionViolated(f"{path}:{line.lineno}: {wire} is empty")
        ok, divergence = verify_bootstrap(record.proof, record.commented_proof)
        if not ok:
            raise BootstrapVerificationFailed(
                f"{path}:{line.lineno}: {record.name}", divergence
            )
        out.append(record)
    return out
