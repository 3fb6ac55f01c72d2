"""Comment-based NL-FL bootstrapping of Lean4 proofs.

Natural language reasoning is woven into a verified Lean4 proof as comments,
producing records that pair both views of the same argument.  Two placements
are supported: interleaved (a backend inserts ``--`` lines next to the
tactics they explain) and head (the whole NL proof is prepended as one block
comment, no backend involved).  Either way the commented text must carry the
exact code token stream of the original proof; anything else is rejected.
"""

import contextlib
import logging
from dataclasses import dataclass, fields, replace
from enum import Enum
from typing import List, Optional, Sequence, Tuple

from . import artifacts, corpus, prompts
from .corpus import LeanToken, LexError, TokenDivergence
from .genclient import Ask, GenClientError, Sampler, in_order

logger = logging.getLogger(__name__)


class BootstrapVerificationFailed(RuntimeError):
    """The commented proof does not carry the original code token stream."""

    def __init__(self, name: str, divergence: Optional[TokenDivergence], detail: str = ""):
        self.name = name
        self.divergence = divergence
        where = str(divergence) if divergence is not None else (
            detail or "output does not lex")
        super().__init__(f"bootstrap verification failed for {name}: {where}")


class PreconditionViolated(ValueError):
    """A record-assembly input does not satisfy its contract."""


class BootstrapMode(Enum):
    INTERLEAVED = "interleaved"
    HEAD = "head"


@dataclass(frozen=True)
class AlignedTheorem:
    """A theorem and its NL rendition: the fields that open every
    ``informal.jsonl`` and ``obt.jsonl`` line."""

    name: str = artifacts.wire("Name")
    statement: str = artifacts.wire("Statement")
    proof: str = artifacts.wire("Proof")
    file_path: str = artifacts.wire("File_path")
    commit: str = artifacts.wire("Commit")
    generated_informal_statement_and_proof: str = artifacts.wire(
        "Generated_informal_statement_and_proof")


@dataclass(frozen=True)
class InformalRecord(AlignedTheorem):
    """One ``informal.jsonl`` line, with the quality screen's verdict."""

    verdict: str
    reasons: Tuple[str, ...] = ()


@dataclass(frozen=True)
class ObtRecord(AlignedTheorem):
    """One NL-FL aligned record: a theorem, its NL rendition, and the
    comment-bootstrapped proof. No field on the wire is empty."""

    commented_proof: str = artifacts.wire("Commented_proof")
    # Tactic-step count of ``proof``. It is not on the wire;
    # ``load_obt_dataset`` counts it from the tokens it verifies with.
    difficulty: int = artifacts.wire(None, default=0, compare=False)

    def __post_init__(self):
        for attr, key in _OBT_KEYS:
            if not getattr(self, attr):
                raise PreconditionViolated(f"{key} is empty for {self.name}")


_OBT_KEYS = artifacts.wire_keys(ObtRecord)


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
    original: Sequence[LeanToken], commented_proof: str
) -> Tuple[bool, Optional[TokenDivergence]]:
    """Check that the commented proof preserves the original code exactly.

    ``original`` is the original proof's ``lex_lean`` output, which callers
    lex once and keep; only the commented text is lexed here, and a text
    that does not lex raises ``LexError``. Comments and whitespace are free;
    code and string-literal tokens must match in content and order. Returns
    the first divergence when they do not, with the offset locating it in
    the commented text.
    """
    divergence = corpus.token_divergence(original, corpus.lex_lean(commented_proof))
    return divergence is None, divergence


# --- interleaved generation ------------------------------------------------------


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
    record: AlignedTheorem,
    ask: Ask,
    original: Sequence[LeanToken],
    max_attempts: int = 3,
) -> str:
    """Interleave comments into one theorem's proof through the backend.

    ``ask`` sends the record's ``prompts.bootstrap_prompt``. Each reply is
    checked against ``original``, the proof's tokens; the reply returned is
    verified. After ``max_attempts`` unverifiable replies this raises with
    the last divergence. Backend failures propagate.
    """
    divergence: Optional[TokenDivergence] = None
    detail = ""
    for attempt in range(1, max_attempts + 1):
        response = ask(f"bootstrap:{record.name}:{attempt}")
        candidate = _unfence(response.samples[0])
        try:
            ok, divergence = verify_bootstrap(original, candidate)
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


def assemble_obt_record(draft: AlignedTheorem, commented_proof: str) -> ObtRecord:
    """The OBT record of ``draft`` with ``commented_proof``, which is
    already verified against its proof.

    ``bootstrap_corpus`` verifies each pair once before it gets here, so the
    pair is not checked a second time.
    """
    return ObtRecord(commented_proof=commented_proof, **{
        f.name: getattr(draft, f.name) for f in fields(AlignedTheorem)})


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
    entries: Sequence[InformalRecord],
    sampler: Optional[Sampler] = None,
    mode: BootstrapMode = BootstrapMode.INTERLEAVED,
    max_attempts: int = 3,
) -> Tuple[List[ObtRecord], BootstrapStats]:
    """Bootstrap every ``informal.jsonl`` record whose verdict is a pass.

    Records come out in entry order. Interleaved records that cannot be
    verified (or whose backend gave out) fall back to head mode, so no
    accepted informalization is dropped; the stats record why each fallback
    happened. Each proof is lexed once and each emitted pair is verified
    once: an interleaved reply by ``bootstrap_theorem``, a head text here.

    Interleaved records go through ``genclient.in_order``: up to the
    backend's ``concurrency`` ``bootstrap_theorem`` calls are in flight,
    each reserving ``max_attempts`` requests of its prompt when there is a
    budget. The fallback, the stats and record assembly run here, in entry
    order.
    """
    if mode is BootstrapMode.INTERLEAVED and sampler is None:
        raise ValueError("interleaved mode needs a backend")

    drafts = [entry for entry in entries if entry.verdict == "pass"]
    stats = BootstrapStats(total=len(entries),
                           informal_failures=len(entries) - len(drafts))
    lexed = ((draft, corpus.lex_lean(draft.proof)) for draft in drafts)

    def work(item, ask):
        draft, original = item
        try:
            return bootstrap_theorem(draft, ask, original, max_attempts)
        except (BootstrapVerificationFailed, GenClientError) as exc:
            return exc

    if mode is BootstrapMode.INTERLEAVED:
        units = (((draft, original), prompts.bootstrap_prompt(
            draft.generated_informal_statement_and_proof, draft.proof))
            for draft, original in lexed)
        replies = in_order(units, work, sampler, max_attempts)
    else:
        replies = ((item, None) for item in lexed)
    out: List[ObtRecord] = []
    with contextlib.closing(replies):
        for (draft, original), commented in replies:
            if isinstance(commented, BootstrapVerificationFailed):
                stats.verification_fallbacks += 1
            elif isinstance(commented, GenClientError):
                logger.warning("backend gave out on %s (%s), using head mode",
                               draft.name, commented)
                stats.backend_fallbacks += 1
            if not isinstance(commented, str):
                commented = head_bootstrap(
                    draft.generated_informal_statement_and_proof, draft.proof)
                ok, divergence = verify_bootstrap(original, commented)
                if not ok:
                    raise BootstrapVerificationFailed(draft.name, divergence)
            out.append(assemble_obt_record(draft, commented))
            stats.emitted += 1
    return out, stats


# --- dataset files ---------------------------------------------------------------


def load_obt_dataset(path: str) -> List[ObtRecord]:
    """Load an OBT dataset, re-verifying every record.

    The code-preservation invariant is enforced here as well as at
    creation, so a hand-edited file cannot smuggle in altered proofs. The
    proof's tokens, lexed for that check, also give each record its
    ``difficulty``.
    """
    try:
        lines = artifacts.read_jsonl(path)
        records = [artifacts.as_record(path, line, ObtRecord) for line in lines]
    except artifacts.ArtifactError as exc:
        raise PreconditionViolated(str(exc)) from exc
    out: List[ObtRecord] = []
    for line, record in zip(lines, records):
        original = corpus.lex_lean(record.proof)
        ok, divergence = verify_bootstrap(original, record.commented_proof)
        if not ok:
            raise BootstrapVerificationFailed(
                f"{path}:{line.lineno}: {record.name}", divergence
            )
        out.append(replace(
            record, difficulty=corpus.count_tactic_steps(original)))
    return out
