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
from typing import List, Optional, Sequence, Tuple

from . import artifacts, corpus, prompts
from .config import BootstrapSettings
from .corpus import LexError, TokenDivergence
from .genclient import Ask, GenClientError, Sampler, in_order

logger = logging.getLogger(__name__)


class BootstrapVerificationFailed(ValueError):
    """The commented proof does not carry the original code token stream."""

    def __init__(self, name: str, divergence: Optional[TokenDivergence], detail: str = ""):
        self.name = name
        self.divergence = divergence
        where = str(divergence) if divergence is not None else (
            detail or "output does not lex")
        super().__init__(f"bootstrap verification failed for {name}: {where}")


class UnlexableProof(ValueError):
    """The proof of ``entries[index]`` does not lex."""

    def __init__(self, index: int, name: str, error: LexError):
        self.index = index
        super().__init__(f"{name}: Proof does not lex: {error}")


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
    # ``load_obt_dataset`` counts it from the scan of ``proof`` that also
    # gives the code the record is re-verified against.
    difficulty: int = artifacts.wire(None, default=0, compare=False)

    def __post_init__(self):
        for attr, key in _OBT_KEYS:
            if not getattr(self, attr):
                raise ValueError(f"{key} is empty for {self.name}")


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
    proof: str, commented_proof: str, code: Optional[List[str]] = None
) -> Tuple[bool, Optional[TokenDivergence]]:
    """Check that the commented proof preserves the original code exactly,
    by ``corpus.code_divergence``: ``code`` is ``corpus.code_texts(proof)``
    when the caller has it, and a text that does not lex raises
    ``LexError``. A failed check returns the first divergence, located in
    the commented text.
    """
    divergence = corpus.code_divergence(proof, commented_proof, code)
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
    position: int,
    ask: Ask,
    code: List[str],
    max_attempts: int,
) -> str:
    """Interleave comments into one theorem's proof through the backend.

    ``ask`` sends the record's ``prompts.bootstrap_prompt``; each request id
    holds ``position``, the record's index among the entries, since names
    repeat. Each reply is checked against ``code``, the proof's
    ``corpus.code_texts``; the reply returned is verified. After
    ``max_attempts`` unverifiable replies this raises with the last
    divergence. Backend failures propagate.
    """
    divergence: Optional[TokenDivergence] = None
    detail = ""
    for attempt in range(1, max_attempts + 1):
        response = ask(f"bootstrap:{position}:{record.name}:{attempt}")
        candidate = _unfence(response.samples[0])
        try:
            ok, divergence = verify_bootstrap(record.proof, candidate, code)
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
    sampler: Optional[Sampler],
    settings: BootstrapSettings,
) -> Tuple[List[ObtRecord], BootstrapStats]:
    """Bootstrap every ``informal.jsonl`` record whose verdict is a pass, in
    the ``mode`` of ``settings``; head mode asks no model, and takes None
    for ``sampler``.

    Records come out in entry order. Interleaved records that cannot be
    verified (or whose backend gave out) fall back to head mode, so no
    accepted informalization is dropped; the stats record why each fallback
    happened. Each proof's code texts are taken once (a proof that does not
    lex raises ``UnlexableProof``) and each emitted pair is verified once:
    an interleaved reply by ``bootstrap_theorem``, a head text here.

    Interleaved records go through ``genclient.in_order``: up to the
    backend's ``concurrency`` ``bootstrap_theorem`` calls are in flight
    (one when the budget has a ceiling), each making up to
    ``settings.max_attempts`` requests. The fallback, the stats and
    record assembly run here, in entry order.
    """
    interleaved = settings.mode == "interleaved"
    if interleaved and sampler is None:
        raise ValueError("interleaved mode needs a backend")

    drafts = [(index, entry) for index, entry in enumerate(entries)
              if entry.verdict == "pass"]
    stats = BootstrapStats(total=len(entries),
                           informal_failures=len(entries) - len(drafts))

    def scan(index, draft):
        try:
            return draft, index, corpus.code_texts(draft.proof)
        except LexError as exc:
            raise UnlexableProof(index, draft.name, exc) from None

    scanned = (scan(index, draft) for index, draft in drafts)

    def work(item, ask):
        draft, index, code = item
        try:
            return bootstrap_theorem(draft, index, ask, code, settings.max_attempts)
        except (BootstrapVerificationFailed, GenClientError) as exc:
            return exc

    if interleaved:
        units = (((draft, index, code), prompts.bootstrap_prompt(
            draft.generated_informal_statement_and_proof, draft.proof))
            for draft, index, code in scanned)
        replies = in_order(units, work, sampler)
    else:
        replies = ((item, None) for item in scanned)
    out: List[ObtRecord] = []
    with contextlib.closing(replies):
        for (draft, _, code), commented in replies:
            if isinstance(commented, BootstrapVerificationFailed):
                stats.verification_fallbacks += 1
            elif isinstance(commented, GenClientError):
                logger.warning("backend gave out on %s (%s), using head mode",
                               draft.name, commented)
                stats.backend_fallbacks += 1
            if not isinstance(commented, str):
                commented = head_bootstrap(
                    draft.generated_informal_statement_and_proof, draft.proof)
                ok, divergence = verify_bootstrap(draft.proof, commented, code)
                if not ok:
                    raise BootstrapVerificationFailed(draft.name, divergence)
            out.append(assemble_obt_record(draft, commented))
            stats.emitted += 1
    return out, stats


# --- dataset files ---------------------------------------------------------------


def load_obt_dataset(path: str) -> List[ObtRecord]:
    """Load an OBT dataset, re-verifying every record.

    The code-preservation invariant is enforced here as well as at
    creation, so a hand-edited file cannot smuggle in altered proofs; an
    error names the record's line and name, and the field that does not
    lex. Each record takes two scans: ``corpus.code_and_steps`` of its
    proof gives the code that ``verify_bootstrap`` checks the commented
    proof against and the tactic-step count that becomes its
    ``difficulty``, and ``verify_bootstrap`` scans the commented proof.
    """
    lines = artifacts.read_jsonl(path)
    records = [artifacts.as_record(path, line, ObtRecord) for line in lines]
    out: List[ObtRecord] = []
    for line, record in zip(lines, records):
        where = f"{path}:{line.lineno}: {record.name}"
        try:
            code, steps = corpus.code_and_steps(record.proof)
        except LexError as exc:
            raise ValueError(f"{where}: Proof does not lex: {exc}") from None
        try:
            ok, divergence = verify_bootstrap(record.proof, record.commented_proof, code)
        except LexError as exc:
            raise ValueError(f"{where}: Commented_proof does not lex: {exc}") from None
        if not ok:
            raise BootstrapVerificationFailed(where, divergence)
        out.append(replace(record, difficulty=steps))
    return out
