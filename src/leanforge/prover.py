"""Iterative whole-proof writing against a verifier.

Each round prompts the backend with in-context examples, samples whole
proofs per unproved problem, and judges every sample; a proof text the
verifier already rejected for that problem is not checked again. Proofs
the verifier accepts join the example pool for the next round, so later
rounds prompt with solved problems from the same dataset. The pool is
frozen while a round runs; all growth is committed between rounds, which
keeps a round's problems independent, so several of them can be in flight
at once.
"""

import logging
import os
import re
import signal
import subprocess
import tempfile
import threading
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple

from . import artifacts, corpus
from .config import ProverSettings
from .corpus import LexError
from .genclient import Ask, GenClientError, Sampler, in_order
from .prompts import PromptCounter, PromptExceedsBudget, fit_blocks, proof_prompt

logger = logging.getLogger(__name__)


class NoProofFound(RuntimeError):
    """The generated text contains no code region declaring the problem."""


class VerifierError(RuntimeError):
    """The checker timed out or could not run; no verdict was reached."""


class ReportInvalid(ValueError):
    """A saved report does not re-verify, or does not account for its attempt log."""


# --- domain types --------------------------------------------------------------


@dataclass(frozen=True)
class Problem:
    """One theorem to prove. Imports travel with the problem; they are part
    of the evaluation setup, never generated."""

    name: str
    fl_statement: str
    nl_statement_and_proof: str = ""
    imports: str = ""

    def __post_init__(self):
        if not self.name:
            raise ValueError("problem name must be nonempty")
        if not self.fl_statement:
            raise ValueError(f"problem {self.name}: fl_statement must be nonempty")

    @cached_property
    def statement_texts(self) -> Optional[List[str]]:
        """The statement's ``corpus.code_texts``, scanned on first use; None
        when the statement does not lex."""
        try:
            return corpus.code_texts(self.fl_statement)
        except LexError:
            return None


DIAGNOSTIC_CHARS = 200  # diagnostic length kept in the attempt log


def _check_sample(record) -> None:
    if record.round < 1 or record.sample_index < 0:
        raise ValueError("round must be >= 1 and sample_index >= 0")


@dataclass(frozen=True)
class ProofAttempt:
    """One sample drawn for a problem: a line of ``prove.attempts.jsonl``.
    The extracted proof (empty when none was found) is not written."""

    problem: str
    round: int
    sample_index: int
    verdict: str  # "verified" | "rejected" | "error"
    diagnostic: str = ""  # at most DIAGNOSTIC_CHARS long
    proof: str = artifacts.wire(None, default="")

    def __post_init__(self):
        if self.verdict not in ("verified", "rejected", "error"):
            raise ValueError(f"unknown verdict {self.verdict!r}")
        _check_sample(self)


@dataclass(frozen=True)
class PoolExample:
    """An in-context example: NL text plus a full FL theorem-and-proof."""

    name: str
    nl: str
    fl: str


@dataclass(frozen=True)
class RoundSummary:
    round: int
    newly_proved: int
    cumulative_proved: int
    cumulative_rate: float
    budget_used: int


@dataclass(frozen=True)
class ReportHeader:
    """The first line of ``report.jsonl``."""

    kind: str  # "harness-report"
    problems_total: int
    rounds: Tuple[RoundSummary, ...]


@dataclass(frozen=True)
class ReportProof:
    """A line of ``report.jsonl`` after the header: one proved problem."""

    name: str
    round: int
    sample_index: int
    proof: str

    __post_init__ = _check_sample


@dataclass(frozen=True)
class HarnessReport:
    problems_total: int
    rounds: Tuple[RoundSummary, ...]
    proved: Dict[str, ReportProof]
    # The attempt log; it is written to its own file, not to the report.
    attempts: Tuple[ProofAttempt, ...] = field(default=(), compare=False, repr=False)

    @property
    def cumulative_rate(self) -> float:
        return self.rounds[-1].cumulative_rate if self.rounds else 0.0


# --- prompt assembly -----------------------------------------------------------


def assemble_proof_prompt(
    problem: Problem,
    blocks: Sequence[Tuple[str, int]],
    k_min: int,
    counter: PromptCounter,
    token_budget: int,
) -> str:
    """Build the proving prompt with as many whole examples as fit.

    ``blocks`` are the counted blocks (``PromptCounter.block``) of the
    round's first ``k_max`` examples, added in order until the next one would
    push the prompt past ``token_budget``. The zero-example prompt's count
    (``PromptCounter.prompt``) and the blocks' counts are summed
    (``prompts.fit_blocks``): counts add at the whitespace that ends every
    block, so the sum is the count of the assembled prompt. A prompt with
    fewer than ``k_min`` examples is still returned, with a warning; one
    over ``token_budget`` with no examples raises ``PromptExceedsBudget``.
    """
    nl, statement = problem.nl_statement_and_proof, problem.fl_statement
    taken, _ = fit_blocks(problem.name, counter.prompt(nl, statement), blocks,
                          token_budget)
    if len(taken) < k_min:
        logger.warning("prompt for %s fits only %d examples, k_min is %d",
                       problem.name, len(taken), k_min)
    return proof_prompt(taken, nl, statement)


# --- proof extraction ----------------------------------------------------------

_FENCE = re.compile(r"```[^\n]*\n(.*?)```", re.DOTALL)


def _declaration_pattern(name: str) -> re.Pattern:
    return re.compile(
        r"^[ \t]*(?:theorem|lemma)\s+" + re.escape(name) + r"(?![\w'!?.])",
        re.MULTILINE,
    )


def extract_proof(generated_text: str, problem: Problem) -> str:
    """Pull the proof for ``problem`` out of a model reply.

    Fenced code blocks are scanned first, then the bare text; the first
    region declaring the problem's name wins. The slice runs from the
    declaration to the end of its region, comments kept: they are legal
    Lean4 and part of what the model was trained to write.
    """
    decl = _declaration_pattern(problem.name)
    for fence in _FENCE.finditer(generated_text):
        block = fence.group(1)
        match = decl.search(block)
        if match:
            return block[match.start():].rstrip() + "\n"
    match = decl.search(generated_text)
    if match:
        return generated_text[match.start():].rstrip() + "\n"
    raise NoProofFound(
        f"no fenced or theorem-headed region declaring {problem.name}"
    )


# --- verification --------------------------------------------------------------

# `sorry` and `admit` as whole names: Lean accepts a proof using them with
# only a warning. Longer names that contain them (`h_admit`) are other names.
_PLACEHOLDER = re.compile(r"(?<![\w'!?.])(?:sorry|admit)(?![\w'!?.])")


def screen_proof(problem: Problem, proof: str) -> Optional[str]:
    """The diagnostic for a proof no checker should be asked about, else None.

    The proof's ``corpus.code_texts`` are scanned once. Rejects Lean3
    leftovers, code tokens that use ``sorry`` or ``admit``, and a proof
    whose code and string tokens do not begin with those of the problem's
    statement (a checker would accept a proof of an easier statement under
    the same name); comments and string literals are not code. A proof that
    does not lex gets only the regex Lean3 scan and is otherwise left to the
    verifier.
    """
    try:
        code: Optional[List[str]] = corpus.code_texts(proof)
    except LexError:
        code = None
    patterns = corpus.detect_lean3_artifacts(proof, code)
    if code is not None:
        # a string literal starts with `"`, a code token never does
        if any(t[0] != '"' and _PLACEHOLDER.search(t) for t in code):
            patterns.append("sorry")
        statement = problem.statement_texts
        if statement is not None and code[:len(statement)] != statement:
            patterns.append("statement changed")
    if not patterns:
        return None
    return "pre-verification screen: " + ", ".join(patterns)


class MockVerifier:
    """Answer-key verifier: a proof is correct when it carries the code of
    the canonical proof exactly (``corpus.code_divergence``: comments and
    whitespace are free). Each answer key is scanned once, here; a key that
    does not lex raises ``ValueError`` naming its problem. It checks
    in-process; its ``concurrency`` of 1 only sets how many proofs
    ``load_report`` re-checks at once, and does not serialise checks made
    from other threads."""

    concurrency = 1

    def __init__(self, answer_key: Dict[str, str]):
        self._keys: Dict[str, Tuple[str, List[str]]] = {}  # name -> key, its code
        for name, key in answer_key.items():
            try:
                self._keys[name] = key, corpus.code_texts(key)
            except LexError as exc:
                raise ValueError(f"proof of {name!r} does not lex: {exc}") from None

    def check(self, problem: Problem, proof_text: str) -> Tuple[str, str]:
        if problem.name not in self._keys:
            return "rejected", f"no canonical proof known for {problem.name}"
        key, code = self._keys[problem.name]
        try:
            divergence = corpus.code_divergence(key, proof_text, code)
        except LexError:
            return "rejected", "proof does not lex"
        if divergence is None:
            return "verified", ""
        return "rejected", str(divergence)


class ExternalVerifier:
    """Runs a checker command on a temp .lean file holding imports + proof.

    Exit 0 means verified; anything else is a rejection with the captured
    stderr as diagnostic. Its output is read as UTF-8 whatever the locale,
    a byte that does not decode becoming U+FFFD. The checker runs in its
    own session: a slow check is killed with every process it started. A
    check that times out, or whose command cannot run, raises VerifierError;
    the harness maps it to an error verdict for that sample and moves on.

    A Lean check is one core's work, so at most ``concurrency`` checkers run
    at once, one per CPU this process may run on. A further ``check`` waits
    for a free one, and its ``timeout_s`` counts from its checker's start.

    The checker inherits this process's environment, the CLI's
    ``OPENBLAS_NUM_THREADS=1`` included; Lean does not read it.
    """

    def __init__(self, command: Sequence[str], timeout_s: float):
        self.command = list(command)
        self.timeout_s = timeout_s
        self.concurrency = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                            else os.cpu_count() or 1)
        self._slots = threading.BoundedSemaphore(self.concurrency)

    def check(self, problem: Problem, proof_text: str) -> Tuple[str, str]:
        content = ""
        if problem.imports.strip():
            content = problem.imports.rstrip() + "\n\n"
        content += proof_text if proof_text.endswith("\n") else proof_text + "\n"
        handle = tempfile.NamedTemporaryFile(
            mode="w", suffix=".lean", encoding="utf-8", delete=False)
        try:
            with handle:
                handle.write(content)
            with self._slots:
                try:
                    process = subprocess.Popen(
                        self.command + [handle.name],
                        stdout=subprocess.PIPE,
                        stderr=subprocess.PIPE,
                        encoding="utf-8",
                        errors="replace",
                        start_new_session=True,
                    )
                except OSError as exc:
                    raise VerifierError(
                        f"verifier command {self.command[0]!r} failed to run: {exc}"
                    ) from exc
                with process:
                    try:
                        stdout, stderr = process.communicate(timeout=self.timeout_s)
                    except subprocess.TimeoutExpired as exc:
                        os.killpg(process.pid, signal.SIGKILL)
                        process.communicate()
                        raise VerifierError(
                            f"verifier exceeded {self.timeout_s}s on {problem.name}"
                        ) from exc
            if process.returncode == 0:
                return "verified", ""
            diagnostic = stderr.strip() or stdout.strip()
            return "rejected", diagnostic or f"exit status {process.returncode}"
        finally:
            os.unlink(handle.name)


def judge_proof(problem: Problem, proof: str, verifier,
                rejected: Dict[str, str]) -> Tuple[str, str]:
    """The verdict and diagnostic for ``proof``, sampled or stored: it is
    screened, then checked. A verifier that times out or cannot run gives an
    ``error`` verdict.

    ``rejected`` is ``problem``'s map from a proof text to the diagnostic of
    its rejection. A proof found there is answered from it, neither screened
    nor checked again; a new rejection joins it. The key is the exact text,
    since Lean 4 reads whitespace and a comment can move a token's column.
    An ``error`` is never remembered: its repeat is checked again.
    ``load_report`` passes a fresh map per proof, so the audit checks every
    stored proof."""
    if proof in rejected:
        return "rejected", rejected[proof]
    verdict = "rejected"
    diagnostic = screen_proof(problem, proof)
    if not diagnostic:
        try:
            verdict, diagnostic = verifier.check(problem, proof)
        except VerifierError as exc:
            return "error", str(exc)
    if verdict == "rejected":
        rejected[proof] = diagnostic
    return verdict, diagnostic


def evaluate_sample(
    problem: Problem, round_number: int, sample_index: int, generated_text: str,
    verifier, rejected: Dict[str, str],
) -> ProofAttempt:
    """Extract one generated sample's proof and judge it (``judge_proof``,
    with ``problem``'s map of rejected proofs)."""
    try:
        proof = extract_proof(generated_text, problem)
    except NoProofFound as exc:
        proof, verdict, diagnostic = "", "rejected", str(exc)
    else:
        verdict, diagnostic = judge_proof(problem, proof, verifier, rejected)
    return ProofAttempt(problem.name, round_number, sample_index, verdict,
                        diagnostic[:DIAGNOSTIC_CHARS], proof)


# --- the iteration loop --------------------------------------------------------


def _prove_problem(problem: Problem, round_number: int, ask: Ask, verifier,
                   n_samples: int, rejected: Dict[str, str]) -> List[ProofAttempt]:
    """Sample ``problem`` until the first verified proof or ``n_samples``;
    ``ask`` sends the problem's prompt and ``rejected`` is its map of
    rejected proofs. A verified attempt is the last."""
    attempts: List[ProofAttempt] = []
    for sample_index in range(n_samples):
        try:
            response = ask(f"prove:{problem.name}:r{round_number}:s{sample_index}")
        except GenClientError as exc:
            logger.warning("generation for %s stopped at sample %d: %s",
                           problem.name, sample_index, exc)
            break
        attempts.append(evaluate_sample(
            problem, round_number, sample_index, response.samples[0], verifier,
            rejected))
        if attempts[-1].verdict == "verified":
            break
    return attempts


def run_iteration(
    round_number: int,
    problems: Sequence[Problem],
    pool: Tuple[PoolExample, ...],
    sampler: Sampler,
    verifier,
    settings: ProverSettings,
    tokenizer,
    rejected: Dict[str, Dict[str, str]],
) -> List[ProofAttempt]:
    """Run one round over ``problems``, the open ones. Their prompts choose
    from the first ``settings.k_max`` examples of ``pool``, newest first,
    counted once for the round; the caller grows the pool between rounds.
    Returns each problem's attempts, in problem order. ``rejected`` maps
    each problem's name to its map of rejected proofs (``judge_proof``),
    which the round's unit for that problem consults and grows.

    Problems go through ``genclient.in_order``. Above a backend
    ``concurrency`` of 1, ``backend.concurrency + verifier.concurrency``
    of them are in flight: a problem alternates between a request and a
    check, so beside the units that keep the backend's connections busy,
    one per checker can be out checking. The backend bounds the requests on
    the wire and the verifier its checks, and the threads do not grow with
    the problems. Each problem draws the sample sequence a serial run gives
    it, and results are taken in problem order. When the budget has a
    ceiling the problems run one at a time, so a run that hits it stops at
    the samples a serial run stops at.
    """
    counter = PromptCounter(tokenizer)
    blocks = [counter.block(e.nl, e.fl) for e in pool[:settings.k_max]]

    def units():
        for problem in problems:
            try:
                prompt = assemble_proof_prompt(
                    problem, blocks, settings.k_min, counter, settings.token_budget)
            except PromptExceedsBudget as exc:
                logger.warning("skipping %s this round: %s", problem.name, exc)
                continue
            yield problem, prompt

    def work(problem, ask):
        return _prove_problem(problem, round_number, ask, verifier, settings.n_samples,
                              rejected[problem.name])

    results = in_order(units(), work, sampler,
                       in_flight=sampler.backend.concurrency + verifier.concurrency)
    return [attempt for _, attempts in results for attempt in attempts]


def run_iterative(
    problems: Sequence[Problem],
    seed_pool: Sequence[PoolExample],
    sampler: Sampler,
    verifier,
    settings: ProverSettings,
    tokenizer,
) -> HarnessReport:
    """Run rounds until ``settings.max_rounds`` or a round proves nothing
    new. Prompts are counted with ``tokenizer``. Problem names are unique and
    ``seed_pool`` is nonempty: the CLI checks both where it reads them.
    The pool is kept newest first, the order prompts read it: a round's
    verified proofs go in front of it in reverse problem order, and the
    seeds stay last; every sample drawn counts toward ``budget_used``.

    Each problem keeps one map of its rejected proofs for the whole run, so
    the verifier sees each distinct proof text of a problem once, unless it
    timed out or crashed on it (``judge_proof``). A repeat is logged with the
    verdict and diagnostic its check gave. A problem's samples, and the
    rounds, run one after another, so no map needs a lock."""
    by_name = {p.name: p for p in problems}
    rejected: Dict[str, Dict[str, str]] = {p.name: {} for p in problems}
    pool = tuple(seed_pool)
    proved: Dict[str, ReportProof] = {}
    attempts: List[ProofAttempt] = []
    for round_number in range(1, settings.max_rounds + 1):
        drawn = run_iteration(
            round_number, [p for p in problems if p.name not in proved], pool,
            sampler, verifier, settings, tokenizer, rejected)
        attempts += drawn
        verified = [a for a in drawn if a.verdict == "verified"]
        for a in verified:
            proved[a.problem] = ReportProof(
                a.problem, round_number, a.sample_index, a.proof)
        pool = tuple(PoolExample(a.problem, by_name[a.problem].nl_statement_and_proof,
                                 a.proof) for a in reversed(verified)) + pool
        if not verified:
            break
    rounds = round_summaries(attempts, len(problems), round_number)
    return HarnessReport(len(problems), rounds, proved, tuple(attempts))


def round_summaries(attempts: Sequence[ProofAttempt], problems_total: int,
                    rounds: int) -> Tuple[RoundSummary, ...]:
    """The report header's rounds 1 to ``rounds``, an account of the attempt
    log: a round with no attempt line proves nothing and uses no budget."""
    summaries, proved, used = [], 0, 0
    for r in range(1, rounds + 1):
        drawn = [a for a in attempts if a.round == r]
        newly = sum(a.verdict == "verified" for a in drawn)
        proved, used = proved + newly, used + len(drawn)
        rate = proved / problems_total if problems_total else 0.0
        summaries.append(RoundSummary(r, newly, proved, rate, used))
    return tuple(summaries)


# --- reports -------------------------------------------------------------------


def save_report(report: HarnessReport, path: str) -> None:
    """One header line, then one line per proved problem, name-sorted."""
    artifacts.write_jsonl(path, [
        ReportHeader("harness-report", report.problems_total, report.rounds),
        *(report.proved[name] for name in sorted(report.proved)),
    ])


def load_report(path: str, log_path: str, problems: Sequence[Problem],
                verifier) -> HarnessReport:
    """Load a report, re-verifying every stored proof, and check that it is an
    account of the attempt log at ``log_path`` (see ``round_summaries``).

    The stored proofs are judged on up to ``verifier.concurrency`` threads.
    The error raised is the one a serial pass raises: that of the first
    failing proof line in file order, whether the line is malformed (it
    does not parse, names an unknown problem, or names one listed before)
    or its proof fails."""
    by_name = {p.name: p for p in problems}
    lines = artifacts.read_jsonl(path)
    if not lines:
        raise ReportInvalid(f"{path}: empty report")
    header = artifacts.as_record(path, lines[0], ReportHeader)
    if header.kind != "harness-report":
        raise ReportInvalid(f"{path}:{lines[0].lineno}: not a harness report")
    proved: Dict[str, ReportProof] = {}
    linenos: List[int] = []
    malformed: Optional[Exception] = None  # the first malformed line's error
    for line in lines[1:]:
        try:
            entry = artifacts.as_record(path, line, ReportProof)
            if entry.name not in by_name:
                raise ReportInvalid(f"{path}:{line.lineno}: unknown problem {entry.name}")
            if entry.name in proved:
                raise ReportInvalid(f"{path}:{line.lineno}: {entry.name} is listed twice")
        except (artifacts.ArtifactError, ReportInvalid) as exc:
            malformed = exc
            break
        proved[entry.name] = entry
        linenos.append(line.lineno)
    failed = _first_unverified(
        [(by_name[e.name], e.proof) for e in proved.values()], verifier)
    if failed is not None:
        index, diagnostic = failed
        raise ReportInvalid(
            f"{path}:{linenos[index]}: stored proof for {list(proved)[index]} "
            "no longer verifies" + (f": {diagnostic}" if diagnostic else ""))
    if malformed is not None:
        raise malformed
    log = artifacts.read_records(log_path, ProofAttempt)
    if header.problems_total != len(problems):
        raise ReportInvalid(f"{path}: problems_total is {header.problems_total}, "
                            f"but there are {len(problems)} problems")
    for a in log:
        if a.round > len(header.rounds):
            raise ReportInvalid(f"{log_path}: {a.problem} has a sample in round "
                                f"{a.round}, which the header of {path} does not list")
    derived = round_summaries(log, len(problems), len(header.rounds))
    for claimed, summary in zip(header.rounds, derived):
        for key, stated in vars(claimed).items():
            if stated != getattr(summary, key):
                raise ReportInvalid(f"{path}: round {summary.round}: {key} is {stated}, "
                                    f"but the attempt log gives {getattr(summary, key)}")
        if summary.newly_proved == 0 and summary is not derived[-1]:
            raise ReportInvalid(f"{path}: round {summary.round}: newly_proved is 0, "
                                "so no round can follow it")
    listed = {(e.name, e.round, e.sample_index) for e in proved.values()}
    logged = {(a.problem, a.round, a.sample_index)
              for a in log if a.verdict == "verified"}
    if listed != logged:
        name, r, index = min(listed - logged or logged - listed)
        raise ReportInvalid(f"{path}: round {r}: sample_index {index} of {name} is " + (
            f"not a verified sample in {log_path}" if (name, r, index) in listed
            else f"verified in {log_path}, but has no proof line"))
    _check_attempt_lines(log, by_name, log_path)
    return HarnessReport(header.problems_total, header.rounds, proved)


def _first_unverified(proofs: Sequence[Tuple[Problem, str]],
                      verifier) -> Optional[Tuple[int, str]]:
    """The position and diagnostic of the first of ``proofs``, ``(problem,
    proof)`` pairs, that ``judge_proof`` does not verify, or None. Up to
    ``verifier.concurrency`` are judged at once; once the first failure is
    known, the proofs not yet started are not judged."""
    def judge(pair):
        return judge_proof(*pair, verifier, {})

    # Imported here: the CLI's start-up does not pay for the thread pool.
    from concurrent.futures import ThreadPoolExecutor
    pool = ThreadPoolExecutor(max_workers=max(1, min(verifier.concurrency, len(proofs))))
    try:
        return next(((i, diagnostic) for i, (verdict, diagnostic)
                     in enumerate(pool.map(judge, proofs)) if verdict != "verified"), None)
    finally:
        pool.shutdown(cancel_futures=True)


def _check_attempt_lines(log: Sequence[ProofAttempt], by_name: Dict[str, Problem],
                         log_path: str) -> None:
    """Every line of the attempt log names a problem, and a problem's samples
    in a round run 0, 1, ... in file order, with none after the one that
    proved it: not in its round, and not in a later one. A problem has at
    most one verified sample, which the checks before this one ensure."""
    solved = {a.problem: (a.round, a.sample_index) for a in log if a.verdict == "verified"}
    drawn: Dict[Tuple[str, int], int] = {}  # samples per problem and round
    for a in log:
        where = f"{log_path}: {a.problem}: round {a.round}: sample_index {a.sample_index}"
        if a.problem not in by_name:
            raise ReportInvalid(f"{where}: no such problem")
        expected = drawn.get((a.problem, a.round), 0)
        if a.sample_index != expected:
            raise ReportInvalid(f"{where}: expected sample_index {expected}")
        drawn[a.problem, a.round] = expected + 1
        if (a.round, a.sample_index) > solved.get(a.problem, (a.round, a.sample_index)):
            proved_round, proved_index = solved[a.problem]
            raise ReportInvalid(f"{where}: drawn after sample_index {proved_index} "
                                f"of round {proved_round} proved it")


def format_report_table(report: HarnessReport) -> str:
    """Human-readable cumulative summary, one row per round."""
    lines = [f"{'round':>5}  {'new':>5}  {'proved':>6}  {'rate':>7}  {'samples':>7}"]
    for r in report.rounds:
        lines.append(
            f"{r.round:>5}  {r.newly_proved:>5}  {r.cumulative_proved:>6}  "
            f"{r.cumulative_rate:>6.1%}  {r.budget_used:>7}"
        )
    total = report.rounds[-1].cumulative_proved if report.rounds else 0
    lines.append(
        f"proved {total}/{report.problems_total} ({report.cumulative_rate:.1%})"
    )
    return "\n".join(lines) + "\n"
