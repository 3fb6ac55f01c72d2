"""Iterative whole-proof writing against a verifier.

Each round prompts the backend with in-context examples, samples whole
proofs per unproved problem, and checks every sample. Proofs the verifier
accepts join the example pool for the next round, so later rounds prompt
with solved problems from the same dataset. The pool is frozen while a
round runs; all growth is committed between rounds, which keeps a round's
problems independent, so several of them can be in flight at once.
"""

import logging
import os
import re
import signal
import subprocess
import tempfile
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from . import artifacts, corpus
from .config import ProverSettings
from .corpus import LeanToken, LexError
from .genclient import Ask, GenClientError, Sampler, in_order
from .prompts import example_block, proof_prompt
from .trainprep import fit_blocks

logger = logging.getLogger(__name__)


class PromptExceedsBudget(RuntimeError):
    """Even the zero-example prompt is larger than the token budget."""

    def __init__(self, name: str, needed: int, budget: int):
        self.name = name
        self.needed = needed
        self.budget = budget
        super().__init__(
            f"prompt for {name} needs {needed} tokens with no examples, "
            f"budget is {budget}"
        )


class NoProofFound(RuntimeError):
    """The generated text contains no code region declaring the problem."""


class VerifierTimeout(RuntimeError):
    pass


class VerifierCrashed(RuntimeError):
    pass


class ReportInvalid(RuntimeError):
    """A saved report does not re-verify against the current verifier."""


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
        """The statement's semantic token texts, lexed on first use; None
        when the statement does not lex."""
        tokens = _lex_or_none(self.fl_statement)
        if tokens is None:
            return None
        return [t.text for t in tokens if t.kind in corpus.SEMANTIC_KINDS]


@dataclass(frozen=True)
class ProofAttempt:
    problem_name: str
    sample_index: int
    generated_text: str
    extracted_proof: str
    verdict: str  # "verified" | "rejected" | "error"
    diagnostic: str = ""

    def __post_init__(self):
        if self.verdict not in ("verified", "rejected", "error"):
            raise ValueError(f"unknown verdict {self.verdict!r}")


@dataclass(frozen=True)
class PoolExample:
    """An in-context example: NL text plus a full FL theorem-and-proof."""

    name: str
    nl: str
    fl: str
    source: str = artifacts.wire(None, default="seed")  # or "round <n>"


@dataclass(frozen=True)
class IterationState:
    """Harness state between rounds. ``round`` is the next round to run."""

    round: int
    example_pool: Tuple[PoolExample, ...]
    proved: Dict[str, str]
    unproved: FrozenSet[str]
    budget_used: int
    first_success: Dict[str, Tuple[int, int]]
    attempts: Tuple[dict, ...] = ()  # attempt log lines of every round run

    def __post_init__(self):
        if self.round < 1:
            raise ValueError("round must be >= 1")
        overlap = set(self.proved) & self.unproved
        if overlap:
            raise ValueError(f"problems both proved and unproved: {sorted(overlap)}")


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


@dataclass(frozen=True)
class HarnessReport:
    problems_total: int
    rounds: Tuple[RoundSummary, ...]
    proved: Dict[str, str]
    first_success: Dict[str, Tuple[int, int]]
    # The attempt log; it is written to its own file, not to the report.
    attempts: Tuple[dict, ...] = field(default=(), compare=False, repr=False)

    @property
    def cumulative_rate(self) -> float:
        return self.rounds[-1].cumulative_rate if self.rounds else 0.0


def _by_name(problems: Sequence[Problem]) -> Dict[str, Problem]:
    by_name = {p.name: p for p in problems}
    if len(by_name) != len(problems):
        raise ValueError("problem names must be unique")
    return by_name


def initial_state(problems: Sequence[Problem], seed_pool: Sequence[PoolExample]) -> IterationState:
    return IterationState(
        round=1,
        example_pool=tuple(seed_pool),
        proved={},
        unproved=frozenset(_by_name(problems)),
        budget_used=0,
        first_success={},
    )


# --- prompt assembly -----------------------------------------------------------


def selection_order(pool: Sequence[PoolExample]) -> List[PoolExample]:
    """Examples in inclusion priority: most recently verified first, then
    seeds in their original order."""
    verified = [e for e in pool if e.source != "seed"]
    seeds = [e for e in pool if e.source == "seed"]
    return list(reversed(verified)) + seeds


def assemble_proof_prompt(
    problem: Problem,
    example_pool: Sequence[PoolExample],
    k_range: Tuple[int, int],
    tokenizer,
    token_budget: int,
) -> str:
    """Build the proving prompt with as many whole examples as fit.

    Examples are added in selection order until the next one would push the
    prompt past ``token_budget`` or the upper end of ``k_range`` is reached.
    The zero-example prompt and each example block are counted once and
    summed (``trainprep.fit_blocks``): counts add at the whitespace that
    ends every block, so the sum is the count of the assembled prompt. A
    prompt with fewer examples than the lower end of ``k_range`` is still
    returned, with a warning.
    """
    if not example_pool:
        raise ValueError("example pool is empty")
    nl, statement = problem.nl_statement_and_proof, problem.fl_statement
    base = tokenizer.count(proof_prompt((), nl, statement))
    if base > token_budget:
        raise PromptExceedsBudget(problem.name, base, token_budget)
    blocks = (
        example_block(e.nl, e.fl)
        for e in selection_order(example_pool)[: k_range[1]]
    )
    taken, _ = fit_blocks(
        base, ((b, tokenizer.count(b)) for b in blocks), token_budget)
    if len(taken) < k_range[0]:
        logger.warning("prompt for %s fits only %d examples, k_min is %d",
                       problem.name, len(taken), k_range[0])
    return proof_prompt(taken, nl, statement)


# --- proof extraction ----------------------------------------------------------

_FENCE = re.compile(r"```[^\n]*\n(.*?)```", re.DOTALL)


def _declaration_pattern(name: str) -> re.Pattern:
    return re.compile(
        r"^[ \t]*(?:theorem|lemma)\s+" + re.escape(name) + r"(?![\w'])",
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


def _lex_or_none(proof: str) -> Optional[List[LeanToken]]:
    """The proof's tokens, or None when it does not lex. Each sample is
    lexed once; the screen and the verifier share the result."""
    try:
        return corpus.lex_lean(proof)
    except LexError:
        return None


def screen_proof(
    problem: Problem, proof: str, tokens: Optional[Sequence[LeanToken]]
) -> Optional[str]:
    """The diagnostic for a proof no checker should be asked about, else None.

    ``tokens`` is ``_lex_or_none(proof)``. Rejects Lean3 leftovers, code
    tokens that use ``sorry`` or ``admit``, and a proof whose semantic
    tokens do not begin with those of the problem's statement (a checker
    would accept a proof of an easier statement under the same name);
    comments and string literals are not code. A proof that does not lex
    gets only the regex Lean3 scan and is otherwise left to the verifier.
    """
    patterns = [f.pattern for f in corpus.detect_lean3_artifacts(proof, tokens)]
    if tokens is not None:
        if any(t.kind is corpus.TokenKind.CODE and _PLACEHOLDER.search(t.text)
               for t in tokens):
            patterns.append("sorry")
        statement = problem.statement_texts
        if statement is not None:
            head = [t.text for t in tokens if t.kind in corpus.SEMANTIC_KINDS]
            if head[:len(statement)] != statement:
                patterns.append("statement changed")
    if not patterns:
        return None
    return "pre-verification screen: " + ", ".join(patterns)


class MockVerifier:
    """Answer-key verifier: a proof is correct when its code tokens match
    the canonical proof exactly (comments and whitespace free). Each answer
    key is lexed once, on its first check."""

    name = "mock"

    def __init__(self, answer_key: Dict[str, str]):
        self.answer_key = dict(answer_key)
        self._key_tokens: Dict[str, List[LeanToken]] = {}

    def check(
        self, problem: Problem, proof_text: str,
        tokens: Optional[Sequence[LeanToken]],
    ) -> Tuple[str, str]:
        key = self.answer_key.get(problem.name)
        if key is None:
            return "rejected", f"no canonical proof known for {problem.name}"
        if tokens is None:
            return "rejected", "proof does not lex"
        if problem.name not in self._key_tokens:
            try:
                self._key_tokens[problem.name] = corpus.lex_lean(key)
            except LexError as exc:
                return "rejected", f"canonical proof does not lex: {exc}"
        divergence = corpus.token_divergence(self._key_tokens[problem.name], tokens)
        if divergence is None:
            return "verified", ""
        return "rejected", str(divergence)


class ExternalVerifier:
    """Runs a checker command on a temp .lean file holding imports + proof;
    the proof's tokens are not needed.

    Exit 0 means verified; anything else is a rejection with the captured
    stderr as diagnostic. The checker runs in its own session: a slow check
    is killed with every process it started and raises VerifierTimeout. A
    command that cannot run raises VerifierCrashed; the harness maps both to
    an error verdict for that sample and moves on.
    """

    name = "external"

    def __init__(self, command: Sequence[str], timeout_s: float = 300.0):
        self.command = list(command)
        self.timeout_s = timeout_s

    def check(
        self, problem: Problem, proof_text: str,
        tokens: Optional[Sequence[LeanToken]],
    ) -> Tuple[str, str]:
        content = ""
        if problem.imports.strip():
            content = problem.imports.rstrip() + "\n\n"
        content += proof_text if proof_text.endswith("\n") else proof_text + "\n"
        handle = tempfile.NamedTemporaryFile(
            mode="w", suffix=".lean", encoding="utf-8", delete=False)
        try:
            handle.write(content)
            handle.close()
            try:
                process = subprocess.Popen(
                    self.command + [handle.name],
                    stdout=subprocess.PIPE,
                    stderr=subprocess.PIPE,
                    text=True,
                    start_new_session=True,
                )
            except OSError as exc:
                raise VerifierCrashed(
                    f"verifier command {self.command[0]!r} failed to run: {exc}"
                ) from exc
            with process:
                try:
                    stdout, stderr = process.communicate(timeout=self.timeout_s)
                except subprocess.TimeoutExpired as exc:
                    os.killpg(process.pid, signal.SIGKILL)
                    process.communicate()
                    raise VerifierTimeout(
                        f"verifier exceeded {self.timeout_s}s on {problem.name}"
                    ) from exc
            if process.returncode == 0:
                return "verified", ""
            diagnostic = stderr.strip() or stdout.strip()
            return "rejected", diagnostic or f"exit status {process.returncode}"
        finally:
            os.unlink(handle.name)


def judge_proof(problem: Problem, proof: str, verifier) -> Tuple[str, str]:
    """The verdict and diagnostic for ``proof``, sampled or stored: it is
    lexed once, screened, then checked. A verifier that times out or cannot
    run gives an ``error`` verdict."""
    tokens = _lex_or_none(proof)
    screened = screen_proof(problem, proof, tokens)
    if screened:
        return "rejected", screened
    try:
        return verifier.check(problem, proof, tokens)
    except (VerifierTimeout, VerifierCrashed) as exc:
        return "error", str(exc)


def evaluate_sample(
    problem: Problem, sample_index: int, generated_text: str, verifier
) -> ProofAttempt:
    """Extract one generated sample's proof and judge it."""
    try:
        proof = extract_proof(generated_text, problem)
    except NoProofFound as exc:
        return ProofAttempt(problem.name, sample_index, generated_text, "",
                            "rejected", str(exc))
    return ProofAttempt(problem.name, sample_index, generated_text, proof,
                        *judge_proof(problem, proof, verifier))


# --- the iteration loop --------------------------------------------------------


DIAGNOSTIC_CHARS = 200  # diagnostic length kept in the attempt log


def _prove_problem(
    problem: Problem,
    round_number: int,
    ask: Ask,
    verifier,
    n_samples: int,
) -> Tuple[int, List[dict], Optional[ProofAttempt]]:
    """Sample ``problem`` until the first verified proof or ``n_samples``.

    ``ask`` sends the problem's prompt. Returns the samples drawn, their
    attempt log lines and the verified attempt, if any.
    """
    log: List[dict] = []
    for sample_index in range(n_samples):
        try:
            response = ask(f"prove:{problem.name}:r{round_number}:s{sample_index}")
        except GenClientError as exc:
            logger.warning("generation for %s stopped at sample %d: %s",
                           problem.name, sample_index, exc)
            return sample_index, log, None
        attempt = evaluate_sample(
            problem, sample_index, response.samples[0], verifier)
        log.append({
            "problem": problem.name,
            "round": round_number,
            "sample_index": sample_index,
            "verdict": attempt.verdict,
            "diagnostic": attempt.diagnostic[:DIAGNOSTIC_CHARS],
        })
        if attempt.verdict == "verified":
            return sample_index + 1, log, attempt
    return n_samples, log, None


def run_iteration(
    state: IterationState,
    problems: Sequence[Problem],
    sampler: Sampler,
    verifier,
    settings: ProverSettings,
    tokenizer,
) -> IterationState:
    """Run one round over every unproved problem and commit the results.

    Sampling stops early per problem on the first verified proof. The
    example pool visible to prompts is the one the round started with;
    newly verified proofs only join it in the returned state.

    Problems go through ``genclient.in_order``: up to the backend's
    ``concurrency`` are in flight, each with the sample sequence a serial
    run gives it, and results are committed in problem order. With a
    budget, each problem reserves ``n_samples`` requests of its prompt,
    so a run that hits a ceiling stops at the samples a serial run
    stops at.
    """
    def units():
        for problem in problems:
            if problem.name not in state.unproved:
                continue
            try:
                prompt = assemble_proof_prompt(
                    problem, state.example_pool, (settings.k_min, settings.k_max),
                    tokenizer, settings.token_budget)
            except PromptExceedsBudget as exc:
                logger.warning("skipping %s this round: %s", problem.name, exc)
                continue
            yield problem, prompt

    def work(problem, ask):
        return _prove_problem(problem, state.round, ask, verifier, settings.n_samples)

    results = in_order(units(), work, sampler, settings.n_samples)
    proved = dict(state.proved)
    first_success = dict(state.first_success)
    pool_examples = list(state.example_pool)
    attempts = list(state.attempts)
    budget_used = state.budget_used
    newly = set()
    for problem, (drawn, log, verified) in results:
        budget_used += drawn
        attempts.extend(log)
        if verified is None:
            continue
        newly.add(problem.name)
        proved[problem.name] = verified.extracted_proof
        first_success[problem.name] = (state.round, verified.sample_index)
        pool_examples.append(PoolExample(
            name=problem.name,
            nl=problem.nl_statement_and_proof,
            fl=verified.extracted_proof,
            source=f"round {state.round}",
        ))
    return IterationState(
        round=state.round + 1,
        example_pool=tuple(pool_examples),
        proved=proved,
        unproved=state.unproved - newly,
        budget_used=budget_used,
        first_success=first_success,
        attempts=tuple(attempts),
    )


def run_iterative(
    problems: Sequence[Problem],
    seed_pool: Sequence[PoolExample],
    sampler: Sampler,
    verifier,
    settings: ProverSettings,
    tokenizer,
) -> HarnessReport:
    """Run rounds until ``settings.max_rounds`` or a round proves nothing
    new. Prompts are counted with ``tokenizer``."""
    if not seed_pool:
        raise ValueError("seed pool must be nonempty")
    state = initial_state(problems, seed_pool)
    rounds: List[RoundSummary] = []
    for round_number in range(1, settings.max_rounds + 1):
        before = len(state.proved)
        state = run_iteration(state, problems, sampler, verifier, settings, tokenizer)
        newly = len(state.proved) - before
        rate = len(state.proved) / len(problems) if problems else 0.0
        rounds.append(RoundSummary(
            round=round_number,
            newly_proved=newly,
            cumulative_proved=len(state.proved),
            cumulative_rate=rate,
            budget_used=state.budget_used,
        ))
        if newly == 0:
            break
    return HarnessReport(
        problems_total=len(problems),
        rounds=tuple(rounds),
        proved=dict(state.proved),
        first_success=dict(state.first_success),
        attempts=state.attempts,
    )


# --- reports -------------------------------------------------------------------


def save_report(report: HarnessReport, path: str) -> None:
    """One header line, then one line per proved problem, name-sorted."""
    artifacts.write_jsonl(path, [
        ReportHeader("harness-report", report.problems_total, report.rounds),
        *(ReportProof(name, *report.first_success[name], report.proved[name])
          for name in sorted(report.proved)),
    ])


def load_report(path: str, problems: Sequence[Problem], verifier) -> HarnessReport:
    """Load a report, re-verifying every stored proof. Stale verdicts raise."""
    by_name = _by_name(problems)
    lines = artifacts.read_jsonl(path)
    if not lines:
        raise ReportInvalid(f"{path}: empty report")
    header = artifacts.as_record(path, lines[0], ReportHeader)
    if header.kind != "harness-report":
        raise ReportInvalid(f"{path}:{lines[0].lineno}: not a harness report")
    proved: Dict[str, str] = {}
    first_success: Dict[str, Tuple[int, int]] = {}
    for line in lines[1:]:
        entry = artifacts.as_record(path, line, ReportProof)
        problem = by_name.get(entry.name)
        if problem is None:
            raise ReportInvalid(f"{path}:{line.lineno}: unknown problem {entry.name}")
        if entry.name in proved:
            raise ReportInvalid(f"{path}:{line.lineno}: {entry.name} is listed twice")
        verdict, diagnostic = judge_proof(problem, entry.proof, verifier)
        if verdict != "verified":
            raise ReportInvalid(
                f"{path}:{line.lineno}: stored proof for {entry.name} no longer verifies"
                + (f": {diagnostic}" if diagnostic else "")
            )
        proved[entry.name] = entry.proof
        first_success[entry.name] = (entry.round, entry.sample_index)
    return HarnessReport(
        problems_total=header.problems_total,
        rounds=header.rounds,
        proved=proved,
        first_success=first_success,
    )


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
