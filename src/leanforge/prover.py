"""Iterative whole-proof writing against a verifier.

Each round prompts the backend with in-context examples, samples whole
proofs per unproved problem, and checks every sample. Proofs the verifier
accepts join the example pool for the next round, so later rounds prompt
with solved problems from the same dataset. The pool is frozen while a
round runs; all growth is committed between rounds, which keeps a round's
problems order-independent.
"""

import logging
import os
import re
import subprocess
import tempfile
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from . import artifacts, corpus
from .corpus import LexError
from .genclient import (
    FL_PROOF_SECTION,
    NL_SECTION,
    GenClientError,
    GenerationBudget,
    GenerationRequest,
    RetryPolicy,
    complete,
    prover_template,
    render_prompt,
)
from .trainprep import WhitespaceTokenizer

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
    source: str = "seed"  # "seed" or "round <n>"


@dataclass(frozen=True)
class IterationState:
    """Harness state between rounds. ``round`` is the next round to run."""

    round: int
    example_pool: Tuple[PoolExample, ...]
    proved: Dict[str, str]
    unproved: FrozenSet[str]
    budget_used: int
    first_success: Dict[str, Tuple[int, int]]

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
class HarnessReport:
    problems_total: int
    rounds: Tuple[RoundSummary, ...]
    proved: Dict[str, str]
    first_success: Dict[str, Tuple[int, int]]

    @property
    def cumulative_rate(self) -> float:
        return self.rounds[-1].cumulative_rate if self.rounds else 0.0


@dataclass
class HarnessConfig:
    n_samples: int = 128
    max_rounds: int = 2
    k_range: Tuple[int, int] = (10, 16)
    token_budget: int = 4096
    max_new_tokens: int = 1024
    temperature: float = 0.7
    stop_sequences: Tuple[str, ...] = ()
    tokenizer: object = None
    retry: Optional[RetryPolicy] = None
    budget: Optional[GenerationBudget] = None

    def __post_init__(self):
        if self.n_samples < 1:
            raise ValueError("n_samples must be >= 1")
        if self.max_rounds < 1:
            raise ValueError("max_rounds must be >= 1")
        lo, hi = self.k_range
        if not (1 <= lo <= hi):
            raise ValueError(f"k_range must satisfy 1 <= lo <= hi, got {self.k_range}")
        if self.token_budget < 1:
            raise ValueError("token_budget must be >= 1")


def initial_state(problems: Sequence[Problem], seed_pool: Sequence[PoolExample]) -> IterationState:
    names = [p.name for p in problems]
    if len(set(names)) != len(names):
        raise ValueError("problem names must be unique")
    return IterationState(
        round=1,
        example_pool=tuple(seed_pool),
        proved={},
        unproved=frozenset(names),
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


def format_pool_example(example: PoolExample) -> str:
    return (
        NL_SECTION + "\n" + example.nl.strip() + "\n\n"
        + FL_PROOF_SECTION + "\n" + example.fl.strip() + "\n\n"
    )


def assemble_proof_prompt(
    problem: Problem,
    example_pool: Sequence[PoolExample],
    k_range: Tuple[int, int] = (10, 16),
    tokenizer=None,
    token_budget: int = 4096,
) -> str:
    """Build the proving prompt with as many whole examples as fit.

    Examples are added greedily in selection order until the next one would
    push the assembled prompt past ``token_budget`` or the upper end of
    ``k_range`` is reached. The token total is recounted on the assembled
    text at each step, not summed per piece.
    """
    if not example_pool:
        raise ValueError("example pool is empty")
    tok = tokenizer or WhitespaceTokenizer()
    template = prover_template()
    candidates = selection_order(example_pool)[: k_range[1]]

    def assemble(k: int) -> str:
        examples = "".join(format_pool_example(e) for e in candidates[:k])
        return render_prompt(template, {
            "examples": examples,
            "nl": problem.nl_statement_and_proof,
            "fl_statement": problem.fl_statement,
        })

    base = assemble(0)
    base_count = tok.count(base)
    if base_count > token_budget:
        raise PromptExceedsBudget(problem.name, base_count, token_budget)
    chosen = base
    for k in range(1, len(candidates) + 1):
        candidate = assemble(k)
        if tok.count(candidate) > token_budget:
            break
        chosen = candidate
    return chosen


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


class MockVerifier:
    """Answer-key verifier: a proof is correct when its code tokens match
    the canonical proof exactly (comments and whitespace free)."""

    name = "mock"

    def __init__(self, answer_key: Dict[str, str]):
        self.answer_key = dict(answer_key)

    def check(self, problem: Problem, proof_text: str) -> Tuple[str, str]:
        key = self.answer_key.get(problem.name)
        if key is None:
            return "rejected", f"no canonical proof known for {problem.name}"
        try:
            divergence = corpus.token_divergence(key, proof_text)
        except LexError as exc:
            return "rejected", f"proof does not lex: {exc}"
        if divergence is None:
            return "verified", ""
        return "rejected", (
            f"token {divergence.index}: expected {divergence.expected!r}, "
            f"got {divergence.actual!r} at offset {divergence.offset}"
        )


class ExternalVerifier:
    """Runs a checker command on a temp .lean file holding imports + proof.

    Exit 0 means verified; anything else is a rejection with the captured
    stderr as diagnostic. Slow checks raise VerifierTimeout, a command that
    cannot run raises VerifierCrashed; the harness maps both to an error
    verdict for that sample and moves on.
    """

    name = "external"

    def __init__(self, command: Sequence[str], timeout_s: float = 300.0):
        if not command:
            raise ValueError("verifier command is empty")
        if timeout_s <= 0:
            raise ValueError("timeout_s must be positive")
        self.command = list(command)
        self.timeout_s = timeout_s

    def check(self, problem: Problem, proof_text: str) -> Tuple[str, str]:
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
                result = subprocess.run(
                    self.command + [handle.name],
                    capture_output=True,
                    text=True,
                    timeout=self.timeout_s,
                )
            except subprocess.TimeoutExpired as exc:
                raise VerifierTimeout(
                    f"verifier exceeded {self.timeout_s}s on {problem.name}"
                ) from exc
            except OSError as exc:
                raise VerifierCrashed(
                    f"verifier command {self.command[0]!r} failed to run: {exc}"
                ) from exc
            if result.returncode == 0:
                return "verified", ""
            diagnostic = result.stderr.strip() or result.stdout.strip()
            return "rejected", diagnostic or f"exit status {result.returncode}"
        finally:
            os.unlink(handle.name)


def evaluate_sample(
    problem: Problem, sample_index: int, generated_text: str, verifier
) -> ProofAttempt:
    """Extract, screen, and verify one generated sample."""
    try:
        proof = extract_proof(generated_text, problem)
    except NoProofFound as exc:
        return ProofAttempt(problem.name, sample_index, generated_text, "",
                            "rejected", str(exc))
    findings = corpus.detect_lean3_artifacts(proof)
    if findings:
        patterns = ", ".join(f.pattern for f in findings)
        return ProofAttempt(problem.name, sample_index, generated_text, proof,
                            "rejected", f"pre-verification screen: {patterns}")
    try:
        verdict, diagnostic = verifier.check(problem, proof)
    except (VerifierTimeout, VerifierCrashed) as exc:
        return ProofAttempt(problem.name, sample_index, generated_text, proof,
                            "error", str(exc))
    return ProofAttempt(problem.name, sample_index, generated_text, proof,
                        verdict, diagnostic)


# --- the iteration loop --------------------------------------------------------


def run_iteration(
    state: IterationState,
    problems: Sequence[Problem],
    backend,
    verifier,
    config: HarnessConfig,
) -> IterationState:
    """Run one round over every unproved problem and commit the results.

    Sampling stops early per problem on the first verified proof. The
    example pool visible to prompts is the one the round started with;
    newly verified proofs only join it in the returned state.
    """
    tokenizer = config.tokenizer or WhitespaceTokenizer()
    newly: List[Tuple[Problem, str, int]] = []
    budget_used = state.budget_used
    for problem in problems:
        if problem.name not in state.unproved:
            continue
        try:
            prompt = assemble_proof_prompt(
                problem, state.example_pool, config.k_range, tokenizer,
                config.token_budget)
        except PromptExceedsBudget as exc:
            logger.warning("skipping %s this round: %s", problem.name, exc)
            continue
        for sample_index in range(config.n_samples):
            request = GenerationRequest(
                prompt=prompt,
                max_new_tokens=config.max_new_tokens,
                temperature=config.temperature,
                n_samples=1,
                stop_sequences=config.stop_sequences,
                request_id=f"prove:{problem.name}:r{state.round}:s{sample_index}",
            )
            try:
                response = complete(request, backend, retry=config.retry,
                                    budget=config.budget)
            except GenClientError as exc:
                logger.warning("generation for %s stopped at sample %d: %s",
                               problem.name, sample_index, exc)
                break
            budget_used += 1
            attempt = evaluate_sample(
                problem, sample_index, response.samples[0], verifier)
            if attempt.verdict == "verified":
                newly.append((problem, attempt.extracted_proof, sample_index))
                break

    proved = dict(state.proved)
    first_success = dict(state.first_success)
    pool = list(state.example_pool)
    for problem, proof, sample_index in newly:
        proved[problem.name] = proof
        first_success[problem.name] = (state.round, sample_index)
        pool.append(PoolExample(
            name=problem.name,
            nl=problem.nl_statement_and_proof,
            fl=proof,
            source=f"round {state.round}",
        ))
    return IterationState(
        round=state.round + 1,
        example_pool=tuple(pool),
        proved=proved,
        unproved=state.unproved - {p.name for p, _, _ in newly},
        budget_used=budget_used,
        first_success=first_success,
    )


def run_iterative(
    problems: Sequence[Problem],
    seed_pool: Sequence[PoolExample],
    backend,
    verifier,
    config: Optional[HarnessConfig] = None,
) -> HarnessReport:
    """Run rounds until max_rounds or a round proves nothing new."""
    config = config or HarnessConfig()
    if not seed_pool:
        raise ValueError("seed pool must be nonempty")
    state = initial_state(problems, seed_pool)
    rounds: List[RoundSummary] = []
    for round_number in range(1, config.max_rounds + 1):
        before = len(state.proved)
        state = run_iteration(state, problems, backend, verifier, config)
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
    )


# --- reports -------------------------------------------------------------------


def save_report(report: HarnessReport, path: str) -> None:
    """One header line, then one line per proved problem, name-sorted."""
    header = {
        "kind": "harness-report",
        "problems_total": report.problems_total,
        "rounds": [
            {
                "round": r.round,
                "newly_proved": r.newly_proved,
                "cumulative_proved": r.cumulative_proved,
                "cumulative_rate": r.cumulative_rate,
                "budget_used": r.budget_used,
            }
            for r in report.rounds
        ],
    }
    artifacts.write_jsonl(path, [header, *(
        {
            "name": name,
            "round": report.first_success[name][0],
            "sample_index": report.first_success[name][1],
            "proof": report.proved[name],
        }
        for name in sorted(report.proved)
    )])


def load_report(path: str, problems: Sequence[Problem], verifier) -> HarnessReport:
    """Load a report, re-verifying every stored proof. Stale verdicts raise."""
    by_name = {p.name: p for p in problems}
    lines = artifacts.read_jsonl(path)
    if not lines:
        raise ReportInvalid(f"{path}: empty report")
    header = lines[0].entry
    if header.get("kind") != "harness-report":
        raise ReportInvalid(f"{path}: not a harness report")
    proved: Dict[str, str] = {}
    first_success: Dict[str, Tuple[int, int]] = {}
    for lineno, _, entry in lines[1:]:
        name = entry["name"]
        problem = by_name.get(name)
        if problem is None:
            raise ReportInvalid(f"{path}:{lineno}: unknown problem {name}")
        verdict, diagnostic = verifier.check(problem, entry["proof"])
        if verdict != "verified":
            raise ReportInvalid(
                f"{path}:{lineno}: stored proof for {name} no longer verifies"
                + (f": {diagnostic}" if diagnostic else "")
            )
        proved[name] = entry["proof"]
        first_success[name] = (entry["round"], entry["sample_index"])
    rounds = tuple(
        RoundSummary(
            round=r["round"],
            newly_proved=r["newly_proved"],
            cumulative_proved=r["cumulative_proved"],
            cumulative_rate=r["cumulative_rate"],
            budget_used=r["budget_used"],
        )
        for r in header.get("rounds", [])
    )
    return HarnessReport(
        problems_total=header["problems_total"],
        rounds=rounds,
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
