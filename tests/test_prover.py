"""Tests for the iterative proof-writing harness."""

import functools
import json
import logging
import os
import random
import signal
import sys
import textwrap
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leanforge import corpus
from leanforge.artifacts import write_jsonl
from leanforge.config import ProverSettings
from leanforge.genclient import BackendUnavailable
from leanforge.prompts import (
    FL_PROOF_SECTION,
    FL_STATEMENT_SECTION,
    NL_SECTION,
    PromptCounter,
    PromptExceedsBudget,
)
from leanforge.prover import (
    ExternalVerifier,
    HarnessReport,
    MockVerifier,
    NoProofFound,
    PoolExample,
    Problem,
    ProofAttempt,
    ReportInvalid,
    ReportProof,
    RoundSummary,
    VerifierError,
    assemble_proof_prompt,
    evaluate_sample,
    extract_proof,
    format_report_table,
    load_report,
    run_iteration,
    run_iterative,
    save_report,
    screen_proof,
)
from leanforge.trainprep import WhitespaceTokenizer

from fixtures.listings import LEAN3_OUTPUT_A, SQINEQ_COMMENTED
from support import (
    lean_delimited_texts,
    lex_or_none,
    make_budget,
    make_sampler,
    mock_backend,
    reference_mock_check,
    reference_screen_proof,
    retry_policy,
    strip_comments,
)


def make_problem(i):
    return Problem(
        name=f"prob{i:02d}",
        fl_statement=f"theorem prob{i:02d} : {i} + 0 = {i} :=",
        nl_statement_and_proof=(
            f"Statement: adding zero to {i} gives {i}. "
            f"Proof: by the additive identity."),
        imports="import Mathlib",
    )


def prompt_for(problem, pool, k_range=(10, 16), token_budget=4096):
    counter = PromptCounter(WhitespaceTokenizer())
    return assemble_proof_prompt(
        problem, [counter.block(e.nl, e.fl) for e in pool[:k_range[1]]], k_range[0],
        counter, token_budget)


def canonical_proof(i):
    return (f"theorem prob{i:02d} : {i} + 0 = {i} := by\n"
            f"  norm_num\n")


def seed_examples(count):
    return [
        PoolExample(
            name=f"seed{j}",
            nl=f"Statement: seed fact {j}. Proof: obvious.",
            fl=f"theorem seed{j} : True := by\n  trivial\n",
        )
        for j in range(count)
    ]


class TestDomainTypes:
    def test_problem_validation(self):
        with pytest.raises(ValueError, match="fl_statement"):
            Problem(name="x", fl_statement="", nl_statement_and_proof="y")
        with pytest.raises(ValueError, match="name"):
            Problem(name="", fl_statement="theorem x : True :=",
                    nl_statement_and_proof="y")

    def test_attempt_verdicts(self):
        with pytest.raises(ValueError, match="verdict"):
            ProofAttempt("p", 1, 0, "maybe")


def count_examples(prompt):
    # each included example carries one proof-section marker; the prompt's
    # own trailing marker adds one more
    return prompt.count(FL_PROOF_SECTION) - 1


def oracle_block(example):
    """Independent rendering of one in-context example: NL then FL, stripped."""
    return (f"{NL_SECTION}\n{example.nl.strip()}\n\n"
            f"{FL_PROOF_SECTION}\n{example.fl.strip()}\n\n")


class TestAssemblePrompt:
    def test_pool_of_one(self):
        prompt = prompt_for(make_problem(0), seed_examples(1), token_budget=10_000)
        assert count_examples(prompt) == 1

    def test_fewer_than_k_min_warns(self, caplog):
        def warnings(k_range, budget=10_000):
            caplog.clear()
            with caplog.at_level(logging.WARNING, logger="leanforge.prover"):
                prompt = prompt_for(make_problem(0), seed_examples(1), k_range,
                                    token_budget=budget)
            return count_examples(prompt), [r.getMessage() for r in caplog.records]

        assert warnings((10, 16)) == (
            1, ["prompt for prob00 fits only 1 examples, k_min is 10"])
        assert warnings((1, 16)) == (1, [])
        zero_budget = WhitespaceTokenizer().count(prompt_for(
            make_problem(0), seed_examples(1), (1, 1), token_budget=10_000)) - 1
        assert warnings((1, 16), zero_budget) == (
            0, ["prompt for prob00 fits only 0 examples, k_min is 1"])

    def test_upper_clamp_at_sixteen(self):
        prompt = prompt_for(make_problem(0), seed_examples(30), token_budget=100_000)
        assert count_examples(prompt) == 16

    def test_small_pool_used_whole(self):
        prompt = prompt_for(make_problem(0), seed_examples(3), token_budget=100_000)
        assert count_examples(prompt) == 3

    def test_tight_budget_matches_greedy_oracle(self):
        tok = WhitespaceTokenizer()
        pool = seed_examples(30)
        problem = make_problem(0)
        base_tokens = tok.count(prompt_for(
            problem, pool, (1, 1), 100_000)) - tok.count(
                oracle_block(pool[0]))

        ordered = pool[:16]
        piece_tokens = [tok.count(oracle_block(e)) for e in ordered]
        for budget in range(base_tokens, base_tokens + sum(piece_tokens) + 5, 7):
            total, expected_k = base_tokens, 0
            while (expected_k < len(piece_tokens)
                   and total + piece_tokens[expected_k] <= budget):
                total += piece_tokens[expected_k]
                expected_k += 1
            prompt = prompt_for(problem, pool, (10, 16), budget)
            assert count_examples(prompt) == expected_k, budget
            assert tok.count(prompt) <= budget

    def test_zero_example_prompt_over_budget_raises(self):
        with pytest.raises(PromptExceedsBudget) as info:
            prompt_for(make_problem(0), seed_examples(1), token_budget=3)
        assert info.value.budget == 3
        assert info.value.needed > 3

    def test_problem_text_after_examples(self):
        problem = make_problem(7)
        pool = seed_examples(2)
        prompt = prompt_for(problem, pool, token_budget=100_000)
        assert prompt.endswith(FL_PROOF_SECTION + "\n")
        last_nl = prompt.rindex(NL_SECTION)
        last_fl_statement = prompt.rindex(FL_STATEMENT_SECTION)
        assert last_nl < last_fl_statement
        assert prompt.index("seed1") < last_nl
        assert prompt.index(problem.nl_statement_and_proof) > prompt.index("seed1")
        assert prompt.index(problem.fl_statement) > last_fl_statement


SQ_PROBLEM = Problem(
    name="algebra_sqineq_unitcircatbpamblt1",
    fl_statement="theorem algebra_sqineq_unitcircatbpamblt1 "
                 "(a b: ℝ) (h₀ : a^2 + b^2 = 1) : a * b + (a - b) ≤ 1 :=",
    nl_statement_and_proof="Statement: the unit-circle bound. Proof: squares.",
)


class TestExtractProof:
    def test_published_listing_from_fenced_reply(self):
        text = ("Sure, here is the Lean4 proof:\n\n```lean\n"
                + SQINEQ_COMMENTED + "```\nI hope this helps.")
        assert extract_proof(text, SQ_PROBLEM) == SQINEQ_COMMENTED

    def test_unfenced_theorem_headed_region(self):
        problem = make_problem(3)
        text = "The proof goes as follows.\n" + canonical_proof(3)
        assert extract_proof(text, problem) == canonical_proof(3)

    def test_fenced_region_preferred(self):
        problem = make_problem(3)
        fenced_variant = f"theorem prob03 : 3 + 0 = 3 := by\n  simp\n"
        text = (canonical_proof(3)
                + "\nBetter version:\n```lean\n" + fenced_variant + "```\n")
        assert extract_proof(text, problem) == fenced_variant

    def test_name_must_match(self):
        with pytest.raises(NoProofFound, match="prob04"):
            extract_proof(canonical_proof(3), make_problem(4))

    def test_name_boundary_respected(self):
        problem = Problem(name="p1", fl_statement="theorem p1 : True :=",
                          nl_statement_and_proof="x")
        with pytest.raises(NoProofFound):
            extract_proof("theorem p10 : True := by\n  trivial\n", problem)

    def test_longer_name_with_the_problem_name_as_prefix_skipped(self):
        # `foo.aux` and `foo!` are other names: the slice starts at `foo`
        problem = Problem(name="foo", fl_statement="theorem foo : True :=",
                          nl_statement_and_proof="x")
        proof = "theorem foo : True := by\n  trivial\n"
        for other in ("foo.aux", "foo!"):
            text = f"theorem {other} : True := by\n  trivial\n\n" + proof
            assert extract_proof(text, problem) == proof, other

    def test_empty_text(self):
        with pytest.raises(NoProofFound):
            extract_proof("", make_problem(0))

    def test_lemma_keyword_accepted(self):
        problem = Problem(name="aux", fl_statement="lemma aux : True :=",
                          nl_statement_and_proof="x")
        text = "lemma aux : True := by\n  trivial\n"
        assert extract_proof(text, problem) == text

    def test_comments_retained(self):
        problem = make_problem(5)
        body = ("theorem prob05 : 5 + 0 = 5 := by\n"
                "  -- zero is the additive identity\n"
                "  norm_num\n")
        text = "```lean\n" + body + "```"
        assert "-- zero is the additive identity" in extract_proof(text, problem)


class TestMockVerifier:
    def test_comment_invariance(self):
        verifier = MockVerifier({"prob03": canonical_proof(3)})
        commented = ("theorem prob03 : 3 + 0 = 3 := by\n"
                     "  -- the simp-normal form closes this\n"
                     "  norm_num  -- done\n")
        assert verifier.check(make_problem(3), commented) == ("verified", "")

    def test_tactic_difference_rejected(self):
        verifier = MockVerifier({"prob03": canonical_proof(3)})
        wrong = canonical_proof(3).replace("norm_num", "simp")
        assert verifier.check(make_problem(3), wrong) == (
            "rejected", "token 10: expected 'norm_num', got 'simp' at offset 35")

    def test_unknown_problem_rejected(self):
        verifier = MockVerifier({})
        verdict, diagnostic = verifier.check(make_problem(9), "x := y")
        assert verdict == "rejected"
        assert "prob09" in diagnostic

    def test_unlexable_proof_rejected_not_raised(self):
        verifier = MockVerifier({"prob03": canonical_proof(3)})
        verdict, diagnostic = verifier.check(make_problem(3), '"unterminated')
        assert verdict == "rejected"
        assert "lex" in diagnostic


@pytest.fixture
def checker_script(tmp_path):
    """A stand-in external checker: accepts files containing `norm_num`
    after an `import Mathlib` line, complains on stderr otherwise."""
    script = tmp_path / "checker.py"
    script.write_text(textwrap.dedent("""\
        import sys
        content = open(sys.argv[1], encoding="utf-8").read()
        if "import Mathlib" not in content:
            sys.stderr.write("missing imports\\n")
            sys.exit(1)
        if "norm_num" not in content:
            sys.stderr.write("proof incomplete\\n")
            sys.exit(1)
        sys.exit(0)
    """), encoding="utf-8")
    return [sys.executable, str(script)]


class TestExternalVerifier:
    def test_accepting_run(self, checker_script):
        verifier = ExternalVerifier(checker_script, timeout_s=30)
        verdict, diagnostic = verifier.check(make_problem(3), canonical_proof(3))
        assert (verdict, diagnostic) == ("verified", "")

    def test_rejection_captures_stderr(self, checker_script):
        verifier = ExternalVerifier(checker_script, timeout_s=30)
        bad = canonical_proof(3).replace("norm_num", "sorry")
        verdict, diagnostic = verifier.check(make_problem(3), bad)
        assert verdict == "rejected"
        assert diagnostic == "proof incomplete"

    def test_imports_written_before_proof(self, checker_script):
        verifier = ExternalVerifier(checker_script, timeout_s=30)
        bare = Problem(name="prob03", fl_statement="theorem prob03 : True :=",
                       nl_statement_and_proof="x", imports="")
        verdict, diagnostic = verifier.check(bare, canonical_proof(3))
        assert (verdict, diagnostic) == ("rejected", "missing imports")

    def test_diagnostic_that_is_not_utf8_is_decoded_with_replacement(self):
        verifier = ExternalVerifier(
            ["sh", "-c", "printf 'bad \\377 byte' >&2; exit 1"], timeout_s=30)
        assert verifier.check(make_problem(0), canonical_proof(0)) == (
            "rejected", "bad \ufffd byte")

    def test_timeout_raises(self, tmp_path):
        slow = tmp_path / "slow.py"
        slow.write_text("import time; time.sleep(30)\n", encoding="utf-8")
        verifier = ExternalVerifier([sys.executable, str(slow)], timeout_s=0.3)
        with pytest.raises(VerifierError, match="exceeded 0.3s"):
            verifier.check(make_problem(0), canonical_proof(0))

    @pytest.mark.skipif(not os.path.isdir("/proc"), reason="reads /proc/<pid>/stat")
    def test_timeout_kills_checker_children(self, tmp_path):
        # a checker that leaves the work to a child, as `lake env lean` does
        pid_file = tmp_path / "child.pid"
        script = tmp_path / "checker.sh"
        script.write_text(f"sleep 30 &\necho $! > '{pid_file}'\nwait\n",
                          encoding="utf-8")
        verifier = ExternalVerifier(["sh", str(script)], timeout_s=0.5)
        with pytest.raises(VerifierError, match="exceeded 0.5s"):
            verifier.check(make_problem(0), canonical_proof(0))
        pid = int(pid_file.read_text(encoding="utf-8"))
        try:
            deadline = time.monotonic() + 5.0
            while process_running(pid) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert not process_running(pid), f"checker child {pid} outlived the timeout"
        finally:
            if process_running(pid):
                os.kill(pid, signal.SIGKILL)

    def test_missing_command_crashes(self):
        verifier = ExternalVerifier(["/nonexistent-lean-checker"], timeout_s=5)
        with pytest.raises(VerifierError, match="failed to run"):
            verifier.check(make_problem(0), canonical_proof(0))

    @staticmethod
    def usable_cpus(monkeypatch, count):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)),
                            raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: count)

    def check_six_at_once(self, verifier):
        with ThreadPoolExecutor(max_workers=6) as pool:
            return list(pool.map(
                lambda i: verifier.check(make_problem(i), canonical_proof(i)), range(6)))

    def test_no_more_checks_at_once_than_cpus(self, tmp_path, monkeypatch):
        # each checker marks itself running and logs how many are running
        running, log = tmp_path / "running", tmp_path / "overlaps"
        running.mkdir()
        script = tmp_path / "checker.py"
        script.write_text(textwrap.dedent(f"""\
            import os, time
            mine = os.path.join({str(running)!r}, str(os.getpid()))
            open(mine, "w").close()
            with open({str(log)!r}, "a") as log:
                log.write(f"{{len(os.listdir({str(running)!r}))}}\\n")
            time.sleep(0.2)
            os.remove(mine)
            """), encoding="utf-8")
        self.usable_cpus(monkeypatch, 2)
        verifier = ExternalVerifier([sys.executable, str(script)], timeout_s=30)
        assert verifier.concurrency == 2
        assert self.check_six_at_once(verifier) == [("verified", "")] * 6
        overlaps = [int(n) for n in log.read_text(encoding="utf-8").split()]
        assert len(overlaps) == 6 and max(overlaps) == 2

    def test_waiting_for_a_checker_does_not_count_toward_the_timeout(
            self, tmp_path, monkeypatch):
        # one checker at a time, each 0.3 s: the last of six starts after 1.5 s
        script = tmp_path / "checker.py"
        script.write_text("import time; time.sleep(0.3)\n", encoding="utf-8")
        self.usable_cpus(monkeypatch, 1)
        verifier = ExternalVerifier([sys.executable, str(script)], timeout_s=1.0)
        assert self.check_six_at_once(verifier) == [("verified", "")] * 6



def process_running(pid):
    """True while ``pid`` exists and has not exited (a zombie has)."""
    try:
        with open(f"/proc/{pid}/stat", encoding="utf-8") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


class ExplodingVerifier:
    name = "exploding"
    concurrency = 1

    def check(self, problem, proof_text):
        raise AssertionError("verifier must not be consulted")


class TestEvaluateSample:
    def test_samples_and_answer_keys_are_not_lexed(self, monkeypatch):
        lexed = []
        lex_lean_unwrapped = corpus.lex_lean

        def counting(source):
            lexed.append(source)
            return lex_lean_unwrapped(source)

        monkeypatch.setattr(corpus, "lex_lean", counting)
        key = canonical_proof(3)
        verifier = MockVerifier({"prob03": key})
        sample = key.replace("  norm_num", "  -- close it\n  norm_num")
        problem = make_problem(3)
        for index in range(3):
            attempt = evaluate_sample(problem, 1, index, sample, verifier, {})
            assert attempt.verdict == "verified"
        # the screen, the statement and the verifier compare code texts
        assert lexed == []

    def test_verified_sample(self):
        verifier = MockVerifier({"prob03": canonical_proof(3)})
        attempt = evaluate_sample(make_problem(3), 1, 0,
                                  "```lean\n" + canonical_proof(3) + "```",
                                  verifier, {})
        assert attempt.verdict == "verified"
        assert attempt.proof == canonical_proof(3)

    def test_no_proof_is_rejected(self):
        attempt = evaluate_sample(make_problem(3), 1, 2, "I am not sure.",
                                  ExplodingVerifier(), {})
        assert attempt.verdict == "rejected"
        assert "prob03" in attempt.diagnostic
        assert (attempt.round, attempt.sample_index, attempt.proof) == (1, 2, "")

    def test_lean3_output_rejected_before_verification(self):
        problem = Problem(
            name="amc12a_2019_p21",
            fl_statement="theorem amc12a_2019_p21 : True :=",
            nl_statement_and_proof="x")
        attempt = evaluate_sample(problem, 1, 0, LEAN3_OUTPUT_A,
                                  ExplodingVerifier(), {})
        assert attempt.verdict == "rejected"
        assert "begin-end-block" in attempt.diagnostic

    @pytest.mark.parametrize("body", [
        "  sorry",
        "  admit",
        "  exact (sorry)",
        "  constructor <;> sorry",
    ])
    def test_sorry_rejected_before_verification(self, body):
        problem = make_problem(3)
        sample = f"{problem.fl_statement} by\n{body}\n"
        attempt = evaluate_sample(problem, 1, 0, sample,
                                  ExternalVerifier(["true"], ProverSettings.timeout_s), {})
        assert attempt.verdict == "rejected"
        assert attempt.diagnostic == "pre-verification screen: sorry"

    @pytest.mark.parametrize("body", [
        "  norm_num -- sorry, admit later\n  /- sorry -/",
        "  have h_admit : True := trivial\n  exact sorry_free",
        '  simp [show "sorry" = "sorry" from rfl]',
        "  exact Foo.sorry",
        "  exact sorry /- unterminated",
    ])
    def test_names_strings_and_unlexable_proofs_pass_the_screen(self, body):
        problem = make_problem(3)
        sample = f"{problem.fl_statement} by\n{body}\n"
        attempt = evaluate_sample(problem, 1, 0, sample,
                                  ExternalVerifier(["true"], ProverSettings.timeout_s), {})
        assert (attempt.verdict, attempt.diagnostic) == ("verified", "")

    @pytest.mark.parametrize("statement", [
        "theorem prob03 : True :=",
        "theorem prob03 (h : False) : 3 + 0 = 3 :=",
        "theorem prob03 : 3 + 0 = 3 ∨ True :=",
        "lemma prob03 : 3 + 0 = 3 :=",
    ])
    def test_changed_statement_rejected_before_verification(self, statement):
        sample = f"{statement} by\n  norm_num\n"
        attempt = evaluate_sample(make_problem(3), 1, 0, sample,
                                  ExternalVerifier(["true"], ProverSettings.timeout_s), {})
        assert (attempt.verdict, attempt.diagnostic) == (
            "rejected", "pre-verification screen: statement changed")

    def test_statement_layout_and_comments_are_free(self):
        sample = ("theorem prob03 :\n    3 + 0 -- the sum\n    = 3 :=\n"
                  "  /- by evaluation -/ by\n  norm_num\n")
        attempt = evaluate_sample(make_problem(3), 1, 0, sample,
                                  ExternalVerifier(["true"], ProverSettings.timeout_s), {})
        assert (attempt.verdict, attempt.diagnostic) == ("verified", "")

    def test_verifier_timeout_becomes_error_verdict(self):
        class Slow:
            concurrency = 1

            def check(self, problem, proof_text):
                raise VerifierError("verifier exceeded 1s")

        attempt = evaluate_sample(make_problem(3), 1, 1, canonical_proof(3), Slow(), {})
        assert attempt.verdict == "error"
        assert "exceeded" in attempt.diagnostic


# Pieces of a sample: Lean3 leftovers, placeholders as whole names, inside
# longer names, in strings and in comments, and delimiters that leave the
# text unlexable.
SCREEN_PIECES = [
    "begin", "end", "open_locale", "import data.nat", "import Mathlib",
    "import", "data.nat", 'import "m" data.nat',
    "sorry", "admit", "h_admit", "x.sorry", "sorry_free",
    '"sorry"', '"', "-- sorry", "/- admit -/", "/- a /- begin -/ b -/",
    "'\"'", ":=", "by", "norm_num", "(", ")",
]
SCREEN_STATEMENTS = [
    "theorem p : True :=",
    'theorem p (h : "s") : True := by',
    "theorem p : begin sorry :=",
    'theorem p : "x :=',  # does not lex
    "theorem p /- : True :=",  # does not lex
]


@st.composite
def judged_samples(draw):
    """A problem, a sample proof and an answer key whose proofs lex."""
    statement = draw(st.sampled_from(SCREEN_STATEMENTS))
    pieces = st.one_of(st.sampled_from(SCREEN_PIECES), lean_delimited_texts())
    seams = st.sampled_from(["", " ", "\n", "\n  "])
    body = "".join(draw(st.lists(st.tuples(pieces, seams).map("".join),
                                 max_size=12)))
    # the statement as given, or with its string literal changed
    head = draw(st.sampled_from(["", statement, statement.replace('"s"', '"t"')]))
    proof = head + draw(seams) + body
    choice = draw(st.sampled_from(["proof", "stripped", "other", "none"]))
    key = None
    if choice == "other":
        key = "theorem p : True := by\n  norm_num\n"
    elif choice != "none" and lex_or_none(proof) is not None:
        key = proof if choice == "proof" else strip_comments(proof)
    # an answer key that does not lex is refused when the verifier is built
    answer_key = {"p": key} if key is not None and lex_or_none(key) is not None else {}
    return Problem(name="p", fl_statement=statement), proof, answer_key


@given(judged_samples())
@settings(max_examples=300, deadline=None)
def test_screen_and_mock_check_match_the_token_based_reference(sample):
    problem, proof, answer_key = sample
    assert screen_proof(problem, proof) == reference_screen_proof(problem, proof)
    assert MockVerifier(answer_key).check(problem, proof) == reference_mock_check(
        answer_key, problem, proof)


class CountingBackend:
    concurrency = 1

    def __init__(self, inner):
        self.inner = inner
        self.name = inner.name
        self.calls = 0
        self.requests = []

    def generate(self, request):
        self.calls += 1
        self.requests.append(request)
        return self.inner.generate(request)


TOKENIZER = WhitespaceTokenizer()


def config(**kwargs):
    kwargs.setdefault("n_samples", 4)
    kwargs.setdefault("token_budget", 100_000)
    return ProverSettings(**kwargs)


def one_round(problems, pool, sampler, verifier, settings, round_number=1):
    return run_iteration(round_number, problems, tuple(pool), sampler, verifier,
                         settings, TOKENIZER, {p.name: {} for p in problems})


def verified(attempts):
    return {a.problem: a.proof for a in attempts if a.verdict == "verified"}


class TestRunIteration:
    def test_rejecting_verifier_changes_nothing(self):
        problems = [make_problem(i) for i in range(3)]
        backend = mock_backend(default_text=canonical_proof(0))
        attempts = one_round(problems, seed_examples(2), make_sampler(backend),
                             MockVerifier({}), config())
        assert verified(attempts) == {}
        assert len(attempts) == 3 * 4
        assert [a.problem for a in attempts] == (
            ["prob00"] * 4 + ["prob01"] * 4 + ["prob02"] * 4)

    def test_first_sample_success_costs_one_generation(self):
        problems = [make_problem(0)]
        backend = CountingBackend(mock_backend(
            script=[("prob00", canonical_proof(0))]))
        verifier = MockVerifier({"prob00": canonical_proof(0)})
        attempts = one_round(problems, seed_examples(1), make_sampler(backend), verifier,
                             config(n_samples=1))
        assert verified(attempts) == {"prob00": canonical_proof(0)}
        assert backend.calls == 1
        assert len(attempts) == 1

    def test_early_stop_mid_samples(self):
        problems = [make_problem(0)]
        bad = "theorem prob00 : 0 + 0 = 0 := by\n  sorry\n"
        backend = mock_backend(
            script=[("prob00", [bad, bad, canonical_proof(0)])])
        verifier = MockVerifier({"prob00": canonical_proof(0)})
        attempts = one_round(problems, seed_examples(1), make_sampler(backend), verifier,
                             config(n_samples=8), round_number=3)
        assert [(a.round, a.sample_index, a.verdict) for a in attempts] == [
            (3, 0, "rejected"), (3, 1, "rejected"), (3, 2, "verified")]

    def test_pool_frozen_within_round(self):
        problems = [make_problem(0), make_problem(1)]
        # problem 1 is answerable only when problem 0's verified proof is
        # already in the prompt, which cannot happen in the same round
        backend = mock_backend([
            ("theorem prob00 : 0 + 0 = 0 := by", canonical_proof(1)),
            ("prob00", canonical_proof(0)),
        ])
        verifier = MockVerifier({"prob00": canonical_proof(0),
                                 "prob01": canonical_proof(1)})
        first = one_round(problems, seed_examples(1), make_sampler(backend), verifier,
                          config())
        assert verified(first) == {"prob00": canonical_proof(0)}
        grown = [PoolExample("prob00", problems[0].nl_statement_and_proof,
                             canonical_proof(0))] + seed_examples(1)
        second = one_round(problems[1:], grown, make_sampler(backend), verifier,
                           config(), round_number=2)
        assert verified(second) == {"prob01": canonical_proof(1)}

    def test_backend_failure_on_one_problem_isolated(self):
        problems = [make_problem(0), make_problem(1)]

        class Selective:
            name = "selective"
            concurrency = 1

            def generate(self, request):
                if "prob00" in request.prompt.split(NL_SECTION)[-1]:
                    raise BackendUnavailable("overloaded")
                return [(canonical_proof(1), False)]

        verifier = MockVerifier({"prob01": canonical_proof(1)})
        policy = retry_policy(max_attempts=1, sleep=lambda s: None)
        attempts = one_round(problems, seed_examples(1),
                             make_sampler(Selective(), retry=policy), verifier, config())
        assert verified(attempts) == {"prob01": canonical_proof(1)}
        assert len(attempts) == 1  # failed draws are not counted

    def test_oversized_prompt_skips_problem(self):
        backend = CountingBackend(mock_backend())
        attempts = one_round([make_problem(0)], seed_examples(1), make_sampler(backend),
                             MockVerifier({}), config(token_budget=3))
        assert backend.calls == 0
        assert attempts == []


# The two-round fixture: EASY is provable from the start; DEP's proof is
# only produced once EASY's verified proof text shows up among the prompt
# examples, which first happens in round 2.
EASY = Problem(
    name="easy_add",
    fl_statement="theorem easy_add : 2 + 2 = 4 :=",
    nl_statement_and_proof="Statement: two plus two is four. Proof: compute.",
)
DEP = Problem(
    name="dependent_mul",
    fl_statement="theorem dependent_mul : 3 * 3 = 9 :=",
    nl_statement_and_proof="Statement: three squared is nine. Proof: compute.",
)
EASY_PROOF = ("theorem easy_add : 2 + 2 = 4 := by\n"
              "  exact add_two_two_marker\n")
DEP_PROOF = ("theorem dependent_mul : 3 * 3 = 9 := by\n"
             "  norm_num\n")


def two_round_setup():
    backend = mock_backend([
        ("add_two_two_marker", DEP_PROOF),
        ("theorem easy_add", EASY_PROOF),
    ])
    verifier = MockVerifier({"easy_add": EASY_PROOF,
                             "dependent_mul": DEP_PROOF})
    return [EASY, DEP], seed_examples(2), backend, verifier


class TestRunIterative:
    def test_two_round_fixture(self):
        problems, seeds, backend, verifier = two_round_setup()
        report = run_iterative(problems, seeds, make_sampler(backend), verifier,
                               config(), TOKENIZER)
        assert [r.newly_proved for r in report.rounds] == [1, 1]
        assert [r.cumulative_proved for r in report.rounds] == [1, 2]
        assert report.rounds[0].cumulative_rate == 0.5
        assert report.rounds[1].cumulative_rate == 1.0
        assert report.proved == {
            "easy_add": ReportProof("easy_add", 1, 0, EASY_PROOF),
            "dependent_mul": ReportProof("dependent_mul", 2, 0, DEP_PROOF)}
        # round 1: easy stops at sample 1, dep burns all 4; round 2: dep
        # succeeds immediately
        assert report.rounds[1].budget_used == 1 + 4 + 1

    def test_max_rounds_one_stops_short(self):
        problems, seeds, backend, verifier = two_round_setup()
        report = run_iterative(problems, seeds, make_sampler(backend), verifier,
                               config(max_rounds=1), TOKENIZER)
        assert len(report.rounds) == 1
        assert set(report.proved) == {"easy_add"}

    def test_zero_progress_round_is_last(self):
        problems = [make_problem(i) for i in range(3)]
        backend = mock_backend()  # always "sorry", which extracts nothing
        report = run_iterative(problems, seed_examples(1), make_sampler(backend),
                               MockVerifier({}), config(max_rounds=5), TOKENIZER)
        assert len(report.rounds) == 1
        assert report.rounds[0].newly_proved == 0
        assert report.cumulative_rate == 0.0

    def test_everything_proved_then_one_idle_round(self):
        problems = [make_problem(0)]
        backend = mock_backend([("prob00", canonical_proof(0))])
        verifier = MockVerifier({"prob00": canonical_proof(0)})
        report = run_iterative(problems, seed_examples(1), make_sampler(backend), verifier,
                               config(max_rounds=5), TOKENIZER)
        assert [r.newly_proved for r in report.rounds] == [1, 0]
        assert report.rounds[-1].budget_used == report.rounds[0].budget_used

    def test_rate_shape_on_244_problems(self):
        problems = [make_problem(i) for i in range(244)]
        backend = mock_backend()
        report = run_iterative(problems, seed_examples(1), make_sampler(backend),
                               MockVerifier({}), config(n_samples=2), TOKENIZER)
        assert report.problems_total == 244
        assert report.cumulative_rate == 0.0
        assert report.rounds[0].budget_used == 488

    def test_prompts_read_the_newest_proofs_first(self):
        # a<i> proves at once, b<i> once a<i>'s proof is in its prompt and
        # c<i> once b<i>'s is, so round 3 prompts c1 and c2 over two rounds
        # of proofs
        problems, gates, proofs = scenario(
            {"a1": "always", "a2": "always", "b1": "dep:a1", "b2": "dep:a2",
             "c1": "dep:b1", "c2": "dep:b2"})
        backend = CountingBackend(ScenarioBackend(gates, proofs))
        report = run_iterative(problems, seed_examples(2), make_sampler(backend),
                               MockVerifier(proofs), config(max_rounds=3), TOKENIZER)
        assert [r.newly_proved for r in report.rounds] == [2, 2, 2]
        third = [r.prompt for r in backend.requests if ":r3:" in r.request_id]
        assert len(third) == 2
        for prompt in third:
            # round 2's proofs, then round 1's, each in reverse problem
            # order, then the seeds in file order
            positions = [prompt.index(f"theorem {name} ") for name in
                         ("b2", "b1", "a2", "a1", "seed0", "seed1")]
            assert positions == sorted(positions)

    def test_deterministic_reports(self):
        problems, seeds, backend, verifier = two_round_setup()
        first = run_iterative(problems, seeds, make_sampler(backend), verifier,
                              config(), TOKENIZER)
        problems, seeds, backend, verifier = two_round_setup()
        second = run_iterative(problems, seeds, make_sampler(backend), verifier,
                               config(), TOKENIZER)
        assert first == second


class ScenarioBackend:
    """Answers per problem according to a gate table.

    ``always`` problems get their canonical proof on any prompt; ``dep:<j>``
    problems get it only when problem j's verified proof text is among the
    prompt examples; ``never`` problems get an unusable reply.
    """

    name = "scenario"
    concurrency = 1

    def __init__(self, gates, proofs):
        self.gates = gates
        self.proofs = proofs

    def generate(self, request):
        prompt = request.prompt
        tail = prompt[prompt.rindex(FL_STATEMENT_SECTION):]
        mine = None
        for name in self.gates:
            if f"theorem {name} " in tail:
                mine = name
                break
        assert mine is not None, "prompt does not end with a known statement"
        gate = self.gates[mine]
        if gate == "always":
            return [(self.proofs[mine], False)] * request.n_samples
        if gate.startswith("dep:"):
            needed = self.proofs[gate[4:]]
            head = prompt[: prompt.rindex(FL_STATEMENT_SECTION)]
            if needed in head:
                return [(self.proofs[mine], False)] * request.n_samples
        return [("sorry", False)] * request.n_samples


def scenario_oracle(gates, max_rounds):
    """Fixed-point reachability: which problems end up proved, per round."""
    proved = set()
    per_round = []
    for _ in range(max_rounds):
        newly = set()
        for name, gate in gates.items():
            if name in proved:
                continue
            if gate == "always" or (gate.startswith("dep:")
                                    and gate[4:] in proved):
                newly.add(name)
        proved |= newly
        per_round.append(len(newly))
        if not newly:
            break
    return proved, per_round


def random_scenario(rng):
    n = rng.randint(2, 7)
    names = [f"scn{i}" for i in range(n)]
    gates = {}
    for i, name in enumerate(names):
        roll = rng.random()
        if roll < 0.4:
            gates[name] = "always"
        elif roll < 0.8:
            gates[name] = f"dep:{names[rng.randrange(n)]}"
        else:
            gates[name] = "never"
    return scenario(gates)


def scenario(gates):
    """The problems, ``gates`` and canonical proofs of a ``ScenarioBackend``
    run over the problems ``gates`` names."""
    problems = [
        Problem(name=name,
                fl_statement=f"theorem {name} (n : ℕ) : n = n :=",
                nl_statement_and_proof=f"Statement: {name}. Proof: rfl.")
        for name in gates
    ]
    proofs = {name: f"theorem {name} (n : ℕ) : n = n := by\n  rfl_{name}\n"
              for name in gates}
    return problems, gates, proofs


def save_run(report, tmp_path):
    """Write ``report`` and its attempt log as ``prove`` does; the report's path."""
    path = tmp_path / "report.jsonl"
    save_report(report, str(path))
    write_jsonl(str(tmp_path / "prove.attempts.jsonl"), report.attempts)
    return path


def load(path, problems, verifier):
    """``load_report`` of ``path`` and the attempt log beside it."""
    return load_report(str(path), str(path.parent / "prove.attempts.jsonl"),
                       problems, verifier)


class TestRandomizedScenarios:
    def test_monotonicity_and_stopping(self, tmp_path):
        rng = random.Random(424242)
        for trial in range(30):
            problems, gates, proofs = random_scenario(rng)
            max_rounds = rng.randint(1, 4)
            n_samples = rng.randint(1, 3)
            backend = ScenarioBackend(gates, proofs)
            verifier = MockVerifier(proofs)
            report = run_iterative(
                problems, seed_examples(2), make_sampler(backend), verifier,
                config(max_rounds=max_rounds, n_samples=n_samples), TOKENIZER)

            expected, per_round = scenario_oracle(gates, max_rounds)
            assert set(report.proved) == expected, (trial, gates)
            assert [r.newly_proved for r in report.rounds] == per_round

            counts = [r.cumulative_proved for r in report.rounds]
            assert counts == sorted(counts)
            if len(report.rounds) < max_rounds:
                assert report.rounds[-1].newly_proved == 0
            assert report.rounds[-1].budget_used <= (
                len(problems) * n_samples * max_rounds)

            saved = tmp_path / str(trial)
            saved.mkdir()
            assert load(save_run(report, saved), problems, verifier) == report

    def test_budget_spent_before_the_last_round(self, tmp_path):
        problems, seeds, backend, verifier = two_round_setup()
        budget = make_budget(max_requests=5)
        report = run_iterative(problems, seeds, make_sampler(backend, budget=budget),
                               verifier, config(), TOKENIZER)
        # round 1 spends all 5 requests; round 2 cannot draw a sample
        assert [a.round for a in report.attempts] == [1] * 5
        assert [(r.newly_proved, r.budget_used) for r in report.rounds] == [
            (1, 5), (0, 5)]
        assert load(save_run(report, tmp_path), problems, verifier) == report


class JitteredBackend:
    """``ScenarioBackend`` answering after a seeded 0-3 ms pause per request,
    so concurrent problems finish in a shuffled order. ``peak`` is the most
    requests it had in flight at once."""

    name = "jittered"

    def __init__(self, inner, seed, concurrency=1):
        self.inner = inner
        self.seed = seed
        self.concurrency = concurrency
        self.peak = self._active = 0
        self._lock = threading.Lock()

    def generate(self, request):
        with self._lock:
            self._active += 1
            self.peak = max(self.peak, self._active)
        rng = random.Random(f"{self.seed}:{request.request_id}")
        time.sleep(rng.uniform(0.0, 0.003))
        with self._lock:
            self._active -= 1
        return self.inner.generate(request)


class TestConcurrentRounds:
    def run(self, scenario, concurrency, seed, peaks=None, **ceilings):
        problems, gates, proofs, max_rounds, n_samples = scenario
        budget = make_budget(**ceilings)
        backend = JitteredBackend(ScenarioBackend(gates, proofs), seed, concurrency)
        report = run_iterative(
            problems, seed_examples(2),
            make_sampler(backend, budget=budget, max_new_tokens=64),
            MockVerifier(proofs),
            config(max_rounds=max_rounds, n_samples=n_samples), TOKENIZER)
        if peaks is not None:
            peaks.append(backend.peak)
        return report, report.attempts, budget.requests_used, budget.tokens_used

    def test_reports_budgets_and_attempt_logs_match_serial(self):
        # A round keeps one problem more in flight, for the mock verifier,
        # than the backend's concurrency of 2 keeps elsewhere.
        rng = random.Random(97)
        bound = 0
        peaks = []
        for trial in range(8):
            problems, gates, proofs = random_scenario(rng)
            scenario = (problems, gates, proofs, rng.randint(1, 3),
                        rng.randint(1, 3))
            serial = self.run(scenario, 1, trial)
            requests, tokens = serial[2], serial[3]
            assert self.run(scenario, 2, trial, peaks) == serial, trial
            for ceilings in ({"max_requests": rng.randint(1, requests)},
                             {"max_tokens": rng.randint(1, tokens)}):
                serial = self.run(scenario, 1, trial, **ceilings)
                assert self.run(scenario, 2, trial, peaks, **ceilings) == serial, (
                    trial, ceilings)
                bound += serial[2] < requests
        assert bound >= 8  # most ceilings stop the run early
        assert max(peaks) == 3  # the prover's bound ran, not the backend's

    @pytest.mark.parametrize("checkers, problems, in_flight", [(6, 8, 8), (1, 9, 3)])
    def test_problems_in_flight_are_the_backends_and_one_per_checker(
            self, checkers, problems, in_flight):
        # a backend that keeps two units in flight elsewhere; requests meet in
        # groups of ``in_flight``, so a larger group would show in the peak
        gate = threading.Barrier(in_flight, timeout=5)

        class Meeting:
            name = "meeting"
            concurrency = 2
            peak = active = 0
            lock = threading.Lock()

            def generate(self, request):
                with self.lock:
                    self.active += 1
                    self.peak = max(self.peak, self.active)
                gate.wait()
                with self.lock:
                    self.active -= 1
                return [("sorry", False)]

        class Checkers(MockVerifier):
            concurrency = checkers

        backend = Meeting()
        names = [make_problem(i).name for i in range(problems)]
        attempts = one_round([make_problem(i) for i in range(problems)], seed_examples(1),
                             make_sampler(backend), Checkers({}), config(n_samples=1))
        assert [a.problem for a in attempts] == names
        assert backend.peak == in_flight

    def test_empty_round(self):
        backend = mock_backend()
        backend.concurrency = 2
        assert one_round([], seed_examples(1), make_sampler(backend), MockVerifier({}),
                         config()) == []

    def test_attempt_log_lines(self):
        problems = [make_problem(0), make_problem(1)]
        bad = "theorem prob00 : True := by\n  trivial\n"
        backend = mock_backend([
            ("theorem prob00 : 0 + 0 = 0 :=\n", [bad, canonical_proof(0)]),
        ])
        verifier = MockVerifier({"prob00": canonical_proof(0)})
        report = run_iterative(problems, seed_examples(1), make_sampler(backend), verifier,
                               config(n_samples=2, max_rounds=1), TOKENIZER)
        screened = "pre-verification screen: statement changed"
        no_proof = "no fenced or theorem-headed region declaring prob01"
        assert report.attempts == (
            ProofAttempt("prob00", 1, 0, "rejected", screened, bad),
            ProofAttempt("prob00", 1, 1, "verified", "", canonical_proof(0)),
            ProofAttempt("prob01", 1, 0, "rejected", no_proof),
            ProofAttempt("prob01", 1, 1, "rejected", no_proof),
        )

    def test_long_diagnostics_are_cut(self):
        class Verbose:
            concurrency = 1

            def check(self, problem, proof_text):
                return "rejected", "x" * 500

        problems = [make_problem(0)]
        backend = mock_backend(default_text=canonical_proof(0))
        report = run_iterative(problems, seed_examples(1), make_sampler(backend), Verbose(),
                               config(n_samples=1, max_rounds=1), TOKENIZER)
        assert [a.diagnostic for a in report.attempts] == ["x" * 200]

    def test_failing_problem_fails_the_round(self):
        class Broken:
            name = "broken"
            concurrency = 2

            def generate(self, request):
                raise RuntimeError("backend bug")

        problems = [make_problem(i) for i in range(3)]
        with pytest.raises(RuntimeError, match="backend bug"):
            one_round(problems, seed_examples(1), make_sampler(Broken()),
                      MockVerifier({}), config())

    def test_a_capped_round_stops_where_a_serial_round_stops(self):
        problems = [make_problem(i) for i in range(5)]
        budget = make_budget(max_requests=11)
        backend = mock_backend(default_text=canonical_proof(0))
        backend.concurrency = 3  # every prompt gets the same text
        attempts = one_round(problems, seed_examples(1), make_sampler(backend, budget=budget),
                             MockVerifier({}), config(n_samples=4))
        # the problems run one at a time: two draw their 4 samples each and
        # the third the 3 left, as a serial run would
        assert len(attempts) == budget.requests_used == 11
        assert [a.problem for a in attempts] == (
            ["prob00"] * 4 + ["prob01"] * 4 + ["prob02"] * 3)


# --- each distinct proof is checked once per problem ---------------------------


class RequestScript:
    """Answers the request ``prove:<name>:r<round>:s<index>`` with
    ``reply(name, round, index)``, whatever the prompt."""

    name = "request-script"

    def __init__(self, reply, concurrency=1):
        self.reply = reply
        self.concurrency = concurrency

    def generate(self, request):
        _, name, round_number, index = request.request_id.split(":")
        text = self.reply(name, int(round_number[1:]), int(index[1:]))
        return [(text, False)] * request.n_samples


class CountingVerifier(MockVerifier):
    """``MockVerifier`` that records every ``(problem name, proof)`` it is
    asked about, in ``checked``. ``fails(name, proof, k)``, where k counts
    the earlier checks of that pair, returns an exception to raise instead
    of checking, or None."""

    def __init__(self, answer_key, fails=lambda name, proof, k: None):
        super().__init__(answer_key)
        self.fails = fails
        self.checked = []
        self.lock = threading.Lock()

    def check(self, problem, proof_text):
        with self.lock:
            k = self.checked.count((problem.name, proof_text))
            self.checked.append((problem.name, proof_text))
        failure = self.fails(problem.name, proof_text, k)
        if failure is not None:
            raise failure
        return super().check(problem, proof_text)


def wrong_proof(i, tactic="simp"):
    """A proof of ``make_problem(i)`` that passes the screen and that the
    answer key rejects."""
    return f"theorem prob{i:02d} : {i} + 0 = {i} := by\n  {tactic}\n"


def lean3_proof(i):
    return f"theorem prob{i:02d} : {i} + 0 = {i} :=\nbegin\n  norm_num\nend\n"


NO_HEADER = "I could not find a proof."


def answer_key(count):
    return {f"prob{i:02d}": canonical_proof(i) for i in range(count)}


class TestDistinctChecks:
    def test_a_rejected_proof_is_checked_once_in_every_round(self):
        # prob00 is proved at once, so round 2 runs; prob01 repeats its two
        # round-1 proofs in round 2 and adds a third
        w1, w2, w3 = (wrong_proof(1, t) for t in ("simp", "rfl", "omega"))
        replies = {("prob01", 1): [w1, w1, w2, w1], ("prob01", 2): [w2, w1, w3, w3]}

        def reply(name, round_number, index):
            if name == "prob00":
                return canonical_proof(0)
            return replies[name, round_number][index]

        verifier = CountingVerifier(answer_key(2))
        report = run_iterative([make_problem(0), make_problem(1)], seed_examples(1),
                               make_sampler(RequestScript(reply)), verifier,
                               config(n_samples=4, max_rounds=3), TOKENIZER)
        assert [(r.newly_proved, r.budget_used) for r in report.rounds] == [(1, 5), (0, 9)]
        assert verifier.checked == [("prob00", canonical_proof(0)), ("prob01", w1),
                                    ("prob01", w2), ("prob01", w3)]

    @pytest.mark.parametrize("concurrency", [1, 2])
    def test_two_problems_given_the_same_reply_are_each_checked_once(
            self, concurrency):
        # one reply declares both problems: each extracts its own proof from it
        both = wrong_proof(0) + "\n" + wrong_proof(1)
        verifier = CountingVerifier(answer_key(2))
        attempts = one_round([make_problem(0), make_problem(1)], seed_examples(1),
                             make_sampler(RequestScript(lambda *_: both, concurrency)),
                             verifier, config(n_samples=3))
        assert [a.verdict for a in attempts] == ["rejected"] * 6
        assert sorted(verifier.checked) == [("prob00", both), ("prob01", wrong_proof(1))]

    def test_a_check_that_failed_is_made_again(self):
        failure = VerifierError("slow")
        verifier = CountingVerifier(
            answer_key(1), fails=lambda name, proof, k: failure if k == 0 else None)
        attempts = one_round([make_problem(0)], seed_examples(1),
                             make_sampler(RequestScript(lambda *_: wrong_proof(0))),
                             verifier, config(n_samples=4))
        assert [a.verdict for a in attempts] == ["error"] + ["rejected"] * 3
        assert attempts[0].diagnostic == str(failure)
        assert len({a.diagnostic for a in attempts[1:]}) == 1
        assert verifier.checked == [("prob00", wrong_proof(0))] * 2

    def test_the_map_holds_each_rejected_proof_once(self):
        # a wrong proof, a screened one, one the verifier first times out on,
        # and a reply with no proof, each drawn again
        screened = lean3_proof(0)
        flaky = wrong_proof(0, "rfl")
        sequence = [wrong_proof(0), screened, flaky, NO_HEADER] * 2
        verifier = CountingVerifier(
            answer_key(1),
            fails=lambda name, proof, k: VerifierError("slow") if (
                proof == flaky and k == 0) else None)
        backend = RequestScript(lambda name, r, index: sequence[index])
        rejected = {"prob00": {}}
        attempts = run_iteration(1, [make_problem(0)], tuple(seed_examples(1)),
                                 make_sampler(backend), verifier, config(n_samples=8),
                                 TOKENIZER, rejected)
        assert [a.verdict for a in attempts] == [
            "rejected", "rejected", "error", "rejected"] + ["rejected"] * 4
        assert rejected == {"prob00": {
            wrong_proof(0): attempts[0].diagnostic,
            screened: "pre-verification screen: begin-end-block",
            flaky: attempts[6].diagnostic}}
        assert verifier.checked == [("prob00", wrong_proof(0)), ("prob00", flaky),
                                    ("prob00", flaky)]

    def test_attempt_log_is_the_one_of_judging_each_sample_alone(self, tmp_path):
        problems = [make_problem(i) for i in range(3)]
        kinds = ["wrong", "lean3", "wrong", NO_HEADER, "verbose", "wrong", "canonical"]

        def reply(name, round_number, index):
            i = int(name[4:])
            kind = kinds[(index + i + round_number) % len(kinds)]
            return {"wrong": wrong_proof(i), "lean3": lean3_proof(i),
                    "verbose": wrong_proof(i, "simp -- " + "x" * 300),
                    "canonical": canonical_proof(i)}.get(kind, kind)

        class Verbose(CountingVerifier):
            """Rejects with a diagnostic longer than the log keeps."""

            def check(self, problem, proof_text):
                verdict, diagnostic = super().check(problem, proof_text)
                return verdict, diagnostic and diagnostic + " " + "y" * 300

        verifier = Verbose(answer_key(3))
        report = run_iterative(problems, seed_examples(1),
                               make_sampler(RequestScript(reply)), verifier,
                               config(n_samples=4, max_rounds=3), TOKENIZER)
        alone = [evaluate_sample(problems[int(a.problem[4:])], a.round, a.sample_index,
                                 reply(a.problem, a.round, a.sample_index),
                                 Verbose(answer_key(3)), {})
                 for a in report.attempts]
        write_jsonl(str(tmp_path / "mapped.jsonl"), report.attempts)
        write_jsonl(str(tmp_path / "alone.jsonl"), alone)
        assert ((tmp_path / "mapped.jsonl").read_bytes()
                == (tmp_path / "alone.jsonl").read_bytes())
        assert {a.verdict for a in alone} == {"verified", "rejected"}
        assert len(set(verifier.checked)) == len(verifier.checked) < len(alone)

    def test_report_checks_every_stored_proof_again(self, tmp_path):
        problems = [make_problem(0), make_problem(1)]

        def reply(name, round_number, index):
            i = int(name[4:])
            return canonical_proof(i) if index == 2 else wrong_proof(i)

        verifier = CountingVerifier(answer_key(2))
        report = run_iterative(problems, seed_examples(1),
                               make_sampler(RequestScript(reply)), verifier,
                               config(n_samples=3, max_rounds=1), TOKENIZER)
        assert len(verifier.checked) == 4  # per problem: the wrong proof, then its own
        path = save_run(report, tmp_path)
        audit = CountingVerifier(answer_key(2))
        assert load(path, problems, audit) == report
        assert sorted(audit.checked) == [(name, proof.proof)
                                         for name, proof in sorted(report.proved.items())]


REPLY_KINDS = ("wrong", "canonical", "no header", "lean3")


def drawn_reply(seed, name, round_number, index):
    """The seeded reply to a problem's sample: mostly its one wrong proof."""
    rng = random.Random(f"{seed}:{name}:{round_number}:{index}")
    kind = rng.choices(REPLY_KINDS, weights=(5, 1, 1, 1))[0]
    i = int(name[4:])
    return {"wrong": wrong_proof(i), "canonical": canonical_proof(i),
            "no header": NO_HEADER, "lean3": lean3_proof(i)}[kind]


def seeded_failure(seed, name, proof, k):
    """A timeout or crash on about a third of the checks, by a seeded roll
    of the pair and of how often it was checked before."""
    roll = random.Random(f"{seed}:{name}:{proof}:{k}").random()
    if roll < 0.15:
        return VerifierError(f"timeout {k}")
    if roll < 0.3:
        return VerifierError(f"crash {k}")
    return None


def predicted_checks(seed, names, n_samples, max_rounds):
    """The checks a run makes, in serial order: each sample whose proof
    passes the screen and was not rejected for its problem before; a
    failed check is made again on the proof's next draw."""
    checks, rejected, proved = [], set(), set()
    for round_number in range(1, max_rounds + 1):
        newly = set()
        for name in (n for n in names if n not in proved):
            for index in range(n_samples):
                text = drawn_reply(seed, name, round_number, index)
                if text == NO_HEADER or "begin" in text or (name, text) in rejected:
                    continue
                failure = seeded_failure(seed, name, text, checks.count((name, text)))
                checks.append((name, text))
                if failure is not None:
                    continue
                if text == canonical_proof(int(name[4:])):
                    newly.add(name)
                    break
                rejected.add((name, text))
        proved |= newly
        if not newly:
            break
    return checks, proved


def test_seeded_replies_and_failures_check_each_distinct_proof_once():
    rng = random.Random(2907)
    saved = failed = 0
    for trial in range(25):
        names = [f"prob{i:02d}" for i in range(rng.randint(1, 6))]
        n_samples, max_rounds = rng.randint(1, 6), rng.randint(1, 3)
        runs = []
        for concurrency in (1, 2):
            budget = make_budget()
            backend = RequestScript(functools.partial(drawn_reply, trial), concurrency)
            verifier = CountingVerifier(answer_key(len(names)),
                                        functools.partial(seeded_failure, trial))
            report = run_iterative(
                [make_problem(i) for i in range(len(names))], seed_examples(2),
                make_sampler(backend, budget=budget),
                verifier, config(n_samples=n_samples, max_rounds=max_rounds), TOKENIZER)
            runs.append((report, report.attempts, budget.requests_used,
                         budget.tokens_used))
            checks, proved = predicted_checks(trial, names, n_samples, max_rounds)
            # a problem's checks run one after another; problems interleave
            assert (sorted(verifier.checked, key=lambda c: c[0])
                    == sorted(checks, key=lambda c: c[0])), (trial, concurrency)
            assert set(report.proved) == proved
        assert runs[0] == runs[1], trial
        unscreened = sum(1 for a in runs[0][1]
                         if a.proof and not a.diagnostic.startswith("pre-verification"))
        saved += unscreened - len(checks)
        failed += sum(a.verdict == "error" for a in runs[0][1])
    assert saved > 25 and failed > 5  # repeats were answered; checks failed


class TestReports:
    def round_trip(self, tmp_path):
        problems, seeds, backend, verifier = two_round_setup()
        report = run_iterative(problems, seeds, make_sampler(backend), verifier,
                               config(), TOKENIZER)
        return report, save_run(report, tmp_path), problems, verifier

    def one_proof(self, tmp_path, proof):
        """A report and log in which round 1 proves ``prob03`` with ``proof``."""
        return save_run(HarnessReport(
            problems_total=1, rounds=(RoundSummary(1, 1, 1, 1.0, 1),),
            proved={"prob03": ReportProof("prob03", 1, 0, proof)},
            attempts=(ProofAttempt("prob03", 1, 0, "verified"),)), tmp_path)

    def test_save_load_reverifies(self, tmp_path):
        report, path, problems, verifier = self.round_trip(tmp_path)
        loaded = load(path, problems, verifier)
        assert loaded == report

    def test_tampered_proof_rejected(self, tmp_path):
        report, path, problems, verifier = self.round_trip(tmp_path)
        lines = path.read_text(encoding="utf-8").splitlines()
        entry = json.loads(lines[1])
        entry["proof"] = entry["proof"].replace("norm_num", "sorry") \
            .replace("add_two_two_marker", "sorry")
        lines[1] = json.dumps(entry, ensure_ascii=False)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(ReportInvalid, match="no longer verifies"):
            load(path, problems, verifier)

    def test_screened_proof_rejected_on_load(self, tmp_path):
        problem = make_problem(3)
        path = self.one_proof(tmp_path, f"{problem.fl_statement} by\n  admit\n")
        with pytest.raises(ReportInvalid, match="pre-verification screen: sorry"):
            load(path, [problem], ExternalVerifier(["true"], ProverSettings.timeout_s))

    def test_changed_statement_rejected_on_load(self, tmp_path):
        problem = make_problem(3)
        path = self.one_proof(tmp_path, "theorem prob03 : True := by\n  trivial\n")
        with pytest.raises(ReportInvalid, match="statement changed"):
            load(path, [problem], ExternalVerifier(["true"], ProverSettings.timeout_s))

    def test_verifier_timeout_is_a_stored_proof_that_no_longer_verifies(
            self, tmp_path):
        _, path, problems, _ = self.round_trip(tmp_path)

        class Slow:
            concurrency = 1

            def check(self, problem, proof_text):
                raise VerifierError(f"verifier exceeded 1s on {problem.name}")

        with pytest.raises(ReportInvalid) as info:
            load(path, problems, Slow())
        assert str(info.value) == (
            f"{path}:2: stored proof for dependent_mul no longer verifies: "
            "verifier exceeded 1s on dependent_mul")

    def three_proofs(self, tmp_path):
        """A report whose lines 2, 3 and 4 prove prob00, prob01 and prob02."""
        names = [f"prob{i:02d}" for i in range(3)]
        return save_run(HarnessReport(
            problems_total=3, rounds=(RoundSummary(1, 3, 3, 1.0, 3),),
            proved={n: ReportProof(n, 1, 0, canonical_proof(i))
                    for i, n in enumerate(names)},
            attempts=tuple(ProofAttempt(n, 1, 0, "verified") for n in names)),
            tmp_path)

    class Failing:
        """Checks two proofs at once; rejects the problems in ``failing``,
        those in ``slow`` after a pause."""

        concurrency = 2

        def __init__(self, failing, slow=()):
            self.failing, self.slow = failing, slow
            self.peak = self.active = 0
            self.lock = threading.Lock()

        def check(self, problem, proof_text):
            with self.lock:
                self.active += 1
                self.peak = max(self.peak, self.active)
            time.sleep(0.2 if problem.name in self.slow else 0.02)
            with self.lock:
                self.active -= 1
            if problem.name in self.failing:
                return "rejected", f"{problem.name} fails"
            return "verified", ""

    def test_slow_failing_line_beats_a_fast_one_after_it(self, tmp_path):
        path = self.three_proofs(tmp_path)
        verifier = self.Failing({"prob00", "prob01"}, slow={"prob00"})
        with pytest.raises(ReportInvalid) as info:
            load(path, [make_problem(i) for i in range(3)], verifier)
        assert str(info.value) == (
            f"{path}:2: stored proof for prob00 no longer verifies: prob00 fails")
        assert verifier.peak == 2

    @pytest.mark.parametrize("failing, line", [("prob00", 2), ("prob02", 3)])
    def test_first_failing_line_wins_over_an_unknown_problem(
            self, tmp_path, failing, line):
        # line 3 names a problem not given; a proof failing before it wins,
        # one failing after it is never reached
        path = self.three_proofs(tmp_path)
        with pytest.raises(ReportInvalid) as info:
            load(path, [make_problem(0), make_problem(2)], self.Failing({failing}))
        assert str(info.value).startswith(f"{path}:{line}: ")
        assert ("unknown problem prob01" in str(info.value)) == (line == 3)

    def test_unknown_problem_rejected(self, tmp_path):
        report, path, problems, verifier = self.round_trip(tmp_path)
        with pytest.raises(ReportInvalid, match="unknown problem"):
            load(path, problems[:1], verifier)

    def test_problem_listed_twice_rejected(self, tmp_path):
        report, path, problems, verifier = self.round_trip(tmp_path)
        lines = path.read_text(encoding="utf-8").splitlines(True)
        path.write_text("".join(lines + lines[1:2]), encoding="utf-8")
        name = json.loads(lines[1])["name"]
        with pytest.raises(ReportInvalid,
                           match=f"report.jsonl:{len(lines) + 1}: {name} is listed twice"):
            load(path, problems, verifier)

    def test_dropped_proof_line_rejected(self, tmp_path):
        _, path, problems, verifier = self.round_trip(tmp_path)
        header, dependent, easy = path.read_text(encoding="utf-8").splitlines(True)
        assert json.loads(dependent)["name"] == "dependent_mul"
        path.write_text(header + easy, encoding="utf-8")
        with pytest.raises(ReportInvalid) as info:
            load(path, problems, verifier)
        assert str(info.value) == (
            f"{path}: round 2: sample_index 0 of dependent_mul is verified in "
            f"{tmp_path / 'prove.attempts.jsonl'}, but has no proof line")

    def test_proof_in_a_round_the_header_lacks_rejected(self, tmp_path):
        _, path, problems, verifier = self.round_trip(tmp_path)
        header, dependent, easy = path.read_text(encoding="utf-8").splitlines(True)
        moved = dict(json.loads(easy), round=3)
        path.write_text(header + dependent + json.dumps(moved) + "\n",
                        encoding="utf-8")
        with pytest.raises(ReportInvalid) as info:
            load(path, problems, verifier)
        assert str(info.value) == (
            f"{path}: round 3: sample_index 0 of easy_add is not a verified sample "
            f"in {tmp_path / 'prove.attempts.jsonl'}")

    def tampered_log(self, tmp_path, change):
        """A saved two-round run whose attempt log ``change`` edits in place;
        round 1 draws easy_add 0 (verified) and dependent_mul 0-3, round 2
        dependent_mul 0 (verified)."""
        _, path, problems, verifier = self.round_trip(tmp_path)
        log_path = tmp_path / "prove.attempts.jsonl"
        log = [json.loads(line) for line in log_path.read_text(encoding="utf-8").splitlines()]
        assert [(a["problem"], a["round"], a["sample_index"]) for a in log] == [
            ("easy_add", 1, 0), *(("dependent_mul", 1, i) for i in range(4)),
            ("dependent_mul", 2, 0)]
        change(path, log)
        write_jsonl(str(log_path), log)
        with pytest.raises(ReportInvalid) as info:
            load(path, problems, verifier)
        return str(info.value).replace(str(log_path), "LOG")

    def test_attempt_line_of_no_problem_rejected(self, tmp_path):
        def rename(path, log):
            log[4].update(problem="no_such_problem", diagnostic="made up")

        assert self.tampered_log(tmp_path, rename) == (
            "LOG: no_such_problem: round 1: sample_index 3: no such problem")

    def test_sample_indices_out_of_order_rejected(self, tmp_path):
        def skip(path, log):
            log[2]["sample_index"] = 7

        assert self.tampered_log(tmp_path, skip) == (
            "LOG: dependent_mul: round 1: sample_index 7: expected sample_index 1")

    def test_sample_after_the_verified_one_in_its_round_rejected(self, tmp_path):
        # easy_add draws again after its proof; dependent_mul draws one
        # sample less, so every round's budget_used still holds
        def draw_on(path, log):
            log.insert(1, dict(log[0], sample_index=1, verdict="rejected"))
            log.pop(5)

        assert self.tampered_log(tmp_path, draw_on) == (
            "LOG: easy_add: round 1: sample_index 1: drawn after sample_index 0 "
            "of round 1 proved it")

    def test_sample_in_a_round_after_the_proof_rejected(self, tmp_path):
        # dependent_mul's last round-1 sample moves to round 2 as easy_add's,
        # and the header's round-1 budget follows it
        def move(path, log):
            log[4].update(problem="easy_add", round=2, sample_index=0)
            log.insert(5, log.pop(4))
            first, *proofs = path.read_text(encoding="utf-8").splitlines(True)
            header = json.loads(first)
            header["rounds"][0]["budget_used"] -= 1
            path.write_text(json.dumps(header) + "\n" + "".join(proofs),
                            encoding="utf-8")

        assert self.tampered_log(tmp_path, move) == (
            "LOG: easy_add: round 2: sample_index 0: drawn after sample_index 0 "
            "of round 1 proved it")

    def test_wrong_header_rejected(self, tmp_path):
        path = tmp_path / "report.jsonl"
        path.write_text('{"kind": "something-else", "problems_total": 0, '
                        '"rounds": []}\n', encoding="utf-8")
        with pytest.raises(ReportInvalid, match="not a harness report"):
            load(path, [], MockVerifier({}))

    def test_table_format(self, tmp_path):
        report, _, _, _ = self.round_trip(tmp_path)
        table = format_report_table(report)
        assert "proved 2/2 (100.0%)" in table
        lines = table.splitlines()
        assert lines[0].split() == ["round", "new", "proved", "rate", "samples"]
        assert lines[1].split() == ["1", "1", "1", "50.0%", "5"]
        assert lines[2].split() == ["2", "1", "2", "100.0%", "6"]
