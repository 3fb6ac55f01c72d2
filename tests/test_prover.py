"""Tests for the iterative proof-writing harness."""

import json
import logging
import os
import random
import signal
import sys
import textwrap
import time

import pytest

from leanforge import corpus
from leanforge.config import ProverSettings
from leanforge.genclient import (
    BackendUnavailable,
    GenerationBudget,
    MockBackend,
    RetryPolicy,
    Sampler,
)
from leanforge.prompts import FL_PROOF_SECTION, FL_STATEMENT_SECTION, NL_SECTION
from leanforge.prover import (
    ExternalVerifier,
    HarnessReport,
    IterationState,
    MockVerifier,
    NoProofFound,
    PoolExample,
    Problem,
    PromptExceedsBudget,
    ProofAttempt,
    ReportInvalid,
    VerifierCrashed,
    VerifierTimeout,
    assemble_proof_prompt,
    evaluate_sample,
    extract_proof,
    format_report_table,
    initial_state,
    load_report,
    run_iteration,
    run_iterative,
    save_report,
    selection_order,
)
from leanforge.trainprep import WhitespaceTokenizer

from fixtures.listings import LEAN3_OUTPUT_A, SQINEQ_COMMENTED
from support import lex_or_none


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
    return assemble_proof_prompt(
        problem, pool, k_range, WhitespaceTokenizer(), token_budget)


def check(verifier, problem, text):
    """``verifier.check`` given the text's tokens, as ``evaluate_sample``
    passes them: None when the text does not lex."""
    return verifier.check(problem, text, lex_or_none(text))


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
            ProofAttempt("p", 0, "t", "", "maybe")

    def test_state_invariants(self):
        with pytest.raises(ValueError, match="round"):
            IterationState(round=0, example_pool=(), proved={},
                           unproved=frozenset(), budget_used=0,
                           first_success={})
        with pytest.raises(ValueError, match="proved and unproved"):
            IterationState(round=1, example_pool=(), proved={"a": "x"},
                           unproved=frozenset({"a"}), budget_used=0,
                           first_success={})

    def test_duplicate_problem_names(self):
        problems = [make_problem(1), make_problem(1)]
        with pytest.raises(ValueError, match="unique"):
            initial_state(problems, seed_examples(1))


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
        base = assemble_proof_prompt(problem, pool, (10, 16), tok, 100_000)
        base_tokens = tok.count(assemble_proof_prompt(
            problem, pool, (1, 1), tok, 100_000)) - tok.count(
                oracle_block(selection_order(pool)[0]))

        ordered = selection_order(pool)[:16]
        piece_tokens = [tok.count(oracle_block(e)) for e in ordered]
        for budget in range(base_tokens, base_tokens + sum(piece_tokens) + 5, 7):
            total, expected_k = base_tokens, 0
            while (expected_k < len(piece_tokens)
                   and total + piece_tokens[expected_k] <= budget):
                total += piece_tokens[expected_k]
                expected_k += 1
            prompt = assemble_proof_prompt(problem, pool, (10, 16), tok, budget)
            assert count_examples(prompt) == expected_k, budget
            assert tok.count(prompt) <= budget

    def test_zero_example_prompt_over_budget_raises(self):
        with pytest.raises(PromptExceedsBudget) as info:
            prompt_for(make_problem(0), seed_examples(1), token_budget=3)
        assert info.value.budget == 3
        assert info.value.needed > 3

    def test_empty_pool_rejected(self):
        with pytest.raises(ValueError, match="pool"):
            prompt_for(make_problem(0), [], token_budget=1000)

    def test_verified_examples_lead_most_recent_first(self):
        pool = seed_examples(2) + [
            PoolExample("v1", "Statement: one. Proof: p.",
                        "theorem v1 : True := by\n  trivial\n", source="round 1"),
            PoolExample("v2", "Statement: two. Proof: q.",
                        "theorem v2 : True := by\n  trivial\n", source="round 2"),
        ]
        prompt = prompt_for(make_problem(0), pool, token_budget=100_000)
        assert count_examples(prompt) == 4
        positions = [prompt.index(f"theorem {n}") for n in
                     ("v2", "v1", "seed0", "seed1")]
        assert positions == sorted(positions)

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
        assert check(verifier, make_problem(3), commented) == ("verified", "")

    def test_tactic_difference_rejected(self):
        verifier = MockVerifier({"prob03": canonical_proof(3)})
        wrong = canonical_proof(3).replace("norm_num", "simp")
        assert check(verifier, make_problem(3), wrong) == (
            "rejected", "token 10: expected 'norm_num', got 'simp' at offset 35")

    def test_unknown_problem_rejected(self):
        verifier = MockVerifier({})
        verdict, diagnostic = check(verifier, make_problem(9), "x := y")
        assert verdict == "rejected"
        assert "prob09" in diagnostic

    def test_unlexable_proof_rejected_not_raised(self):
        verifier = MockVerifier({"prob03": canonical_proof(3)})
        verdict, diagnostic = check(verifier, make_problem(3), '"unterminated')
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
        verdict, diagnostic = check(verifier, make_problem(3), canonical_proof(3))
        assert (verdict, diagnostic) == ("verified", "")

    def test_rejection_captures_stderr(self, checker_script):
        verifier = ExternalVerifier(checker_script, timeout_s=30)
        bad = canonical_proof(3).replace("norm_num", "sorry")
        verdict, diagnostic = check(verifier, make_problem(3), bad)
        assert verdict == "rejected"
        assert diagnostic == "proof incomplete"

    def test_imports_written_before_proof(self, checker_script):
        verifier = ExternalVerifier(checker_script, timeout_s=30)
        bare = Problem(name="prob03", fl_statement="theorem prob03 : True :=",
                       nl_statement_and_proof="x", imports="")
        verdict, diagnostic = check(verifier, bare, canonical_proof(3))
        assert (verdict, diagnostic) == ("rejected", "missing imports")

    def test_timeout_raises(self, tmp_path):
        slow = tmp_path / "slow.py"
        slow.write_text("import time; time.sleep(30)\n", encoding="utf-8")
        verifier = ExternalVerifier([sys.executable, str(slow)], timeout_s=0.3)
        with pytest.raises(VerifierTimeout, match="0.3"):
            check(verifier, make_problem(0), canonical_proof(0))

    @pytest.mark.skipif(not os.path.isdir("/proc"), reason="reads /proc/<pid>/stat")
    def test_timeout_kills_checker_children(self, tmp_path):
        # a checker that leaves the work to a child, as `lake env lean` does
        pid_file = tmp_path / "child.pid"
        script = tmp_path / "checker.sh"
        script.write_text(f"sleep 30 &\necho $! > '{pid_file}'\nwait\n",
                          encoding="utf-8")
        verifier = ExternalVerifier(["sh", str(script)], timeout_s=0.5)
        with pytest.raises(VerifierTimeout):
            check(verifier, make_problem(0), canonical_proof(0))
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
        with pytest.raises(VerifierCrashed):
            check(verifier, make_problem(0), canonical_proof(0))


def process_running(pid):
    """True while ``pid`` exists and has not exited (a zombie has)."""
    try:
        with open(f"/proc/{pid}/stat", encoding="utf-8") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


class ExplodingVerifier:
    name = "exploding"

    def check(self, problem, proof_text, tokens):
        raise AssertionError("verifier must not be consulted")


class TestEvaluateSample:
    def test_each_sample_and_each_answer_key_lexed_once(self, monkeypatch):
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
            attempt = evaluate_sample(problem, index, sample, verifier)
            assert attempt.verdict == "verified"
        # the screen and the verifier share one lex of each sample; the
        # statement is lexed once per problem, the answer key once
        assert lexed == [sample, problem.fl_statement, key, sample, sample]

    def test_verified_sample(self):
        verifier = MockVerifier({"prob03": canonical_proof(3)})
        attempt = evaluate_sample(make_problem(3), 0,
                                  "```lean\n" + canonical_proof(3) + "```",
                                  verifier)
        assert attempt.verdict == "verified"
        assert attempt.extracted_proof == canonical_proof(3)

    def test_no_proof_is_rejected(self):
        attempt = evaluate_sample(make_problem(3), 2, "I am not sure.",
                                  ExplodingVerifier())
        assert attempt.verdict == "rejected"
        assert "prob03" in attempt.diagnostic
        assert attempt.sample_index == 2

    def test_lean3_output_rejected_before_verification(self):
        problem = Problem(
            name="amc12a_2019_p21",
            fl_statement="theorem amc12a_2019_p21 : True :=",
            nl_statement_and_proof="x")
        attempt = evaluate_sample(problem, 0, LEAN3_OUTPUT_A,
                                  ExplodingVerifier())
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
        attempt = evaluate_sample(problem, 0, sample, ExternalVerifier(["true"]))
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
        attempt = evaluate_sample(problem, 0, sample, ExternalVerifier(["true"]))
        assert (attempt.verdict, attempt.diagnostic) == ("verified", "")

    @pytest.mark.parametrize("statement", [
        "theorem prob03 : True :=",
        "theorem prob03 (h : False) : 3 + 0 = 3 :=",
        "theorem prob03 : 3 + 0 = 3 ∨ True :=",
        "lemma prob03 : 3 + 0 = 3 :=",
    ])
    def test_changed_statement_rejected_before_verification(self, statement):
        sample = f"{statement} by\n  norm_num\n"
        attempt = evaluate_sample(make_problem(3), 0, sample,
                                  ExternalVerifier(["true"]))
        assert (attempt.verdict, attempt.diagnostic) == (
            "rejected", "pre-verification screen: statement changed")

    def test_statement_layout_and_comments_are_free(self):
        sample = ("theorem prob03 :\n    3 + 0 -- the sum\n    = 3 :=\n"
                  "  /- by evaluation -/ by\n  norm_num\n")
        attempt = evaluate_sample(make_problem(3), 0, sample,
                                  ExternalVerifier(["true"]))
        assert (attempt.verdict, attempt.diagnostic) == ("verified", "")

    def test_verifier_timeout_becomes_error_verdict(self):
        class Slow:
            def check(self, problem, proof_text, tokens):
                raise VerifierTimeout("verifier exceeded 1s")

        attempt = evaluate_sample(make_problem(3), 1, canonical_proof(3), Slow())
        assert attempt.verdict == "error"
        assert "exceeded" in attempt.diagnostic


class CountingBackend:
    def __init__(self, inner):
        self.inner = inner
        self.name = inner.name
        self.calls = 0

    def generate(self, request):
        self.calls += 1
        return self.inner.generate(request)


TOKENIZER = WhitespaceTokenizer()


def config(**kwargs):
    kwargs.setdefault("n_samples", 4)
    kwargs.setdefault("token_budget", 100_000)
    return ProverSettings(**kwargs)


class TestRunIteration:
    def test_rejecting_verifier_changes_nothing(self):
        problems = [make_problem(i) for i in range(3)]
        state = initial_state(problems, seed_examples(2))
        backend = MockBackend(default_text=canonical_proof(0))
        new = run_iteration(state, problems, Sampler(backend), MockVerifier({}),
                            config(), TOKENIZER)
        assert new.proved == {}
        assert new.example_pool == state.example_pool
        assert new.round == 2
        assert new.budget_used == 3 * 4

    def test_first_sample_success_costs_one_generation(self):
        problems = [make_problem(0)]
        state = initial_state(problems, seed_examples(1))
        backend = CountingBackend(MockBackend(
            script=[("prob00", canonical_proof(0))]))
        verifier = MockVerifier({"prob00": canonical_proof(0)})
        new = run_iteration(state, problems, Sampler(backend), verifier,
                            config(n_samples=1), TOKENIZER)
        assert new.proved == {"prob00": canonical_proof(0)}
        assert backend.calls == 1
        assert new.budget_used == 1

    def test_early_stop_mid_samples(self):
        problems = [make_problem(0)]
        state = initial_state(problems, seed_examples(1))
        bad = "theorem prob00 : 0 + 0 = 0 := by\n  sorry\n"
        backend = MockBackend(
            script=[("prob00", [bad, bad, canonical_proof(0)])])
        verifier = MockVerifier({"prob00": canonical_proof(0)})
        new = run_iteration(state, problems, Sampler(backend), verifier,
                            config(n_samples=8), TOKENIZER)
        assert new.budget_used == 3
        assert new.first_success == {"prob00": (1, 2)}

    def test_pool_frozen_within_round(self):
        problems = [make_problem(0), make_problem(1)]
        state = initial_state(problems, seed_examples(1))
        # problem 1 is answerable only when problem 0's verified proof is
        # already in the prompt, which cannot happen in the same round
        backend = MockBackend(script=[
            ("theorem prob00 : 0 + 0 = 0 := by", canonical_proof(1)),
            ("prob00", canonical_proof(0)),
        ])
        verifier = MockVerifier({"prob00": canonical_proof(0),
                                 "prob01": canonical_proof(1)})
        mid = run_iteration(state, problems, Sampler(backend), verifier,
                            config(), TOKENIZER)
        assert set(mid.proved) == {"prob00"}
        assert [e.name for e in mid.example_pool] == ["seed0", "prob00"]
        after = run_iteration(mid, problems, Sampler(backend), verifier,
                              config(), TOKENIZER)
        assert set(after.proved) == {"prob00", "prob01"}

    def test_backend_failure_on_one_problem_isolated(self):
        problems = [make_problem(0), make_problem(1)]
        state = initial_state(problems, seed_examples(1))

        class Selective:
            name = "selective"

            def generate(self, request):
                if "prob00" in request.prompt.split(NL_SECTION)[-1]:
                    raise BackendUnavailable("overloaded")
                return [(canonical_proof(1), False)]

        verifier = MockVerifier({"prob01": canonical_proof(1)})
        policy = RetryPolicy(max_attempts=1, sleep=lambda s: None)
        new = run_iteration(state, problems, Sampler(Selective(), retry=policy),
                            verifier, config(), TOKENIZER)
        assert set(new.proved) == {"prob01"}
        assert new.budget_used == 1  # failed draws are not counted

    def test_oversized_prompt_skips_problem(self):
        problems = [make_problem(0)]
        state = initial_state(problems, seed_examples(1))
        backend = CountingBackend(MockBackend())
        new = run_iteration(state, problems, Sampler(backend), MockVerifier({}),
                            config(token_budget=3), TOKENIZER)
        assert backend.calls == 0
        assert new.unproved == frozenset({"prob00"})


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
    backend = MockBackend(script=[
        ("add_two_two_marker", DEP_PROOF),
        ("theorem easy_add", EASY_PROOF),
    ])
    verifier = MockVerifier({"easy_add": EASY_PROOF,
                             "dependent_mul": DEP_PROOF})
    return [EASY, DEP], seed_examples(2), backend, verifier


class TestRunIterative:
    def test_two_round_fixture(self):
        problems, seeds, backend, verifier = two_round_setup()
        report = run_iterative(problems, seeds, Sampler(backend), verifier,
                               config(), TOKENIZER)
        assert [r.newly_proved for r in report.rounds] == [1, 1]
        assert [r.cumulative_proved for r in report.rounds] == [1, 2]
        assert report.rounds[0].cumulative_rate == 0.5
        assert report.rounds[1].cumulative_rate == 1.0
        assert report.first_success == {"easy_add": (1, 0),
                                        "dependent_mul": (2, 0)}
        # round 1: easy stops at sample 1, dep burns all 4; round 2: dep
        # succeeds immediately
        assert report.rounds[1].budget_used == 1 + 4 + 1

    def test_max_rounds_one_stops_short(self):
        problems, seeds, backend, verifier = two_round_setup()
        report = run_iterative(problems, seeds, Sampler(backend), verifier,
                               config(max_rounds=1), TOKENIZER)
        assert len(report.rounds) == 1
        assert set(report.proved) == {"easy_add"}

    def test_zero_progress_round_is_last(self):
        problems = [make_problem(i) for i in range(3)]
        backend = MockBackend()  # always "sorry", which extracts nothing
        report = run_iterative(problems, seed_examples(1), Sampler(backend),
                               MockVerifier({}), config(max_rounds=5), TOKENIZER)
        assert len(report.rounds) == 1
        assert report.rounds[0].newly_proved == 0
        assert report.cumulative_rate == 0.0

    def test_everything_proved_then_one_idle_round(self):
        problems = [make_problem(0)]
        backend = MockBackend(script=[("prob00", canonical_proof(0))])
        verifier = MockVerifier({"prob00": canonical_proof(0)})
        report = run_iterative(problems, seed_examples(1), Sampler(backend), verifier,
                               config(max_rounds=5), TOKENIZER)
        assert [r.newly_proved for r in report.rounds] == [1, 0]
        assert report.rounds[-1].budget_used == report.rounds[0].budget_used

    def test_rate_shape_on_244_problems(self):
        problems = [make_problem(i) for i in range(244)]
        backend = MockBackend()
        report = run_iterative(problems, seed_examples(1), Sampler(backend),
                               MockVerifier({}), config(n_samples=2), TOKENIZER)
        assert report.problems_total == 244
        assert report.cumulative_rate == 0.0
        assert report.rounds[0].budget_used == 488

    def test_deterministic_reports(self):
        problems, seeds, backend, verifier = two_round_setup()
        first = run_iterative(problems, seeds, Sampler(backend), verifier,
                              config(), TOKENIZER)
        problems, seeds, backend, verifier = two_round_setup()
        second = run_iterative(problems, seeds, Sampler(backend), verifier,
                               config(), TOKENIZER)
        assert first == second

    def test_empty_seed_pool_rejected(self):
        with pytest.raises(ValueError, match="seed pool"):
            run_iterative([make_problem(0)], [], Sampler(MockBackend()),
                          MockVerifier({}), config(), TOKENIZER)


class ScenarioBackend:
    """Answers per problem according to a gate table.

    ``always`` problems get their canonical proof on any prompt; ``dep:<j>``
    problems get it only when problem j's verified proof text is among the
    prompt examples; ``never`` problems get an unusable reply.
    """

    name = "scenario"

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
    problems = [
        Problem(name=name,
                fl_statement=f"theorem {name} (n : ℕ) : n = n :=",
                nl_statement_and_proof=f"Statement: {name}. Proof: rfl.")
        for name in names
    ]
    proofs = {name: f"theorem {name} (n : ℕ) : n = n := by\n  rfl_{name}\n"
              for name in names}
    return problems, gates, proofs


class TestRandomizedScenarios:
    def test_monotonicity_and_stopping(self):
        rng = random.Random(424242)
        for trial in range(30):
            problems, gates, proofs = random_scenario(rng)
            max_rounds = rng.randint(1, 4)
            n_samples = rng.randint(1, 3)
            backend = ScenarioBackend(gates, proofs)
            verifier = MockVerifier(proofs)
            report = run_iterative(
                problems, seed_examples(2), Sampler(backend), verifier,
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


class JitteredBackend:
    """``ScenarioBackend`` answering after a seeded 0-3 ms pause per request,
    so concurrent problems finish in a shuffled order."""

    name = "jittered"

    def __init__(self, inner, seed, concurrency=1):
        self.inner = inner
        self.seed = seed
        self.concurrency = concurrency

    def generate(self, request):
        rng = random.Random(f"{self.seed}:{request.request_id}")
        time.sleep(rng.uniform(0.0, 0.003))
        return self.inner.generate(request)


class TestConcurrentRounds:
    def run(self, scenario, concurrency, seed, **ceilings):
        problems, gates, proofs, max_rounds, n_samples = scenario
        budget = GenerationBudget(**ceilings)
        backend = JitteredBackend(ScenarioBackend(gates, proofs), seed, concurrency)
        report = run_iterative(
            problems, seed_examples(2),
            Sampler(backend, budget=budget, max_new_tokens=64),
            MockVerifier(proofs),
            config(max_rounds=max_rounds, n_samples=n_samples), TOKENIZER)
        return report, report.attempts, budget.requests_used, budget.tokens_used

    def test_reports_budgets_and_attempt_logs_match_serial(self):
        rng = random.Random(97)
        bound = 0
        for trial in range(8):
            problems, gates, proofs = random_scenario(rng)
            scenario = (problems, gates, proofs, rng.randint(1, 3),
                        rng.randint(1, 3))
            serial = self.run(scenario, 1, trial)
            requests, tokens = serial[2], serial[3]
            assert self.run(scenario, 4, trial) == serial, trial
            for ceilings in ({"max_requests": rng.randint(1, requests)},
                             {"max_tokens": rng.randint(1, tokens)}):
                serial = self.run(scenario, 1, trial, **ceilings)
                assert self.run(scenario, 4, trial, **ceilings) == serial, (
                    trial, ceilings)
                bound += serial[2] < requests
        assert bound >= 8  # most ceilings stop the run early

    def test_attempt_log_lines(self):
        problems = [make_problem(0), make_problem(1)]
        bad = "theorem prob00 : True := by\n  trivial\n"
        backend = MockBackend(script=[
            ("theorem prob00 : 0 + 0 = 0 :=\n", [bad, canonical_proof(0)]),
        ])
        verifier = MockVerifier({"prob00": canonical_proof(0)})
        report = run_iterative(problems, seed_examples(1), Sampler(backend), verifier,
                               config(n_samples=2, max_rounds=1), TOKENIZER)
        assert report.attempts == (
            {"problem": "prob00", "round": 1, "sample_index": 0,
             "verdict": "rejected",
             "diagnostic": "pre-verification screen: statement changed"},
            {"problem": "prob00", "round": 1, "sample_index": 1,
             "verdict": "verified", "diagnostic": ""},
            {"problem": "prob01", "round": 1, "sample_index": 0,
             "verdict": "rejected",
             "diagnostic": "no fenced or theorem-headed region declaring prob01"},
            {"problem": "prob01", "round": 1, "sample_index": 1,
             "verdict": "rejected",
             "diagnostic": "no fenced or theorem-headed region declaring prob01"},
        )

    def test_long_diagnostics_are_cut(self):
        class Verbose:
            def check(self, problem, proof_text, tokens):
                return "rejected", "x" * 500

        problems = [make_problem(0)]
        backend = MockBackend(default_text=canonical_proof(0))
        report = run_iterative(problems, seed_examples(1), Sampler(backend), Verbose(),
                               config(n_samples=1, max_rounds=1), TOKENIZER)
        assert [a["diagnostic"] for a in report.attempts] == ["x" * 200]

    def test_failing_problem_fails_the_round(self):
        class Broken:
            name = "broken"
            concurrency = 2

            def generate(self, request):
                raise RuntimeError("backend bug")

        problems = [make_problem(i) for i in range(3)]
        state = initial_state(problems, seed_examples(1))
        with pytest.raises(RuntimeError, match="backend bug"):
            run_iteration(state, problems, Sampler(Broken()), MockVerifier({}),
                          config(), TOKENIZER)

    def test_reservations_are_returned(self):
        problems = [make_problem(i) for i in range(5)]
        state = initial_state(problems, seed_examples(1))
        budget = GenerationBudget(max_requests=11)
        backend = MockBackend(default_text=canonical_proof(0))
        backend.concurrency = 3  # every prompt gets the same text
        new = run_iteration(state, problems, Sampler(backend, budget=budget),
                            MockVerifier({}), config(n_samples=4), TOKENIZER)
        # two problems reserve their 4 requests each; the third cannot and
        # runs alone on the 3 left, as a serial run would
        assert new.budget_used == budget.requests_used == 11
        assert (budget.requests_reserved, budget.tokens_reserved) == (0, 0)
        assert [a["problem"] for a in new.attempts] == (
            ["prob00"] * 4 + ["prob01"] * 4 + ["prob02"] * 3)


class TestReports:
    def round_trip(self, tmp_path):
        problems, seeds, backend, verifier = two_round_setup()
        report = run_iterative(problems, seeds, Sampler(backend), verifier,
                               config(), TOKENIZER)
        path = tmp_path / "report.jsonl"
        save_report(report, str(path))
        return report, path, problems, verifier

    def test_save_load_reverifies(self, tmp_path):
        report, path, problems, verifier = self.round_trip(tmp_path)
        loaded = load_report(str(path), problems, verifier)
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
            load_report(str(path), problems, verifier)

    def test_screened_proof_rejected_on_load(self, tmp_path):
        problem = make_problem(3)
        report = HarnessReport(
            problems_total=1, rounds=(), proved={
                "prob03": f"{problem.fl_statement} by\n  admit\n"},
            first_success={"prob03": (1, 0)})
        path = tmp_path / "report.jsonl"
        save_report(report, str(path))
        with pytest.raises(ReportInvalid, match="pre-verification screen: sorry"):
            load_report(str(path), [problem], ExternalVerifier(["true"]))

    def test_changed_statement_rejected_on_load(self, tmp_path):
        problem = make_problem(3)
        report = HarnessReport(
            problems_total=1, rounds=(), proved={
                "prob03": "theorem prob03 : True := by\n  trivial\n"},
            first_success={"prob03": (1, 0)})
        path = tmp_path / "report.jsonl"
        save_report(report, str(path))
        with pytest.raises(ReportInvalid, match="statement changed"):
            load_report(str(path), [problem], ExternalVerifier(["true"]))

    def test_verifier_timeout_is_a_stored_proof_that_no_longer_verifies(
            self, tmp_path):
        _, path, problems, _ = self.round_trip(tmp_path)

        class Slow:
            def check(self, problem, proof_text, tokens):
                raise VerifierTimeout(f"verifier exceeded 1s on {problem.name}")

        with pytest.raises(ReportInvalid) as info:
            load_report(str(path), problems, Slow())
        assert str(info.value) == (
            f"{path}:2: stored proof for dependent_mul no longer verifies: "
            "verifier exceeded 1s on dependent_mul")

    def test_unknown_problem_rejected(self, tmp_path):
        report, path, problems, verifier = self.round_trip(tmp_path)
        with pytest.raises(ReportInvalid, match="unknown problem"):
            load_report(str(path), problems[:1], verifier)

    def test_problem_listed_twice_rejected(self, tmp_path):
        report, path, problems, verifier = self.round_trip(tmp_path)
        lines = path.read_text(encoding="utf-8").splitlines(True)
        path.write_text("".join(lines + lines[1:2]), encoding="utf-8")
        name = json.loads(lines[1])["name"]
        with pytest.raises(ReportInvalid,
                           match=f"report.jsonl:{len(lines) + 1}: {name} is listed twice"):
            load_report(str(path), problems, verifier)

    def test_repeated_problem_name_rejected_as_prove_does(self, tmp_path):
        report, path, problems, verifier = self.round_trip(tmp_path)
        with pytest.raises(ValueError, match="problem names must be unique") as loading:
            load_report(str(path), problems + problems[:1], verifier)
        with pytest.raises(ValueError, match="problem names must be unique") as proving:
            initial_state(problems + problems[:1], [])
        assert str(loading.value) == str(proving.value)

    def test_wrong_header_rejected(self, tmp_path):
        path = tmp_path / "report.jsonl"
        path.write_text('{"kind": "something-else", "problems_total": 0, '
                        '"rounds": []}\n', encoding="utf-8")
        with pytest.raises(ReportInvalid, match="not a harness report"):
            load_report(str(path), [], MockVerifier({}))

    def test_table_format(self, tmp_path):
        report, _, _, _ = self.round_trip(tmp_path)
        table = format_report_table(report)
        assert "proved 2/2 (100.0%)" in table
        lines = table.splitlines()
        assert lines[0].split() == ["round", "new", "proved", "rate", "samples"]
        assert lines[1].split() == ["1", "1", "1", "50.0%", "5"]
        assert lines[2].split() == ["2", "1", "2", "100.0%", "6"]
