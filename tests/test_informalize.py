"""Tests for NL generation orchestration: quality gates, retries, checkpoints.

The repetition detector's ratio threshold is pinned by twenty hand-built
good/bad texts below; the detector targets short-period token loops, which
is what degenerate sampling actually produces.
"""

import json
import os
import random
import tempfile

import pytest

from leanforge import retrieval
from leanforge.artifacts import ArtifactError, read_jsonl
from leanforge.config import InformalizeSettings
from leanforge.corpus import TheoremRecord
from leanforge.genclient import BackendUnavailable, GenClientError
from leanforge.informalize import (
    BACKEND_ERROR,
    MISSING_SECTION,
    OVERLENGTH,
    REPETITION,
    InformalizationResult,
    informalize_corpus,
    informalize_theorem,
    load_checkpoint,
    quality_check,
    save_informal_dataset,
)
from leanforge.prompts import (
    FL_PROOF_SECTION,
    FL_STATEMENT_SECTION,
    NL_SECTION,
    informalization_prompt,
)
from support import (
    BACKEND,
    KeyedBackend,
    example_index,
    example_pool,
    make_budget,
    make_sampler,
    mock_backend,
    retry_policy,
    serial_ask,
)


GOOD_NL = (
    "Statement: The sum of the first n odd numbers is n squared. "
    "Proof: We proceed by induction on n. The base case holds since the "
    "first odd number is 1, which equals 1 squared. For the inductive step, "
    "assume the sum of the first k odd numbers is k squared; adding the "
    "next odd number 2k + 1 gives (k + 1) squared, completing the proof."
)

# ten texts the screen must accept and ten it must reject, with the reason
# codes the rejection must include
GOOD_TEXTS = [
    GOOD_NL,
    "Statement: 1 + 1 = 2. Proof: Both sides reduce to 2.",
    "Statement: n = n. Proof: Reflexivity.",
    ("Statement: For every real number x, the absolute value of x is "
     "nonnegative. Proof: We argue by cases. In the first case, suppose x "
     "is nonnegative; then the absolute value of x equals x, which is "
     "nonnegative by assumption. In the second case, suppose x is negative; "
     "then the absolute value of x equals negative x, which is positive. "
     "In both cases the absolute value of x is nonnegative."),
    ("Statement: If x^2 + y^2 = 1 then the point (x, y) lies on the unit "
     "circle. Proof: By definition, the unit circle consists of all points "
     "whose coordinates satisfy x^2 + y^2 = 1. The hypothesis states "
     "exactly this equation, so the point lies on the circle."),
    ("Statement: The square root of 2 is irrational. Proof: Suppose toward "
     "a contradiction that the square root of 2 equals p / q in lowest "
     "terms. Squaring gives p^2 = 2 q^2, so p is even, say p = 2r. Then "
     "4 r^2 = 2 q^2, so q is even as well, contradicting lowest terms."),
    ("Statement: For positive reals a and b, the arithmetic mean dominates "
     "the geometric mean. Proof: Since (sqrt a - sqrt b)^2 >= 0, expanding "
     "gives a - 2 sqrt (a b) + b >= 0, hence (a + b) / 2 >= sqrt (a b)."),
    ("Statement: The integral of f' over [a, b] equals f(b) - f(a). "
     "Proof: Step 1: f is continuous on [a, b] because it is differentiable "
     "there. Step 2: by the fundamental theorem of calculus applied to the "
     "antiderivative f, the integral of f' from a to b is f(b) - f(a)."),
    ("Statement: Every natural number greater than 1 has a prime divisor. "
     "Proof: Take the least divisor d of n with d > 1. If d were composite, "
     "a proper factor of d would be a smaller divisor of n exceeding 1, "
     "contradicting minimality. Hence d is prime."),
    ("Statement: ∑ k in range n, (2k + 1) = n^2. Proof: Rewrite the sum as "
     "2 · ∑ k + ∑ 1 = n(n-1) + n = n^2, using the triangular number "
     "formula and simple algebra."),
]

BAD_TEXTS = [
    ("Statement: " + "the " * 10 + ". Proof: " + "the " * 10 + ".",
     {REPETITION}),
    ("Statement: ring ring ring ring ring ring ring ring ring ring ring "
     "ring. Proof: ring ring ring ring ring ring ring ring ring ring ring "
     "ring.", {REPETITION}),
    ("Statement: " + "and so on " * 14 + "Proof: " + "and so on " * 14,
     {REPETITION}),
    ("Statement: " + "blah blah " * 10 + "Proof: " + "blah blah " * 10,
     {REPETITION}),
    ("Statement: trivial. Proof: " + "so " * 24, {REPETITION}),
    ("Statement: sums. Proof: " + " ".join(f"w{i}" for i in range(2100)),
     {OVERLENGTH}),
    ("Statement: there is no proof section here, it just trails off.",
     {MISSING_SECTION}),
    ("Proof: a proof without any statement marker.", {MISSING_SECTION}),
    ("", {MISSING_SECTION}),
    ("ring " * 2100, {OVERLENGTH, REPETITION, MISSING_SECTION}),
]


class TestQualityCheck:
    def test_calibration_goods(self):
        settings = InformalizeSettings()
        for text in GOOD_TEXTS:
            reasons = quality_check(text, settings)
            assert not reasons, (text[:60], reasons)

    def test_calibration_bads(self):
        settings = InformalizeSettings()
        for text, expected in BAD_TEXTS:
            reasons = quality_check(text, settings)
            assert reasons, text[:60]
            assert expected <= set(reasons), (text[:60], reasons)

    def test_twenty_fixtures_on_file(self):
        assert len(GOOD_TEXTS) + len(BAD_TEXTS) == 20

    def test_overlength_threshold_exact(self):
        settings = InformalizeSettings(max_tokens=5)
        assert quality_check("Statement: Proof: ok", settings) == ()  # 5 tokens
        assert OVERLENGTH in quality_check("Statement: Proof: ok ok", settings)

    def test_unique_ngrams_never_repetition(self):
        # two total 4-grams, each seen once: ratio 0.5 > 0.3, but nothing
        # actually repeats
        assert quality_check("Statement: Proof: x", InformalizeSettings()) == ()

    def test_all_reasons_reported_together(self):
        text = "ring " * 2100
        reasons = quality_check(text, InformalizeSettings())
        assert reasons == (OVERLENGTH, REPETITION, MISSING_SECTION)



def theorem(name, statement=None, proof=":= by norm_num"):
    return TheoremRecord(
        name=name,
        statement=statement or f"theorem {name} : 2 + 2 = 4 :=",
        proof=proof,
        file_path="Fixtures/Arith.lean",
        commit="deadbeef",
        difficulty=1,
    )


def ask(record, backend, **settings):
    """The ask ``informalize_corpus`` hands ``record`` with no examples."""
    return serial_ask(make_sampler(backend, **settings),
                      informalization_prompt((), record.statement, record.proof))


class TestInformalizeTheorem:
    def test_prompt_carries_sections_and_examples(self):
        # Extraction's layout: the proof repeats the statement as its header.
        statement = "theorem mythm : 2 + 2 = 4 := by"
        record = theorem("mythm", statement, statement + "\n  norm_num")
        prompt = informalization_prompt(example_pool(2), record.statement, record.proof)
        assert FL_STATEMENT_SECTION in prompt
        assert FL_PROOF_SECTION in prompt
        assert prompt.rstrip().endswith(NL_SECTION)
        assert "fact number 0" in prompt
        assert "theorem ex1" in prompt
        assert record.statement in prompt
        assert prompt.count(record.proof) == 1
        assert record.statement + record.proof not in prompt

    def test_passing_text_first_try(self):
        backend = mock_backend([("mythm", GOOD_NL)])
        record = theorem("mythm")
        result = informalize_theorem(
            record, 0, [], ask(record, backend), InformalizeSettings())
        assert result.verdict == "pass"
        assert result.attempts == 1
        assert result.nl_statement_and_proof == GOOD_NL
        assert result.attempt_reasons == ((),)

    def test_retry_after_overlength(self):
        too_long = "Statement: Proof: " + " ".join(f"w{i}" for i in range(2100))
        backend = mock_backend([("mythm", [too_long, GOOD_NL])])
        record = theorem("mythm")
        result = informalize_theorem(
            record, 0, [], ask(record, backend), InformalizeSettings())
        assert result.verdict == "pass"
        assert result.attempts == 2
        assert result.attempt_reasons == ((OVERLENGTH,), ())

    def test_always_failing_records_all_attempts(self):
        backend = mock_backend(default_text="no sections at all here")
        result = informalize_theorem(
            theorem("t"), 0, [], ask(theorem("t"), backend),
            InformalizeSettings(max_attempts=3))
        assert result.verdict == "fail"
        assert result.attempts == 3
        assert result.attempt_reasons == ((MISSING_SECTION,),) * 3
        assert result.reasons == (MISSING_SECTION,)
        # the last attempt's text is retained for inspection
        assert result.nl_statement_and_proof == "no sections at all here"

    def test_backend_failure_recorded_not_raised(self):
        class Down:
            name = "down"
            concurrency = 1

            def generate(self, request):
                raise BackendUnavailable("offline")

        policy = retry_policy(max_attempts=2, sleep=lambda s: None)
        result = informalize_theorem(
            theorem("t"), 0, [], ask(theorem("t"), Down(), retry=policy),
            InformalizeSettings(max_attempts=2))
        assert result.verdict == "fail"
        assert result.attempt_reasons == ((BACKEND_ERROR,), (BACKEND_ERROR,))

    def test_budget_exhaustion_stops_attempts(self):
        backend = mock_backend(default_text="no sections")
        budget = make_budget(max_requests=1)
        result = informalize_theorem(
            theorem("t"), 0, [], ask(theorem("t"), backend, budget=budget),
            InformalizeSettings(max_attempts=5))
        assert result.verdict == "fail"
        assert result.attempts == 2
        assert result.attempt_reasons == ((MISSING_SECTION,), (BACKEND_ERROR,))

    def test_truncated_sample_is_overlength(self):
        class Truncating:
            name = "truncating"
            concurrency = 1

            def generate(self, request):
                return [(GOOD_NL, True)] * request.n_samples

        result = informalize_theorem(
            theorem("t"), 0, [], ask(theorem("t"), Truncating()),
            InformalizeSettings(max_attempts=1))
        assert result.verdict == "fail"
        assert OVERLENGTH in result.reasons



def corpus_records(count):
    return [theorem(f"thm{i:02d}") for i in range(count)]


def passing_backend():
    return mock_backend(default_text=GOOD_NL)


def informalize(records, backend, budget=None, max_new_tokens=BACKEND.max_new_tokens,
                k_examples=InformalizeSettings.k_examples, index=None,
                checkpoint_path=None, restart=False):
    """``informalize_corpus`` asking ``backend`` with ``budget``, or a budget
    with no ceiling. With no ``checkpoint_path`` the checkpoint goes to a
    directory removed after."""
    with tempfile.TemporaryDirectory() as scratch:
        return informalize_corpus(
            records, make_sampler(backend, budget=budget, max_new_tokens=max_new_tokens),
            InformalizeSettings(k_examples=k_examples), index,
            checkpoint_path or os.path.join(scratch, "informalize.ckpt.jsonl"), restart)


class TestInformalizeCorpus:
    def test_empty_corpus(self):
        assert informalize([], passing_backend()) == []

    def test_all_pass(self):
        records = corpus_records(10)
        results = informalize(records, passing_backend())
        assert len(results) == 10
        assert all(r.verdict == "pass" for r in results)
        assert [r.theorem_name for r in results] == [r.name for r in records]

    def test_named_failures_exact(self):
        records = corpus_records(10)
        bad = "the " * 40
        script = [(name, bad) for name in ("thm02", "thm05", "thm06")]
        backend = mock_backend(script, default_text=GOOD_NL)
        results = informalize(records, backend)
        failed = {r.theorem_name for r in results if r.verdict == "fail"}
        assert failed == {"thm02", "thm05", "thm06"}
        assert [r.theorem_name for r in results] == [r.name for r in records]

    def test_checkpoint_resume_matches_uninterrupted(self, tmp_path):
        records = corpus_records(10)
        checkpoint = tmp_path / "informal.ckpt.jsonl"

        full = informalize(
            records, passing_backend(),
            checkpoint_path=str(tmp_path / "full.ckpt.jsonl"),
        )

        # simulate an interrupted run: keep only the first 4 checkpoint lines
        informalize(records, passing_backend(), checkpoint_path=str(checkpoint))
        lines = checkpoint.read_text(encoding="utf-8").splitlines(keepends=True)
        checkpoint.write_text("".join(lines[:4]), encoding="utf-8")

        calls = []

        class Counting:
            name = "counting"
            concurrency = 1

            def generate(self, request):
                calls.append(request.prompt)
                return [(GOOD_NL, False)] * request.n_samples

        resumed = informalize(records, Counting(), checkpoint_path=str(checkpoint))
        assert len(calls) == 6
        assert resumed == full

        out_full, out_resumed = tmp_path / "full.jsonl", tmp_path / "resumed.jsonl"
        save_informal_dataset(records, full, str(out_full))
        save_informal_dataset(records, resumed, str(out_resumed))
        assert out_full.read_bytes() == out_resumed.read_bytes()

    def test_completed_checkpoint_makes_no_calls(self, tmp_path):
        records = corpus_records(5)
        checkpoint = tmp_path / "done.ckpt.jsonl"
        first = informalize(
            records, passing_backend(), checkpoint_path=str(checkpoint))

        class Exploding:
            name = "exploding"
            concurrency = 1

            def generate(self, request):
                raise AssertionError("should not be called")

        again = informalize(
            records, Exploding(), checkpoint_path=str(checkpoint))
        assert again == first

    def test_mismatched_checkpoint_refused(self, tmp_path):
        records = corpus_records(5)
        checkpoint = tmp_path / "c.jsonl"
        informalize(records, passing_backend(),
            checkpoint_path=str(checkpoint))
        reordered = list(reversed(records))
        with pytest.raises(ArtifactError, match="run without --resume"):
            informalize(reordered, passing_backend(),
                checkpoint_path=str(checkpoint))

    def test_unparseable_checkpoint_refused(self, tmp_path):
        checkpoint = tmp_path / "c.jsonl"
        checkpoint.write_text('{"theorem_name": "thm00"\n', encoding="utf-8")
        with pytest.raises(ArtifactError, match="run without --resume"):
            informalize(corpus_records(2), passing_backend(),
                checkpoint_path=str(checkpoint))

    def test_torn_final_line_dropped_and_regenerated(self, tmp_path):
        records = corpus_records(3)
        checkpoint = tmp_path / "c.jsonl"
        informalize(records, passing_backend(),
            checkpoint_path=str(checkpoint))
        whole = checkpoint.read_bytes()
        lines = whole.splitlines(True)
        checkpoint.write_bytes(b"".join(lines[:2]) + lines[2][:10])
        assert len(load_checkpoint(str(checkpoint))) == 2
        assert checkpoint.read_bytes() == b"".join(lines[:2])
        results = informalize(records, passing_backend(),
            checkpoint_path=str(checkpoint))
        assert [r.theorem_name for r in results] == ["thm00", "thm01", "thm02"]
        assert checkpoint.read_bytes() == whole

    def test_tampered_pass_entry_refused(self, tmp_path):
        records = corpus_records(2)
        checkpoint = tmp_path / "c.jsonl"
        informalize(records, passing_backend(),
            checkpoint_path=str(checkpoint))
        entries = [json.loads(line) for line in checkpoint.read_text().splitlines()]
        entries[0]["nl_statement_and_proof"] = "the " * 50
        checkpoint.write_text(
            "\n".join(json.dumps(e) for e in entries) + "\n", encoding="utf-8")
        with pytest.raises(ArtifactError, match="violates"):
            informalize(records, passing_backend(),
                checkpoint_path=str(checkpoint))

    def test_restart_discards_checkpoint(self, tmp_path):
        records = corpus_records(3)
        checkpoint = tmp_path / "c.jsonl"
        checkpoint.write_text("garbage that is not json\n", encoding="utf-8")
        results = informalize(records, passing_backend(),
                              checkpoint_path=str(checkpoint), restart=True)
        assert len(results) == 3
        assert len(load_checkpoint(str(checkpoint))) == 3

    def test_examples_flow_into_prompts(self):
        index = example_index(example_pool(3), "fl", retrieval.HashEmbedder(dimension=32))
        seen = []

        class Recording:
            name = "recording"
            concurrency = 1

            def generate(self, request):
                seen.append(request.prompt)
                return [(GOOD_NL, False)] * request.n_samples

        results = informalize(corpus_records(2), Recording(), index=index, k_examples=2)
        assert all(len(r.examples_used) == 2 for r in results)
        assert all(FL_PROOF_SECTION in p for p in seen)

    def test_queries_embedded_in_one_call_over_the_pending_records(self, tmp_path):
        class Counting(retrieval.HashEmbedder):
            calls = []

            def embed(self, texts):
                self.calls.append(list(texts))
                return super().embed(texts)

        embedder = Counting(dimension=32)
        index = example_index(example_pool(6), "fl", embedder)
        records = [theorem(f"thm{i:02d}", f"theorem thm{i:02d} : {i % 6} + 0 = {i % 6} :=")
                   for i in range(7)]
        prompts = []

        class Recording:
            name = "recording"
            concurrency = 1

            def generate(self, request):
                prompts.append(request.prompt)
                return [(GOOD_NL, False)] * request.n_samples

        def run(count):
            del embedder.calls[:], prompts[:]
            informalize(records[:count], Recording(), index=index, k_examples=2,
                        checkpoint_path=str(tmp_path / "c.jsonl"))

        # one call per record, as before the queries were batched
        one_by_one = [
            informalization_prompt(index.nearest([r.statement], 2)[0], r.statement, r.proof)
            for r in records]
        run(3)
        assert embedder.calls == [[r.statement for r in records[:3]]]
        assert prompts == one_by_one[:3]
        run(7)  # resumes after the three checkpointed records
        assert embedder.calls == [[r.statement for r in records[3:]]]
        assert prompts == one_by_one[3:]


def scenario_reply(seed):
    """Per request id: a passing text, a repetitive one, or a malformed reply."""
    def reply(request):
        roll = random.Random(f"{seed}:reply:{request.request_id}").random()
        if roll < 0.15:
            raise GenClientError("scripted bad reply")
        return "the " * 40 if roll < 0.45 else GOOD_NL
    return reply


class TestConcurrentCorpus:
    """Four records in flight give what one at a time gives: the results,
    the checkpoint and the budget use, also under ceilings that bind
    mid-run."""

    def run(self, tmp_path, records, seed, concurrency, **ceilings):
        index = example_index(example_pool(6), "fl", retrieval.HashEmbedder(dimension=32))
        budget = make_budget(**ceilings)
        checkpoint = tmp_path / f"c{concurrency}.jsonl"
        results = informalize(
            records, KeyedBackend(scenario_reply(seed), seed, concurrency),
            index=index, k_examples=2, checkpoint_path=str(checkpoint),
            restart=True, budget=budget, max_new_tokens=64)
        return (results, checkpoint.read_bytes(), budget.requests_used,
                budget.tokens_used)

    def test_results_checkpoint_and_budget_match_serial(self, tmp_path):
        rng = random.Random(31)
        bound = 0
        for trial in range(6):
            records = [
                theorem(f"thm{i:02d}",
                        f"theorem thm{i:02d} : {'1 + ' * rng.randint(0, 40)}1 = 1 :=")
                for i in range(rng.randint(3, 9))
            ]
            serial = self.run(tmp_path, records, trial, 1)
            requests, tokens = serial[2], serial[3]
            assert self.run(tmp_path, records, trial, 4) == serial, trial
            for ceilings in ({"max_requests": rng.randint(1, requests)},
                             {"max_tokens": rng.randint(1, tokens)}):
                serial = self.run(tmp_path, records, trial, 1, **ceilings)
                assert self.run(tmp_path, records, trial, 4, **ceilings) == serial, (
                    trial, ceilings)
                bound += serial[2] < requests
        assert bound >= 6  # most ceilings stop the run early


class TestDatasetFile:
    def test_save_and_reload_rechecks(self, tmp_path):
        records = corpus_records(4)
        results = informalize(records, passing_backend())
        path = tmp_path / "informal.jsonl"
        save_informal_dataset(records, results, str(path))
        entries = [line.entry for line in read_jsonl(str(path))]
        assert not any(quality_check(e["Generated_informal_statement_and_proof"],
                                     InformalizeSettings()) for e in entries)
        assert len(entries) == 4
        assert set(entries[0]) == {
            "Name", "Statement", "Proof", "File_path", "Commit",
            "Generated_informal_statement_and_proof", "verdict", "reasons",
        }

    def test_same_name_records_keep_their_own_results(self, tmp_path):
        # namespaces make names repeat; result i belongs to record i
        records = [theorem("foo", proof=":= by norm_num [Nat.add]"),
                   theorem("foo", proof=":= by norm_num [Int.add]")]
        results = [
            InformalizationResult(
                theorem_name="foo", nl_statement_and_proof=f"Statement: {t}. Proof: {t}.",
                examples_used=(), attempts=1, verdict=verdict, reasons=(),
                attempt_reasons=((),))
            for t, verdict in (("Nat", "pass"), ("Int", "fail"))]
        path = tmp_path / "informal.jsonl"
        save_informal_dataset(records, results, str(path))
        entries = [line.entry for line in read_jsonl(str(path))]
        assert [(e["Proof"], e["Generated_informal_statement_and_proof"], e["verdict"])
                for e in entries] == [
            (":= by norm_num [Nat.add]", "Statement: Nat. Proof: Nat.", "pass"),
            (":= by norm_num [Int.add]", "Statement: Int. Proof: Int.", "fail")]

    def test_result_count_must_match_record_count(self, tmp_path):
        records = corpus_records(3)
        results = informalize(records, passing_backend())
        path = tmp_path / "informal.jsonl"
        with pytest.raises(ValueError):
            save_informal_dataset(records, results[:2], str(path))
        assert not path.exists()

    def test_fail_records_retained(self, tmp_path):
        records = corpus_records(3)
        backend = mock_backend([("thm01", "the " * 40)], default_text=GOOD_NL)
        results = informalize(records, backend)
        path = tmp_path / "informal.jsonl"
        save_informal_dataset(records, results, str(path))
        entries = [line.entry for line in read_jsonl(str(path))]
        verdicts = {e["Name"]: e["verdict"] for e in entries}
        assert verdicts == {"thm00": "pass", "thm01": "fail", "thm02": "pass"}
