"""Acceptance suite: one test per shipping criterion, each printing a
single verdict line. Quantitative checks reuse the independent oracles from
the module tests rather than the implementation's own code paths."""

import json
import math
import random
import time

import numpy as np
import pytest

import support
import test_cli
import test_prover
from fixtures import listings
from support import lex_lean
from leanforge import artifacts, retrieval
from leanforge.bootstrap import (
    InformalRecord,
    ObtRecord,
    assemble_obt_record,
    head_bootstrap,
    load_obt_dataset,
    verify_bootstrap,
)
from leanforge.config import RetrievalSettings
from leanforge.corpus import code_divergence
from leanforge.prompts import PromptCounter, PromptExceedsBudget
from leanforge.prover import run_iterative
from leanforge.retrieval import (
    ProjectionHead,
    build_index,
    similarity_histogram,
    top_k,
    train_projection,
)
from leanforge.trainprep import (
    WhitespaceTokenizer,
    counted_blocks,
    curriculum_sort,
    pack_block,
)
from test_trainprep import oracle_pack, synthetic_sources


def verdict(capsys, number, title):
    with capsys.disabled():
        print(f"acceptance {number} ({title}): PASS", flush=True)


# --- criterion 1: lexer and comment-stripping soundness ---------------------------


HANDWRITTEN_SNIPPETS = [
    "",
    "-- just a line comment\n",
    "/- a /- nested -/ block -/ theorem n : 1 = 1 := rfl\n",
    "/- /- /- /- deep -/ -/ -/ -/\nexample : True := trivial\n",
    'example : s = "a -- not a comment" := rfl\n',
    'example : t = "b /- not a block -/" := rfl\n',
    "theorem c : ch = 'a' := rfl\n",
    "theorem esc : ch = '\\n' := rfl\n",
    'theorem qesc : s = "say \\"hi\\"" := rfl\n',
    "/-- a doc comment -/\ntheorem doc : True := trivial\n",
    "/- unicode ∀ ε > 0 inside -/ lemma eps (h : 0 < ε) : 0 < ε := h\n",
    "theorem tabbed : True := by\n\ttrivial\n",
    "-- contains /- an unopened block marker\ncode_after\n",
    "/- contains -- a line marker -/ code_after\n",
    "theorem anon ⟨h₁, h₂⟩ : p ∧ q := ⟨h₁, h₂⟩\n",
    "theorem primes (h' : x' = y') : x' = y' := h'\n",
]

LISTING_SNIPPETS = [
    listings.SQINEQ_COMMENTED,
    listings.AMC12B_2002_P2,
    listings.AMC12A_2019_P21_STATEMENT,
    listings.LEAN3_OUTPUT_A,
    listings.MATHD_NUMBERTHEORY_543_STATEMENT,
    listings.LEAN3_OUTPUT_B,
    listings.MATHD_ALGEBRA_270,
    listings.AMC12_2000_P5,
    listings.MATHD_ALGEBRA_451,
    listings.MATHD_ALGEBRA_116,
    listings.MATHD_ALGEBRA_338,
    listings.INTEGRAL_STATEMENT,
    listings.INTEGRAL_PROOF,
    listings.INTEGRAL_COMMENTED,
]


def snippet_corpus():
    snippets = list(LISTING_SNIPPETS)
    snippets.extend(HANDWRITTEN_SNIPPETS)
    snippets.extend(test_cli.THEOREM_TEXTS)
    snippets.extend(test_cli.CORPUS_FILES.values())
    snippets.extend(
        support.random_leanish_source(random.Random(1000 + i))
        for i in range(15)
    )
    return snippets


class TestCriterion1:
    def test_lexer_soundness_and_comment_invariance(self, capsys):
        snippets = snippet_corpus()
        assert len(snippets) >= 50
        started = time.perf_counter()

        for snippet in snippets:
            tokens = lex_lean(snippet)
            assert "".join(t.text for t in tokens) == snippet
            assert code_divergence(
                snippet, support.strip_comments(snippet)) is None

        rng = random.Random(9001)
        for trial in range(1000):
            source = snippets[trial % len(snippets)]
            mutated = support.insert_comments_reckless(
                source, rng, count=rng.randint(1, 3))
            assert code_divergence(source, mutated) is None, trial

        elapsed = time.perf_counter() - started
        assert elapsed < 5.0, f"took {elapsed:.2f}s"
        verdict(capsys, 1,
                f"lexer soundness, {len(snippets)} snippets + 1000 trials "
                f"in {elapsed:.2f}s")


# --- criterion 2: bootstrap verification ------------------------------------------


BOOTSTRAP_SOURCES = (
    [listings.SQINEQ_COMMENTED, listings.AMC12B_2002_P2,
     listings.MATHD_ALGEBRA_270, listings.AMC12_2000_P5,
     listings.MATHD_ALGEBRA_451, listings.MATHD_ALGEBRA_116,
     listings.MATHD_ALGEBRA_338, listings.INTEGRAL_PROOF,
     test_cli.HW_ONE, test_cli.HW_TWO]
    + test_cli.THEOREM_TEXTS
)

MUTANT = "zzmutated"


def mutate_token(source, index):
    """Replace the index-th semantic token, padded so neighbors keep their
    own token boundaries."""
    token = support.semantic_tokens(source)[index]
    return source[:token.start] + f" {MUTANT} " + source[token.end:]


class TestCriterion2:
    def test_head_bootstraps_verify_and_mutants_are_located(self, capsys):
        informal = ("Statement: the stated identity holds. "
                    "Proof: normalize and finish with arithmetic.")
        verified = 0
        for source in BOOTSTRAP_SOURCES:
            commented = head_bootstrap(informal, source)
            ok, divergence = verify_bootstrap(source, commented)
            assert ok and divergence is None, source[:40]
            verified += 1
        assert verified == len(BOOTSTRAP_SOURCES)

        mutations = 0
        for source in BOOTSTRAP_SOURCES:
            token_count = len(support.semantic_tokens(source))
            for index in range(0, token_count, 3):
                mutated = mutate_token(source, index)
                commented = head_bootstrap(informal, mutated)
                ok, divergence = verify_bootstrap(source, commented)
                assert not ok, (source[:40], index)
                assert divergence.index == index
                assert divergence.expected == support.semantic_tokens(source)[index].text
                assert divergence.actual == MUTANT
                assert commented[divergence.offset:].startswith(MUTANT)
                mutations += 1

        verdict(capsys, 2,
                f"bootstrap verification, {verified} clean + "
                f"{mutations} located mutants")


# --- criterion 3: contrastive loss and gradient ------------------------------------


class TestCriterion3:
    def test_gradient_matches_finite_differences_and_loss_fixtures(
            self, capsys):
        rng = np.random.default_rng(4242)
        for trial in range(100):
            size = int(rng.integers(2, 9))
            dim = int(rng.integers(2, 17))
            d_out = int(rng.integers(1, dim + 1))
            pairs = [(rng.normal(size=dim), rng.normal(size=dim))
                     for _ in range(size)]
            head = ProjectionHead.initialize(
                dim, d_out, seed=int(rng.integers(10_000)))
            analytic = support.contrastive_gradient(pairs, head)
            fd = support.fd_contrastive_gradient(pairs, head)
            scale = max(np.linalg.norm(analytic), np.linalg.norm(fd), 1e-8)
            assert np.linalg.norm(analytic - fd) / scale < 1e-4, trial

        identity = ProjectionHead(np.eye(4), 4, 4, seed=0)
        e1, e2 = np.eye(4)[:2]
        orthogonal = [(e1, e1), (e2, e2)]
        assert support.contrastive_loss(orthogonal, identity) == \
            pytest.approx(0.0, abs=1e-9)

        same = np.asarray([0.3, -0.7, 2.0, 0.4], dtype=np.float64)
        identical = [(same, same), (same, same)]
        assert support.contrastive_loss(identical, identity) == \
            pytest.approx(1.0, abs=1e-9)

        verdict(capsys, 3,
                "contrastive gradient vs finite differences on 100 batches, "
                "loss fixtures exact")


# --- criterion 4: retrieval quality on the synthetic corpus ------------------------


class TestCriterion4:
    def test_trained_retrieval_separates_aligned_pairs(self, capsys):
        pairs = support.rotated_pair_corpus(
            seed=202, count=200, dim=64, rotate_dims=16, angle=math.pi / 2)
        started = time.perf_counter()
        head, trace = train_projection(
            pairs, RetrievalSettings(lr=0.05, steps=500, batch_size=8), 0)
        elapsed = time.perf_counter() - started
        assert elapsed < 60.0, f"training took {elapsed:.2f}s"

        index = build_index(
            [(f"thm{i:03d}", fl) for i, (_, fl) in enumerate(pairs)], head)
        hits = sum(
            1 for i, (nl, _) in enumerate(pairs)
            if top_k(index, nl, 1)[0][0] == f"thm{i:03d}"
        )
        recall = hits / len(pairs)
        assert recall >= 0.95

        nl_vectors = [p[0] for p in pairs]
        fl_vectors = [p[1] for p in pairs]
        _, _, matrix = similarity_histogram(nl_vectors, fl_vectors, head)
        aligned = np.diag(matrix)
        off_diagonal = matrix[~np.eye(len(pairs), dtype=bool)]
        aligned_high = float((aligned > 0.9).mean())
        crossed_low = float((off_diagonal < 0.3).mean())
        assert aligned_high >= 0.8
        assert crossed_low >= 0.8

        verdict(capsys, 4,
                f"retrieval recall@1 {recall:.1%}, aligned>0.9 "
                f"{aligned_high:.1%}, non-aligned<0.3 {crossed_low:.1%}, "
                f"trained in {elapsed:.2f}s")


# --- criterion 5: packing and curriculum on 1,000 records --------------------------


class TestCriterion5:
    def test_curriculum_and_packing_agree_with_greedy_oracle(self, capsys):
        rng = random.Random(5005)
        sources = synthetic_sources(rng, 1000)
        ordered = curriculum_sort(sources)
        difficulties = [s.difficulty for s in ordered]
        assert difficulties == sorted(difficulties)

        counter = PromptCounter(WhitespaceTokenizer())
        budget = 400
        blocks = counted_blocks(ordered, counter)
        agreements = 0
        for i in range(len(ordered)):
            expected = oracle_pack(ordered, i, budget)
            try:
                packed = pack_block(ordered, i, budget, counter, blocks)
            except PromptExceedsBudget:
                assert expected is None, i
                agreements += 1
                continue
            assert expected is not None, i
            assert packed.token_count <= budget, i
            assert (packed.example_count, packed.token_count) == expected, i
            agreements += 1
        assert agreements == len(ordered)

        verdict(capsys, 5,
                f"curriculum nondecreasing + packing maximality on "
                f"{agreements} records")


# --- criterion 6: iterative harness mechanism --------------------------------------


class TestCriterion6:
    def test_second_round_proves_more_and_invariants_hold(self, capsys):
        problems, seeds, backend, mock_verifier = test_prover.two_round_setup()
        report = run_iterative(problems, seeds, support.make_sampler(backend), mock_verifier,
                               test_prover.config(), test_prover.TOKENIZER)
        assert report.rounds[1].cumulative_proved > \
            report.rounds[0].cumulative_proved
        assert report.rounds[1].newly_proved >= 1

        rng = random.Random(777)
        for trial in range(100):
            problems, gates, proofs = test_prover.random_scenario(rng)
            max_rounds = rng.randint(1, 4)
            n_samples = rng.randint(1, 3)
            scenario = test_prover.ScenarioBackend(gates, proofs)
            checker = test_prover.MockVerifier(proofs)
            report = run_iterative(
                problems, test_prover.seed_examples(2), support.make_sampler(scenario), checker,
                test_prover.config(max_rounds=max_rounds,
                                   n_samples=n_samples), test_prover.TOKENIZER)

            expected, per_round = test_prover.scenario_oracle(gates, max_rounds)
            assert set(report.proved) == expected, (trial, gates)
            assert [r.newly_proved for r in report.rounds] == per_round, trial
            counts = [r.cumulative_proved for r in report.rounds]
            assert counts == sorted(counts), trial
            if len(report.rounds) < max_rounds:
                assert report.rounds[-1].newly_proved == 0, trial
            assert report.rounds[-1].budget_used <= (
                len(problems) * n_samples * max_rounds), trial

        verdict(capsys, 6,
                "two-round fixture strictly improves; 100 randomized "
                "scenarios match the reachability oracle")


# --- criterion 7: end-to-end determinism -------------------------------------------


class TestCriterion7:
    def test_pipeline_is_byte_identical_across_runs_and_resume(
            self, tmp_path, capsys):
        fixture = test_cli.build_pipeline_fixture(tmp_path / "fixture")
        config_a = test_cli.pipeline_config(tmp_path, fixture,
                                            tmp_path / "run_a")
        config_b = test_cli.pipeline_config(tmp_path, fixture,
                                            tmp_path / "run_b")
        test_cli.run_pipeline(config_a)
        test_cli.run_pipeline(config_b)
        for artifact in test_cli.PIPELINE_ARTIFACTS:
            assert test_cli.read_bytes(tmp_path / "run_a" / artifact) == \
                test_cli.read_bytes(tmp_path / "run_b" / artifact), artifact

        checkpoint = tmp_path / "run_a" / "informalize.ckpt.jsonl"
        lines = checkpoint.read_text(encoding="utf-8").splitlines(True)
        checkpoint.write_text("".join(lines[:4]), encoding="utf-8")
        assert test_cli.run(["informalize", "-c", config_a, "--resume"]) == 0
        assert test_cli.run(["bootstrap", "-c", config_a]) == 0
        assert test_cli.run(["prep", "-c", config_a]) == 0
        for artifact in ("informalize.ckpt.jsonl", "informal.jsonl",
                         "obt.jsonl", "train.jsonl"):
            assert test_cli.read_bytes(tmp_path / "run_a" / artifact) == \
                test_cli.read_bytes(tmp_path / "run_b" / artifact), artifact

        verdict(capsys, 7,
                f"end-to-end byte determinism over "
                f"{len(test_cli.PIPELINE_ARTIFACTS)} artifacts, "
                f"resume included")


# --- criterion 8: dataset schema fidelity ------------------------------------------


WIRE_FIELDS = [
    "Name",
    "Statement",
    "Proof",
    "File_path",
    "Commit",
    "Generated_informal_statement_and_proof",
    "Commented_proof",
]


class TestCriterion8:
    def test_obt_schema_and_worked_example(self, tmp_path, capsys):
        # what bootstrap drafts from the worked example's informal.jsonl line
        draft = InformalRecord(
            name=listings.INTEGRAL_NAME,
            statement=listings.INTEGRAL_STATEMENT,
            proof=listings.INTEGRAL_PROOF,
            file_path=listings.INTEGRAL_FILE_PATH,
            commit=listings.INTEGRAL_COMMIT,
            generated_informal_statement_and_proof=listings.INTEGRAL_INFORMAL,
            verdict="pass",
        )
        record = assemble_obt_record(draft, listings.INTEGRAL_COMMENTED)
        assert record.name == listings.INTEGRAL_NAME
        assert record.statement == listings.INTEGRAL_STATEMENT
        assert record.proof == listings.INTEGRAL_PROOF
        assert record.file_path == listings.INTEGRAL_FILE_PATH
        assert record.commit == listings.INTEGRAL_COMMIT
        assert record.generated_informal_statement_and_proof == \
            listings.INTEGRAL_INFORMAL
        assert record.commented_proof == listings.INTEGRAL_COMMENTED

        path = str(tmp_path / "obt.jsonl")
        artifacts.write_jsonl(path, [record])
        with open(path, encoding="utf-8") as source:
            assert list(json.loads(source.read())) == WIRE_FIELDS
        loaded = load_obt_dataset(path)
        assert loaded == [record]
        assert isinstance(loaded[0], ObtRecord)

        verdict(capsys, 8,
                "OBT wire schema exact; worked example reproduces "
                "field-for-field")
