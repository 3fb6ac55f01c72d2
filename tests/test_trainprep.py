"""Tests for tokenizers, curriculum ordering, and ring block-packing.

Packing is checked against an independent greedy simulation that uses its
own character-class token counter (no regex, no shared code).
"""

import json
import random
from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leanforge.corpus import strip_comments, token_equal
from leanforge.genclient import FL_PROOF_SECTION, FL_STATEMENT_SECTION, NL_SECTION
from leanforge.trainprep import (
    InstructionRecord,
    PackSource,
    PrepConfig,
    RecordExceedsBudget,
    VocabTokenizer,
    WhitespaceTokenizer,
    base_instruction,
    curriculum_sort,
    emit_training_set,
    example_block,
    instruction_cap,
    pack_block,
    pack_sources,
    save_skip_report,
    save_training_set,
)
from fixtures.listings import MATHD_ALGEBRA_270, SQINEQ_COMMENTED


def oracle_count(text):
    """Character-class state machine: word runs and single punctuation."""
    total = 0
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch.isalnum() or ch == "_":
            total += 1
            while i < n and (text[i].isalnum() or text[i] == "_"):
                i += 1
        else:
            total += 1
            i += 1
    return total


def oracle_pack(records, i, budget, use_nl=True):
    """Independent greedy simulation returning (k, total_tokens)."""
    n = len(records)
    record = records[i]

    def build(k):
        parts = []
        for step in range(k, 0, -1):
            r = records[(i - step) % n]
            if use_nl:
                parts.append(f"{NL_SECTION}\n{r.nl}\n\n")
            parts.append(f"{FL_PROOF_SECTION}\n{r.example_fl}\n\n")
        if use_nl:
            parts.append(f"{NL_SECTION}\n{record.nl}\n\n")
        parts.append(f"{FL_STATEMENT_SECTION}\n{record.statement}\n\n{FL_PROOF_SECTION}\n")
        text = "".join(parts)
        return oracle_count(text) + oracle_count(record.target)

    if build(0) > budget:
        return None
    k = 0
    while k < n - 1 and build(k + 1) <= budget:
        k += 1
    return k, build(k)


def make_source(name, nl, statement, proof, difficulty=1):
    return PackSource(
        name=name, nl=nl, statement=statement, target=proof,
        example_fl=proof, difficulty=difficulty,
    )


def synthetic_sources(rng, count):
    words = ["ring", "linarith", "simp", "norm_num", "rw", "omega", "field"]
    out = []
    for i in range(count):
        nl = " ".join(rng.choices(words, k=rng.randint(3, 30)))
        statement = f"theorem t{i} : {rng.randint(1, 9)} = {rng.randint(1, 9)} :="
        proof = "by " + " ; ".join(rng.choices(words, k=rng.randint(1, 12)))
        out.append(make_source(f"t{i}", nl, statement, proof, rng.randint(1, 9)))
    return out


class TestWhitespaceTokenizer:
    def test_empty(self):
        assert WhitespaceTokenizer().count("") == 0

    def test_simple_words(self):
        assert WhitespaceTokenizer().count("a b c") == 3

    def test_punctuation_splits(self):
        assert WhitespaceTokenizer().tokens("f(x) = y_1") == ["f", "(", "x", ")", "=", "y_1"]

    def test_matches_state_machine_oracle_on_listings(self):
        tok = WhitespaceTokenizer()
        for text in (SQINEQ_COMMENTED, MATHD_ALGEBRA_270, "∑ k in s, k ^ 2"):
            assert tok.count(text) == oracle_count(text)

    @given(st.text(alphabet="ab c.,()∑_7\n", max_size=40),
           st.text(alphabet="ab c.,()∑_7\n", max_size=40))
    @settings(max_examples=100, deadline=None)
    def test_join_constant_zero(self, a, b):
        tok = WhitespaceTokenizer()
        assert tok.count(a + b) <= tok.count(a) + tok.count(b)


class TestVocabTokenizer:
    def test_greedy_longest_match(self):
        tok = VocabTokenizer(["ab", "a", "b", "c"])
        assert tok.count("abc") == 2  # "ab" + "c"

    def test_unknown_characters_count_one_each(self):
        tok = VocabTokenizer(["x"])
        assert tok.count("xyz") == 3

    def test_whitespace_free(self):
        tok = VocabTokenizer(["a", "b"])
        assert tok.count("a   b\n\tb") == 3
        assert tok.count("   ") == 0

    def test_from_file(self, tmp_path):
        path = tmp_path / "vocab.txt"
        path.write_text("ab\ncd\na\nb\nc\nd\n")
        tok = VocabTokenizer.from_file(str(path))
        assert tok.count("abcd") == 2

    @given(st.text(alphabet="abcd", max_size=30), st.text(alphabet="abcd", max_size=30))
    @settings(max_examples=100, deadline=None)
    def test_join_constant_one(self, a, b):
        tok = VocabTokenizer(["ab", "cd", "abc", "a", "b", "c", "d"])
        assert tok.count(a + b) <= tok.count(a) + tok.count(b) + 1


class TestCountTokens:
    def test_delegates(self):
        assert WhitespaceTokenizer().count("a b c") == 3
        assert WhitespaceTokenizer().count("") == 0


class TestCurriculumSort:
    def test_basic_order(self):
        records = [make_source("a", "n", "s", "p", 3),
                   make_source("b", "n", "s", "p", 1),
                   make_source("c", "n", "s", "p", 2)]
        assert [r.difficulty for r in curriculum_sort(records)] == [1, 2, 3]

    def test_stability_on_ties(self):
        records = [make_source(name, "n", "s", "p", 5) for name in "abcd"]
        assert [r.name for r in curriculum_sort(records)] == list("abcd")

    def test_thousand_random_records_nondecreasing_permutation(self):
        rng = random.Random(7)
        records = [make_source(f"t{i}", "n", "s", "p", rng.randint(0, 50))
                   for i in range(1000)]
        ordered = curriculum_sort(records)
        for prev, cur in zip(ordered, ordered[1:]):
            assert prev.difficulty <= cur.difficulty
        assert sorted(r.name for r in ordered) == sorted(r.name for r in records)


class TestPackBlock:
    def test_exact_fit_packs_nothing(self):
        tok = WhitespaceTokenizer()
        records = [make_source("a", "one two", "t : x :=", "by ring"),
                   make_source("b", "three", "u : y :=", "by simp")]
        cap = instruction_cap(records[0].nl, records[0].statement)
        budget = tok.count(cap) + tok.count(records[0].target)
        packed = pack_block(records, 0, budget, tok)
        assert packed.example_count == 0
        assert packed.instruction == cap
        assert packed.token_count == budget

    def test_huge_budget_packs_all_others_without_self(self):
        tok = WhitespaceTokenizer()
        records = [make_source(f"r{i}", f"story number{i}", f"s{i} : p :=", f"by tac{i}")
                   for i in range(3)]
        packed = pack_block(records, 1, budget=10_000, tokenizer=tok)
        assert packed.example_count == 2
        # each other record appears once as an example; the record's own nl
        # appears once, in the cap
        assert packed.instruction.count("number0") == 1
        assert packed.instruction.count("number2") == 1
        assert packed.instruction.count("number1") == 1
        assert packed.instruction.count(FL_STATEMENT_SECTION) == 1

    def test_ring_wraps_for_first_record(self):
        tok = WhitespaceTokenizer()
        records = [make_source(f"r{i}", f"uniquemark{i}", f"s{i} : p :=", "by ring")
                   for i in range(3)]
        packed = pack_block(records, 0, budget=10_000, tokenizer=tok)
        assert packed.example_count == 2
        # predecessors of 0 on the ring are 2 (nearest) and 1; rendered
        # oldest-first the instruction shows 1 before 2, then the cap
        pos1 = packed.instruction.index("uniquemark1")
        pos2 = packed.instruction.index("uniquemark2")
        pos0 = packed.instruction.index("uniquemark0")
        assert pos1 < pos2 < pos0

    def test_matches_greedy_oracle_on_known_counts(self):
        tok = WhitespaceTokenizer()
        rng = random.Random(31)
        records = synthetic_sources(rng, 10)
        for i in range(10):
            packed = pack_block(records, i, budget=500, tokenizer=tok)
            expected = oracle_pack(records, i, budget=500)
            assert expected is not None
            assert (packed.example_count, packed.token_count) == expected

    def test_maximality_randomized(self):
        tok = WhitespaceTokenizer()
        rng = random.Random(57)
        for _ in range(30):
            records = synthetic_sources(rng, rng.randint(2, 8))
            i = rng.randrange(len(records))
            budget = rng.randint(40, 400)
            try:
                packed = pack_block(records, i, budget, tok)
            except RecordExceedsBudget:
                assert oracle_pack(records, i, budget) is None
                continue
            k, total = oracle_pack(records, i, budget)
            assert packed.example_count == k
            assert total <= budget
            if k < len(records) - 1:
                # adding one more whole predecessor must overflow
                bigger = oracle_pack(records, i, budget=10**9)
                assert bigger[0] > k or bigger[1] > budget

    def test_oversized_record_raises_with_name(self):
        tok = WhitespaceTokenizer()
        records = [make_source("tiny", "n", "s :=", "by ring"),
                   make_source("huge", "word " * 300, "s :=", "by ring")]
        with pytest.raises(RecordExceedsBudget, match="huge"):
            pack_block(records, 1, budget=50, tokenizer=tok)

    def test_token_count_is_exact_recount(self):
        tok = WhitespaceTokenizer()
        rng = random.Random(77)
        records = synthetic_sources(rng, 6)
        packed = pack_block(records, 3, budget=300, tokenizer=tok)
        assert packed.token_count == tok.count(packed.instruction) + tok.count(packed.target)

    def test_use_nl_false_strips_nl_sections(self):
        tok = WhitespaceTokenizer()
        records = [make_source("a", "NLTEXT", "s :=", "by ring"),
                   make_source("b", "OTHERNL", "u :=", "by simp")]
        packed = pack_block(records, 0, budget=10_000, tokenizer=tok, use_nl=False)
        assert NL_SECTION not in packed.instruction
        assert "NLTEXT" not in packed.instruction


@dataclass
class StubRecord:
    name: str
    statement: str
    proof: str
    commented_proof: str
    generated_informal_statement_and_proof: str


def stub_corpus():
    entries = [
        ("t_easy", ":= by norm_num", ":= by\n  -- evaluate both sides\n  norm_num"),
        ("t_two", ":= by\n  rw [h]\n  ring",
         ":= by\n  -- rewrite with the hypothesis\n  rw [h]\n  -- close with ring\n  ring"),
        ("t_three", ":= by\n  intro h\n  simp\n  linarith",
         ":= by\n  -- take the hypothesis\n  intro h\n  simp\n  -- finish linearly\n  linarith"),
        ("t_term", ":= rfl", ":= rfl -- definitional"),
        ("t_chain", ":= by\n  cases h\n  ring\n  ring\n  norm_num",
         ":= by\n  cases h\n  -- both branches are rings\n  ring\n  ring\n  norm_num"),
    ]
    return [
        StubRecord(
            name=name,
            statement=f"theorem {name} (h : x = y) : x + 0 = y :=",
            proof=proof,
            commented_proof=commented,
            generated_informal_statement_and_proof=(
                f"Statement: a fact about {name}. Proof: push symbols until done."
            ),
        )
        for name, proof, commented in entries
    ]


class TestEmitTrainingSet:
    def config(self, **overrides):
        defaults = dict(context_budget=5000, tokenizer=WhitespaceTokenizer())
        defaults.update(overrides)
        return PrepConfig(**defaults)

    def test_empty_input(self):
        assert emit_training_set([], self.config()) == ([], [])

    def test_fixture_records_sorted_and_within_budget(self):
        packed, skipped = emit_training_set(stub_corpus(), self.config())
        assert skipped == []
        assert len(packed) == 5
        difficulties = [p.difficulty for p in packed]
        assert difficulties == sorted(difficulties)
        assert all(p.token_count <= 5000 for p in packed)

    def test_bootstrap_toggle_changes_targets_by_comments_only(self):
        records = stub_corpus()
        with_boot, _ = emit_training_set(records, self.config(use_bootstrapped=True))
        without, _ = emit_training_set(records, self.config(use_bootstrapped=False))
        for a, b in zip(with_boot, without):
            assert a.source_name == b.source_name
            assert a.target != b.target
            assert token_equal(a.target, b.target)
            assert strip_comments(b.target) == b.target

    def test_curriculum_flag_off_preserves_input_order(self):
        records = stub_corpus()
        packed, _ = emit_training_set(records, self.config(use_curriculum=False))
        assert [p.source_name for p in packed] == [r.name for r in records]

    def test_block_flag_off_packs_nothing(self):
        packed, _ = emit_training_set(stub_corpus(), self.config(use_block=False))
        assert all(p.example_count == 0 for p in packed)
        assert all(FL_PROOF_SECTION in p.instruction for p in packed)

    def test_nl_flag_off_drops_nl_everywhere(self):
        packed, _ = emit_training_set(stub_corpus(), self.config(use_nl=False))
        assert all(NL_SECTION not in p.instruction for p in packed)

    def test_default_instruction_contains_own_nl(self):
        packed, _ = emit_training_set(stub_corpus(), self.config())
        for p in packed:
            assert NL_SECTION in p.instruction
            assert p.instruction.rstrip().endswith(FL_PROOF_SECTION)

    def test_oversized_record_lands_in_skip_report(self):
        records = stub_corpus()
        records[2].proof = ":= by\n  " + "\n  ".join(["ring"] * 400)
        records[2].commented_proof = records[2].proof
        packed, skipped = emit_training_set(records, self.config(context_budget=120))
        assert [s["name"] for s in skipped] == ["t_three"]
        assert all(p.source_name != "t_three" for p in packed)
        assert all(p.token_count <= 120 for p in packed)

    def test_examples_are_whole_records(self):
        packed, _ = emit_training_set(stub_corpus(), self.config())
        sources = {
            r.name: r.commented_proof for r in stub_corpus()
        }
        for p in packed:
            if p.example_count == 0:
                continue
            present = [name for name, proof in sources.items()
                       if proof in p.instruction]
            assert len(present) >= p.example_count

    def test_example_bootstrap_override(self):
        records = stub_corpus()
        config = self.config(use_bootstrapped=True, examples_use_bootstrapped=False)
        packed, _ = emit_training_set(records, config)
        full = next(p for p in packed if p.example_count >= 1)
        # targets keep comments, in-context examples show the raw proofs
        assert "--" in full.target
        assert "-- rewrite with the hypothesis" not in full.instruction

    def test_base_instruction_invariant(self):
        source = pack_sources(stub_corpus(), self.config())[0]
        record = base_instruction(source)
        assert isinstance(record, InstructionRecord)
        assert NL_SECTION in record.instruction
        assert record.target


class TestSaveOutputs:
    def test_training_set_jsonl_shape(self, tmp_path):
        packed, skipped = emit_training_set(stub_corpus(), PrepConfig(
            context_budget=5000, tokenizer=WhitespaceTokenizer()))
        path = tmp_path / "train.jsonl"
        save_training_set(packed, str(path))
        lines = path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == len(packed)
        first = json.loads(lines[0])
        assert set(first) == {"instruction", "target", "example_count", "difficulty"}

    def test_deterministic_bytes(self, tmp_path):
        packed, _ = emit_training_set(stub_corpus(), PrepConfig(
            context_budget=5000, tokenizer=WhitespaceTokenizer()))
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        save_training_set(packed, str(a))
        save_training_set(packed, str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_skip_sidecar(self, tmp_path):
        path = tmp_path / "skips.jsonl"
        save_skip_report(
            [{"name": "x", "reason": "record-exceeds-budget",
              "token_count": 900, "budget": 100}], str(path))
        entry = json.loads(path.read_text().splitlines()[0])
        assert entry["name"] == "x"
        assert entry["reason"] == "record-exceeds-budget"
