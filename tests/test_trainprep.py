"""Tests for tokenizers, curriculum ordering, and ring block-packing.

Packing is checked against an independent greedy simulation that assembles
every candidate instruction and recounts it whole, with its own
character-class token counter (no regex, no shared code) or, for the
vocabulary tokenizer, that tokenizer's count of the whole text.
"""

import json
import random
import re
from dataclasses import dataclass, field, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leanforge import artifacts
from leanforge.config import PrepSettings
from leanforge.corpus import code_divergence
from leanforge.prompts import (
    FL_PROOF_SECTION,
    FL_STATEMENT_SECTION,
    NL_SECTION,
    PromptCounter,
    PromptExceedsBudget,
    example_block,
)
from leanforge.trainprep import (
    PackSource,
    VocabTokenizer,
    WhitespaceTokenizer,
    counted_blocks,
    curriculum_sort,
    emit_training_set,
    pack_block,
    pack_sources,
)
from fixtures.listings import MATHD_ALGEBRA_270, SQINEQ_COMMENTED
from support import strip_comments, tactic_steps


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


def oracle_pack(records, i, budget, use_nl=True, count=oracle_count):
    """Independent greedy simulation returning (k, total_tokens); every
    candidate instruction is assembled and recounted whole with ``count``.
    A blank NL text gets no section."""
    n = len(records)
    record = records[i]

    def build(k):
        parts = []
        for step in range(k, 0, -1):
            r = records[(i - step) % n]
            if use_nl and r.nl.strip():
                parts.append(f"{NL_SECTION}\n{r.nl.strip()}\n\n")
            parts.append(f"{FL_PROOF_SECTION}\n{r.target.strip()}\n\n")
        if use_nl and record.nl.strip():
            parts.append(f"{NL_SECTION}\n{record.nl}\n\n")
        parts.append(f"{FL_STATEMENT_SECTION}\n{record.statement}\n\n{FL_PROOF_SECTION}\n")
        text = "".join(parts)
        return count(text) + count(record.target)

    if build(0) > budget:
        return None
    k = 0
    while k < n - 1 and build(k + 1) <= budget:
        k += 1
    return k, build(k)


def make_source(name, nl, statement, proof, difficulty=1):
    return PackSource(
        name=name, nl=nl, statement=statement, target=proof,
        difficulty=difficulty,
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


# texts for the additivity properties: words, punctuation, unicode and
# several kinds of whitespace, unicode spaces included
SEAM_TEXT = st.text(alphabet="ab cd.,()∑_7\n\t\u00a0\u2003", max_size=30)
WHITESPACE = st.sampled_from([" ", "\n", "\t", "\n\n", "\u00a0", "\u2003"])
VOCAB = ["ab", "cd", "abc", "a", "b", "c", "d", "b.c", "∑_", "(a", "7)"]


@pytest.fixture(scope="module")
def file_vocab(tmp_path_factory):
    path = tmp_path_factory.mktemp("vocab") / "vocab.txt"
    path.write_text("\n".join(VOCAB) + "\n\n", encoding="utf-8")
    return VocabTokenizer.from_file(str(path))


def assert_adds_at_whitespace_seam(tok, a, b, space, space_ends_a):
    if space_ends_a:
        a += space
    else:
        b = space + b
    assert tok.count(a + b) == tok.count(a) + tok.count(b)


class CountingTokenizer:
    """Counts the calls made to a wrapped tokenizer."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = 0

    def count(self, text):
        self.calls += 1
        return self.inner.count(text)


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

    @given(SEAM_TEXT, SEAM_TEXT, WHITESPACE, st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_counts_add_at_whitespace_seam(self, a, b, space, space_ends_a):
        assert_adds_at_whitespace_seam(WhitespaceTokenizer(), a, b, space, space_ends_a)


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

    @given(SEAM_TEXT, SEAM_TEXT, WHITESPACE, st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_counts_add_at_whitespace_seam(self, a, b, space, space_ends_a):
        assert_adds_at_whitespace_seam(VocabTokenizer(VOCAB), a, b, space, space_ends_a)

    @given(SEAM_TEXT, SEAM_TEXT, WHITESPACE, st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_file_vocab_counts_add_at_whitespace_seam(
            self, file_vocab, a, b, space, space_ends_a):
        assert_adds_at_whitespace_seam(file_vocab, a, b, space, space_ends_a)

    @pytest.mark.parametrize("entry", ["x b", "x\tb", "ab ", " ", "x\u00a0b"])
    def test_rejects_entry_with_whitespace(self, entry):
        with pytest.raises(ValueError, match="contains whitespace") as info:
            VocabTokenizer(["a", entry])
        assert repr(entry) in str(info.value)

    def test_from_file_rejection_names_path_and_line(self, tmp_path):
        path = tmp_path / "vocab.txt"
        path.write_text("ab\n\ncd\nx b\n", encoding="utf-8")
        with pytest.raises(ValueError, match=f"{path}:4: .*'x b'"):
            VocabTokenizer.from_file(str(path))

    def test_from_file_not_utf8_names_the_file(self, tmp_path):
        path = tmp_path / "vocab.txt"
        path.write_bytes("ab\ncaf\u00e9\n".encode("latin-1"))
        with pytest.raises(artifacts.ArtifactError,
                           match=f"^{re.escape(str(path))}: not UTF-8 text: "):
            VocabTokenizer.from_file(str(path))


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
        counter = PromptCounter(tok)
        records = [make_source("a", "one two", "t : x :=", "by ring"),
                   make_source("b", "three", "u : y :=", "by simp")]
        cap = (f"{NL_SECTION}\none two\n\n{FL_STATEMENT_SECTION}\nt : x :=\n\n"
               f"{FL_PROOF_SECTION}\n")
        budget = tok.count(cap) + tok.count(records[0].target)
        packed = pack_block(records, 0, budget, counter, counted_blocks(records, counter))
        assert packed.example_count == 0
        assert packed.instruction == cap
        assert packed.token_count == budget

    def test_huge_budget_packs_all_others_without_self(self):
        counter = PromptCounter(WhitespaceTokenizer())
        records = [make_source(f"r{i}", f"story number{i}", f"s{i} : p :=", f"by tac{i}")
                   for i in range(3)]
        packed = pack_block(records, 1, budget=10_000, counter=counter,
                            blocks=counted_blocks(records, counter))
        assert packed.example_count == 2
        # each other record appears once as an example; the record's own nl
        # appears once, in the cap
        assert packed.instruction.count("number0") == 1
        assert packed.instruction.count("number2") == 1
        assert packed.instruction.count("number1") == 1
        assert packed.instruction.count(FL_STATEMENT_SECTION) == 1

    def test_ring_wraps_for_first_record(self):
        counter = PromptCounter(WhitespaceTokenizer())
        records = [make_source(f"r{i}", f"uniquemark{i}", f"s{i} : p :=", "by ring")
                   for i in range(3)]
        packed = pack_block(records, 0, budget=10_000, counter=counter,
                            blocks=counted_blocks(records, counter))
        assert packed.example_count == 2
        # predecessors of 0 on the ring are 2 (nearest) and 1; rendered
        # oldest-first the instruction shows 1 before 2, then the cap
        pos1 = packed.instruction.index("uniquemark1")
        pos2 = packed.instruction.index("uniquemark2")
        pos0 = packed.instruction.index("uniquemark0")
        assert pos1 < pos2 < pos0

    def test_matches_greedy_oracle_on_known_counts(self):
        counter = PromptCounter(WhitespaceTokenizer())
        rng = random.Random(31)
        records = synthetic_sources(rng, 10)
        for i in range(10):
            packed = pack_block(records, i, budget=500, counter=counter,
                                blocks=counted_blocks(records, counter))
            expected = oracle_pack(records, i, budget=500)
            assert expected is not None
            assert (packed.example_count, packed.token_count) == expected

    def test_maximality_randomized(self):
        counter = PromptCounter(WhitespaceTokenizer())
        rng = random.Random(57)
        for _ in range(30):
            records = synthetic_sources(rng, rng.randint(2, 8))
            i = rng.randrange(len(records))
            budget = rng.randint(40, 400)
            try:
                packed = pack_block(records, i, budget, counter, counted_blocks(records, counter))
            except PromptExceedsBudget:
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
        counter = PromptCounter(WhitespaceTokenizer())
        records = [make_source("tiny", "n", "s :=", "by ring"),
                   make_source("huge", "word " * 300, "s :=", "by ring")]
        with pytest.raises(PromptExceedsBudget, match="huge"):
            pack_block(records, 1, budget=50, counter=counter,
                       blocks=counted_blocks(records, counter))

    def test_token_count_is_exact_recount(self):
        tok = WhitespaceTokenizer()
        counter = PromptCounter(tok)
        rng = random.Random(77)
        records = synthetic_sources(rng, 6)
        packed = pack_block(records, 3, budget=300, counter=counter,
                            blocks=counted_blocks(records, counter))
        assert packed.token_count == tok.count(packed.instruction) + tok.count(packed.target)

    def test_use_nl_false_strips_nl_sections(self):
        counter = PromptCounter(WhitespaceTokenizer())
        records = pack_sources([StubRecord("a", "s :=", "by ring", "by ring", "NLTEXT"),
                                StubRecord("b", "u :=", "by simp", "by simp", "OTHERNL")],
                               PrepSettings(use_nl=False))
        assert [r.nl for r in records] == [None, None]
        packed = pack_block(records, 0, budget=10_000, counter=counter,
                            blocks=counted_blocks(records, counter))
        assert NL_SECTION not in packed.instruction
        assert "NLTEXT" not in packed.instruction


    def test_blocks_counted_once_match_lazy_counting(self):
        tok = WhitespaceTokenizer()
        counter = PromptCounter(tok)
        records = synthetic_sources(random.Random(5), 7)
        for use_nl in (True, False):
            sources = records if use_nl else [replace(r, nl=None) for r in records]
            blocks = [(b, tok.count(b)) for b in (
                example_block(r.nl if use_nl else None, r.target) for r in records)]
            assert counted_blocks(sources, counter) == blocks


@dataclass
class StubRecord:
    name: str
    statement: str
    proof: str
    commented_proof: str
    generated_informal_statement_and_proof: str
    # counted from the proof, as bootstrap.load_obt_dataset does
    difficulty: int = field(init=False)

    def __post_init__(self):
        self.difficulty = tactic_steps(self.proof)


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


def emit(records, tokenizer=WhitespaceTokenizer(), token_budget=5000, **settings):
    """``emit_training_set`` with ``PrepSettings(**settings)``: the packed
    records, which its writer collects in a list, and the skip report."""
    packed = []
    skipped = emit_training_set(
        records, PrepSettings(token_budget=token_budget, **settings), tokenizer,
        packed.extend)
    return packed, skipped


def source_name(packed):
    """The name of the record a packed instruction is for: its statement,
    which is last, reads ``theorem <name> ...``."""
    return packed.instruction.rpartition(FL_STATEMENT_SECTION)[2].split()[1]


class TestEmitTrainingSet:
    def test_empty_input(self):
        assert emit([]) == ([], [])

    def test_fixture_records_sorted_and_within_budget(self):
        packed, skipped = emit(stub_corpus())
        assert skipped == []
        assert len(packed) == 5
        difficulties = [p.difficulty for p in packed]
        assert difficulties == sorted(difficulties)
        assert all(p.token_count <= 5000 for p in packed)

    def test_bootstrap_toggle_changes_targets_by_comments_only(self):
        records = stub_corpus()
        with_boot, _ = emit(records, use_bootstrapped=True)
        without, _ = emit(records, use_bootstrapped=False)
        for a, b in zip(with_boot, without):
            assert source_name(a) == source_name(b)
            assert a.target != b.target
            assert code_divergence(a.target, b.target) is None
            assert strip_comments(b.target) == b.target

    def test_examples_show_the_proofs_the_targets_show(self):
        records = stub_corpus()
        with_boot, _ = emit(records, use_bootstrapped=True)
        without, _ = emit(records, use_bootstrapped=False)
        assert all(p.example_count == len(records) - 1 for p in with_boot + without)
        assert all("-- rewrite with the hypothesis" in p.instruction
                   for p in with_boot if source_name(p) != "t_two")
        assert all("--" not in p.instruction for p in without)

    def test_curriculum_flag_off_preserves_input_order(self):
        records = stub_corpus()
        packed, _ = emit(records, use_curriculum=False)
        assert [source_name(p) for p in packed] == [r.name for r in records]

    def test_block_flag_off_packs_nothing(self):
        packed, _ = emit(stub_corpus(), use_block=False)
        assert all(p.example_count == 0 for p in packed)
        assert all(FL_PROOF_SECTION in p.instruction for p in packed)

    def test_nl_flag_off_drops_nl_everywhere(self):
        packed, _ = emit(stub_corpus(), use_nl=False)
        assert all(NL_SECTION not in p.instruction for p in packed)

    def test_default_instruction_contains_own_nl(self):
        packed, _ = emit(stub_corpus())
        for p in packed:
            assert NL_SECTION in p.instruction
            assert p.instruction.rstrip().endswith(FL_PROOF_SECTION)

    def test_oversized_record_lands_in_skip_report(self):
        records = stub_corpus()
        records[2].proof = ":= by\n  " + "\n  ".join(["ring"] * 400)
        records[2].commented_proof = records[2].proof
        packed, skipped = emit(records, token_budget=120)
        assert [s["name"] for s in skipped] == ["t_three"]
        assert all(source_name(p) != "t_three" for p in packed)
        assert all(p.token_count <= 120 for p in packed)

    def test_examples_are_whole_records(self):
        packed, _ = emit(stub_corpus())
        sources = {
            r.name: r.commented_proof for r in stub_corpus()
        }
        for p in packed:
            if p.example_count == 0:
                continue
            present = [name for name, proof in sources.items()
                       if proof in p.instruction]
            assert len(present) >= p.example_count

    def test_block_flag_off_instruction_is_the_record_alone(self):
        records = stub_corpus()
        tok = WhitespaceTokenizer()
        packed, skipped = emit(records, use_block=False)
        assert skipped == []
        by_name = {r.name: r for r in records}
        for p in packed:
            r = by_name[source_name(p)]
            assert p.instruction == (
                f"{NL_SECTION}\n{r.generated_informal_statement_and_proof}\n\n"
                f"{FL_STATEMENT_SECTION}\n{r.statement}\n\n{FL_PROOF_SECTION}\n")
            assert p.target == r.commented_proof
            assert p.example_count == 0
            assert p.token_count == tok.count(p.instruction) + tok.count(p.target)
        _, skipped = emit(
            records, use_block=False, token_budget=20)
        assert len(skipped) == len(records)


# record texts for the property below: no quotes or comment markers, so
# every proof lexes; leading and trailing whitespace and empty texts occur
RECORD_TEXT = st.text(alphabet="ab c.,()∑_7\n\t", max_size=40)


class TestEmitMatchesOracle:
    @given(
        st.lists(st.tuples(RECORD_TEXT, RECORD_TEXT, RECORD_TEXT), max_size=7),
        st.integers(min_value=0, max_value=300),
        st.booleans(),
        st.sampled_from(["whitespace", "vocab-file"]),
    )
    @settings(max_examples=150, deadline=None)
    def test_every_record_matches_recount_oracle(
            self, file_vocab, texts, budget, use_nl, tokenizer):
        records = [
            StubRecord(name=f"r{j}", statement=f"theorem r{j} :{statement}",
                       proof=f":= by{proof}", commented_proof=f":= by{proof}",
                       generated_informal_statement_and_proof=nl)
            for j, (nl, statement, proof) in enumerate(texts)
        ]
        tok, count = ((WhitespaceTokenizer(), oracle_count)
                      if tokenizer == "whitespace" else (file_vocab, file_vocab.count))
        packed, skipped = emit(records, tok, token_budget=budget, use_nl=use_nl,
                               use_curriculum=False)
        sources = [make_source(r.name, r.generated_informal_statement_and_proof,
                               r.statement, r.commented_proof) for r in records]
        by_name = {source_name(p): p for p in packed}
        assert len(packed) + len(skipped) == len(records)
        for i, source in enumerate(sources):
            expected = oracle_pack(sources, i, budget, use_nl, count)
            if expected is None:
                assert source.name not in by_name
                continue
            item = by_name[source.name]
            assert (item.example_count, item.token_count) == expected
            assert item.token_count == count(item.instruction) + count(item.target)

    @pytest.mark.parametrize("use_block", [True, False])
    def test_tokenizer_calls_are_linear(self, use_block):
        records = [
            StubRecord(name=f"r{j}", statement=f"theorem r{j} : {j} = {j} :=",
                       proof=":= by\n  rfl", commented_proof=":= by\n  -- same\n  rfl",
                       generated_informal_statement_and_proof=f"Fact {j}. Proof: rfl.")
            for j in range(40)
        ]
        tok = CountingTokenizer(WhitespaceTokenizer())
        packed, skipped = emit(records, tok, token_budget=100_000, use_block=use_block)
        assert skipped == []
        if use_block:
            assert all(p.example_count == len(records) - 1 for p in packed)
        # one count per section header, and per record one for each of its
        # NL, statement and target
        assert tok.calls == 3 + 3 * len(records)


class TestSaveOutputs:
    def test_training_set_jsonl_shape(self, tmp_path):
        packed, skipped = emit(stub_corpus())
        path = tmp_path / "train.jsonl"
        artifacts.write_jsonl(str(path), packed)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == len(packed)
        first = json.loads(lines[0])
        assert set(first) == {"instruction", "target", "example_count", "difficulty"}

    def test_deterministic_bytes(self, tmp_path):
        packed, _ = emit(stub_corpus())
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        artifacts.write_jsonl(str(a), packed)
        artifacts.write_jsonl(str(b), packed)
        assert a.read_bytes() == b.read_bytes()

    def test_skip_sidecar(self, tmp_path):
        path = tmp_path / "skips.jsonl"
        artifacts.write_jsonl(str(path), [
            {"name": "x", "reason": "record-exceeds-budget",
             "token_count": 900, "budget": 100}])
        entry = json.loads(path.read_text().splitlines()[0])
        assert entry["name"] == "x"
        assert entry["reason"] == "record-exceeds-budget"
