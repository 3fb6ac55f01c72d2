"""Tests for comment-based NL-FL bootstrapping and OBT record assembly."""

import dataclasses
import json
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from leanforge import artifacts, corpus
from leanforge import bootstrap as bootstrap_module
from leanforge.bootstrap import (
    AlignedTheorem,
    BootstrapVerificationFailed,
    InformalRecord,
    ObtRecord,
    assemble_obt_record,
    bootstrap_corpus,
    bootstrap_theorem,
    head_bootstrap,
    load_obt_dataset,
    sanitize_comment_body,
    verify_bootstrap,
)
from leanforge.config import BootstrapSettings
from leanforge.corpus import LexError
from leanforge.genclient import BackendUnavailable, GenClientError
from leanforge.prompts import (
    COMMENT_INSTRUCTION,
    COMMENTED_SECTION,
    FL_PROOF_SECTION,
    NL_SECTION,
    bootstrap_prompt,
)

from fixtures.listings import (
    AMC12B_2002_P2,
    INTEGRAL_COMMENTED,
    INTEGRAL_COMMIT,
    INTEGRAL_FILE_PATH,
    INTEGRAL_INFORMAL,
    INTEGRAL_NAME,
    INTEGRAL_PROOF,
    INTEGRAL_STATEMENT,
    SQINEQ_COMMENTED,
)
from support import (
    KeyedBackend,
    insert_comments_line_respecting,
    insert_comments_reckless,
    lean_delimited_texts,
    make_budget,
    make_sampler,
    mock_backend,
    nested_comment,
    random_leanish_source,
    reference_divergence,
    retry_policy,
    serial_ask,
    strip_comments,
)

SQINEQ_PLAIN = strip_comments(SQINEQ_COMMENTED)
SQINEQ_NL = (
    "Statement: for reals a and b with a^2 + b^2 = 1, a * b + (a - b) <= 1. "
    "Proof: the square (a - b - 1)^2 is nonnegative; expanding and using the "
    "hypothesis gives the bound."
)


def informal_entry(name, statement, proof, nl, verdict="pass",
                   file_path="Toy.lean", commit="cafe"):
    """One informal.jsonl line, as bootstrap reads it."""
    return InformalRecord(
        name=name,
        statement=statement,
        proof=proof,
        file_path=file_path,
        commit=commit,
        generated_informal_statement_and_proof=nl,
        verdict=verdict,
        reasons=() if verdict == "pass" else ("OVERLENGTH",),
    )


def sq_entry():
    return informal_entry(
        "algebra_sqineq_unitcircatbpamblt1",
        SQINEQ_PLAIN.split(" := by")[0] + " :=", SQINEQ_PLAIN, SQINEQ_NL,
        file_path="MiniF2F/Valid.lean", commit="deadbeef")


def sq_record():
    """The aligned theorem of ``sq_entry``, which bootstrap comments."""
    return AlignedTheorem(
        name="algebra_sqineq_unitcircatbpamblt1",
        statement=SQINEQ_PLAIN.split(" := by")[0] + " :=",
        proof=SQINEQ_PLAIN,
        file_path="MiniF2F/Valid.lean",
        commit="deadbeef",
        generated_informal_statement_and_proof=SQINEQ_NL,
    )


SQ_CODE = corpus.code_texts(SQINEQ_PLAIN)

HEAD = BootstrapSettings(mode="head")
INTERLEAVED = BootstrapSettings(mode="interleaved")
ATTEMPTS = INTERLEAVED.max_attempts  # replies bootstrap_theorem checks at most


class TestSanitizeCommentBody:
    def test_breaks_both_delimiters(self):
        out = sanitize_comment_body("open /- nested -/ and close")
        assert "/-" not in out and "-/" not in out

    def test_adjacent_delimiters(self):
        for text in ("/-/", "-/-", "/--/", "-/-/", "/-/-", "--/--/"):
            out = sanitize_comment_body(text)
            assert "/-" not in out and "-/" not in out, (text, out)

    def test_plain_text_untouched(self):
        assert sanitize_comment_body(SQINEQ_NL) == SQINEQ_NL

    @settings(max_examples=200)
    @given(st.text(alphabet="/- ab\n", max_size=40))
    def test_no_delimiter_survives(self, text):
        out = sanitize_comment_body(text)
        assert "/-" not in out
        assert "-/" not in out


class TestHeadBootstrap:
    def test_shape(self):
        out = head_bootstrap("Statement: x. Proof: y.", "example : 1 = 1 := rfl")
        assert out == "/- Statement: x. Proof: y. -/\nexample : 1 = 1 := rfl"

    def test_always_verifies_on_fixture(self):
        out = head_bootstrap(SQINEQ_NL, SQINEQ_PLAIN)
        ok, divergence = verify_bootstrap(SQINEQ_PLAIN, out)
        assert ok and divergence is None

    def test_delimiters_in_nl_cannot_escape(self):
        nl = "uses /- a nested comment -/ and a stray -/ closer"
        out = head_bootstrap(nl, AMC12B_2002_P2)
        ok, _ = verify_bootstrap(AMC12B_2002_P2, out)
        assert ok

    @settings(max_examples=200, deadline=None)
    @given(st.text(max_size=200))
    def test_verifies_for_arbitrary_nl(self, nl):
        out = head_bootstrap(nl, AMC12B_2002_P2)
        ok, divergence = verify_bootstrap(AMC12B_2002_P2, out)
        assert ok, divergence


class TestVerifyBootstrap:
    def test_identity(self):
        assert verify_bootstrap(AMC12B_2002_P2, AMC12B_2002_P2) == (True, None)

    def test_published_commented_listing(self):
        ok, _ = verify_bootstrap(SQINEQ_PLAIN, SQINEQ_COMMENTED)
        assert ok

    def test_worked_example_listing(self):
        ok, _ = verify_bootstrap(INTEGRAL_PROOF, INTEGRAL_COMMENTED)
        assert ok

    def test_rewritten_tactic_caught_at_token(self):
        mutated = SQINEQ_COMMENTED.replace("linarith", "nlinarith")
        ok, divergence = verify_bootstrap(SQINEQ_PLAIN, mutated)
        assert not ok
        assert divergence.expected == "linarith"
        assert divergence.actual == "nlinarith"
        assert mutated[divergence.offset:].startswith("nlinarith")

    def test_dropped_tactic_caught(self):
        shorter = SQINEQ_PLAIN.replace(
            "  have h₁ : 0 ≤ (a - b - 1) ^ 2 := sq_nonneg _\n", "")
        ok, divergence = verify_bootstrap(SQINEQ_PLAIN, shorter)
        assert not ok
        assert divergence.expected == "have"

    def test_randomized_comment_insertions_verify(self):
        rng = random.Random(77)
        sources = [SQINEQ_PLAIN, AMC12B_2002_P2, INTEGRAL_PROOF]
        for trial in range(40):
            src = sources[trial % 3] if trial < 24 else random_leanish_source(rng)
            insert = (insert_comments_reckless if trial % 2 == 0
                      else insert_comments_line_respecting)
            commented = insert(src, rng, count=rng.randint(1, 4))
            ok, divergence = verify_bootstrap(src, commented)
            assert ok, (trial, divergence)

    def test_non_lexing_candidate_raises(self):
        with pytest.raises(LexError):
            verify_bootstrap(AMC12B_2002_P2, "/- opened but never closed")


def verify_outcome(verify, proof, commented):
    try:
        return verify(proof, commented)
    except LexError as exc:
        return str(exc)


def reference_verify(proof, commented):
    divergence = reference_divergence(proof, commented)
    return divergence is None, divergence


# a comment nested one level deeper than the scans follow, which sends the
# locator to the full lex
_TOO_DEEP = " " + nested_comment(corpus._SCAN_NESTING + 1)


@st.composite
def proof_and_commented(draw):
    """A proof and a text to check against it: another text, or the proof
    with a comment, a code atom or a delimited text put in at some offset.
    Either text may open with `ℕ`, so that a character offset past it is
    not a byte offset."""
    lead = st.sampled_from(["", "ℕ ", "/- ℕ -/ "])
    proof = draw(lead) + draw(lean_delimited_texts())
    inserted = draw(st.one_of(
        st.none(),
        st.sampled_from([" /- c -/ ", "\n-- c\n", " /- a /- b -/ -/", _TOO_DEEP,
                         " ℕ ", "ℕ"]),
        lean_delimited_texts()))
    if inserted is None:
        return proof, draw(lead) + draw(lean_delimited_texts())
    at = draw(st.integers(0, len(proof)))
    return proof, proof[:at] + inserted + proof[at:]


@given(proof_and_commented())
@example(("ℕ a b", "ℕ a" + _TOO_DEEP + " c"))
@settings(max_examples=400, deadline=None)
def test_property_verify_bootstrap_agrees_with_token_divergence(pair):
    assert verify_outcome(verify_bootstrap, *pair) == verify_outcome(
        reference_verify, *pair)


class Counting:
    """Wraps a backend, counting generate calls."""

    concurrency = 1

    def __init__(self, inner):
        self.inner = inner
        self.name = inner.name
        self.calls = 0

    def generate(self, request):
        self.calls += 1
        return self.inner.generate(request)


def sq_ask(backend, **settings):
    """The ask ``bootstrap_corpus`` hands ``sq_record()``."""
    record = sq_record()
    return serial_ask(make_sampler(backend, max_new_tokens=1024, **settings),
                      bootstrap_prompt(record.generated_informal_statement_and_proof,
                                       record.proof))


class TestBootstrapTheorem:
    def test_head_mode_needs_no_backend(self):
        (obt,), _ = bootstrap_corpus([sq_entry()], None, HEAD)
        assert obt == ObtRecord(
            **dataclasses.asdict(sq_record()),
            commented_proof=head_bootstrap(SQINEQ_NL, SQINEQ_PLAIN))
        assert verify_bootstrap(SQINEQ_PLAIN, obt.commented_proof)[0]

    def test_prompt_layout(self):
        prompt = bootstrap_prompt(SQINEQ_NL, sq_record().proof)
        assert prompt.startswith(COMMENT_INSTRUCTION)
        a = prompt.index(NL_SECTION)
        b = prompt.index(FL_PROOF_SECTION)
        c = prompt.index(COMMENTED_SECTION)
        assert a < b < c
        assert SQINEQ_NL in prompt
        assert SQINEQ_PLAIN in prompt
        assert prompt.endswith(COMMENTED_SECTION + "\n")

    def test_interleaved_verified_first_try(self):
        backend = Counting(mock_backend([("algebra_sqineq", SQINEQ_COMMENTED)]))
        out = bootstrap_theorem(sq_record(), 0, sq_ask(backend), SQ_CODE, ATTEMPTS)
        assert out == SQINEQ_COMMENTED
        assert backend.calls == 1

    def test_fenced_reply_unwrapped(self):
        fenced = "```lean\n" + SQINEQ_COMMENTED + "```"
        backend = mock_backend([("algebra_sqineq", fenced)])
        out = bootstrap_theorem(sq_record(), 0, sq_ask(backend), SQ_CODE, ATTEMPTS)
        assert verify_bootstrap(SQINEQ_PLAIN, out)[0]
        assert "```" not in out

    def test_rewrite_retries_then_fails_with_divergence(self):
        mutated = SQINEQ_COMMENTED.replace("linarith", "nlinarith")
        backend = Counting(mock_backend([("algebra_sqineq", mutated)]))
        with pytest.raises(BootstrapVerificationFailed) as info:
            bootstrap_theorem(sq_record(), 0, sq_ask(backend), SQ_CODE, ATTEMPTS)
        assert backend.calls == ATTEMPTS
        assert info.value.divergence.expected == "linarith"
        assert info.value.divergence.actual == "nlinarith"
        assert str(info.value) == (
            "bootstrap verification failed for algebra_sqineq_unitcircatbpamblt1: "
            "token 39: expected 'linarith', got 'nlinarith' at offset 256")

    def test_bad_then_good_succeeds_second_attempt(self):
        mutated = SQINEQ_COMMENTED.replace("linarith", "nlinarith")
        backend = Counting(mock_backend(
            script=[("algebra_sqineq", [mutated, SQINEQ_COMMENTED])]))
        out = bootstrap_theorem(sq_record(), 0, sq_ask(backend), SQ_CODE, ATTEMPTS)
        assert out == SQINEQ_COMMENTED
        assert backend.calls == 2

    def test_non_lexing_reply_counts_as_failure(self):
        backend = mock_backend(default_text="/- never closed")
        with pytest.raises(BootstrapVerificationFailed, match="does not lex"):
            bootstrap_theorem(sq_record(), 0, sq_ask(backend), SQ_CODE, 2)

    def test_backend_errors_propagate(self):
        class Down:
            name = "down"
            concurrency = 1

            def generate(self, request):
                raise BackendUnavailable("offline")

        policy = retry_policy(max_attempts=2, sleep=lambda s: None)
        with pytest.raises(BackendUnavailable):
            bootstrap_theorem(sq_record(), 0, sq_ask(Down(), retry=policy), SQ_CODE,
                              ATTEMPTS)


def integral_record(commit=INTEGRAL_COMMIT):
    """The worked example's aligned theorem, still without its commented proof."""
    return AlignedTheorem(
        name=INTEGRAL_NAME,
        statement=INTEGRAL_STATEMENT,
        proof=INTEGRAL_PROOF,
        file_path=INTEGRAL_FILE_PATH,
        commit=commit,
        generated_informal_statement_and_proof=INTEGRAL_INFORMAL,
    )


class TestAssembleObtRecord:
    def test_worked_example_field_for_field(self):
        record = assemble_obt_record(integral_record(), INTEGRAL_COMMENTED)
        assert record.name == INTEGRAL_NAME
        assert record.statement == INTEGRAL_STATEMENT
        assert record.proof == INTEGRAL_PROOF
        assert record.file_path == "https://github.com/leanprover-community/mathlib4"
        assert record.commit == "3ce43c18f614b76e161f911b75a3e1ef641620ff"
        assert record.generated_informal_statement_and_proof == INTEGRAL_INFORMAL
        assert record.commented_proof == INTEGRAL_COMMENTED

    def test_empty_field_rejected(self):
        with pytest.raises(ValueError, match="Commit is empty"):
            assemble_obt_record(integral_record(commit=""), INTEGRAL_COMMENTED)
        with pytest.raises(ValueError, match="Commented_proof is empty"):
            assemble_obt_record(integral_record(), "")


def small_corpus():
    entries = []
    for i in range(5):
        proof = (f"theorem toy{i} (n : ℕ) : n + {i} = {i} + n := by\n"
                 f"  simpa using Nat.add_comm n {i}\n")
        entries.append(informal_entry(
            f"toy{i}", proof.split(" := by")[0] + " :=", proof,
            f"Statement: addition commutes with {i}. Proof: by commutativity."))
    return entries


class TestBootstrapCorpus:
    def test_head_mode_emits_everything(self):
        entries = small_corpus()
        out, stats = bootstrap_corpus(entries, None, HEAD)
        assert [r.name for r in out] == [e.name for e in entries]
        assert all(r.commented_proof.startswith("/- ") for r in out)
        assert (stats.total, stats.emitted) == (5, 5)
        assert stats.informal_failures == 0
        assert stats.verification_fallbacks == 0
        assert stats.backend_fallbacks == 0

    def test_failed_informalizations_skipped(self):
        entries = small_corpus()
        entries[1] = dataclasses.replace(
            entries[1], generated_informal_statement_and_proof="",
            verdict="fail", reasons=("OVERLENGTH",))
        out, stats = bootstrap_corpus(entries, None, HEAD)
        assert [r.name for r in out] == ["toy0", "toy2", "toy3", "toy4"]
        assert stats.informal_failures == 1
        assert stats.emitted == 4

    def test_interleaved_with_good_backend(self):
        entries = small_corpus()
        script = [
            (f"toy{i}", entry.proof + f"  -- note {i}\n")
            for i, entry in enumerate(entries)
        ]
        backend = mock_backend(script)
        out, stats = bootstrap_corpus(
            entries, make_sampler(backend), INTERLEAVED)
        assert stats.emitted == 5
        assert stats.verification_fallbacks == 0
        assert all("--" in r.commented_proof for r in out)

    def test_unverifiable_record_falls_back_to_head(self):
        entries = small_corpus()
        script = [("toy2", "theorem rewritten : 1 = 1 := rfl")]
        script += [(f"toy{i}", entries[i].proof) for i in range(5) if i != 2]
        backend = mock_backend(script)
        out, stats = bootstrap_corpus(
            entries, make_sampler(backend), INTERLEAVED)
        assert stats.emitted == 5
        assert stats.verification_fallbacks == 1
        by_name = {r.name: r for r in out}
        assert by_name["toy2"].commented_proof.startswith("/- ")
        assert not by_name["toy0"].commented_proof.startswith("/- ")

    def test_dead_backend_falls_back_everywhere(self):
        entries = small_corpus()

        class Down:
            name = "down"
            concurrency = 1

            def generate(self, request):
                raise BackendUnavailable("offline")

        policy = retry_policy(max_attempts=1, sleep=lambda s: None)
        out, stats = bootstrap_corpus(
            entries, make_sampler(Down(), retry=policy), INTERLEAVED)
        assert stats.emitted == 5
        assert stats.backend_fallbacks == 5
        assert all(r.commented_proof.startswith("/- ") for r in out)

    def test_diverging_head_text_rejected(self, monkeypatch):
        # each pair is verified once, before assembly; assembly does not
        # check it again, so a head text that lost code must stop here
        monkeypatch.setattr(
            bootstrap_module, "head_bootstrap",
            lambda nl, proof: "/- " + nl + " -/\n" + proof.replace("simpa", "simp"))
        with pytest.raises(BootstrapVerificationFailed) as info:
            bootstrap_corpus(small_corpus(), None, HEAD)
        assert info.value.divergence.expected == "simpa"
        assert info.value.divergence.actual == "simp"

    def test_every_emitted_record_verifies(self):
        out, _ = bootstrap_corpus(small_corpus(), None, HEAD)
        for record in out:
            ok, _ = verify_bootstrap(record.proof, record.commented_proof)
            assert ok

    def test_interleaved_mode_needs_a_backend(self):
        with pytest.raises(ValueError, match="backend"):
            bootstrap_corpus(small_corpus(), None, INTERLEAVED)

    def test_same_name_entries_keep_their_own_text(self):
        # names repeat across namespaces; each entry carries its own proof
        # and NL text, and nothing is looked up by name
        nat, int_ = (informal_entry(
            "foo", f"theorem foo : (1 : {t}) = 1 :=",
            f"theorem foo : (1 : {t}) = 1 := by\n  rfl\n",
            f"Statement: one equals one in {t}. Proof: reflexivity.")
            for t in ("Nat", "Int"))
        out, stats = bootstrap_corpus([nat, int_], None, HEAD)
        assert [(r.proof, r.generated_informal_statement_and_proof) for r in out] == [
            (e.proof, e.generated_informal_statement_and_proof)
            for e in (nat, int_)]
        assert all(r.commented_proof.endswith(r.proof) for r in out)
        assert stats.emitted == 2


def keyed_replies(entries, seed):
    """Per request id: a commented proof, one that lost code, or a
    malformed reply."""
    proofs = {e.name: e.proof for e in entries}

    def reply(request):
        _, _, name, attempt = request.request_id.split(":")
        roll = random.Random(f"{seed}:reply:{request.request_id}").random()
        if roll < 0.15:
            raise GenClientError("scripted bad reply")
        if roll < 0.5:
            return proofs[name].replace("simpa", "simp")
        return proofs[name] + f"  -- note {attempt}\n"
    return reply


class TestConcurrentCorpus:
    """Four records in flight give what one at a time gives: the records,
    the stats and the budget use, also under ceilings that bind mid-run."""

    def run(self, entries, seed, concurrency, **ceilings):
        budget = make_budget(**ceilings)
        backend = KeyedBackend(keyed_replies(entries, seed), seed, concurrency)
        out, stats = bootstrap_corpus(
            entries, make_sampler(backend, budget=budget, max_new_tokens=64), INTERLEAVED)
        return out, stats, budget.requests_used, budget.tokens_used

    def test_records_stats_and_budget_match_serial(self):
        rng = random.Random(53)
        bound = 0
        for trial in range(6):
            entries = []
            for i in range(rng.randint(3, 9)):
                proof = (f"theorem toy{i} (n : ℕ) : n + {i} = {i} + n := by\n"
                         f"  simpa using Nat.add_comm n {i}\n")
                entries.append(informal_entry(
                    f"toy{i}", proof.split(" := by")[0] + " :=", proof,
                    "Statement: addition commutes. Proof: "
                    + "by commutativity " * rng.randint(1, 30),
                    verdict="fail" if rng.random() < 0.2 else "pass"))
            serial = self.run(entries, trial, 1)
            requests, tokens = serial[2], serial[3]
            assert self.run(entries, trial, 4) == serial, trial
            for ceilings in ({"max_requests": rng.randint(1, max(1, requests))},
                             {"max_tokens": rng.randint(1, max(1, tokens))}):
                serial = self.run(entries, trial, 1, **ceilings)
                assert self.run(entries, trial, 4, **ceilings) == serial, (
                    trial, ceilings)
                bound += serial[2] < requests
        assert bound >= 6  # most ceilings stop the run early


WIRE_NAMES = [
    "Name", "Statement", "Proof", "File_path", "Commit",
    "Generated_informal_statement_and_proof", "Commented_proof",
]


class TestDatasetFiles:
    def worked_record(self):
        return assemble_obt_record(integral_record(), INTEGRAL_COMMENTED)

    def test_wire_field_names_exact(self, tmp_path):
        path = tmp_path / "obt.jsonl"
        artifacts.write_jsonl(str(path), [self.worked_record()])
        assert list(json.loads(path.read_text(encoding="utf-8"))) == WIRE_NAMES

    def test_round_trip_identity(self, tmp_path):
        out, _ = bootstrap_corpus(small_corpus(), None, HEAD)
        out.append(self.worked_record())
        path = tmp_path / "obt.jsonl"
        artifacts.write_jsonl(str(path), out)
        loaded = load_obt_dataset(str(path))
        assert loaded == out
        first = json.loads(path.read_text(encoding="utf-8").splitlines()[0])
        assert list(first) == WIRE_NAMES

    def test_each_record_is_scanned_twice_on_load(self, tmp_path, monkeypatch):
        # one scan of the proof gives its code and its steps, one of the
        # commented proof its code; every record is still re-verified
        out, _ = bootstrap_corpus(small_corpus(), None, HEAD)
        out.append(self.worked_record())
        path = tmp_path / "obt.jsonl"
        artifacts.write_jsonl(str(path), out)
        scanned = []

        def counted(scan):
            def wrapper(text, *args):
                scanned.append((scan.__name__, text))
                return scan(text, *args)
            return wrapper

        for name in ("code_and_steps", "code_texts"):
            monkeypatch.setattr(corpus, name, counted(getattr(corpus, name)))
        loaded = load_obt_dataset(str(path))
        assert loaded == out
        assert sorted(scanned) == sorted(
            [("code_and_steps", r.proof) for r in out]
            + [("code_texts", r.commented_proof) for r in out])
        assert [r.difficulty for r in loaded] == [
            corpus.code_and_steps(r.proof)[1] for r in out]

    def test_snake_case_mirror_rejected(self, tmp_path):
        # only the wire names are read; attribute names are not a second schema
        record = self.worked_record()
        mirror = {attr: getattr(record, attr) for attr in (
            "name", "statement", "proof", "file_path", "commit",
            "generated_informal_statement_and_proof", "commented_proof")}
        path = tmp_path / "obt.jsonl"
        path.write_text(json.dumps(mirror, ensure_ascii=False) + "\n",
                        encoding="utf-8")
        with pytest.raises(artifacts.ArtifactError, match="entry has no 'Name' field"):
            load_obt_dataset(str(path))

    def test_tampered_code_rejected_on_load(self, tmp_path):
        record = self.worked_record()
        path = tmp_path / "obt.jsonl"
        artifacts.write_jsonl(str(path), [record])
        entry = json.loads(path.read_text(encoding="utf-8"))
        entry["Commented_proof"] = entry["Commented_proof"].replace(
            "hasDerivWithinAt", "hasDerivAt")
        path.write_text(json.dumps(entry, ensure_ascii=False) + "\n",
                        encoding="utf-8")
        with pytest.raises(BootstrapVerificationFailed, match="obt.jsonl:1"):
            load_obt_dataset(str(path))

    def test_empty_field_rejected_on_load(self, tmp_path):
        record = self.worked_record()
        path = tmp_path / "obt.jsonl"
        artifacts.write_jsonl(str(path), [record])
        entry = json.loads(path.read_text(encoding="utf-8"))
        entry["Commit"] = ""
        path.write_text(json.dumps(entry, ensure_ascii=False) + "\n",
                        encoding="utf-8")
        with pytest.raises(artifacts.ArtifactError, match="Commit"):
            load_obt_dataset(str(path))

    def test_missing_field_rejected(self, tmp_path):
        path = tmp_path / "obt.jsonl"
        artifacts.write_jsonl(str(path), [self.worked_record()])
        entry = json.loads(path.read_text(encoding="utf-8"))
        del entry["Proof"]
        path.write_text(json.dumps(entry, ensure_ascii=False) + "\n",
                        encoding="utf-8")
        with pytest.raises(artifacts.ArtifactError,
                           match="obt.jsonl:1: entry has no 'Proof' field"):
            load_obt_dataset(str(path))

    def test_unreadable_line_reports_position(self, tmp_path):
        path = tmp_path / "obt.jsonl"
        artifacts.write_jsonl(str(path), [self.worked_record()])
        with open(path, "a", encoding="utf-8") as sink:
            sink.write("{broken\n")
        with pytest.raises(artifacts.ArtifactError, match="obt.jsonl:2"):
            load_obt_dataset(str(path))
