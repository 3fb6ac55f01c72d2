"""Lexer, extraction, counting, and artifact-detection tests.

The lexer is checked against ``support.reference_scan``, an independently
written oracle scanner, over the snippet corpus and randomized inputs.
Expected values for the worked examples below were produced by the oracle
and frozen here.
"""

import random
import re

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fixtures import listings
from fixtures.snippets import BAD_SNIPPETS, SNIPPETS
from support import (
    LeanToken,
    ReferenceScanError,
    SEMANTIC_KINDS,
    TokenKind,
    insert_comments_line_respecting,
    insert_comments_reckless,
    lean3_findings,
    lean_delimited_texts,
    lex_lean,
    lex_or_none,
    nested_comment,
    random_leanish_source,
    reference_count_tactic_steps,
    reference_extract_theorems,
    reference_lex_lean,
    reference_scan,
    reference_semantic_tokens,
    semantic_tokens,
    strip_comments,
    tactic_steps,
)

from leanforge import corpus
from leanforge.corpus import (
    LexError,
    code_and_steps,
    code_divergence,
    code_texts,
    extract_theorems,
)


def spans(source):
    return [(t.kind.value, t.text) for t in lex_lean(source)]


class TestLexer:
    def test_nested_block_comment_frozen(self):
        # Frozen oracle output for the canonical nested-comment example.
        assert spans("a /- x /- y -/ z -/ b") == [
            ("code", "a"),
            ("whitespace", " "),
            ("block-comment", "/- x /- y -/ z -/"),
            ("whitespace", " "),
            ("code", "b"),
        ]

    def test_line_comment_frozen(self):
        assert spans("-- c\nrfl") == [
            ("line-comment", "-- c"),
            ("whitespace", "\n"),
            ("code", "rfl"),
        ]

    def test_string_is_not_a_comment(self):
        out = spans('"-- not a comment"')
        assert out == [("string-literal", '"-- not a comment"')]

    def test_lossless_on_corpus(self):
        for name, src in SNIPPETS.items():
            toks = lex_lean(src)
            assert "".join(t.text for t in toks) == src, name
            for t in toks:
                assert src[t.start : t.end] == t.text, name

    def test_matches_reference_scanner_on_corpus(self):
        for name, src in SNIPPETS.items():
            got = spans(src)
            expected = reference_scan(src)
            assert got == expected, name

    def test_bad_snippets_raise(self):
        for name, (src, message) in BAD_SNIPPETS.items():
            with pytest.raises(LexError, match=message) as exc_info:
                lex_lean(src)
            assert exc_info.value.offset >= 0, name
            with pytest.raises(ReferenceScanError):
                reference_scan(src)

    def test_unterminated_comment_offset(self):
        with pytest.raises(LexError, match="unterminated block comment") as exc_info:
            lex_lean("rfl /- open")
        assert exc_info.value.offset == 4

    def test_unterminated_string_offset(self):
        with pytest.raises(LexError, match="unterminated string literal") as exc_info:
            lex_lean('x "no end')
        assert exc_info.value.offset == 2

    def test_matches_reference_on_random_sources(self):
        rng = random.Random(20240617)
        for _ in range(300):
            src = random_leanish_source(rng)
            assert spans(src) == reference_scan(src)
            assert "".join(t for _, t in reference_scan(src)) == src

    @given(st.text(alphabet="ab -/\n\"'\\", max_size=40))
    @settings(max_examples=400, deadline=None)
    def test_lossless_or_lexerror_on_adversarial_text(self, src):
        try:
            toks = lex_lean(src)
        except LexError:
            with pytest.raises(ReferenceScanError):
                reference_scan(src)
            return
        assert "".join(t.text for t in toks) == src
        assert spans(src) == reference_scan(src)


class TestStripComments:
    def test_example_frozen(self):
        assert strip_comments("/- a -/ rfl -- b").strip() == "rfl"

    def test_idempotent_on_corpus(self):
        for name, src in SNIPPETS.items():
            once = strip_comments(src)
            assert strip_comments(once) == once, name

    def test_strip_preserves_non_comment_bytes(self):
        src = listings.INTEGRAL_COMMENTED
        stripped = strip_comments(src)
        assert "--" not in stripped
        assert "integral_eq_sub_of_hasDeriv_right" in stripped


class TestTokenEqual:
    def test_comment_insertion_on_proof(self):
        a = "theorem t : 1 = 1 := by\n  rfl"
        b = "theorem t : 1 = 1 := by\n  -- nice\n  rfl"
        assert code_divergence(a, b) is None

    def test_different_code(self):
        assert code_divergence("rfl", "simp") is not None

    def test_changed_tactic(self):
        a = "theorem t : a = a := by\n  linarith"
        b = "theorem t : a = a := by\n  nlinarith"
        assert code_divergence(a, b) is not None

    def test_commented_listing_equals_plain(self):
        assert code_divergence(
            listings.INTEGRAL_PROOF, listings.INTEGRAL_COMMENTED) is None

    def test_reflexive_on_corpus(self):
        for name, src in SNIPPETS.items():
            assert code_divergence(src, src) is None, name
            assert code_divergence(src, strip_comments(src)) is None, name

    def test_randomized_comment_insertion(self):
        rng = random.Random(7)
        lean4_snippets = [s for n, s in sorted(SNIPPETS.items()) if s.strip()]
        for trial in range(200):
            src = lean4_snippets[trial % len(lean4_snippets)]
            mutated = insert_comments_reckless(src, rng, count=rng.randint(1, 4))
            assert code_divergence(src, mutated) is None, (trial, mutated)

    def test_semantic_tokens_match_reference(self):
        for name, src in SNIPPETS.items():
            got = [t.text for t in semantic_tokens(src)]
            assert got == reference_semantic_tokens(src), name

    def test_divergence_reports_first_mismatch(self):
        a = "theorem t : a = a := by\n  linarith"
        b = "theorem t : a = a := by\n  -- c\n  nlinarith"
        div = code_divergence(a, b)
        assert div is not None
        assert div.expected == "linarith"
        assert div.actual == "nlinarith"
        assert b[div.offset :].startswith("nlinarith")

    def test_divergence_none_when_equal(self):
        assert code_divergence("rfl", "rfl -- done") is None

    def test_divergence_when_candidate_truncated(self):
        div = code_divergence("rfl simp", "rfl")
        assert div is not None
        assert div.expected == "simp"
        assert div.actual is None
        assert div.offset == 3

    def test_divergence_offset_at_end_of_candidate_with_trailing_comment(self):
        # the candidate ran out: the offset is its length, comments included
        div = code_divergence("rfl simp", "rfl -- c")
        assert (div.index, div.offset) == (1, 8)
        assert code_divergence("rfl", "").offset == 0


class TestExtractTheorems:
    def test_single_theorem(self):
        records = extract_theorems(listings.MATHD_ALGEBRA_270, "f.lean", "c0ffee")
        assert len(records) == 1
        rec = records[0]
        assert rec.name == "mathd_algebra_270"
        assert rec.statement.endswith(":= by")
        assert rec.proof.startswith("theorem mathd_algebra_270")
        assert rec.proof.rstrip().endswith("_ = 3 / 7 := by norm_num")
        assert rec.file_path == "f.lean"
        assert rec.commit == "c0ffee"

    def test_statement_is_prefix_of_proof(self):
        for src in (
            listings.MATHD_ALGEBRA_270,
            listings.MATHD_ALGEBRA_338,
            listings.AMC12B_2002_P2,
            listings.INTEGRAL_PROOF,
        ):
            for rec in extract_theorems(src, "x.lean", "c"):
                assert rec.proof.startswith(rec.statement)

    def test_term_mode_statement_ends_at_assign(self):
        records = extract_theorems(listings.INTEGRAL_PROOF, "x.lean", "c")
        assert len(records) == 1
        assert records[0].statement.rstrip().endswith(":=")
        assert records[0].name == "integral_eq_sub_of_hasDerivAt"

    def test_commented_declaration_ignored(self):
        src = "/- theorem ghost : 1 = 0 := sorry -/\ntheorem real_one : 1 = 1 := rfl\n"
        records = extract_theorems(src, "x.lean", "c")
        assert [r.name for r in records] == ["real_one"]

    def test_line_commented_declaration_ignored(self):
        src = "-- theorem ghost : 1 = 0 := sorry\ntheorem real_two : 2 = 2 := rfl\n"
        records = extract_theorems(src, "x.lean", "c")
        assert [r.name for r in records] == ["real_two"]

    def test_malformed_declaration_skipped_and_logged(self, caplog):
        src = "theorem bad : 1 = 1\n\ntheorem good : 2 = 2 := rfl\n"
        with caplog.at_level("WARNING", logger="leanforge.corpus"):
            records = extract_theorems(src, "x.lean", "c")
        assert [r.name for r in records] == ["good"]
        assert any("bad" in message for message in caplog.messages)

    def test_two_theorems_split(self):
        src = "theorem a1 : 1 = 1 := rfl\n\ntheorem a2 : 2 = 2 := by\n  rfl\n"
        records = extract_theorems(src, "x.lean", "c")
        assert [r.name for r in records] == ["a1", "a2"]
        assert records[0].proof == "theorem a1 : 1 = 1 := rfl"
        assert records[1].statement == "theorem a2 : 2 = 2 := by"
        assert records[1].proof == "theorem a2 : 2 = 2 := by\n  rfl"

    def test_lemma_keyword(self):
        records = extract_theorems("lemma lm : 1 = 1 := rfl\n", "x.lean", "c")
        assert [r.name for r in records] == ["lm"]

    def test_def_not_extracted(self):
        src = "def helper (n : Nat) : Nat := n + 1\n\ntheorem uses_helper : helper 1 = 2 := rfl\n"
        records = extract_theorems(src, "x.lean", "c")
        assert [r.name for r in records] == ["uses_helper"]

    def test_private_modifier(self):
        records = extract_theorems("private theorem hidden : 3 = 3 := rfl\n", "x.lean", "c")
        assert [r.name for r in records] == ["hidden"]

    def test_indented_declaration_skipped(self):
        records = extract_theorems("  theorem nested : 1 = 1 := rfl\n", "x.lean", "c")
        assert records == []

    def test_assign_inside_binder_not_boundary(self):
        src = "theorem t (h : (let k := 3; k) = 3) : True := trivial\n"
        records = extract_theorems(src, "x.lean", "c")
        assert len(records) == 1
        assert records[0].statement.rstrip().endswith(":=")
        assert "let k" in records[0].statement

    def test_trailing_comments_not_swallowed(self):
        src = "theorem t : 1 = 1 := rfl\n\n-- note for next\ntheorem u : 2 = 2 := rfl\n"
        records = extract_theorems(src, "x.lean", "c")
        assert records[0].proof == "theorem t : 1 = 1 := rfl"
        assert [r.name for r in records] == ["t", "u"]

    def test_difficulty_populated(self):
        records = extract_theorems(listings.MATHD_ALGEBRA_338, "x.lean", "c")
        assert records[0].difficulty == tactic_steps(records[0].proof)

    def test_comment_that_would_glue_an_opener_is_extracted(self, caplog):
        # `/- half -/` separates `/` from `-b`, as in Lean, so nothing glues
        # them into an unclosed `/-` and the declaration is kept
        src = ("theorem ok : 1 = 1 := rfl\n\n"
               "theorem t : 2 = 2 := by\n  simp [a //- half -/-b]\n  rfl\n")
        with caplog.at_level("WARNING", logger="leanforge.corpus"):
            records = extract_theorems(src, "x.lean", "c")
        assert [(r.name, r.difficulty) for r in records] == [("ok", 1), ("t", 2)]
        assert caplog.messages == []

    def test_attribute_line_bounds_declaration(self):
        src = "theorem t : 1 = 1 := rfl\n\n@[simp]\ntheorem u : 2 = 2 := rfl\n"
        records = extract_theorems(src, "x.lean", "c")
        assert records[0].proof == "theorem t : 1 = 1 := rfl"
        assert [r.name for r in records] == ["t", "u"]

    def test_bracket_in_char_literal_does_not_hide_the_proof_boundary(self):
        src = "theorem paren_char (c : Char) (h : c = '(') : c = '(' := by\n  exact h"
        (record,) = extract_theorems(src, "x.lean", "c")
        assert record.name == "paren_char"
        assert record.statement.endswith(":= by")
        assert record.difficulty == 1


class TestCountTacticSteps:
    # Frozen expected counts; derived by hand-walking each listing.
    def test_single_tactic(self):
        assert tactic_steps(":= by rfl") == 1

    def test_term_mode(self):
        assert tactic_steps(":= rfl") == 1

    def test_bare_tactic_block(self):
        assert tactic_steps("subst x\nring") == 2

    def test_full_declaration_two_steps(self):
        assert tactic_steps(listings.AMC12B_2002_P2) == 2

    def test_semicolon_chain_counts_individually(self):
        assert tactic_steps(":= by constructor; rfl; rfl") == 3

    def test_alternation_combinator_not_split(self):
        assert tactic_steps(":= by rw [h] <;> rfl") == 1

    def test_semicolon_in_char_literal_not_split(self):
        assert tactic_steps(":= by exact ';'") == 1
        assert tactic_steps(":= by\n  exact ';'\n  exact '\\''; rfl") == 3
        assert tactic_steps(":= by exact 'a'; simp") == 2
        # after an identifier character `'` is a prime, so `;` splits
        assert tactic_steps(":= by exact h'; simp") == 2
        assert tactic_steps(":= by exact h''; simp") == 2

    def test_bracket_in_char_literal_counts_for_nothing(self):
        proof = ("theorem t (h : c = '[') : a + b = b + a := by\n"
                 "  simp [Nat.add_comm]\n  rfl")
        assert tactic_steps(proof) == 2
        # after an identifier character `'` is a prime, so `(` opens a bracket
        assert corpus._bracket_delta("x'('") == 1
        assert corpus._bracket_delta("'('") == corpus._bracket_delta("')'") == 0

    def test_term_mode_listing(self):
        assert tactic_steps(listings.INTEGRAL_PROOF) == 1

    def test_commented_listing_same_count(self):
        assert tactic_steps(listings.INTEGRAL_COMMENTED) == tactic_steps(
            listings.INTEGRAL_PROOF
        )

    def test_sqineq_counts_ignore_comments(self):
        # have + linarith, with three interleaved comment lines.
        assert tactic_steps(listings.SQINEQ_COMMENTED) == 2

    def test_continuation_lines_not_counted(self):
        # calc continuation lines are deeper than the block base indent.
        assert tactic_steps(listings.MATHD_ALGEBRA_270) == 2

    def test_frozen_counts_for_listings(self):
        expected = {
            "MATHD_ALGEBRA_451": 7,
            "MATHD_ALGEBRA_116": 9,
            "MATHD_ALGEBRA_338": 9,
            "AMC12_2000_P5": 3,
        }
        for attr, count in expected.items():
            assert tactic_steps(getattr(listings, attr)) == count, attr

    def test_newline_inside_a_string_starts_no_line(self):
        assert tactic_steps(':= by\n  exact "a\nb; c"\n  rfl') == 2
        assert tactic_steps(':= by\n  exact "a\n  b"\n  rfl') == 2

    def test_empty_input(self):
        assert tactic_steps("") == 0
        assert tactic_steps("   \n ") == 0

    def test_invariant_under_line_respecting_comment_insertion(self):
        rng = random.Random(11)
        sources = [
            listings.AMC12B_2002_P2,
            listings.MATHD_ALGEBRA_270,
            listings.MATHD_ALGEBRA_338,
            listings.SQINEQ_COMMENTED,
            listings.INTEGRAL_PROOF,
            ":= by constructor; rfl; rfl",
        ]
        for trial in range(150):
            src = sources[trial % len(sources)]
            baseline = tactic_steps(src)
            mutated = insert_comments_line_respecting(src, rng, count=rng.randint(1, 3))
            assert tactic_steps(mutated) == baseline, (trial, mutated)

    def test_invariant_under_blank_line_insertion(self):
        rng = random.Random(13)
        src = listings.MATHD_ALGEBRA_338
        baseline = tactic_steps(src)
        for _ in range(30):
            lines = src.split("\n")
            lines.insert(rng.randint(1, len(lines) - 1), "")
            assert tactic_steps("\n".join(lines)) == baseline


class TestDetectLean3Artifacts:
    def test_lean4_listing_clean(self):
        assert lean3_findings(listings.MATHD_ALGEBRA_338) == []
        assert lean3_findings(listings.INTEGRAL_COMMENTED) == []

    def test_lean3_output_a(self):
        patterns = lean3_findings(listings.LEAN3_OUTPUT_A)
        assert patterns.count("lean3-import") == 3
        assert patterns.count("begin-end-block") == 1

    def test_lean3_output_b(self):
        # in text order
        assert lean3_findings(listings.LEAN3_OUTPUT_B) == [
            "lean3-import", "lean3-import", "open-locale", "begin-end-block"]

    def test_lean4_import_not_flagged(self):
        assert lean3_findings("import Mathlib.Data.Real.Basic\n") == []

    def test_begin_inside_comment_not_flagged(self):
        assert lean3_findings("-- begin here\nrfl") == []
        assert lean3_findings('"begin"') == []

    def test_prose_import_not_flagged(self):
        assert lean3_findings("-- we import the library\nimport Mathlib\nrfl") == []

    def test_unlexable_text_still_scanned(self):
        assert lean3_findings("/- broken\nbegin\n  simp\nend") == [
            "begin-end-block"]


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_property_token_equal_under_insertion(seed):
    rng = random.Random(seed)
    src = random_leanish_source(rng)
    mutated = insert_comments_reckless(src, rng, count=rng.randint(1, 3))
    assert code_divergence(src, mutated) is None


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_property_strip_idempotent(seed):
    rng = random.Random(seed)
    src = random_leanish_source(rng)
    once = strip_comments(src)
    assert strip_comments(once) == once


# --- the token core against the per-character reference ------------------------


class TestTokenCore:
    def test_token_is_a_named_tuple_with_the_old_fields_and_repr(self):
        token = LeanToken(TokenKind.CODE, "rfl", 4, 7)
        assert LeanToken._fields == ("kind", "text", "start", "end")
        assert isinstance(token, tuple)
        assert (token.kind, token.text, token.start, token.end) == (
            TokenKind.CODE, "rfl", 4, 7)
        assert repr(token) == "LeanToken(code, 'rfl', 4:7)"
        assert all(type(t) is LeanToken for t in lex_lean("a /- b -/ \"c\""))

    def test_nested_comment_after_code_resumes_scanning(self):
        src = "a/- x /- y -/ z -/b 'c' h' -- d\n\"e\""
        assert lex_lean(src) == reference_lex_lean(src)

    def test_long_inputs_agree(self):
        for name, src in SNIPPETS.items():
            text = (src + "\n") * 20
            assert lex_lean(text) == reference_lex_lean(text), name


def lex_outcome(lexer, source):
    """The tokens, or the error's message, which holds its kind and offset,
    when the source does not lex."""
    try:
        return lexer(source)
    except LexError as exc:
        return str(exc)


_LEX_ATOMS = st.sampled_from([
    "rfl", "h'", "h''", "x₀", "Nat.succ", ":=", "by", "<;>", "(", ")", "⟨", "⟩",
    "-", "/", "'", '"', "\\", "'\"'", "'a'", "' '", "'\\n'", "'\\''", "'\\x41'",
    "'\\u{3b1}'", "'\\x4'", "--", "/-", "-/", "/--", "-/-", " ", "\n", "\t", "\r\n",
    # a prime, not a char literal: `h' '` is `h'`, a space and a lone `'`
    "h' '", "x₀'\"'", "a'-'", "b''",
])
_STRINGS = st.text(alphabet='ab;\\"\'-/ \n', max_size=8).map(lambda body: '"' + body + '"')
_LINE_COMMENTS = st.text(alphabet="ab -/'\"", max_size=8).map(lambda body: "--" + body)
_BLOCK_COMMENTS = st.recursive(
    st.text(alphabet="ab -/'\"\n", max_size=6).map(lambda body: "/-" + body + "-/"),
    lambda inner: st.lists(
        st.one_of(inner, st.text(alphabet="ab '\"-", max_size=4)), max_size=3,
    ).map(lambda parts: "/-" + "".join(parts) + "-/"),
    max_leaves=6,
)
_UNTERMINATED = st.sampled_from(["/- open", '"open', "/- a /- b -/", '"esc\\', "/-"])
LEAN_TEXT = st.one_of(
    st.lists(st.one_of(_LEX_ATOMS, _STRINGS, _LINE_COMMENTS, _BLOCK_COMMENTS,
                       _UNTERMINATED), max_size=14).map("".join),
    st.text(alphabet="ab -/\n\"'\\₀", max_size=30),
)


# block comments nested as deep as the scans follow, and one level deeper
_DEEPEST_SCANNED = nested_comment(corpus._SCAN_NESTING)
_TOO_DEEP = nested_comment(corpus._SCAN_NESTING + 1)


@given(LEAN_TEXT)
@example("a " + _DEEPEST_SCANNED + "b")
@example("a " + _TOO_DEEP + "b")
@settings(max_examples=500, deadline=None)
def test_property_lexer_agrees_with_per_character_reference(source):
    assert lex_outcome(lex_lean, source) == lex_outcome(reference_lex_lean, source)


# --- code texts from one scan against the per-character reference ------------------


def reference_code_texts(source):
    return [t.text for t in reference_lex_lean(source) if t.kind in SEMANTIC_KINDS]


@given(lean_delimited_texts())
@example("a " + _TOO_DEEP + "b")
@example("a /- 1 /- 2 -/ -/ b 'c' h' \"s /- t\" -- d")
@example("a " + _TOO_DEEP[:-3] + "b")
@example('a /- c -/ "open')
@settings(max_examples=400, deadline=None)
def test_property_code_texts_agree_with_per_character_reference(source):
    assert lex_outcome(code_texts, source) == lex_outcome(reference_code_texts, source)


def walk_error(source):
    """The offset and message of the ``LexError`` that ``_walk`` raises on
    ``source``, or None when it lexes."""
    try:
        for _ in corpus._walk(source):
            pass
    except LexError as exc:
        return exc.offset, str(exc)
    return None


@given(st.one_of(lean_delimited_texts(), LEAN_TEXT))
@example("a " + _DEEPEST_SCANNED + "b -- c\n\"s\"")
@example("a " + _TOO_DEEP + "b -- c\n\"s\"")
@example("/-- " + _TOO_DEEP + "-/\r\ntheorem t : ℕ := by\r\n  simp ⦃x⦄ /- 𝔸 -/")
@example('a /- c -/ "open')
@example("a " + _TOO_DEEP[:-3] + "b")
@settings(max_examples=400, deadline=None)
def test_property_proof_items_tile_their_text(source):
    # each item is whitespace, a comment or a token; joined they are the
    # text, and the token column is code_texts; a text that does not lex
    # raises _walk's error at its offset
    error = walk_error(source)
    if error is not None:
        with pytest.raises(LexError) as raised:
            corpus._proof_items(source)
        assert (raised.value.offset, str(raised.value)) == error
        return
    items, code = corpus._proof_items(source)
    assert "".join(map("".join, items)) == source
    assert all(sum(map(bool, item)) == 1 for item in items)
    assert code == [token for _, _, token in items if token] == code_texts(source)


_DEEPER = (_TOO_DEEP, nested_comment(corpus._SCAN_NESTING + 2))


@given(lean_delimited_texts(),
       st.lists(st.tuples(st.integers(0, 99), st.sampled_from(_DEEPER)), max_size=2))
@example("a b", [(1, _TOO_DEEP)])
@example('a "s" -- c\nb', [(0, _TOO_DEEP), (5, _DEEPER[1])])
@settings(max_examples=400, deadline=None)
def test_property_walk_continues_the_scan_past_a_deeper_comment(text, inserts):
    # a comment nested deeper than the scan follows, put in at an item edge
    # outside a line comment, is one comment item of the walk; the walk's
    # items tile the text, and are the findall's where it leaves no bare
    # `/-` or `"` token
    if walk_error(text) is not None:
        return
    edges, end = [0], 0
    for item in corpus._walk(text):
        end += len("".join(item))
        if not item[1].startswith("--"):
            edges.append(end)
    for at, comment in sorted(((edges[pick % len(edges)], comment)
                               for pick, comment in inserts), reverse=True):
        text = text[:at] + comment + text[at:]
    items = list(corpus._walk(text))
    assert "".join(map("".join, items)) == text
    assert all(sum(map(bool, item)) == 1 for item in items)
    found = re.findall(corpus._PROOF_SCAN, text)
    tokens = [token for _, _, token in found]
    if "/-" not in tokens and '"' not in tokens:
        assert items == found
    for _, comment in inserts:
        assert ("", comment.rstrip(), "") in items


# --- step counts from tokens against the text form --------------------------------


_STEP_ATOMS = st.sampled_from([
    "theorem t : a = b", " := ", ":=", " by", "by", "\n  ", "\n    ", "\n", " ",
    "rfl", "simp", "norm_num", "; ", ";", " <;> ", "(", ")", "[h]", "⟨", "⟩",
    '"s;t"', "h'", "'a'", "-", "/", "calc", "_ = 1 := by ring", "·", "'['", "'('",
    '"s\n  t;"', "<", ">",
])
_GLUED = st.sampled_from([
    "/- c -/", "/-c-/", "/- /- n -/ -/", "/-- doc -/", "-- c\n", "--c", "\n  -- c\n",
    "/- c\n  d -/",
])
PROOF_TEXT = st.lists(st.one_of(_STEP_ATOMS, _GLUED), max_size=16).map("".join)


def step_outcome(count, source):
    try:
        return count(source)
    except LexError as exc:
        return str(exc)


@given(PROOF_TEXT)
@example("theorem t : a = b := by\n  a/- c -/b\n  rfl")
@example("theorem t : a = b :=/- c -/by\n  simp\n  rfl")
@example("theorem t : a = b := by simp/- c -/; rfl")
@example("-/- c -/- rfl")
@settings(max_examples=500, deadline=None)
def test_property_token_step_count_matches_text_count(source):
    assert step_outcome(tactic_steps, source) == step_outcome(
        reference_count_tactic_steps, source)


@given(lean_delimited_texts())
@example(":= by " + _TOO_DEEP + "simp\n  rfl")
@example("theorem t : (a := b) := by\n  simp; rfl\n  done")
@settings(max_examples=400, deadline=None)
def test_property_step_count_of_delimited_texts_matches_reference(source):
    assert step_outcome(tactic_steps, source) == step_outcome(
        reference_count_tactic_steps, source)


# Lines built from the delimiters a `;` must not split inside: quotes,
# backslashes, `<;>`, primes, char literals and their escapes, and
# characters on each side of the identifier class's edges (`𝔸` is outside).
TACTIC_LINE = st.lists(st.sampled_from([
    '"', "'", "\\", ";", "<", ">", "<;>", "h'", "'a'", "';'", "'\\''", '"a;b"',
    "\\x41", "u{41}", "₀", "é", "𝔸", "\x7f", " ", "a",
]), max_size=14).map("".join)


@given(TACTIC_LINE)
@example("exact '\\''; rfl")
@example('simp "a\\"; b; c')
@example("x'';'<;>'")
@example("𝔸';';é';'")
@settings(max_examples=1000, deadline=None)
def test_property_split_matches_character_loop(line):
    proof = ":= by\n  " + line
    assert step_outcome(tactic_steps, proof) == step_outcome(
        reference_count_tactic_steps, proof)


# --- code texts and step count from one scan --------------------------------------


def reference_code_and_steps(source):
    """``code_texts`` of ``source`` and the step count the per-character
    lexer's tokens give."""
    return code_texts(source), reference_count_tactic_steps(source)


@given(st.one_of(PROOF_TEXT, lean_delimited_texts(),
                 TACTIC_LINE.map(lambda line: ":= by\n  " + line)))
@example(":= by " + _TOO_DEEP + "simp\n  rfl")
@example("theorem t : a = b := by\n  simp\n  " + _TOO_DEEP + "rfl")
@example("theorem t : a = b :=/- c -/by\n  simp\n  rfl")
@example(":= by simp </- c -/;> rfl")
@example(":= by simp </- c -/;> rfl " + _TOO_DEEP)
@example('theorem t : a = b := by\n  exact "open')
@example("theorem t : a = b := by\n  simp /- open")
@example(":= by\n  exact ';'\n  exact h'; rfl")
@settings(max_examples=600, deadline=None)
def test_property_code_and_steps_match_code_texts_and_reference_count(source):
    # the code half is code_texts, a text that does not lex raises its error
    # at its offset, and the step half is the per-character reference's
    assert lex_outcome(code_and_steps, source) == lex_outcome(
        reference_code_and_steps, source)


def test_comment_between_assign_and_by_separates_them():
    # a comment separates tokens, as in Lean: `:=` and `by` stay two tokens
    # and open a tactic block, with or without a space beside the comment
    assert tactic_steps(":=/- c -/by\n  simp\n  rfl") == 2
    assert tactic_steps(":= /- c -/by\n  simp\n  rfl") == 2


def test_comment_that_would_glue_an_opener_separates_tokens():
    # `/- half -/` stands between `/` and `-b`, so no `/-` opens there
    proof = "theorem t : a = b := by\n  simp [a //- half -/-b]\n  rfl"
    assert tactic_steps(proof) == reference_count_tactic_steps(proof) == 2
    with pytest.raises(LexError, match="unterminated block comment"):
        tactic_steps(proof.replace("-/-b", "b"))


def test_comment_between_angle_and_semicolon_is_no_combinator():
    # `<;>` is one token; `<`, a comment and `;>` are `<` and a `;` that splits
    for proof in (":= by simp </- c -/;> rfl", ":= by simp <;/- c -/> rfl"):
        assert tactic_steps(proof) == reference_count_tactic_steps(proof) == 2
    assert tactic_steps(":= by simp < ;> rfl") == 2
    assert tactic_steps(":= by simp <;> rfl") == 1
    # the same rule in the fallback for a comment nested too deep to scan
    assert tactic_steps(":= by simp </- c -/;> rfl " + _TOO_DEEP) == 2
    assert tactic_steps(":= by simp <;> rfl " + _TOO_DEEP) == 1


def test_comment_between_dashes_leaves_two_tokens():
    # `-/- c -/-` is `-`, a comment and `-`: one line of code
    assert tactic_steps("-/- c -/-") == reference_count_tactic_steps("-/- c -/-") == 1


def test_extraction_counts_from_the_file_tokens():
    src = ("theorem a1 : 1 = 1 := by\n  simp -- first\n  rfl\n\n"
           "/- between -/\ntheorem a2 : 2 = 2 :=/- glued -/by\n  simp\n  rfl\n")
    records = extract_theorems(src, "x.lean", "c")
    assert [r.difficulty for r in records] == [
        reference_count_tactic_steps(r.proof) for r in records] == [2, 2]


def _spacing_between_code(source):
    """The whitespace tokens of ``source`` without a newline that stand
    between two code or string tokens; None when it does not lex. A run
    beside a comment is left out: after a comment that opens a line, it is
    the indentation of the code that follows."""
    tokens = lex_or_none(source)
    if tokens is None:
        return None
    return [t for left, t, right in zip(tokens, tokens[1:], tokens[2:])
            if t.kind is TokenKind.WHITESPACE and "\n" not in t.text
            and left.kind in SEMANTIC_KINDS and right.kind in SEMANTIC_KINDS]


# Proof texts whose atoms are often set apart by spaces.
SPACED_PROOF = st.lists(
    st.tuples(st.one_of(_STEP_ATOMS, _GLUED), st.sampled_from(["", " ", "  "])),
    min_size=2, max_size=12).map(lambda parts: "".join(a + s for a, s in parts))


@given(SPACED_PROOF, st.integers(min_value=0),
       st.sampled_from(["/- c -/", _TOO_DEEP.strip()]))
@example(":= by\n  simp\n  rfl", 0, "/- c -/")
@example(":= by simp < ;> rfl", 3, "/- c -/")
@example(":= by simp < ;> rfl", 3, _TOO_DEEP.strip())
@settings(max_examples=400, deadline=None)
def test_property_comment_in_place_of_spacing_keeps_the_count(source, pick, comment):
    gaps = _spacing_between_code(source)
    assume(gaps)
    gap = gaps[pick % len(gaps)]
    commented = source[:gap.start] + comment + source[gap.end:]
    assert tactic_steps(commented) == tactic_steps(source)


# --- extraction from the token scan against the token-list walk ------------------


_DECLARATIONS = st.sampled_from([
    "theorem t : a = b := by\n  simp\n  rfl\n",
    "lemma l : 1 = 1 := rfl\n",
    "/-- doc -/\ntheorem d : x := by\n  -- c\n  simp\n",
    "@[simp]\ntheorem s : y := rfl\n",
    "@[simp] theorem s2 : y := rfl\n",
    "private theorem p : 1 = 1 := by norm_num\n",
    "nonrec protected /- c -/ lemma n (h : (let k := 3; k) = 3) : z := by\n  exact h\n",
    "theorem u{α}(x : α) : x = x := by\n  rfl\n",
    "theorem bad : 1 = 1\n",
    "theorem empty : 1 = 1 := by\n\n",
    "theorem \"s\" : 1 = 1 := rfl\n",
    "theorem g : 2 = 2 := by\n  simp [a //- half -/-b]\n",
])
_DECLARATION_ATOMS = st.sampled_from([
    "theorem", "lemma", "theorem t", " t2", "private ", "protected ", "nonrec ",
    "noncomputable ", "def d", "namespace N", "end N", "open Nat", "#check t",
    "@[simp]", "/-- doc -/", "-- theorem ghost : 1 = 0 := sorry\n",
    "/- theorem ghost : 1 = 0 := sorry -/", '"theorem ghost : 1 = 0 := sorry"',
    " : a = b", ":=", " := ", "by", " by", "rfl", "\n  simp", "\n", "\n\n", "  ", " ",
    "(", ")", "[", "]", "{", "}", "⦃", "⦄", "⟨", "⟩", "'\"'", "h'", ";", "<;>",
    "'('", "')'", "'['",
])
_NESTED = st.sampled_from([_DEEPEST_SCANNED, _TOO_DEEP, "/-- " + _TOO_DEEP + "-/"])
_FILE_PARTS = st.lists(st.one_of(_DECLARATIONS, _DECLARATION_ATOMS, _NESTED),
                       max_size=16).map("".join)
LEAN_FILE = st.one_of(
    _FILE_PARTS,
    st.tuples(_FILE_PARTS, _UNTERMINATED, _FILE_PARTS).map("".join),
    lean_delimited_texts(),
)


# Declarations whose steps are read in each way: a tactic block, a term, a
# comment between `:=` and `by`, a comment nested deeper than the scans
# follow in the body, and names whose brackets the step count reads whole.
_STEP_DECLARATIONS = st.sampled_from([
    "theorem t : a = b := by\n  simp\n  rfl\n",
    "lemma l : 1 = 1 := rfl\n",
    "theorem c : a = b :=/- c -/by\n  simp; rfl\n  done\n",
    "theorem d : a = b := by\n  simp " + _TOO_DEEP + "\n  rfl\n",
    "theorem e : a = b := by " + _TOO_DEEP + "simp <;> rfl\n",
    "theorem a)b : x := by\n  simp\n  rfl\n",
    "theorem a)b (h : c) : x := by\n  simp\n  rfl\n",
    "theorem ')' : x := by\n  simp\n  rfl\n",
    "theorem '(' : x := by\n  simp\n  rfl\n",
    "theorem s : a = b := by\n  exact \"a;\nb\"\n  simp </- c -/;> rfl\n",
    "theorem q : a = b := by\n  exact ';'\n  rw [h] <;> simp; rfl\n",
])
STEP_FILE = st.lists(st.one_of(_STEP_DECLARATIONS, _DECLARATIONS, _DECLARATION_ATOMS,
                               _STEP_ATOMS, _GLUED, _NESTED), max_size=16).map("".join)


@given(STEP_FILE)
@example("theorem a)b : x := by\n  simp\n  rfl\n")
@example("theorem '(' : x := by\n  simp\n  rfl\n")
@example("theorem q : a = b := by\n  exact ';'\n  rw [h] <;> simp; rfl\n")
@example("theorem t : a := by\n  simp " + _TOO_DEEP + "\n  rfl\nlemma l : 1 = 1 := rfl\n")
@settings(max_examples=500, deadline=None)
def test_property_extracted_difficulty_is_the_scan_count_of_the_proof(source):
    try:
        records = extract_theorems(source, "f.lean", "c")
    except LexError:
        return
    assert [r.difficulty for r in records] == [
        code_and_steps(r.proof)[1] for r in records]


def extract_outcome(extract, source):
    """The records, or the skip log's reason when the file does not lex."""
    try:
        return extract(source, "f.lean", "c")
    except LexError as exc:
        return str(exc)


@given(LEAN_FILE)
@example("theorem t : a = b := by\n  " + _TOO_DEEP + "simp\n" + _TOO_DEEP + "\n"
         "/-- " + _TOO_DEEP + "-/\ntheorem u : c := rfl")
@example("theorem\ntheorem t : a := b\n")
@example("private /- c -/ theorem p : a := b\n  private theorem q : a := b")
@example("theorem t : a := by\n  simp\n" + '"open')
@example("theorem t : a := by\n  simp\n/- open")
@example("theorem p (h : c = '(') : c = '(' := by\n  exact h\ntheorem q (h : '[' = c) := rfl")
@example("theorem t : ℕ = ℕ := by\r\n  simp\r\n  rfl\r\n\r\n"
         "theorem u ⦃x : ℕ⦄ : x = x := by\r\n  rfl; simp\r\n")
@example("theorem t : a = b := by\n  simp -- 𝔸\n  /- 𝔸 -/ rfl\n"
         "theorem u : ℕ := by\n  exact ⦃⦄\n  /- 𝔸 /- 𝔸 -/ -/ rfl\n")
@example("theorem t : a := by\n  simp " + _TOO_DEEP + "\n  rfl\n"
         "/-- doc 𝔸 -/\ntheorem u : b := by\n  rfl\n  simp\n")
@settings(max_examples=500, deadline=None)
def test_property_extraction_matches_token_list_walk(source):
    assert extract_outcome(extract_theorems, source) == extract_outcome(
        reference_extract_theorems, source)


def test_extraction_walks_only_past_a_deeper_comment(monkeypatch):
    # a file's one scan is a findall; the token walk runs only on a file
    # with a comment nested deeper than the scan follows
    plain = ("theorem t : a = b := by\n  simp " + _DEEPEST_SCANNED + "\n  rfl\n\n"
             "/-- doc -/\nlemma l : 1 = 1 := rfl\n")
    deep = plain.replace(_DEEPEST_SCANNED, _TOO_DEEP)
    expected = {src: reference_extract_theorems(src, "f.lean", "c") for src in (plain, deep)}
    walked = []
    walk = corpus._walk
    monkeypatch.setattr(corpus, "_walk", lambda text: walked.append(text) or walk(text))
    assert extract_theorems(plain, "f.lean", "c") == expected[plain]
    assert walked == []
    assert extract_theorems(deep, "f.lean", "c") == expected[deep]
    assert walked == [deep]
    assert [r.difficulty for r in expected[deep]] == [2, 1]
