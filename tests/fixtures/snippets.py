"""Snippet corpus for lexer soundness tests.

A mix of real theorem sources and hand-written stress cases: nested block
comments, comment markers inside strings, char literals, docstrings, unusual
whitespace.  Every entry must lex losslessly; entries in BAD_SNIPPETS must
raise a LexError with the given message.
"""

from . import listings

SNIPPETS = {
    # Real-world theorem sources.
    "sqineq_commented": listings.SQINEQ_COMMENTED,
    "amc12b_2002_p2": listings.AMC12B_2002_P2,
    "amc12a_2019_p21_statement": listings.AMC12A_2019_P21_STATEMENT,
    "mathd_numbertheory_543_statement": listings.MATHD_NUMBERTHEORY_543_STATEMENT,
    "mathd_algebra_270": listings.MATHD_ALGEBRA_270,
    "amc12_2000_p5": listings.AMC12_2000_P5,
    "mathd_algebra_451": listings.MATHD_ALGEBRA_451,
    "mathd_algebra_116": listings.MATHD_ALGEBRA_116,
    "mathd_algebra_338": listings.MATHD_ALGEBRA_338,
    "integral_statement": listings.INTEGRAL_STATEMENT,
    "integral_proof": listings.INTEGRAL_PROOF,
    "integral_commented": listings.INTEGRAL_COMMENTED,
    "lean3_output_a": listings.LEAN3_OUTPUT_A,
    "lean3_output_b": listings.LEAN3_OUTPUT_B,
    # Nested block comments.
    "nested_two_levels": "a /- x /- y -/ z -/ b\n",
    "nested_three_levels": "/- 1 /- 2 /- 3 -/ 2 -/ 1 -/ rfl\n",
    "nested_adjacent": "/- a -//- b -/ theorem t : 1 = 1 := rfl\n",
    "nested_with_newlines": "/- outer\n /- inner\n  body -/\n still outer -/\nexample : True := trivial\n",
    "nested_empty": "/--/ x\n",
    "nested_immediate_close": "/- /- -/ -/ y\n",
    "block_comment_only": "/- nothing else here -/",
    "block_with_dashes": "/- -- not a line comment inside -/ simp\n",
    "block_containing_close_like": "/- a - / b -/ code\n",
    "doc_comment": "/-- doc for foo -/\ntheorem foo : 2 = 2 := rfl\n",
    "doc_comment_nested": "/-- outer /- inner -/ tail -/\nlemma bar : True := trivial\n",
    # Line comments.
    "line_comment_simple": "-- c\nrfl\n",
    "line_comment_no_newline_eof": "rfl -- trailing at eof",
    "line_comment_contains_block_open": "-- here /- does not open\nsimp\n",
    "line_comment_contains_close": "-- stray -/ close\nexact h\n",
    "line_comment_only": "-- nothing but comment\n",
    "double_dash_in_expr": "theorem n : 5 - -3 = 8 := by norm_num\n",
    "three_dashes": "--- still one line comment\nring\n",
    # Strings.
    "string_with_line_comment_marker": 'example : String := "-- not a comment"\n',
    "string_with_block_open": 'def s : String := "/- not open"\n',
    "string_with_block_close": 'def s : String := "-/ not close"\n',
    "string_with_escaped_quote": 'def s : String := "say \\"hi\\" now"\n',
    "string_with_backslash": 'def s : String := "a\\\\b"\n',
    "string_multiline": 'def s : String := "line one\nline two"\n',
    "string_adjacent_comment": '"text" -- after string\n',
    "comment_then_string": '/- before -/ "text /- inside string -/"\n',
    # Char literals.
    "char_literal_quote": "def c : Char := '\"'\n",
    "char_literal_dash": "def c : Char := '-'\n",
    "char_escaped": "def c : Char := '\\n'\n",
    "prime_identifiers": "theorem h' (h'' : a = b) : b = a := h''.symm\n",
    "prime_then_string": 'def f (x' + "'" + ' : Nat) : String := "ok"\n',
    # Whitespace and structure.
    "tabs_and_spaces": "theorem t :\n\t1 = 1 :=\n\trfl\n",
    "crlf_endings": "theorem t : 1 = 1 := by\r\n  rfl\r\n",
    "blank_lines": "\n\n\ntheorem t : 1 = 1 := rfl\n\n\n",
    "no_trailing_newline": "theorem t : 1 = 1 := rfl",
    "leading_whitespace": "   \n  theorem nested_style : 1 = 1 := rfl\n",
    "empty_file": "",
    "whitespace_only": "  \n\t\n ",
    # Multiple declarations and namespaces.
    "two_theorems": "theorem a1 : 1 = 1 := rfl\n\ntheorem a2 : 2 = 2 := rfl\n",
    "theorem_after_def": "def helper (n : Nat) : Nat := n + 1\n\ntheorem uses_helper : helper 1 = 2 := rfl\n",
    "namespaced": "namespace Demo\n\ntheorem inside : True := trivial\n\nend Demo\n",
    "with_imports": "import Mathlib.Data.Real.Basic\n\nopen Real\n\ntheorem im : (1 : ℝ) = 1 := rfl\n",
    "private_theorem": "private theorem hidden : 3 = 3 := rfl\n",
    "attribute_then_theorem": "@[simp]\ntheorem simp_target : 4 = 4 := rfl\n",
    "commented_out_theorem": "/- theorem ghost : 1 = 0 := sorry -/\ntheorem real_one : 1 = 1 := rfl\n",
    "line_commented_theorem": "-- theorem ghost : 1 = 0 := sorry\ntheorem real_two : 2 = 2 := rfl\n",
    # Tactic shapes.
    "semicolon_chain": "theorem sc : 1 = 1 ∧ 2 = 2 := by constructor; rfl; rfl\n",
    "alternation_combinator": "theorem ac (h : a = b) : b = a := by rw [h] <;> rfl\n",
    "term_mode_multiline": "theorem tm (h : a = b) : b = a :=\n  Eq.symm h\n",
    "calc_proof": "theorem cp (a : Nat) : a + 0 + 0 = a := by\n  calc a + 0 + 0 = a + 0 := by rw [Nat.add_zero]\n    _ = a := by rw [Nat.add_zero]\n",
    "bullet_proof": "theorem bp : 1 = 1 ∧ 2 = 2 := by\n  constructor\n  · rfl\n  · rfl\n",
    "unicode_heavy": "theorem u (f : ℕ → ℝ) (h : ∀ ε > 0, ∃ N, ∀ n ≥ N, |f n| < ε) : True := trivial\n",
    "anonymous_constructor": "theorem pair : 1 = 1 ∧ 2 = 2 := ⟨rfl, rfl⟩\n",
    "inline_comment_between_tactics": "theorem ict : 2 = 2 := by\n  have h : 1 = 1 := rfl /- mid -/\n  rfl\n",
}

# Sources that must fail to lex, mapped to the expected error message.
BAD_SNIPPETS = {
    "unterminated_block": ("/- never closed", "unterminated block comment"),
    "unterminated_nested": ("/- outer /- inner -/ still open", "unterminated block comment"),
    "unterminated_string": ('def s := "no close\n', "unterminated string literal"),
    "unterminated_string_eof": ('def s := "ends here', "unterminated string literal"),
    "string_trailing_backslash": ('def s := "oops\\', "unterminated string literal"),
}
