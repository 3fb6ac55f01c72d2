"""Lean4 source handling: lexing, theorem extraction, tactic-step counting,
and Lean3-artifact detection.

Everything here is a pure text transformation. No Lean toolchain is invoked;
sources are treated as token streams, never elaborated. ``lex_lean`` is a
regex scanner that yields ``LeanToken`` named tuples, and every function that
works on a lexed text takes those tokens rather than the text, so a caller
that holds a text's tokens never lexes it again: step counts come from the
tokens of the proof, divergences from the tokens of both texts.
"""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass
from enum import Enum
from typing import List, NamedTuple, Optional, Sequence, Tuple

logger = logging.getLogger(__name__)

# Keywords that open a new top-level declaration and therefore terminate the
# previous one.  `begin` is deliberately absent: it is not Lean4.
_DECL_BOUNDARY_KEYWORDS = frozenset(
    {
        "theorem",
        "lemma",
        "def",
        "abbrev",
        "instance",
        "example",
        "structure",
        "class",
        "inductive",
        "axiom",
        "opaque",
        "namespace",
        "section",
        "end",
        "open",
        "variable",
        "variables",
        "universe",
        "universes",
        "noncomputable",
        "private",
        "protected",
        "mutual",
        "import",
        "set_option",
        "attribute",
        "macro",
        "macro_rules",
        "syntax",
        "notation",
        "infixl",
        "infixr",
        "prefix",
        "postfix",
        "#check",
        "#eval",
        "#print",
    }
)

# Modifiers allowed between the start of a line and the theorem/lemma keyword.
_DECL_MODIFIERS = frozenset({"private", "protected", "nonrec", "noncomputable"})

# Module roots that identify a Lean3-style import even without a dotted path.
_LEAN3_IMPORT_ROOTS = frozenset(
    {
        "data",
        "algebra",
        "tactic",
        "analysis",
        "topology",
        "order",
        "logic",
        "init",
        "common",
        "number_theory",
        "ring_theory",
        "linear_algebra",
        "measure_theory",
        "category_theory",
        "set_theory",
        "combinatorics",
        "dynamics",
        "geometry",
        "group_theory",
        "field_theory",
        "probability",
    }
)

_CHAR_LITERAL = r"'(?:\\(?:x[0-9a-fA-F]{2}|u\{[0-9a-fA-F]+\}|.)|[^'\\\n])'"
_IDENT_TAIL = r"[A-Za-z0-9_'!?₀-₉-￿]"


class LexError(ValueError):
    """Lexer failure; ``offset`` is the byte position of the offending construct."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class UnterminatedComment(LexError):
    pass


class UnterminatedString(LexError):
    pass


class TokenKind(Enum):
    CODE = "code"
    LINE_COMMENT = "line-comment"
    BLOCK_COMMENT = "block-comment"
    STRING = "string-literal"
    WHITESPACE = "whitespace"


COMMENT_KINDS = (TokenKind.LINE_COMMENT, TokenKind.BLOCK_COMMENT)
SEMANTIC_KINDS = (TokenKind.CODE, TokenKind.STRING)


class LeanToken(NamedTuple):
    kind: TokenKind
    text: str
    start: int
    end: int

    def __repr__(self) -> str:
        return f"LeanToken({self.kind.value}, {self.text!r}, {self.start}:{self.end})"


@dataclass(frozen=True)
class TokenDivergence:
    """First point where two semantic token streams disagree.

    ``expected`` is the token from the reference stream, ``actual`` the token
    from the candidate stream; either may be None when one stream ran out.
    ``offset`` is the byte position of the diverging token in the candidate
    text (or its end when the candidate ran out).
    """

    index: int
    expected: Optional[str]
    actual: Optional[str]
    offset: int

    def __str__(self) -> str:
        return (f"token {self.index}: expected {self.expected!r}, "
                f"got {self.actual!r} at offset {self.offset}")


@dataclass(frozen=True)
class TheoremRecord:
    name: str
    statement: str
    proof: str
    file_path: str
    commit: str
    difficulty: int


@dataclass(frozen=True)
class Lean3Finding:
    pattern: str
    offset: int


# One alternative per token kind, tried in this order at each position:
# whitespace, line comment, block comment without a nested opener, string
# literal, code run. A code run stops at whitespace, a double quote or a
# comment opener; a char literal inside it is taken whole (so `'"'` opens no
# string), except after an identifier character, where `'` is a prime (h').
# The last two groups catch a block comment that nests or never closes and a
# string that never closes; both leave the regex to ``lex_lean``. Some
# alternative matches at every position, so the matches tile the text.
_TOKEN = re.compile(
    r"([ \t\r\n]+)"
    r"|(--[^\n]*)"
    r"|(/-[^/-]*(?:(?:/(?!-)|-(?!/))[^/-]*)*-/)"
    r'|("[^"\\]*(?:\\[\s\S][^"\\]*)*")'
    r"|((?:[^ \t\r\n\"'/-]+|(?<!" + _IDENT_TAIL + ")" + _CHAR_LITERAL
    + r"|'|-(?!-)|/(?!-))+)"
    r"|(/-)"
    r'|(")'
)
_KIND_OF_GROUP = (None, TokenKind.WHITESPACE, TokenKind.LINE_COMMENT,
                  TokenKind.BLOCK_COMMENT, TokenKind.STRING, TokenKind.CODE)
_NESTED_COMMENT, _OPEN_STRING = 6, 7
_COMMENT_DELIMITER = re.compile(r"/-|-/")
_new_token = tuple.__new__  # skips LeanToken's Python-level __new__


def lex_lean(source: str) -> List[LeanToken]:
    """Tokenize Lean4 source into code / comment / string / whitespace spans.

    The tokenization is lossless: concatenating the token texts reproduces the
    input exactly.  Block comments nest; string literals are never classified
    as comments.  Char literals are consumed atomically inside code spans so a
    quote character inside one cannot open a bogus string, but they do not get
    a token kind of their own.
    """
    tokens: List[LeanToken] = []
    append = tokens.append
    kinds = _KIND_OF_GROUP
    pos = 0
    while pos < len(source):
        for m in _TOKEN.finditer(source, pos):
            group = m.lastindex
            if group < _NESTED_COMMENT:
                start, end = m.span()
                append(_new_token(LeanToken, (kinds[group], m.group(), start, end)))
                continue
            start = m.start()
            if group == _OPEN_STRING:
                raise UnterminatedString("unterminated string literal", start)
            pos = _nested_comment_end(source, start)
            append(_new_token(
                LeanToken, (TokenKind.BLOCK_COMMENT, source[start:pos], start, pos)))
            break
        else:
            break
    return tokens


def _nested_comment_end(source: str, start: int) -> int:
    """End of the block comment opened at ``start``, counting nested openers."""
    depth = 0
    pos = start
    while True:
        m = _COMMENT_DELIMITER.search(source, pos)
        if m is None:
            raise UnterminatedComment("unterminated block comment", start)
        depth += 1 if m.group() == "/-" else -1
        pos = m.end()
        if depth == 0:
            return pos


def token_divergence(
    reference: Sequence[LeanToken], candidate: Sequence[LeanToken]
) -> Optional[TokenDivergence]:
    """First semantic-token mismatch between two lexed texts, or None if equal.

    Both arguments are whole ``lex_lean`` outputs; comments and whitespace
    are skipped. Offsets refer to byte positions in the candidate text.
    """
    ref = [t for t in reference if t.kind in SEMANTIC_KINDS]
    cand = [t for t in candidate if t.kind in SEMANTIC_KINDS]
    for idx in range(max(len(ref), len(cand))):
        expected = ref[idx].text if idx < len(ref) else None
        actual = cand[idx].text if idx < len(cand) else None
        if expected != actual:
            if idx < len(cand):
                offset = cand[idx].start
            else:
                offset = candidate[-1].end if candidate else 0
            return TokenDivergence(idx, expected, actual, offset)
    return None


# --- theorem extraction -----------------------------------------------------

_OPEN_BRACKETS = "([{⦃"  # ( [ { ⦃
_CLOSE_BRACKETS = ")]}⦄"


def _bracket_delta(text: str) -> int:
    # Brackets inside char literals would miscount here; theorem statements
    # containing bracket char literals are vanishingly rare.
    delta = 0
    for ch in text:
        if ch in _OPEN_BRACKETS:
            delta += 1
        elif ch in _CLOSE_BRACKETS:
            delta -= 1
    return delta


def _at_line_start(source: str, pos: int) -> bool:
    """True when ``pos`` sits at column zero.

    Top-level declarations in Mathlib-style sources are unindented even inside
    namespaces; indented declarations are treated as nested and out of scope.
    """
    return pos == 0 or source[pos - 1] == "\n"


def _leading_word(text: str) -> str:
    m = re.match(r"[#\w]+", text)
    return m.group(0) if m else text[:1]


def _is_decl_boundary(source: str, token: LeanToken) -> bool:
    if not _at_line_start(source, token.start):
        return False
    if token.kind == TokenKind.BLOCK_COMMENT:
        return token.text.startswith("/--")
    if token.kind != TokenKind.CODE:
        return False
    if token.text.startswith("@["):
        return True
    return _leading_word(token.text) in _DECL_BOUNDARY_KEYWORDS


_NAME_STOP = ":({[⦃⟨"


def _name_from_token(text: str) -> str:
    for idx, ch in enumerate(text):
        if ch in _NAME_STOP:
            return text[:idx]
    return text


def extract_theorems(source: str, file_path: str, commit: str) -> List[TheoremRecord]:
    """Pull top-level ``theorem``/``lemma`` declarations out of a Lean4 file.

    Declarations that appear inside comments or strings are ignored.  A header
    without a name or without a ``:=`` proof boundary, or a proof that no
    longer lexes once its comments are removed, is skipped with a log entry
    rather than raised, so one malformed declaration cannot sink a file.
    """
    tokens = lex_lean(source)
    records: List[TheoremRecord] = []
    idx = 0
    while idx < len(tokens):
        tok = tokens[idx]
        if (
            tok.kind == TokenKind.CODE
            and tok.text in ("theorem", "lemma")
            and _starts_declaration(source, tokens, idx)
        ):
            record, next_idx = _extract_one(source, tokens, idx, file_path, commit)
            if record is not None:
                records.append(record)
            idx = next_idx
        else:
            idx += 1
    return records


def _starts_declaration(source: str, tokens: Sequence[LeanToken], idx: int) -> bool:
    """The keyword must begin its line, modulo a few modifier keywords."""
    tok = tokens[idx]
    if _at_line_start(source, tok.start):
        return True
    # Walk back over same-line modifier tokens (e.g. `private theorem foo`).
    j = idx - 1
    while j >= 0:
        prev = tokens[j]
        if prev.kind == TokenKind.WHITESPACE:
            if "\n" in prev.text:
                return False
            j -= 1
            continue
        if prev.kind in COMMENT_KINDS:
            j -= 1
            continue
        if prev.kind == TokenKind.CODE and prev.text in _DECL_MODIFIERS:
            if _at_line_start(source, prev.start):
                return True
            j -= 1
            continue
        return False
    return False


def _extract_one(
    source: str,
    tokens: Sequence[LeanToken],
    start_idx: int,
    file_path: str,
    commit: str,
) -> Tuple[Optional[TheoremRecord], int]:
    keyword = tokens[start_idx]

    # Name: the next semantic token after the keyword.
    name = None
    name_token = None
    j = start_idx + 1
    while j < len(tokens):
        t = tokens[j]
        if t.kind in SEMANTIC_KINDS:
            if t.kind == TokenKind.CODE:
                name = _name_from_token(t.text)
                name_token = t
            break
        j += 1

    # Find where this declaration ends: the next top-level boundary token.
    end_idx = len(tokens)
    for k in range(start_idx + 1, len(tokens)):
        if _is_decl_boundary(source, tokens[k]):
            end_idx = k
            break

    if not name:
        logger.warning(
            "skipping malformed declaration at offset %d in %s: no name",
            keyword.start,
            file_path,
        )
        return None, max(end_idx, start_idx + 1)

    # Proof boundary: first `:=` at bracket depth zero.  Anything glued to the
    # name token after the name itself (rare unspaced binders) still counts
    # toward the depth.
    depth = _bracket_delta(name_token.text[len(name) :])
    assign_idx = None
    for k in range(j + 1, end_idx):
        t = tokens[k]
        if t.kind != TokenKind.CODE:
            continue
        if depth == 0 and t.text == ":=":
            assign_idx = k
            break
        depth += _bracket_delta(t.text)
    if assign_idx is None:
        logger.warning(
            "skipping malformed declaration %r at offset %d in %s: no proof boundary",
            name,
            keyword.start,
            file_path,
        )
        return None, max(end_idx, start_idx + 1)

    # Statement runs through `:=`, and through a directly following `by`.
    statement_end = tokens[assign_idx].end
    for k in range(assign_idx + 1, end_idx):
        t = tokens[k]
        if t.kind in SEMANTIC_KINDS:
            if t.kind == TokenKind.CODE and t.text == "by":
                statement_end = t.end
            break

    # The proof slice ends at the last semantic token before the boundary, so
    # trailing comments between declarations are not swallowed.
    last_sem_end = None
    for last_sem in range(end_idx - 1, start_idx, -1):
        if tokens[last_sem].kind in SEMANTIC_KINDS:
            last_sem_end = tokens[last_sem].end
            break
    if last_sem_end is None or last_sem_end <= statement_end:
        logger.warning(
            "skipping malformed declaration %r at offset %d in %s: empty proof body",
            name,
            keyword.start,
            file_path,
        )
        return None, max(end_idx, start_idx + 1)

    statement = source[keyword.start : statement_end]
    proof = source[keyword.start : last_sem_end]
    try:
        # the slice lexes exactly as the proof text does on its own
        difficulty = count_tactic_steps(tokens[start_idx : last_sem + 1])
    except LexError as exc:
        # Removing the comments glued a new comment opener or quote together.
        logger.warning(
            "skipping declaration %r at offset %d in %s: its proof does not "
            "lex with comments removed: %s",
            name,
            keyword.start,
            file_path,
            exc,
        )
        return None, end_idx
    record = TheoremRecord(
        name=name,
        statement=statement,
        proof=proof,
        file_path=file_path,
        commit=commit,
        difficulty=difficulty,
    )
    return record, end_idx


# --- tactic-step counting ---------------------------------------------------


def _split_tactic_segments(line: str) -> int:
    """Number of `;`-separated tactic segments on one line.

    `<;>` is a combinator, not a separator, and `;` inside a string literal
    does not split.
    """
    if ";" not in line:
        return 1 if line.strip() else 0
    segments = 0
    current_nonblank = False
    i = 0
    n = len(line)
    while i < n:
        ch = line[i]
        if ch == '"':
            i += 1
            while i < n:
                if line[i] == "\\":
                    i += 2
                    continue
                if line[i] == '"':
                    i += 1
                    break
                i += 1
            current_nonblank = True
            continue
        if ch == ";" and not (i > 0 and line[i - 1] == "<" and i + 1 < n and line[i + 1] == ">"):
            if current_nonblank:
                segments += 1
            current_nonblank = False
            i += 1
            continue
        if not ch.isspace():
            current_nonblank = True
        i += 1
    if current_nonblank:
        segments += 1
    return segments


def count_tactic_steps(proof_tokens: Sequence[LeanToken]) -> int:
    """Static count of top-level tactic invocations in a lexed proof.

    The proof is either a full declaration, a fragment starting at ``:=``, or
    a bare tactic block.  Steps are separated by newlines at the block's base
    indentation or by `;`; a term-mode proof counts as one step.  Comments
    are ignored entirely, so commenting a proof never changes its count.

    The count is taken on the proof with its comments removed, and only that
    text is lexed again: removing a comment can join its neighbours into new
    tokens (``:=/- c -/by`` becomes ``:=by``), so the kept tokens alone would
    not do.
    """
    stripped = "".join([t.text for t in proof_tokens if t.kind not in COMMENT_KINDS])
    if not stripped.strip():
        return 0

    tokens = [t for t in lex_lean(stripped) if t.kind in SEMANTIC_KINDS]
    if not tokens:
        return 0  # what is left is a comment: `-/- c -/-` strips to `--`

    # Locate the proof body relative to a depth-zero `:=`, if present.
    depth = 0
    body_start = None
    tactic_mode = False
    for idx, t in enumerate(tokens):
        if t.kind != TokenKind.CODE:
            continue
        if depth == 0 and t.text == ":=":
            nxt = tokens[idx + 1] if idx + 1 < len(tokens) else None
            if nxt is not None and nxt.kind == TokenKind.CODE and nxt.text == "by":
                tactic_mode = True
                body_start = nxt.end
            else:
                body_start = t.end
            break
        depth += _bracket_delta(t.text)

    if body_start is None:
        # No `:=`: a leading `by` marks a tactic block, otherwise we treat the
        # whole text as tactic lines (the fragment form used by callers).
        first = tokens[0]
        if first.kind == TokenKind.CODE and first.text == "by":
            body = stripped[first.end :]
        else:
            body = stripped
        return max(1, _count_block_steps(body))

    if not tactic_mode:
        return 1
    return max(1, _count_block_steps(stripped[body_start:]))


def _count_block_steps(body: str) -> int:
    lines = body.split("\n")
    steps = 0
    head = lines[0].strip()
    if head:
        steps += _split_tactic_segments(head)
    base = None
    for raw in lines[1:]:
        if not raw.strip():
            continue
        indent = len(raw) - len(raw.lstrip())
        if base is None:
            base = indent
        if indent <= base:
            steps += _split_tactic_segments(raw.strip())
    return steps


# --- Lean3 artifact detection -------------------------------------------


_LEAN3_MODULE = re.compile(r"[a-z][A-Za-z0-9_']*(\.[A-Za-z0-9_']+)*$")


def detect_lean3_artifacts(
    text: str, tokens: Optional[Sequence[LeanToken]]
) -> List[Lean3Finding]:
    """Flag Lean3 leftovers: begin/end tactic blocks, Lean3-style imports,
    and open_locale commands, each with its byte offset.

    ``tokens`` is the text's ``lex_lean`` output, or None when the text does
    not lex; unlexable text falls back to a regex scan.
    """
    if tokens is None:
        return _detect_lean3_raw(text)

    findings: List[Lean3Finding] = []
    code = [t for t in tokens if t.kind == TokenKind.CODE]
    for pos, tok in enumerate(code):
        if tok.text == "begin":
            findings.append(Lean3Finding("begin-end-block", tok.start))
        elif tok.text == "open_locale":
            findings.append(Lean3Finding("open-locale", tok.start))
        elif tok.text == "import" and pos + 1 < len(code):
            target = code[pos + 1].text
            root = target.split(".", 1)[0]
            lowercase = bool(re.match(r"[a-z]", target))
            if lowercase and _LEAN3_MODULE.match(target) and ("." in target or root in _LEAN3_IMPORT_ROOTS):
                findings.append(Lean3Finding("lean3-import", tok.start))
    findings.sort(key=lambda f: f.offset)
    return findings


def _detect_lean3_raw(text: str) -> List[Lean3Finding]:
    findings = []
    for m in re.finditer(r"\bbegin\b", text):
        findings.append(Lean3Finding("begin-end-block", m.start()))
    for m in re.finditer(r"\bopen_locale\b", text):
        findings.append(Lean3Finding("open-locale", m.start()))
    for m in re.finditer(r"\bimport\s+([a-z][\w'.]*)", text):
        target = m.group(1)
        root = target.split(".", 1)[0]
        if "." in target or root in _LEAN3_IMPORT_ROOTS:
            findings.append(Lean3Finding("lean3-import", m.start()))
    findings.sort(key=lambda f: f.offset)
    return findings
