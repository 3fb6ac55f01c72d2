"""Shared test helpers.

``reference_scan`` is an independent oracle for the lexer: a stack-based
scanner written against the same surface grammar but structured differently
(explicit mode stack, regex dispatch for literals).  Tests compare the
implementation against it over the snippet corpus and randomized inputs.
``lex_lean`` gives the items of ``corpus._walk``, the program's one walk,
as ``LeanToken``s, each of a ``TokenKind`` told by its column and its first
characters. ``reference_lex_lean`` is the per-character lexer that the regex
scanner replaced; it emits ``LeanToken``s and raises the corpus
``LexError``s, so the two must agree token for token and error for error.
``reference_divergence`` compares two texts token by token over that lexer.
``reference_count_tactic_steps`` counts steps from the per-character
lexer's tokens of the whole proof, under Lean's rule that a comment
separates tokens: the body is its non-comment tokens, with each literal
and each other quote but a prime made one `#` and each `<;>` in one code
token made `_`, split into lines and then into segments by
``reference_split_tactic_segments``, the character loop that
``_split_tactic_segments`` replaced.
``tactic_steps`` is the step half of ``corpus.code_and_steps``.
``reference_extract_theorems`` walks a file's token list the way
``extract_theorems`` did before it read the items of one scan of the file.
Both count bracket depth per character, skipping char literals.
``reference_screen_proof`` and ``reference_mock_check`` judge a prover sample
from its tokens, as the prover did before it compared code texts.
``reference_train_projection`` is the training loop that projected each
batch twice per step. ``reference_hash_embed`` is the per-n-gram form of the hash embedder that
``HashEmbedder.embed`` must match byte for byte. ``KeyedBackend`` answers by
request id after a jittered pause, so the paid stages can be run at several
concurrencies and compared. ``make_sampler``, ``make_request``,
``mock_backend``, ``chat_backend``, ``retry_policy`` and ``make_budget``
build the generation objects with the config's default settings, and
``serial_ask`` is the ``ask`` a serial run hands a unit.
``contrastive_loss`` and ``contrastive_gradient`` give the loss and
gradient that ``retrieval.train_projection`` uses, for a batch of pairs.
``example_pool`` builds a pool of distinct examples, and ``example_index``
a ``retrieval.ExampleIndex`` over a pool under the identity head.
"""

from __future__ import annotations

import hashlib
import math
import random
import re
import threading
import time
from enum import Enum
from typing import List, NamedTuple, Optional, Tuple

import numpy as np

from leanforge import genclient, retrieval
from leanforge.config import BackendSettings, BudgetSettings, RetrySettings
from leanforge.prover import PoolExample


class TokenKind(Enum):
    CODE = "code"
    LINE_COMMENT = "line-comment"
    BLOCK_COMMENT = "block-comment"
    STRING = "string-literal"
    WHITESPACE = "whitespace"


class LeanToken(NamedTuple):
    kind: TokenKind
    text: str
    start: int
    end: int

    def __repr__(self) -> str:
        return f"LeanToken({self.kind.value}, {self.text!r}, {self.start}:{self.end})"


def lex_lean(source: str) -> List[LeanToken]:
    """The tokens of ``source``, one per ``corpus._walk`` item: whitespace,
    a line comment (`--`) or a block comment (`/-`), a string literal (`"`)
    or a code run. Raises what ``_walk`` raises."""
    from leanforge import corpus

    tokens = []
    end = 0
    for space, comment, token in corpus._walk(source):
        text = space or comment or token
        kind = (TokenKind.WHITESPACE if space
                else TokenKind.LINE_COMMENT if comment.startswith("--")
                else TokenKind.BLOCK_COMMENT if comment
                else TokenKind.STRING if token[0] == '"'
                else TokenKind.CODE)
        tokens.append(LeanToken(kind, text, end, end + len(text)))
        end += len(text)
    return tokens


# The token kinds that are comments, and those that carry a proof's code.
COMMENT_KINDS = (TokenKind.LINE_COMMENT, TokenKind.BLOCK_COMMENT)
SEMANTIC_KINDS = (TokenKind.CODE, TokenKind.STRING)

_WS_RUN = re.compile(r"[ \t\r\n]+")
_CHAR_LIT = re.compile(r"'(?:\\(?:x[0-9a-fA-F]{2}|u\{[0-9a-fA-F]+\}|.)|[^'\\\n])'")
_IDENT_CH = re.compile(r"[A-Za-z0-9_'!?₀-₉-￿]")


class ReferenceScanError(Exception):
    def __init__(self, kind: str, offset: int):
        super().__init__(f"{kind} at {offset}")
        self.kind = kind
        self.offset = offset


def reference_scan(src: str) -> List[Tuple[str, str]]:
    """Oracle tokenization: list of (kind, text) spans covering src exactly."""
    spans: List[Tuple[str, str]] = []
    i = 0
    n = len(src)
    while i < n:
        m = _WS_RUN.match(src, i)
        if m:
            spans.append(("whitespace", m.group(0)))
            i = m.end()
            continue
        if src.startswith("--", i):
            end = src.find("\n", i)
            end = n if end == -1 else end
            spans.append(("line-comment", src[i:end]))
            i = end
            continue
        if src.startswith("/-", i):
            stack = [i]
            j = i + 2
            while j < n and stack:
                if src.startswith("/-", j):
                    stack.append(j)
                    j += 2
                elif src.startswith("-/", j):
                    stack.pop()
                    j += 2
                else:
                    j += 1
            if stack:
                raise ReferenceScanError("unterminated-comment", i)
            spans.append(("block-comment", src[i:j]))
            i = j
            continue
        if src[i] == '"':
            j = i + 1
            closed = False
            while j < n:
                if src[j] == "\\":
                    j += 2
                elif src[j] == '"':
                    j += 1
                    closed = True
                    break
                else:
                    j += 1
            if not closed or j > n:
                raise ReferenceScanError("unterminated-string", i)
            spans.append(("string-literal", src[i:j]))
            i = j
            continue
        # Code run.
        j = i
        while j < n:
            c = src[j]
            if c in ' \t\r\n"' or src.startswith("--", j) or src.startswith("/-", j):
                break
            if c == "'" and (j == i or not _IDENT_CH.match(src[j - 1])):
                m = _CHAR_LIT.match(src, j)
                if m:
                    j = m.end()
                    continue
            j += 1
        spans.append(("code", src[i:j]))
        i = j
    return spans


def reference_semantic_tokens(src: str) -> List[str]:
    return [text for kind, text in reference_scan(src) if kind in ("code", "string-literal")]


# --- the per-character lexer, kept as the reference for lex_lean ---------------


def _is_ws(ch: str) -> bool:
    return ch in (" ", "\t", "\r", "\n")


def reference_lex_lean(source: str):
    """Per-character Lean4 lexer: the implementation ``lex_lean`` had before
    the regex scanner, unchanged but for its name."""
    from leanforge.corpus import LexError

    tokens = []
    n = len(source)
    i = 0

    def emit(kind, start: int, end: int) -> None:
        tokens.append(LeanToken(kind, source[start:end], start, end))

    while i < n:
        ch = source[i]
        if _is_ws(ch):
            start = i
            while i < n and _is_ws(source[i]):
                i += 1
            emit(TokenKind.WHITESPACE, start, i)
            continue
        if source.startswith("--", i):
            start = i
            nl = source.find("\n", i)
            i = n if nl == -1 else nl
            emit(TokenKind.LINE_COMMENT, start, i)
            continue
        if source.startswith("/-", i):
            start = i
            depth = 1
            i += 2
            while i < n and depth > 0:
                if source.startswith("/-", i):
                    depth += 1
                    i += 2
                elif source.startswith("-/", i):
                    depth -= 1
                    i += 2
                else:
                    i += 1
            if depth > 0:
                raise LexError("unterminated block comment", start)
            emit(TokenKind.BLOCK_COMMENT, start, i)
            continue
        if ch == '"':
            start = i
            i += 1
            while i < n:
                if source[i] == "\\":
                    i += 2
                    continue
                if source[i] == '"':
                    i += 1
                    break
                i += 1
            else:
                raise LexError("unterminated string literal", start)
            if i > n:
                raise LexError("unterminated string literal", start)
            emit(TokenKind.STRING, start, i)
            continue

        # Code run: consume until whitespace, a comment opener, or a string.
        start = i
        while i < n:
            c = source[i]
            if _is_ws(c) or c == '"':
                break
            if source.startswith("--", i) or source.startswith("/-", i):
                break
            if c == "'":
                # A prime after an identifier char is part of the name (h').
                prev_is_ident = i > start and bool(_IDENT_CH.match(source[i - 1]))
                if not prev_is_ident:
                    m = _CHAR_LIT.match(source, i)
                    if m:
                        i = m.end()
                        continue
            i += 1
        emit(TokenKind.CODE, start, i)
    return tokens


def _reference_bracket_delta(text: str) -> int:
    """Open minus close brackets of a code token, read per character; a
    char literal is skipped whole, except after an identifier character,
    where `'` is a prime (h')."""
    delta = 0
    i = 0
    while i < len(text):
        c = text[i]
        if c == "'" and (i == 0 or not _IDENT_CH.match(text[i - 1])):
            m = _CHAR_LIT.match(text, i)
            if m:
                i = m.end()
                continue
        if c in "([{⦃":
            delta += 1
        elif c in ")]}⦄":
            delta -= 1
        i += 1
    return delta


def reference_split_tactic_segments(line: str) -> int:
    """Number of `;`-separated tactic segments on one line, found by the
    character loop that ``corpus._split_tactic_segments`` replaced.

    A `;` inside a string or char literal does not split. As in the lexer, a
    `'` after an identifier character is a prime (h'), not the start of a
    char literal. The combinator `<;>` is no longer on the line: it is read
    in one code token, before the tokens are joined
    (``reference_count_tactic_steps``).
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
        if ch == "'" and not (i > 0 and _IDENT_CH.match(line[i - 1])):
            m = _CHAR_LIT.match(line, i)
            if m:
                i = m.end()
                current_nonblank = True
                continue
        if ch == ";":
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


def _reference_block_steps(body: str) -> int:
    """Steps of a tactic block: the segments of its first line and of each
    line at the base indentation of the lines after it."""
    lines = body.split("\n")
    steps = 0
    head = lines[0].strip()
    if head:
        steps += reference_split_tactic_segments(head)
    base = None
    for raw in lines[1:]:
        if not raw.strip():
            continue
        indent = len(raw) - len(raw.lstrip())
        if base is None:
            base = indent
        if indent <= base:
            steps += reference_split_tactic_segments(raw.strip())
    return steps


def _reference_unquoted(code: str) -> str:
    """A code token's text with each `'` that is not a prime replaced by
    `#`, a char literal whole: after an identifier character `'` is a prime
    (h'); elsewhere it opens a char literal or stands alone."""
    out = []
    i = 0
    while i < len(code):
        if code[i] == "'" and (i == 0 or not _IDENT_CH.match(code[i - 1])):
            m = _CHAR_LIT.match(code, i)
            out.append("#")
            i = m.end() if m else i + 1
        else:
            out.append(code[i])
            i += 1
    return "".join(out)


def reference_count_tactic_steps(proof: str) -> int:
    """Step count of a proof text under Lean's rule that a comment separates
    tokens: lex the proof whole, walk its code and string tokens to the first
    ``:=`` at bracket depth zero and the token after it, and split the
    body's non-comment tokens into lines and segments. Each string becomes
    `#`, and so does each quote of a code token that is not a prime (a char
    literal whole), so no literal is read again across a dropped comment.
    Each `<;>` inside one code token becomes `_`, so a `<` and a `;>` that a
    dropped comment separated do not join into the combinator."""
    tokens = reference_lex_lean(proof)
    code = [t for t in tokens if t.kind in SEMANTIC_KINDS]
    if not code:
        return 0  # only comments and whitespace
    depth = 0
    body_start = None
    for idx, t in enumerate(code):
        if t.kind != TokenKind.CODE:
            continue
        if depth == 0 and t.text == ":=":
            nxt = code[idx + 1] if idx + 1 < len(code) else None
            if nxt is None or nxt.kind != TokenKind.CODE or nxt.text != "by":
                return 1  # a term-mode proof
            body_start = nxt.end
            break
        depth += _reference_bracket_delta(t.text)
    if body_start is None:
        first = code[0]
        body_start = first.end if first.kind == TokenKind.CODE and first.text == "by" else 0
    body = "".join(
        "#" if t.kind == TokenKind.STRING
        else _reference_unquoted(t.text).replace("<;>", "_") if t.kind == TokenKind.CODE
        else t.text
        for t in tokens
        if t.start >= body_start and t.kind in SEMANTIC_KINDS + (TokenKind.WHITESPACE,))
    return max(1, _reference_block_steps(body))


def tactic_steps(proof: str) -> int:
    """The tactic-step count of ``proof``, as ``corpus.code_and_steps``
    gives it."""
    from leanforge import corpus

    return corpus.code_and_steps(proof)[1]


# --- the token walk, kept as the reference for extract_theorems ---------------


def reference_extract_theorems(source: str, file_path: str, commit: str):
    """Top-level ``theorem``/``lemma`` declarations of a Lean4 file, found as
    ``extract_theorems`` found them before it read one scan of the file
    without building tokens: lex the file whole, then walk its token list. Raises
    the file's ``LexError``; a malformed declaration is skipped, unlogged."""
    from leanforge import corpus

    tokens = lex_lean(source)
    records = []
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


def _at_line_start(source: str, pos: int) -> bool:
    return pos == 0 or source[pos - 1] == "\n"


def _is_decl_boundary(source: str, token) -> bool:
    from leanforge import corpus

    if not _at_line_start(source, token.start):
        return False
    if token.kind == TokenKind.BLOCK_COMMENT:
        return token.text.startswith("/--")
    if token.kind != TokenKind.CODE:
        return False
    if token.text.startswith("@["):
        return True
    return corpus._leading_word(token.text) in corpus._DECL_BOUNDARY_KEYWORDS


def _starts_declaration(source: str, tokens, idx: int) -> bool:
    """The keyword must begin its line, modulo a few modifier keywords."""
    from leanforge import corpus

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
        if prev.kind == TokenKind.CODE and prev.text in corpus._DECL_MODIFIERS:
            if _at_line_start(source, prev.start):
                return True
            j -= 1
            continue
        return False
    return False


def _extract_one(source: str, tokens, start_idx: int, file_path: str, commit: str):
    """The record of the declaration whose keyword is ``tokens[start_idx]``
    (None when it is skipped), and the index of the token after it."""
    from leanforge import corpus

    keyword = tokens[start_idx]

    # Name: the next semantic token after the keyword.
    name = None
    name_token = None
    j = start_idx + 1
    while j < len(tokens):
        t = tokens[j]
        if t.kind in SEMANTIC_KINDS:
            if t.kind == TokenKind.CODE:
                name = corpus._name_from_token(t.text)
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
        return None, end_idx

    # Proof boundary: first `:=` at bracket depth zero.
    depth = _reference_bracket_delta(name_token.text[len(name) :])
    assign_idx = None
    for k in range(j + 1, end_idx):
        t = tokens[k]
        if t.kind != TokenKind.CODE:
            continue
        if depth == 0 and t.text == ":=":
            assign_idx = k
            break
        depth += _reference_bracket_delta(t.text)
    if assign_idx is None:
        return None, end_idx

    # Statement runs through `:=`, and through a directly following `by`.
    statement_end = tokens[assign_idx].end
    for k in range(assign_idx + 1, end_idx):
        t = tokens[k]
        if t.kind in SEMANTIC_KINDS:
            if t.kind == TokenKind.CODE and t.text == "by":
                statement_end = t.end
            break

    # The proof slice ends at the last semantic token before the boundary.
    last_sem_end = None
    for last_sem in range(end_idx - 1, start_idx, -1):
        if tokens[last_sem].kind in SEMANTIC_KINDS:
            last_sem_end = tokens[last_sem].end
            break
    if last_sem_end is None or last_sem_end <= statement_end:
        return None, end_idx

    proof = source[keyword.start : last_sem_end]
    return corpus.TheoremRecord(
        name=name,
        statement=source[keyword.start : statement_end],
        proof=proof,
        file_path=file_path,
        commit=commit,
        difficulty=tactic_steps(proof),
    ), end_idx


# --- texts built from Lean's delimiters ----------------------------------------


def nested_comment(depth: int) -> str:
    """A block comment holding comments nested ``depth`` deep, then a space."""
    return "/- c " * (depth + 1) + "-/ " * (depth + 1)


def lean_delimited_texts():
    """A hypothesis strategy for texts built from Lean's comment, string,
    char-literal and tactic delimiters, with block comments nested one level
    deeper than ``corpus.code_texts``'s scan follows."""
    from hypothesis import strategies as st

    from leanforge import corpus

    atoms = st.sampled_from([
        "/-", "-/", "--", '"', "'", "\\", "'\"'", "h'", "x''", "\n", "\n  ",
        ":=", "by", ";", "<;>", " ", "a", "rfl", "(", ")", "-", "/",
        "'('", "')'", "'['",
    ])
    filler = st.text(alphabet="ab '\"-/\n", max_size=4)

    def nest(depth_and_fill):
        depth, fill = depth_and_fill
        return ("".join(f + "/-" for f in fill[:depth]) + fill[depth]
                + "".join("-/" + f for f in fill[depth + 1:]))

    nested = st.integers(1, corpus._SCAN_NESTING + 2).flatmap(
        lambda depth: st.tuples(st.just(depth), st.lists(
            filler, min_size=2 * depth + 1, max_size=2 * depth + 1))).map(nest)
    return st.lists(st.one_of(atoms, nested), max_size=20).map("".join)


def reference_divergence(reference: str, candidate: str):
    """The first code or string token where ``candidate`` departs from
    ``reference``, or None: the token comparison ``code_divergence`` made
    before it located a mismatch from code texts. Both texts are lexed whole
    by the per-character lexer, the reference first."""
    from leanforge.corpus import TokenDivergence

    expected = [t for t in reference_lex_lean(reference) if t.kind in SEMANTIC_KINDS]
    tokens = reference_lex_lean(candidate)
    actual = [t for t in tokens if t.kind in SEMANTIC_KINDS]
    for idx in range(max(len(expected), len(actual))):
        want = expected[idx].text if idx < len(expected) else None
        got = actual[idx].text if idx < len(actual) else None
        if want != got:
            if idx < len(actual):
                offset = actual[idx].start
            else:
                offset = tokens[-1].end if tokens else 0
            return TokenDivergence(idx, want, got, offset)
    return None


# --- text-level helpers over the token API ------------------------------------


def strip_comments(source: str) -> str:
    """Remove comment tokens, keeping every other byte in place."""
    return "".join(t.text for t in lex_lean(source) if t.kind not in COMMENT_KINDS)


def semantic_tokens(source: str):
    """Code and string tokens of ``source``, in order."""
    return [t for t in lex_lean(source) if t.kind in SEMANTIC_KINDS]


def lex_or_none(text: str):
    """The text's tokens from the per-character lexer, or None when it does
    not lex."""
    from leanforge.corpus import LexError

    try:
        return reference_lex_lean(text)
    except LexError:
        return None


def lean3_findings(text: str):
    """``detect_lean3_artifacts`` of a text, scanned here when it lexes."""
    from leanforge.corpus import LexError, code_texts, detect_lean3_artifacts

    try:
        code = code_texts(text)
    except LexError:
        code = None
    return detect_lean3_artifacts(text, code)


# --- the token-based prover screen, kept as the reference ----------------------


def reference_lean3_patterns(text: str, tokens) -> List[str]:
    """Lean3 detection as it was when it took a text's tokens (None when the
    text does not lex) and located each finding: the pattern names in the
    order of their offsets."""
    from leanforge.corpus import _LEAN3_IMPORT_ROOTS, _LEAN3_MODULE

    found = []
    if tokens is None:
        for m in re.finditer(r"\bbegin\b", text):
            found.append(("begin-end-block", m.start()))
        for m in re.finditer(r"\bopen_locale\b", text):
            found.append(("open-locale", m.start()))
        for m in re.finditer(r"\bimport\s+([a-z][\w'.]*)", text):
            target = m.group(1)
            root = target.split(".", 1)[0]
            if "." in target or root in _LEAN3_IMPORT_ROOTS:
                found.append(("lean3-import", m.start()))
    else:
        code = [t for t in tokens if t.kind == TokenKind.CODE]
        for pos, tok in enumerate(code):
            if tok.text == "begin":
                found.append(("begin-end-block", tok.start))
            elif tok.text == "open_locale":
                found.append(("open-locale", tok.start))
            elif tok.text == "import" and pos + 1 < len(code):
                target = code[pos + 1].text
                root = target.split(".", 1)[0]
                lowercase = bool(re.match(r"[a-z]", target))
                if (lowercase and _LEAN3_MODULE.match(target)
                        and ("." in target or root in _LEAN3_IMPORT_ROOTS)):
                    found.append(("lean3-import", tok.start))
    found.sort(key=lambda finding: finding[1])
    return [pattern for pattern, _ in found]


def reference_screen_proof(problem, proof: str) -> Optional[str]:
    """``prover.screen_proof`` as it was when the prover lexed each sample
    and its problem's statement into tokens."""
    from leanforge.prover import _PLACEHOLDER

    tokens = lex_or_none(proof)
    patterns = reference_lean3_patterns(proof, tokens)
    if tokens is not None:
        if any(t.kind is TokenKind.CODE and _PLACEHOLDER.search(t.text)
               for t in tokens):
            patterns.append("sorry")
        statement = lex_or_none(problem.fl_statement)
        if statement is not None:
            expected = [t.text for t in statement if t.kind in SEMANTIC_KINDS]
            head = [t.text for t in tokens if t.kind in SEMANTIC_KINDS]
            if head[:len(expected)] != expected:
                patterns.append("statement changed")
    if not patterns:
        return None
    return "pre-verification screen: " + ", ".join(patterns)


def reference_mock_check(answer_key, problem, proof: str) -> Tuple[str, str]:
    """``MockVerifier.check`` as it was when it compared the tokens of the
    proof and of its answer key, for a key that lexes."""
    key = answer_key.get(problem.name)
    if key is None:
        return "rejected", f"no canonical proof known for {problem.name}"
    if lex_or_none(proof) is None:
        return "rejected", "proof does not lex"
    divergence = reference_divergence(key, proof)
    if divergence is None:
        return "verified", ""
    return "rejected", str(divergence)


# --- randomized comment insertion --------------------------------------

_COMMENT_WORDS = ["note", "step", "case", "bound", "expand", "rewrite", "x", "qed"]


def _random_comment_text(rng: random.Random) -> str:
    return " ".join(rng.choices(_COMMENT_WORDS, k=rng.randint(1, 4)))


def token_boundaries(src: str) -> List[int]:
    """Byte offsets at which a comment may be inserted: every token edge."""
    edges = {0, len(src)}
    for tok in lex_lean(src):
        edges.add(tok.start)
        edges.add(tok.end)
    return sorted(edges)


def _pad_left(out: str, pos: int, comment: str) -> str:
    # A separating space stops a `--` opener fusing with a preceding `-` or
    # `/` (e.g. `-` + `--` would lex as one `---` line comment).  Block
    # comments cannot fuse leftward, so they need no padding.
    if comment.startswith("--") and pos > 0 and out[pos - 1] in "-/":
        return " " + comment
    return comment


def insert_comments_reckless(src: str, rng: random.Random, count: int = 3) -> str:
    """Insert block or line comments at arbitrary token boundaries.

    Preserves the semantic token stream (code_divergence finds nothing) but
    may reshape lines, so tactic-step counts are not protected.
    """
    out = src
    for _ in range(count):
        edges = token_boundaries(out)
        pos = rng.choice(edges)
        text = _random_comment_text(rng)
        comment = f"/- {text} -/" if rng.random() < 0.5 else f"-- {text}\n"
        out = out[:pos] + _pad_left(out, pos, comment) + out[pos:]
    return out


def insert_comments_line_respecting(src: str, rng: random.Random, count: int = 3) -> str:
    """Insert comments without disturbing line structure.

    Three forms: an inline block comment (no newline) at a token boundary, a
    trailing line comment just before an existing newline, and a whole
    comment line duplicated onto the indentation of the following line.
    These mirror how commented proofs are actually written, and keep both
    the semantic token stream and tactic-step counts intact.
    """
    out = src
    for _ in range(count):
        form = rng.randint(0, 2)
        text = _random_comment_text(rng)
        if form == 0:
            edges = token_boundaries(out)
            pos = rng.choice(edges)
            out = out[:pos] + _pad_left(out, pos, f"/- {text} -/") + out[pos:]
        elif form == 1 and "\n" in out:
            newlines = [i for i, ch in enumerate(out) if ch == "\n"]
            pos = rng.choice(newlines)
            out = out[:pos] + f" -- {text}" + out[pos:]
        else:
            line_starts = [0] + [i + 1 for i, ch in enumerate(out) if ch == "\n" and i + 1 <= len(out)]
            pos = rng.choice(line_starts)
            rest = out[pos:]
            indent = rest[: len(rest) - len(rest.lstrip(" \t"))]
            if "\n" in indent:
                indent = indent.split("\n")[0]
            out = out[:pos] + f"{indent}-- {text}\n" + out[pos:]
    return out


# --- random Lean-ish source generator -----------------------------------

_ATOMS = ["rfl", "simp", "h₀", "x", "Nat.add_zero", "(a+b)", "[h]", "norm_num", "ring"]


def random_leanish_source(rng: random.Random) -> str:
    """Small random source built from code atoms, strings, and comments."""
    parts: List[str] = []
    for _ in range(rng.randint(1, 12)):
        choice = rng.random()
        if choice < 0.5:
            parts.append(rng.choice(_ATOMS))
        elif choice < 0.65:
            parts.append('"s%d"' % rng.randint(0, 9))
        elif choice < 0.8:
            depth = rng.randint(1, 3)
            body = _random_comment_text(rng)
            comment = body
            for _ in range(depth):
                comment = f"/- {comment} -/"
            parts.append(comment)
        else:
            parts.append(f"-- {_random_comment_text(rng)}\n")
        parts.append(rng.choice([" ", "  ", "\n", "\n  ", " \t"]))
    return "".join(parts)


# --- retrieval oracles --------------------------------------------------------
#
# Written against the loss formula directly (scalar loops, no numpy
# broadcasting) so they share no code paths with the implementation.


def oracle_cosine(x, y) -> float:
    dot = sum(float(a) * float(b) for a, b in zip(x, y))
    nx = math.sqrt(sum(float(a) ** 2 for a in x))
    ny = math.sqrt(sum(float(b) ** 2 for b in y))
    return dot / (nx * ny)


def oracle_contrastive_loss(nl_rows, fl_rows, negatives, weights) -> float:
    """Direct per-pair evaluation of the contrastive objective."""
    rows = [list(map(float, row)) for row in weights]

    def project(vec):
        return [sum(w * float(x) for w, x in zip(row, vec)) for row in rows]

    a = [project(u) for u in nl_rows]
    b = [project(v) for v in fl_rows]
    total = 0.0
    for i, j in enumerate(negatives):
        total += (
            1.0
            - oracle_cosine(a[i], b[i])
            + 0.5 * (oracle_cosine(a[j], b[i]) + oracle_cosine(a[i], b[j]))
        )
    return total / len(nl_rows)


def fd_contrastive_gradient(pairs, head, eps: float = 1e-5):
    """Central finite differences of ``contrastive_loss`` over every weight."""
    base = head.weights
    grad = np.zeros_like(base)
    for r in range(base.shape[0]):
        for c in range(base.shape[1]):
            plus = base.copy()
            plus[r, c] += eps
            minus = base.copy()
            minus[r, c] -= eps
            head_plus = retrieval.ProjectionHead(
                weights=plus, d_in=head.d_in, d_out=head.d_out, seed=head.seed
            )
            head_minus = retrieval.ProjectionHead(
                weights=minus, d_in=head.d_in, d_out=head.d_out, seed=head.seed
            )
            grad[r, c] = (
                contrastive_loss(pairs, head_plus)
                - contrastive_loss(pairs, head_minus)
            ) / (2.0 * eps)
    return grad


def reference_train_projection(pairs, settings, seed: int):
    """``train_projection`` as it ran before it stacked the pairs once and
    projected each batch once: each step stacks its batch and projects it
    for the loss and again for the gradient, which adds rows with
    ``np.add.at``."""
    def gradient(batch, head):
        nl_raw = np.stack([nl for nl, _ in batch])
        fl_raw = np.stack([fl for _, fl in batch])
        a = nl_raw @ head.weights.T
        b = fl_raw @ head.weights.T
        na = np.linalg.norm(a, axis=1)
        nb = np.linalg.norm(b, axis=1)
        size = len(batch)
        j = (np.arange(size) + 1) % size
        d_a = np.zeros_like(a)
        d_b = np.zeros_like(b)

        def accumulate(rows_a, rows_b, coeff):
            av, bv = a[rows_a], b[rows_b]
            nav, nbv = na[rows_a], nb[rows_b]
            inv = 1.0 / (nav * nbv)
            c = np.einsum("ij,ij->i", av, bv) * inv
            g_a = bv * inv[:, None] - (c / nav**2)[:, None] * av
            g_b = av * inv[:, None] - (c / nbv**2)[:, None] * bv
            np.add.at(d_a, rows_a, coeff * g_a)
            np.add.at(d_b, rows_b, coeff * g_b)

        rows = np.arange(size)
        accumulate(rows, rows, -1.0 / size)
        accumulate(j, rows, 0.5 / size)
        accumulate(rows, j, 0.5 / size)
        return d_a.T @ nl_raw + d_b.T @ fl_raw

    d_in = pairs[0][0].shape[0]
    head = retrieval.ProjectionHead.initialize(
        d_in, settings.projection_dim or d_in, seed)
    rng = np.random.default_rng(seed)
    batch_size = min(settings.batch_size, len(pairs))
    trace = []
    for _ in range(settings.steps):
        chosen = rng.choice(len(pairs), size=batch_size, replace=False)
        batch = [pairs[k] for k in chosen]
        loss = contrastive_loss(batch, head)
        grad = gradient(batch, head)
        head.weights = head.weights - settings.lr * grad
        trace.append(loss)
    return head, trace


def cosine_pair_gradient(u, v, head):
    """d cos(Wu, Wv) / dW for a single pair."""
    a = head.project(u)
    b = head.project(v)
    na = float(np.linalg.norm(a))
    nb = float(np.linalg.norm(b))
    assert na > 0.0 and nb > 0.0, "projected vector has zero norm"
    c = float(a @ b) / (na * nb)
    g_a = b / (na * nb) - c * a / (na * na)
    g_b = a / (na * nb) - c * b / (nb * nb)
    return np.outer(g_a, u) + np.outer(g_b, v)


def reference_hash_embed(text: str, dimension: int):
    """One signed one-hot vector per character n-gram (n = 2..4, over
    sentinel-padded text), stacked and mean-pooled."""
    padded = "\x02" + text + "\x03"
    vectors = []
    for n in (2, 3, 4):
        for i in range(len(padded) - n + 1):
            digest = hashlib.sha256(padded[i : i + n].encode("utf-8")).digest()
            values = np.zeros(dimension)
            values[int.from_bytes(digest[:4], "big") % dimension] = (
                1.0 if digest[4] % 2 == 0 else -1.0)
            vectors.append(values)
    return np.stack(vectors).mean(axis=0)


def rotation_matrix(dim: int, rotate_dims: int, angle: float):
    """Rotation acting on the first rotate_dims coordinates, identity beyond."""
    assert rotate_dims % 2 == 0 and rotate_dims <= dim
    out = np.eye(dim)
    c, s = math.cos(angle), math.sin(angle)
    for k in range(0, rotate_dims, 2):
        out[k, k] = c
        out[k, k + 1] = -s
        out[k + 1, k] = s
        out[k + 1, k + 1] = c
    return out


def rotated_pair_corpus(seed: int, count: int, dim: int, rotate_dims: int, angle: float):
    """Aligned (nl, fl) pairs where nl = R @ fl for a fixed rotation R.

    A head that screens out the rotated coordinates makes aligned pairs
    exactly parallel while leaving cross-pair geometry random.
    """
    rng = np.random.default_rng(seed)
    rot = rotation_matrix(dim, rotate_dims, angle)
    pairs = []
    for _ in range(count):
        fl = rng.normal(size=dim)
        fl /= np.linalg.norm(fl)
        nl = rot @ fl
        pairs.append((nl, fl))
    return pairs


class KeyedBackend:
    """A backend whose reply depends only on the request id, which names the
    unit and its attempt, never on call order.

    ``reply(request)`` returns the text or raises. Each reply comes after a
    0-3 ms pause seeded by the request id, so units in flight together
    finish in a shuffled order. ``concurrency`` is what a stage reads from
    its backend. With ``fail_at`` set, that call (counted from 1 over all
    threads) raises an OSError, a fault no stage handles and ``main``
    reports as an error.
    """

    name = "keyed"

    def __init__(self, reply, seed, concurrency=1, fail_at=None):
        self.reply = reply
        self.seed = seed
        self.concurrency = concurrency
        self.fail_at = fail_at
        self.calls = 0
        self._lock = threading.Lock()

    def generate(self, request):
        with self._lock:
            self.calls += 1
            call = self.calls
        if call == self.fail_at:
            raise OSError(f"injected fault at call {call}")
        time.sleep(random.Random(f"{self.seed}:{request.request_id}").uniform(0.0, 0.003))
        return [(self.reply(request), False)] * request.n_samples

    def close(self):
        """Nothing to close."""


# --- runtime objects with the config's defaults ---------------------------------
#
# The library takes every setting from its config section or as a required
# argument; these build its objects with the values of ``BackendSettings()``,
# ``RetrySettings()`` and ``BudgetSettings()``, so no test restates a default.

BACKEND = BackendSettings()


def make_request(prompt, n_samples=1, max_new_tokens=BACKEND.max_new_tokens):
    """A request as a ``Sampler`` with the backend section's defaults sends it."""
    return genclient.GenerationRequest(prompt, max_new_tokens, BACKEND.temperature,
                                       n_samples)


def mock_backend(script=(), default_text=BACKEND.default_text):
    return genclient.MockBackend(script, default_text)


def chat_backend(endpoint, model, **settings):
    """A chat backend on ``endpoint``; ``settings`` are other backend keys."""
    return genclient.ChatCompletionBackend(
        BackendSettings(kind="chat", endpoint=endpoint, model=model, **settings))


def retry_policy(jitter_seed=0, sleep=time.sleep, **settings):
    """A retry policy; ``settings`` are ``backend.retry`` keys."""
    return genclient.RetryPolicy(RetrySettings(**settings), jitter_seed, sleep)


def make_budget(**settings):
    """A budget; ``settings`` are ``backend.budget`` keys."""
    return genclient.GenerationBudget(BudgetSettings(**settings))


def serial_ask(sampler, prompt):
    """The ``ask`` that ``genclient.in_order`` hands a unit of ``prompt`` at
    a backend concurrency of 1: it charges the sampler's budget and is never
    halted."""
    return genclient.Ask(sampler, prompt, genclient._Halt())


def make_sampler(backend, retry=None, budget=None, max_new_tokens=BACKEND.max_new_tokens):
    """A sampler with the backend section's retry policy and temperature,
    charging ``budget``, or a budget with no ceiling."""
    return genclient.Sampler(backend, retry or retry_policy(), budget or make_budget(),
                             max_new_tokens, BACKEND.temperature)


def contrastive_loss(pairs, head):
    """The contrastive loss of a batch of ``(nl, fl)`` pairs, by the rule
    ``retrieval.train_projection`` descends."""
    return retrieval._loss(_batch_rows(pairs, head), retrieval._ring(len(pairs)))


def contrastive_gradient(pairs, head):
    """The analytic gradient ``retrieval.train_projection`` steps along."""
    return retrieval._gradient(_batch_rows(pairs, head), retrieval._ring(len(pairs)))


def _batch_rows(pairs, head):
    return retrieval._projected_rows(np.stack([nl for nl, _ in pairs]),
                                     np.stack([fl for _, fl in pairs]), head)


# --- example retrieval ------------------------------------------------------------


def example_pool(count):
    return [
        PoolExample(
            name=f"ex{i}",
            nl=f"Statement: fact number {i}. Proof: by arithmetic {i}.",
            fl=f"theorem ex{i} : {i} + 0 = {i} := by norm_num",
        )
        for i in range(count)
    ]


def example_index(pool, side, embedder):
    """An ``ExampleIndex`` over the ``side`` ("nl" or "fl") texts of
    ``pool``, under the identity head of ``embedder.dimension``, so that it
    ranks by the cosine of the embeddings themselves."""
    d = embedder.dimension
    return retrieval.ExampleIndex(
        pool, [p.nl if side == "nl" else p.fl for p in pool], embedder,
        retrieval.ProjectionHead(np.eye(d), d, d, seed=0))
