"""Lean4 source handling: lexing, theorem extraction, tactic-step counting,
and Lean3-artifact detection.

Everything here is a pure text transformation. No Lean toolchain is invoked;
sources are treated as token streams, never elaborated, and no token object
is built. A text is scanned into the items of ``_PROOF_SCAN``, which tile it
in three columns, whitespace, comment and token: ``_proof_items`` is one
``findall``, and ``_walk``, the one fallback, continues that scan past a
block comment nested deeper than ``_SCAN_NESTING``, which it gives as one
comment item. ``lex_lean`` is the walk's items as a list; no stage calls it.
``code_texts`` gives only the token column, from one ``findall`` of
``_CODE_SCAN`` or, past a deeper comment, from the walk, and raises what
``_walk`` raises; ``code_divergence`` (the rule that two texts carry the
same code) and Lean3 detection work from those texts, and a mismatch is
located by summing item lengths. ``_steps`` counts a proof's tactic steps
from its items: ``code_and_steps`` gives a proof's code texts and that
count, and ``extract_theorems`` finds a file's declarations in the items
of the file's one scan and counts each from its own slice of them.
Everywhere, as in Lean, a comment separates tokens and is otherwise
ignored. Offsets are character offsets: ``str`` indices, not UTF-8 byte
positions.
"""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass
from typing import Iterator, List, NamedTuple, Optional, Sequence, Tuple

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
# An ASCII letter, digit or _'!?, or any other character of the BMP; the
# negated class compiles fast, where a \x80-\uffff range takes milliseconds.
_IDENT_TAIL = r"(?:[A-Za-z0-9_'!?]|[^\x00-\x7f\U00010000-\U0010ffff])"


class LexError(ValueError):
    """A string literal or block comment that never closes; ``offset`` is
    the character offset where it opens."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


@dataclass(frozen=True)
class TokenDivergence:
    """First point where two semantic token streams disagree.

    ``expected`` is the token from the reference stream, ``actual`` the token
    from the candidate stream; either may be None when one stream ran out.
    ``offset`` is the character offset of the diverging token in the
    candidate text (or its length when the candidate ran out).
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


# The sub-patterns of a token, each declared once: the scans of ``code_texts``
# and ``_proof_items`` are built from them. A code run stops at whitespace, a
# double quote or a comment opener; a char literal inside it is taken whole
# (so `'"'` opens no string), except after an identifier character, where `'`
# is a prime (h').
_WHITESPACE = r"[ \t\r\n]+"
_LINE_COMMENT = r"--[^\n]*"
_STRING = r'"[^"\\]*(?:\\[\s\S][^"\\]*)*"'
_CHAR_TOKEN = f"(?<!{_IDENT_TAIL}){_CHAR_LITERAL}"  # a char literal, not a prime
_CODE_CHARS = r"[^ \t\r\n\"'/-]+|-(?!-)|/(?!-)"  # code other than a quote
_CODE_RUN = f"(?:{_CODE_CHARS}|{_CHAR_TOKEN}|')+"


def _block_comment(nesting: int) -> str:
    """A block comment holding comments nested at most ``nesting`` deep."""
    inner = r"/(?!-)|-(?!/)"
    if nesting:
        inner += "|" + _block_comment(nesting - 1)
    return r"/-[^/-]*(?:(?:" + inner + r")[^/-]*)*-/"


# Every scan below matches block comments nested this deep inside a block
# comment. A deeper one, or a comment or string that never closes, leaves a
# bare `/-` or `"` token, which no string literal or code run can be:
# ``_walk`` continues the scan past such a comment (or raises), and every
# other scan falls back to ``_walk``. ``re`` compiles the scans on first use
# and keeps them.
_SCAN_NESTING = 2

# One item per token, its text in one of three columns: (whitespace, "", ""),
# ("", a comment, "") or ("", "", a string literal or a code run); the bare
# `/-` or `"` of a deeper comment or an open string is a token. Some
# alternative matches at every position, so the items tile the text.
_PROOF_SCAN = (f"({_WHITESPACE})|({_LINE_COMMENT}|{_block_comment(_SCAN_NESTING)})"
               f'|({_STRING}|{_CODE_RUN}|/-|")')
_COMMENT_DELIMITER = re.compile(r"/-|-/")


def _walk(source: str) -> Iterator[Tuple[str, str, str]]:
    """The ``_PROOF_SCAN`` items that tile ``source``, in order: those of
    ``re.findall(_PROOF_SCAN, source)``, with a comment nested deeper than
    ``_SCAN_NESTING`` followed in place and given as one comment item.
    Raises ``LexError`` where a literal or a comment never closes."""
    pos = 0
    while True:
        for m in re.compile(_PROOF_SCAN).finditer(source, pos):
            token = m[3]
            if token != "/-" and token != '"':
                yield m.groups("")
                continue
            start = m.start()
            if token == '"':
                raise LexError("unterminated string literal", start)
            pos = _nested_comment_end(source, start)
            yield "", source[start:pos], ""
            break
        else:
            return


def lex_lean(source: str) -> List[Tuple[str, str, str]]:
    """The ``_walk`` items of ``source``, as a list. No stage calls it: every
    scan follows a deeper comment with ``_walk`` itself."""
    return list(_walk(source))


def _nested_comment_end(source: str, start: int) -> int:
    """End of the block comment opened at ``start``, counting nested openers."""
    depth = 0
    pos = start
    while True:
        m = _COMMENT_DELIMITER.search(source, pos)
        if m is None:
            raise LexError("unterminated block comment", start)
        depth += 1 if m.group() == "/-" else -1
        pos = m.end()
        if depth == 0:
            return pos


def _proof_items(text: str) -> Tuple[List[Tuple[str, str, str]], List[str]]:
    """The ``_PROOF_SCAN`` items of ``text``, whose columns joined are
    ``text``, and their token column, which is ``code_texts(text)``: from
    one ``findall`` or, past a deeper comment, from ``_walk``. Raises what
    ``_walk`` raises."""
    items = re.findall(_PROOF_SCAN, text)
    code = [token for _, _, token in items if token]
    if "/-" in code or '"' in code:
        items = list(_walk(text))
        code = [token for _, _, token in items if token]
    return items, code


# One group per string literal or code run; whitespace and comments match
# outside it, so ``findall`` gives them as empty items.
_CODE_SCAN = (f"(?:{_WHITESPACE}|{_LINE_COMMENT}|{_block_comment(_SCAN_NESTING)})"
              f'|({_STRING}|{_CODE_RUN}|/-|")')


def code_texts(text: str) -> List[str]:
    """The texts of the code and string-literal tokens of ``text``, in order:
    the token column of its ``_walk`` items, from one ``findall`` that
    builds no item, and the walk's own column past a deeper comment. Raises
    what ``_walk`` raises."""
    texts = list(filter(None, re.findall(_CODE_SCAN, text)))
    if "/-" in texts or '"' in texts:
        return [token for _, _, token in _walk(text) if token]
    return texts


def code_divergence(
    reference: str, candidate: str, code: Optional[List[str]] = None
) -> Optional[TokenDivergence]:
    """None when ``candidate`` carries the code of ``reference`` exactly,
    else the first point where it does not.

    ``code`` is ``code_texts(reference)``, which callers that check one
    reference many times compute once and pass. Comments and whitespace are
    free; code and string-literal tokens must match in content and order,
    and a text that does not lex raises ``LexError``. A mismatch is located
    by summing the lengths of ``candidate``'s items up to its diverging
    token.
    """
    if code is None:
        code = code_texts(reference)
    texts = code_texts(candidate)
    if texts == code:
        return None
    index = next((i for i, (a, b) in enumerate(zip(code, texts)) if a != b),
                 min(len(code), len(texts)))
    if index == len(texts):  # the candidate ran out
        return TokenDivergence(index, code[index], None, len(candidate))
    expected = code[index] if index < len(code) else None
    offset = seen = 0
    for space, comment, token in _proof_items(candidate)[0]:
        if token:
            if seen == index:
                break
            seen += 1
        offset += len(space) + len(comment) + len(token)
    return TokenDivergence(index, expected, texts[index], offset)


# --- theorem extraction -----------------------------------------------------

_OPEN_BRACKETS = "([{⦃"  # ( [ { ⦃
_CLOSE_BRACKETS = ")]}⦄"
_CHAR_TOKEN_RE = re.compile(_CHAR_TOKEN)


def _bracket_delta(text: str) -> int:
    """Open minus close brackets in ``text``, a code token; as in the lexer,
    a char literal is one atom, so a bracket in one counts for nothing."""
    if "'" in text:
        text = _CHAR_TOKEN_RE.sub("", text)
    delta = 0
    for ch in text:
        if ch in _OPEN_BRACKETS:
            delta += 1
        elif ch in _CLOSE_BRACKETS:
            delta -= 1
    return delta


def _leading_word(text: str) -> str:
    m = re.match(r"[#\w]+", text)
    return m.group(0) if m else text[:1]


_NAME_STOP = ":({[⦃⟨"


def _name_from_token(text: str) -> str:
    for idx, ch in enumerate(text):
        if ch in _NAME_STOP:
            return text[:idx]
    return text


class _Declaration(NamedTuple):
    """A ``theorem`` or ``lemma`` declaration of a file, as ``_declarations``
    finds it. ``name`` is "" when the keyword has no name token before the
    next declaration; ``statement_end`` is None when there is no ``:=`` at
    bracket depth zero; the proof is empty when ``proof_end`` does not pass
    ``statement_end``. ``steps`` is ``_steps`` of the proof's items, its
    slice of the file's ``_proof_items``: the count ``code_and_steps``
    gives ``source[start:proof_end]``."""

    start: int  # offset of the keyword
    name: str
    statement_end: Optional[int]
    proof_end: int
    steps: int


def extract_theorems(source: str, file_path: str, commit: str) -> List[TheoremRecord]:
    """Pull top-level ``theorem``/``lemma`` declarations out of a Lean4 file.

    Declarations that appear inside comments or strings are ignored.  A header
    without a name, without a ``:=`` proof boundary or with an empty proof is
    skipped with a log entry rather than raised, so one malformed declaration
    cannot sink a file. A file that does not lex raises ``LexError``.

    A record's ``difficulty`` is its proof's step count by the rule of
    ``code_and_steps``, read from the items of the file's one scan.
    """
    records: List[TheoremRecord] = []
    for start, name, statement_end, proof_end, steps in _declarations(source):
        if not name:
            logger.warning("skipping malformed declaration at offset %d in %s: no name",
                           start, file_path)
            continue
        if statement_end is None:
            logger.warning("skipping malformed declaration %r at offset %d in %s: "
                           "no proof boundary", name, start, file_path)
            continue
        if proof_end <= statement_end:
            logger.warning("skipping malformed declaration %r at offset %d in %s: "
                           "empty proof body", name, start, file_path)
            continue
        records.append(TheoremRecord(name, source[start:statement_end],
                                     source[start:proof_end], file_path, commit, steps))
    return records


# What ``_declarations`` looks for next in an open declaration.
_NAME, _ASSIGN, _BY, _BODY = range(4)


def _declarations(source: str) -> List[_Declaration]:
    """The declarations of ``source``, from its ``_proof_items``; raises the
    ``LexError`` that ``_walk`` raises.

    A declaration opens at a ``theorem`` or ``lemma`` token that begins its
    line, or that follows a modifier that does with only modifiers,
    comments and spaces between. It runs to the next boundary: a ``/--``
    comment, an ``@[`` token or a declaration keyword at column zero.
    Top-level declarations in Mathlib-style sources are unindented even
    inside namespaces; indented ones are nested and out of scope. The name
    is the next code token, up to a binder. The statement runs through the
    first ``:=`` at bracket depth zero, and through a ``by`` right after it;
    the proof ends at the last code or string token, so trailing comments
    are not swallowed. Its steps are ``_steps`` of its items and their code
    column, sliced from the file's.
    """
    items, code = _proof_items(source)
    found: List[_Declaration] = []

    def close() -> _Declaration:
        return _Declaration(start, name, statement_end, proof_end, _steps(
            items[first:last + 1], code[code_first:code_last + 1]))

    first = None  # the keyword's item of the open declaration
    lead = False  # a modifier began this line, then only modifiers and spacing
    line_start = True  # the item begins a line
    end = 0  # the offset where the item ends
    at = -1  # the token's index in ``code``
    for i, (space, comment, token) in enumerate(items):
        if space:
            end += len(space)
            if lead and "\n" in space:
                lead = False
            line_start = space[-1] == "\n"
            continue
        at_line, line_start = line_start, False
        if comment:
            if first is not None and at_line and comment.startswith("/--"):
                found.append(close())
                first = None
            end += len(comment)
            continue
        begin = end
        end += len(token)
        at += 1
        if first is not None:
            if not (at_line and (token.startswith("@[")
                                 or _leading_word(token) in _DECL_BOUNDARY_KEYWORDS)):
                if phase == _NAME:
                    name = "" if token[0] == '"' else _name_from_token(token)
                    depth = _bracket_delta(token[len(name):])
                    phase = _ASSIGN if name else _BODY
                elif phase == _ASSIGN:
                    if depth == 0 and token == ":=":
                        statement_end = end
                        phase = _BY
                    elif token[0] != '"':
                        depth += _bracket_delta(token)
                elif phase == _BY:
                    if token == "by":
                        statement_end = end
                    phase = _BODY
                last, code_last, proof_end = i, at, end
                continue
            found.append(close())
            first = None
        if token == "theorem" or token == "lemma":
            if lead or at_line:
                first = last = i
                code_first = code_last = at
                start, proof_end = begin, end
                name, statement_end, phase = "", None, _NAME
            lead = False
        elif token in _DECL_MODIFIERS:
            lead = lead or at_line
        else:
            lead = False
    if first is not None:
        found.append(close())
    return found


# --- tactic-step counting ---------------------------------------------------


def code_and_steps(proof: str) -> Tuple[List[str], int]:
    """The ``code_texts`` of ``proof`` and its tactic-step count, from one
    scan of ``proof``; raises what ``code_texts`` raises.

    The proof is either a full declaration, a fragment starting at ``:=``, or
    a bare tactic block.  Steps are separated by newlines at the block's base
    indentation or by `;`; a term-mode proof counts as one step. As in Lean,
    a comment separates tokens and is otherwise ignored, so commenting a
    proof between its tokens never changes its count.

    The code texts are the token column of ``_proof_items``, and the count
    is ``_steps`` of its items, the rule ``extract_theorems`` counts by.
    """
    items, code = _proof_items(proof)
    return code, _steps(items, code)


def _steps(items: List[Tuple[str, str, str]], code: List[str]) -> int:
    """The tactic-step count of a proof from its ``_proof_items``: the first
    ``:=`` at bracket depth zero and the token after it are found in the
    token column, and the block after a ``by`` is read from the items
    (``_tactic_text``)."""
    if not code:
        return 0  # only comments and whitespace
    depth = 0
    at = item = -1  # the last `:=` passed, in ``code`` and in ``items``
    for _ in range(code.count(":=")):
        passed = at + 1
        at = code.index(":=", passed)
        item = items.index(("", "", ":="), item + 1)
        # a newline ends any char literal, so the tokens count as one text
        depth += _bracket_delta("\n".join(
            [token for token in code[passed:at] if token[0] != '"']))
        if depth == 0:
            if code[at + 1:at + 2] != ["by"]:
                return 1  # a term-mode proof
            body = items.index(("", "", "by"), item) + 1
            return _block_steps(_tactic_text(items[body:]))

    # No `:=`: a leading `by` marks a tactic block, otherwise we treat the
    # whole text as tactic lines (the fragment form used by callers).
    if code[0] == "by":
        return _block_steps(_tactic_text(items[items.index(("", "", "by")) + 1:]))
    return _block_steps(_tactic_text(items))


def _tactic_text(items: List[Tuple[str, str, str]]) -> str:
    """The tactic text of a block from its ``_proof_items``: its whitespace
    and tokens, each token as ``_tactic_token`` gives it, and its comment
    column left out. Each token is read on its own, so a `<` and a `;>`
    that a comment separates stay a `<` and a `;`."""
    return "".join([
        space or token and (_tactic_token(token) if "'" in token or "<;>" in token
                            or token[0] == '"' else token)
        for space, _, token in items])


def _tactic_token(token: str) -> str:
    """A code or string token as a tactic text holds it: each string or
    char literal cut to its opening quote, so a newline inside one starts no
    line and no `;` is left in one, and each `<;>` made `_`. ``_tactic_text``
    passes a token with no quote and no `<;>` on as it is."""
    if token[0] == '"':
        return '"'
    if "'" in token:
        token = _CHAR_TOKEN_RE.sub("'", token)
    return token.replace("<;>", "_")


def _split_tactic_segments(line: str) -> int:
    """Number of `;`-separated tactic segments on one line of a tactic text,
    which holds no literal and no `<;>` combinator (``_tactic_token``)."""
    if ";" not in line:
        return 1 if line.strip() else 0
    return sum(1 for part in line.split(";") if part.strip())


def _block_steps(tactic_text: str) -> int:
    """The step count of a tactic block from its tactic text: the segments
    of its first line and of each line at the base indentation of the lines
    after it, and at least 1."""
    lines = tactic_text.split("\n")
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
    return max(1, steps)


# --- Lean3 artifact detection -------------------------------------------


_LEAN3_MODULE = re.compile(r"[a-z][A-Za-z0-9_']*(\.[A-Za-z0-9_']+)*$")


def detect_lean3_artifacts(text: str, code: Optional[Sequence[str]]) -> List[str]:
    """Flag Lean3 leftovers: begin/end tactic blocks, Lean3-style imports,
    and open_locale commands. Returns the names of the patterns found, in
    text order.

    ``code`` is the text's ``code_texts``, or None when the text does not
    lex; unlexable text falls back to a regex scan.
    """
    if code is None:
        return _detect_lean3_raw(text)

    findings: List[str] = []
    tokens = [t for t in code if t[0] != '"']  # a string literal starts with `"`
    for pos, tok in enumerate(tokens):
        if tok == "begin":
            findings.append("begin-end-block")
        elif tok == "open_locale":
            findings.append("open-locale")
        elif tok == "import" and pos + 1 < len(tokens):
            target = tokens[pos + 1]
            root = target.split(".", 1)[0]
            if _LEAN3_MODULE.match(target) and ("." in target or root in _LEAN3_IMPORT_ROOTS):
                findings.append("lean3-import")
    return findings


def _detect_lean3_raw(text: str) -> List[str]:
    found = [(m.start(), "begin-end-block") for m in re.finditer(r"\bbegin\b", text)]
    found += [(m.start(), "open-locale") for m in re.finditer(r"\bopen_locale\b", text)]
    for m in re.finditer(r"\bimport\s+([a-z][\w'.]*)", text):
        target = m.group(1)
        root = target.split(".", 1)[0]
        if "." in target or root in _LEAN3_IMPORT_ROOTS:
            found.append((m.start(), "lean3-import"))
    return [pattern for _, pattern in sorted(found)]
