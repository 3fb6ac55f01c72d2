"""Seeded synthetic inputs for the benchmark workloads.

Every function here is a pure function of its seed and size arguments, so
one seed always yields byte-identical files. The Lean4 sources carry the
lexer features Mathlib files use: tactic blocks of varied length, nested
`/- -/` and `/-- -/` comments, `--` comments, string and char literals
(including '"'), primed names, `<;>` and unicode. Declarations hidden in
comments and strings must not be extracted.

Next to the files the generator returns an oracle: the theorem names per
file, the exact proof text `extract` must slice out, and the corpus size in
bytes (the base of the lexer amplification count).
"""

import json
import os
import random
import re
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

# Section markers of the program's prompt format. They are part of the wire
# contract a remote model sees, so the stand-ins below key on them.
NL_SECTION = "### Natural language version of theorem and proof:"
FL_STATEMENT_SECTION = "### Lean4 version of theorem statement:"
FL_PROOF_SECTION = "### Lean4 version of theorem and proof:"
COMMENTED_SECTION = "### Commented Lean4 version of theorem and proof:"

# Token an accepted proof must contain; the shell verifier greps for it.
PROOF_MARKER = "bench_verified"

_WORDS = (
    "bound sum term index square root prime divisor sequence limit order "
    "monotone interval inequality identity factor product residue modulus "
    "parity integer rational real natural lemma case step base induction "
    "hypothesis goal rewrite simplify expand cancel compare estimate split "
    "triangle convex positive negative zero one successor predecessor "
    "finite set range image preimage function injective surjective map "
    "group ring field ideal unit norm absolute value power exponent log"
).split()

_VARS = ("a", "b", "x", "y", "n", "m", "k")
_HYPS = ("h", "h'", "hab", "h₀", "hx", "hn'")

_TACTICS = (
    "intro {h}",
    "simp only [Nat.add_comm, Nat.mul_comm] at {h} ⊢",
    "rw [Nat.add_assoc, ← Nat.succ_le_iff] at {h}",
    "omega",
    "constructor <;> simp",
    "exact {h}",
    "apply Nat.le_trans {h} (Nat.le_refl _)",
    "have {h}₁ : {a} ≤ {a} + 1 := Nat.le_succ {a}",
    "norm_num [Finset.sum_range_succ]",
    "linarith [{h}, sq_nonneg ({a} - {b})]",
    'have hs : "a;b".length = 3 := by decide',
    "have hc : '\"' ≠ 'x' := by decide",
    "refine ⟨?_, ?_⟩ <;> positivity",
    "obtain ⟨j, hj⟩ := {h}",
    "ring_nf; simp",
    "field_simp [{h}]",
    "nlinarith [mul_pos {h} {h}, sq_nonneg ({a} + {b})]",
    "calc {a} ≤ {b} := {h}\n    _ ≤ {b} + 0 := by simp",
    "· simp at {h}\n    exact {h}",
)


def _words(rng: random.Random, lo: int, hi: int) -> str:
    return " ".join(rng.choice(_WORDS) for _ in range(rng.randint(lo, hi)))


def nl_text(rng: random.Random, words: int) -> str:
    """An informal text that passes the program's quality screen."""
    return ("Statement: " + _words(rng, words, words) + ".\nProof: "
            + _words(rng, words, words) + ".")


def _dealt(rng: random.Random, lo: int, hi: int, count: int) -> List[int]:
    """`count` values spread evenly over [lo, hi], in seeded order.

    Dealing sizes instead of drawing them keeps the total work of a corpus
    the same for every seed; only which theorem gets which size changes.
    """
    values = [lo + (i * (hi - lo + 1)) // count for i in range(count)]
    rng.shuffle(values)
    return values


@dataclass(frozen=True)
class Shape:
    """Size knobs for one generated corpus."""

    theorems: int
    per_file: int
    steps: Tuple[int, int]      # tactic lines per proof
    comment_share: float        # chance of a comment before a tactic line
    nl_words: Tuple[int, int]   # words in each section of the informal text


@dataclass
class Theorem:
    name: str
    keyword_text: str  # the proof `extract` slices: keyword to last proof token
    nl: str


@dataclass
class Corpus:
    files: Dict[str, str] = field(default_factory=dict)
    theorems: List[Theorem] = field(default_factory=list)
    names_by_file: Dict[str, List[str]] = field(default_factory=dict)

    @property
    def total_bytes(self) -> int:
        return sum(len(text.encode("utf-8")) for text in self.files.values())


def _theorem(rng: random.Random, name: str, steps: int, words: int,
             shape: Shape) -> Tuple[str, Theorem]:
    """One declaration: the text to place in the file and its oracle entry."""
    a, b = rng.sample(_VARS, 2)
    h = rng.choice(_HYPS)
    keyword = rng.choice(("theorem", "theorem", "lemma"))
    statement = (f"{keyword} {name} ({a} {b} : ℕ) ({h} : {a} ≤ {b}) :\n"
                 f"    {a} + 0 ≤ {b} + 0 := by")
    lines = [statement]
    for step in range(steps):
        if rng.random() < shape.comment_share:
            kind = rng.random()
            if kind < 0.6:
                lines.append("  -- " + _words(rng, 3, 9))
            else:
                lines.append("  /- " + _words(rng, 2, 6) + " /- nested "
                             + _words(rng, 1, 4) + " -/\n     "
                             + _words(rng, 2, 5) + " -/")
        tactic = rng.choice(_TACTICS).format(a=a, b=b, h=h)
        if step < steps - 1 and rng.random() < 0.2:
            tactic += "  -- " + _words(rng, 2, 5)
        lines.append("  " + tactic)
    body = "\n".join(lines)
    doc = "/-- " + _words(rng, 4, 10)
    if rng.random() < 0.3:
        doc += " /- aside: " + _words(rng, 2, 4) + " -/"
    doc += " -/\n"
    prefix = "private " if rng.random() < 0.1 else ""
    nl = nl_text(rng, words)
    return doc + prefix + body, Theorem(name, body, nl)


def make_corpus(seed: int, shape: Shape, label: str) -> Corpus:
    """A tree of .lean files plus the oracle for `extract`."""
    rng = random.Random(f"{label}:{seed}")
    steps = _dealt(rng, *shape.steps, shape.theorems)
    words = _dealt(rng, *shape.nl_words, shape.theorems)
    corpus = Corpus()
    made = 0
    file_index = 0
    while made < shape.theorems:
        path = f"Bench/File{file_index:03d}.lean"
        parts = [
            "import Mathlib.Data.Nat.Basic\n",
            "-- theorem not_extracted_line : True := trivial\n",
            f"namespace Bench{file_index}\n",
            "open Nat Finset\n",
            f"/- theorem not_extracted_block_{file_index} : True := trivial\n"
            "   /- nested: lemma also_hidden : 1 = 1 := rfl -/ -/\n",
            f"def helper{file_index}' (n : ℕ) : ℕ := n + 1\n",
            '#check "theorem not_in_string : True"\n',
        ]
        names = []
        for _ in range(min(shape.per_file, shape.theorems - made)):
            name = f"{rng.choice(_WORDS)}_{rng.choice(_WORDS)}_{made}"
            if rng.random() < 0.25:
                name += "'"
            text, theorem = _theorem(rng, name, steps[made], words[made], shape)
            parts.append("\n" + text + "\n")
            corpus.theorems.append(theorem)
            names.append(name)
            made += 1
        parts.append(f"\nend Bench{file_index}\n")
        corpus.files[path] = "".join(parts)
        corpus.names_by_file[path] = names
        file_index += 1
    return corpus


def write_corpus(corpus: Corpus, root: str) -> None:
    for path, text in corpus.files.items():
        full = os.path.join(root, path)
        os.makedirs(os.path.dirname(full), exist_ok=True)
        with open(full, "w", encoding="utf-8", newline="\n") as sink:
            sink.write(text)


def write_jsonl(path: str, entries) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as sink:
        for entry in entries:
            sink.write(json.dumps(entry, ensure_ascii=False) + "\n")


# --- model replies -------------------------------------------------------------


def comment_proof(proof: str, nl: str) -> str:
    """Interleave `--` lines holding NL words before the tactic lines.

    Only whole lines are inserted, at the proof's base indentation, so the
    code token stream is untouched (a line landing inside a block comment is
    comment text there).
    """
    words = nl.replace("\n", " ").split()
    out = []
    for i, line in enumerate(proof.split("\n")):
        if i > 0 and re.match(r"  \S", line) and not line.startswith("  -"):
            chunk = words[(3 * i) % len(words):][:5] or words[:5]
            out.append("  -- " + " ".join(chunk))
        out.append(line)
    return "\n".join(out)


def corrupt(commented: str) -> str:
    """A reply that changes the code: verification must reject it."""
    return commented + "\n  sorry"


def informal_reply(nl: str, attempt: int, failures: int) -> str:
    """The first `failures` replies miss the Proof section and are re-queried."""
    if attempt < failures:
        return nl.split("\nProof:")[0]
    return nl


# Shares of theorems whose first informal reply fails the quality screen, whose
# every informal reply fails, and whose first commented proof changes the code.
INFORMAL_RETRY_SHARE = 0.15
INFORMAL_FAIL_SHARE = 0.05
BOOTSTRAP_RETRY_SHARE = 0.10


def reply_plan(seed: int, theorems: List[Theorem], max_attempts: int) -> Dict[str, dict]:
    """Per theorem: its informal text and how many leading informal and
    bootstrap replies are bad. The counts are dealt, so every seed makes
    the same number of requests."""
    rng = random.Random(f"plan:{seed}")
    n = len(theorems)
    fail_all = round(INFORMAL_FAIL_SHARE * n)
    retry = round(INFORMAL_RETRY_SHARE * n)
    informal = [max_attempts] * fail_all + [1] * retry + [0] * (n - fail_all - retry)
    rng.shuffle(informal)
    passing = n - fail_all
    boot = round(BOOTSTRAP_RETRY_SHARE * passing)
    bootstrap = [1] * boot + [0] * (passing - boot)
    rng.shuffle(bootstrap)
    plan = {}
    for t, failures in zip(theorems, informal):
        bad = bootstrap.pop() if failures < max_attempts else 0
        plan[t.name] = {"nl": t.nl, "informal_failures": failures, "bootstrap_failures": bad}
    return plan


def mock_script(theorems: List[Theorem], plan: Dict[str, dict], max_attempts: int) -> list:
    """Two rules whose `responses` lists are consumed in call order.

    Informalize requests arrive theorem by theorem, attempt by attempt;
    bootstrap requests then arrive for the theorems that passed, in the same
    order. The lists replay exactly that sequence.
    """
    informal, commented = [], []
    for t in theorems:
        failures = plan[t.name]["informal_failures"]
        for attempt in range(min(failures + 1, max_attempts)):
            informal.append(informal_reply(t.nl, attempt, failures))
        if failures >= max_attempts:
            continue
        good = comment_proof(t.keyword_text, t.nl)
        commented += [corrupt(good)] * plan[t.name]["bootstrap_failures"] + [good]
    return [
        {"pattern": COMMENTED_SECTION, "responses": commented},
        {"pattern": FL_STATEMENT_SECTION, "responses": informal},
    ]


# --- prover problems -----------------------------------------------------------

NEVER = 1 << 30

# First correct sample per problem, dealt to the problems by the seed. A fixed
# multiset makes every seed cost the same samples and verifier calls; with 8
# samples and 2 rounds it proves 11 of 14 problems for 116 samples.
FIRST_CORRECT = (0, 0, 1, 2, 3, 4, 6, 7, 9, 11, 14, NEVER, NEVER, NEVER)

# What a wrong sample looks like, by sample index: a proof the verifier
# rejects, a reply with no theorem header, or Lean3 syntax the program
# screens out before verification.
_WRONG = ("rejected", "rejected", "no-header", "rejected", "lean3")


def schedule(seed: int, names: List[str]) -> Dict[str, int]:
    """Index of the first correct sample the stub serves, per problem."""
    order = list(FIRST_CORRECT)
    random.Random(f"schedule:{seed}").shuffle(order)
    return {name: order[i % len(order)] for i, name in enumerate(names)}


def problem_statement(name: str, index: int) -> str:
    return f"theorem {name} (a b : ℕ) (h : a ≤ b) : a ≤ b + {index} :="


def prove_reply(statement: str, sample: int, first_correct: int) -> str:
    """Reply for the `sample`-th request about a problem."""
    if sample >= first_correct:
        return f"```lean\n{statement} by\n  omega\n  exact {PROOF_MARKER}\n```\n"
    wrong = _WRONG[sample % len(_WRONG)]
    if wrong == "rejected":
        return f"```lean\n{statement} by\n  omega\n```\n"
    if wrong == "no-header":
        return "I could not find a proof of this statement."
    return f"```lean\n{statement}\nbegin\n  simp,\nend\n```\n"


def predict_prove(first_correct: Dict[str, int], n_samples: int,
                  max_rounds: int) -> Tuple[List[str], int]:
    """Proved names and samples charged, replaying the prover's rounds.

    A problem still open in round r has drawn (r - 1) * n_samples samples
    before it, so the stub's per-problem counter continues from there.
    """
    proved, charged = [], 0
    open_names = list(first_correct)
    for round_index in range(max_rounds):
        newly = []
        for name in open_names:
            left = first_correct[name] - round_index * n_samples
            if left < n_samples:
                charged += left + 1
                newly.append(name)
            else:
                charged += n_samples
        proved += newly
        open_names = [n for n in open_names if n not in newly]
        if not newly:
            break
    return sorted(proved), charged


def make_problems(seed: int, count: int) -> List[dict]:
    rng = random.Random(f"problems:{seed}")
    problems = []
    for index in range(count):
        name = f"prob_{rng.choice(_WORDS)}_{index}"
        problems.append({
            "name": name,
            "fl_statement": problem_statement(name, index),
            "nl_statement_and_proof": nl_text(rng, 12),
            "imports": "import Mathlib",
        })
    return problems


def make_seed_examples(seed: int, count: int) -> List[dict]:
    rng = random.Random(f"seeds:{seed}")
    return [
        {
            "name": f"seed_{i}",
            "nl": nl_text(rng, 11),
            "fl": problem_statement(f"seed_{i}", i) + " by\n  omega",
        }
        for i in range(count)
    ]
