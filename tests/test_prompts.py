"""The prompt layer: training instructions equal proving prompts, every
prompt's section layout, one over-budget rule for both, and guards that
section markers live in one module and that the prover needs no
training-set module."""

import ast
import os
import subprocess
import sys
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import leanforge
from leanforge.prompts import (
    COMMENT_INSTRUCTION,
    COMMENTED_SECTION,
    FL_PROOF_SECTION,
    FL_STATEMENT_SECTION,
    NL_SECTION,
    PromptCounter,
    PromptExceedsBudget,
    bootstrap_prompt,
    example_block,
    informalization_prompt,
    proof_prompt,
)
from leanforge.config import PrepSettings
from leanforge.prover import (
    PoolExample,
    Problem,
    assemble_proof_prompt,
)
from leanforge.trainprep import (
    PackSource,
    VocabTokenizer,
    WhitespaceTokenizer,
    counted_blocks,
    emit_training_set,
    pack_block,
)

SOURCE_DIR = os.path.dirname(leanforge.__file__)

# (example (nl, fl) pairs in prompt order, open record's nl, its statement)
SAME_LAYOUT_CASES = {
    "plain": (
        [("Statement: p. Proof: trivial.", "theorem e0 : True := by\n  trivial"),
         ("Statement: q. Proof: simp.", "theorem e1 : 1 = 1 := by\n  simp")],
        "Statement: r. Proof: rfl.",
        "theorem goal : 2 = 2 :=",
    ),
    "surrounding-newlines": (
        [("Statement: p. Proof: trivial.\n", "theorem e0 : True := by\n  trivial\n"),
         ("\n\nStatement: q.  \n", "\ntheorem e1 : 1 = 1 := by\n  simp\n\n")],
        "Statement: r. Proof: rfl.",
        "theorem goal : 2 = 2 :=",
    ),
    "literal-markers": (
        [("Statement: ${x} holds.\n" + FL_PROOF_SECTION + " inside nl",
          "theorem e0 : True := by\n  trivial -- ${fl_proof}")],
        "Statement: ${nl} and " + NL_SECTION,
        "theorem goal : ${fl_statement} :=",
    ),
    "blank-nl": (
        [("", "theorem e0 : True := by\n  trivial"),
         (" \n\t", "theorem e1 : 1 = 1 := by\n  simp"),
         ("Statement: q.", "theorem e2 : 2 = 2 := by\n  rfl")],
        "\n ",
        "theorem goal : 3 = 3 :=",
    ),
}


def prove_prompt(tokenizer, examples, nl, statement, budget):
    """``prove``'s prompt for a problem over a pool of (nl, fl) examples, at
    k_min 1 and k_max 16."""
    counter = PromptCounter(tokenizer)
    pool = [PoolExample(f"e{j}", ex_nl, fl) for j, (ex_nl, fl) in enumerate(examples)]
    return assemble_proof_prompt(
        Problem("goal", statement, nl), [counter.block(e.nl, e.fl) for e in pool[:16]],
        1, counter, budget)


@pytest.mark.parametrize("case", list(SAME_LAYOUT_CASES))
def test_prep_instruction_equals_prove_prompt(case):
    examples, nl, statement = SAME_LAYOUT_CASES[case]
    counter = PromptCounter(WhitespaceTokenizer())
    sources = [PackSource(f"e{j}", ex_nl, "unused :=", fl, 1)
               for j, (ex_nl, fl) in enumerate(examples)]
    sources.append(PackSource("goal", nl, statement, "by rfl", 1))
    packed = pack_block(sources, len(sources) - 1, 10**6, counter,
                        counted_blocks(sources, counter))
    prompt = prove_prompt(WhitespaceTokenizer(), examples, nl, statement, 10**6)
    assert packed.example_count == len(examples)
    assert packed.instruction == prompt
    # every bound text arrives literally, slot syntax and markers included
    for ex_nl, fl in examples:
        assert ex_nl.strip() in prompt and fl.strip() in prompt
    # a blank NL text gets no section, in an example or for the problem
    own = f"{NL_SECTION}\n{nl}\n\n" if nl.strip() else ""
    if case == "blank-nl":
        assert prompt.count(NL_SECTION) == 1
    assert prompt.endswith(
        f"{own}{FL_STATEMENT_SECTION}\n{statement}\n\n{FL_PROOF_SECTION}\n")


def test_prep_and_prove_raise_one_over_budget_error():
    # the zero-example prompt, and for prep its target too, is over budget
    tok = WhitespaceTokenizer()
    counter = PromptCounter(tok)
    examples, nl, statement = SAME_LAYOUT_CASES["plain"]
    needed = counter.prompt(nl, statement)
    with pytest.raises(PromptExceedsBudget) as proving:
        prove_prompt(tok, examples, nl, statement, needed - 1)
    sources = [PackSource("goal", nl, statement, "by rfl", 1)]
    with pytest.raises(PromptExceedsBudget) as packing:
        pack_block(sources, 0, needed, counter, counted_blocks(sources, counter))
    assert isinstance(proving.value, ValueError)
    assert (proving.value.name, proving.value.needed, proving.value.budget) == (
        "goal", needed, needed - 1)
    assert (packing.value.name, packing.value.needed, packing.value.budget) == (
        "goal", needed + tok.count("by rfl"), needed)


def test_prover_does_not_import_the_training_set_module():
    code = "import sys, leanforge.prover; print('leanforge.trainprep' in sys.modules)"
    src = os.path.dirname(SOURCE_DIR)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    loaded = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, check=True).stdout.split()
    assert loaded == ["False"]


# texts with words, punctuation, unicode and several kinds of whitespace;
# an NL text may be blank
TEXT = st.text(alphabet="ab cd.,()∑_7\n\t\u00a0", max_size=30)
NL_TEXT = st.one_of(TEXT, st.sampled_from(["", " ", "\n\t"]))
TOKENIZERS = {"whitespace": WhitespaceTokenizer(),
              "vocab": VocabTokenizer(["ab", "cd", "abc", "a", "b.c", "∑_", "(a", "7)"])}


class BootstrappedRecord(NamedTuple):
    name: str
    generated_informal_statement_and_proof: str
    statement: str
    proof: str
    commented_proof: str
    difficulty: int


@given(st.lists(st.tuples(NL_TEXT, TEXT, TEXT), min_size=2, max_size=6),
       st.integers(min_value=0, max_value=200), st.booleans(),
       st.sampled_from(sorted(TOKENIZERS)))
@settings(max_examples=150, deadline=None)
def test_counts_equal_a_recount_of_the_assembled_text(texts, budget, use_nl, name):
    tok = TOKENIZERS[name]
    records = [BootstrappedRecord(f"r{j}", nl, f"theorem r{j} :{statement}",
                                  proof, proof, 1)
               for j, (nl, statement, proof) in enumerate(texts)]
    packed = []
    emit_training_set(
        records, PrepSettings(token_budget=budget, use_nl=use_nl), tok, packed.extend)
    for item in packed:
        assert item.token_count == tok.count(item.instruction) + tok.count(item.target)

    # prove's prompt fits a budget of its own recount, and not one token less
    (nl, statement, _), examples = texts[-1], [(e[0], e[2]) for e in texts[:-1]]
    statement = f"theorem goal :{statement}"
    whole = prove_prompt(tok, examples, nl, statement, 10**6)
    fitted = whole.count(FL_PROOF_SECTION) - 1
    assert fitted == len(examples)
    assert prove_prompt(tok, examples, nl, statement, tok.count(whole)) == whole
    tighter = prove_prompt(tok, examples, nl, statement, tok.count(whole) - 1)
    assert tighter.count(FL_PROOF_SECTION) - 1 < fitted


def test_example_block_strips_texts_and_can_drop_nl():
    assert example_block("\n nl text \n", "\nfl text\n\n") == (
        f"{NL_SECTION}\nnl text\n\n{FL_PROOF_SECTION}\nfl text\n\n")
    for nl in (None, "", " \n"):
        assert example_block(nl, "fl text\n") == f"{FL_PROOF_SECTION}\nfl text\n\n"


def test_bootstrap_prompt_keeps_texts_as_they_are():
    out = bootstrap_prompt("NL text\n", "theorem t : True := by\n  trivial\n")
    assert out == (
        f"{COMMENT_INSTRUCTION}\n\n{NL_SECTION}\nNL text\n\n\n"
        f"{FL_PROOF_SECTION}\ntheorem t : True := by\n  trivial\n\n\n"
        f"{COMMENTED_SECTION}\n")


def test_informalization_prompt_has_statement_marker():
    out = informalization_prompt(
        [PoolExample("ex", "EXAMPLE NL", "theorem ex : True := trivial")],
        "theorem t : 1 = 1 :=",
        "theorem t : 1 = 1 := rfl",
    )
    assert out.startswith(f"{FL_PROOF_SECTION}\ntheorem ex : True := trivial\n\n"
                          f"{NL_SECTION}\nEXAMPLE NL\n\n")
    assert FL_STATEMENT_SECTION in out
    assert out.rstrip().endswith(NL_SECTION)


def test_prover_prompt_section_order():
    out = proof_prompt([], "Show 1 = 1.", "theorem t : 1 = 1 :=")
    assert 0 <= out.index(NL_SECTION) < out.index(FL_STATEMENT_SECTION)
    assert out.index(FL_STATEMENT_SECTION) < out.index(FL_PROOF_SECTION)
    assert NL_SECTION not in proof_prompt([], None, "theorem t : 1 = 1 :=")


def _marker_literals(tree):
    """Line of every string literal, f-string parts included, holding ``###``."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            and "###" in node.value]


def test_only_the_prompts_module_holds_section_markers():
    offenders = []
    for filename in sorted(os.listdir(SOURCE_DIR)):
        if not filename.endswith(".py") or filename == "prompts.py":
            continue
        path = os.path.join(SOURCE_DIR, filename)
        with open(path, "r", encoding="utf-8") as source:
            tree = ast.parse(source.read(), filename=path)
        offenders += [f"{filename}:{line}" for line in _marker_literals(tree)]
    assert offenders == []


def test_guard_sees_marker_literals():
    tree = ast.parse('A = "### x"\nB = f"{a}### y"\nC = "#"\nD = "no marker"\n')
    assert _marker_literals(tree) == [1, 2]
