"""The artifact layer: atomic replacement, line-numbered read errors, the
append-only checkpoint log, the record reader and writer, and a guard that
no other module writes files."""

import ast
import dataclasses
import json
import os
import re
import tempfile
import typing
from typing import Optional, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import leanforge
from leanforge import artifacts, cli
from leanforge.artifacts import ArtifactError
from leanforge.bootstrap import InformalRecord, ObtRecord
from leanforge.corpus import TheoremRecord
from leanforge.informalize import InformalizationResult, save_informal_dataset
from leanforge.prover import (
    HarnessReport,
    PoolExample,
    Problem,
    ReportHeader,
    ReportProof,
    RoundSummary,
    save_report,
)
from leanforge.trainprep import PackedRecord

SOURCE_DIR = os.path.dirname(leanforge.__file__)


def _writing_opens(tree):
    """(line, mode) of every ``open()`` call whose mode may write."""
    found = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "open"):
            continue
        mode = node.args[1] if len(node.args) > 1 else next(
            (k.value for k in node.keywords if k.arg == "mode"), None)
        if mode is None:
            continue
        if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)):
            found.append((node.lineno, "<computed mode>"))
        elif set(mode.value) & set("wax"):
            found.append((node.lineno, mode.value))
    return found


def test_only_the_artifact_module_opens_files_for_writing():
    offenders = []
    for filename in sorted(os.listdir(SOURCE_DIR)):
        if not filename.endswith(".py") or filename == "artifacts.py":
            continue
        path = os.path.join(SOURCE_DIR, filename)
        with open(path, "r", encoding="utf-8") as source:
            tree = ast.parse(source.read(), filename=path)
        offenders += [f"{filename}:{line}: open(..., {mode!r})"
                      for line, mode in _writing_opens(tree)]
    assert offenders == []


def test_guard_sees_writing_modes():
    tree = ast.parse('open(p, "w")\nopen(p, mode="ab")\nopen(p, "x")\n'
                     'open(p, m)\nopen(p)\nopen(p, "rb")\n')
    assert [line for line, _ in _writing_opens(tree)] == [1, 2, 3, 4]


def leftovers(directory):
    return sorted(name for name in os.listdir(directory) if name.endswith(".tmp"))


class TestWriteText:
    def test_replaces_the_target_whole(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_text("old content that is longer than the new one\n")
        artifacts.write_text(str(path), "new\n")
        assert path.read_bytes() == b"new\n"
        assert leftovers(tmp_path) == []

    def test_pieces_are_written_in_order(self, tmp_path):
        path = tmp_path / "out.txt"
        artifacts.write_text(str(path), (f"{i}\n" for i in range(3)))
        assert path.read_text() == "0\n1\n2\n"

    def test_failing_producer_keeps_old_file_and_leaves_no_temp(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_text("old\n")

        def pieces():
            yield "partial\n"
            raise RuntimeError("producer failed")

        with pytest.raises(RuntimeError, match="producer failed"):
            artifacts.write_text(str(path), pieces())
        assert path.read_text() == "old\n"
        assert leftovers(tmp_path) == []

    def test_unserializable_entry_keeps_old_file(self, tmp_path):
        path = tmp_path / "out.jsonl"
        artifacts.write_jsonl(str(path), [{"a": 1}])
        before = path.read_bytes()
        with pytest.raises(TypeError):
            artifacts.write_jsonl(str(path), [{"a": 2}, {"b": object()}])
        assert path.read_bytes() == before
        assert leftovers(tmp_path) == []

    def test_jsonl_layout(self, tmp_path):
        path = tmp_path / "out.jsonl"
        artifacts.write_jsonl(str(path), [{"b": "ℕ", "a": 1}, [2]])
        assert path.read_bytes() == '{"b": "ℕ", "a": 1}\n[2]\n'.encode("utf-8")


class TestReadJsonl:
    def test_blank_lines_skipped_and_numbered_as_in_the_file(self, tmp_path):
        path = tmp_path / "in.jsonl"
        path.write_text('{"a": 1}\n\n   \n{"a": 2}\n')
        lines = artifacts.read_jsonl(str(path))
        assert [(line.lineno, line.entry) for line in lines] == [(1, {"a": 1}), (4, {"a": 2})]
        assert lines[1].text == '{"a": 2}\n'

    def test_bad_line_names_file_and_line(self, tmp_path):
        path = tmp_path / "in.jsonl"
        path.write_text('{"a": 1}\n\n{broken\n')
        with pytest.raises(ArtifactError, match=r"in\.jsonl:3: unreadable JSON"):
            artifacts.read_jsonl(str(path))

    def test_read_json_names_the_line(self, tmp_path):
        path = tmp_path / "in.json"
        path.write_text('{\n"a": 1,\n}\n')
        with pytest.raises(ArtifactError, match=r"in\.json:3:"):
            artifacts.read_json(str(path))

    @pytest.mark.parametrize("read", [artifacts.read_jsonl, artifacts.read_json,
                                      artifacts.resume_jsonl, artifacts.read_text])
    def test_text_not_utf8_names_the_file(self, tmp_path, read):
        path = tmp_path / "in.jsonl"
        path.write_bytes(b'{"a": "caf\xe9"}\n')
        with pytest.raises(ArtifactError, match=re.escape(f"{path}: not UTF-8 text: ")):
            read(str(path))


class TestCheckpointLog:
    def test_append_then_resume(self, tmp_path):
        path = str(tmp_path / "log.jsonl")
        with artifacts.appending_jsonl(path) as append:
            append({"n": 1})
            append({"n": 2})
        assert [line.entry for line in artifacts.resume_jsonl(path)] == [{"n": 1}, {"n": 2}]

    def test_torn_final_line_is_truncated(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_text('{"n": 1}\n{"n": 2')
        assert [line.entry for line in artifacts.resume_jsonl(str(path))] == [{"n": 1}]
        assert path.read_text() == '{"n": 1}\n'

    def test_whole_bad_line_still_raises(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_text('{"n": 1}\n{"n": \n')
        with pytest.raises(ArtifactError, match=r"log\.jsonl:2"):
            artifacts.resume_jsonl(str(path))
        assert path.read_text() == '{"n": 1}\n{"n": \n'


# --- records ------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class Inner:
    n: int


@dataclasses.dataclass(frozen=True)
class Sample:
    text: str = artifacts.wire("Text")
    count: int = 0
    ratio: float = 0.0
    tags: Tuple[str, ...] = ()
    inners: Tuple[Inner, ...] = ()
    note: Optional[str] = None
    local: int = artifacts.wire(None, default=7)
    flag: bool = False


def read_one(tmp_path, line):
    path = tmp_path / "in.jsonl"
    path.write_text(line + "\n", encoding="utf-8")
    return artifacts.read_records(str(path), Sample)[0]


class TestRecordRules:
    def test_wire_key_types_and_extra_keys(self, tmp_path):
        record = read_one(tmp_path, json.dumps({
            "Text": "ℕ", "count": 3, "ratio": 2, "tags": ["a", "b"],
            "inners": [{"n": 1}], "note": None, "text": "ignored", "local": 9,
            "flag": True}))
        assert record == Sample("ℕ", 3, 2, ("a", "b"), (Inner(1),), None, 7, True)

    @pytest.mark.parametrize("entry, message", [
        ({}, "entry has no 'Text' field"),
        ({"Text": 5}, "Text is not a string"),
        ({"Text": "t", "count": True}, "count is not an integer"),
        ({"Text": "t", "count": 1.0}, "count is not an integer"),
        ({"Text": "t", "ratio": False}, "ratio is not a number"),
        ({"Text": "t", "tags": "ab"}, "tags is not a list of strings"),
        ({"Text": "t", "tags": [1]}, "tags is not a list of strings"),
        ({"Text": "t", "inners": [5]}, "inners: entry is not an object"),
        ({"Text": "t", "inners": [{"n": "1"}]}, "inners: n is not an integer"),
        ({"Text": "t", "note": 5}, "note is not a string or null"),
        ({"Text": "t", "flag": 1}, "flag is not true or false"),
        ({"Text": "t", "flag": None}, "flag is not true or false"),
    ])
    def test_rejected_lines_name_path_and_line(self, tmp_path, entry, message):
        with pytest.raises(ArtifactError, match=re.escape(f"in.jsonl:1: {message}")):
            read_one(tmp_path, json.dumps(entry))

    def test_record_checks_are_reported_at_their_line(self, tmp_path):
        path = tmp_path / "problems.jsonl"
        path.write_text('{"name": "p", "fl_statement": "theorem p : True :="}\n'
                        '{"name": "", "fl_statement": "theorem q : True :="}\n')
        with pytest.raises(ArtifactError, match="problems.jsonl:2: problem name"):
            artifacts.read_records(str(path), Problem)

    def test_off_wire_fields_are_not_written(self, tmp_path):
        path = tmp_path / "out.jsonl"
        artifacts.write_jsonl(str(path), [Sample("t", local=1), {"plain": 1}])
        assert path.read_text(encoding="utf-8") == (
            '{"Text": "t", "count": 0, "ratio": 0.0, "tags": [], "inners": [], '
            '"note": null, "flag": false}\n{"plain": 1}\n')


# One fixed record of each written type, and the line each produces. The
# lines are those the hand-built dicts of earlier writers gave, key order
# included, so a change of layout shows here.
NAME = "Nat.add_zero'"
STATEMENT = "theorem add_zero' (n : ℕ) : n + 0 = n :="
PROOF = "theorem add_zero' (n : ℕ) : n + 0 = n := by\n  simp\n"
THEOREM = TheoremRecord(NAME, STATEMENT, PROOF, "Mathlib/A.lean", "c0ffee", 1)
RESULT = InformalizationResult(
    NAME, 'Statement: n + 0 = n.\nProof: "simp".', ("ex1", "ex2"), 2, "fail",
    ("OVERLENGTH", "REPETITION"), (("MISSING_SECTION",), ("OVERLENGTH", "REPETITION")))
OBT = ObtRecord(NAME, STATEMENT, PROOF, "Mathlib/A.lean", "c0ffee",
                "Statement: n + 0 = n.", "/- Statement: n + 0 = n. -/\n" + PROOF)
REPORT = HarnessReport(
    3, (RoundSummary(1, 1, 1, 1 / 3, 7), RoundSummary(2, 0, 1, 1 / 3, 12)),
    {NAME: PROOF}, {NAME: (1, 4)})
PACKED = PackedRecord("### instruction ℕ\n", "target\n", 2, 40, NAME, 1)

def append_one(path, entry):
    with artifacts.appending_jsonl(path) as append:
        append(entry)


GOLDEN = {
    "theorems": (
        lambda path: artifacts.write_jsonl(path, [THEOREM]),
        '{"name": "Nat.add_zero\'", "statement": "theorem add_zero\' (n : ℕ) : n + 0 = n'
        ' :=", "proof": "theorem add_zero\' (n : ℕ) : n + 0 = n := by\\n  simp\\n", '
        '"file_path": "Mathlib/A.lean", "commit": "c0ffee", "difficulty": 1}\n'),
    "informal": (
        lambda path: save_informal_dataset([THEOREM], [RESULT], path),
        '{"Name": "Nat.add_zero\'", "Statement": "theorem add_zero\' (n : ℕ) : n + 0 = n'
        ' :=", "Proof": "theorem add_zero\' (n : ℕ) : n + 0 = n := by\\n  simp\\n", '
        '"File_path": "Mathlib/A.lean", "Commit": "c0ffee", '
        '"Generated_informal_statement_and_proof": "Statement: n + 0 = n.\\nProof: '
        '\\"simp\\".", "verdict": "fail", "reasons": ["OVERLENGTH", "REPETITION"]}\n'),
    "checkpoint": (
        lambda path: append_one(path, RESULT),
        '{"theorem_name": "Nat.add_zero\'", "nl_statement_and_proof": "Statement: n + 0 '
        '= n.\\nProof: \\"simp\\".", "examples_used": ["ex1", "ex2"], "attempts": 2, '
        '"verdict": "fail", "reasons": ["OVERLENGTH", "REPETITION"], "attempt_reasons": '
        '[["MISSING_SECTION"], ["OVERLENGTH", "REPETITION"]]}\n'),
    "obt": (
        lambda path: artifacts.write_jsonl(path, [OBT]),
        '{"Name": "Nat.add_zero\'", "Statement": "theorem add_zero\' (n : ℕ) : n + 0 = n'
        ' :=", "Proof": "theorem add_zero\' (n : ℕ) : n + 0 = n := by\\n  simp\\n", '
        '"File_path": "Mathlib/A.lean", "Commit": "c0ffee", '
        '"Generated_informal_statement_and_proof": "Statement: n + 0 = n.", '
        '"Commented_proof": "/- Statement: n + 0 = n. -/\\ntheorem add_zero\' (n : ℕ) : '
        'n + 0 = n := by\\n  simp\\n"}\n'),
    "report": (
        lambda path: save_report(REPORT, path),
        '{"kind": "harness-report", "problems_total": 3, "rounds": [{"round": 1, '
        '"newly_proved": 1, "cumulative_proved": 1, "cumulative_rate": 0.3333333333333333, '
        '"budget_used": 7}, {"round": 2, "newly_proved": 0, "cumulative_proved": 1, '
        '"cumulative_rate": 0.3333333333333333, "budget_used": 12}]}\n'
        '{"name": "Nat.add_zero\'", "round": 1, "sample_index": 4, "proof": '
        '"theorem add_zero\' (n : ℕ) : n + 0 = n := by\\n  simp\\n"}\n'),
    "train": (
        lambda path: artifacts.write_jsonl(path, [PACKED]),
        '{"instruction": "### instruction ℕ\\n", "target": "target\\n", '
        '"example_count": 2, "difficulty": 1}\n'),
}


@pytest.mark.parametrize("name", GOLDEN)
def test_written_lines_keep_their_bytes(tmp_path, name):
    write, expected = GOLDEN[name]
    path = str(tmp_path / f"{name}.jsonl")
    write(path)
    with open(path, "rb") as source:
        assert source.read() == expected.encode("utf-8")


def values(hint, nonempty):
    """A strategy for field values of type ``hint``, built without the
    module's own decoder."""
    args = typing.get_args(hint)
    if hint is str:
        return st.text(st.characters(blacklist_categories=("Cs",)), min_size=int(nonempty))
    if hint is int:
        return st.integers()
    if hint is float:
        return st.floats(allow_nan=False)
    if dataclasses.is_dataclass(hint):
        return records(hint)
    if typing.get_origin(hint) is tuple:
        return st.lists(values(args[0], False), max_size=3).map(tuple)
    return st.none() | values(args[0], nonempty)


def records(cls, nonempty=False):
    hints = typing.get_type_hints(cls)
    return st.builds(cls, **{attr: values(hints[attr], nonempty)
                             for attr, _ in artifacts.wire_keys(cls)})


# Every record type read from a file; ObtRecord and Problem reject empty texts.
READ_TYPES = [
    (TheoremRecord, False), (InformalRecord, False), (ObtRecord, True),
    (InformalizationResult, False), (PoolExample, False), (Problem, True),
    (ReportHeader, False), (ReportProof, False), (cli._SourceFile, False),
    (cli._TextPair, False), (cli._VectorPair, False),
]


@pytest.mark.parametrize("cls, nonempty", READ_TYPES,
                         ids=[cls.__name__ for cls, _ in READ_TYPES])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_records_read_back_as_written(cls, nonempty, data):
    written = data.draw(st.lists(records(cls, nonempty), max_size=3))
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "records.jsonl")
        artifacts.write_jsonl(path, written)
        assert artifacts.read_records(path, cls) == written
