"""The artifact layer: atomic replacement, line-numbered read errors, the
append-only checkpoint log, and a guard that no other module writes files."""

import ast
import os

import pytest

import leanforge
from leanforge import artifacts
from leanforge.artifacts import ArtifactError

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
