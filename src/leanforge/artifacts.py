"""Reading and writing the files of a pipeline workdir.

Every artifact is replaced atomically: the new content goes to a temp file
beside the target, is flushed to disk and renamed over the target, so a
crash leaves the old file or the new one, never part of either. Readers
name the file and line of the first entry they cannot parse. Record layouts
and load-time checks stay with the modules that own the records; this
module only moves text and JSON between them and the files.
"""

from __future__ import annotations

import contextlib
import json
import logging
import os
from typing import Any, Callable, Iterable, Iterator, List, NamedTuple, Union

logger = logging.getLogger(__name__)


class ArtifactError(ValueError):
    """A file holds text that does not parse as JSON."""


class Line(NamedTuple):
    """One nonblank line of a JSONL file."""

    lineno: int
    text: str  # as read, newline included
    entry: Any


def write_text(path: str, text: Union[str, Iterable[str]]) -> None:
    """Replace ``path`` with ``text``: one string, or pieces written in order.

    The temp file sits in the target's directory so that ``os.replace`` is a
    rename within one file system. It is removed if anything fails, an
    exception raised by the pieces' producer included.
    """
    temp = f"{path}.{os.urandom(4).hex()}.tmp"
    sink = open(temp, "x", encoding="utf-8", newline="")
    try:
        with sink:
            for piece in (text,) if isinstance(text, str) else text:
                sink.write(piece)
            sink.flush()
            os.fsync(sink.fileno())
        os.replace(temp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(temp)
        raise


def _json_line(entry: Any) -> str:
    return json.dumps(entry, ensure_ascii=False) + "\n"


def write_jsonl(path: str, entries: Iterable[Any]) -> None:
    """Replace ``path`` with one JSON line per entry."""
    write_text(path, map(_json_line, entries))


def write_json(path: str, payload: Any) -> None:
    """Replace ``path`` with one JSON document on one line."""
    write_text(path, _json_line(payload))


def read_jsonl(path: str) -> List[Line]:
    """The nonblank lines of a JSONL file, parsed.

    Raises ArtifactError naming ``path:lineno`` for the first line that is
    not JSON.
    """
    lines = []
    with open(path, "r", encoding="utf-8") as source:
        for lineno, text in enumerate(source, start=1):
            if not text.strip():
                continue
            try:
                lines.append(Line(lineno, text, json.loads(text)))
            except json.JSONDecodeError as exc:
                raise ArtifactError(f"{path}:{lineno}: unreadable JSON: {exc}") from exc
    return lines


def read_json(path: str) -> Any:
    """One JSON document; errors name ``path:lineno``."""
    with open(path, "r", encoding="utf-8") as source:
        text = source.read()
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ArtifactError(f"{path}:{exc.lineno}: unreadable JSON: {exc}") from exc


# --- append-only logs ------------------------------------------------------------


def resume_jsonl(path: str) -> List[Line]:
    """Read an append-only JSONL log, first dropping a torn final line.

    A last line without its newline is an append that a crash cut short. It
    is logged and truncated from the file, so appending continues after the
    last whole entry and the caller regenerates what the torn line held. A
    whole line that is not JSON still raises ArtifactError.
    """
    with open(path, "rb") as source:
        data = source.read()
    whole = data.rfind(b"\n") + 1
    if whole < len(data):
        logger.warning("%s:%d: dropping torn final line (%d bytes)",
                       path, data.count(b"\n") + 1, len(data) - whole)
        os.truncate(path, whole)
    return read_jsonl(path)


@contextlib.contextmanager
def appending_jsonl(path: str) -> Iterator[Callable[[Any], None]]:
    """Yield a function that appends one JSON line to ``path`` and flushes it."""
    with open(path, "a", encoding="utf-8", newline="") as sink:
        def append(entry: Any) -> None:
            sink.write(_json_line(entry))
            sink.flush()

        yield append
