"""Reading and writing the files of a pipeline workdir.

Every artifact is replaced atomically: the new content goes to a temp file
beside the target, is flushed to disk and renamed over the target, so a
crash leaves the old file or the new one, never part of either.

A JSONL entry is a JSON value or a record: a dataclass instance, written as
an object of its fields in declaration order. A field's JSON key is its name
or the one given with ``wire``, and its type is its annotation; a field off
the wire is not written, and a record read back gets its default. A line
read as a record that is not an object, lacks a field without a default or
holds a value of the wrong type is rejected as ``path:line``; other keys are
ignored.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import json
import logging
import os
import typing
from typing import (Any, Callable, Iterable, Iterator, List, NamedTuple, Optional,
                    Tuple, Type, TypeVar, Union)

logger = logging.getLogger(__name__)

R = TypeVar("R")

_WIRE = "wire"  # field metadata key holding the field's JSON key


class ArtifactError(ValueError):
    """A file holds text that is not JSON, or a line not the record it should."""


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
    return json.dumps(entry, ensure_ascii=False, default=_to_entry) + "\n"


def write_jsonl(path: str, entries: Iterable[Any]) -> None:
    """Replace ``path`` with one JSON line per entry, a record or a JSON value."""
    write_text(path, map(_json_line, entries))


def write_json(path: str, payload: Any) -> None:
    """Replace ``path`` with one JSON document on one line."""
    write_text(path, _json_line(payload))


@contextlib.contextmanager
def _utf8(path: str) -> Iterator[None]:
    """Turn a decoding failure in the block into an ArtifactError naming ``path``."""
    try:
        yield
    except UnicodeDecodeError as exc:
        raise ArtifactError(f"{path}: not UTF-8 text: {exc}") from None


def read_text(path: str) -> str:
    """The text of a UTF-8 file; ArtifactError names ``path`` if it is not UTF-8."""
    with _utf8(path), open(path, "r", encoding="utf-8") as source:
        return source.read()


def read_jsonl(path: str) -> List[Line]:
    """The nonblank lines of a JSONL file, parsed.

    Raises ArtifactError naming ``path`` for text that is not UTF-8, and
    ``path:lineno`` for the first line that is not JSON.
    """
    lines = []
    with _utf8(path), open(path, "r", encoding="utf-8") as source:
        for lineno, text in enumerate(source, start=1):
            if not text.strip():
                continue
            try:
                lines.append(Line(lineno, text, json.loads(text)))
            except json.JSONDecodeError as exc:
                raise ArtifactError(f"{path}:{lineno}: unreadable JSON: {exc}") from exc
    return lines


def read_json(path: str) -> Any:
    """One JSON document; errors name ``path``, and ``path:lineno`` for
    text that is not JSON."""
    text = read_text(path)
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ArtifactError(f"{path}:{exc.lineno}: unreadable JSON: {exc}") from exc


# --- records ---------------------------------------------------------------------


def wire(key: Optional[str], **field_args) -> Any:
    """A dataclass field with JSON key ``key``; None keeps it off the wire."""
    return dataclasses.field(metadata={_WIRE: key}, **field_args)


class Mismatch(Exception):
    """A JSON value does not fit; with no message, because of its type."""


_SCALARS = {str: (str,), int: (int,), float: (int, float), bool: (bool,)}


def fit(value: Any, hint) -> Any:
    """``value`` as a value of type ``hint``, by the rule that reads every
    record field: raises Mismatch when it is not one. The config file's
    settings are checked here too.

    Records are read through ``_decode``, the same rule under a private
    name: ``perfbench``'s tracer wraps public functions, and a span per field
    would swamp the reading it measures."""
    return _decode(value, hint)


def _decode(value: Any, hint) -> Any:
    """``value`` as a field of type ``hint``: str, int (which a bool is
    not), float (any number), bool, a record, ``Tuple[X, ...]`` (from a
    list) or ``Optional[X]``."""
    if hint in _SCALARS:
        if type(value) in _SCALARS[hint]:
            return value
    elif dataclasses.is_dataclass(hint):
        return _from_entry(value, hint)
    elif typing.get_origin(hint) is tuple:
        if type(value) is list:
            item_hint = typing.get_args(hint)[0]
            return tuple(_decode(item, item_hint) for item in value)
    else:  # Optional[X]
        return None if value is None else _decode(value, typing.get_args(hint)[0])
    raise Mismatch()


def expected(hint) -> str:
    """The JSON type that ``fit`` takes for ``hint``, as "a string"."""
    args = typing.get_args(hint)
    if dataclasses.is_dataclass(hint):
        return "an object"
    if typing.get_origin(hint) is tuple:
        noun, _, rest = expected(args[0]).split(" ", 1)[1].partition(" ")
        return f"a list of {noun}s {rest}".rstrip()
    if args:
        return f"{expected(args[0])} or null"
    return {str: "a string", int: "an integer", float: "a number",
            bool: "true or false"}[hint]


@functools.lru_cache(maxsize=None)
def _table(cls) -> Tuple[Tuple[str, str, bool, Any], ...]:
    """(attribute, key, required, type) of each wire field of ``cls``."""
    if not dataclasses.is_dataclass(cls):
        raise TypeError(f"Object of type {cls.__name__} is not JSON serializable")
    hints = typing.get_type_hints(cls)
    return tuple(
        (f.name, f.metadata.get(_WIRE, f.name),
         f.default is dataclasses.MISSING is f.default_factory, hints[f.name])
        for f in dataclasses.fields(cls) if f.metadata.get(_WIRE, f.name) is not None)


def _to_entry(record: Any) -> dict:
    return {key: getattr(record, attr) for attr, key, *_ in _table(type(record))}


def _from_entry(entry: Any, cls):
    if type(entry) is not dict:
        raise Mismatch("entry is not an object")
    values = {}
    for attr, key, required, hint in _table(cls):
        if key in entry:
            try:
                values[attr] = _decode(entry[key], hint)
            except Mismatch as exc:
                raise Mismatch(f"{key}: {exc}" if exc.args
                               else f"{key} is not {expected(hint)}") from None
        elif required:
            raise Mismatch(f"entry has no {key!r} field")
    try:
        return cls(**values)
    except ValueError as exc:  # the record's own check of its values
        raise Mismatch(str(exc)) from None


def wire_keys(cls) -> List[Tuple[str, str]]:
    """(attribute, JSON key) of each wire field of record type ``cls``."""
    return [(attr, key) for attr, key, *_ in _table(cls)]


def decode(entry: Any, cls: Type[R], where: str) -> R:
    """The ``cls`` record in the JSON value ``entry``; ArtifactError names
    ``where``."""
    try:
        return _from_entry(entry, cls)
    except Mismatch as exc:
        raise ArtifactError(f"{where}: {exc}") from None


def as_record(path: str, line: Line, cls: Type[R]) -> R:
    """The ``cls`` record on ``line``; ArtifactError names ``path:lineno``."""
    return decode(line.entry, cls, f"{path}:{line.lineno}")


def read_records(path: str, cls: Type[R]) -> List[R]:
    """One ``cls`` record per nonblank line of a JSONL file."""
    return [as_record(path, line, cls) for line in read_jsonl(path)]


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
    """Yield a function that appends one entry, a record or a JSON value, to
    ``path`` as a JSON line and flushes it."""
    with open(path, "a", encoding="utf-8", newline="") as sink:
        def append(entry: Any) -> None:
            sink.write(_json_line(entry))
            sink.flush()

        yield append
