"""One DSE record in two lazy forms: its dict and its canonical text.

A record's canonical text is ``json.dumps(record, sort_keys=True)``:
the JSONL store line, the SQLite ``record`` column and the NDJSON wire
line are all that one string.  A :class:`RecordEntry` carries whichever
form its producer already had -- the dict for a fresh evaluation or a
JSONL lookup, the text for a SQLite lookup -- and derives the other on
first use, once, so a record is encoded at most once on its way from
the evaluator or the store to a socket, and decoded only when a
consumer reads its fields.

:func:`canonical_texts` encodes many records at once, column by column,
for the writers that hold a whole batch: the engine's cold pass and the
stores' bulk ``append``.  ``RecordEntry.text`` stays the path for one
record.
"""

from __future__ import annotations

import json
import math
from json.encoder import encode_basestring_ascii

__all__ = ["RecordEntry", "canonical_texts", "entry_texts"]


class RecordEntry:
    """A record's hash plus its dict, its canonical text, or both.

    Entries are shared between threads (the memo hands one entry to
    every job that hits it).  A missing form is derived without a lock:
    two threads racing to derive it compute equal values and one
    assignment wins, so readers never see a partial form.  Treat both
    forms as read-only.
    """

    __slots__ = ("hash", "_record", "_text")

    def __init__(self, key: str, record: dict | None = None, text: str | None = None):
        self.hash = key
        self._record = record
        self._text = text

    @classmethod
    def of(cls, record: dict) -> "RecordEntry":
        """The entry of a decoded record (which must carry its hash)."""
        return cls(record["hash"], record=record)

    @property
    def record(self) -> dict:
        """The record dict, decoded from the text on first use."""
        record = self._record
        if record is None:
            record = self._record = json.loads(self._text)
        return record

    @property
    def text(self) -> str:
        """The canonical JSON text, encoded from the dict on first use."""
        text = self._text
        if text is None:
            text = self._text = json.dumps(self._record, sort_keys=True)
        return text


def canonical_texts(records) -> list[str]:
    """``[json.dumps(r, sort_keys=True) for r in records]``, column-wise.

    Records are grouped by key shape; each group fills one ``%``
    template per shape from columns that are each formatted by a single
    ``map`` (``float.__repr__``, ``int.__repr__``, the JSON string
    escaper), which is what makes a pass of records cheaper to encode
    together than one at a time.  Values of any other type, and dicts
    with a non-``str`` key, go through ``json.dumps`` itself, so the
    output is exactly that of the per-record encoder for every input.
    """
    return _column(records if isinstance(records, list) else list(records))


def entry_texts(entries: list[RecordEntry]) -> list[str]:
    """Each entry's canonical text, for a writer that holds a batch.

    Entries that have no text yet are encoded together, in one
    :func:`canonical_texts` call, and keep the text they were given.
    """
    missing = [entry for entry in entries if entry._text is None]
    if missing:
        texts = canonical_texts([entry._record for entry in missing])
        for entry, text in zip(missing, texts):
            entry._text = text
    return [entry._text for entry in entries]


def _column(values: list) -> list[str]:
    """The JSON text of each value, formatted per type, in order."""
    kinds = set(map(type, values))
    if len(kinds) <= 1:
        return _format(kinds.pop(), values) if kinds else []
    texts: list = [None] * len(values)
    by_kind: dict[type, list[int]] = {}
    for index, value in enumerate(values):
        by_kind.setdefault(type(value), []).append(index)
    for kind, indices in by_kind.items():
        formatted = _format(kind, [values[index] for index in indices])
        for index, text in zip(indices, formatted):
            texts[index] = text
    return texts


def _json_float(value: float) -> str:
    if value != value:
        return "NaN"
    if value in (math.inf, -math.inf):
        return "Infinity" if value > 0 else "-Infinity"
    return float.__repr__(value)


def _format(kind: type, values: list) -> list[str]:
    """The JSON text of each value of one exact type."""
    if kind is float:
        if math.isfinite(sum(values)):
            return list(map(float.__repr__, values))
        return list(map(_json_float, values))
    if kind is str:
        return list(map(encode_basestring_ascii, values))
    if kind is int:
        return list(map(int.__repr__, values))
    if kind is dict:
        return _objects(values)
    if kind is bool:
        return ["true" if value else "false" for value in values]
    if kind is type(None):
        return ["null"] * len(values)
    return [json.dumps(value, sort_keys=True) for value in values]


def _objects(rows: list[dict]) -> list[str]:
    """The sorted-key JSON text of each dict, one template per shape."""
    texts: list = [None] * len(rows)
    shapes: dict[tuple, list[int]] = {}
    for index, row in enumerate(rows):
        shapes.setdefault(tuple(row), []).append(index)
    for keys, indices in shapes.items():
        group = [rows[index] for index in indices]
        if not keys:
            formatted = ["{}"] * len(group)
        elif all(type(key) is str for key in keys):
            keys = sorted(keys)
            template = "{%s}" % ", ".join(
                encode_basestring_ascii(key).replace("%", "%%") + ": %s"
                for key in keys
            )
            columns = [_column([row[key] for row in group]) for key in keys]
            formatted = [template % values for values in zip(*columns)]
        else:  # non-str keys: json's key coercion and sort rules apply
            formatted = [json.dumps(row, sort_keys=True) for row in group]
        if len(indices) == len(rows):
            return formatted
        for index, text in zip(indices, formatted):
            texts[index] = text
    return texts
