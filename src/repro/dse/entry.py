"""One DSE record in two lazy forms: its dict and its canonical text.

A record's canonical text is ``json.dumps(record, sort_keys=True)``:
the JSONL store line, the SQLite ``record`` column and the NDJSON wire
line are all that one string.  A :class:`RecordEntry` carries whichever
form its producer already had -- the dict for a fresh evaluation or a
JSONL lookup, the text for a SQLite lookup -- and derives the other on
first use, once, so a record is encoded at most once on its way from
the evaluator or the store to a socket, and decoded only when a
consumer reads its fields.
"""

from __future__ import annotations

import json

__all__ = ["RecordEntry"]


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
