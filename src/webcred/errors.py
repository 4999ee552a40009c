"""Exception types that map to CLI exit code 1, and the text-input opener
that turns undecodable bytes into one of them."""

from __future__ import annotations

from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, TextIO


class DataError(Exception):
    """Input data violates a contract (bad schema, impossible request)."""


class CorruptInputError(DataError):
    """More than half of an input stream failed to parse."""


class StratificationError(DataError):
    """A class is too small to stratify into the requested folds."""


@contextmanager
def open_input(path: str | Path, newline: str | None = None) -> Iterator[TextIO]:
    """Open a text input file as UTF-8.

    A byte sequence that does not decode, wherever the reader meets it,
    raises DataError naming the file instead of a UnicodeDecodeError.
    """
    with open(path, encoding="utf-8", newline=newline) as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            bad = exc.object[exc.start : exc.start + 1].hex()
            raise DataError(f"{path}: not UTF-8 ({exc.reason}, byte 0x{bad})") from None
