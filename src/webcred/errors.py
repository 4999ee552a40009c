"""Exception types that map to CLI exit code 1, the text-input opener that
turns undecodable bytes into one of them, and the one text-output opener."""

from __future__ import annotations

import os
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


@contextmanager
def open_output(path: str | Path, newline: str | None = None) -> Iterator[TextIO]:
    """Open a text output file as UTF-8 and replace ``path`` atomically.

    The text goes to a temporary sibling of ``path``, which replaces it
    only when the block completes.  If the block raises, the temporary
    file is removed and whatever was at ``path`` before stays as it was.
    """
    tmp = Path(path).with_name(f".{Path(path).name}.{os.getpid()}.tmp")
    try:
        fh = open(tmp, "w", encoding="utf-8", newline=newline)
    except OSError as exc:
        exc.filename = path  # report the output, not its temporary sibling
        raise
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
