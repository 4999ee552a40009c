"""Exception types that map to CLI exit code 1, the text-input opener that
turns undecodable bytes into one of them, the checks that turn a model
file's JSON values into numbers, the one CSV reader and the one CSV
writer, the one text-output opener, and the transaction that commits
outputs together."""

from __future__ import annotations

import csv
import itertools
import math
import os
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Sequence, TextIO

import numpy as np


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


def json_number(value: Any, what: str, integer: bool = False) -> int | float:
    """``value`` as decoded from JSON, if it is a 64-bit integer, or unless
    ``integer`` a finite number (returned as a float); anything else, a bool
    included, raises DataError naming ``what``."""
    if type(value) is int and -(2**63) <= value < 2**64:
        return value if integer else float(value)
    if not integer and type(value) is float and math.isfinite(value):
        return value
    kind = "a 64-bit integer" if integer else "a finite number"
    raise DataError(f"{what} must be {kind}, got {value!r}")


def json_numbers(values: Any, what: str, integer: bool = False) -> np.ndarray:
    """A JSON list of numbers, each checked by json_number, as an int64
    (``integer``) or float64 array."""
    numbers = [json_number(v, what, integer) for v in values]
    try:
        return np.array(numbers, dtype=np.int64 if integer else np.float64)
    except OverflowError:
        raise DataError(f"{what} out of the int64 range") from None


def read_csv(
    path: str | Path,
    header: Sequence[str],
    parse: Callable[[list[str]], Any],
    header_optional: bool = False,
) -> list:
    """``parse(row)`` for each data row of a CSV input file.

    The first row is ``header``, its cells compared after ``strip().lower()``,
    or with ``header_optional`` may be data.  Blank rows are skipped; every
    other row must have one field per header cell.  A bad row, or a
    ValueError or DataError from ``parse``, raises DataError("path:line: ...")
    naming the file line the row ends on.
    """
    parsed = []
    with open_input(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            first = next(reader, [])
            if [cell.strip().lower() for cell in first] == list(header):
                first = []
            elif not header_optional:
                raise DataError(f"expected header {','.join(header)}")
            for row in itertools.chain([first], reader):
                if len(row) == len(header):
                    parsed.append(parse(row))
                elif row:
                    raise DataError(f"expected {len(header)} fields, got {len(row)}")
        except UnicodeDecodeError:
            raise  # open_input names the file
        except (ValueError, DataError, csv.Error) as exc:
            # An empty file misses its header on line 1.
            raise DataError(f"{path}:{max(reader.line_num, 1)}: {exc}") from None
    return parsed


def write_csv(
    path: str | Path,
    header: Sequence[str],
    rows: Iterable[Sequence[Any]],
    preamble: str = "",
) -> None:
    """Write ``preamble`` verbatim, then ``header`` and ``rows`` as CSV.

    The format is csv.writer's default: comma-separated, CRLF line ends,
    a field quoted only when it needs it, and a float in its shortest
    round-trip form.  ``rows`` may be a generator; if it raises, the file
    at ``path`` stays as it was (see open_output).
    """
    with open_output(path, newline="") as fh:
        fh.write(preamble)
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


# Temporary files finished inside output_transaction, and their outputs.
_held: dict[Path, str | Path] | None = None


@contextmanager
def output_transaction() -> Iterator[None]:
    """Replace the outputs that open_output writes inside the block together,
    once the block completes; if it raises, replace none of them."""
    global _held
    _held = held = {}
    try:
        yield
        for tmp, path in held.items():
            os.replace(tmp, path)
    finally:
        _held = None
        for tmp in held:
            tmp.unlink(missing_ok=True)


@contextmanager
def open_output(path: str | Path, newline: str | None = None) -> Iterator[TextIO]:
    """Open a text output file as UTF-8 and replace ``path`` atomically.

    The text goes to a temporary sibling of ``path``, which replaces it
    when the block (or the enclosing output_transaction) completes.  If
    it raises, the temporary file is removed and ``path`` stays as it was.
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
        if _held is None:
            os.replace(tmp, path)
        else:
            _held[tmp] = path
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
