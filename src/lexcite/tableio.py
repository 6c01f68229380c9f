"""CSV tables with a commented metadata header block.

Every table written by the pipeline starts with zero or more lines of the
form ``#key=value``, followed by a standard CSV header row and data rows
(RFC 4180 quoting, CRLF line endings). Rows go straight to the standard
csv writer, which writes a float with repr (the shortest form that reads
back to the same float), None as an empty cell and anything else with str.
Cells read back as strings; the stage that reads a table parses them.
Nothing time-dependent goes into the metadata, so a rerun with identical
inputs produces byte-identical files.

Tables stream both ways, so memory does not grow with a table's text. A
table is written row by row, as its rows are made, to a temporary file
beside its path that replaces the path once complete. It is read back a
line at a time: the metadata and header at once, the rows as the caller
asks for them.

Every line-based text input is read here, under one rule: UTF-8, a line
ends at "\r\n", "\n" or "\r" (never at "\f", "\x85" or U+2028), and a byte
that is not UTF-8 is a FormatError naming the file and the line.
"""

from __future__ import annotations

import contextlib
import csv
import itertools
import math
import os
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Sequence, TextIO

from .errors import FormatError


def write_table(
    path: str | Path,
    header: list[str],
    rows: Iterable[Sequence[object]],
    metadata: dict[str, str] | None = None,
) -> None:
    """Write a metadata block, header row, and data rows to path, taking the
    rows from any iterable as they are written. A metadata key or value, or
    a header, that would not read back is a ValueError. On any error,
    whether raised by rows or by the write, path keeps its old bytes and no
    temporary file is left."""
    path, metadata = Path(path), metadata or {}
    for key, value in metadata.items():
        line = f"{key}={value}"
        if not key or "=" in key or "\r" in line or "\n" in line:
            raise ValueError(f"metadata key/value not representable: {key!r}")
    if header and header[0].startswith("#"):
        raise ValueError(f"header {header[0]!r} would read back as a metadata line")
    temp = path.with_name(f".{path.name}.tmp")
    try:
        with open(temp, "w", encoding="utf-8", newline="") as fh:
            for key, value in metadata.items():
                fh.write(f"#{key}={value}\r\n")
            writer = csv.writer(fh, quoting=csv.QUOTE_MINIMAL, lineterminator="\r\n")
            writer.writerow(header)
            writer.writerows(rows)
        os.replace(temp, path)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise


class Table(NamedTuple):
    """A table being read back. rows yields (line, cells) for each data row
    as it is read, where line is the line of the file on which the row
    starts; cells stay strings. rows can be read once."""

    metadata: dict[str, str]
    header: list[str]
    rows: Iterator[tuple[int, list[str]]]


def readable_name(name: str) -> str:
    """A file name as text that encodes. The bytes of a name that are not
    UTF-8, which Python holds as lone surrogates, show as backslash
    escapes."""
    return os.fsencode(name).decode("utf-8", "backslashreplace")


def read_utf8(path: Path) -> str:
    """The text of a file, decoded at once by the rule above."""
    data = path.read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # A byte put after the bytes before the bad one starts a line of
        # its own exactly when they end with a line end.
        lineno = len((data[:exc.start] + b"x").splitlines())
        raise FormatError(lineno, f"{readable_name(path.name)}: not UTF-8: {exc}") from None


@contextlib.contextmanager
def _open_utf8(path: Path) -> Iterator[TextIO]:
    """path open by the rule above, line ends kept as read. A byte met in the
    with block that is not UTF-8 is read_utf8's FormatError."""
    with open(path, encoding="utf-8", newline="") as text:
        try:
            yield text
        except UnicodeDecodeError:
            read_utf8(path)  # raises the FormatError naming the line
            raise


def read_lines(path: Path) -> Iterator[tuple[int, str]]:
    """Yield (line number, text without its line end) for each line of a
    text file, read lazily by the rule above; the file is open meanwhile."""
    with _open_utf8(path) as text:
        for number, line in enumerate(text, 1):
            yield number, line.rstrip("\r\n")


def read_table(path: str | Path) -> Table:
    """Read back a table in one pass: its metadata and header now, its rows
    lazily. A line ends at "\r\n", "\n" or "\r"; line ends inside a quoted
    cell are kept, and blank lines are skipped. A malformed line is a
    FormatError naming it and the file, raised when the line is read."""
    rows = _table_rows(Path(path))
    metadata, header = next(rows)
    return Table(metadata, header, rows)


def _table_rows(path: Path) -> Iterator:
    """Yield (metadata, header) first, then (line, cells) per data row. The
    file is open while the rows are being read."""
    name = readable_name(path.name)
    with _open_utf8(path) as text:
        metadata: dict[str, str] = {}
        offset = 0  # metadata lines before the header
        body: Iterable[str] = ()
        for line in text:
            if not line.startswith("#"):
                body = itertools.chain([line], text)
                break
            offset += 1
            stripped = line.rstrip("\r\n")
            if "=" not in stripped:
                raise FormatError(offset, f"{name}: metadata line without '=': {stripped!r}")
            key, _, value = stripped[1:].partition("=")
            if not key:
                raise FormatError(offset, f"{name}: metadata line with empty key")
            metadata[key] = value
        reader = csv.reader(body)
        header = None
        end = 0  # reader lines before the current row
        try:
            for row in reader:
                start, end = offset + end + 1, reader.line_num
                if header is None:
                    header = row
                    yield metadata, header
                elif row and len(row) != len(header):
                    raise FormatError(start, f"{name}: row has {len(row)} cells, "
                                             f"header has {len(header)}")
                elif row:
                    yield start, row
        except csv.Error as exc:  # a cell over the csv module's size limit
            raise FormatError(offset + end + 1, f"{name}: {exc}") from None
        if header is None:
            raise FormatError(offset + 1, f"{name}: missing CSV header row")


def parse_finite(cell: str) -> float:
    """A cell as a finite float; ValueError for anything else, nan and inf
    included."""
    value = float(cell)
    if not math.isfinite(value):
        raise ValueError(f"non-finite value {cell!r}")
    return value
