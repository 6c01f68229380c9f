"""CSV tables with a commented metadata header block.

Every table written by the pipeline starts with zero or more lines of the
form ``#key=value``, followed by a standard CSV header row and data rows
(RFC 4180 quoting, CRLF line endings). Rows go straight to the standard
csv writer, which writes a float with repr (the shortest form that reads
back to the same float), None as an empty cell and anything else with str.
Cells read back as strings; the stage that reads a table parses them.
Nothing time-dependent goes into the metadata, so a rerun with identical
inputs produces byte-identical files.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
from pathlib import Path
from typing import Iterable, NamedTuple

from .errors import FormatError


def write_table(
    path: str | Path,
    header: list[str],
    rows: list[list[object]],
    metadata: dict[str, str] | None = None,
) -> None:
    """Write a metadata block, header row, and data rows to path. A
    metadata key or value, or a header, that would not read back is a
    ValueError."""
    buf = io.StringIO()
    if metadata:
        for key, value in metadata.items():
            line = f"{key}={value}"
            if not key or "=" in key or "\r" in line or "\n" in line:
                raise ValueError(f"metadata key/value not representable: {key!r}")
            buf.write(f"#{line}\r\n")
    if header and header[0].startswith("#"):
        raise ValueError(f"header {header[0]!r} would read back as a metadata line")
    writer = csv.writer(buf, quoting=csv.QUOTE_MINIMAL, lineterminator="\r\n")
    writer.writerow(header)
    writer.writerows(rows)
    Path(path).write_bytes(buf.getvalue().encode("utf-8"))


class Table(NamedTuple):
    """A table read back. Cells stay strings; lines[i] is the line of the
    file on which rows[i] starts."""

    metadata: dict[str, str]
    header: list[str]
    rows: list[list[str]]
    lines: list[int]


def read_utf8(path: Path) -> str:
    """The text of a UTF-8 file, decoded once. Bytes that are not UTF-8 are
    a FormatError naming the file and the line ("\r\n", "\n" or "\r" ends
    a line)."""
    data = path.read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # A byte put after the bytes before the bad one starts a line of
        # its own exactly when they end with a line end.
        lineno = len((data[:exc.start] + b"x").splitlines())
        raise FormatError(lineno, f"{path.name}: not UTF-8: {exc}") from None


def read_table(path: str | Path) -> Table:
    """Read back a table in one pass. A line ends at "\r\n", "\n" or "\r";
    line ends inside a quoted cell are kept, and blank lines are skipped."""
    text = io.StringIO(read_utf8(Path(path)), newline="")
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
            raise FormatError(offset, f"metadata line without '=': {stripped!r}")
        key, _, value = stripped[1:].partition("=")
        if not key:
            raise FormatError(offset, "metadata line with empty key")
        metadata[key] = value
    reader = csv.reader(body)
    try:
        header = next(reader)
    except StopIteration:
        raise FormatError(offset + 1, "missing CSV header row") from None
    rows: list[list[str]] = []
    lines: list[int] = []
    end = reader.line_num
    for row in reader:
        start, end = offset + end + 1, reader.line_num
        if not row:
            continue
        if len(row) != len(header):
            raise FormatError(start, f"row has {len(row)} cells, header has {len(header)}")
        rows.append(row)
        lines.append(start)
    return Table(metadata, header, rows, lines)


def parse_finite(cell: str) -> float:
    """A cell as a finite float; ValueError for anything else, nan and inf
    included."""
    value = float(cell)
    if not math.isfinite(value):
        raise ValueError(f"non-finite value {cell!r}")
    return value
