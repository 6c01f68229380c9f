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
import math
from pathlib import Path

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


def read_table(
    path: str | Path,
) -> tuple[dict[str, str], list[str], list[list[str]]]:
    """Read back (metadata, header, rows); cells stay strings. A line ends
    at "\r\n", "\n" or "\r"; line ends inside a quoted cell are kept."""
    with open(path, encoding="utf-8", newline="") as fh:
        lines = fh.readlines()
    metadata: dict[str, str] = {}
    body_start = 0
    for lineno, line in enumerate(lines, start=1):
        stripped = line.rstrip("\r\n")
        if not stripped.startswith("#"):
            break
        if "=" not in stripped:
            raise FormatError(lineno, f"metadata line without '=': {stripped!r}")
        key, _, value = stripped[1:].partition("=")
        if not key:
            raise FormatError(lineno, "metadata line with empty key")
        metadata[key] = value
        body_start = lineno
    reader = csv.reader(lines[body_start:])
    try:
        header = next(reader)
    except StopIteration:
        raise FormatError(body_start + 1, "missing CSV header row") from None
    rows = [row for row in reader if row]
    for i, row in enumerate(rows):
        if len(row) != len(header):
            raise FormatError(
                body_start + 2 + i,
                f"row has {len(row)} cells, header has {len(header)}",
            )
    return metadata, header, rows


def parse_finite(cell: str) -> float:
    """A cell as a finite float; ValueError for anything else, nan and inf
    included."""
    value = float(cell)
    if not math.isfinite(value):
        raise ValueError(f"non-finite value {cell!r}")
    return value
