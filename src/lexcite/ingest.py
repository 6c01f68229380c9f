"""Full-text article ingestion.

Parses structured article XML into plain-text paragraph documents and
rewrites abbreviations to their full forms so that sentence segmentation
downstream does not split on abbreviation periods. The abbreviation table
and corpus.jsonl are read a line at a time, by `tableio.read_lines`.
"""

from __future__ import annotations

import json
import re
from collections import namedtuple
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator

from .errors import FormatError, MalformedXml, MissingMetadata
from .tableio import parse_int, read_lines, readable_name

if TYPE_CHECKING:
    from xml.etree import ElementTree

YEAR_MIN = 1900
YEAR_MAX = 2100

# Corpus-file field order is part of the interchange format.
CORPUS_FIELDS = ("doc_id", "year", "domain", "journal", "paragraphs")

DEFAULT_ABBREVIATIONS = {
    "et al.": "and others",
    "e.g.": "for example",
    "i.e.": "that is",
    "cf.": "compare",
    "Fig.": "Figure",
    "Eq.": "Equation",
    "Dr.": "Doctor",
    "vs.": "versus",
    "approx.": "approximately",
}


def _record(fields: str) -> type:
    """A namedtuple whose _make, and so _replace, calls the record's checks."""
    base = namedtuple("_Record", fields)
    base._make = classmethod(lambda cls, iterable: cls(*iterable))
    return base


def check_doc_id(text: str) -> str:
    """text, if it is not empty, holds no TAB, "\r" or "\n" and has no white
    space at either end, so that corpus.jsonl and a tagged file's "#doc="
    line carry it back unchanged; otherwise a ValueError."""
    if not text or text != text.strip() or "\t" in text or "\r" in text or "\n" in text:
        raise ValueError(f"doc id {text!r} is empty, holds a TAB or a line break, "
                         "or has white space at an end")
    return text


def check_year(year: int) -> int:
    """year, if it is in [YEAR_MIN, YEAR_MAX]; otherwise a ValueError."""
    if not YEAR_MIN <= year <= YEAR_MAX:
        raise ValueError(f"year {year} outside [{YEAR_MIN}, {YEAR_MAX}]")
    return year


class RawDocument(_record("doc_id year domain paragraphs journal")):
    """One ingested article: metadata plus its stripped, non-empty paragraphs.
    A doc id or year that its check refuses is MissingMetadata, and so are
    paragraphs with no letter (str.isalpha): only a letter makes a word token."""

    __slots__ = ()

    def __new__(cls, doc_id: str, year: int, domain: str, paragraphs: list[str],
                journal: str = ""):
        try:
            check_doc_id(doc_id)
        except ValueError as exc:
            raise MissingMetadata(str(exc)) from None
        try:
            check_year(year)
        except ValueError as exc:
            raise MissingMetadata(f"{exc} for {doc_id!r}") from None
        paragraphs = [p.strip() for p in paragraphs if p.strip()]
        if not any(char.isalpha() for p in paragraphs for char in p):
            raise MissingMetadata(f"no paragraph with a letter for {doc_id!r}")
        return super().__new__(cls, doc_id, year, domain, paragraphs, journal)


class AbbreviationTable:
    """Mapping from abbreviation surface form (with trailing period) to expansion.

    Keys must end with "." and expansions must not contain ".", so no
    expansion holds a whole key. A key must not start with white space,
    which never matches right after a word. A key can still form where an
    expansion meets the text after it: with {"x.": "a", "ab.": "Z"}, "x.b."
    becomes "ab.", which a second rewrite turns into "Z". Whether the
    rewrite is idempotent depends on the table; tests check it for the
    default table.
    """

    def __init__(self, entries: dict[str, str] | None = None):
        self.entries = dict(DEFAULT_ABBREVIATIONS if entries is None else entries)
        for key, expansion in self.entries.items():
            _check_entry(key, expansion)
        # Longest key first so that e.g. "et al." wins over a bare "al.".
        alternation = "|".join(map(re.escape, sorted(self.entries, key=len, reverse=True)))
        self._pattern = re.compile(r"(?<![\w.])(?:%s)" % alternation) if alternation else None

    @classmethod
    def from_file(cls, path: str | Path) -> "AbbreviationTable":
        """Load a table from a two-column key TAB expansion text file. A
        line that has no TAB, holds an entry the table rejects or repeats
        an earlier line's key is a FormatError naming the file and the line."""
        path = Path(path)
        entries: dict[str, str] = {}
        for lineno, line in read_lines(path):
            if not line.strip() or line.startswith("#"):
                continue
            try:
                if "\t" not in line:
                    raise ValueError("expected key TAB expansion")
                key, expansion = line.split("\t", 1)
                expansion = expansion.strip()
                _check_entry(key, expansion)
                if key in entries:
                    raise ValueError(f"abbreviation key {key!r} is repeated")
            except ValueError as exc:
                raise FormatError(lineno, f"{readable_name(path.name)}: {exc}") from None
            entries[key] = expansion
        return cls(entries)


def _check_entry(key: str, expansion: str) -> None:
    if not key.endswith("."):
        raise ValueError(f"abbreviation key {key!r} must end with '.'")
    if key[:1].isspace():
        raise ValueError(f"abbreviation key {key!r} starts with white space")
    if "." in expansion:
        raise ValueError(f"expansion {expansion!r} for {key!r} contains '.'")


def normalize_abbreviations(text: str, table: AbbreviationTable) -> str:
    """Replace every word-boundary occurrence of a table key by its expansion.

    Matching is longest-first. A second rewrite can change the result
    when a key forms across the edge of an expansion (see
    AbbreviationTable); with the default table it does not.
    """
    if table._pattern is None:
        return text
    return table._pattern.sub(lambda m: table.entries[m.group(0)], text)


# Local-name chains of the id, year, domain and journal fields, in that
# order. An element is a candidate for a field when its local name is the
# chain's last name and the chain's other names appear, in order, among its
# ancestors below the root element. Each field takes its first candidate in
# document order; the id takes the first candidate whose pub-id-type is
# PREFERRED_ID_TYPE, if one has a text.
FIELD_CHAINS = (
    ("front", "article-meta", "article-id"),
    ("front", "article-meta", "pub-date", "year"),
    ("front", "article-meta", "article-categories", "subj-group", "subject"),
    ("front", "journal-meta", "journal-title"),
)
PREFERRED_ID_TYPE = "doi"
# An element of any other name advances no chain and is no candidate.
_CHAIN_NAMES = frozenset(name for chain in FIELD_CHAINS for name in chain)


def _local(tag) -> str:
    # ElementTree renders namespaced tags as "{uri}name".
    return tag.rpartition("}")[2] if isinstance(tag, str) else ""


def _element_text(elem: ElementTree.Element) -> str:
    return "".join(elem.itertext())


def _walk(root: ElementTree.Element) -> tuple[list[list[ElementTree.Element]], list[str]]:
    """One pass over the tree in document order, on an explicit stack so
    that any depth of nesting parses: the candidates for each chain of
    FIELD_CHAINS, and the text of every <p> element that is not inside
    another <p> (a nested <p> is already part of that text), inline markup
    stripped."""
    candidates: list[list[ElementTree.Element]] = [[] for _ in FIELD_CHAINS]
    paragraphs: list[str] = []
    in_p = _local(root.tag) == "p"
    if in_p:
        paragraphs.append(_element_text(root))
    # One entry per open element: its children still to visit; matched[i],
    # how many names of chain i, short of its last, it and its ancestors
    # below the root hold, matched greedily; whether it is or is inside a <p>.
    stack = [(iter(root), [0] * len(FIELD_CHAINS), in_p)]
    while stack:
        children, matched, in_p = stack[-1]
        child = next(children, None)
        if child is None:
            stack.pop()
            continue
        name = _local(child.tag)
        step = matched
        if name in _CHAIN_NAMES:
            step = list(matched)
            for i, chain in enumerate(FIELD_CHAINS):
                if chain[matched[i]] == name:
                    if matched[i] + 1 == len(chain):
                        candidates[i].append(child)
                    else:
                        step[i] += 1
        if name == "p" and not in_p:
            paragraphs.append(_element_text(child))
        stack.append((iter(child), step, in_p or name == "p"))
    return candidates, paragraphs


def _first_text(nodes: list[ElementTree.Element]) -> str:
    return _element_text(nodes[0]).strip() if nodes else ""


def parse_jats(source: str | bytes) -> RawDocument:
    """Parse one article XML document into a RawDocument.

    Pass a file's bytes so that the parser decodes them: it honours the
    XML encoding declaration and reads UTF-8 when there is none. Bytes
    that do not decode, and an unknown or multi-byte declared encoding,
    are MalformedXml. Paragraphs are exactly the text content of each
    outermost <p> element in document order, wherever it is in the file;
    entity references are decoded by the XML parser. Documents without a
    doc id, a publication year, or a letter in any paragraph are rejected
    rather than defaulted.
    """
    # Imported here, so that a stage that parses no XML does not load it.
    from xml.etree import ElementTree

    try:
        root = ElementTree.fromstring(source)
    # expat raises LookupError for an unknown declared encoding and
    # ValueError for a multi-byte one it cannot decode
    except (ElementTree.ParseError, LookupError, ValueError) as exc:
        raise MalformedXml(str(exc)) from exc
    (ids, years, domains, journals), paragraphs = _walk(root)

    preferred = [n for n in ids if n.get("pub-id-type") == PREFERRED_ID_TYPE]
    doc_id = _first_text(preferred) or _first_text(ids)
    try:
        year = parse_int(_first_text(years), max_digits=len(str(YEAR_MAX)))
    except ValueError:
        raise MissingMetadata(f"no usable year for {doc_id!r}") from None
    return RawDocument(doc_id=doc_id, year=year,
                       domain=_first_text(domains), paragraphs=paragraphs,
                       journal=_first_text(journals))


def document_to_json(doc: RawDocument) -> str:
    """Serialize one document as a JSON line with fixed field order."""
    return json.dumps({field: getattr(doc, field) for field in CORPUS_FIELDS},
                      ensure_ascii=False)


def document_from_json(line: str) -> RawDocument:
    """The document in one corpus line: a JSON object with exactly the
    CORPUS_FIELDS, where doc_id, domain and journal are strings, year is an
    integer (`parse_int`) and paragraphs is a list of strings, and every
    string is text that encodes as UTF-8 (a JSON escape can name a lone
    surrogate). Any other line is a ValueError."""
    record = json.loads(line, parse_int=parse_int)
    if not isinstance(record, dict) or set(record) != set(CORPUS_FIELDS):
        raise ValueError(f"want an object with the fields {', '.join(CORPUS_FIELDS)}")
    paragraphs = record["paragraphs"]
    if not (all(isinstance(record[field], str) for field in ("doc_id", "domain", "journal"))
            and type(record["year"]) is int
            and isinstance(paragraphs, list)
            and all(isinstance(p, str) for p in paragraphs)):
        raise ValueError("want string doc_id, domain and journal, integer year "
                         "and a list of string paragraphs")
    try:
        for text in (record["doc_id"], record["domain"], record["journal"], *paragraphs):
            text.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise ValueError(f"want UTF-8 text in every string: {exc.reason}") from None
    return RawDocument(**record)


def write_corpus(docs: Iterable[RawDocument], path: str | Path) -> int:
    """Write each document as one JSON line as it arrives, in the order
    given, keeping only the ids; return the count. The first repeated doc_id
    is MissingMetadata naming it, and the lines before it stay written."""
    seen: set[str] = set()
    with open(path, "w", encoding="utf-8") as fh:
        for doc in docs:
            if doc.doc_id in seen:
                raise MissingMetadata(f"duplicate doc_id {doc.doc_id!r}")
            seen.add(doc.doc_id)
            fh.write(document_to_json(doc) + "\n")
    return len(seen)


def corpus_lines(path: str | Path) -> Iterator[tuple[int, str]]:
    """Yield (line number, text) for each non-blank line of a corpus file as
    it is read, undecoded."""
    return ((lineno, line) for lineno, line in read_lines(Path(path)) if line.strip())


def decode_corpus_line(path: str | Path, lineno: int, line: str) -> RawDocument:
    """The document in line lineno of a corpus file. A line that is not a
    document record (bad or too deeply nested JSON, a missing, extra or
    mistyped field, a year out of range) is a FormatError naming the file
    and the line."""
    try:
        return document_from_json(line)
    except (ValueError, RecursionError, MissingMetadata) as exc:
        raise FormatError(lineno, f"{readable_name(Path(path).name)}: not a document record: "
                                  f"{type(exc).__name__}: {exc}") from None


def read_corpus(path: str | Path) -> Iterator[RawDocument]:
    """Yield the documents of a corpus file as its lines are read and
    decoded (`corpus_lines`, `decode_corpus_line`)."""
    for lineno, line in corpus_lines(path):
        yield decode_corpus_line(path, lineno, line)
