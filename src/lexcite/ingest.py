"""Full-text article ingestion.

Parses structured article XML into plain-text paragraph documents and
rewrites abbreviations to their full forms so that sentence segmentation
downstream does not split on abbreviation periods.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable
from xml.etree import ElementTree

from .errors import FormatError, MalformedXml, MissingMetadata

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


@dataclass
class RawDocument:
    """One ingested article: metadata plus ordered body paragraphs."""

    doc_id: str
    year: int
    domain: str
    paragraphs: list[str]
    journal: str = ""

    def __post_init__(self):
        if not self.doc_id:
            raise MissingMetadata("empty doc_id")
        if not YEAR_MIN <= self.year <= YEAR_MAX:
            raise MissingMetadata(f"year {self.year} outside [{YEAR_MIN}, {YEAR_MAX}]")
        self.paragraphs = [p.strip() for p in self.paragraphs if p.strip()]


class AbbreviationTable:
    """Mapping from abbreviation surface form (with trailing period) to expansion.

    Keys must end with "." and expansions must not contain "." so that a
    rewritten text cannot re-trigger another key (which keeps the rewrite
    idempotent).
    """

    def __init__(self, entries: dict[str, str] | None = None):
        self.entries = dict(DEFAULT_ABBREVIATIONS if entries is None else entries)
        for key, expansion in self.entries.items():
            _check_entry(key, expansion)
        # Longest key first so that e.g. "et al." wins over a bare "al.".
        ordered = sorted(self.entries, key=len, reverse=True)
        if ordered:
            alternation = "|".join(re.escape(k) for k in ordered)
            self._pattern = re.compile(r"(?<![\w.])(?:%s)" % alternation)
        else:
            self._pattern = None

    @classmethod
    def from_file(cls, path: str | Path) -> "AbbreviationTable":
        """Load a table from a two-column key TAB expansion UTF-8 text file.
        A line that does not decode, has no TAB, or holds an entry the table
        rejects is a FormatError naming the line."""
        path = Path(path)
        entries: dict[str, str] = {}
        for lineno, raw in enumerate(path.read_bytes().splitlines(), 1):
            try:
                line = raw.decode("utf-8")
                if not line.strip() or line.startswith("#"):
                    continue
                if "\t" not in line:
                    raise ValueError("expected key TAB expansion")
                key, expansion = line.split("\t", 1)
                expansion = expansion.strip()
                _check_entry(key, expansion)
            except ValueError as exc:
                raise FormatError(lineno, f"{path.name}: {exc}") from None
            entries[key] = expansion
        return cls(entries)


def _check_entry(key: str, expansion: str) -> None:
    if not key.endswith("."):
        raise ValueError(f"abbreviation key {key!r} must end with '.'")
    if "." in expansion:
        raise ValueError(f"expansion {expansion!r} for {key!r} contains '.'")


def normalize_abbreviations(text: str, table: AbbreviationTable) -> str:
    """Replace every word-boundary occurrence of a table key by its expansion.

    Matching is longest-first. The rewrite is idempotent as long as
    expansions contain no keys, which the table validation guarantees for
    any single-table round trip.
    """
    if table._pattern is None:
        return text
    return table._pattern.sub(lambda m: table.entries[m.group(0)], text)


@dataclass
class MetadataPaths:
    """Element paths (local-name chains) used to pull article metadata."""

    doc_id: tuple[str, ...] = ("front", "article-meta", "article-id")
    year: tuple[str, ...] = ("front", "article-meta", "pub-date", "year")
    domain: tuple[str, ...] = ("front", "article-meta", "article-categories",
                               "subj-group", "subject")
    journal: tuple[str, ...] = ("front", "journal-meta", "journal-title")
    preferred_id_type: str = "doi"


def _local(tag) -> str:
    # ElementTree renders namespaced tags as "{uri}name".
    return tag.rpartition("}")[2] if isinstance(tag, str) else ""


def _find_path(root: ElementTree.Element, path: tuple[str, ...]) -> list[ElementTree.Element]:
    """All elements reachable by the local-name chain, in document order."""
    nodes = [root]
    for name in path:
        nxt = []
        for node in nodes:
            for child in node.iter():
                if child is not node and _local(child.tag) == name:
                    nxt.append(child)
        # Restrict each step to descendants; duplicates cannot arise because
        # iter() of distinct subtrees only overlaps when nested, and nesting
        # of the same local name along metadata paths does not occur in
        # practice. Deduplicate defensively all the same.
        seen = set()
        nodes = [n for n in nxt if id(n) not in seen and not seen.add(id(n))]
    return nodes


def _element_text(elem: ElementTree.Element) -> str:
    return "".join(elem.itertext())


def _collect_paragraphs(root: ElementTree.Element) -> list[str]:
    """Text of every <p> element in document order, inline markup stripped.

    A <p> nested inside another <p> is not emitted separately; its text is
    already part of the enclosing paragraph.
    """
    paragraphs: list[str] = []

    def walk(node):
        for child in node:
            if _local(child.tag) == "p":
                paragraphs.append(_element_text(child))
            else:
                walk(child)

    if _local(root.tag) == "p":
        paragraphs.append(_element_text(root))
    else:
        walk(root)
    return paragraphs


def parse_jats(source: str | bytes, paths: MetadataPaths | None = None) -> RawDocument:
    """Parse one article XML document into a RawDocument.

    Pass a file's bytes so that the parser decodes them: it honours the
    XML encoding declaration and reads UTF-8 when there is none. Bytes
    that do not decode, and an unknown or multi-byte declared encoding,
    are MalformedXml. Paragraphs are exactly the text content of each <p>
    element in document order; entity references are decoded by the XML
    parser. Documents without a doc id, a publication year, or any
    paragraph content are rejected rather than defaulted.
    """
    paths = paths or MetadataPaths()
    try:
        root = ElementTree.fromstring(source)
    # expat raises LookupError for an unknown declared encoding and
    # ValueError for a multi-byte one it cannot decode
    except (ElementTree.ParseError, LookupError, ValueError) as exc:
        raise MalformedXml(str(exc)) from exc

    id_nodes = _find_path(root, paths.doc_id)
    doc_id = ""
    for node in id_nodes:
        if node.get("pub-id-type") == paths.preferred_id_type:
            doc_id = _element_text(node).strip()
            break
    if not doc_id and id_nodes:
        doc_id = _element_text(id_nodes[0]).strip()
    if not doc_id:
        raise MissingMetadata("no doc_id element found")

    year_nodes = _find_path(root, paths.year)
    year_text = _element_text(year_nodes[0]).strip() if year_nodes else ""
    if not year_text.isdigit():
        raise MissingMetadata(f"no usable year for {doc_id!r}")
    year = int(year_text)
    if not YEAR_MIN <= year <= YEAR_MAX:
        raise MissingMetadata(f"year {year} outside [{YEAR_MIN}, {YEAR_MAX}] for {doc_id!r}")

    domain_nodes = _find_path(root, paths.domain)
    domain = _element_text(domain_nodes[0]).strip() if domain_nodes else ""
    journal_nodes = _find_path(root, paths.journal)
    journal = _element_text(journal_nodes[0]).strip() if journal_nodes else ""

    paragraphs = [p.strip() for p in _collect_paragraphs(root) if p.strip()]
    if not paragraphs:
        raise MissingMetadata(f"no <p> paragraph content for {doc_id!r}")

    return RawDocument(doc_id=doc_id, year=year, domain=domain,
                       paragraphs=paragraphs, journal=journal)


def document_to_json(doc: RawDocument) -> str:
    """Serialize one document as a JSON line with fixed field order."""
    record = {
        "doc_id": doc.doc_id,
        "year": doc.year,
        "domain": doc.domain,
        "journal": doc.journal,
        "paragraphs": doc.paragraphs,
    }
    return json.dumps(record, ensure_ascii=False)


def document_from_json(line: str) -> RawDocument:
    record = json.loads(line)
    return RawDocument(
        doc_id=record["doc_id"],
        year=record["year"],
        domain=record.get("domain", ""),
        paragraphs=record["paragraphs"],
        journal=record.get("journal", ""),
    )


def write_corpus(docs: Iterable[RawDocument], path: str | Path) -> int:
    """Write documents as line-delimited JSON in sorted doc_id order."""
    ordered = sorted(docs, key=lambda d: d.doc_id)
    ids = [d.doc_id for d in ordered]
    if len(set(ids)) != len(ids):
        dupes = sorted({i for i in ids if ids.count(i) > 1})
        raise MissingMetadata(f"duplicate doc_id values: {dupes}")
    with open(path, "w", encoding="utf-8") as fh:
        for doc in ordered:
            fh.write(document_to_json(doc) + "\n")
    return len(ordered)


def read_corpus(path: str | Path) -> list[RawDocument]:
    """The documents of a corpus file. A line that is not a UTF-8 document
    record (bad bytes, bad JSON, a missing field, a year out of range) is a
    FormatError naming the line."""
    path = Path(path)
    docs = []
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, 1):
            try:
                line = raw.decode("utf-8")
                if line.strip():
                    docs.append(document_from_json(line))
            except (ValueError, KeyError, TypeError, MissingMetadata) as exc:
                raise FormatError(lineno, f"{path.name}: not a document record: "
                                          f"{type(exc).__name__}: {exc}") from None
    return docs
