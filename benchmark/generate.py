"""Seeded input generators for the three benchmark workloads.

Each generator writes only the files lexcite reads and returns a `Planted`
record of what it put there, which the output checks compare against. The
same (seed, size) always writes byte-identical files.

    fulltext-run   article XML corpus + citations.csv
    tagged-import  external-tagger TSVs + citations.csv
    stats-rerun    profiles.csv + citations.csv

The article text reuses the sentence templates of tools/gen_minicorpus.py
(imported, never run: its main() overwrites the bundled package data).
"""

from __future__ import annotations

import csv
import importlib.util
import io
import random
import re
from dataclasses import dataclass, field
from pathlib import Path

YEARS = (2009, 2010, 2011, 2012, 2013)
DOMAINS = ("Ecology", "Genetics", "Psychology")

# Words outside ASCII, planted into a small share of sentences.
NON_ASCII_WORDS = ("naïve", "Müller", "β-cells", "Zürich", "façade",
                   "Søren", "coöperation", "élite", "Ångström", "Gödel")

# Article lengths per block of ten documents: a fixed mix keeps the total
# token count nearly the same for every seed.
LENGTH_MIX = ("short",) * 3 + ("medium",) * 5 + ("long",) * 2

ZERO_CITATION_SHARE = 0.05


@dataclass
class Planted:
    """What a generator wrote: the counts the output checks expect."""

    documents: int
    rejects: list[str] = field(default_factory=list)
    cells: dict[str, tuple[int, str]] = field(default_factory=dict)

    @property
    def profiles(self) -> int:
        return self.documents - len(self.rejects)


def load_templates(root: Path):
    """Import tools/gen_minicorpus.py as a module without running main()."""
    path = root / "tools" / "gen_minicorpus.py"
    spec = importlib.util.spec_from_file_location("bench_gen_minicorpus", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _cell_layout(rng: random.Random, n_docs: int) -> list[tuple[int, str]]:
    """(year, domain) per document: round-robin, then shuffled."""
    cells = [(YEARS[i % len(YEARS)], DOMAINS[(i // len(YEARS)) % len(DOMAINS)])
             for i in range(n_docs)]
    rng.shuffle(cells)
    return cells


def _citation_counts(rng: random.Random, cells: list[tuple[int, str]]) -> list[int]:
    """Lognormal counts with about 5% zeros; the first document of every
    cell is cited at least once, so no (year, domain) baseline is zero."""
    seen: set[tuple[int, str]] = set()
    counts = []
    for cell in cells:
        if cell in seen and rng.random() < ZERO_CITATION_SHARE:
            counts.append(0)
        else:
            counts.append(max(1, int(rng.lognormvariate(1.6, 1.0))))
        seen.add(cell)
    return counts


def _write_citations(path: Path, ids: list[str], cells: list[tuple[int, str]],
                     counts: list[int]) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow(["doc_id", "year", "domain", "total_citations"])
    for doc_id, (year, domain), count in sorted(zip(ids, cells, counts)):
        writer.writerow([doc_id, year, domain, count])
    path.write_bytes(buf.getvalue().encode("utf-8"))


def _length_plan(rng: random.Random, n_docs: int) -> list[str]:
    plan = [LENGTH_MIX[i % len(LENGTH_MIX)] for i in range(n_docs)]
    rng.shuffle(plan)
    return plan


def _plant_non_ascii(rng: random.Random, sentence: str) -> str:
    """Replace one mid-sentence lowercase word with a non-ASCII word."""
    words = sentence.split(" ")
    slots = [i for i in range(1, len(words) - 1) if words[i].isalpha()]
    if slots:
        words[rng.choice(slots)] = rng.choice(NON_ASCII_WORDS)
    return " ".join(words)


def _article_paragraphs(rng: random.Random, tpl, domain: str, length: str) -> list[list[str]]:
    paragraphs = tpl.build_paragraphs(rng, domain, adverb_free=False)
    if length == "short":
        return paragraphs[:2]
    if length == "long":
        for _ in range(2):
            paragraphs += tpl.build_paragraphs(rng, domain, adverb_free=False)
    return paragraphs


def generate_fulltext(root: Path, dest: Path, seed: int, n_docs: int) -> Planted:
    """Article XML files plus citations.csv.

    About 1% of the files are planted rejects, half malformed XML and half
    without a publication year. About 2% of sentences carry a non-ASCII word.
    """
    tpl = load_templates(root)
    rng = random.Random(seed)
    dest.mkdir(parents=True, exist_ok=True)
    cells = _cell_layout(rng, n_docs)
    lengths = _length_plan(rng, n_docs)
    n_rejects = max(2, round(n_docs / 100))
    reject_at = set(rng.sample(range(n_docs), n_rejects))
    planted = Planted(documents=n_docs)
    ids = []
    serial: dict[tuple[int, str], int] = {}
    for i, ((year, domain), length) in enumerate(zip(cells, lengths)):
        prefix, journal = tpl.DOMAINS[domain]
        serial[(year, domain)] = serial.get((year, domain), 0) + 1
        doc_id = f"{prefix}.{year}.{serial[(year, domain)]:04d}"
        ids.append(doc_id)
        planted.cells[doc_id] = (year, domain)
        paragraphs = [[_plant_non_ascii(rng, s) if rng.random() < 0.02 else s
                       for s in para]
                      for para in _article_paragraphs(rng, tpl, domain, length)]
        xml = tpl.article_xml(rng, doc_id, year, domain, journal, paragraphs)
        if i in reject_at:
            planted.rejects.append(doc_id)
            if len(planted.rejects) % 2:
                xml = xml[: len(xml) // 2]  # truncated: malformed XML
            else:
                xml = re.sub(r"\s*<pub-date>.*?</pub-date>", "", xml, flags=re.S)
        (dest / f"{doc_id}.xml").write_bytes(xml.encode("utf-8"))
    _write_citations(dest / "citations.csv", ids, cells, _citation_counts(rng, cells))
    return planted


# --- external-tagger TSVs ----------------------------------------------------

VOCAB = {
    "DT": ("the", "a", "this", "each", "every", "that"),
    "NN": ("sample", "effect", "pattern", "model", "rate", "value", "group",
           "site", "signal", "response", "season", "treatment", "density",
           "variance", "protocol", "estimate", "threshold", "cohort"),
    "NNS": ("samples", "effects", "patterns", "models", "rates", "values",
            "groups", "sites", "signals", "responses", "β-cells", "plots"),
    "NNP": ("Müller", "Zürich", "Garcia", "Lee", "Smith"),
    "JJ": ("strong", "moderate", "clear", "stable", "significant", "robust",
           "seasonal", "regional", "naïve", "consistent", "independent"),
    "RB": ("strongly", "clearly", "consistently", "also", "rarely", "only",
           "substantially", "slightly"),
    "VBD": ("increased", "declined", "showed", "measured", "exceeded",
            "varied", "remained", "differed"),
    "VBZ": ("shows", "suggests", "indicates", "remains", "depends", "varies"),
    "VBP": ("show", "suggest", "indicate", "remain", "depend", "vary"),
    "VB": ("increase", "reduce", "explain", "affect", "alter"),
    "MD": ("may", "can", "could", "might"),
    "IN": ("in", "of", "across", "during", "between", "under", "after", "within"),
    "CC": ("and", "but"),
}


def _noun_phrase(rng: random.Random) -> list[tuple[str, str]]:
    phrase = [("the", "DT") if rng.random() < 0.5 else (rng.choice(VOCAB["DT"]), "DT")]
    if rng.random() < 0.5:
        phrase.append((rng.choice(VOCAB["JJ"]), "JJ"))
    tag = rng.choice(("NN", "NN", "NNS", "NNP"))
    phrase.append((rng.choice(VOCAB[tag]), tag))
    return phrase


def _clause(rng: random.Random) -> list[tuple[str, str]]:
    tokens = _noun_phrase(rng)
    if rng.random() < 0.15:
        tokens += [(rng.choice(VOCAB["MD"]), "MD"), (rng.choice(VOCAB["VB"]), "VB")]
    else:
        tag = rng.choice(("VBD", "VBD", "VBZ", "VBP"))
        tokens.append((rng.choice(VOCAB[tag]), tag))
    if rng.random() < 0.4:
        tokens.append((rng.choice(VOCAB["RB"]), "RB"))
    for _ in range(rng.randint(1, 3)):
        tokens.append((rng.choice(VOCAB["IN"]), "IN"))
        tokens += _noun_phrase(rng)
    if rng.random() < 0.2:
        tokens += [("(", "("), (str(rng.randint(2, 99)), "CD"), (")", ")")]
    return tokens


def _tagged_sentence(rng: random.Random) -> tuple[list[tuple[str, str]], int]:
    """A long multi-clause sentence and its clause count."""
    n_clauses = rng.randint(2, 4)
    tokens = _clause(rng)
    for _ in range(n_clauses - 1):
        tokens += [(",", ","), (rng.choice(VOCAB["CC"]), "CC")] + _clause(rng)
    word, tag = tokens[0]
    tokens[0] = (word[0].upper() + word[1:], tag)
    tokens.append((".", "."))
    return tokens, n_clauses


def generate_tagged(dest: Path, seed: int, n_docs: int) -> Planted:
    """External-tagger TSVs (tagged/<doc>.tsv) plus citations.csv.

    Sentences average about 40 tokens; about 10% carry a #clauses= line.
    """
    rng = random.Random(seed)
    tagged = dest / "tagged"
    tagged.mkdir(parents=True, exist_ok=True)
    cells = _cell_layout(rng, n_docs)
    lengths = _length_plan(rng, n_docs)
    sentences_for = {"short": 4, "medium": 10, "long": 24}
    planted = Planted(documents=n_docs)
    ids = []
    for i, ((year, domain), length) in enumerate(zip(cells, lengths)):
        doc_id = f"EXT.{domain[:3].upper()}.{year}.{i:05d}"
        ids.append(doc_id)
        planted.cells[doc_id] = (year, domain)
        lines = [f"#doc={doc_id}"]
        for _ in range(sentences_for[length]):
            tokens, n_clauses = _tagged_sentence(rng)
            if rng.random() < 0.1:
                lines.append(f"#clauses={n_clauses}")
            lines += [f"{word}\t{tag}" for word, tag in tokens]
            lines.append("")
        (tagged / f"{doc_id}.tsv").write_bytes("\n".join(lines).encode("utf-8"))
    _write_citations(dest / "citations.csv", ids, cells, _citation_counts(rng, cells))
    return planted


# --- profiles.csv ------------------------------------------------------------

ABSENT_SHARE = 0.02


def _profile_row(rng: random.Random, doc_id: str) -> list[object]:
    absent = rng.random() < ABSENT_SHARE
    return [
        doc_id,
        max(2.0, rng.gauss(22.0, 4.0)),
        abs(rng.gauss(8.0, 2.0)),
        rng.uniform(1.0, 2.5),
        rng.uniform(0.3, 0.7),
        rng.gauss(6.0, 0.8),
        rng.gauss(6.5, 0.8),
        rng.gauss(7.0, 1.0),
        "" if absent else rng.gauss(6.5, 1.0),
        rng.uniform(0.25, 0.35),
        rng.uniform(0.10, 0.20),
        rng.uniform(0.05, 0.12),
        0.0 if absent else rng.uniform(0.01, 0.05),
    ]


def generate_profiles(dest: Path, seed: int, n_docs: int) -> Planted:
    """profiles.csv (Absent cells in the adverb-length column x8) plus
    citations.csv (about 5% zero citations)."""
    rng = random.Random(seed)
    dest.mkdir(parents=True, exist_ok=True)
    cells = _cell_layout(rng, n_docs)
    ids = [f"P.{i:06d}" for i in range(n_docs)]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow(["doc_id"] + [f"x{k}" for k in range(1, 13)])
    for doc_id in ids:
        writer.writerow([repr(v) if isinstance(v, float) else v
                         for v in _profile_row(rng, doc_id)])
    (dest / "profiles.csv").write_bytes(buf.getvalue().encode("utf-8"))
    _write_citations(dest / "citations.csv", ids, cells, _citation_counts(rng, cells))
    return Planted(documents=n_docs, cells=dict(zip(ids, cells)))
