"""The 12 per-article linguistic-complexity variables.

Syntactic side: mean and standard deviation of sentence length (words per
sentence) and the clause ratio. Lexical side: type/token ratio, mean word
length per lexical class (sophistication), and the share of word tokens per
lexical class (density).

Conventions, recorded in output metadata so alternates can be compared:
sentence length counts word tokens only; the standard deviation uses the
n-1 denominator (0 for single-sentence documents); TTR lowercases surfaces
and removes no stopwords; word length counts alphabetic characters only; a
lexical class with no tokens yields an Absent value, not 0.

`complexity_profile` makes one accumulator pass per document over each
sentence's tokens and parallel tags: integer sums per fine tag and a set of
surfaces, folded into lexical classes once per document, then one division
per variable.

The statistics read `profiles.csv` back as one `ProfileMatrix`: the doc ids
in file row order plus an n x 12 float64 array, with NaN marking Absent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import EmptyDocument
from .tableio import parse_finite
from .tagging import LexClass, TaggedDocument, coarsen_tag

if TYPE_CHECKING:
    import numpy as np

# CSV column order for the profile table (after doc_id).
VARIABLE_COLUMNS = ("x1", "x2", "x3", "x4", "x5", "x6", "x7", "x8",
                    "x9", "x10", "x11", "x12")

VARIABLE_FIELDS = {
    "x1": "mean_sentence_length",
    "x2": "sd_sentence_length",
    "x3": "clause_ratio",
    "x4": "ttr",
    "x5": "noun_length",
    "x6": "verb_length",
    "x7": "adj_length",
    "x8": "adv_length",
    "x9": "noun_ratio",
    "x10": "verb_ratio",
    "x11": "adj_ratio",
    "x12": "adv_ratio",
}


@dataclass
class ComplexityProfile:
    """All 12 variables for one article. None marks an Absent sophistication
    value (the lexical class had no tokens)."""

    doc_id: str
    mean_sentence_length: float
    sd_sentence_length: float
    clause_ratio: float
    ttr: float
    noun_length: float | None
    verb_length: float | None
    adj_length: float | None
    adv_length: float | None
    noun_ratio: float
    verb_ratio: float
    adj_ratio: float
    adv_ratio: float

    def values(self) -> list[float | None]:
        return [getattr(self, VARIABLE_FIELDS[c]) for c in VARIABLE_COLUMNS]


@dataclass(frozen=True, eq=False)
class ProfileMatrix:
    """The profile table as one array: row i holds x1..x12 of doc_ids[i],
    in file row order, with NaN marking an Absent value."""

    doc_ids: tuple[str, ...]
    values: np.ndarray  # shape (len(doc_ids), 12), float64


def complexity_profile(doc: TaggedDocument) -> ComplexityProfile:
    """Assemble all 12 variables for one document in one pass over it.

    The pass keeps integer sums only (word tokens of each retained sentence,
    clauses, word tokens and alphabetic characters per fine tag) plus the
    set of lowercased word surfaces; the tag sums are folded into lexical
    classes once, and each variable is one division at the end. A sentence
    without word tokens is not retained for x1-x3.
    """
    lengths: list[int] = []  # word tokens of each retained sentence
    clauses = 0
    types: set[str] = set()
    words_by_tag: dict[str, int] = {}
    chars_by_tag: dict[str, int] = {}
    for sentence in doc.sentences:
        n_words = 0
        for token, tag in zip(sentence.tokens, sentence.tags):
            if token.is_word:
                n_words += 1
                types.add(token.surface.lower())
                words_by_tag[tag] = words_by_tag.get(tag, 0) + 1
                chars_by_tag[tag] = chars_by_tag.get(tag, 0) + token.char_length
        if n_words:
            lengths.append(n_words)
            clauses += sentence.clause_count
    if not lengths:
        raise EmptyDocument(f"document {doc.doc_id!r} has no sentence with a word token")

    words_in = dict.fromkeys(LexClass, 0)
    chars_in = dict.fromkeys(LexClass, 0)
    for tag, count in words_by_tag.items():
        kind = coarsen_tag(tag)
        words_in[kind] += count
        chars_in[kind] += chars_by_tag[tag]

    n = len(lengths)
    words = sum(lengths)
    mean_len = words / n
    sd_len = 0.0 if n == 1 else math.sqrt(
        sum((c - mean_len) ** 2 for c in lengths) / (n - 1))

    def length(kind: LexClass) -> float | None:
        count = words_in[kind]
        return chars_in[kind] / count if count else None

    return ComplexityProfile(
        doc_id=doc.doc_id,
        mean_sentence_length=mean_len,
        sd_sentence_length=sd_len,
        clause_ratio=clauses / n,
        ttr=len(types) / words,
        noun_length=length(LexClass.NOUN),
        verb_length=length(LexClass.VERB),
        adj_length=length(LexClass.ADJECTIVE),
        adv_length=length(LexClass.ADVERB),
        noun_ratio=words_in[LexClass.NOUN] / words,
        verb_ratio=words_in[LexClass.VERB] / words,
        adj_ratio=words_in[LexClass.ADJECTIVE] / words,
        adv_ratio=words_in[LexClass.ADVERB] / words,
    )


def profile_to_row(profile: ComplexityProfile) -> list:
    return [profile.doc_id] + profile.values()


def profile_cells(row: list[str]) -> list[float]:
    """x1..x12 of one profiles.csv row: an empty cell is Absent (NaN); any
    other cell must be a finite number, else ValueError."""
    return [math.nan if cell == "" else parse_finite(cell) for cell in row[1:]]
