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

The order x1..x12 is stated once: it is the field order of
`ComplexityProfile` after doc_id, so a profile is its profiles.csv row as
it stands.

`complexity_profile` makes one accumulator pass per document over each
sentence's tokens and parallel tags: integer sums per fine tag and a set of
surfaces, folded into lexical classes once per document, then one division
per variable.

The statistics read `profiles.csv` back one row at a time (`profile_cells`),
with NaN marking Absent, and keep only the rows that have a score
(`reports.join_scores`).
"""

from __future__ import annotations

import math

from .errors import EmptyDocument
from .ingest import _record, check_doc_id
from .tableio import parse_finite
from .tagging import LexClass, TaggedDocument, coarsen_tag

# CSV column order for the profile table (after doc_id).
VARIABLE_COLUMNS = ("x1", "x2", "x3", "x4", "x5", "x6", "x7", "x8",
                    "x9", "x10", "x11", "x12")


class ComplexityProfile(_record(
        "doc_id mean_sentence_length sd_sentence_length clause_ratio ttr "
        "noun_length verb_length adj_length adv_length "
        "noun_ratio verb_ratio adj_ratio adv_ratio")):
    """All 12 variables for one article: the fields after doc_id are x1..x12,
    in that order. None marks an Absent sophistication value (the lexical
    class had no tokens). A doc id that `check_doc_id` refuses is a
    ValueError, however the profile is built."""

    __slots__ = ()

    def __new__(cls, doc_id: str, *variables: float | None, **named: float | None):
        return super().__new__(cls, check_doc_id(doc_id), *variables, **named)


def complexity_profile(doc: TaggedDocument) -> ComplexityProfile:
    """Assemble all 12 variables for one document in one pass over it.

    The pass keeps integer sums only (word tokens of each retained sentence,
    clauses, word tokens and alphabetic characters per fine tag) plus the
    set of word surfaces, lowercased once each at the end; the tag sums are
    folded into lexical classes once, and each variable is one division at
    the end. A sentence without word tokens is not retained for x1-x3.
    """
    lengths: list[int] = []  # word tokens of each retained sentence
    clauses = 0
    surfaces: set[str] = set()
    words_by_tag: dict[str, int] = {}
    chars_by_tag: dict[str, int] = {}
    for sentence in doc.sentences:
        n_words = 0
        for token, tag in zip(sentence.tokens, sentence.tags):
            if token.is_word:
                n_words += 1
                surfaces.add(token.surface)
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

    types = {surface.lower() for surface in surfaces}
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


def profile_cells(row: list[str]) -> list[float]:
    """x1..x12 of one profiles.csv row: an empty cell is Absent (NaN); any
    other cell must be a finite number, else ValueError."""
    return [math.nan if cell == "" else parse_finite(cell) for cell in row[1:]]
