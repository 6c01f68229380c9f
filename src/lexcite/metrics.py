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

`complexity_profile` makes one accumulator pass per document: integer sums
and a set of surfaces, then one division per variable. Tokens within a
document are interned (see `lexcite.tagging`), so many tokens it reads are
the same immutable object.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import EmptyDocument
from .tagging import LexClass, TaggedDocument

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

VARIABLE_LABELS = {
    "x1": "mean sentence length",
    "x2": "sd sentence length",
    "x3": "clause ratio",
    "x4": "type-token ratio",
    "x5": "noun length",
    "x6": "verb length",
    "x7": "adjective length",
    "x8": "adverb length",
    "x9": "noun ratio",
    "x10": "verb ratio",
    "x11": "adjective ratio",
    "x12": "adverb ratio",
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

    def value(self, column: str) -> float | None:
        return getattr(self, VARIABLE_FIELDS[column])

    def values(self) -> list[float | None]:
        return [self.value(c) for c in VARIABLE_COLUMNS]

    def has_absent(self) -> bool:
        return any(v is None for v in self.values())


def complexity_profile(doc: TaggedDocument) -> ComplexityProfile:
    """Assemble all 12 variables for one document in one pass over it.

    The pass keeps integer sums only (words per retained sentence, clauses,
    word tokens and alphabetic characters per lexical class) plus the set
    of lowercased word surfaces; each variable is one division at the end.
    A sentence without word tokens is not retained for x1-x3.
    """
    lengths: list[int] = []  # word tokens of each retained sentence
    clauses = 0
    types: set[str] = set()
    words_in = dict.fromkeys(LexClass, 0)
    chars_in = dict.fromkeys(LexClass, 0)
    for sentence in doc.sentences:
        if sentence.word_count >= 1:
            lengths.append(sentence.word_count)
            clauses += sentence.clause_count
        for tt in sentence.tokens:
            token = tt.token
            if token.is_word:
                types.add(token.surface.lower())
                words_in[tt.lex_class] += 1
                chars_in[tt.lex_class] += token.char_length
    if not lengths:
        raise EmptyDocument(f"document {doc.doc_id!r} has no sentence with a word token")

    n = len(lengths)
    mean_len = sum(lengths) / n
    sd_len = 0.0 if n == 1 else math.sqrt(
        sum((c - mean_len) ** 2 for c in lengths) / (n - 1))
    words = sum(words_in.values())

    def length(lex_class: LexClass) -> float | None:
        count = words_in[lex_class]
        return chars_in[lex_class] / count if count else None

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


def profile_from_row(row: list[str]) -> ComplexityProfile:
    values = [float(cell) if cell != "" else None for cell in row[1:13]]
    kwargs = {VARIABLE_FIELDS[c]: v for c, v in zip(VARIABLE_COLUMNS, values)}
    return ComplexityProfile(doc_id=row[0], **kwargs)
