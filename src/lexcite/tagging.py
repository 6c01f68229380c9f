"""Sentence segmentation, tokenization, POS tagging, and clause counting.

The built-in tagger is a deterministic lexicon lookup (most frequent tag per
word from a bundled frequency list) with suffix fallback rules. Users who
need higher tagging accuracy can run an external tagger and feed its output
back in through the tagged-token column format (`import_tagged`).

A tagged sentence is its tokens plus a parallel list of fine tags.
Tokens are immutable and interned per document: `tag_document` and
`import_tagged` each keep one surface->Token table for one call, so every
repeat of a surface within a document shares one `Token`, built once.
Nothing is cached across documents. Coarse lexical classes are not stored;
`coarsen_tag` derives them from the tags when they are needed.
"""

from __future__ import annotations

import re
from enum import Enum
from pathlib import Path
from typing import NamedTuple, Protocol, Sequence

from .errors import FormatError, TaggerLengthMismatch
from .ingest import RawDocument
from .tableio import read_lines, read_utf8, readable_name


class LexClass(str, Enum):
    NOUN = "Noun"
    VERB = "Verb"
    ADJECTIVE = "Adjective"
    ADVERB = "Adverb"
    OTHER = "Other"


# Penn-Treebank fine tag -> coarse class; every other tag is Other.
_TAG_CLASSES = {
    **dict.fromkeys(("NN", "NNS", "NNP", "NNPS"), LexClass.NOUN),
    **dict.fromkeys(("VB", "VBD", "VBG", "VBN", "VBP", "VBZ"), LexClass.VERB),
    **dict.fromkeys(("JJ", "JJR", "JJS"), LexClass.ADJECTIVE),
    **dict.fromkeys(("RB", "RBR", "RBS"), LexClass.ADVERB),
}

# Finite-verb anchors for clause counting: past, 3rd-singular and non-3rd
# present forms carry tense; VB only counts when licensed by a modal.
_FINITE_TAGS = {"VBD", "VBZ", "VBP"}


class Token(NamedTuple):
    surface: str
    is_word: bool
    char_length: int

    @classmethod
    def from_surface(cls, surface: str) -> "Token":
        if not surface:
            raise ValueError("empty token surface")
        if surface.isalpha():  # every character is a letter
            return cls(surface, True, len(surface))
        letters = sum(map(str.isalpha, surface))
        return cls(surface, letters > 0, letters)


class TaggedSentence(NamedTuple):
    """tags[i] is the fine tag of tokens[i]."""

    tokens: list[Token]
    tags: list[str]
    clause_count: int


class TaggedDocument(NamedTuple):
    doc_id: str
    sentences: list[TaggedSentence]


class TaggerContract(Protocol):
    """Total function from a token sequence to an equal-length tag sequence.

    Implementations must be safe to call from concurrent contexts (the
    bundled tagger is stateless after construction).
    """

    def __call__(self, tokens: Sequence[Token]) -> Sequence[str]: ...


# Sentence boundary: terminator, whitespace, then an uppercase letter.
# A period between digits ("3.5") never has the required whitespace, so
# decimal points cannot split.
_BOUNDARY_RE = re.compile(r"(?<=[.!?])\s+(?=[A-Z])")

# Word cores keep internal hyphens/apostrophes; decimal numbers keep their
# point; any other non-space character becomes its own token.
_TOKEN_RE = re.compile(r"\d+(?:\.\d+)+|[A-Za-z0-9]+(?:[-'’][A-Za-z0-9]+)*|\S")


def segment_sentences(text: str) -> list[str]:
    """Split abbreviation-normalized text into sentence strings."""
    if not text.strip():
        return []
    return [part.strip() for part in _BOUNDARY_RE.split(text) if part.strip()]


def tokenize(sentence: str, interned: dict[str, Token] | None = None) -> list[Token]:
    """Split a sentence into word and punctuation tokens.

    Whitespace separates tokens; punctuation and symbol characters attached
    to a word are detached into their own tokens. Hyphenated words stay one
    token, as do decimal numbers. A token is a word iff it contains at least
    one letter.

    `interned` maps a surface to the Token already built for it;
    `tag_document` passes one dict per document, so each distinct surface
    is built once per document. Without it the table lasts one sentence.
    """
    if interned is None:
        interned = {}
    tokens = []
    for surface in _TOKEN_RE.findall(sentence):
        token = interned.get(surface)
        if token is None:
            token = interned[surface] = Token.from_surface(surface)
        tokens.append(token)
    return tokens


def coarsen_tag(tag: str) -> LexClass:
    """Collapse a Penn-Treebank-style tag into a coarse lexical class."""
    return _TAG_CLASSES.get(tag, LexClass.OTHER)


def count_clauses(tags: Sequence[str]) -> int:
    """Number of finite-verb anchors in a sentence's tag sequence.

    Each VBD/VBZ/VBP tag counts once. A modal (MD) counts once when a VB
    follows it before any finite tag. VBG/VBN alone never count.
    """
    count = 0
    open_modals = 0  # modals not yet matched by a VB or closed by a finite tag
    for tag in tags:
        if tag in _FINITE_TAGS:
            count += 1
            open_modals = 0
        elif tag == "VB":
            count += open_modals
            open_modals = 0
        elif tag == "MD":
            open_modals += 1
    return count


def tag_document(doc: RawDocument, tagger: TaggerContract) -> TaggedDocument:
    """Segment, tokenize, and tag a document whose text is already normalized.

    Sentences never span paragraph boundaries. A tagger that returns more
    or fewer tags than it was given tokens raises TaggerLengthMismatch.
    Build a tagger once and pass it to every call: a `LexiconTagger` reads
    its lexicon when it is built.
    """
    interned: dict[str, Token] = {}
    sentences = []
    for paragraph in doc.paragraphs:
        for sent_text in segment_sentences(paragraph):
            tokens = tokenize(sent_text, interned)
            tags = list(tagger(tokens))
            if len(tags) != len(tokens):
                raise TaggerLengthMismatch(
                    f"tagger returned {len(tags)} tags for {len(tokens)} tokens")
            sentences.append(TaggedSentence(tokens, tags, count_clauses(tags)))
    return TaggedDocument(doc_id=doc.doc_id, sentences=sentences)


# --- tagged-token column format ---------------------------------------------
#
# One "token TAB fine-tag" line per token, a blank line between sentences,
# and an optional "#clauses=N" line inside a sentence block that overrides
# the heuristic clause count. A "#doc=ID" line names the document. A line
# with a TAB is always a token line, so a token may start with "#". Lines
# end by the rule of every text input (tableio), so a token may hold any
# character but TAB, "\r" and "\n". The ID of a "#doc=" line may not be empty.

def read_tagged(path: str | Path) -> TaggedDocument:
    """The TaggedDocument in a UTF-8 column-format file, with the file stem as
    the doc id when no "#doc=" line names one. Bytes that are not UTF-8 are a
    FormatError naming the file and the line; so is a file with no "#doc="
    line whose stem is not UTF-8, as line 1, where that line would go."""
    path = Path(path)
    doc = import_tagged(read_utf8(path), doc_id=path.stem)
    try:
        doc.doc_id.encode("utf-8")  # only a stem can fail: the text decoded
    except UnicodeEncodeError:
        raise FormatError(1, f"{readable_name(path.name)}: no #doc= line, and the "
                             "file name is not UTF-8") from None
    return doc


def import_tagged(column_text: str, doc_id: str = "") -> TaggedDocument:
    """Reconstruct a TaggedDocument from tagged-token column text.

    Each distinct surface builds one Token per call; its repeats share it.
    """
    sentences: list[TaggedSentence] = []
    tokens: list[Token] = []
    tags: list[str] = []
    clause_override: int | None = None
    interned: dict[str, Token] = {}

    def close_block():
        nonlocal tokens, tags, clause_override
        if tokens:
            clauses = count_clauses(tags) if clause_override is None else clause_override
            sentences.append(TaggedSentence(tokens, tags, clauses))
        tokens, tags, clause_override = [], [], None

    lines = column_text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    for lineno, line in enumerate(lines, 1):
        if not line.strip():
            close_block()
            continue
        surface, tab, tag = line.partition("\t")
        if tab:
            if "\t" in tag:
                raise FormatError(
                    lineno, f"expected 2 tab-separated fields, got {line.count(tab) + 1}")
            if not surface:
                raise FormatError(lineno, "empty token surface")
            if not tag:
                raise FormatError(lineno, "empty tag")
            token = interned.get(surface)
            if token is None:
                token = interned[surface] = Token.from_surface(surface)
            tokens.append(token)
            tags.append(tag)
        elif line.startswith("#doc="):
            doc_id = line[len("#doc="):].strip()
            if not doc_id:
                raise FormatError(lineno, "#doc= names no document")
        elif line.startswith("#clauses="):
            value = line[len("#clauses="):].strip()
            if not value.isdigit():
                raise FormatError(lineno, f"bad clause count {value!r}")
            clause_override = int(value)
        elif line.startswith("#"):
            raise FormatError(lineno, f"unknown directive {line.strip()!r}")
        else:
            raise FormatError(lineno, "expected token TAB tag")
    close_block()
    return TaggedDocument(doc_id=doc_id, sentences=sentences)


def export_tagged(doc: TaggedDocument) -> str:
    """Serialize a TaggedDocument to the column format.

    Clause counts are always written as overrides so a round trip through
    `import_tagged` reproduces the document exactly even when the heuristic
    would disagree.
    """
    lines = []
    if doc.doc_id:
        lines.append(f"#doc={doc.doc_id}")
    for sentence in doc.sentences:
        lines.append(f"#clauses={sentence.clause_count}")
        for token, tag in zip(sentence.tokens, sentence.tags):
            lines.append(f"{token.surface}\t{tag}")
        lines.append("")
    return "\n".join(lines) + ("\n" if lines and lines[-1] != "" else "")


# --- built-in tagger ---------------------------------------------------------

def load_lexicon(path: str | Path | None = None) -> dict[str, str]:
    """Load the word TAB tag TAB count lexicon at path, or the bundled
    data/lexicon.tsv, keeping each word's most frequent tag (ties broken by
    tag string for determinism). A line of another shape, or with a count
    that is not an integer, is a FormatError naming the file and the line."""
    path = Path(__file__).parent / "data" / "lexicon.tsv" if path is None else Path(path)
    best: dict[str, tuple[int, str]] = {}
    for lineno, line in read_lines(path):
        if not line.strip() or line.startswith("#"):
            continue
        try:
            word, tag, count = line.split("\t")
            key = (int(count), tag)
        except ValueError:
            raise FormatError(lineno, f"{readable_name(path.name)}: not word TAB tag "
                                      f"TAB integer count: {line!r}") from None
        cur = best.get(word)
        if cur is None or key[0] > cur[0] or (key[0] == cur[0] and tag < cur[1]):
            best[word] = key
    return {word: tag for word, (_, tag) in best.items()}


class LexiconTagger:
    """Closed-lexicon tagger with suffix fallbacks.

    Fallback order for unknown words: -ly adverb, -ing gerund, -ed past,
    plural of a known noun, capitalized mid-sentence proper noun, noun.
    """

    def __init__(self, lexicon: dict[str, str] | None = None):
        self.lexicon = lexicon if lexicon is not None else load_lexicon()

    def __call__(self, tokens: Sequence[Token]) -> list[str]:
        first_word = next((i for i, t in enumerate(tokens) if t.is_word), -1)
        return [
            self._tag_one(tok, mid_sentence=i > first_word)
            for i, tok in enumerate(tokens)
        ]

    def _tag_one(self, token: Token, mid_sentence: bool) -> str:
        if not token.is_word:
            return _symbol_tag(token.surface)
        tag = self.lexicon.get(token.surface) or self.lexicon.get(token.surface.lower())
        if tag:
            return tag
        return self._fallback(token.surface, mid_sentence)

    def _fallback(self, surface: str, mid_sentence: bool) -> str:
        low = surface.lower()
        if low.endswith("ly"):
            return "RB"
        if low.endswith("ing"):
            return "VBG"
        if low.endswith("ed"):
            return "VBD"
        if low.endswith("s") and self._noun_stem(low):
            return "NNS"
        if mid_sentence and surface[0].isupper():
            return "NNP"
        return "NN"

    def _noun_stem(self, plural: str) -> bool:
        stems = [plural[:-1]]
        if plural.endswith("es"):
            stems.append(plural[:-2])
        if plural.endswith("ies"):
            stems.append(plural[:-3] + "y")
        return any(coarsen_tag(self.lexicon.get(s, "")) is LexClass.NOUN for s in stems)


def _symbol_tag(surface: str) -> str:
    if any(c.isdigit() for c in surface):
        return "CD"
    if surface in {".", "!", "?"}:
        return "."
    if surface == ",":
        return ","
    if surface in {":", ";"}:
        return ":"
    if surface in {"(", "[", "{"}:
        return "("
    if surface in {")", "]", "}"}:
        return ")"
    if surface in {'"', "'", "`", "“", "”", "‘", "’"}:
        return "''"
    return "SYM"
