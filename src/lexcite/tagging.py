"""Sentence segmentation, tokenization, POS tagging, and clause counting.

The built-in tagger is a deterministic lexicon lookup (most frequent tag per
word from a bundled frequency list) with suffix fallback rules. Users who
need higher tagging accuracy can run an external tagger and feed its output
back in through the tagged-token column format (`import_tagged`).

Tokens are immutable and interned per document: `tag_document` and
`import_tagged` each keep tables local to one call, so every repeat of a
surface within a document shares one `Token`, and every repeat of a
(surface, tag) pair one `TaggedToken`, each built once. Nothing is cached
across documents.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from importlib import resources
from pathlib import Path
from typing import Protocol, Sequence

from .errors import FormatError, TaggerLengthMismatch
from .ingest import RawDocument


class LexClass(str, Enum):
    NOUN = "Noun"
    VERB = "Verb"
    ADJECTIVE = "Adjective"
    ADVERB = "Adverb"
    OTHER = "Other"


_NOUN_TAGS = {"NN", "NNS", "NNP", "NNPS"}
_VERB_TAGS = {"VB", "VBD", "VBG", "VBN", "VBP", "VBZ"}
_ADJ_TAGS = {"JJ", "JJR", "JJS"}
_ADV_TAGS = {"RB", "RBR", "RBS"}

# Finite-verb anchors for clause counting: past, 3rd-singular and non-3rd
# present forms carry tense; VB only counts when licensed by a modal.
_FINITE_TAGS = {"VBD", "VBZ", "VBP"}


@dataclass(frozen=True)
class Token:
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


@dataclass(frozen=True)
class TaggedToken:
    token: Token
    fine_tag: str
    lex_class: LexClass


@dataclass
class TaggedSentence:
    tokens: list[TaggedToken]
    word_count: int
    clause_count: int


@dataclass
class TaggedDocument:
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


def coarsen_tag(fine_tag: str) -> LexClass:
    """Collapse a Penn-Treebank-style tag into a coarse lexical class."""
    if fine_tag in _NOUN_TAGS:
        return LexClass.NOUN
    if fine_tag in _VERB_TAGS:
        return LexClass.VERB
    if fine_tag in _ADJ_TAGS:
        return LexClass.ADJECTIVE
    if fine_tag in _ADV_TAGS:
        return LexClass.ADVERB
    return LexClass.OTHER


def _tagged_token(token: Token, fine_tag: str) -> TaggedToken:
    # Non-word tokens always get lex_class Other, whatever the tagger said.
    lex_class = coarsen_tag(fine_tag) if token.is_word else LexClass.OTHER
    return TaggedToken(token=token, fine_tag=fine_tag, lex_class=lex_class)


def tag_tokens(
    tokens: Sequence[Token],
    tagger: TaggerContract,
    interned: dict[tuple[str, str], TaggedToken] | None = None,
) -> list[TaggedToken]:
    """Zip tokens with tagger output and coarse classes.

    Non-word tokens always get lex_class Other, whatever the tagger said.
    `interned` maps (surface, tag) to the TaggedToken already built for it;
    pass one dict for a whole document to share every repeat. The key
    relies on a token being a function of its surface, as
    `Token.from_surface` makes it.
    """
    tokens = list(tokens)
    tags = list(tagger(tokens))
    if len(tags) != len(tokens):
        raise TaggerLengthMismatch(
            f"tagger returned {len(tags)} tags for {len(tokens)} tokens"
        )
    if interned is None:
        interned = {}
    tagged = []
    for tok, tag in zip(tokens, tags):
        key = (tok.surface, tag)
        tt = interned.get(key)
        if tt is None:
            tt = interned[key] = _tagged_token(tok, tag)
        tagged.append(tt)
    return tagged


def count_clauses(sentence: TaggedSentence) -> int:
    """Number of finite-verb anchors in a tagged sentence.

    Each VBD/VBZ/VBP token counts once. A modal (MD) counts once when a VB
    follows it before any finite tag. VBG/VBN alone never count.
    """
    count = 0
    open_modals = 0  # modals not yet matched by a VB or closed by a finite tag
    for tt in sentence.tokens:
        tag = tt.fine_tag
        if tag in _FINITE_TAGS:
            count += 1
            open_modals = 0
        elif tag == "VB":
            count += open_modals
            open_modals = 0
        elif tag == "MD":
            open_modals += 1
    return count


def _make_sentence(tagged: list[TaggedToken], clause_override: int | None = None) -> TaggedSentence:
    sentence = TaggedSentence(
        tokens=tagged,
        word_count=sum(1 for tt in tagged if tt.token.is_word),
        clause_count=0,
    )
    sentence.clause_count = clause_override if clause_override is not None else count_clauses(sentence)
    return sentence


def tag_document(doc: RawDocument, tagger: TaggerContract | None = None) -> TaggedDocument:
    """Segment, tokenize, and tag a document whose text is already normalized.

    Sentences never span paragraph boundaries.
    """
    tagger = tagger or LexiconTagger()
    tokens_by_surface: dict[str, Token] = {}
    interned: dict[tuple[str, str], TaggedToken] = {}
    sentences = []
    for paragraph in doc.paragraphs:
        for sent_text in segment_sentences(paragraph):
            tokens = tokenize(sent_text, tokens_by_surface)
            if not tokens:
                continue
            sentences.append(_make_sentence(tag_tokens(tokens, tagger, interned)))
    return TaggedDocument(doc_id=doc.doc_id, sentences=sentences)


# --- tagged-token column format ---------------------------------------------
#
# One "token TAB fine-tag" line per token, a blank line between sentences,
# and an optional "#clauses=N" comment inside a sentence block that
# overrides the heuristic clause count. A "#doc=ID" line names the document.

def import_tagged(column_text: str, doc_id: str = "") -> TaggedDocument:
    """Reconstruct a TaggedDocument from tagged-token column text.

    Each distinct token line is split, validated and built once per call;
    a repeat of it reuses that TaggedToken. Directive and blank lines are
    never interned, so they take effect wherever they occur.
    """
    sentences: list[TaggedSentence] = []
    block: list[TaggedToken] = []
    clause_override: int | None = None
    interned: dict[str, TaggedToken] = {}

    def close_block():
        nonlocal block, clause_override
        if block:
            sentences.append(_make_sentence(block, clause_override))
        block = []
        clause_override = None

    for lineno, line in enumerate(column_text.splitlines(), 1):
        tt = interned.get(line)
        if tt is not None:
            block.append(tt)
            continue
        if not line.strip():
            close_block()
            continue
        if line.startswith("#"):
            if line.startswith("#doc="):
                doc_id = line[len("#doc="):].strip()
                continue
            if line.startswith("#clauses="):
                value = line[len("#clauses="):].strip()
                if not value.isdigit():
                    raise FormatError(lineno, f"bad clause count {value!r}")
                clause_override = int(value)
                continue
            raise FormatError(lineno, f"unknown directive {line.strip()!r}")
        if "\t" not in line:
            raise FormatError(lineno, "expected token TAB tag")
        fields = line.split("\t")
        if len(fields) != 2:
            raise FormatError(lineno, f"expected 2 tab-separated fields, got {len(fields)}")
        surface, fine_tag = fields
        if not surface:
            raise FormatError(lineno, "empty token surface")
        if not fine_tag:
            raise FormatError(lineno, "empty tag")
        tt = interned[line] = _tagged_token(Token.from_surface(surface), fine_tag)
        block.append(tt)
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
        for tt in sentence.tokens:
            lines.append(f"{tt.token.surface}\t{tt.fine_tag}")
        lines.append("")
    return "\n".join(lines) + ("\n" if lines and lines[-1] != "" else "")


# --- built-in tagger ---------------------------------------------------------

def load_lexicon(path: str | Path | None = None) -> dict[str, str]:
    """Load the word TAB tag TAB count lexicon, keeping each word's most
    frequent tag (ties broken by tag string for determinism)."""
    if path is None:
        text = resources.files("lexcite.data").joinpath("lexicon.tsv").read_text("utf-8")
    else:
        text = Path(path).read_text(encoding="utf-8")
    best: dict[str, tuple[int, str]] = {}
    for line in text.splitlines():
        if not line.strip() or line.startswith("#"):
            continue
        word, tag, count = line.split("\t")
        key = (int(count), tag)
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
        return any(self.lexicon.get(s) in _NOUN_TAGS for s in stems)


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
