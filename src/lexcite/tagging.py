"""Sentence segmentation, tokenization, POS tagging, and clause counting.

The built-in tagger is a deterministic lexicon lookup (most frequent tag per
word from a bundled frequency list) with suffix fallback rules. Users who
need higher tagging accuracy can run an external tagger and feed its output
back in through the tagged-token column format (`import_tagged`).

A tagged sentence is its tokens plus a parallel list of fine tags.
Tokens are immutable and interned per process: `tag_document` and
`import_tagged` share one surface->Token table, so each distinct surface
builds one `Token`, which its repeats in this and later documents share.
The table is emptied when a document starts and it holds more than
`SURFACE_TABLE_BOUND` surfaces, so every repeat within one document still
shares one `Token`. A `LexiconTagger` memoizes each surface's tag under the
same bound. A forked process fills its own copy of both. Coarse lexical
classes are not stored; `coarsen_tag` derives them from the tags when they
are needed.
"""

from __future__ import annotations

import re
from enum import Enum
from pathlib import Path
from typing import NamedTuple, Protocol, Sequence

from .errors import FormatError, TaggerLengthMismatch
from .ingest import RawDocument, check_doc_id
from .tableio import parse_int, read_lines, read_utf8, readable_name


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

    `cli.stage_tag` may call it in a forked child of the process that built
    it, under the rule of `lexcite.parallel`. So a tagger must give each
    sentence the same tags whichever process calls it and whatever it
    tagged before: what it changes in itself in the child is lost with the
    child. It must also be usable after a fork, so it holds no thread or
    lock. The bundled tagger's only state after construction is its memo of
    each surface's tag, which depends on its own copy of the lexicon alone.
    """

    def __call__(self, tokens: Sequence[Token]) -> Sequence[str]: ...


# Sentence boundary: terminator, whitespace, then an uppercase letter.
# A period between digits ("3.5") never has the required whitespace, so
# decimal points cannot split.
_BOUNDARY_RE = re.compile(r"(?<=[.!?])\s+(?=[A-Z])")

# Word cores keep internal hyphens/apostrophes; decimal numbers keep their
# point; any other non-space character becomes its own token.
_TOKEN_RE = re.compile(r"\d+(?:\.\d+)+|[A-Za-z0-9]+(?:[-'’][A-Za-z0-9]+)*|\S")


# The most surfaces the process's token table, and each LexiconTagger's
# memo, keep from one document to the next: both are emptied once they hold
# more. Full of 4- to 12-letter words, the two take about 0.75 MB together.
# What they keep costs time on text whose words do not repeat across
# documents, and a larger bound costs more there.
SURFACE_TABLE_BOUND = 2 ** 12

# surface -> Token, shared by tag_document and import_tagged in this process
_TOKENS: dict[str, Token] = {}


def _document_tokens() -> dict[str, Token]:
    """The process's token table for a document that starts now, emptied
    first if it holds more than SURFACE_TABLE_BOUND surfaces. The bound is
    checked only here, so every repeat within one document shares a Token."""
    if len(_TOKENS) > SURFACE_TABLE_BOUND:
        _TOKENS.clear()
    return _TOKENS


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
    `tag_document` passes the process's token table, so each distinct
    surface is built once while that table lasts. Without it the table
    lasts one call.
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
    its lexicon when it is built, and memoizes each surface's tag.
    """
    interned = _document_tokens()
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
# character but TAB, "\r" and "\n". A "#doc=" ID, stripped, must pass check_doc_id.
# A "#clauses=" value is a parse_int of at most CLAUSE_DIGITS_MAX digits, not negative.

CLAUSE_DIGITS_MAX = 9


def read_tagged(path: str | Path) -> TaggedDocument:
    """The TaggedDocument in a UTF-8 column-format file, with the file stem as
    the doc id when no "#doc=" line names one. Bytes that are not UTF-8 are a
    FormatError naming the file and the line; so is a file with no "#doc="
    line whose stem is not UTF-8, or is not a doc id (`check_doc_id`), as
    line 1, where that line would go."""
    path = Path(path)
    doc = import_tagged(read_utf8(path), doc_id=path.stem)
    # Only a stem can fail: the text decoded, and import_tagged checked a "#doc=" id.
    try:
        check_doc_id(doc.doc_id).encode("utf-8")
    except ValueError as exc:  # UnicodeEncodeError for a stem that is not UTF-8
        reason = "the file name is not UTF-8" if isinstance(exc, UnicodeEncodeError) else exc
        raise FormatError(1, f"{readable_name(path.name)}: no #doc= line, and {reason}") from None
    return doc


def import_tagged(column_text: str, doc_id: str = "") -> TaggedDocument:
    """Reconstruct a TaggedDocument from tagged-token column text.

    Each distinct surface builds one Token while the process's token table
    lasts; its repeats share it.
    """
    sentences: list[TaggedSentence] = []
    tokens: list[Token] = []
    tags: list[str] = []
    clause_override: int | None = None
    interned = _document_tokens()

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
            try:
                doc_id = check_doc_id(line[len("#doc="):].strip())
            except ValueError as exc:
                raise FormatError(lineno, f"#doc= line: {exc}") from None
        elif line.startswith("#clauses="):
            try:
                clause_override = parse_int(line[len("#clauses="):].strip(), CLAUSE_DIGITS_MAX)
                if clause_override < 0:
                    raise ValueError(f"{clause_override} is negative")
            except ValueError as exc:
                raise FormatError(lineno, f"bad clause count: {exc}") from None
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

# Punctuation's tags; any other non-word is CD when it holds a digit, else SYM.
_PUNCTUATION_TAGS = {**dict.fromkeys(".!?", "."), ",": ",", **dict.fromkeys(":;", ":"),
                     **dict.fromkeys("([{", "("), **dict.fromkeys(")]}", ")"),
                     **dict.fromkeys("\"'`“”‘’", "''")}


def load_lexicon(path: str | Path | None = None) -> dict[str, str]:
    """Load the word TAB tag TAB count lexicon at path, or the bundled
    data/lexicon.tsv, keeping each word's most frequent tag (ties broken by
    tag string for determinism). A line of another shape, or with a count
    that is not an integer (`parse_int`), is a FormatError naming the file
    and the line."""
    path = Path(__file__).parent / "data" / "lexicon.tsv" if path is None else Path(path)
    best: dict[str, tuple[int, str]] = {}
    for lineno, line in read_lines(path):
        if not line.strip() or line.startswith("#"):
            continue
        try:
            word, tag, count = line.split("\t")
            key = (parse_int(count), tag)
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

    The tagger keeps its own copy of the lexicon. It memoizes each surface's
    tag after a sentence's first word. At the first word NNP becomes NN when
    the lexicon gives no tag for the surface or its lowercase form: an
    unknown capitalized word is a proper noun only mid-sentence. The memo is
    emptied when a call starts and it holds more than SURFACE_TABLE_BOUND
    surfaces. The tags depend on the lexicon alone, so the memo changes none
    of them.
    """

    def __init__(self, lexicon: dict[str, str] | None = None):
        self._lexicon = dict(lexicon) if lexicon is not None else load_lexicon()
        self._memo: dict[str, str] = {}

    def __call__(self, tokens: Sequence[Token]) -> list[str]:
        memo = self._memo
        if len(memo) > SURFACE_TABLE_BOUND:
            memo.clear()
        tags = []
        for token in tokens:
            tag = memo.get(token.surface)
            if tag is None:
                tag = memo[token.surface] = self._tag(token)
            tags.append(tag)
        # The tokens before the first word are no words, which are never NNP.
        first_word = next((i for i, t in enumerate(tokens) if t.is_word), None)
        if first_word is not None and tags[first_word] == "NNP":
            surface = tokens[first_word].surface
            if not (self._lexicon.get(surface) or self._lexicon.get(surface.lower())):
                tags[first_word] = "NN"
        return tags

    def _tag(self, token: Token) -> str:
        """The token's tag after a sentence's first word, from one lexicon
        lookup and one run of the fallback rules."""
        surface = token.surface
        if not token.is_word:
            return _symbol_tag(surface)
        low = surface.lower()
        return (self._lexicon.get(surface) or self._lexicon.get(low) or self._suffix_tag(low)
                or ("NNP" if surface[0].isupper() else "NN"))

    def _suffix_tag(self, low: str) -> str | None:
        if low.endswith("ly"):
            return "RB"
        if low.endswith("ing"):
            return "VBG"
        if low.endswith("ed"):
            return "VBD"
        if low.endswith("s") and self._noun_stem(low):
            return "NNS"
        return None

    def _noun_stem(self, plural: str) -> bool:
        stems = [plural[:-1]]
        if plural.endswith("es"):
            stems.append(plural[:-2])
        if plural.endswith("ies"):
            stems.append(plural[:-3] + "y")
        return any(coarsen_tag(self._lexicon.get(s, "")) is LexClass.NOUN for s in stems)


def _symbol_tag(surface: str) -> str:
    if any(c.isdigit() for c in surface):
        return "CD"
    return _PUNCTUATION_TAGS.get(surface, "SYM")
