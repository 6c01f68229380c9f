"""Segmentation, tokenization, tagging, clause counting, column format."""

from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lexcite import tagging
from lexcite.errors import FormatError, TaggerLengthMismatch
from lexcite.ingest import RawDocument
from lexcite.metrics import complexity_profile
from lexcite.tagging import (
    LexClass,
    LexiconTagger,
    Token,
    coarsen_tag,
    count_clauses,
    export_tagged,
    import_tagged,
    load_lexicon,
    read_tagged,
    segment_sentences,
    tag_document,
    tokenize,
)
from test_acceptance import oracle_clauses

# Any character but whitespace, which can never be part of a token.
non_space = st.characters(blacklist_categories=("Cs",)).filter(lambda c: not c.isspace())
penn_tags = st.sampled_from(["NN", "NNS", "VB", "VBD", "VBZ", "VBP", "MD", "JJ",
                             "RB", "DT", "."])


class TestSegmentation:
    def test_two_terminators(self):
        assert segment_sentences("A b. C d.") == ["A b.", "C d."]

    def test_decimal_period_never_splits(self):
        assert segment_sentences("Value was 3.5 mm. It grew.") == \
            ["Value was 3.5 mm.", "It grew."]

    def test_expanded_citation_two_sentences(self):
        text = "Smith and others (2010) found X. It held."
        assert len(segment_sentences(text)) == 2

    def test_no_split_before_lowercase(self):
        assert segment_sentences("See fig. 3 for details.") == \
            ["See fig. 3 for details."]

    def test_question_and_exclamation(self):
        assert segment_sentences("Really? Yes! Fine.") == ["Really?", "Yes!", "Fine."]

    def test_empty_text(self):
        assert segment_sentences("") == []
        assert segment_sentences("   ") == []


class TestTokenize:
    def test_simple(self):
        tokens = tokenize("Cats sleep.")
        assert [t.surface for t in tokens] == ["Cats", "sleep", "."]
        assert [t.is_word for t in tokens] == [True, True, False]

    def test_hyphenated_word_is_one_token(self):
        tokens = tokenize("state-of-the-art")
        assert [t.surface for t in tokens] == ["state-of-the-art"]
        assert tokens[0].is_word

    def test_symbol_detachment(self):
        tokens = tokenize("(p<0.05)")
        assert [t.surface for t in tokens] == ["(", "p", "<", "0.05", ")"]
        assert [t.is_word for t in tokens] == [False, True, False, False, False]

    def test_char_length_counts_letters_only(self):
        token = Token.from_surface("B12-x")
        assert token.char_length == 2
        assert tokenize("3.5")[0].char_length == 0
        assert Token.from_surface("Müller").char_length == 6
        assert Token.from_surface("naïve").char_length == 5

    def test_apostrophe_stays_inside(self):
        assert [t.surface for t in tokenize("the cell's wall")] == \
            ["the", "cell's", "wall"]


class TestCoarsen:
    @pytest.mark.parametrize("tag,expected", [
        ("NN", LexClass.NOUN), ("NNS", LexClass.NOUN), ("NNP", LexClass.NOUN),
        ("NNPS", LexClass.NOUN), ("VB", LexClass.VERB), ("VBD", LexClass.VERB),
        ("VBG", LexClass.VERB), ("VBN", LexClass.VERB), ("VBP", LexClass.VERB),
        ("VBZ", LexClass.VERB), ("JJ", LexClass.ADJECTIVE),
        ("JJR", LexClass.ADJECTIVE), ("JJS", LexClass.ADJECTIVE),
        ("RB", LexClass.ADVERB), ("RBR", LexClass.ADVERB), ("RBS", LexClass.ADVERB),
        ("DT", LexClass.OTHER), ("XYZ", LexClass.OTHER), ("", LexClass.OTHER),
    ])
    def test_mapping(self, tag, expected):
        assert coarsen_tag(tag) is expected


class TestTagTokens:
    """How tag_document pairs each sentence's tokens with tagger output."""

    def test_builtin_tagger_example(self):
        doc = tag_document(RawDocument(doc_id="d", year=2010, domain="x",
                                       paragraphs=["Cats sleep ."]), LexiconTagger())
        (sentence,) = doc.sentences
        assert [t.surface for t in sentence.tokens] == ["Cats", "sleep", "."]
        assert sentence.tags == ["NNS", "VBP", "."]
        assert [coarsen_tag(t) for t in sentence.tags] == \
            [LexClass.NOUN, LexClass.VERB, LexClass.OTHER]
        assert sentence.clause_count == 1

    def test_empty_input(self):
        # the tagger contract is total: no tokens, no tags
        assert LexiconTagger()([]) == []

    def test_length_mismatch(self):
        def short_tagger(tokens):
            return ["NN"] * (len(tokens) - 1)

        with pytest.raises(TaggerLengthMismatch):
            tag_document(RawDocument(doc_id="d", year=2010, domain="x",
                                     paragraphs=["a b c"]), short_tagger)


class TestLexiconTagger:
    def test_lowercase_lookup_for_capitalized(self):
        tagger = LexiconTagger()
        assert tagger(tokenize("Big cats sleep ."))[:1] == ["JJ"]

    def test_suffix_fallbacks(self):
        tagger = LexiconTagger({"cat": "NN"})
        assert tagger(tokenize("quixotically"))[0] == "RB"
        assert tagger(tokenize("zorbing"))[0] == "VBG"
        assert tagger(tokenize("zorbed"))[0] == "VBD"
        assert tagger(tokenize("cats"))[0] == "NNS"
        assert tagger(tokenize("blorf"))[0] == "NN"

    def test_plural_of_unknown_stem_not_nns(self):
        tagger = LexiconTagger({"run": "VB"})
        assert tagger(tokenize("runs"))[0] == "NN"

    def test_ies_plural(self):
        tagger = LexiconTagger({"study": "NN"})
        assert tagger(tokenize("studies"))[0] == "NNS"

    def test_capitalized_mid_sentence_nnp(self):
        tagger = LexiconTagger({"the": "DT"})
        tags = tagger(tokenize("the Zorblax arrived"))
        assert tags[1] == "NNP"

    def test_sentence_initial_capital_not_nnp(self):
        tagger = LexiconTagger({})
        assert tagger(tokenize("Zorblax arrived"))[0] == "NN"

    def test_symbol_tags(self):
        tagger = LexiconTagger({})
        surfaces = [".", ",", ";", "(", ")", "3.5", "%", '"']
        tags = tagger([Token.from_surface(s) for s in surfaces])
        assert tags == [".", ",", ":", "(", ")", "CD", "SYM", "''"]

    def test_later_change_to_the_lexicon_changes_no_tag(self):
        lexicon = {"cat": "NN"}
        tagger = LexiconTagger(lexicon)
        assert tagger(tokenize("cat cats")) == ["NN", "NNS"]
        lexicon.update(cat="VB", cats="JJ", dog="VB")
        assert tagger(tokenize("cat cats")) == ["NN", "NNS"]
        assert tagger(tokenize("dog dogs")) == ["NN", "NN"]  # never seen before

    def test_tie_breaks_to_smaller_tag(self):
        lexicon = load_lexicon()
        # bundled file gives "light" equal counts for JJ and NN
        assert lexicon["light"] == "JJ"

    def test_custom_lexicon_file(self, tmp_path):
        path = tmp_path / "lex.tsv"
        path.write_text("# header\nfoo\tVB\t10\nfoo\tNN\t20\n", encoding="utf-8")
        assert load_lexicon(path) == {"foo": "NN"}

    @pytest.mark.parametrize("line", [b"bar\tNN", b"bar\tNN\t3\textra", b"bar\tNN\tmany",
                                      b"b\xffr\tNN\t3", b"bar\tNN\t1_000", b"bar\tNN\t 3",
                                      "bar\tNN\t٣".encode("utf-8")])
    def test_bad_lexicon_line_names_file_and_line(self, tmp_path, line):
        path = tmp_path / "lex.tsv"
        path.write_bytes(b"# header\nfoo\tNN\t20\n" + line + b"\n")
        with pytest.raises(FormatError, match=r"^line 3: lex\.tsv: ") as info:
            load_lexicon(path)
        assert info.value.line_number == 3


# Known words, unknown words that are capitalized or not and hit each suffix
# rule, non-ASCII words, numbers and symbols.
MEMO_LEXICON = {"the": "DT", "cat": "NN", "sat": "VBD", "study": "NN", "run": "VB",
                "paris": "NNP", "über": "IN", "big": "JJ"}
memo_surfaces = st.one_of(
    st.sampled_from(["the", "The", "cat", "Cat", "cats", "sat", "studies", "Studies",
                     "runs", "Paris", "PARIS", "über", "Über", "Big", "Zorblax", "zorblax",
                     "Zorbing", "quickly", "Quickly", "zorbed", "Müller", "naïve",
                     "Éclair", "β-cells", "B12", "3", "3.5", "1,000", ".", ",", "(",
                     ")", "%", "“", "#", "'"]),
    st.text(st.sampled_from("aAzZéÉßΩω-'1."), min_size=1, max_size=5))


def rule_tag(tagger: LexiconTagger, token: Token, mid_sentence: bool) -> str:
    """A token's tag by the rules alone: the exact lexicon entry, then the
    lowercase one, then the suffix rules, then NNP for a capitalized word
    after a sentence's first word and NN otherwise."""
    if not token.is_word:
        return tagging._symbol_tag(token.surface)
    low = token.surface.lower()
    tag = MEMO_LEXICON.get(token.surface) or MEMO_LEXICON.get(low) or tagger._suffix_tag(low)
    return tag or ("NNP" if mid_sentence and token.surface[0].isupper() else "NN")


@pytest.mark.parametrize("bound", [tagging.SURFACE_TABLE_BOUND, 2])
@settings(max_examples=60, deadline=None)
@given(sentences=st.lists(st.lists(memo_surfaces, max_size=8), max_size=8))
def test_memo_gives_the_rules_tags(bound, sentences):
    """A memoized tagger tags each sentence as the per-token rules do, at
    any position, whatever it tagged before; with the bound at 2 its memo
    is emptied between calls."""
    with mock.patch.object(tagging, "SURFACE_TABLE_BOUND", bound):
        tagger, rules = LexiconTagger(MEMO_LEXICON), LexiconTagger(MEMO_LEXICON)
        for surfaces in sentences:
            tokens = [Token.from_surface(s) for s in surfaces]
            first_word = next((i for i, t in enumerate(tokens) if t.is_word), -1)
            assert tagger(tokens) == [rule_tag(rules, t, mid_sentence=i > first_word)
                                      for i, t in enumerate(tokens)]
            assert len(tagger._memo) <= bound + len(set(surfaces))


class TestCountClauses:
    def tag(self, pairs):
        return import_tagged("\n".join(f"{w}\t{t}" for w, t in pairs) + "\n")

    def test_two_finite_verbs(self):
        doc = tag_document(RawDocument(
            doc_id="d", year=2010, domain="x",
            paragraphs=["The cat sat because it was tired."]), LexiconTagger())
        assert doc.sentences[0].clause_count == 2

    def test_modal_plus_base(self):
        doc = tag_document(RawDocument(
            doc_id="d", year=2010, domain="x", paragraphs=["It can run."]), LexiconTagger())
        assert doc.sentences[0].clause_count == 1

    def test_no_verbs(self):
        doc = self.tag([("red", "JJ"), ("door", "NN"), (".", ".")])
        assert doc.sentences[0].clause_count == 0

    def test_gerund_and_participle_never_count(self):
        doc = self.tag([("running", "VBG"), ("water", "NN"),
                        ("taken", "VBN"), (".", ".")])
        assert doc.sentences[0].clause_count == 0

    def test_modal_blocked_by_finite_tag(self):
        # MD ... VBZ ... VB: the finite tag ends the modal's search
        doc = self.tag([("can", "MD"), ("is", "VBZ"), ("go", "VB")])
        assert doc.sentences[0].clause_count == 1

    def test_two_modals_two_clauses(self):
        doc = self.tag([("can", "MD"), ("go", "VB"), ("and", "CC"),
                        ("may", "MD"), ("stay", "VB")])
        assert doc.sentences[0].clause_count == 2

    def test_invariant_under_nonverb_tags(self):
        base = [("a", "DT"), ("cat", "NN"), ("sat", "VBD")]
        changed = [("a", "XX"), ("cat", "YY"), ("sat", "VBD")]
        assert (self.tag(base).sentences[0].clause_count ==
                self.tag(changed).sentences[0].clause_count == 1)

    @given(st.lists(st.sampled_from(
        ["MD", "VB", "VBD", "VBZ", "VBP", "VBG", "VBN", "NN"]), min_size=1, max_size=30))
    def test_one_pass_matches_oracle(self, tags):
        doc = self.tag([(f"w{i}", t) for i, t in enumerate(tags)])
        assert doc.sentences[0].clause_count == oracle_clauses(tags)


class TestColumnFormat:
    TAGGER = LexiconTagger()

    def test_basic_import(self):
        doc = import_tagged("Cats\tNNS\nsleep\tVBP\n.\t.\n\n")
        assert len(doc.sentences) == 1
        sentence = doc.sentences[0]
        assert [t.surface for t in sentence.tokens] == ["Cats", "sleep", "."]
        assert sentence.tags == ["NNS", "VBP", "."]
        assert [t.is_word for t in sentence.tokens] == [True, True, False]

    def test_clause_override(self):
        doc = import_tagged("#clauses=3\nCats\tNNS\nsleep\tVBP\n\n")
        assert doc.sentences[0].clause_count == 3

    def test_doc_directive(self):
        doc = import_tagged("#doc=ABC\nhi\tUH\n")
        assert doc.doc_id == "ABC"

    @pytest.mark.parametrize("directive", ["#doc=", "#doc=  "])
    def test_empty_doc_directive(self, directive):
        with pytest.raises(FormatError) as err:
            import_tagged(f"hi\tUH\n\n{directive}\n", doc_id="fallback")
        assert err.value.line_number == 3

    def test_doc_id_parameter_fallback(self):
        assert import_tagged("hi\tUH\n", doc_id="fallback").doc_id == "fallback"

    def test_missing_tab(self):
        with pytest.raises(FormatError) as err:
            import_tagged("Cats NNS\n")
        assert err.value.line_number == 1

    def test_too_many_fields(self):
        with pytest.raises(FormatError):
            import_tagged("Cats\tNNS\textra\n")

    def test_unknown_directive(self):
        with pytest.raises(FormatError) as err:
            import_tagged("ok\tNN\n#weird=1\n")
        assert err.value.line_number == 2

    def test_bad_clause_value(self):
        with pytest.raises(FormatError):
            import_tagged("#clauses=x\nok\tNN\n")

    @pytest.mark.parametrize("value, message", [
        ("²", "not an integer: '²'"),
        ("9" * 5000, "integer of 5000 digits; at most 9"),
        ("1" * 10, "integer of 10 digits; at most 9"),
        ("𝟑", "not an integer: '𝟑'"),
        ("+3", "not an integer: '+3'"),
        ("1_0", "not an integer: '1_0'"),
        ("-1", "-1 is negative"),
    ], ids=["superscript", "5000-digits", "10-digits", "mathematical-digit", "plus-sign",
            "underscore", "negative"])
    def test_clause_value_int_refuses(self, value, message):
        with pytest.raises(FormatError) as err:
            import_tagged(f"ok\tNN\n#clauses={value}\n")
        assert err.value.line_number == 2
        assert str(err.value) == f"line 2: bad clause count: {message}"

    def test_nine_digit_clause_value(self):
        doc = import_tagged("#clauses=999999999\nok\tNN\n")
        assert doc.sentences[0].clause_count == 999_999_999

    @pytest.mark.parametrize("value, count", [("0000000001", 1), ("0" * 20 + "7", 7),
                                              ("-0", 0)])
    def test_clause_value_leading_zeros_do_not_count(self, value, count):
        doc = import_tagged(f"#clauses={value}\nok\tNN\n")
        assert doc.sentences[0].clause_count == count

    @pytest.mark.parametrize("inner", ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85",
                                       "\u2028", "\u2029"])
    def test_line_ends_only_at_newline_or_return(self, inner):
        doc = import_tagged(f"a{inner}b\tNN\r\nc\tNN\rd\tNN\n")
        assert [t.surface for t in doc.sentences[0].tokens] == [f"a{inner}b", "c", "d"]

    @pytest.mark.parametrize("data, line", [
        (b"\xe9\tNN\n", 1),
        (b"a\tDT\r\nb\tNN\rCaf\xe9\tNN\n", 3),
        (b"a\tDT\n\n\xe9", 3),
    ], ids=["first-byte", "after-crlf-and-cr", "after-blank-line"])
    def test_read_tagged_names_bad_byte_line(self, tmp_path, data, line):
        path = tmp_path / "doc.tsv"
        path.write_bytes(data)
        with pytest.raises(FormatError) as err:
            read_tagged(path)
        assert err.value.line_number == line
        assert "doc.tsv: not UTF-8" in str(err.value)

    def test_multiple_sentences(self):
        doc = import_tagged("a\tDT\n\nb\tNN\n\n")
        assert len(doc.sentences) == 2

    def test_round_trip_exact(self):
        doc = tag_document(RawDocument(
            doc_id="rt", year=2010, domain="x",
            paragraphs=["The cat sat. It can run fast!",
                        "Values were 3.5 mm (p<0.05)."]), LexiconTagger())
        again = import_tagged(export_tagged(doc))
        assert again == doc

    @settings(max_examples=150, deadline=None)
    @given(paragraphs=st.lists(st.text(st.one_of(
        st.characters(blacklist_categories=("Cs",)),
        st.sampled_from("Aa Zz 09 .!? #\t\n -'’ ,;()% éÜβ")), max_size=40),
        min_size=1, max_size=3))
    def test_profile_survives_the_round_trip(self, paragraphs):
        """What run would profile from the document it tags equals what
        profile reads back from the file tag writes, for any text."""
        assume(any(char.isalpha() for paragraph in paragraphs for char in paragraph))
        doc = tag_document(RawDocument("d", 2010, "x", paragraphs), self.TAGGER)
        text = export_tagged(doc)
        assert export_tagged(import_tagged(text)) == text
        assert complexity_profile(import_tagged(text)) == complexity_profile(doc)

    def test_error_line_after_repeated_lines(self):
        with pytest.raises(FormatError) as err:
            import_tagged("the\tDT\nthe\tDT\n\nthe\tDT\nthe DT\n")
        assert err.value.line_number == 5

    def test_repeated_clause_directive_per_sentence(self):
        text = "#clauses=4\nhe\tPRP\nran\tVBD\n\n" * 2 + "he\tPRP\nran\tVBD\n\n"
        doc = import_tagged(text)
        assert [s.clause_count for s in doc.sentences] == [4, 4, 1]

    def test_import_independent_of_previous_document(self):
        doc_a = "#doc=A\nCats\tNNS\nran\tVBD\n\n"
        doc_b = "#doc=B\nCats\tNN\nran\tVBN\nB12\tNN\n\n"
        import_tagged(doc_a)
        after_a = import_tagged(doc_b)
        assert after_a == import_tagged(doc_b)
        assert after_a.sentences[0].tags == ["NN", "VBN", "NN"]

    def test_tab_line_is_a_token_even_after_hash(self):
        doc = import_tagged("#\tSYM\n#doc=x\tNN\n#clauses=2\n\n")
        assert [t.surface for t in doc.sentences[0].tokens] == ["#", "#doc=x"]
        assert doc.sentences[0].clause_count == 2  # a line without a TAB is a directive
        assert doc.doc_id == ""
        assert import_tagged(export_tagged(doc)) == doc
        tagged = tag_document(RawDocument(doc_id="x", year=2010, domain="d",
                                          paragraphs=["Item #3 failed."]),
                              LexiconTagger())
        assert import_tagged(export_tagged(tagged)) == tagged

    @settings(max_examples=80, deadline=None)
    @given(doc_id=st.text(non_space, max_size=6),
           blocks=st.lists(st.tuples(
               st.lists(st.tuples(st.text(non_space, min_size=1, max_size=6),
                                  st.one_of(penn_tags, st.text(non_space, min_size=1,
                                                               max_size=4))),
                        min_size=1, max_size=8),
               st.none() | st.integers(0, 20)), max_size=5))
    def test_round_trip_property(self, doc_id, blocks):
        # hand-written column text, with and without #clauses= overrides,
        # reads back as written, and export -> import reproduces it exactly
        lines = [f"#doc={doc_id}"] if doc_id else []
        for pairs, override in blocks:
            if override is not None:
                lines.append(f"#clauses={override}")
            lines += [f"{surface}\t{tag}" for surface, tag in pairs]
            lines.append("")
        doc = import_tagged("\n".join(lines) + "\n", doc_id="fallback")
        assert doc.doc_id == (doc_id or "fallback")
        assert len(doc.sentences) == len(blocks)
        for sentence, (pairs, override) in zip(doc.sentences, blocks):
            assert [(t.surface, tag) for t, tag in zip(sentence.tokens, sentence.tags)] == pairs
            assert len(sentence.tokens) == len(sentence.tags)
            assert sentence.clause_count == \
                (count_clauses(sentence.tags) if override is None else override)
        assert import_tagged(export_tagged(doc), doc_id="fallback") == doc

    def test_round_trip_preserves_override(self):
        doc = import_tagged("#doc=z\n#clauses=9\nhi\tUH\n\n")
        again = import_tagged(export_tagged(doc))
        assert again.sentences[0].clause_count == 9
        assert again == doc


class TestTagDocument:
    def test_sentences_do_not_span_paragraphs(self):
        doc = tag_document(RawDocument(
            doc_id="d", year=2010, domain="x",
            paragraphs=["First sentence only", "second paragraph text"]), LexiconTagger())
        assert len(doc.sentences) == 2

    def test_word_totals(self):
        raw = RawDocument(doc_id="d", year=2010, domain="x",
                          paragraphs=["One two three. Four five."])
        doc = tag_document(raw, LexiconTagger())
        assert sum(t.is_word for s in doc.sentences for t in s.tokens) == 5

    @staticmethod
    def read(build, *sentences):
        """One document of the sentences, each a paragraph of surfaces that
        spaces separate. Every token of the nth sentence is tagged with the
        nth of NN, VB, JJ."""
        tags = iter(["NN", "VB", "JJ"])
        if build == "import_tagged":
            return import_tagged("".join(
                "".join(f"{surface}\t{tag}\n" for surface in sentence.split()) + "\n"
                for sentence, tag in zip(sentences, tags)))
        return tag_document(RawDocument(doc_id="d", year=2010, domain="x",
                                        paragraphs=list(sentences)),
                            lambda tokens: [next(tags)] * len(tokens))

    @pytest.mark.parametrize("build", ["tag_document", "import_tagged"])
    def test_one_token_per_distinct_surface(self, build, monkeypatch):
        # a surface tagged NN in one sentence and VB in the next is one Token
        # within a document, and a second document reuses it
        monkeypatch.setattr(tagging, "_TOKENS", {})
        doc = self.read(build, "The cat sat", "The cat sat")
        tokens = [t for s in doc.sentences for t in s.tokens]
        assert len({id(t) for t in tokens}) == len({t.surface for t in tokens}) == 3
        assert [s.tags for s in doc.sentences] == [["NN"] * 3, ["VB"] * 3]
        again = [t for s in self.read(build, "The dog sat").sentences for t in s.tokens]
        assert [t.surface for t in again] == ["The", "dog", "sat"]
        assert again[0] is tokens[0] and again[2] is tokens[2]

    def test_each_surface_built_once(self, monkeypatch):
        monkeypatch.setattr(tagging, "_TOKENS", {})
        built = []
        from_surface = Token.from_surface.__func__

        def counting(cls, surface):
            built.append(surface)
            return from_surface(cls, surface)

        monkeypatch.setattr(Token, "from_surface", classmethod(counting))
        for build in ("tag_document", "import_tagged", "tag_document"):
            self.read(build, "The cat sat", "The cat sat")
        assert built == ["The", "cat", "sat"]
        self.read("import_tagged", "The dog sat", "A dog sat")
        self.read("tag_document", "A cat ran")
        assert built == ["The", "cat", "sat", "dog", "A", "ran"]

    @pytest.mark.parametrize("build", ["tag_document", "import_tagged"])
    def test_table_emptied_when_a_document_starts_over_bound(self, build, monkeypatch):
        monkeypatch.setattr(tagging, "_TOKENS", {})
        monkeypatch.setattr(tagging, "SURFACE_TABLE_BOUND", 2)
        # three surfaces: over the bound within the document, still shared
        first = self.read(build, "The cat sat", "The cat sat")
        one, two = first.sentences
        assert all(a is b for a, b in zip(one.tokens, two.tokens))
        assert len(tagging._TOKENS) == 3
        # the next document starts with the table emptied
        second = self.read(build, "The cat")
        (sentence,) = second.sentences
        assert sentence.tokens == one.tokens[:2]
        assert not any(a is b for a, b in zip(sentence.tokens, one.tokens))
        assert sorted(tagging._TOKENS) == ["The", "cat"]
        # at the bound, not over it: the table is kept
        third = self.read(build, "cat")
        assert third.sentences[0].tokens[0] is sentence.tokens[1]
