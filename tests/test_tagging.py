"""Segmentation, tokenization, tagging, clause counting, column format."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lexcite.errors import FormatError, TaggerLengthMismatch
from lexcite.ingest import RawDocument
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

    def test_tie_breaks_to_smaller_tag(self):
        lexicon = load_lexicon()
        # bundled file gives "light" equal counts for JJ and NN
        assert lexicon["light"] == "JJ"

    def test_custom_lexicon_file(self, tmp_path):
        path = tmp_path / "lex.tsv"
        path.write_text("# header\nfoo\tVB\t10\nfoo\tNN\t20\n", encoding="utf-8")
        assert load_lexicon(path) == {"foo": "NN"}


class TestCountClauses:
    def tag(self, pairs):
        return import_tagged("\n".join(f"{w}\t{t}" for w, t in pairs) + "\n")

    def test_two_finite_verbs(self):
        doc = tag_document(RawDocument(
            doc_id="d", year=2010, domain="x",
            paragraphs=["The cat sat because it was tired."]))
        assert doc.sentences[0].clause_count == 2

    def test_modal_plus_base(self):
        doc = tag_document(RawDocument(
            doc_id="d", year=2010, domain="x", paragraphs=["It can run."]))
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
                        "Values were 3.5 mm (p<0.05)."]))
        again = import_tagged(export_tagged(doc))
        assert again == doc

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
                                          paragraphs=["Item #3 failed."]))
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
            paragraphs=["First sentence only", "second paragraph text"]))
        assert len(doc.sentences) == 2

    def test_word_totals(self):
        raw = RawDocument(doc_id="d", year=2010, domain="x",
                          paragraphs=["One two three. Four five."])
        doc = tag_document(raw)
        assert sum(t.is_word for s in doc.sentences for t in s.tokens) == 5

    @pytest.mark.parametrize("build", ["tag_document", "import_tagged"])
    def test_one_token_per_distinct_surface(self, build):
        # a surface tagged NN in one sentence and VB in the next is still one
        # Token within a document; a second document builds its own
        def read():
            if build == "import_tagged":
                return import_tagged("The\tDT\ncat\tNN\nsat\tVBD\n\n"
                                     "The\tDT\ncat\tVB\nsat\tVBD\n\n")
            tags = iter([["DT", "NN", "VBD", "."], ["DT", "VB", "VBD", "."]])
            return tag_document(RawDocument(doc_id="d", year=2010, domain="x",
                                            paragraphs=["The cat sat. The cat sat."]),
                                lambda tokens: next(tags))

        doc = read()
        tokens = [t for s in doc.sentences for t in s.tokens]
        assert len({id(t) for t in tokens}) == len({t.surface for t in tokens})
        assert [s.tags[1] for s in doc.sentences] == ["NN", "VB"]
        again = [t for s in read().sentences for t in s.tokens]
        assert again == tokens
        assert not any(a is b for a, b in zip(again, tokens))

    def test_each_surface_built_once(self, monkeypatch):
        built = []
        from_surface = Token.from_surface.__func__

        def counting(cls, surface):
            built.append(surface)
            return from_surface(cls, surface)

        monkeypatch.setattr(Token, "from_surface", classmethod(counting))
        calls = []

        def tagger(tokens):  # everything NN in one sentence, VB in the next
            calls.append(1)
            return ["NN" if len(calls) == 1 else "VB"] * len(tokens)

        doc = tag_document(RawDocument(doc_id="d", year=2010, domain="x",
                                       paragraphs=["The cat sat. The cat sat."]),
                           tagger)
        assert built == ["The", "cat", "sat", "."]
        first, second = doc.sentences
        assert first.tokens[1] is second.tokens[1]
        assert (first.tags[1], second.tags[1]) == ("NN", "VB")
