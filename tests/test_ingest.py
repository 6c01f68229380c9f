"""Article XML parsing, abbreviation rewriting, and corpus files."""

from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lexcite.errors import EmptyDocument, FormatError, MalformedXml, MissingMetadata
from lexcite.ingest import (
    DEFAULT_ABBREVIATIONS,
    AbbreviationTable,
    RawDocument,
    document_from_json,
    document_to_json,
    normalize_abbreviations,
    parse_jats,
    read_corpus,
    write_corpus,
)
from lexcite.metrics import complexity_profile
from lexcite.tagging import LexiconTagger, tag_document


def article(body: str, doc_id: str = "10.1/x", year: str = "2010",
            domain: str = "Ecology") -> str:
    return f"""<article>
      <front>
        <journal-meta><journal-title>J Test</journal-title></journal-meta>
        <article-meta>
          <article-id pub-id-type="doi">{doc_id}</article-id>
          <article-categories>
            <subj-group><subject>{domain}</subject></subj-group>
          </article-categories>
          <pub-date><year>{year}</year></pub-date>
        </article-meta>
      </front>
      <body>{body}</body>
    </article>"""


TAGGER = LexiconTagger()


class TestParseJats:
    def test_two_paragraphs_in_order(self):
        doc = parse_jats(article("<p>A b.</p><p>C d.</p>"))
        assert doc.paragraphs == ["A b.", "C d."]
        assert doc.doc_id == "10.1/x"
        assert doc.year == 2010
        assert doc.domain == "Ecology"
        assert doc.journal == "J Test"

    def test_inline_tags_stripped(self):
        doc = parse_jats(article("<p>x <i>y</i> z</p>"))
        assert doc.paragraphs == ["x y z"]

    def test_entities_decoded(self):
        doc = parse_jats(article("<p>a &lt; b &amp; c</p>"))
        assert doc.paragraphs == ["a < b & c"]

    def test_no_markup_left_in_text(self):
        doc = parse_jats(article("<p>x <xref rid='r1'>Smith (2001)</xref> y</p>"))
        joined = " ".join(doc.paragraphs)
        assert "<" not in joined and ">" not in joined

    def test_nested_p_not_duplicated(self):
        doc = parse_jats(article("<p>outer <p>inner</p> tail</p>"))
        assert doc.paragraphs == ["outer inner tail"]

    def test_first_year_in_document_order_wins(self):
        xml = article("<p>t.</p>").replace(
            "<pub-date><year>2010</year></pub-date>",
            "<pub-date><year>2012</year></pub-date><pub-date><year>2010</year></pub-date>")
        assert parse_jats(xml).year == 2012

    def test_deeper_candidate_first_in_document_order_wins(self):
        xml = article("<p>t.</p>").replace(
            "<pub-date><year>2010</year></pub-date>",
            "<pub-date><x><year>2012</year></x><year>2010</year></pub-date>")
        assert parse_jats(xml).year == 2012

    def test_first_subject_wins(self):
        xml = article("<p>t.</p>").replace(
            "<subj-group><subject>Ecology</subject></subj-group>",
            "<subj-group><subject>Genetics</subject><subject>Ecology</subject></subj-group>")
        assert parse_jats(xml).domain == "Genetics"

    def test_abstract_and_caption_paragraphs_collected(self):
        xml = article("<fig><caption><p>Cap.</p></caption></fig><p>Body.</p>").replace(
            "</article-meta>", "<abstract><p>Abs.</p></abstract></article-meta>")
        assert parse_jats(xml).paragraphs == ["Abs.", "Cap.", "Body."]

    def test_zero_paragraphs_rejected(self):
        with pytest.raises(MissingMetadata, match="no paragraph with a letter for '10.1/x'"):
            parse_jats(article("<sec><title>Intro</title></sec>"))

    def test_whitespace_only_paragraph_dropped(self):
        doc = parse_jats(article("<p>  </p><p>real text.</p>"))
        assert doc.paragraphs == ["real text."]

    def test_malformed_xml(self):
        with pytest.raises(MalformedXml):
            parse_jats("<article><p>unclosed")

    def test_missing_doc_id(self):
        xml = article("<p>t.</p>").replace(
            '<article-id pub-id-type="doi">10.1/x</article-id>', "")
        with pytest.raises(MissingMetadata, match="^doc id '' is empty, holds a TAB or a "
                                                  "line break, or has white space at an end$"):
            parse_jats(xml)

    def test_missing_year(self):
        xml = article("<p>t.</p>").replace("<pub-date><year>2010</year></pub-date>", "")
        with pytest.raises(MissingMetadata):
            parse_jats(xml)

    def test_year_out_of_range(self):
        with pytest.raises(MissingMetadata, match=r"year 1850 outside \[1900, 2100\] for '10.1/x'"):
            parse_jats(article("<p>t.</p>", year="1850"))

    @pytest.mark.parametrize("year, message", [
        ("²⁰¹⁰", None), ("20.1", None),
        # a number, but no year of the range
        ("-2010", "year -2010 outside [1900, 2100] for '10.1/x'"),
        ("", None), ("٢٠١٠", None), ("２０１０", None), ("+2010", None), ("2_010", None),
        ("20100", None),
    ], ids=["superscript-digits", "decimal-point", "minus-sign", "empty", "arabic-indic-digits",
            "fullwidth-digits", "plus-sign", "underscore", "five-digits"])
    def test_unusable_year(self, year, message):
        """A year is parse_int's, of at most 4 digits after the leading zeros."""
        with pytest.raises(MissingMetadata) as err:
            parse_jats(article("<p>t.</p>", year=year))
        assert str(err.value) == (message or "no usable year for '10.1/x'")

    def test_year_of_thousands_of_digits(self):
        # refused before int() meets it, alike on every Python version
        with pytest.raises(MissingMetadata, match=r"^no usable year for '10.1/x'$"):
            parse_jats(article("<p>t.</p>", year="2" * 5000))

    def test_leading_zeros_do_not_count(self):
        assert parse_jats(article("<p>t.</p>", year="0" * 5000 + "2010")).year == 2010
        with pytest.raises(MissingMetadata, match=r"year 0 outside"):
            parse_jats(article("<p>t.</p>", year="0000"))

    def test_preferred_id_type_wins(self):
        xml = article("<p>t.</p>").replace(
            '<article-id pub-id-type="doi">10.1/x</article-id>',
            '<article-id pub-id-type="pmid">999</article-id>'
            '<article-id pub-id-type="doi">10.5/real</article-id>')
        assert parse_jats(xml).doc_id == "10.5/real"

    def test_fallback_to_first_id(self):
        xml = article("<p>t.</p>").replace(
            '<article-id pub-id-type="doi">10.1/x</article-id>',
            '<article-id pub-id-type="pmid">999</article-id>')
        assert parse_jats(xml).doc_id == "999"

    def test_namespaced_tags(self):
        xml = article("<p>t.</p>").replace(
            "<article>", '<article xmlns="http://example.org/jats">')
        doc = parse_jats(xml)
        assert doc.doc_id == "10.1/x"
        assert doc.paragraphs == ["t."]

    def test_deterministic(self):
        xml = article("<p>Some text here.</p>")
        assert parse_jats(xml) == parse_jats(xml)


DEFAULT_TABLE = AbbreviationTable()
# Keys, expansions, their fragments and the characters around a match, so
# that generated text puts keys next to expansions and to each other.
ABBREVIATION_PIECES = sorted(
    {piece for key, expansion in DEFAULT_ABBREVIATIONS.items()
     for piece in (key, expansion, key[:-1], key[1:], expansion[-3:])}
    | set(" .,;-(\"'a1Éß\n"))


class TestAbbreviations:
    def test_et_al(self):
        table = AbbreviationTable({"et al.": "and others"})
        assert normalize_abbreviations("Smith et al. found X.", table) == \
            "Smith and others found X."

    def test_no_keys_unchanged(self):
        table = AbbreviationTable({"et al.": "and others"})
        assert normalize_abbreviations("Nothing to do here.", table) == \
            "Nothing to do here."

    def test_longest_match_chain(self):
        table = AbbreviationTable({"cf.": "compare", "Fig.": "Figure"})
        assert normalize_abbreviations("cf. Fig. 1.", table) == "compare Figure 1."

    def test_default_table(self):
        out = normalize_abbreviations("See Fig. 2, e.g. the left panel.",
                                      AbbreviationTable())
        assert out == "See Figure 2, for example the left panel."

    def test_idempotent(self):
        table = AbbreviationTable()
        text = "Smith et al. e.g. cf. Fig. 3 vs. Eq. 2."
        once = normalize_abbreviations(text, table)
        assert normalize_abbreviations(once, table) == once

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(st.text(), st.lists(st.sampled_from(ABBREVIATION_PIECES)).map("".join)))
    def test_default_table_idempotent(self, text):
        once = normalize_abbreviations(text, DEFAULT_TABLE)
        assert normalize_abbreviations(once, DEFAULT_TABLE) == once

    def test_not_idempotent_for_every_table(self):
        table = AbbreviationTable({"x.": "a", "ab.": "Z"})
        once = normalize_abbreviations("x.b.", table)
        assert (once, normalize_abbreviations(once, table)) == ("ab.", "Z")

    def test_key_not_matched_inside_word(self):
        table = AbbreviationTable({"al.": "others"})
        # "al." embedded in "et al." has a word char before it only in
        # "tal." style positions; check a real in-word case
        assert normalize_abbreviations("The total. Next.", table) == "The total. Next."

    def test_key_must_end_with_period(self):
        with pytest.raises(ValueError):
            AbbreviationTable({"etc": "and so on"})

    def test_expansion_must_not_contain_period(self):
        with pytest.raises(ValueError):
            AbbreviationTable({"etc.": "etc."})

    def test_from_file(self, tmp_path):
        path = tmp_path / "abbrev.tsv"
        path.write_text("# comment\netc.\tand so on\nNo.\tNumber\n", encoding="utf-8")
        table = AbbreviationTable.from_file(path)
        assert normalize_abbreviations("etc. No. 5", table) == "and so on Number 5"

    def test_from_file_missing_tab(self, tmp_path):
        path = tmp_path / "abbrev.tsv"
        path.write_text("etc.\tand so on\netc. and so on\n", encoding="utf-8")
        with pytest.raises(FormatError) as err:
            AbbreviationTable.from_file(path)
        assert err.value.line_number == 2

    @pytest.mark.parametrize("line", ["etc\tand so on", "etc.\tet cetera.", " etc.\tand so on"],
                             ids=["key-without-period", "period-in-expansion",
                                  "key-starting-with-white-space"])
    def test_from_file_bad_entry_names_line(self, tmp_path, line):
        path = tmp_path / "abbrev.tsv"
        path.write_text(f"# comment\n{line}\n", encoding="utf-8")
        with pytest.raises(FormatError) as err:
            AbbreviationTable.from_file(path)
        assert err.value.line_number == 2
        assert "abbrev.tsv" in str(err.value)

    def test_from_file_repeated_key_names_line(self, tmp_path):
        """A repeated key is refused, not silently given its last expansion."""
        path = tmp_path / "abbrev.tsv"
        path.write_text("e.g.\tfor example\nNo.\tNumber\ne.g.\tsay\n", encoding="utf-8")
        with pytest.raises(FormatError) as err:
            AbbreviationTable.from_file(path)
        assert str(err.value) == "line 3: abbrev.tsv: abbreviation key 'e.g.' is repeated"

    @pytest.mark.parametrize("key", [" e.g.", "\te.g.", "\u00a0e.g."],
                             ids=["space", "tab", "no-break-space"])
    def test_key_starting_with_white_space_refused(self, key):
        """Such a key never matches after a word, so its period would split
        a sentence; the dict API refuses it like the file."""
        with pytest.raises(ValueError, match="starts with white space"):
            AbbreviationTable({key: "for example"})


class TestRawDocument:
    def test_validates_doc_id(self):
        with pytest.raises(MissingMetadata):
            RawDocument(doc_id="", year=2010, domain="d", paragraphs=["x"])

    @pytest.mark.parametrize("doc_id", ["a\tb", "a\nb", "a\rb", " a", "a ", "a\u00a0"])
    def test_doc_id_must_round_trip(self, doc_id):
        """corpus.jsonl and a #doc= line carry back no TAB, no line end and
        no white space at either end."""
        with pytest.raises(MissingMetadata, match="holds a TAB or a line break"):
            RawDocument(doc_id=doc_id, year=2010, domain="d", paragraphs=["x"])

    def test_validates_year(self):
        with pytest.raises(MissingMetadata):
            RawDocument(doc_id="a", year=1500, domain="d", paragraphs=["x"])

    def test_strips_empty_paragraphs(self):
        doc = RawDocument(doc_id="a", year=2010, domain="d",
                          paragraphs=["  x  ", "", "  "])
        assert doc.paragraphs == ["x"]

    def test_replace_checks_too(self):
        doc = RawDocument(doc_id="a", year=2010, domain="d", paragraphs=["x"])
        assert doc._replace(paragraphs=[" y ", " "]).paragraphs == ["y"]
        with pytest.raises(MissingMetadata):
            doc._replace(year=1500)
        with pytest.raises(MissingMetadata):
            doc._replace(doc_id="")
        with pytest.raises(MissingMetadata, match="no paragraph with a letter"):
            doc._replace(paragraphs=["", " "])

    @pytest.mark.parametrize("paragraphs, accepted", [
        ([], False), (["", "  "], False), (["12 3.4 %"], False), (["²₂ ½ _"], False),
        (["12", "3 é."], True), (["中"], True), (["x"], True),
    ], ids=["none", "blank", "digits-and-symbols", "numerals", "accented-letter",
            "cjk-letter", "ascii-letter"])
    def test_paragraphs_need_a_letter(self, paragraphs, accepted):
        if accepted:
            RawDocument(doc_id="a", year=2010, domain="d", paragraphs=paragraphs)
        else:
            with pytest.raises(MissingMetadata, match="^no paragraph with a letter for 'a'$"):
                RawDocument(doc_id="a", year=2010, domain="d", paragraphs=paragraphs)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.text(st.one_of(st.sampled_from(" \t\n.,%-'_12²½"), st.characters()),
                            max_size=12), max_size=3))
    def test_accepted_exactly_when_profiled(self, paragraphs):
        """Every non-space character falls into some token, and a token is
        a word exactly when it holds a letter: so a document has a profile
        exactly when RawDocument accepts its paragraphs."""
        try:
            RawDocument(doc_id="a", year=2010, domain="d", paragraphs=paragraphs)
            accepted = True
        except MissingMetadata:
            accepted = False
        unchecked = SimpleNamespace(doc_id="a", paragraphs=paragraphs)
        try:
            complexity_profile(tag_document(unchecked, TAGGER))
            profiled = True
        except EmptyDocument:
            profiled = False
        assert accepted == profiled


class TestCorpusFile:
    def docs(self):
        return [
            RawDocument(doc_id="b", year=2011, domain="d2", paragraphs=["Two."]),
            RawDocument(doc_id="a", year=2010, domain="d1", paragraphs=["One."]),
        ]

    def test_round_trip_in_given_order(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        assert write_corpus(iter(self.docs()), path) == 2
        loaded = list(read_corpus(path))
        assert loaded == self.docs()
        assert [d.doc_id for d in loaded] == ["b", "a"]

    def test_duplicate_ids_rejected(self, tmp_path):
        """The first repeat is named, and the lines before it stay written:
        the caller removes a failed corpus file."""
        docs = self.docs() + [RawDocument(doc_id=doc_id, year=2012, domain="d",
                                          paragraphs=["P."])
                              for doc_id in ("c", "a", "b")]
        path = tmp_path / "corpus.jsonl"
        with pytest.raises(MissingMetadata, match=r"^duplicate doc_id 'a'$"):
            write_corpus(docs, path)
        assert [d.doc_id for d in read_corpus(path)] == ["b", "a", "c"]

    @pytest.mark.parametrize("line, message", [
        ('{"doc_id": "c", "year": 2012', "JSONDecodeError"),
        ('{"doc_id": "c", "year": 3000, "domain": "d", "journal": "", "paragraphs": ["P."]}',
         "year 3000 outside"),
        ('{"doc_id": "c", "domain": "d", "journal": "", "paragraphs": ["P."]}',
         "ValueError: want an object with the fields doc_id, year,"),
        # refused by lexcite's rule, before int() meets it, alike on every Python
        ('{"doc_id": "c", "year": ' + "2" * 5000 + ', "domain": "d", "journal": "", '
         '"paragraphs": ["P."]}',
         "not a document record: ValueError: integer of 5000 digits; at most 4300"),
    ], ids=["malformed-json", "year-out-of-range", "missing-year", "year-of-5000-digits"])
    def test_bad_line_names_line(self, tmp_path, line, message):
        path = tmp_path / "corpus.jsonl"
        write_corpus(self.docs(), path)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("\n" + line + "\n")
        with pytest.raises(FormatError) as err:
            list(read_corpus(path))
        assert err.value.line_number == 4
        assert "corpus.jsonl" in str(err.value) and message in str(err.value)

    def test_json_field_order(self):
        doc = RawDocument(doc_id="a", year=2010, domain="d",
                          paragraphs=["P."], journal="J")
        line = document_to_json(doc)
        assert line.index('"doc_id"') < line.index('"year"') < \
            line.index('"domain"') < line.index('"journal"') < line.index('"paragraphs"')
        assert document_from_json(line) == doc
