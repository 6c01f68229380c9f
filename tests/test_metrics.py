"""The 12 complexity variables against hand-computed values."""

import math

import pytest

from lexcite.errors import EmptyDocument
from lexcite.metrics import (
    VARIABLE_COLUMNS,
    complexity_profile,
    profile_cells,
)
from lexcite.tableio import read_table, write_table
from lexcite.tagging import import_tagged


def doc_from(*sentences):
    """Build a TaggedDocument from (surface, tag) tuple lists."""
    blocks = []
    for sent in sentences:
        blocks.append("\n".join(f"{w}\t{t}" for w, t in sent))
    return import_tagged("\n\n".join(blocks) + "\n", doc_id="t")


S1 = [("The", "DT"), ("big", "JJ"), ("cat", "NN"), ("sat", "VBD"), (".", ".")]
S2 = [("It", "PRP"), ("was", "VBD"), ("very", "RB"), ("tired", "JJ"), (".", ".")]


class TestSentenceLength:
    def test_mean_and_sd(self):
        # word counts 4 and 4 -> mean 4, sd 0
        p = complexity_profile(doc_from(S1, S2))
        assert p.mean_sentence_length == 4.0
        assert p.sd_sentence_length == 0.0

    def test_sample_sd(self):
        # counts 2, 4, 6, 8: mean 5, sample variance 20/3
        sents = [[("a", "NN")] * n + [(".", ".")] for n in (2, 4, 6, 8)]
        p = complexity_profile(doc_from(*sents))
        assert p.mean_sentence_length == 5.0
        assert abs(p.sd_sentence_length - math.sqrt(20.0 / 3.0)) < 1e-12

    def test_single_sentence_sd_zero(self):
        p = complexity_profile(doc_from(S1))
        assert (p.mean_sentence_length, p.sd_sentence_length) == (4.0, 0.0)

    def test_wordless_sentence_excluded(self):
        punct_only = [("(", "("), (")", ")"), (".", ".")]
        p = complexity_profile(doc_from(S1, punct_only))
        assert p.mean_sentence_length == 4.0

    def test_empty_document(self):
        with pytest.raises(EmptyDocument):
            complexity_profile(doc_from([(".", ".")]))


class TestTtr:
    def test_case_folding(self):
        doc = doc_from([("The", "DT"), ("the", "DT"), ("cat", "NN")])
        assert complexity_profile(doc).ttr == 2 / 3

    def test_all_distinct(self):
        assert complexity_profile(doc_from(S1)).ttr == 1.0


class TestProfile:
    def test_big_cats_sleep(self):
        doc = doc_from([("Big", "JJ"), ("cats", "NNS"), ("sleep", "VBP"), (".", ".")])
        p = complexity_profile(doc)
        assert p.mean_sentence_length == 3.0
        assert p.sd_sentence_length == 0.0
        assert p.clause_ratio == 1.0
        assert p.ttr == 1.0
        assert p.noun_length == 4.0
        assert p.verb_length == 5.0
        assert p.adj_length == 3.0
        assert p.adv_length is None
        assert p.noun_ratio == p.verb_ratio == p.adj_ratio == pytest.approx(1 / 3)
        assert p.adv_ratio == 0.0
        assert None in p[1:]

    def test_adjective_lengths_averaged(self):
        doc = doc_from([("red", "JJ"), ("blue", "JJ"), ("wide", "JJ"),
                        ("door", "NN"), (".", ".")])
        assert complexity_profile(doc).adj_length == pytest.approx(11 / 3)

    def test_clause_ratio_over_retained(self):
        # 3 clauses over 2 sentences
        doc = doc_from(
            [("he", "PRP"), ("ran", "VBD"), ("and", "CC"), ("fell", "VBD")],
            [("she", "PRP"), ("slept", "VBD")],
        )
        assert complexity_profile(doc).clause_ratio == 1.5

    def test_char_length_alphabetic_only(self):
        doc = doc_from([("B12", "NN"), ("x-ray", "NN")])
        # B12 -> 1 letter, x-ray -> 4 letters
        assert complexity_profile(doc).noun_length == 2.5

    def test_densities_sum_at_most_one(self):
        doc = doc_from(S1, S2)
        p = complexity_profile(doc)
        total = p.noun_ratio + p.verb_ratio + p.adj_ratio + p.adv_ratio
        assert total <= 1.0 + 1e-12

    def test_all_classes_absent_vs_present(self):
        doc = doc_from([("hello", "UH"), ("there", "UH")])
        p = complexity_profile(doc)
        assert p.noun_length is None and p.verb_length is None
        assert p.adj_length is None and p.adv_length is None
        assert p.noun_ratio == 0.0


class TestRowRoundTrip:
    def test_round_trip_with_absent(self, tmp_path):
        # profile -> profiles.csv -> the cells compare and regress read
        doc = doc_from([("Big", "JJ"), ("cats", "NNS"), ("sleep", "VBP"), (".", ".")])
        p = complexity_profile(doc)
        row = list(p)
        assert len(row) == 1 + len(VARIABLE_COLUMNS)
        assert row[8] is None
        write_table(tmp_path / "profiles.csv", ["doc_id", *VARIABLE_COLUMNS], [p])
        rows = [cells for _, cells in read_table(tmp_path / "profiles.csv").rows]
        assert rows[0][0] == p.doc_id
        again = profile_cells(rows[0])
        assert [None if math.isnan(v) else v for v in again] == list(p[1:])

    def test_value_accessor(self):
        doc = doc_from(S1)
        p = complexity_profile(doc)
        assert p[1:][0] == p.mean_sentence_length
        assert p[1:][7] == p.adv_length
