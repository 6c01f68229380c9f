"""Every stage keeps the error contract on the boundary values of every
cell kind it reads.

Each cell kind (doc id, year, domain, count, float, group, tag, "#clauses="
value, abbreviation key) has its own strategy, which draws its boundary
values: 0 and -0.0, 5e-324, +-1e308 and 1e-300, a 400-digit count, nan and
inf, the empty cell, "1_0", non-ASCII digits, padded cells, a cell over the
csv module's size limit and a lone surrogate escape in corpus.jsonl. Each input
is a valid table with one to three cells replaced by draws of their
column's kind. Each stage runs in-process with warnings raised as errors,
and must exit 0, 1 or 2, write errors.json exactly when it exits 1, print
no traceback, and write only numeric cells that read back, or "-" or empty
ones: a count (a year among them) through parse_int, the way normalize reads
baselines.csv, and any other number through parse_finite.

The library twin holds the CLI to the library on one row of each table
kind, with one cell replaced, so that no other cell's fault hides its
rule: a stage refuses the row, with a FormatError naming its line, exactly
when the record constructor or the row's parse refuses it.
"""

import contextlib
import csv
import io
import json
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lexcite import cli
from lexcite.cli import main
from lexcite.errors import MissingMetadata
from lexcite.impact import Baseline, CitationRecord, ImpactGroup, NormalizedScore
from lexcite.ingest import check_doc_id, document_from_json
from lexcite.metrics import profile_cells
from lexcite.stats import bootstrap_mean_ci
from lexcite.tableio import parse_finite, parse_int, read_table, write_table


def kind(*values: str, general: st.SearchStrategy | None = None) -> st.SearchStrategy:
    """One of the boundary values, or a draw from general."""
    boundary = st.sampled_from(values)
    return boundary if general is None else st.one_of(boundary, general)


# the spellings that no number may have
MISSPELT = ("", "1_0", "٣", "１", "𝟑", "²", " 7", "7 ", "+7")

DOC_IDS = kind("d00", "a", "", " a", "a\tb", "a\nb", "٣", "0", "-0.0", "1_0")
YEARS = kind("2010", "1900", "2100", "1899", "0", "-0", "-2010", "00002010", "9" * 400,
             "٢٠١٠", "２０１０", "2_010", " 2010", "+2010", "", "2010.0",
             general=st.integers(1800, 2200).map(str))
DOMAINS = kind("Eco", "Gen", "", " Eco", "0", "-0.0", "٣")
COUNTS = kind("0", "-0", "-1", "1" + "0" * 400, "9" * 400, "9" * 5000, "0" * 5000 + "7",
              "1.0", "1e3", "nan", *MISSPELT,
              general=st.integers(0, 10 ** 6).map(str))
FLOATS = kind("0", "-0.0", "5e-324", "-5e-324", "1e308", "-1e308", "1e-300", "nan", "inf",
              "-inf", "1e999", ".5", "5.", "9" * 400, "1" * (csv.field_size_limit() + 1),
              *MISSPELT,
              general=st.floats().map(repr))
GROUPS = kind("High", "Medium", "Low", "", "high", " Low", "Top", "0")
TAGS = kind("NN", "NNS", "VBD", "VBZ", "MD", "VB", "JJ", "RB", "DT", ".", "CD", "", " NN",
            "#", "٣")
CLAUSES = kind("0", "3", "999999999", "0000000001", "1" * 10, "-1", "-0", "9" * 400, "3.0",
               *MISSPELT)
ABBREV_KEYS = kind("e.g.", "x.", "Fig.", "", "x", "a.b.", " x.", "٣.", "1_0.", "1.", "-0.",
                   "#x.")
EXPANSIONS = kind("for example", "", "x.y", "٣", " y ")

# the text and the integer columns of lexcite's tables; every other column
# holds floats
TEXT_COLUMNS = {"doc_id", "domain", "group", "variable", "group_pair", "stars", "status",
                "cohort", "file", "error", "message"}
INT_COLUMNS = {"year", "n", "n1", "n2", "n_excluded", "n_used", "n_dropped", "model"}
PROFILE_HEADER = ["doc_id", *[f"x{i}" for i in range(1, 13)]]
DOC_IDS_12 = [f"d{i:02d}" for i in range(12)]
GROUP_OF = ["High", "Medium", "Medium", "Medium", *["Low"] * 8]


@st.composite
def edited(draw, rows: list[list[str]], kinds: list[st.SearchStrategy],
           most: int = 3) -> list[list[str]]:
    """rows, a valid table body, with one to `most` cells replaced by draws
    of their column's kind."""
    rows = [list(row) for row in rows]
    for _ in range(draw(st.integers(1, most))):
        row = draw(st.integers(0, len(rows) - 1))
        column = draw(st.integers(0, len(kinds) - 1))
        rows[row][column] = draw(kinds[column])
    return rows


def run_stage(stage: str, out: Path, *argv: str) -> int:
    """Run one stage into out under warnings as errors, check the contract,
    and return its exit code."""
    stderr = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stderr(stderr):
        warnings.simplefilter("error")
        code = main([stage, *argv, "--out", str(out), "--iterations", "20"])
    text = stderr.getvalue()
    assert code in (0, 1, 2)
    assert (out / "errors.json").exists() == (code == 1)
    assert "Traceback" not in text
    assert text.count("\n") == (code != 0) and text.startswith("error" if code else ""), text
    if code == 1:
        assert json.loads((out / "errors.json").read_text(encoding="utf-8"))["stage"] == stage
    for pattern in cli._STAGES[stage].owns:
        for path in out.glob(pattern):
            if path.suffix == ".csv":
                table = read_table(path)
                for _, cells in table.rows:
                    for column, cell in zip(table.header, cells):
                        if column in INT_COLUMNS:
                            parse_int(cell)
                        elif column not in TEXT_COLUMNS and cell not in ("", "-"):
                            parse_finite(cell)
    return code


CITATIONS = [["a", "2010", "Eco", "3"], ["b", "2010", "Eco", "0"], ["c", "2011", "Gen", "7"]]


@settings(max_examples=40, deadline=None)
@given(rows=edited(CITATIONS, [DOC_IDS, YEARS, DOMAINS, COUNTS]))
def test_citations(rows):
    with tempfile.TemporaryDirectory() as tmp:
        citations = Path(tmp) / "citations.csv"
        write_table(citations, ["doc_id", "year", "domain", "total_citations"], rows)
        run_stage("normalize", Path(tmp) / "out", "--citations", str(citations))


@settings(max_examples=40, deadline=None)
@given(rows=edited([["2010", "Eco", "1.5", "2"], ["2011", "Gen", "7.0", "1"]],
                   [YEARS, DOMAINS, FLOATS, COUNTS]))
def test_baselines(rows):
    with tempfile.TemporaryDirectory() as tmp:
        citations, baselines = Path(tmp) / "citations.csv", Path(tmp) / "baselines.csv"
        write_table(citations, ["doc_id", "year", "domain", "total_citations"], CITATIONS)
        write_table(baselines, ["year", "domain", "adc", "n"], rows)
        run_stage("normalize", Path(tmp) / "out", "--citations", str(citations),
                  "--baselines", str(baselines))


# valid profiles.csv and scores.csv bodies of 12 documents
_rng = np.random.default_rng(0)
PROFILES = [[doc_id, *map(repr, _rng.uniform(1, 9, 12).tolist())] for doc_id in DOC_IDS_12]
SCORES = [[doc_id, repr(nc), group]
          for doc_id, nc, group in zip(DOC_IDS_12, _rng.lognormal(0, 1, 12).tolist(), GROUP_OF)]


@settings(max_examples=25, deadline=None)
@given(rows=edited(SCORES, [DOC_IDS, FLOATS, GROUPS]))
def test_scores(rows):
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        write_table(out / "profiles.csv", PROFILE_HEADER, PROFILES)
        write_table(out / "scores.csv", ["doc_id", "nc", "group"], rows)
        for stage in ("compare", "regress", "group"):
            run_stage(stage, out)


@settings(max_examples=25, deadline=None)
@given(rows=edited(PROFILES, [DOC_IDS, *[FLOATS] * 12]))
def test_profiles(rows):
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        write_table(out / "profiles.csv", PROFILE_HEADER, rows)
        write_table(out / "scores.csv", ["doc_id", "nc", "group"], SCORES)
        for stage in ("compare", "regress"):
            run_stage(stage, out)


@st.composite
def tagged_text(draw) -> str:
    """A tagged file of two sentences whose "#clauses=" values and tags are
    drawn, one to three of them boundary values."""
    sentences = [["2", ("The", "DT"), ("cat", "NN"), ("sat", "VBD"), (".", ".")],
                 ["1", ("It", "PRP"), ("will", "MD"), ("run", "VB"), ("3", "CD")]]
    for _ in range(draw(st.integers(1, 3))):
        sentence = draw(st.sampled_from(sentences))
        place = draw(st.integers(0, len(sentence) - 1))
        if place == 0:
            sentence[0] = draw(CLAUSES)
        else:
            sentence[place] = (sentence[place][0], draw(TAGS))
    return "#doc=a\n" + "".join(
        f"#clauses={clauses}\n" + "".join(f"{surface}\t{tag}\n" for surface, tag in tokens)
        + "\n" for clauses, *tokens in sentences)


@settings(max_examples=40, deadline=None)
@given(text=tagged_text())
def test_tagged(text):
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        (out / "tagged").mkdir(parents=True)
        (out / "tagged" / "a.tsv").write_text(text, encoding="utf-8")
        run_stage("profile", out)


def corpus_record(doc_id: str, year: str) -> str:
    return (f'{{"doc_id": {json.dumps(doc_id)}, "year": {year}, "domain": "x", '
            '"journal": "", "paragraphs": ["The cats sleep. It ran."]}')


@settings(max_examples=40, deadline=None)
@given(doc_id=st.one_of(DOC_IDS, st.just("\ud800")), year=YEARS)
def test_corpus(doc_id, year):
    """A corpus.jsonl year is a JSON number parsed by parse_int, or bad JSON."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        (out / "corpus.jsonl").write_text(corpus_record(doc_id, year) + "\n", encoding="utf-8")
        if run_stage("tag", out) == 0:
            run_stage("profile", out)


ARTICLE = """<article><front><article-meta>
<article-id pub-id-type="doi">{doc_id}</article-id><pub-date><year>{year}</year></pub-date>
</article-meta></front>
<body><p>See e.g. Fig. 1_0. and x. a.b. for ٣. The cats sleep.</p></body></article>"""


@settings(max_examples=40, deadline=None)
@given(doc_id=DOC_IDS, year=YEARS,
       entries=edited([["e.g.", "for example"], ["x.", "ex"]], [ABBREV_KEYS, EXPANSIONS]))
def test_article_and_abbrev(doc_id, year, entries):
    with tempfile.TemporaryDirectory() as tmp:
        articles, abbrev = Path(tmp) / "xml", Path(tmp) / "abbrev.tsv"
        articles.mkdir()
        (articles / "a.xml").write_text(ARTICLE.format(doc_id=doc_id, year=year),
                                        encoding="utf-8")
        abbrev.write_text("".join(f"{key}\t{expansion}\n" for key, expansion in entries),
                          encoding="utf-8")
        run_stage("ingest", Path(tmp) / "out", "--input", str(articles),
                  "--abbrev", str(abbrev))


# ------------------------------------------------------------ library twin

def library_refuses(parse, row) -> bool:
    """Whether parse, the library's reading of one row, refuses it."""
    try:
        parse(row)
    except (ValueError, MissingMetadata):
        return True
    return False


def stage_refuses(stage: str, out: Path, name: str, line: int, *argv: str) -> bool:
    """Whether the stage, run under run_stage's contract, fails with a
    FormatError on line `line` of the file `name`."""
    if run_stage(stage, out, *argv) != 1:
        return False
    error = json.loads((out / "errors.json").read_text(encoding="utf-8"))
    return (error["error"] == "FormatError"
            and error["message"].startswith(f"line {line}: {name}: "))


@settings(max_examples=30, deadline=None)
@given(rows=edited([["a", "2010", "Eco", "3"]], [DOC_IDS, YEARS, DOMAINS, COUNTS], most=1))
def test_twin_citations(rows):
    with tempfile.TemporaryDirectory() as tmp:
        citations = Path(tmp) / "citations.csv"
        write_table(citations, ["doc_id", "year", "domain", "total_citations"], rows)
        refused = stage_refuses("normalize", Path(tmp) / "out", "citations.csv", 2,
                                "--citations", str(citations))
    assert refused == library_refuses(
        lambda row: CitationRecord(row[0], parse_int(row[1]), row[2], parse_int(row[3])),
        rows[0])


@settings(max_examples=30, deadline=None)
@given(rows=edited([["2010", "Eco", "1.5", "2"]], [YEARS, DOMAINS, FLOATS, COUNTS], most=1))
def test_twin_baselines(rows):
    with tempfile.TemporaryDirectory() as tmp:
        citations, baselines = Path(tmp) / "citations.csv", Path(tmp) / "baselines.csv"
        write_table(citations, ["doc_id", "year", "domain", "total_citations"], CITATIONS)
        write_table(baselines, ["year", "domain", "adc", "n"], rows)
        refused = stage_refuses("normalize", Path(tmp) / "out", "baselines.csv", 2,
                                "--citations", str(citations), "--baselines", str(baselines))
    assert refused == library_refuses(
        lambda row: Baseline(parse_int(row[0]), row[1], parse_finite(row[2]), parse_int(row[3])),
        rows[0])


@settings(max_examples=30, deadline=None)
@given(rows=edited([["d00", "1.5", "Low"]], [DOC_IDS, FLOATS, GROUPS], most=1))
def test_twin_scores(rows):
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        write_table(out / "scores.csv", ["doc_id", "nc", "group"], rows)
        refused = stage_refuses("group", out, "scores.csv", 2)
    assert refused == library_refuses(
        lambda row: NormalizedScore(row[0], parse_finite(row[1]),
                                    ImpactGroup(row[2]) if row[2] else None),
        rows[0])


@settings(max_examples=30, deadline=None)
@given(cell=st.one_of(st.tuples(st.just(0), DOC_IDS), st.tuples(st.integers(1, 12), FLOATS)))
def test_twin_profiles(cell):
    """The doc id is drawn as often as the twelve value cells together."""
    rows = [list(PROFILES[0])]
    rows[0][cell[0]] = cell[1]
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        write_table(out / "profiles.csv", PROFILE_HEADER, rows)
        write_table(out / "scores.csv", ["doc_id", "nc", "group"], SCORES)
        refused = stage_refuses("regress", out, "profiles.csv", 2)
    assert refused == library_refuses(lambda row: (check_doc_id(row[0]), profile_cells(row)),
                                      rows[0])


@settings(max_examples=30, deadline=None)
@given(doc_id=st.one_of(DOC_IDS, st.just("\ud800")), year=YEARS)
def test_twin_corpus(doc_id, year):
    record = corpus_record(doc_id, year)
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        (out / "corpus.jsonl").write_text(record + "\n", encoding="utf-8")
        refused = stage_refuses("tag", out, "corpus.jsonl", 1)
    assert refused == library_refuses(document_from_json, record)


DOC_ID_RULE = "is empty, holds a TAB or a line break, or has white space at an end"
LEVEL_RULE = "level must be strictly between 0 and 1"


@pytest.mark.parametrize("build, message", [
    (lambda: CitationRecord("a\tb", 2010, "e", 3), f"doc id 'a\\tb' {DOC_ID_RULE}"),
    (lambda: NormalizedScore(" x", 1.0), f"doc id ' x' {DOC_ID_RULE}"),
    (lambda: CitationRecord("d", -5, "e", 1), "year -5 outside [1900, 2100]"),
    (lambda: Baseline(10 ** 400, "e", 1.0, 1), f"year 1{'0' * 400} outside [1900, 2100]"),
    (lambda: bootstrap_mean_ci([1.0, 2.0, 3.0], 100, level=1.5), LEVEL_RULE),
    (lambda: bootstrap_mean_ci([1.0, 2.0, 3.0], 100, level=-3), LEVEL_RULE),
], ids=["citation-doc-id", "score-doc-id", "citation-year", "baseline-year", "level-1.5",
        "level-minus-3"])
def test_library_refuses_what_the_cli_refuses(build, message):
    with pytest.raises(ValueError) as refused:
        build()
    assert str(refused.value) == message
