"""CSV table serialization: metadata block, CRLF, repr floats, round trips;
and the one text rule of every line-based input."""

import ast
import math
import re
import tempfile
from pathlib import Path
from typing import Callable, NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lexcite import cli, tableio
from lexcite.errors import DataError, FormatError
from lexcite.ingest import AbbreviationTable, read_corpus
from lexcite.metrics import profile_cells
from lexcite.tableio import INT_DIGITS_MAX, parse_finite, parse_int, read_table, write_table
from lexcite.tagging import load_lexicon, read_tagged


@st.composite
def tables(draw):
    """(header, rows, metadata): a header of one or more columns and rows as
    wide as it, with any text, ints, floats and None in the cells."""
    width = draw(st.integers(1, 4))
    header = draw(st.lists(st.text(), min_size=width, max_size=width))
    cells = st.one_of(st.text(), st.integers(), st.floats(), st.none())
    rows = draw(st.lists(st.lists(cells, min_size=width, max_size=width), max_size=4))
    return header, rows, draw(st.dictionaries(st.text(), st.text(), max_size=3))


def expected_cell(value):
    """A cell as it reads back: floats by repr, None as empty, the rest by str."""
    if value is None:
        return ""
    return repr(value) if isinstance(value, float) else str(value)


def expected_lines(metadata, header, rows):
    """The line each written row starts on: after the metadata lines, the
    header and each row take one line plus one per line end in their cells."""
    def height(row):
        return 1 + sum(len(re.findall("\r\n|\r|\n", expected_cell(c))) for c in row)

    line, lines = len(metadata) + 1 + height(header), []
    for row in rows:
        lines.append(line)
        line += height(row)
    return lines


def read_back(path):
    """(metadata, header, rows, lines) of a table, with its lazily read rows
    and their lines as lists."""
    table = read_table(path)
    pairs = list(table.rows)
    return (table.metadata, table.header,
            [cells for _, cells in pairs], [line for line, _ in pairs])


def round_trip(tmp_path, row):
    """Write one data row, then return its raw line and its cells read back."""
    path = tmp_path / "t.csv"
    write_table(path, [f"c{i}" for i in range(len(row))], [row])
    rows = read_back(path)[2]
    return path.read_bytes().split(b"\r\n")[1], rows[0]


class TestFormatCell:
    def test_none_is_empty(self, tmp_path):
        assert round_trip(tmp_path, [None, "a"]) == (b",a", ["", "a"])

    def test_float_repr(self, tmp_path):
        line, cells = round_trip(tmp_path, [0.1, 1 / 3, 2.0])
        assert line == b"0.1,0.3333333333333333,2.0"
        assert cells == ["0.1", repr(1 / 3), "2.0"]
        assert [float(c) for c in cells] == [0.1, 1 / 3, 2.0]

    def test_int_and_str(self, tmp_path):
        line, cells = round_trip(tmp_path, [7, "abc", 'say "hi", then go'])
        assert line == b'7,abc,"say ""hi"", then go"'
        assert cells == ["7", "abc", 'say "hi", then go']


class TestWriteRead:
    @settings(max_examples=300, deadline=None)
    @given(tables())
    def test_round_trip(self, table):
        # write_table refuses with ValueError what would not read back, and
        # with DataError exactly the rows that hold a float that is not finite
        header, rows, metadata = table
        non_finite = any(isinstance(c, float) and not math.isfinite(c)
                         for row in rows for c in row)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "t.csv"
            try:
                write_table(path, header, rows, metadata)
            except ValueError:
                assert not path.exists()
                return
            except DataError:
                assert non_finite
                assert not path.exists()
                return
            assert not non_finite
            table = read_back(path)
            assert table[:3] == (metadata, header,
                                 [[expected_cell(c) for c in row] for row in rows])
            assert table[3] == expected_lines(metadata, header, rows)

    @pytest.mark.parametrize("cell", [math.inf, -math.inf, math.nan])
    def test_non_finite_cell_refused(self, tmp_path, cell):
        """parse_finite's rule on the write side: the error names the file,
        the row and the row's cells before its first float, and the file
        keeps its old bytes."""
        path = tmp_path / "est.csv"
        write_table(path, ["a"], [["old"]])
        old = path.read_bytes()
        rows = [["x1", "Low", 1.0, 2.0], ["x1", "Medium", 3.0, cell], ["x2", "Low", 1.0, 1.0]]
        with pytest.raises(DataError) as raised:
            write_table(path, ["variable", "group", "point", "ci_high"], rows)
        assert str(raised.value) == f"est.csv: row 2 (x1, Medium): non-finite value {cell!r}"
        assert path.read_bytes() == old
        assert [p.name for p in tmp_path.iterdir()] == ["est.csv"]

    @pytest.mark.parametrize("header, metadata", [
        (["a"], {"k": "x\ry"}), (["a"], {"": "v"}), (["#a"], None),
    ], ids=["cr-in-value", "empty-key", "hash-header"])
    def test_unreadable_table_refused(self, tmp_path, header, metadata):
        with pytest.raises(ValueError):
            write_table(tmp_path / "t.csv", header, [["x"]], metadata)
        assert not (tmp_path / "t.csv").exists()

    def test_lines_end_only_at_cr_or_lf(self, tmp_path):
        path = tmp_path / "t.csv"
        write_table(path, ["a"], [["x\ry"], ["u\r\nv"]], {"k": "x\x85\u2028y"})
        assert read_back(path)[:3] == ({"k": "x\x85\u2028y"}, ["a"], [["x\ry"], ["u\r\nv"]])

    def test_crlf_everywhere(self, tmp_path):
        path = tmp_path / "t.csv"
        write_table(path, ["a"], [[1], [2]], metadata={"k": "v"})
        raw = path.read_bytes()
        assert raw.count(b"\r\n") == 4
        assert b"\n" not in raw.replace(b"\r\n", b"")

    def test_no_metadata_block(self, tmp_path):
        path = tmp_path / "t.csv"
        write_table(path, ["a"], [[1]])
        assert path.read_bytes().startswith(b"a\r\n")
        metadata, header, rows, _ = read_back(path)
        assert metadata == {}
        assert rows == [["1"]]

    def test_quoting_of_commas(self, tmp_path):
        path = tmp_path / "t.csv"
        write_table(path, ["a"], [["x,y"]])
        assert b'"x,y"' in path.read_bytes()
        rows = read_back(path)[2]
        assert rows == [["x,y"]]

    def test_failed_write_keeps_old_table(self, tmp_path):
        path = tmp_path / "t.csv"
        write_table(path, ["a"], [[1], [2]], {"k": "v"})
        old = path.read_bytes()

        def rows():
            for i in range(10_000):
                if i == 5_000:
                    raise RuntimeError("row source failed")
                yield [i]

        with pytest.raises(RuntimeError, match="row source failed"):
            write_table(path, ["a"], rows(), {"k": "w"})
        assert path.read_bytes() == old
        assert [p.name for p in tmp_path.iterdir()] == ["t.csv"]

    def test_byte_identical_rewrite(self, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        args = (["h1", "h2"], [[1.5, None], [2, "s"]], {"seed": "3"})
        write_table(p1, *args)
        write_table(p2, *args)
        assert p1.read_bytes() == p2.read_bytes()

    def test_metadata_value_with_equals_kept(self, tmp_path):
        # only the first '=' separates key from value
        path = tmp_path / "t.csv"
        write_table(path, ["a"], [[1]], metadata={"expr": "x=y"})
        metadata = read_table(path).metadata
        assert metadata == {"expr": "x=y"}

    def test_metadata_key_with_equals_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_table(tmp_path / "t.csv", ["a"], [], metadata={"k=": "v"})

    def test_metadata_newline_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_table(tmp_path / "t.csv", ["a"], [], metadata={"k": "v\nw"})


class TestReadErrors:
    def test_bad_metadata_line(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_bytes(b"#noequals\r\na\r\n1\r\n")
        with pytest.raises(FormatError) as err:
            read_back(path)
        assert err.value.line_number == 1
        assert str(err.value).startswith("line 1: t.csv: metadata line without '='")

    def test_empty_metadata_key(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_bytes(b"#=v\r\na\r\n")
        with pytest.raises(FormatError) as err:
            read_back(path)
        assert str(err.value) == "line 1: t.csv: metadata line with empty key"

    def test_missing_header(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_bytes(b"#k=v\r\n")
        with pytest.raises(FormatError) as err:
            read_back(path)
        assert str(err.value) == "line 2: t.csv: missing CSV header row"

    def test_ragged_row(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_bytes(b"a,b\r\n1,2\r\n3\r\n")
        with pytest.raises(FormatError) as err:
            read_back(path)
        assert str(err.value) == "line 3: t.csv: row has 1 cells, header has 2"

    @pytest.mark.parametrize("raw, line", [
        (b"#k=1\r\n#k=2\r\na,b\r\n1,2\r\n3\r\n", 5),
        (b"a,b\r\n\r\n1,2\r\n3\r\n", 4),
        (b'a,b\r\n"x\r\ny",2\r\n3\r\n', 4),
        (b'a,b\r\n1,2\r\n"x\ny\rz"\r\n', 3),
    ], ids=["repeated-key", "blank-line", "multi-line-cell", "multi-line-bad-row"])
    def test_ragged_row_names_its_first_line(self, tmp_path, raw, line):
        path = tmp_path / "t.csv"
        path.write_bytes(raw)
        with pytest.raises(FormatError) as err:
            read_back(path)
        assert err.value.line_number == line

    def test_cell_over_csv_size_limit(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_bytes(b'#k=v\r\na,b\r\n1,2\r\n"' + b"x" * 200_000 + b'",3\r\n')
        with pytest.raises(FormatError) as err:
            read_back(path)
        assert err.value.line_number == 4
        assert "t.csv: field larger than field limit" in str(err.value)

    def test_row_lines(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_bytes(b'#k=1\r\n#k=2\na,b\r\n\r\n"x\r\ny",2\n3,4\r\r5,6')
        metadata, _, rows, lines = read_back(path)
        assert metadata == {"k": "2"}
        assert rows == [["x\r\ny", "2"], ["3", "4"], ["5", "6"]]
        assert lines == [5, 7, 9]

    @pytest.mark.parametrize("raw, line", [
        (b"a\r\nCaf\xe9\r\n", 2),
        (b"#k=\xff\na\n", 1),
        (b'a\r\n"x\ry\xe9"\r\n', 3),
    ], ids=["row", "metadata", "in-multi-line-cell"])
    def test_not_utf8_names_line(self, tmp_path, raw, line):
        path = tmp_path / "t.csv"
        path.write_bytes(raw)
        with pytest.raises(FormatError) as err:
            read_back(path)
        assert err.value.line_number == line
        assert str(err.value).startswith(f"line {line}: t.csv: not UTF-8")


class TestParseOptionalFloat:
    """profiles.csv cells as the compare and regress stages parse them."""

    def test_empty_is_none(self):
        assert all(math.isnan(v) for v in profile_cells(["d", ""]))

    def test_value(self):
        assert profile_cells(["d", "2.5", "-0.0"]) == [2.5, -0.0]

    def test_round_trip_precision(self, tmp_path):
        x = 1 / 3
        _, cells = round_trip(tmp_path, ["d", x])
        assert profile_cells(cells) == [x]

    @pytest.mark.parametrize("cell", ["abc", "nan", "inf", "-inf", "1e999"])
    def test_bad_cell_rejected(self, cell):
        with pytest.raises(ValueError):
            profile_cells(["d", "1.0", cell])


class TestNumberRule:
    """The one spelling of every number lexcite reads: ASCII digits after an
    optional "-", and for a float an optional decimal point and exponent."""

    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_float_round_trip(self, x):
        """repr, which write_table uses, reads back to the same float, the
        sign of a zero included."""
        y = parse_finite(repr(x))
        assert y == x and math.copysign(1.0, y) == math.copysign(1.0, x)

    @given(st.integers())
    def test_int_round_trip(self, n):
        assert parse_int(str(n)) == n

    @pytest.mark.parametrize("text, value", [
        ("7", 7), ("-7", -7), ("007", 7), ("-0", 0), ("0" * 5000 + "7", 7),
        ("9" * INT_DIGITS_MAX, 10 ** INT_DIGITS_MAX - 1),
    ], ids=["plain", "negative", "leading-zeros", "minus-zero", "5000-leading-zeros",
            "most-digits"])
    def test_int_accepted(self, text, value):
        assert parse_int(text) == value

    @pytest.mark.parametrize("text", [
        "", "-", "+7", " 7", "7 ", "7\n", "1_000", "٢٠٠٩", "２０１０", "𝟑", "²", "7.0", "1e3",
        "0x7", "--7", "- 7"])
    def test_int_refused(self, text):
        with pytest.raises(ValueError, match=r"^not an integer: "):
            parse_int(text)

    def test_int_digit_limit(self):
        with pytest.raises(ValueError, match=r"^integer of 4301 digits; at most 4300$"):
            parse_int("-" + "9" * 4301)
        with pytest.raises(ValueError, match=r"^integer of 5 digits; at most 4$"):
            parse_int("00012345", max_digits=4)
        assert parse_int("00001234", max_digits=4) == 1234

    @pytest.mark.parametrize("cell, value", [
        ("1", 1.0), ("-0.0", -0.0), ("-0", -0.0), ("1e308", 1e308), ("-1e+308", -1e308),
        ("5e-324", 5e-324), (".5", 0.5), ("5.", 5.0), ("1E5", 1e5), ("1e-400", 0.0),
        ("0" * 5000 + "1.5", 1.5)])
    def test_float_accepted(self, cell, value):
        parsed = parse_finite(cell)
        assert parsed == value and math.copysign(1.0, parsed) == math.copysign(1.0, value)

    @pytest.mark.parametrize("cell", [
        "", "-", ".", "nan", "-nan", "inf", "-inf", "Infinity", "1e999", "+1", "1e", " 1",
        "1 ", "1\t", "1_0", "1e1_0", "١", "１.５", "𝟑", "0x1p3", "1,5"])
    def test_float_refused(self, cell):
        with pytest.raises(ValueError):
            parse_finite(cell)


def test_the_number_rule_lives_in_tableio():
    """No lexcite module but tableio asks str.isdecimal or str.isnumeric
    whether text is a number; every option converter is Path, parse_int or
    parse_finite; and ingest's json.loads parses integers with parse_int."""
    found = []
    json_loads = []
    for path in sorted(Path(tableio.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Attribute) and node.attr in ("isdecimal", "isnumeric")
                    and path.name != "tableio.py"):
                found.append((path.name, node.lineno, node.attr))
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "loads" and path.name == "ingest.py"):
                json_loads.append([keyword.arg for keyword in node.keywords])
    assert found == []
    assert json_loads == [["parse_int"]]
    assert {convert for convert, *_ in cli._OPTIONS.values()} == {
        Path, tableio.parse_int, tableio.parse_finite}


def test_the_line_end_rule_lives_in_tableio():
    """No lexcite module but tableio splits text at a line end, or replaces
    one: a text read whole is split by tableio.split_lines, whose lines are
    those of the rule."""
    found = []
    for path in sorted(Path(tableio.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and (node.func.attr == "splitlines"
                         or node.func.attr in ("split", "replace") and any(
                             isinstance(arg, ast.Constant) and isinstance(arg.value, str)
                             and ("\r" in arg.value or "\n" in arg.value)
                             for arg in node.args))
                    and path.name != "tableio.py"):
                found.append((path.name, node.lineno, node.func.attr))
    assert found == []
    assert tableio.split_lines("a\r\nb\rc\n\nd\x85\u2028\fe\n") == [
        "a", "b", "c", "", "d\x85\u2028\fe", ""]


def _names_by_scope() -> dict[str, list[tuple[str, str]]]:
    """Each name a lexcite module loads, with the module and the top-level
    function or class it is loaded in, the attribute of an attribute load
    included."""
    found: dict[str, list[tuple[str, str]]] = {}
    for path in sorted(Path(tableio.__file__).parent.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            scope = getattr(top, "name", "<module>")
            for node in ast.walk(top):
                name = (node.id if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
                        else node.attr if isinstance(node, ast.Attribute) else None)
                if name is not None:
                    found.setdefault(name, []).append((path.stem, scope))
    return found


def test_each_value_rule_has_one_owner():
    """The doc-id and year rules are defined in ingest and used only by the
    records that check them and the readers that build a value with no
    record (a profiles.csv row) or name the line of a bad id (a tagged
    file's "#doc=" line); so cli._read_rows calls no doc-id check. The
    bootstrap option rule is defined in stats, and cli compares neither
    iterations nor level itself."""
    names = _names_by_scope()
    assert set(names["check_doc_id"]) == {
        ("ingest", "RawDocument"), ("impact", "CitationRecord"), ("impact", "NormalizedScore"),
        ("tagging", "TaggedDocument"), ("metrics", "ComplexityProfile"),
        ("tagging", "import_tagged"), ("cli", "_joined_inputs")}
    assert set(names["check_year"]) == {
        ("ingest", "RawDocument"), ("impact", "CitationRecord"), ("impact", "Baseline")}
    assert set(names["YEAR_MIN"] + names["YEAR_MAX"]) == {
        ("ingest", "check_year"), ("ingest", "parse_jats")}
    assert set(names["check_bootstrap_options"]) == {
        ("stats", "bootstrap_mean_ci"), ("cli", "build_config")}
    assert set(names["ITERATIONS_MAX"]) == {("stats", "check_bootstrap_options")}
    compared = [
        node.lineno
        for node in ast.walk(ast.parse(Path(cli.__file__).read_text(encoding="utf-8")))
        if isinstance(node, ast.Compare)
        for operand in (node.left, *node.comparators)
        for inner in ast.walk(operand)
        if getattr(inner, "id", getattr(inner, "attr", None)) in ("iterations", "level")]
    assert compared == []


class LineReader(NamedTuple):
    """One line-based text input: its file name, the lines that must come
    first, a good line that may repeat, a template of a good line with a
    slot for any one character, a bad line, and a call that reads the whole
    file."""

    name: str
    head: list[str]
    good: str
    holding: str
    bad: str
    read: Callable[[Path], object]


CORPUS_RECORD = ('{"doc_id": "d", "year": 2010, "domain": "x", "journal": "", '
                 '"paragraphs": ["A cat sat."]}')

LINE_READERS = {
    # a key may not repeat, so the good line that repeats is a comment
    "abbrev": LineReader("ab.tsv", [], "# k.\tkey", "k.\tfor{}example", "k. no tab",
                         AbbreviationTable.from_file),
    "lexicon": LineReader("lex.tsv", [], "cat\tNN\t3", "ca{}t\tNN\t3", "cat\tNN",
                          load_lexicon),
    # JSON holds no raw "\f", so the character goes on a line of whitespace
    "corpus": LineReader("corpus.jsonl", [], CORPUS_RECORD, " {} ", "{}",
                         lambda path: list(read_corpus(path))),
    "tagged": LineReader("doc.tsv", [], "cat\tNN", "ca{}t\tNN", "#bogus", read_tagged),
    "table": LineReader("t.csv", ["a"], "cell", "ce{}ll", "x,y",
                        lambda path: list(read_table(path).rows)),
}


class TestEveryLineReader:
    """Every line-based text input follows one rule: UTF-8, a line ends at
    "\r\n", "\n" or "\r", and a bad byte is a FormatError naming the file
    and the line."""

    @staticmethod
    def failure(tmp_path, reader, data: bytes) -> FormatError:
        path = tmp_path / reader.name
        path.write_bytes(data)
        with pytest.raises(FormatError) as err:
            reader.read(path)
        return err.value

    @pytest.mark.parametrize("kind", LINE_READERS)
    def test_not_utf8_names_line(self, tmp_path, kind):
        reader = LINE_READERS[kind]
        lines = [line.encode("utf-8") for line in [*reader.head, *[reader.good] * 3][:3]]
        lines[2] = b"\xff" + lines[2]
        err = self.failure(tmp_path, reader, b"\n".join(lines) + b"\n")
        assert err.line_number == 3
        assert str(err).startswith(f"line 3: {reader.name}: not UTF-8")

    @pytest.mark.parametrize("end", ["\r\n", "\r", "\n"], ids=["crlf", "cr", "lf"])
    @pytest.mark.parametrize("kind", LINE_READERS)
    def test_one_line_end(self, tmp_path, kind, end):
        reader = LINE_READERS[kind]
        lines = [*reader.head, reader.good, reader.good, reader.bad]
        err = self.failure(tmp_path, reader, (end.join(lines) + end).encode("utf-8"))
        assert err.line_number == len(lines)

    @pytest.mark.parametrize("char", ["\f", "\x85", "\u2028"], ids=["ff", "nel", "ls"])
    @pytest.mark.parametrize("kind", LINE_READERS)
    def test_other_breaks_do_not_split(self, tmp_path, kind, char):
        reader = LINE_READERS[kind]
        lines = [*reader.head, reader.holding.format(char), reader.good, reader.bad]
        err = self.failure(tmp_path, reader, ("\n".join(lines) + "\n").encode("utf-8"))
        assert err.line_number == len(lines)
