"""CLI configuration, stage gating, end-to-end runs, and error reporting."""

import argparse
import hashlib
import json
import math
import os
import random
import re
import shutil
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from importlib.resources import files
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lexcite
from lexcite import cli, reports
from lexcite.cli import (
    DECISION_FLAGS,
    RunConfig,
    _joined_inputs,
    build_config,
    build_parser,
    main,
)
from lexcite.errors import ConfigError, FormatError, GroupEmptyWarning, LexciteError
from lexcite.ingest import AbbreviationTable, RawDocument, write_corpus
from lexcite.stats import ITERATIONS_MAX
from lexcite.tableio import read_table, write_table

MINICORPUS = Path(str(files("lexcite").joinpath("data", "minicorpus")))

ARTICLE = """<article>
  <front>
    <journal-meta><journal-title>J Test</journal-title></journal-meta>
    <article-meta>
      <article-id pub-id-type="doi">{doc_id}</article-id>
      <article-categories>
        <subj-group><subject>Ecology</subject></subj-group>
      </article-categories>
      <pub-date><year>2010</year></pub-date>
    </article-meta>
  </front>
  <body><p>The cats sleep. The cat sat because it was tired.</p></body>
</article>"""


def table_rows(path: Path) -> list[list[str]]:
    """The cells of each data row of a table."""
    return [cells for _, cells in read_table(path).rows]


WORDS = ("the cell protein gene was expressed strongly in mice and rats with significant "
         "effects on growth rate during early development although results varied").split()


def random_paragraphs(rng: random.Random, paragraphs: int, sentences: int) -> list[str]:
    """Paragraphs of random 14-word sentences."""
    return [" ".join(" ".join(rng.choice(WORDS) for _ in range(14)).capitalize() + "."
                     for _ in range(sentences))
            for _ in range(paragraphs)]


def non_utf8_name(directory: Path, raw: bytes, data: bytes) -> Path:
    """Write data to a file whose name is the bytes raw, which are not UTF-8;
    skip the test where the file system refuses such a name."""
    try:
        path = directory / os.fsdecode(raw)
        path.write_bytes(data)
    except (OSError, UnicodeError):
        pytest.skip("the file system refuses a file name that is not UTF-8")
    return path


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    for key in list(os.environ):
        if key.startswith("LEXCITE_"):
            monkeypatch.delenv(key)


def parse(argv):
    return build_parser().parse_args(argv)


def read_errors(out: Path) -> dict:
    return json.loads((out / "errors.json").read_text(encoding="utf-8"))


def assert_config_fault(out: Path, capsys, message: str, earlier: str | None = None) -> None:
    """A configuration mistake: one `error: ` line holding message on
    stderr, and no errors.json but the one an earlier invocation left, which
    names the stage earlier."""
    stderr = capsys.readouterr().err
    assert stderr.startswith("error: ") and stderr.count("\n") == 1, stderr
    assert message in stderr
    if earlier is None:
        assert not (out / "errors.json").exists()
    else:
        assert read_errors(out)["stage"] == earlier


class TestBuildConfig:
    def test_defaults(self, tmp_path):
        config = build_config(parse(["run", "--out", str(tmp_path)]), {})
        assert config.out == tmp_path
        assert (config.seed, config.iterations, config.level) == (0, 10_000, 0.95)
        assert config.input is None

    def test_env_used_when_flag_absent(self, tmp_path):
        env = {"LEXCITE_OUT": str(tmp_path), "LEXCITE_SEED": "7",
               "LEXCITE_LEVEL": "0.9"}
        config = build_config(parse(["run"]), env)
        assert config.out == tmp_path
        assert config.seed == 7
        assert config.level == 0.9

    def test_flag_beats_env(self, tmp_path):
        env = {"LEXCITE_OUT": "/elsewhere", "LEXCITE_SEED": "7"}
        config = build_config(
            parse(["run", "--out", str(tmp_path), "--seed", "9"]), env)
        assert config.out == tmp_path
        assert config.seed == 9

    def test_unknown_env_var(self, tmp_path):
        with pytest.raises(ConfigError, match="LEXCITE_BOGUS"):
            build_config(parse(["run", "--out", str(tmp_path)]),
                         {"LEXCITE_BOGUS": "1"})

    def test_bad_env_value(self, tmp_path):
        with pytest.raises(ConfigError, match="LEXCITE_SEED"):
            build_config(parse(["run", "--out", str(tmp_path)]),
                         {"LEXCITE_SEED": "abc"})

    def test_out_required(self):
        with pytest.raises(ConfigError, match="output directory"):
            build_config(parse(["run"]), {})

    def test_iterations_validated(self, tmp_path):
        with pytest.raises(ConfigError, match="iterations"):
            build_config(
                parse(["run", "--out", str(tmp_path), "--iterations", "0"]), {})

    def test_level_validated(self, tmp_path):
        for bad in ("0", "1", "1.5"):
            with pytest.raises(ConfigError, match="level"):
                build_config(
                    parse(["run", "--out", str(tmp_path), "--level", bad]), {})

    @pytest.mark.parametrize("option, text", [
        ("iterations", "1_000"), ("iterations", " 100"), ("iterations", "١٠٠"),
        ("seed", "+1"), ("seed", "7 "), ("level", "0_9"), ("level", "nan"),
        ("level", "+0.9"), ("level", "０.９")])
    def test_number_spelling_refused(self, tmp_path, option, text):
        """Flags and LEXCITE_* variables spell numbers by tableio's one rule."""
        flag = "--" + option
        with pytest.raises(ConfigError, match=rf"^bad value for {flag}: "):
            build_config(parse(["run", "--out", str(tmp_path), flag, text]), {})
        variable = "LEXCITE_" + option.upper()
        with pytest.raises(ConfigError, match=rf"^bad value for {variable}: "):
            build_config(parse(["run", "--out", str(tmp_path)]), {variable: text})

    def test_iterations_spelling_exits_2(self, tmp_path, capsys, monkeypatch):
        assert main(["group", "--out", str(tmp_path), "--iterations", "1_000"]) == 2
        assert_config_fault(tmp_path, capsys, "bad value for --iterations: '1_000'")
        monkeypatch.setenv("LEXCITE_ITERATIONS", "1_000")
        assert main(["group", "--out", str(tmp_path)]) == 2
        assert_config_fault(tmp_path, capsys, "bad value for LEXCITE_ITERATIONS: '1_000'")

    @pytest.mark.parametrize("text", ["10000001", "99999999999999999999"])
    def test_iterations_bound_exits_2(self, tmp_path, capsys, monkeypatch, text):
        """Above stats.ITERATIONS_MAX a flag or a variable is a configuration
        mistake that touches nothing in --out, not numpy's error or an
        allocation of gigabytes."""
        write_table(tmp_path / "profiles.csv", PROFILE_HEADER, [["d1", *([2.0] * 12)]])
        write_table(tmp_path / "scores.csv", ["doc_id", "nc", "group"], [["d1", 2.0, "Low"]])
        (tmp_path / "cdf.csv").write_text("stale\n", encoding="utf-8")
        before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
        assert main(["compare", "--out", str(tmp_path), "--iterations", text]) == 2
        assert_config_fault(tmp_path, capsys, "error: iterations must be <= 10000000")
        monkeypatch.setenv("LEXCITE_ITERATIONS", text)
        assert main(["compare", "--out", str(tmp_path)]) == 2
        assert_config_fault(tmp_path, capsys, "error: iterations must be <= 10000000")
        assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == before

    def test_iterations_bound_itself_accepted(self, tmp_path):
        config = build_config(parse(["run", "--out", str(tmp_path),
                                     "--iterations", str(ITERATIONS_MAX)]), {})
        assert config.iterations == ITERATIONS_MAX

    def test_config_hash_tracks_parameters(self, tmp_path):
        base = RunConfig(out=tmp_path)
        assert base.config_hash() == RunConfig(out=tmp_path).config_hash()
        assert base.config_hash() != RunConfig(out=tmp_path, seed=1).config_hash()
        other_dir = RunConfig(out=tmp_path / "sub")
        assert base.config_hash() == other_dir.config_hash()

    def test_metadata_includes_decision_flags(self, tmp_path):
        meta = RunConfig(out=tmp_path).metadata()
        for key, value in DECISION_FLAGS.items():
            assert meta[key] == value
        assert meta["tool"] == "lexcite"
        assert meta["seed"] == "0"

    def test_options_are_the_config_fields(self):
        assert set(cli._OPTIONS) == set(RunConfig._fields)

    def test_every_command_takes_exactly_the_options(self):
        commands = next(action.choices for action in build_parser()._actions
                        if isinstance(action, argparse._SubParsersAction))
        assert list(commands) == [*cli.STAGE_ORDER, "run"]
        flags = {"--" + field.replace("_", "-") for field in RunConfig._fields}
        for name, parser in commands.items():
            assert set(parser._option_string_actions) == {"-h", "--help", *flags}, name


# Runs the stages one by one in a fresh interpreter and prints, after the
# import and after each stage, whether numpy, the XML parser, dataclasses and
# numpy's masked arrays have been loaded. Only compare and regress need numpy
# and only ingest parses XML; no stage needs dataclasses or numpy.ma, and the
# parts of numpy they use load neither.
NUMPY_PROBE = """
import sys
from lexcite.cli import main

def loaded(step):
    print(step, *(name in sys.modules for name in
                  ("numpy", "xml.etree.ElementTree", "dataclasses", "numpy.ma")))

loaded("import")
corpus, out = sys.argv[1:]
common = ["--input", corpus, "--citations", corpus + "/citations.csv",
          "--out", out, "--iterations", "50"]
for stage in ("ingest", "tag", "profile", "normalize", "group", "compare", "regress"):
    if main([stage, *common]) != 0:
        sys.exit(stage + " failed")
    loaded(stage)
"""


def test_numpy_loaded_only_by_array_stages(tmp_path):
    env = dict(os.environ,
               PYTHONPATH=str(Path(lexcite.__file__).resolve().parents[1]))
    probe = subprocess.run(
        [sys.executable, "-c", NUMPY_PROBE, str(MINICORPUS), str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120)
    assert probe.returncode == 0, probe.stderr
    assert probe.stdout.split("\n") == [
        "import False False False False", "ingest False True False False",
        "tag False True False False", "profile False True False False",
        "normalize False True False False", "group False True False False",
        "compare True True False False", "regress True True False False", ""]


class TestStageGating:
    def test_profile_without_tagged_dir(self, tmp_path, capsys):
        assert main(["profile", "--out", str(tmp_path)]) == 2
        assert_config_fault(tmp_path, capsys, f"missing tagged/; run the earlier stages "
                                              f"into {tmp_path} first")

    def test_tag_without_corpus(self, tmp_path, capsys):
        assert main(["tag", "--out", str(tmp_path)]) == 2
        assert_config_fault(tmp_path, capsys, "missing corpus.jsonl")

    def test_normalize_without_citations_flag(self, tmp_path, capsys):
        assert main(["normalize", "--out", str(tmp_path)]) == 2
        assert_config_fault(tmp_path, capsys, "error: --citations is required")

    def test_compare_before_group(self, tmp_path, capsys):
        write_table(tmp_path / "profiles.csv",
                    ["doc_id", *[f"x{i}" for i in range(1, 13)]],
                    [["d1", *([1.0] * 12)], ["d2", *([2.0] * 12)]])
        write_table(tmp_path / "scores.csv", ["doc_id", "nc", "group"],
                    [["d1", 1.0, ""], ["d2", 1.0, ""]])
        code = main(["compare", "--out", str(tmp_path)])
        assert code == 1
        err = read_errors(tmp_path)
        assert err["stage"] == "compare"
        assert "group stage" in err["message"]
        assert "error in compare stage" in capsys.readouterr().err

    @pytest.mark.parametrize("stage", ["compare", "regress"])
    def test_disjoint_ids_fail_in_stage(self, tmp_path, capsys, stage):
        write_table(tmp_path / "profiles.csv",
                    ["doc_id", *[f"x{i}" for i in range(1, 13)]],
                    [["d1", *([1.0] * 12)], ["d2", *([2.0] * 12)]])
        write_table(tmp_path / "scores.csv", ["doc_id", "nc", "group"],
                    [["e1", 1.0, "Low"], ["e2", 2.0, "High"]])
        code = main([stage, "--out", str(tmp_path)])
        assert code == 1
        err = read_errors(tmp_path)
        assert err["stage"] == stage
        assert err["error"] == "JoinMismatch"
        assert f"error in {stage} stage" in capsys.readouterr().err
        assert not (tmp_path / "comparison.csv").exists()
        assert not (tmp_path / "regression.csv").exists()

    def test_regress_all_absent_is_non_estimable(self, tmp_path):
        # every profile has an Absent x8, so no row is left to fit
        write_table(tmp_path / "profiles.csv",
                    ["doc_id", *[f"x{i}" for i in range(1, 13)]],
                    [[f"d{i}", *([float(i)] * 7), None, *([1.0 + i] * 4)]
                     for i in range(5)])
        write_table(tmp_path / "scores.csv", ["doc_id", "nc", "group"],
                    [[f"d{i}", 1.0 + i, "Low"] for i in range(5)])
        assert main(["regress", "--out", str(tmp_path)]) == 0
        assert not (tmp_path / "errors.json").exists()
        rows = table_rows(tmp_path / "regression.csv")
        assert len(rows) == 24
        for _, cohort, r2, n_used, n_dropped in rows:
            dropped = "5" if cohort in ("all", "Low") else "0"
            assert (r2, n_used, n_dropped) == ("-", "0", dropped)

    def test_missing_out_is_usage_error(self, capsys):
        assert main(["run"]) == 2
        assert "output directory" in capsys.readouterr().err

    def test_unknown_env_is_usage_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("LEXCITE_TYPO", "x")
        assert main(["profile", "--out", str(tmp_path)]) == 2
        assert "LEXCITE_TYPO" in capsys.readouterr().err

    @pytest.mark.parametrize("via", ["flag", "env"])
    @pytest.mark.parametrize("option", [option for option, (convert, *_) in cli._OPTIONS.items()
                                        if convert is Path])
    def test_empty_path_is_usage_error(self, tmp_path, monkeypatch, capsys, option, via):
        # an empty path is not the current directory: nothing is written there
        monkeypatch.chdir(tmp_path)
        argv = ["group"]
        if option != "out":
            argv += ["--out", str(tmp_path / "out")]
        if via == "flag":
            name = "--" + option.replace("_", "-")
            argv += [name, ""]
        else:
            name = "LEXCITE_" + option.upper()
            monkeypatch.setenv(name, "")
        assert main(argv) == 2
        stderr = capsys.readouterr().err
        assert stderr.startswith("error: ") and stderr.count("\n") == 1
        assert name in stderr
        assert list(tmp_path.iterdir()) == []

    def test_stale_errors_json_removed(self, tmp_path):
        # errors.json describes the latest invocation only
        write_table(tmp_path / "scores.csv", ["doc_id", "nc", "group"],
                    [["d1", "abc", ""]])
        assert main(["group", "--out", str(tmp_path)]) == 1
        assert read_errors(tmp_path)["stage"] == "group"
        write_table(tmp_path / "scores.csv", ["doc_id", "nc", "group"],
                    [["d1", 1.0, ""], ["d2", 2.0, ""]])
        with pytest.warns(GroupEmptyWarning):
            assert main(["group", "--out", str(tmp_path)]) == 0
        assert not (tmp_path / "errors.json").exists()


class TestStageNamedByMain:
    """main names the failing stage, whatever the stage raised."""

    @pytest.fixture(params=["bare", "document"])
    def failure(self, request):
        if request.param == "bare":
            return LexciteError("boom"), ("", "LexciteError", "boom")
        return (cli.DocumentError("doc1", FormatError(2, "bad cell")),
                ("doc1", "FormatError", "line 2: bad cell"))

    @pytest.mark.parametrize("command", ["stage", "run"])
    @pytest.mark.parametrize("stage", cli.STAGE_ORDER)
    def test_failure_report(self, tmp_path, capsys, monkeypatch, failure, command, stage):
        error, (document, name, message) = failure

        def fail(config):
            raise error

        if command == "run":
            # the stages before this one succeed and the ones after never run
            for other in cli.STAGE_ORDER:
                monkeypatch.setitem(cli._STAGE_FUNCS, other, lambda config: None)
        monkeypatch.setitem(cli._STAGE_FUNCS, stage, fail)
        # what the invocation check asks for: the required options, and the
        # stage files that the stage reads
        out = tmp_path / "out"
        (out / "tagged").mkdir(parents=True)
        for name_in_out in ("corpus.jsonl", "profiles.csv", "scores.csv"):
            (out / name_in_out).touch()
        argv = [stage if command == "stage" else "run", "--out", str(out),
                "--input", str(tmp_path), "--citations", str(out / "scores.csv")]
        assert main(argv) == 1
        assert read_errors(out) == {"stage": stage, "document": document,
                                    "error": name, "message": message}
        assert capsys.readouterr().err == f"error in {stage} stage: {message}\n"


# (command, its options, the files put in --out, the message), where {tmp}
# is the test's directory and {out} the --out directory
CORPUS, CITATIONS = str(MINICORPUS), str(MINICORPUS / "citations.csv")
CONFIG_FAULTS = [
    ("run", ["--input", CORPUS], [], "--citations is required"),
    ("normalize", [], [], "--citations is required"),
    ("run", ["--citations", CITATIONS], [], "--input is required"),
    ("ingest", [], [], "--input is required"),
    ("run", ["--input", CORPUS, "--citations", "{tmp}/nowhere.csv"], [],
     "path not found: {tmp}/nowhere.csv"),
    ("normalize", ["--citations", "{tmp}/nowhere.csv"], [], "path not found: {tmp}/nowhere.csv"),
    ("ingest", ["--input", CORPUS, "--abbrev", "{tmp}/nowhere.tsv"], [],
     "path not found: {tmp}/nowhere.tsv"),
    ("tag", ["--import-tagged", "{tmp}/nowhere"], [], "path not found: {tmp}/nowhere"),
    ("tag", [], [], "missing corpus.jsonl; run the earlier stages into {out} first"),
    ("profile", [], [], "missing tagged/"),
    ("profile", [], ["tagged"], "missing tagged/"),
    ("group", [], [], "missing scores.csv"),
    ("compare", [], ["scores.csv"], "missing profiles.csv"),
    ("regress", [], ["scores.csv"], "missing profiles.csv"),
    ("compare", [], ["profiles.csv"], "missing scores.csv"),
    ("regress", [], ["profiles.csv"], "missing scores.csv"),
    ("tag", ["--import-tagged", "{out}/tagged"], ["tagged/a.tsv"],
     "--import-tagged {out}/tagged is the tagged/ directory of --out"),
    ("run", ["--input", CORPUS, "--citations", CITATIONS, "--import-tagged", "{out}/tagged"],
     ["tagged/a.tsv"], "--import-tagged {out}/tagged is the tagged/ directory of --out"),
    # a path of the wrong kind, found before ingest, tag and profile run
    ("run", ["--input", CORPUS, "--citations", "{tmp}"], [], "--citations {tmp} is a directory"),
    ("normalize", ["--citations", CITATIONS, "--baselines", "{tmp}"], [],
     "--baselines {tmp} is a directory"),
    ("ingest", ["--input", CORPUS, "--abbrev", "{tmp}"], [], "--abbrev {tmp} is a directory"),
    ("ingest", ["--input", CITATIONS], [], f"--input {CITATIONS} is not a directory"),
    ("tag", ["--import-tagged", CITATIONS], [], f"--import-tagged {CITATIONS} is not a directory"),
]


def listing(directory: Path) -> dict[str, bytes | None]:
    """Every file (its bytes) and directory (None) under directory."""
    return {str(p.relative_to(directory)): None if p.is_dir() else p.read_bytes()
            for p in sorted(directory.rglob("*"))}


class TestConfigFaultChangesNothing:
    """A configuration mistake, whatever the command, is found before any
    stage runs: exit 2, one error line, and --out as it was."""

    # an absent --out, where the fault needs no file in it
    @pytest.mark.parametrize("command, options, files, message, out_state", [
        pytest.param(*case, state, id=f"{case[0]}-{case[3].split(' ')[0]}-{i}-{state}")
        for i, case in enumerate(CONFIG_FAULTS)
        for state in ("planted", "absent") if state == "planted" or not case[2]])
    def test_out_unchanged(self, tmp_path, capsys, command, options, files, message,
                           out_state):
        out = tmp_path / "out"
        if out_state == "planted":
            out.mkdir()
            (out / "planted.txt").write_bytes(b"kept\r\n")
            (out / "errors.json").write_text('{"stage": "earlier"}\n', encoding="utf-8")
            for name in files:
                (out / name).parent.mkdir(exist_ok=True)
                (out / name).write_bytes(b"#doc=a\nThe\tDT\n\n")
            before = listing(out)
        names = {"tmp": tmp_path, "out": out}
        argv = [command, "--out", str(out), "--iterations", "50",
                *(option.format(**names) for option in options)]
        assert main(argv) == 2
        assert_config_fault(out, capsys, "error: " + message.format(**names),
                            earlier="earlier" if out_state == "planted" else None)
        if out_state == "planted":
            assert listing(out) == before
        else:
            assert not out.exists()

    def test_every_read_is_an_earlier_output(self):
        """Each stage file a stage reads is owned by an earlier stage, so a
        run never needs a file in --out; main calls the stages in order."""
        owned: list[str] = []
        for stage in cli.STAGE_ORDER:
            for name in cli._STAGES[stage].reads:
                assert any(glob.startswith(name) for glob in owned), (stage, name)
            owned += cli._STAGES[stage].owns
        assert tuple(cli._STAGE_FUNCS) == cli.STAGE_ORDER


class TestInputOutputErrors:
    """An OSError fails its stage through errors.json like any other error,
    and an --out that cannot be created is a usage error."""

    def assert_failed(self, out, capsys, stage, document, error="IsADirectoryError"):
        err = read_errors(out)
        assert (err["stage"], err["document"], err["error"]) == (stage, document, error)
        stderr = capsys.readouterr().err
        assert stderr.startswith(f"error in {stage} stage: ")
        assert "Traceback" not in stderr

    def test_profiles_csv_is_directory(self, tmp_path, capsys):
        write_table(tmp_path / "scores.csv", ["doc_id", "nc", "group"],
                    [["d1", 2.0, "High"], ["d2", 1.0, "Low"]])
        (tmp_path / "profiles.csv").mkdir()
        assert main(["compare", "--out", str(tmp_path)]) == 1
        self.assert_failed(tmp_path, capsys, "compare", "")
        assert "profiles.csv" in read_errors(tmp_path)["message"]

    def test_xml_is_directory_in_ingest(self, tmp_path, capsys):
        """A file ingest cannot read fails the stage, naming the file, and
        is no reject; rejects.csv keeps the rejects read before it."""
        src = tmp_path / "xml"
        src.mkdir()
        (src / "bad.xml").write_text("<article><unclosed>", encoding="utf-8")
        (src / "good.xml").write_text(ARTICLE.format(doc_id="10.1/ok"), encoding="utf-8")
        (src / "zz.xml").mkdir()
        out = tmp_path / "out"
        assert main(["ingest", "--input", str(src), "--out", str(out)]) == 1
        self.assert_failed(out, capsys, "ingest", "zz.xml")
        assert [row[:2] for row in table_rows(out / "rejects.csv")] == [
            ["bad.xml", "MalformedXml"]]
        assert not (out / "corpus.jsonl").exists()

    def test_tagged_tsv_is_directory_in_profile(self, tmp_path, capsys):
        tagged = tmp_path / "tagged"
        tagged.mkdir()
        (tagged / "docA.tsv").write_text("The\tDT\ncats\tNNS\n\n", encoding="utf-8")
        (tagged / "docB.tsv").mkdir()
        assert main(["profile", "--out", str(tmp_path)]) == 1
        self.assert_failed(tmp_path, capsys, "profile", "docB.tsv")
        assert not (tmp_path / "profiles.csv").exists()

    def test_imported_tsv_is_directory(self, tmp_path, capsys):
        ext = tmp_path / "ext"
        (ext / "docB.tsv").mkdir(parents=True)
        out = tmp_path / "out"
        assert main(["tag", "--out", str(out), "--import-tagged", str(ext)]) == 1
        self.assert_failed(out, capsys, "tag", "docB.tsv")

    def test_tagged_tsv_is_directory_in_tag(self, tmp_path, capsys):
        (tmp_path / "corpus.jsonl").write_text(
            '{"doc_id": "a", "year": 2010, "domain": "x", "journal": "",'
            ' "paragraphs": ["Fine."]}\n',
            encoding="utf-8")
        (tmp_path / "tagged" / "a.tsv").mkdir(parents=True)
        assert main(["tag", "--out", str(tmp_path)]) == 1
        err = read_errors(tmp_path)
        assert (err["stage"], err["error"]) == ("tag", "IsADirectoryError")
        assert err["document"] == "a"
        assert "a.tsv" in err["message"]
        assert "Traceback" not in capsys.readouterr().err

    def test_out_is_a_file(self, tmp_path, capsys):
        out = tmp_path / "out"
        out.write_text("not a directory", encoding="utf-8")
        assert main(["run", "--out", str(out)]) == 2
        stderr = capsys.readouterr().err
        assert stderr.startswith("error: ") and stderr.count("\n") == 1
        assert str(out) in stderr
        assert out.read_text(encoding="utf-8") == "not a directory"

    @pytest.mark.parametrize("case, code", [("profiles-dir", 1), ("out-file", 2)])
    def test_module_run_prints_no_traceback(self, tmp_path, case, code):
        out = tmp_path / "out"
        if case == "profiles-dir":
            (out / "profiles.csv").mkdir(parents=True)
            (out / "scores.csv").write_text("doc_id,nc,group\r\nd1,1.0,Low\r\n",
                                            encoding="utf-8")
        else:
            out.write_text("", encoding="utf-8")
        env = dict(os.environ,
                   PYTHONPATH=str(Path(lexcite.__file__).resolve().parents[1]))
        result = subprocess.run(
            [sys.executable, "-m", "lexcite.cli", "compare", "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=120)
        assert result.returncode == code
        assert "Traceback" not in result.stderr
        assert result.stderr.count("\n") == 1
        assert result.stderr.startswith("error in compare stage: " if code == 1 else "error: ")


class TestIngest:
    def test_rejects_logged_but_run_continues(self, tmp_path):
        src = tmp_path / "xml"
        src.mkdir()
        (src / "good.xml").write_text(ARTICLE.format(doc_id="10.1/ok"),
                                      encoding="utf-8")
        (src / "bad.xml").write_text("<article><unclosed>", encoding="utf-8")
        out = tmp_path / "out"
        code = main(["ingest", "--input", str(src), "--out", str(out)])
        assert code == 0
        rows = table_rows(out / "rejects.csv")
        assert len(rows) == 1
        assert rows[0][0] == "bad.xml"
        assert rows[0][1] == "MalformedXml"
        corpus_text = (out / "corpus.jsonl").read_text(encoding="utf-8")
        assert corpus_text.count("\n") == 1
        assert "10.1/ok" in corpus_text

    def test_all_rejected_fails_stage(self, tmp_path, capsys):
        src = tmp_path / "xml"
        src.mkdir()
        (src / "bad.xml").write_text("not xml at all", encoding="utf-8")
        noyear = ARTICLE.format(doc_id="10.1/n").replace("<year>2010</year>", "")
        (src / "noyear.xml").write_text(noyear, encoding="utf-8")
        out = tmp_path / "out"
        assert main(["ingest", "--input", str(src), "--out", str(out)]) == 1
        assert read_errors(out)["stage"] == "ingest"
        assert "error in ingest stage" in capsys.readouterr().err
        # every file's reason is kept, though the stage failed
        assert [row[:2] for row in table_rows(out / "rejects.csv")] == [
            ["bad.xml", "MalformedXml"], ["noyear.xml", "MissingMetadata"]]

    def test_year_of_thousands_of_digits_is_a_reject(self, tmp_path, capsys):
        src = tmp_path / "xml"
        src.mkdir()
        (src / "good.xml").write_text(ARTICLE.format(doc_id="10.1/ok"), encoding="utf-8")
        (src / "long.xml").write_text(ARTICLE.format(doc_id="10.1/long").replace(
            "<year>2010</year>", f"<year>{'9' * 5000}</year>"), encoding="utf-8")
        out = tmp_path / "out"
        assert main(["ingest", "--input", str(src), "--out", str(out)]) == 0
        assert [row[:2] for row in table_rows(out / "rejects.csv")] == [
            ["long.xml", "MissingMetadata"]]
        assert table_rows(out / "rejects.csv")[0][2] == "no usable year for '10.1/long'"
        assert '"10.1/ok"' in (out / "corpus.jsonl").read_text(encoding="utf-8")
        assert "Traceback" not in capsys.readouterr().err

    def test_any_depth_of_nesting(self, tmp_path, capsys):
        src = tmp_path / "xml"
        src.mkdir()
        shutil.copy(MINICORPUS / "ECO.2009.0001.xml", src)
        (src / "deep.xml").write_text(ARTICLE.format(doc_id="10.1/deep").replace(
            "<body><p>", "<body>" + "<sec>" * 3000 + "<p>").replace(
            "</p></body>", "</p>" + "</sec>" * 3000 + "</body>"), encoding="utf-8")
        out = tmp_path / "out"
        assert main(["ingest", "--input", str(src), "--out", str(out)]) == 0
        assert table_rows(out / "rejects.csv") == []
        docs = {doc["doc_id"]: doc["paragraphs"] for doc in map(
            json.loads, (out / "corpus.jsonl").read_text(encoding="utf-8").splitlines())}
        assert docs["10.1/deep"] == ["The cats sleep. The cat sat because it was tired."]
        assert set(docs) == {"ECO.2009.0001", "10.1/deep"}
        assert "Traceback" not in capsys.readouterr().err

    def test_corpus_in_file_name_order(self, tmp_path):
        """corpus.jsonl lists the articles in the order of their file names,
        not of their ids."""
        src = tmp_path / "xml"
        src.mkdir()
        for name, doc_id in (("a", "10.1/z"), ("b", "10.1/a"), ("c", "10.1/m")):
            (src / f"{name}.xml").write_text(ARTICLE.format(doc_id=doc_id), encoding="utf-8")
        out = tmp_path / "out"
        assert main(["ingest", "--input", str(src), "--out", str(out)]) == 0
        lines = (out / "corpus.jsonl").read_text(encoding="utf-8").splitlines()
        assert [json.loads(line)["doc_id"] for line in lines] == ["10.1/z", "10.1/a", "10.1/m"]

    def test_repeated_id_fails_stage(self, tmp_path, capsys):
        """The first repeat fails the stage, naming its id as the document;
        rejects.csv keeps the rejects read before it, and no corpus.jsonl is
        left."""
        src = tmp_path / "xml"
        src.mkdir()
        for name in ("a", "c"):
            (src / f"{name}.xml").write_text(ARTICLE.format(doc_id="10.1/x"), encoding="utf-8")
        for name in ("b", "d"):
            (src / f"{name}.xml").write_text("not xml at all", encoding="utf-8")
        out = tmp_path / "out"
        assert main(["ingest", "--input", str(src), "--out", str(out)]) == 1
        err = read_errors(out)
        assert (err["stage"], err["document"], err["error"], err["message"]) == (
            "ingest", "10.1/x", "MissingMetadata", "duplicate doc_id '10.1/x'")
        assert not (out / "corpus.jsonl").exists()
        assert [row[:2] for row in table_rows(out / "rejects.csv")] == [
            ["b.xml", "MalformedXml"]]
        assert "Traceback" not in capsys.readouterr().err

    def test_peak_below_a_third_of_the_corpus(self, tmp_path):
        """ingest holds one article at a time, not the corpus."""
        rng = random.Random(7)
        src = tmp_path / "xml"
        src.mkdir()
        for i in range(600):
            body = "".join(f"<p>{p}</p>" for p in random_paragraphs(rng, 8, 7))
            (src / f"{i:04d}.xml").write_text(ARTICLE.format(doc_id=f"10.1/{i:04d}").replace(
                "<body><p>The cats sleep. The cat sat because it was tired.</p></body>",
                f"<body>{body}</body>"), encoding="utf-8")
        out = tmp_path / "out"
        out.mkdir()
        tracemalloc.start()
        try:
            cli.stage_ingest(RunConfig(out=out, input=src))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        size = (out / "corpus.jsonl").stat().st_size
        assert size >= 3_000_000
        assert len((out / "corpus.jsonl").read_bytes().splitlines()) == 600
        assert peak < size / 3

    def test_empty_input_dir_fails(self, tmp_path, capsys):
        src = tmp_path / "xml"
        src.mkdir()
        out = tmp_path / "out"
        assert main(["ingest", "--input", str(src), "--out", str(out)]) == 1
        assert "no .xml files" in read_errors(out)["message"]
        capsys.readouterr()

    def test_default_abbreviation_table_built_once(self, tmp_path, monkeypatch):
        built = []
        original = AbbreviationTable.__init__

        def counting_init(self, *args, **kwargs):
            built.append(1)
            original(self, *args, **kwargs)

        monkeypatch.setattr(AbbreviationTable, "__init__", counting_init)
        assert main(["ingest", "--input", str(MINICORPUS), "--out", str(tmp_path)]) == 0
        assert len(built) == 1

    def test_declared_encoding_honoured(self, tmp_path):
        src = tmp_path / "xml"
        src.mkdir()
        latin1 = ARTICLE.format(doc_id="10.1/m").replace("The cats", "Müller's cats")
        (src / "m.xml").write_bytes(
            b'<?xml version="1.0" encoding="ISO-8859-1"?>\n' + latin1.encode("latin-1"))
        out = tmp_path / "out"
        assert main(["ingest", "--input", str(src), "--out", str(out)]) == 0
        text = (out / "corpus.jsonl").read_text(encoding="utf-8")
        assert "Müller's cats sleep." in text
        rejects = table_rows(out / "rejects.csv")
        assert rejects == []

    @pytest.mark.parametrize("data", [
        ARTICLE.format(doc_id="10.1/x").replace("cats", "chats\xe9").encode("latin-1"),
        b'<?xml version="1.0" encoding="no-such-codec"?>' + ARTICLE.encode(),
    ], ids=["undecodable-bytes", "unknown-encoding"])
    def test_undecodable_file_rejected(self, tmp_path, data):
        src = tmp_path / "xml"
        src.mkdir()
        (src / "bad.xml").write_bytes(data)
        (src / "good.xml").write_text(ARTICLE.format(doc_id="10.1/ok"),
                                      encoding="utf-8")
        out = tmp_path / "out"
        assert main(["ingest", "--input", str(src), "--out", str(out)]) == 0
        rejects = table_rows(out / "rejects.csv")
        assert [row[:2] for row in rejects] == [["bad.xml", "MalformedXml"]]
        corpus_text = (out / "corpus.jsonl").read_text(encoding="utf-8")
        assert corpus_text.count("\n") == 1
        assert "10.1/ok" in corpus_text

    def test_reject_with_non_utf8_file_name(self, tmp_path, capsys):
        src = tmp_path / "xml"
        src.mkdir()
        non_utf8_name(src, b"bad\xff.xml", b"<article><unclosed>")
        (src / "good.xml").write_text(ARTICLE.format(doc_id="10.1/ok"),
                                      encoding="utf-8")
        out = tmp_path / "out"
        assert main(["ingest", "--input", str(src), "--out", str(out)]) == 0
        rejects = table_rows(out / "rejects.csv")
        assert [row[:2] for row in rejects] == [["bad\\xff.xml", "MalformedXml"]]
        assert "Traceback" not in capsys.readouterr().err

    def test_abbreviation_table_applied(self, tmp_path):
        src = tmp_path / "xml"
        src.mkdir()
        (src / "a.xml").write_text(
            ARTICLE.format(doc_id="10.1/a").replace(
                "The cats sleep.", "See Fig. 1 now."),
            encoding="utf-8")
        abbrev = tmp_path / "abbrev.tsv"
        abbrev.write_text("Fig.\tFigure\n", encoding="utf-8")
        out = tmp_path / "out"
        code = main(["ingest", "--input", str(src), "--out", str(out),
                     "--abbrev", str(abbrev)])
        assert code == 0
        text = (out / "corpus.jsonl").read_text(encoding="utf-8")
        assert "Figure 1" in text
        assert "Fig." not in text

    def test_abbreviation_file_of_comments_only_rewrites_nothing(self, tmp_path):
        """A table with no entry replaces the default table, so no
        paragraph changes, not even at a default key."""
        src = tmp_path / "xml"
        src.mkdir()
        paragraph = "See Fig. 1 now, as Smith et al. found, e.g. in mice."
        (src / "a.xml").write_text(
            ARTICLE.format(doc_id="10.1/a").replace(
                "The cats sleep. The cat sat because it was tired.", paragraph),
            encoding="utf-8")
        abbrev = tmp_path / "abbrev.tsv"
        abbrev.write_text("# none of mine\n#Fig.\tFigure\n", encoding="utf-8")
        out = tmp_path / "out"
        assert main(["ingest", "--input", str(src), "--out", str(out),
                     "--abbrev", str(abbrev)]) == 0
        record = json.loads((out / "corpus.jsonl").read_text(encoding="utf-8"))
        assert record["paragraphs"] == [paragraph]

    @pytest.mark.parametrize("line", [b"Fig. Figure", b"Fig\tFigure", b"Fig.\tFig\xffure"],
                             ids=["no-tab", "key-without-period", "not-utf-8"])
    def test_bad_abbreviation_file_fails_stage(self, tmp_path, capsys, line):
        src = tmp_path / "xml"
        src.mkdir()
        (src / "a.xml").write_text(ARTICLE.format(doc_id="10.1/a"), encoding="utf-8")
        abbrev = tmp_path / "abbrev.tsv"
        abbrev.write_bytes(b"# mine\n" + line + b"\n")
        out = tmp_path / "out"
        assert main(["ingest", "--input", str(src), "--out", str(out),
                     "--abbrev", str(abbrev)]) == 1
        err = read_errors(out)
        assert (err["stage"], err["error"]) == ("ingest", "FormatError")
        assert err["message"].startswith("line 2: abbrev.tsv: ")
        assert "error in ingest stage" in capsys.readouterr().err

    def test_abbreviation_file_with_non_utf8_name(self, tmp_path, capsys):
        src = tmp_path / "xml"
        src.mkdir()
        (src / "a.xml").write_text(ARTICLE.format(doc_id="10.1/a"), encoding="utf-8")
        abbrev = non_utf8_name(tmp_path, b"ab\xff.tsv", b"Fig. Figure\n")
        out = tmp_path / "out"
        assert main(["ingest", "--input", str(src), "--out", str(out),
                     "--abbrev", str(abbrev)]) == 1
        assert read_errors(out)["message"] == (
            "line 1: ab\\xff.tsv: expected key TAB expansion")
        assert "Traceback" not in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore::lexcite.errors.GroupEmptyWarning")
@pytest.mark.parametrize("inside", ["\t", "\n"], ids=["tab", "line-break"])
def test_article_id_that_is_no_doc_id_is_a_reject(tmp_path, inside):
    """An id that corpus.jsonl or a #doc= line would not carry back
    unchanged is a reject with its reason, not an article that silently
    joins no score."""
    corpus = tmp_path / "xml"
    shutil.copytree(MINICORPUS, corpus)
    article = corpus / "ECO.2009.0001.xml"
    article.write_text(article.read_text(encoding="utf-8").replace(
        ">ECO.2009.0001<", f">ECO.{inside}2009.0001<"), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["run", "--input", str(corpus), "--citations",
                 str(corpus / "citations.csv"), "--out", str(out),
                 "--iterations", "50"]) == 0
    (reject,) = table_rows(out / "rejects.csv")
    assert reject[:2] == ["ECO.2009.0001.xml", "MissingMetadata"]
    assert "holds a TAB or a line break" in reject[2]
    assert len(table_rows(out / "profiles.csv")) == 29


@pytest.mark.filterwarnings("ignore::lexcite.errors.GroupEmptyWarning")
@pytest.mark.parametrize("paragraph, abbrev", [("12 3.4 %", None), ("Zz.", "Zz.\t\n")],
                         ids=["digits-only", "empty-expansion"])
def test_article_without_a_letter_is_a_reject(tmp_path, paragraph, abbrev):
    """An article whose paragraphs hold no letter, as read or once its
    abbreviations are rewritten, has no profile: it is a reject, not a
    failure of the profile stage."""
    corpus = tmp_path / "xml"
    shutil.copytree(MINICORPUS, corpus)
    article = corpus / "ECO.2009.0001.xml"
    article.write_text(re.sub(r"<p>.*?</p>", f"<p>{paragraph}</p>",
                              article.read_text(encoding="utf-8")), encoding="utf-8")
    out = tmp_path / "out"
    argv = ["run", "--input", str(corpus), "--citations", str(corpus / "citations.csv"),
            "--out", str(out), "--iterations", "50"]
    if abbrev is not None:
        (tmp_path / "abbrev.tsv").write_text(abbrev, encoding="utf-8")
        argv += ["--abbrev", str(tmp_path / "abbrev.tsv")]
    assert main(argv) == 0
    assert table_rows(out / "rejects.csv") == [
        ["ECO.2009.0001.xml", "MissingMetadata",
         "no paragraph with a letter for 'ECO.2009.0001'"]]
    assert len(table_rows(out / "profiles.csv")) == 29


def corpus_with_bad_line_6(out: Path, bad: bytes) -> None:
    """Ingest the minicorpus into out, then make line 6 of corpus.jsonl bad."""
    assert main(["ingest", "--input", str(MINICORPUS), "--out", str(out)]) == 0
    corpus = out / "corpus.jsonl"
    lines = corpus.read_bytes().splitlines(keepends=True)
    lines[5] = bad + b"\n"
    corpus.write_bytes(b"".join(lines))


class TestTagStage:
    @pytest.mark.parametrize("bad, tagged_first", [
        (b'{"doc_id": "x"}', 5),
        # a bad byte is met when its block of the file is decoded, which
        # can be before the lines ahead of it are read
        (b'{"doc_id": "Caf\xe9"}', None),
    ], ids=["bad-record", "not-utf-8"])
    def test_bad_line_6_fails_tag(self, tmp_path, capsys, monkeypatch, bad, tagged_first):
        """The documents before the bad line are tagged and written as they
        are read, and main removes them when the line fails the stage. The
        exports are counted in a file, so that those of a forked child
        count too."""
        out = tmp_path / "out"
        corpus_with_bad_line_6(out, bad)
        exported = tmp_path / "exported.txt"

        def export(doc, export=cli.export_tagged):
            with open(exported, "a", encoding="utf-8") as log:
                log.write(doc.doc_id + "\n")
            return export(doc)

        monkeypatch.setattr(cli, "export_tagged", export)
        assert main(["tag", "--out", str(out)]) == 1
        err = read_errors(out)
        assert (err["stage"], err["document"], err["error"]) == ("tag", "", "FormatError")
        assert err["message"].startswith("line 6: corpus.jsonl: ")
        if tagged_first is not None:
            assert len(exported.read_text(encoding="utf-8").splitlines()) == tagged_first
        assert not list((out / "tagged").glob("*.tsv"))
        assert "error in tag stage" in capsys.readouterr().err

    def test_peak_below_half_the_corpus(self, tmp_path):
        """tag holds one document at a time, not the corpus."""
        rng = random.Random(5)
        docs = [RawDocument(f"10.1/{i:04d}", 2009 + i % 5, "Biology",
                            random_paragraphs(rng, 6, 6))
                for i in range(480)]
        write_corpus(docs, tmp_path / "corpus.jsonl")
        size = (tmp_path / "corpus.jsonl").stat().st_size
        assert size >= 1_500_000
        tracemalloc.start()
        try:
            cli.stage_tag(RunConfig(out=tmp_path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(list((tmp_path / "tagged").glob("*.tsv"))) == len(docs)
        assert peak < 0.5 * size

    @pytest.mark.parametrize("line", [
        b'{"doc_id": "b", "year": 2010, "paragraphs": ["Cut',
        b'{"doc_id": "b", "year": 1066, "domain": "x", "journal": "", "paragraphs": ["Old."]}',
        b'{"doc_id": "b", "year": 2010, "domain": "x", "journal": "", "paragraphs": ["Caf\xe9."]}',
    ], ids=["malformed-json", "year-out-of-range", "not-utf-8"])
    def test_bad_corpus_line_fails_tag(self, tmp_path, capsys, line):
        good = b'{"doc_id": "a", "year": 2010, "domain": "x", "journal": "", "paragraphs": ["Fine."]}'
        (tmp_path / "corpus.jsonl").write_bytes(good + b"\n" + line + b"\n")
        assert main(["tag", "--out", str(tmp_path)]) == 1
        err = read_errors(tmp_path)
        assert (err["stage"], err["error"]) == ("tag", "FormatError")
        assert err["message"].startswith("line 2: corpus.jsonl: ")
        assert "error in tag stage" in capsys.readouterr().err

    @pytest.mark.parametrize("record", [
        '{"doc_id": "b", "year": 2010, "domain": "x", "journal": "", "paragraphs": [1]}',
        '{"doc_id": 5, "year": 2010, "domain": "x", "journal": "", "paragraphs": ["A cat sat."]}',
        '{"doc_id": "b", "year": 2010, "domain": "x", "journal": "", "paragraphs": "A cat sat."}',
        '{"doc_id": "b", "year": 2010, "journal": "", "paragraphs": ["A cat sat."]}',
        '{"doc_id": "b", "year": 2010, "domain": "x", "paragraphs": ["A cat sat."]}',
        "[" * 100_000,
        '{"doc_id": "a\\ud800", "year": 2010, "domain": "x", "journal": "", "paragraphs": ["A."]}',
        '{"doc_id": "b", "year": 2010, "domain": "x", "journal": "", "paragraphs": ["A\\udfff."]}',
        '{"doc_id": "a\\tb", "year": 2010, "domain": "x", "journal": "", "paragraphs": ["A."]}',
        '{"doc_id": "a\\nb", "year": 2010, "domain": "x", "journal": "", "paragraphs": ["A."]}',
        '{"doc_id": " a", "year": 2010, "domain": "x", "journal": "", "paragraphs": ["A."]}',
        '{"doc_id": "b", "year": 2010, "domain": "x", "journal": "", "paragraphs": ["12 %"]}',
    ], ids=["paragraph-not-text", "doc-id-not-text", "paragraphs-not-list",
            "no-domain", "no-journal", "nested-too-deep", "doc-id-surrogate",
            "paragraph-surrogate", "doc-id-tab", "doc-id-line-break", "doc-id-space",
            "no-letter"])
    def test_record_checked_at_boundary(self, tmp_path, capsys, record):
        (tmp_path / "corpus.jsonl").write_text(record + "\n", encoding="utf-8")
        assert main(["tag", "--out", str(tmp_path)]) == 1
        err = read_errors(tmp_path)
        assert (err["stage"], err["error"]) == ("tag", "FormatError")
        assert err["message"].startswith("line 1: corpus.jsonl: ")
        assert not list((tmp_path / "tagged").glob("*.tsv"))
        assert "Traceback" not in capsys.readouterr().err


class TestImportTagged:
    def test_external_tags_flow_through(self, tmp_path):
        ext = tmp_path / "ext"
        ext.mkdir()
        (ext / "docA.tsv").write_text(
            "The\tDT\ncats\tNNS\nsleep\tVBP\n.\t.\n\n", encoding="utf-8")
        out = tmp_path / "out"
        assert main(["tag", "--out", str(out),
                     "--import-tagged", str(ext)]) == 0
        exported = (out / "tagged" / "docA.tsv").read_text(encoding="utf-8")
        assert exported.splitlines()[0] == "#doc=docA"
        assert "#clauses=1" in exported
        assert main(["profile", "--out", str(out)]) == 0
        assert read_table(out / "profiles.csv").header[0] == "doc_id"
        rows = table_rows(out / "profiles.csv")
        assert rows[0][0] == "docA"
        assert float(rows[0][1]) == 3.0  # three word tokens; "." is not a word

    def test_bad_external_file_names_document(self, tmp_path, capsys):
        ext = tmp_path / "ext"
        ext.mkdir()
        (ext / "docB.tsv").write_text("token-without-tab\n", encoding="utf-8")
        out = tmp_path / "out"
        assert main(["tag", "--out", str(out),
                     "--import-tagged", str(ext)]) == 1
        err = read_errors(out)
        assert err["stage"] == "tag"
        assert err["document"] == "docB.tsv"
        assert "error in tag stage" in capsys.readouterr().err

    @pytest.mark.parametrize("stage, document", [("tag", "docC.tsv"), ("profile", "docC.tsv")],
                             ids=["tag-docC.tsv", "profile-docC"])
    def test_non_utf8_file_names_line(self, tmp_path, capsys, stage, document):
        out = tmp_path / "out"
        tsv_dir = tmp_path / "ext" if stage == "tag" else out / "tagged"
        tsv_dir.mkdir(parents=True)
        (tsv_dir / "docC.tsv").write_bytes(b"The\tDT\ncats\tNNS\nCaf\xe9\tNN\n\n")
        argv = [stage, "--out", str(out)]
        if stage == "tag":
            argv += ["--import-tagged", str(tsv_dir)]
        assert main(argv) == 1
        err = read_errors(out)
        assert (err["stage"], err["document"], err["error"]) == (stage, document, "FormatError")
        assert err["message"].startswith("line 3: docC.tsv: not UTF-8")
        assert f"error in {stage} stage" in capsys.readouterr().err

    def test_non_utf8_file_name_without_doc_line(self, tmp_path, capsys):
        ext = tmp_path / "ext"
        ext.mkdir()
        non_utf8_name(ext, b"x\xff.tsv", b"The\tDT\ncats\tNNS\n\n")
        out = tmp_path / "out"
        assert main(["tag", "--out", str(out), "--import-tagged", str(ext)]) == 1
        err = read_errors(out)
        assert (err["stage"], err["document"], err["error"]) == ("tag", "x\\xff.tsv",
                                                                "FormatError")
        assert err["message"] == ("line 1: x\\xff.tsv: no #doc= line, and the file "
                                  "name is not UTF-8")
        assert "Traceback" not in capsys.readouterr().err

    def test_non_utf8_file_name_with_doc_line(self, tmp_path):
        ext = tmp_path / "ext"
        ext.mkdir()
        non_utf8_name(ext, b"x\xff.tsv", b"#doc=docX\nThe\tDT\ncats\tNNS\n\n")
        out = tmp_path / "out"
        assert main(["tag", "--out", str(out), "--import-tagged", str(ext)]) == 0
        assert [p.name for p in (out / "tagged").iterdir()] == ["docX.tsv"]

    @pytest.mark.parametrize("stage, document", [("tag", "a\tb.tsv"), ("profile", "a\tb.tsv")],
                             ids=["tag-a\tb.tsv", "profile-a\tb"])
    def test_file_name_that_is_no_doc_id(self, tmp_path, capsys, stage, document):
        """Without a #doc= line the stem names the document, and a stem that
        a #doc= line could not carry back fails the stage."""
        out = tmp_path / "out"
        tsv_dir = tmp_path / "ext" if stage == "tag" else out / "tagged"
        tsv_dir.mkdir(parents=True)
        (tsv_dir / "a\tb.tsv").write_text("The\tDT\ncats\tNNS\n\n", encoding="utf-8")
        argv = [stage, "--out", str(out)]
        if stage == "tag":
            argv += ["--import-tagged", str(tsv_dir)]
        assert main(argv) == 1
        err = read_errors(out)
        assert (err["stage"], err["document"], err["error"]) == (stage, document, "FormatError")
        assert err["message"] == ("line 1: a\tb.tsv: no #doc= line, and doc id 'a\\tb' is "
                                  "empty, holds a TAB or a line break, or has white space "
                                  "at an end")
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("stage, document", [("tag", "ab.tsv"), ("profile", "ab.tsv")],
                             ids=["tag", "profile"])
    def test_concatenated_files_fail_the_stage(self, tmp_path, capsys, stage, document):
        """Two tagged files run together are not read as one document named
        by the second "#doc=" line."""
        out = tmp_path / "out"
        tsv_dir = tmp_path / "ext" if stage == "tag" else out / "tagged"
        tsv_dir.mkdir(parents=True)
        a = "#doc=a\n#clauses=1\nThe\tDT\ncats\tNNS\nsleep\tVBP\n\n"
        (tsv_dir / "ab.tsv").write_text(a + a.replace("=a", "=b"), encoding="utf-8")
        argv = [stage, "--out", str(out)]
        if stage == "tag":
            argv += ["--import-tagged", str(tsv_dir)]
        assert main(argv) == 1
        assert read_errors(out) == {"stage": stage, "document": document,
                                    "error": "FormatError",
                                    "message": "line 7: a second #doc= line (after line 1)"}
        assert not (out / "profiles.csv").exists()
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("line, message", [("\tNN", "line 3: empty token surface"),
                                               ("word\t", "line 3: empty tag")],
                             ids=["empty-surface", "empty-tag"])
    def test_empty_field_names_file_and_line(self, tmp_path, capsys, line, message):
        ext = tmp_path / "ext"
        ext.mkdir()
        (ext / "docE.tsv").write_text(f"#doc=E\nThe\tDT\n{line}\n\n", encoding="utf-8")
        out = tmp_path / "out"
        assert main(["tag", "--out", str(out), "--import-tagged", str(ext)]) == 1
        err = read_errors(out)
        assert err == {"stage": "tag", "document": "docE.tsv", "error": "FormatError",
                       "message": message}
        assert not list((out / "tagged").iterdir())
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("stage", ["tag", "profile"])
    def test_no_tsv_files(self, tmp_path, capsys, stage):
        out = tmp_path / "out"
        tsv_dir = tmp_path / "ext" if stage == "tag" else out / "tagged"
        tsv_dir.mkdir(parents=True)
        (tsv_dir / "notes.txt").write_text("The\tDT\n\n", encoding="utf-8")
        argv = [stage, "--out", str(out)]
        if stage == "tag":
            argv += ["--import-tagged", str(tsv_dir)]
        assert main(argv) == 1
        assert read_errors(out) == {"stage": stage, "document": "", "error": "DataError",
                                    "message": f"no .tsv files in {tsv_dir}"}
        assert f"error in {stage} stage" in capsys.readouterr().err

    def test_profile_rejects_repeated_doc_id(self, tmp_path, capsys):
        tagged = tmp_path / "tagged"
        tagged.mkdir()
        for name in ("a", "b"):
            (tagged / f"{name}.tsv").write_text("#doc=X\nThe\tDT\ncats\tNNS\n\n",
                                                encoding="utf-8")
        assert main(["profile", "--out", str(tmp_path)]) == 1
        err = read_errors(tmp_path)
        assert (err["stage"], err["document"], err["error"]) == ("profile", "X", "DataError")
        assert "a.tsv" in err["message"] and "b.tsv" in err["message"]
        assert not (tmp_path / "profiles.csv").exists()
        assert "error in profile stage" in capsys.readouterr().err


class TestTagOwnsTaggedDir:
    """After a successful tag, tagged/ holds only the files it wrote, so a
    rerun into the same --out reads no document of an earlier run."""

    @pytest.mark.filterwarnings("ignore::lexcite.errors.GroupEmptyWarning")
    def test_deleted_article_leaves_profiles(self, tmp_path):
        src = tmp_path / "xml"
        shutil.copytree(MINICORPUS, src)
        deleted = "GEN.2011.0002"

        def run(out):
            return main(["run", "--input", str(src), "--citations",
                         str(src / "citations.csv"), "--out", str(out),
                         "--iterations", "50"])

        dirty, clean = tmp_path / "dirty", tmp_path / "clean"
        assert run(dirty) == 0
        (src / f"{deleted}.xml").unlink()
        assert run(dirty) == 0
        assert run(clean) == 0
        doc_ids = [row[0] for row in table_rows(dirty / "profiles.csv")]
        assert len(doc_ids) == 29 and deleted not in doc_ids
        assert (dirty / "profiles.csv").read_bytes() == (clean / "profiles.csv").read_bytes()
        assert (sorted(p.name for p in (dirty / "tagged").iterdir())
                == sorted(p.name for p in (clean / "tagged").iterdir()))

    def test_import_tagged_replaces_earlier_files(self, tmp_path):
        ext, out = tmp_path / "ext", tmp_path / "out"
        ext.mkdir()
        for name in ("docA", "docB"):
            (ext / f"{name}.tsv").write_text("The\tDT\ncats\tNNS\n\n", encoding="utf-8")
        assert main(["tag", "--out", str(out), "--import-tagged", str(ext)]) == 0
        (ext / "docB.tsv").unlink()
        assert main(["tag", "--out", str(out), "--import-tagged", str(ext)]) == 0
        assert sorted(p.name for p in (out / "tagged").iterdir()) == ["docA.tsv"]
        assert main(["profile", "--out", str(out)]) == 0
        assert [row[0] for row in table_rows(out / "profiles.csv")] == ["docA"]

    @pytest.mark.parametrize("alias", [False, True])
    def test_import_from_own_tagged_dir_refused(self, tmp_path, capsys, alias):
        # the sweep of stale files would delete the files being imported
        out = tmp_path / "out"
        tagged = out / "tagged"
        tagged.mkdir(parents=True)
        source, text = tagged / "external_a.tsv", b"#doc=paper-1\nThe\tDT\ncats\tNNS\n\n"
        source.write_bytes(text)
        import_dir = tagged
        if alias:
            import_dir = tmp_path / "link"
            import_dir.symlink_to(tagged, target_is_directory=True)
        assert main(["tag", "--out", str(out), "--import-tagged", str(import_dir)]) == 2
        assert_config_fault(out, capsys, f"error: --import-tagged {import_dir} is the "
                                         "tagged/ directory of --out")
        assert [p.name for p in tagged.iterdir()] == ["external_a.tsv"]
        assert source.read_bytes() == text


@pytest.mark.filterwarnings("ignore::lexcite.errors.GroupEmptyWarning")
class TestFailedStageLeavesNoOutput:
    """A stage that fails removes what it wrote in an earlier invocation, so
    the next stage cannot read it."""

    def common(self, out):
        return ["--input", str(MINICORPUS), "--citations", str(MINICORPUS / "citations.csv"),
                "--out", str(out), "--iterations", "50"]

    def test_failed_ingest_then_tag(self, tmp_path, capsys):
        out, bad = tmp_path / "out", tmp_path / "bad"
        assert main(["ingest", *self.common(out)]) == 0
        bad.mkdir()
        (bad / "bad.xml").write_text("not xml at all", encoding="utf-8")
        assert main(["ingest", "--input", str(bad), "--out", str(out)]) == 1
        assert not (out / "corpus.jsonl").exists()
        assert [row[0] for row in table_rows(out / "rejects.csv")] == ["bad.xml"]
        capsys.readouterr()
        assert main(["tag", "--out", str(out)]) == 2
        assert_config_fault(out, capsys, "missing corpus.jsonl", earlier="ingest")
        assert not (out / "tagged").exists()

    def test_failed_profile_after_good_run(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["run", *self.common(out)]) == 0
        (out / "tagged" / "GEN.2011.0002.tsv").write_bytes(b"The\tDT\n\xff\tNN\n\n")
        assert main(["profile", "--out", str(out)]) == 1
        assert read_errors(out)["stage"] == "profile"
        assert not (out / "profiles.csv").exists()
        capsys.readouterr()
        assert main(["compare", "--out", str(out)]) == 2
        assert_config_fault(out, capsys, "missing profiles.csv", earlier="profile")

    def test_failed_run_removes_later_outputs(self, tmp_path, capsys):
        out, citations = tmp_path / "out", tmp_path / "citations.csv"
        assert main(["run", *self.common(out)]) == 0
        profiles = (out / "profiles.csv").read_bytes()
        citations.write_text("doc_id,year,domain\r\n", encoding="utf-8")
        assert main(["run", *self.common(out), "--citations", str(citations)]) == 1
        assert read_errors(out)["stage"] == "normalize"
        # the stages before normalize ran again; those after it never ran
        assert (out / "profiles.csv").read_bytes() == profiles
        for name in ("baselines.csv", "scores.csv", "comparison.csv", "cdf.csv",
                     "estimates.csv", "regression.csv"):
            assert not (out / name).exists(), name
        assert "Traceback" not in capsys.readouterr().err

    def test_failed_normalize_after_good_run(self, tmp_path, capsys):
        out, citations = tmp_path / "out", tmp_path / "citations.csv"
        assert main(["run", *self.common(out)]) == 0
        citations.write_text("doc_id,year,domain\r\n", encoding="utf-8")
        assert main(["normalize", "--citations", str(citations), "--out", str(out)]) == 1
        assert read_errors(out)["stage"] == "normalize"
        assert not (out / "scores.csv").exists()
        assert not (out / "baselines.csv").exists()
        capsys.readouterr()
        assert main(["compare", "--out", str(out)]) == 2
        assert_config_fault(out, capsys, "missing scores.csv", earlier="normalize")

    def test_baselines_read_from_out_are_kept(self, tmp_path, capsys):
        out, citations = tmp_path / "out", tmp_path / "citations.csv"
        assert main(["run", *self.common(out)]) == 0
        baselines = (out / "baselines.csv").read_bytes()
        citations.write_text("doc_id,year,domain\r\n", encoding="utf-8")
        assert main(["normalize", "--citations", str(citations),
                     "--baselines", str(out / "baselines.csv"), "--out", str(out)]) == 1
        assert (out / "baselines.csv").read_bytes() == baselines
        assert not (out / "scores.csv").exists()
        assert "Traceback" not in capsys.readouterr().err


class TestJoinInStages:
    """compare and regress use the profile rows that have a score: a score
    without a group counts in the "all" cohort only, and a profile without a
    score counts nowhere."""

    def test_partial_scores(self, tmp_path):
        rng = np.random.default_rng(3)
        n_high, n_medium, n_low, n_ungrouped, n_unscored = 3, 5, 20, 4, 6
        groups = (["High"] * n_high + ["Medium"] * n_medium + ["Low"] * n_low
                  + [""] * n_ungrouped)
        n_profiles = len(groups) + n_unscored
        # profile rows in file order interleave the unscored documents
        doc_ids = [f"d{i:02d}" for i in range(n_profiles)]
        unscored = set(doc_ids[::n_profiles // n_unscored][:n_unscored])
        scored = [d for d in doc_ids if d not in unscored]
        write_table(tmp_path / "profiles.csv", PROFILE_HEADER,
                    [[d, *rng.uniform(1, 9, 12)] for d in doc_ids])
        write_table(tmp_path / "scores.csv", ["doc_id", "nc", "group"],
                    [[d, float(rng.lognormal(0, 1)), g] for d, g in zip(scored, groups)])
        common = ["--out", str(tmp_path), "--iterations", "50"]
        assert main(["compare", *common]) == 0
        assert main(["regress", *common]) == 0

        sizes = {"High": n_high, "Medium": n_medium, "Low": n_low}
        for row in table_rows(tmp_path / "comparison.csv"):
            first, second = row[1].split("-")
            assert (int(row[5]), int(row[6])) == (sizes[first], sizes[second])
        for row in table_rows(tmp_path / "estimates.csv"):
            assert int(row[5]) == sizes[row[1]]
        n_used = {(int(r[0]), r[1]): int(r[3])
                  for r in table_rows(tmp_path / "regression.csv")}
        for model_id in range(1, 7):
            assert n_used[model_id, "all"] == len(scored)
            for group, size in sizes.items():
                assert n_used[model_id, group] == size


PROFILE_HEADER = ["doc_id", *[f"x{i}" for i in range(1, 13)]]


class TestRegressAnswersEveryCell:
    """regress writes all 24 rows for any finite input: a cell it cannot
    fit reads "-", and one odd cohort does not fail the stage."""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("case", ["high-lacks-x8", "huge-cells", "huge-nc"])
    def test_finite_inputs(self, tmp_path, capsys, case):
        rng = np.random.default_rng(11)
        groups = ["High"] * 3 + ["Low"] * 37
        values = rng.uniform(1, 9, (40, 12)).tolist()
        nc = rng.lognormal(0, 1, 40)
        if case == "high-lacks-x8":
            for row in values[:3]:
                row[7] = None
        elif case == "huge-cells":
            values = [[1e308] * 12 for _ in groups]
        else:
            nc = rng.uniform(0, 1e300, 40)
        write_table(tmp_path / "profiles.csv", PROFILE_HEADER,
                    [[f"d{i:02d}", *row] for i, row in enumerate(values)])
        write_table(tmp_path / "scores.csv", ["doc_id", "nc", "group"],
                    [[f"d{i:02d}", float(nc[i]), g] for i, g in enumerate(groups)])
        assert main(["regress", "--out", str(tmp_path)]) == 0
        assert not (tmp_path / "errors.json").exists()
        assert capsys.readouterr().err == ""
        rows = table_rows(tmp_path / "regression.csv")
        assert len(rows) == 24
        for _, cohort, r2, n_used, n_dropped in rows:
            assert r2 == "-" or 0.0 <= float(r2) <= 1.0
            if case == "high-lacks-x8" and cohort == "High":
                assert (r2, n_used, n_dropped) == ("-", "0", "3")


def test_mean_too_large_for_a_float_fails_compare(tmp_path):
    """A bootstrap mean past the largest float is no number that lexcite
    reads back: compare fails, naming the cell, with no warning on stderr."""
    out = tmp_path / "out"
    with pytest.warns(GroupEmptyWarning):
        assert main(["run", "--input", CORPUS, "--citations", CITATIONS, "--out", str(out),
                     "--iterations", "50"]) == 0
    table = read_table(out / "profiles.csv")
    rows = [row for _, row in table.rows]
    for row in rows:
        if row[0] == "ECO.2009.0001":
            row[1] = "1e308"
    write_table(out / "profiles.csv", table.header, rows, table.metadata)
    env = dict(os.environ, PYTHONPATH=str(Path(lexcite.__file__).resolve().parents[1]))
    result = subprocess.run(
        [sys.executable, "-m", "lexcite.cli", "compare", "--out", str(out),
         "--iterations", "50"], env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 1
    err = read_errors(out)
    assert (err["stage"], err["document"], err["error"]) == ("compare", "", "DataError")
    assert "(x1, Medium): non-finite value inf" in err["message"]
    assert result.stderr == f"error in compare stage: {err['message']}\n"
    assert not (out / "estimates.csv").exists()


def test_huge_predictor_makes_its_fits_non_estimable(tmp_path):
    """An x1 of 1e308 makes the designs of models 2, 5 and 6 on the whole
    corpus non-finite: regress writes those three rows as "-", with no
    warning, and keeps every other row, such as the Low fits of models 5
    and 6, which do not hold the Medium document."""
    out = tmp_path / "out"
    with pytest.warns(GroupEmptyWarning):
        assert main(["run", "--input", CORPUS, "--citations", CITATIONS, "--out", str(out),
                     "--iterations", "50"]) == 0
    regression = lambda: {tuple(row[:2]): row for _, row in
                          read_table(out / "regression.csv").rows}
    before = regression()
    table = read_table(out / "profiles.csv")
    rows = [row for _, row in table.rows]
    for row in rows:
        if row[0] == "ECO.2009.0001":
            row[1] = "1e308"
    write_table(out / "profiles.csv", table.header, rows, table.metadata)
    env = dict(os.environ, PYTHONPATH=str(Path(lexcite.__file__).resolve().parents[1]))
    result = subprocess.run(
        [sys.executable, "-W", "error", "-m", "lexcite.cli", "regress", "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=120)
    assert (result.returncode, result.stderr) == (0, "")
    after = regression()
    turned = {key for key in before if after[key] != before[key]}
    assert turned == {("2", "all"), ("5", "all"), ("6", "all")}
    for key in turned:
        assert before[key][2] != "-" and after[key][2] == "-"
        assert after[key][3:] == before[key][3:]
    assert before["5", "Low"][2] != "-" and before["6", "Low"][2] != "-"


class TestBadCells:
    """A cell that does not parse fails its stage through errors.json,
    naming the document, never with a traceback."""

    def write_inputs(self, out, profile_cell="1.5", nc_cell=1.0, group_cell="Low"):
        write_table(out / "profiles.csv", PROFILE_HEADER,
                    [["d1", *([2.0] * 12)], ["d2", *([3.0] * 11), profile_cell]])
        write_table(out / "scores.csv", ["doc_id", "nc", "group"],
                    [["d1", 2.0, "High"], ["d2", nc_cell, group_cell]])

    def assert_failed(self, out, capsys, stage, document):
        err = read_errors(out)
        assert (err["stage"], err["document"], err["error"]) == \
            (stage, document, "FormatError")
        assert f"error in {stage} stage" in capsys.readouterr().err

    @pytest.mark.parametrize("stage", ["compare", "regress"])
    @pytest.mark.parametrize("cell", ["abc", "nan", "inf"])
    def test_bad_profile_cell(self, tmp_path, capsys, stage, cell):
        self.write_inputs(tmp_path, profile_cell=cell)
        assert main([stage, "--out", str(tmp_path)]) == 1
        self.assert_failed(tmp_path, capsys, stage, "d2")
        # line 1 is the header, so d2 is on line 3
        assert read_errors(tmp_path)["message"].startswith("line 3: profiles.csv")

    @pytest.mark.parametrize("nc_cell, group_cell", [("x", "Low"), ("nan", "Low"),
                                                     (1.0, "Top")])
    @pytest.mark.parametrize("stage", ["group", "compare"])
    def test_bad_score_cell(self, tmp_path, capsys, stage, nc_cell, group_cell):
        self.write_inputs(tmp_path, nc_cell=nc_cell, group_cell=group_cell)
        assert main([stage, "--out", str(tmp_path)]) == 1
        self.assert_failed(tmp_path, capsys, stage, "d2")

    @pytest.mark.parametrize("stage", ["compare", "regress"])
    def test_scores_read_before_profile_rows(self, tmp_path, capsys, stage):
        """compare and regress read scores.csv whole before they join the
        rows of profiles.csv, so with both bad the scores.csv fault is the
        one reported; a missing profiles.csv is a configuration mistake,
        found before either is read."""
        write_table(tmp_path / "profiles.csv", ["doc_id", "x1"], [["d1", 2.0]])
        write_table(tmp_path / "scores.csv", ["doc_id", "nc", "group"],
                    [["d1", "abc", "Low"]])
        assert main([stage, "--out", str(tmp_path)]) == 1
        self.assert_failed(tmp_path, capsys, stage, "d1")
        assert read_errors(tmp_path)["message"] == \
            "line 2: scores.csv: could not convert string to float: 'abc'"
        (tmp_path / "profiles.csv").unlink()
        assert main([stage, "--out", str(tmp_path)]) == 2
        assert_config_fault(tmp_path, capsys, "error: missing profiles.csv", earlier=stage)

    @pytest.mark.parametrize("stage", ["group", "compare", "regress"])
    def test_negative_score(self, tmp_path, capsys, stage):
        """A negative nc is no normalized score: regress would drop it from
        the log models and group would rank it last."""
        self.write_inputs(tmp_path, nc_cell="-0.5")
        assert main([stage, "--out", str(tmp_path)]) == 1
        self.assert_failed(tmp_path, capsys, stage, "d2")
        assert read_errors(tmp_path)["message"] == \
            "line 3: scores.csv: nc '-0.5' is negative"

    @pytest.mark.parametrize("count", ["1.5", "-3", ""])
    def test_bad_citation_count(self, tmp_path, capsys, count):
        citations = tmp_path / "citations.csv"
        write_table(citations, ["doc_id", "year", "domain", "total_citations"],
                    [["a", 2010, "Eco", 4], ["b", 2010, "Eco", count]],
                    metadata={"source": "hand"})
        out = tmp_path / "out"
        assert main(["normalize", "--out", str(out),
                     "--citations", str(citations)]) == 1
        self.assert_failed(out, capsys, "normalize", "b")
        assert read_errors(out)["message"].startswith("line 4: citations.csv")

    @pytest.mark.parametrize("column, cell", [
        (3, "1_000"), (3, "+7"), (3, " 7"), (3, "7 "), (1, "٢٠٠٩"), (1, "２００９"), (3, "𝟕"),
    ], ids=["underscore", "plus-sign", "leading-space", "trailing-space",
            "arabic-indic-year", "fullwidth-year", "mathematical-digit"])
    def test_citation_number_spelling(self, tmp_path, capsys, column, cell):
        """A year or count in citations.csv is spelled by tableio's one rule."""
        citations = tmp_path / "citations.csv"
        row = ["b", "2010", "Eco", "7"]
        row[column] = cell
        write_table(citations, ["doc_id", "year", "domain", "total_citations"],
                    [["a", 2010, "Eco", 4], row])
        out = tmp_path / "out"
        assert main(["normalize", "--out", str(out), "--citations", str(citations)]) == 1
        assert read_errors(out) == {
            "stage": "normalize", "document": "b", "error": "FormatError",
            "message": f"line 3: citations.csv: not an integer: {cell!r}"}
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("year", ["-5", "1899", "2101", "9" * 400])
    def test_citation_year_out_of_range(self, tmp_path, capsys, year):
        """A citations.csv or --baselines year is in 1900-2100, as an
        article's is; no other year can meet an ingested article's."""
        citations, baselines = tmp_path / "citations.csv", tmp_path / "base.csv"
        write_table(citations, ["doc_id", "year", "domain", "total_citations"],
                    [["a", 2010, "Eco", 4], ["b", year, "Eco", 7]])
        out = tmp_path / "out"
        assert main(["normalize", "--out", str(out), "--citations", str(citations)]) == 1
        assert read_errors(out) == {
            "stage": "normalize", "document": "b", "error": "FormatError",
            "message": f"line 3: citations.csv: year {year} outside [1900, 2100]"}
        write_table(citations, ["doc_id", "year", "domain", "total_citations"],
                    [["a", 2010, "Eco", 4]])
        write_table(baselines, ["year", "domain", "adc", "n"], [[year, "Eco", 4.0, 1]])
        assert main(["normalize", "--out", str(out), "--citations", str(citations),
                     "--baselines", str(baselines)]) == 1
        assert read_errors(out) == {
            "stage": "normalize", "document": "", "error": "FormatError",
            "message": f"line 2: base.csv: year {year} outside [1900, 2100]"}
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                        reason="no int() digit limit to lift")
    def test_count_of_5000_digits_without_int_limit(self, tmp_path):
        """lexcite's own digit limit decides, so Python 3.10, whose int() has
        none, writes the same errors.json as 3.11."""
        citations = tmp_path / "citations.csv"
        write_table(citations, ["doc_id", "year", "domain", "total_citations"],
                    [["a", 2010, "Eco", 4], ["b", 2010, "Eco", "9" * 5000]])
        limit = sys.get_int_max_str_digits()
        reports = []
        try:
            for digits in (limit, 0):
                sys.set_int_max_str_digits(digits)
                out = tmp_path / f"out{digits}"
                assert main(["normalize", "--out", str(out), "--citations", str(citations)]) == 1
                reports.append(read_errors(out))
        finally:
            sys.set_int_max_str_digits(limit)
        assert reports[0] == reports[1] == {
            "stage": "normalize", "document": "b", "error": "FormatError",
            "message": "line 3: citations.csv: integer of 5000 digits; at most 4300"}

    def test_bad_baseline_cell(self, tmp_path, capsys):
        citations = tmp_path / "citations.csv"
        write_table(citations, ["doc_id", "year", "domain", "total_citations"],
                    [["a", 2010, "Eco", 4]])
        baselines = tmp_path / "base.csv"
        write_table(baselines, ["year", "domain", "adc", "n"],
                    [[2010, "Eco", "inf", 5]])
        out = tmp_path / "out"
        assert main(["normalize", "--out", str(out), "--citations", str(citations),
                     "--baselines", str(baselines)]) == 1
        self.assert_failed(out, capsys, "normalize", "")


CITATION_HEADER = b"doc_id,year,domain,total_citations\r\n"


class TestTableInputLines:
    """A bad table input fails its stage through errors.json, naming the line
    of the file that the bad row starts on."""

    @pytest.mark.parametrize("raw, line", [
        (b"#k=1\r\n#k=2\r\n" + CITATION_HEADER + b"a,2010,ECO,1\r\nb,2010,ECO,zz\r\n", 5),
        (CITATION_HEADER + b"\r\na,2010,ECO,1\r\nb,2010,ECO,zz\r\n", 4),
        (CITATION_HEADER + b'a,2010,"ECO\r\nX",1\r\nb,2010,ECO,zz\r\n', 4),
        (CITATION_HEADER + b'a,2010,ECO,1\r\nb,2010,"E\r\nCO",zz\r\n', 3),
    ], ids=["repeated-key", "blank-line", "multi-line-cell", "multi-line-bad-row"])
    def test_bad_cell_line(self, tmp_path, capsys, raw, line):
        citations = tmp_path / "cit.csv"
        citations.write_bytes(raw)
        out = tmp_path / "out"
        assert main(["normalize", "--out", str(out), "--citations", str(citations)]) == 1
        err = read_errors(out)
        assert (err["stage"], err["document"], err["error"]) == ("normalize", "b", "FormatError")
        assert err["message"].startswith(f"line {line}: cit.csv: ")
        assert "error in normalize stage" in capsys.readouterr().err

    def test_non_utf8_citations(self, tmp_path, capsys):
        citations = tmp_path / "cit.csv"
        citations.write_bytes(CITATION_HEADER + b"a,2010,ECO,1\r\nCaf\xe9,2010,ECO,2\r\n")
        out = tmp_path / "out"
        assert main(["normalize", "--out", str(out), "--citations", str(citations)]) == 1
        err = read_errors(out)
        assert (err["stage"], err["error"]) == ("normalize", "FormatError")
        assert err["message"].startswith("line 3: cit.csv: not UTF-8")
        assert "error in normalize stage" in capsys.readouterr().err

    def test_non_utf8_profiles(self, tmp_path, capsys):
        write_table(tmp_path / "profiles.csv", PROFILE_HEADER,
                    [["d1", *([2.0] * 12)], ["d2", *([3.0] * 12)]], {"k": "v"})
        write_table(tmp_path / "scores.csv", ["doc_id", "nc", "group"],
                    [["d1", 2.0, "High"], ["d2", 1.0, "Low"]])
        path = tmp_path / "profiles.csv"
        path.write_bytes(path.read_bytes().replace(b"d2", b"d\xe92"))
        assert main(["compare", "--out", str(tmp_path)]) == 1
        err = read_errors(tmp_path)
        assert (err["stage"], err["error"]) == ("compare", "FormatError")
        assert err["message"].startswith("line 4: profiles.csv: not UTF-8")
        assert "error in compare stage" in capsys.readouterr().err
        assert not (tmp_path / "estimates.csv").exists()

    def test_ragged_row_names_its_table(self, tmp_path, capsys):
        """compare reads two tables; a row of the wrong length names which."""
        write_table(tmp_path / "profiles.csv", PROFILE_HEADER,
                    [["d1", *([2.0] * 12)], ["d2", *([3.0] * 12)]])
        write_table(tmp_path / "scores.csv", ["doc_id", "nc", "group"],
                    [["d1", 2.0, "High"], ["d2", 1.0, "Low", "x"]], {"k": "v"})
        assert main(["compare", "--out", str(tmp_path)]) == 1
        err = read_errors(tmp_path)
        assert (err["stage"], err["error"]) == ("compare", "FormatError")
        assert err["message"] == "line 4: scores.csv: row has 4 cells, header has 3"
        assert "error in compare stage" in capsys.readouterr().err


class TestRepeatedKeys:
    """A key repeated in an input table fails the stage through errors.json,
    naming the line, before any output is written."""

    def assert_repeated(self, out, capsys, stage, document, message):
        err = read_errors(out)
        assert (err["stage"], err["document"], err["error"], err["message"]) == \
            (stage, document, "FormatError", message)
        assert f"error in {stage} stage" in capsys.readouterr().err

    def test_repeated_score_doc_id(self, tmp_path, capsys):
        write_table(tmp_path / "scores.csv", ["doc_id", "nc", "group"],
                    [["a", 1.0, ""], ["a", 2.0, ""], ["b", 0.5, ""]])
        assert main(["group", "--out", str(tmp_path)]) == 1
        # line 1 is the header, so the second "a" is on line 3
        self.assert_repeated(tmp_path, capsys, "group", "a",
                             "line 3: scores.csv: doc_id 'a' is repeated")
        rows = table_rows(tmp_path / "scores.csv")
        assert [row[2] for row in rows] == ["", "", ""]

    def test_repeated_baseline_cell(self, tmp_path, capsys):
        citations = tmp_path / "citations.csv"
        write_table(citations, ["doc_id", "year", "domain", "total_citations"],
                    [["a", 2010, "Eco", 4], ["b", 2010, "Eco", 8]])
        baselines = tmp_path / "base.csv"
        write_table(baselines, ["year", "domain", "adc", "n"],
                    [[2010, "Eco", 2.0, 2], [2011, "Eco", 1.0, 1], [2010, "Eco", 6.0, 2]],
                    metadata={"source": "hand"})
        out = tmp_path / "out"
        assert main(["normalize", "--out", str(out), "--citations", str(citations),
                     "--baselines", str(baselines)]) == 1
        self.assert_repeated(out, capsys, "normalize", "",
                             "line 5: base.csv: year, domain (2010, 'Eco') is repeated")
        assert not (out / "scores.csv").exists()

    @pytest.mark.parametrize("stage", ["compare", "regress"])
    def test_repeated_profile_doc_id(self, tmp_path, capsys, stage):
        write_table(tmp_path / "profiles.csv", PROFILE_HEADER,
                    [["d1", *([2.0] * 12)], ["d2", *([3.0] * 12)], ["d1", *([4.0] * 12)]])
        write_table(tmp_path / "scores.csv", ["doc_id", "nc", "group"],
                    [["d1", 2.0, "High"], ["d2", 1.0, "Low"]])
        assert main([stage, "--out", str(tmp_path)]) == 1
        self.assert_repeated(tmp_path, capsys, stage, "d1",
                             "line 4: profiles.csv: doc_id 'd1' is repeated")


BAD_DOC_IDS = {"tab": "ECO.2009.0001\t", "leading-space": " ECO.2009.0001", "empty": ""}


class TestDocIdsInTables:
    """A doc id that check_doc_id refuses, in a table keyed by doc_id, fails
    the stage as a FormatError naming its line, instead of dropping its
    document from every table."""

    def assert_refused(self, out, capsys, stage, doc_id, where):
        err = read_errors(out)
        assert (err["stage"], err["document"], err["error"]) == (stage, doc_id, "FormatError")
        assert err["message"] == (f"{where}: doc id {doc_id!r} is empty, holds a TAB or "
                                  "a line break, or has white space at an end")
        stderr = capsys.readouterr().err
        assert f"error in {stage} stage" in stderr
        assert "Traceback" not in stderr

    @pytest.mark.parametrize("doc_id", BAD_DOC_IDS.values(), ids=BAD_DOC_IDS)
    def test_in_citations(self, tmp_path, capsys, doc_id):
        table = read_table(MINICORPUS / "citations.csv")
        rows = [row for _, row in table.rows]
        rows[0][0] = doc_id
        citations, out = tmp_path / "citations.csv", tmp_path / "out"
        write_table(citations, table.header, rows)
        assert main(["normalize", "--citations", str(citations), "--out", str(out)]) == 1
        self.assert_refused(out, capsys, "normalize", doc_id, "line 2: citations.csv")
        assert not (out / "scores.csv").exists()
        assert not (out / "baselines.csv").exists()

    @pytest.mark.parametrize("doc_id", BAD_DOC_IDS.values(), ids=BAD_DOC_IDS)
    @pytest.mark.parametrize("table", ["scores.csv", "profiles.csv"])
    def test_in_compare_inputs(self, tmp_path, capsys, table, doc_id):
        profiles = [["d1", *([2.0] * 12)], ["d2", *([3.0] * 12)]]
        scores = [["d1", 2.0, "High"], ["d2", 1.0, "Low"]]
        (profiles if table == "profiles.csv" else scores)[1][0] = doc_id
        write_table(tmp_path / "profiles.csv", PROFILE_HEADER, profiles)
        write_table(tmp_path / "scores.csv", ["doc_id", "nc", "group"], scores)
        assert main(["compare", "--out", str(tmp_path)]) == 1
        self.assert_refused(tmp_path, capsys, "compare", doc_id, f"line 3: {table}")


def test_memory_error_fails_the_stage(tmp_path, capsys, monkeypatch):
    """A MemoryError is reported like any other failure of a stage: exit 1,
    errors.json, no output of the stage left and no traceback."""
    write_table(tmp_path / "profiles.csv", PROFILE_HEADER,
                [["d1", *([2.0] * 12)], ["d2", *([3.0] * 12)], ["d3", *([4.0] * 12)]])
    write_table(tmp_path / "scores.csv", ["doc_id", "nc", "group"],
                [["d1", 2.0, "High"], ["d2", 1.0, "Low"], ["d3", 1.5, "Low"]])

    def out_of_memory(*args, **kwargs):
        raise MemoryError("no room for the draws")

    monkeypatch.setattr(reports, "bootstrap_mean_ci", out_of_memory)
    assert main(["compare", "--out", str(tmp_path)]) == 1
    assert read_errors(tmp_path) == {"stage": "compare", "document": "",
                                     "error": "MemoryError",
                                     "message": "no room for the draws"}
    for name in ("comparison.csv", "cdf.csv", "estimates.csv"):
        assert not (tmp_path / name).exists()
    stderr = capsys.readouterr().err
    assert stderr == "error in compare stage: no room for the draws\n"


class TestWarningsAsErrors:
    """A warning that the warnings filter raises fails its stage like any
    other failure: exit 1 and an errors.json naming the stage and the
    warning's class, with no traceback."""

    def run_main(self, capsys, *argv: str) -> str:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(list(argv)) == 1
        return capsys.readouterr().err

    def test_group_empty_warning_fails_group(self, tmp_path, capsys):
        out = tmp_path / "out"
        stderr = self.run_main(capsys, "run", "--input", CORPUS, "--citations", CITATIONS,
                               "--out", str(out), "--iterations", "50")
        err = read_errors(out)
        assert (err["stage"], err["document"], err["error"]) == (
            "group", "", "GroupEmptyWarning")
        assert "High group empty" in err["message"]
        assert stderr == f"error in group stage: {err['message']}\n"
        assert (out / "profiles.csv").exists() and not (out / "comparison.csv").exists()

    def test_degenerate_response_warning_fails_regress(self, tmp_path, capsys):
        values = np.random.default_rng(3).uniform(1, 9, (40, 12)).tolist()
        write_table(tmp_path / "profiles.csv", PROFILE_HEADER,
                    [[f"d{i:02d}", *row] for i, row in enumerate(values)])
        write_table(tmp_path / "scores.csv", ["doc_id", "nc", "group"],
                    [[f"d{i:02d}", 1.5, "High" if i < 3 else "Low"] for i in range(40)])
        stderr = self.run_main(capsys, "regress", "--out", str(tmp_path))
        assert read_errors(tmp_path) == {
            "stage": "regress", "document": "", "error": "DegenerateResponseWarning",
            "message": "constant response; R-squared reported as 0"}
        assert stderr == "error in regress stage: constant response; R-squared reported as 0\n"
        assert not (tmp_path / "regression.csv").exists()


cell_values = st.one_of(
    st.none(),
    st.floats(allow_nan=False, allow_infinity=False),
)


class TestProfileMatrixRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.lists(cell_values, min_size=12, max_size=12),
                    min_size=1, max_size=8))
    def test_values_and_absent_positions_survive(self, table):
        # matrix -> profiles.csv -> joined matrix, as compare reads it, with
        # a scores.csv (in reverse order) that scores every row by its index
        doc_ids = [f"d{i}" for i in range(len(table))]
        values = np.array(table, dtype=float)
        rows = [[doc_id, *(None if math.isnan(v) else float(v) for v in row)]
                for doc_id, row in zip(doc_ids, values)]
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp)
            write_table(out / "profiles.csv", PROFILE_HEADER, rows)
            write_table(out / "scores.csv", ["doc_id", "nc", "group"],
                        [[doc_id, float(i), "Low"] for i, doc_id in enumerate(doc_ids)][::-1])
            again, nc, codes = _joined_inputs(RunConfig(out=out))
        assert nc.tolist() == list(range(len(table)))  # file row order
        assert codes.tolist() == [2] * len(table)
        assert again.shape == (len(table), 12)
        assert np.array_equal(np.isnan(again), np.isnan(values))
        assert np.array_equal(again, values, equal_nan=True)
        assert all(np.signbit(again[~np.isnan(values)])
                   == np.signbit(values[~np.isnan(values)]))


class TestNormalizeStage:
    def write_citations(self, path, rows):
        write_table(path, ["doc_id", "year", "domain", "total_citations"], rows)

    def test_internal_baselines(self, tmp_path):
        citations = tmp_path / "citations.csv"
        self.write_citations(citations, [["a", 2010, "Eco", 4],
                                         ["b", 2010, "Eco", 8]])
        out = tmp_path / "out"
        assert main(["normalize", "--out", str(out),
                     "--citations", str(citations)]) == 0
        baseline_rows = table_rows(out / "baselines.csv")
        assert baseline_rows == [["2010", "Eco", "6.0", "2"]]
        score_rows = table_rows(out / "scores.csv")
        assert score_rows == [["a", repr(4 / 6), ""], ["b", repr(8 / 6), ""]]

    def test_external_baselines(self, tmp_path):
        citations = tmp_path / "citations.csv"
        self.write_citations(citations, [["a", 2010, "Eco", 4]])
        baselines = tmp_path / "base.csv"
        write_table(baselines, ["year", "domain", "adc", "n"],
                    [[2010, "Eco", 2.0, 5]])
        out = tmp_path / "out"
        assert main(["normalize", "--out", str(out),
                     "--citations", str(citations),
                     "--baselines", str(baselines)]) == 0
        rows = table_rows(out / "scores.csv")
        assert rows == [["a", "2.0", ""]]

    def test_bad_citation_columns(self, tmp_path, capsys):
        citations = tmp_path / "citations.csv"
        write_table(citations, ["doc_id", "count"], [["a", 1]])
        out = tmp_path / "out"
        assert main(["normalize", "--out", str(out),
                     "--citations", str(citations)]) == 1
        err = read_errors(out)
        assert err["stage"] == "normalize"
        assert err["error"] == "DataError"
        capsys.readouterr()

    def test_zero_baseline_nonzero_citations_fails(self, tmp_path, capsys):
        citations = tmp_path / "citations.csv"
        self.write_citations(citations, [["a", 2010, "Eco", 3]])
        baselines = tmp_path / "base.csv"
        write_table(baselines, ["year", "domain", "adc", "n"],
                    [[2010, "Eco", 0.0, 4]])
        out = tmp_path / "out"
        assert main(["normalize", "--out", str(out),
                     "--citations", str(citations),
                     "--baselines", str(baselines)]) == 1
        assert read_errors(out)["error"] == "ZeroBaselineNonzeroCitations"
        assert "zero-mean cell" in capsys.readouterr().err

    @pytest.mark.parametrize("cell_year, adc, error, document", [
        (2010, 0.0, "ZeroBaselineNonzeroCitations", "b"),  # "a" has 0 citations
        (2011, 2.0, "MissingBaseline", "a"),
    ])
    def test_failure_names_document(self, tmp_path, capsys, cell_year, adc, error,
                                    document):
        citations = tmp_path / "citations.csv"
        self.write_citations(citations, [["a", 2010, "Eco", 0], ["b", 2010, "Eco", 3]])
        baselines = tmp_path / "base.csv"
        write_table(baselines, ["year", "domain", "adc", "n"],
                    [[cell_year, "Eco", adc, 2]])
        out = tmp_path / "out"
        assert main(["normalize", "--out", str(out), "--citations", str(citations),
                     "--baselines", str(baselines)]) == 1
        err = read_errors(out)
        assert (err["stage"], err["document"], err["error"]) == \
            ("normalize", document, error)
        assert "error in normalize stage" in capsys.readouterr().err

    @pytest.mark.parametrize("adc, n, message", [
        (-5.5, 4, "adc '-5.5' is negative"),
        (2.0, 0, "n '0' is below 1"),
        (2.0, -7, "n '-7' is below 1"),
    ])
    def test_bad_baseline_value_fails(self, tmp_path, capsys, adc, n, message):
        """A mean of counts is not negative, and a cell holds at least one
        paper; anything else would write a negative or wrong score."""
        citations = tmp_path / "citations.csv"
        self.write_citations(citations, [["a", 2009, "Eco", 3], ["b", 2010, "Eco", 0]])
        baselines = tmp_path / "base.csv"
        write_table(baselines, ["year", "domain", "adc", "n"],
                    [[2009, "Eco", 2.0, 2], [2010, "Eco", adc, n]])
        out = tmp_path / "out"
        assert main(["normalize", "--out", str(out), "--citations", str(citations),
                     "--baselines", str(baselines)]) == 1
        err = read_errors(out)
        assert err == {"stage": "normalize", "document": "", "error": "FormatError",
                       "message": f"line 3: base.csv: {message}"}
        assert not (out / "scores.csv").exists()
        assert "error in normalize stage" in capsys.readouterr().err

    @pytest.mark.parametrize("given", [False, True], ids=["computed", "given"])
    def test_count_too_large_for_a_float(self, tmp_path, capsys, given):
        """A count that no float holds fails as a bad cell of its row, with
        computed and with given baselines."""
        count = "1" + "0" * 400
        citations = tmp_path / "citations.csv"
        self.write_citations(citations, [["a", 2010, "Eco", count]])
        argv = ["normalize", "--out", str(tmp_path / "out"), "--citations", str(citations)]
        if given:
            baselines = tmp_path / "base.csv"
            write_table(baselines, ["year", "domain", "adc", "n"], [[2010, "Eco", 2.0, 1]])
            argv += ["--baselines", str(baselines)]
        assert main(argv) == 1
        assert read_errors(tmp_path / "out") == {
            "stage": "normalize", "document": "a", "error": "FormatError",
            "message": f"line 2: citations.csv: total_citations '{count}' is too "
                       "large for a float"}
        assert "error in normalize stage" in capsys.readouterr().err

    def test_score_too_large_for_a_float(self, tmp_path, capsys):
        """A score of inf would pass normalize and fail the stage after it."""
        citations = tmp_path / "citations.csv"
        self.write_citations(citations, [["a", 2010, "Eco", 100000000000]])
        baselines = tmp_path / "base.csv"
        write_table(baselines, ["year", "domain", "adc", "n"], [[2010, "Eco", 1e-300, 1]])
        out = tmp_path / "out"
        assert main(["normalize", "--out", str(out), "--citations", str(citations),
                     "--baselines", str(baselines)]) == 1
        err = read_errors(out)
        assert (err["stage"], err["document"], err["error"]) == \
            ("normalize", "a", "ScoreOverflow")
        assert not (out / "scores.csv").exists()
        assert "error in normalize stage" in capsys.readouterr().err

    def test_zero_baseline_with_zero_citations_is_a_score(self, tmp_path):
        citations = tmp_path / "citations.csv"
        self.write_citations(citations, [["a", 2010, "Eco", 0]])
        baselines = tmp_path / "base.csv"
        write_table(baselines, ["year", "domain", "adc", "n"], [[2010, "Eco", 0.0, 1]])
        out = tmp_path / "out"
        assert main(["normalize", "--out", str(out), "--citations", str(citations),
                     "--baselines", str(baselines)]) == 0
        assert table_rows(out / "scores.csv") == [["a", "0.0", ""]]

    def test_missing_citations_file(self, tmp_path, capsys):
        missing = tmp_path / "nowhere.csv"
        out = tmp_path / "out"
        assert main(["normalize", "--out", str(out), "--citations", str(missing)]) == 2
        assert capsys.readouterr().err == f"error: path not found: {missing}\n"
        assert not out.exists()

    def test_repeated_doc_id_rejected(self, tmp_path, capsys):
        citations = tmp_path / "citations.csv"
        self.write_citations(citations, [["a", 2010, "Eco", 4], ["b", 2010, "Eco", 8],
                                         ["a", 2010, "Eco", 4]])
        out = tmp_path / "out"
        assert main(["normalize", "--out", str(out),
                     "--citations", str(citations)]) == 1
        err = read_errors(out)
        assert (err["stage"], err["document"], err["error"]) == \
            ("normalize", "a", "FormatError")
        # line 1 is the header, so the second "a" is on line 4
        assert err["message"] == "line 4: citations.csv: doc_id 'a' is repeated"
        assert not (out / "scores.csv").exists()
        assert not (out / "baselines.csv").exists()
        capsys.readouterr()


@pytest.mark.filterwarnings("ignore::lexcite.errors.GroupEmptyWarning")
class TestFullRun:
    def run_full(self, out, seed="0"):
        return main([
            "run",
            "--input", str(MINICORPUS),
            "--citations", str(MINICORPUS / "citations.csv"),
            "--out", str(out),
            "--seed", seed,
            "--iterations", "400",
        ])

    def test_produces_all_stage_files(self, tmp_path):
        out = tmp_path / "out"
        assert self.run_full(out) == 0
        for name in ("corpus.jsonl", "rejects.csv", "profiles.csv",
                     "baselines.csv", "scores.csv", "comparison.csv",
                     "cdf.csv", "estimates.csv", "regression.csv"):
            assert (out / name).exists(), name
        assert not (out / "errors.json").exists()
        profile_rows = table_rows(out / "profiles.csv")
        assert len(profile_rows) == 30
        assert len(list((out / "tagged").glob("*.tsv"))) == 30

    def test_group_sizes_and_report_shapes(self, tmp_path):
        out = tmp_path / "out"
        assert self.run_full(out) == 0
        scores = table_rows(out / "scores.csv")
        groups = [r[2] for r in scores]
        assert groups.count("High") == 0
        assert groups.count("Medium") == 3
        assert groups.count("Low") == 27
        comparison = table_rows(out / "comparison.csv")
        assert len(comparison) == 36
        statuses = [r[8] for r in comparison]
        assert statuses.count("GroupEmpty") == 24  # every pair touching High
        assert statuses.count("Ok") == 12
        regression = table_rows(out / "regression.csv")
        assert len(regression) == 24
        estimates = table_rows(out / "estimates.csv")
        assert len(estimates) == 36

    def test_metadata_headers_present(self, tmp_path):
        out = tmp_path / "out"
        assert self.run_full(out, seed="3") == 0
        meta = read_table(out / "comparison.csv").metadata
        assert meta["tool"] == "lexcite"
        assert meta["seed"] == "3"
        assert meta["iterations"] == "400"
        for key in DECISION_FLAGS:
            assert key in meta

    def test_rerun_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "one", tmp_path / "two"
        assert self.run_full(out1) == 0
        assert self.run_full(out2) == 0
        files1 = sorted(p.relative_to(out1) for p in out1.rglob("*")
                        if p.is_file())
        files2 = sorted(p.relative_to(out2) for p in out2.rglob("*")
                        if p.is_file())
        assert files1 == files2
        for rel in files1:
            assert (out1 / rel).read_bytes() == (out2 / rel).read_bytes(), rel

    def test_seed_changes_estimates_only(self, tmp_path):
        out1, out2 = tmp_path / "one", tmp_path / "two"
        assert self.run_full(out1, seed="0") == 0
        assert self.run_full(out2, seed="1") == 0
        assert (out1 / "estimates.csv").read_bytes() != \
            (out2 / "estimates.csv").read_bytes()
        # seed feeds only the bootstrap; the KS table differs solely in
        # its recorded seed metadata
        rows1 = table_rows(out1 / "comparison.csv")
        rows2 = table_rows(out2 / "comparison.csv")
        assert rows1 == rows2

    def test_stagewise_equals_run(self, tmp_path):
        full, staged = tmp_path / "full", tmp_path / "staged"
        assert self.run_full(full) == 0
        common = ["--input", str(MINICORPUS),
                  "--citations", str(MINICORPUS / "citations.csv"),
                  "--out", str(staged), "--iterations", "400"]
        for stage in ("ingest", "tag", "profile", "normalize", "group",
                      "compare", "regress"):
            assert main([stage, *common]) == 0
        for name in ("profiles.csv", "scores.csv", "comparison.csv",
                     "estimates.csv", "regression.csv"):
            assert (full / name).read_bytes() == (staged / name).read_bytes()


# sha256 of the outputs of `lexcite run` on the bundled corpus with every
# default; "tagged/" is one digest over the sorted "name TAB sha256" lines of
# its files. regression.csv is not pinned: its least squares depend on the
# BLAS kernel. The other outputs come from text rules, sorts, divisions and
# the seeded bootstrap, so their bytes can be pinned.
MINICORPUS_SHA256 = {
    "corpus.jsonl": "5ebed8b330592fd23d917d8af3c84dfdcb3c2ca797335e9b5bbb9a4f8f5aa7d7",
    "tagged/": "1a881624c4adaeaf4ef9d3b845931e6ab9cb4ceca009ae28606bec9a3b80fffd",
    "profiles.csv": "3fd129fc43348e5b8ebfcf5b116a578359097f44947ef137683c2aafc5f80abb",
    "comparison.csv": "535b6df5d1f86f6ff8144f0202598bf1c203fabcf9c9e41888765b33f70481dd",
    "cdf.csv": "952117a4e7dfbf84f345aba243b6e42ca6ff0088236737ce2661791b604fd18e",
    "estimates.csv": "91fd59594e1ecf5827be6888eab7fe4113e117824745768b6029db0002974164",
    "rejects.csv": "70679742e9581d467b03df54642c320a5c97cab4ff9c84d77661752baeb86223",
    "baselines.csv": "eefe628d7b5b48e73313fd6ab9c2088592397155e6e1980a9157c7119e6f486f",
    "scores.csv": "6fc76548a5af55993b50d27499ee607f5ac6f3bda9cf7fa01e61de5847c5c4e6",
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.filterwarnings("ignore::lexcite.errors.GroupEmptyWarning")
def test_minicorpus_cdf_bytes_pinned(tmp_path):
    assert main(["run", "--input", str(MINICORPUS), "--citations",
                 str(MINICORPUS / "citations.csv"), "--out", str(tmp_path)]) == 0
    listing = "".join(f"{p.name}\t{_sha256(p.read_bytes())}\n"
                      for p in sorted((tmp_path / "tagged").iterdir()))
    got = {name: _sha256(listing.encode("utf-8") if name == "tagged/"
                         else (tmp_path / name).read_bytes())
           for name in MINICORPUS_SHA256}
    assert got == MINICORPUS_SHA256


def run_in_dev_mode(*argv: str) -> subprocess.CompletedProcess:
    """Run lexcite in a subprocess under dev mode, which shows every
    ResourceWarning, and -W error, which turns each warning but
    GroupEmptyWarning into an error, or into an "Exception ignored" line
    when it is raised in a finalizer. So a file that any stage leaves
    unclosed shows in stderr."""
    env = dict(os.environ,
               PYTHONPATH=str(Path(lexcite.__file__).resolve().parents[1]))
    return subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error",
         "-W", "ignore::lexcite.errors.GroupEmptyWarning", "-m", "lexcite.cli", *argv],
        env=env, capture_output=True, text=True, timeout=300)


def test_run_in_dev_mode_warns_nothing(tmp_path):
    result = run_in_dev_mode(
        "run", "--input", str(MINICORPUS), "--citations", str(MINICORPUS / "citations.csv"),
        "--out", str(tmp_path / "out"), "--iterations", "50")
    assert (result.returncode, result.stderr) == (0, "")


def test_failed_tag_in_dev_mode_warns_nothing(tmp_path):
    """A bad corpus line abandons the reader of corpus.jsonl mid-file; its
    file is closed all the same, so stderr holds only the failure."""
    out = tmp_path / "out"
    corpus_with_bad_line_6(out, b'{"doc_id": "x"}')
    result = run_in_dev_mode("tag", "--out", str(out))
    assert result.returncode == 1
    assert len(result.stderr.splitlines()) == 1
    assert result.stderr.startswith("error in tag stage: line 6: corpus.jsonl: ")


# ------------------------------------------------------- mutated inputs

def _fuzz_stage(name: str, root: Path, out: Path) -> tuple[Path, list[str]]:
    """Write one valid input of one stage (inputs of later stages go into
    out, where the stage reads them) and return its path and the argv that
    runs the stage into out."""
    out.mkdir()
    if name == "article":
        (root / "a.xml").write_text(ARTICLE.format(doc_id="10.1/a"), encoding="utf-8")
        return root / "a.xml", ["ingest", "--input", str(root)]
    if name == "citations":
        path = root / "citations.csv"
        path.write_text("doc_id,year,domain,total_citations\r\n"
                        "a,2010,Eco,3\r\nb,2010,Eco,0\r\nc,2011,Gen,7\r\n",
                        encoding="utf-8")
        return path, ["normalize", "--citations", str(path)]
    if name == "corpus":
        path = out / "corpus.jsonl"
        path.write_text('{"doc_id": "a", "year": 2010, "domain": "x", "journal": "", "paragraphs": '
                        '["The cats sleep. The cat sat quietly because it was tired."]}\n',
                        encoding="utf-8")
        return path, ["tag"]
    if name == "tagged":
        path = out / "tagged" / "a.tsv"
        path.parent.mkdir()
        path.write_text("#doc=a\n#clauses=2\nThe\tDT\nold\tJJ\ncat\tNN\n"
                        "sat\tVBD\nquietly\tRB\n.\t.\n\n", encoding="utf-8")
        return path, ["profile"]
    rng = np.random.default_rng(0)
    doc_ids = [f"d{i:02d}" for i in range(12)]
    write_table(out / "scores.csv", ["doc_id", "nc", "group"],
                [[d, float(rng.lognormal(0, 1)), "Medium" if i < 3 else "Low"]
                 for i, d in enumerate(doc_ids)])
    if name == "scores":
        return out / "scores.csv", ["group"]
    write_table(out / "profiles.csv", PROFILE_HEADER,
                [[d, *rng.uniform(1, 9, 12)] for d in doc_ids])
    return out / "profiles.csv", ["compare", "--iterations", "20"]


def _mutate(data: bytes, edits: list[tuple[str, int, int]]) -> bytes:
    buf = bytearray(data)
    for kind, position, byte in edits:
        if kind == "insert":
            buf.insert(position % (len(buf) + 1), byte)
        elif buf and kind == "replace":
            buf[position % len(buf)] = byte
        elif buf:
            del buf[position % len(buf)]
    return bytes(buf)


@pytest.mark.filterwarnings("ignore")
@pytest.mark.parametrize("name", ["article", "citations", "corpus", "tagged",
                                  "scores", "profiles"])
@settings(max_examples=50, deadline=None)
@given(edits=st.lists(st.tuples(st.sampled_from(["insert", "replace", "delete"]),
                                st.integers(0, 4095),
                                # printable ASCII half the time, so that more
                                # mutants decode and reach the parsers
                                st.one_of(st.integers(0x20, 0x7E), st.integers(0, 255))),
                      min_size=1, max_size=8))
def test_mutated_input_follows_error_contract(name, edits):
    """A stage fed a byte-mutated input never raises: main returns 0, or 1
    with an errors.json."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        path, argv = _fuzz_stage(name, Path(tmp), out)
        path.write_bytes(_mutate(path.read_bytes(), edits))
        code = main([*argv, "--out", str(out)])
        assert code in (0, 1)
        assert (out / "errors.json").exists() == (code == 1)
