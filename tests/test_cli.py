"""CLI configuration, stage gating, end-to-end runs, and error reporting."""

import json
import os
from importlib.resources import files
from pathlib import Path

import pytest

from lexcite.cli import (
    DECISION_FLAGS,
    RunConfig,
    build_config,
    build_parser,
    main,
)
from lexcite.errors import ConfigError
from lexcite.ingest import AbbreviationTable
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


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    for key in list(os.environ):
        if key.startswith("LEXCITE_"):
            monkeypatch.delenv(key)


def parse(argv):
    return build_parser().parse_args(argv)


def read_errors(out: Path) -> dict:
    return json.loads((out / "errors.json").read_text(encoding="utf-8"))


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


class TestStageGating:
    def test_profile_without_tagged_dir(self, tmp_path, capsys):
        code = main(["profile", "--out", str(tmp_path)])
        assert code == 1
        err = read_errors(tmp_path)
        assert err["stage"] == "profile"
        assert "tagged" in err["message"]
        assert "error in profile stage" in capsys.readouterr().err

    def test_tag_without_corpus(self, tmp_path, capsys):
        code = main(["tag", "--out", str(tmp_path)])
        assert code == 1
        assert read_errors(tmp_path)["stage"] == "tag"
        assert "error in tag stage" in capsys.readouterr().err

    def test_normalize_without_citations_flag(self, tmp_path, capsys):
        code = main(["normalize", "--out", str(tmp_path)])
        assert code == 1
        err = read_errors(tmp_path)
        assert err["stage"] == "normalize"
        assert "--citations" in err["message"]
        assert "error in normalize stage" in capsys.readouterr().err

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

    def test_regress_fit_error_names_stage(self, tmp_path):
        # every profile has an Absent x8, so no row is left to fit
        write_table(tmp_path / "profiles.csv",
                    ["doc_id", *[f"x{i}" for i in range(1, 13)]],
                    [[f"d{i}", *([float(i)] * 7), None, *([1.0 + i] * 4)]
                     for i in range(5)])
        write_table(tmp_path / "scores.csv", ["doc_id", "nc", "group"],
                    [[f"d{i}", 1.0 + i, "Low"] for i in range(5)])
        assert main(["regress", "--out", str(tmp_path)]) == 1
        err = read_errors(tmp_path)
        assert (err["stage"], err["error"]) == ("regress", "NoRowsRemaining")

    def test_missing_out_is_usage_error(self, capsys):
        assert main(["run"]) == 2
        assert "output directory" in capsys.readouterr().err

    def test_unknown_env_is_usage_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("LEXCITE_TYPO", "x")
        assert main(["profile", "--out", str(tmp_path)]) == 2
        assert "LEXCITE_TYPO" in capsys.readouterr().err


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
        _, _, rows = read_table(out / "rejects.csv")
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
        out = tmp_path / "out"
        assert main(["ingest", "--input", str(src), "--out", str(out)]) == 1
        assert read_errors(out)["stage"] == "ingest"
        assert "error in ingest stage" in capsys.readouterr().err

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
        _, header, rows = read_table(out / "profiles.csv")
        assert header[0] == "doc_id"
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
        _, _, baseline_rows = read_table(out / "baselines.csv")
        assert baseline_rows == [["2010", "Eco", "6.0", "2"]]
        _, _, score_rows = read_table(out / "scores.csv")
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
        _, _, rows = read_table(out / "scores.csv")
        assert rows == [["a", "2.0", ""]]

    def test_bad_citation_columns(self, tmp_path, capsys):
        citations = tmp_path / "citations.csv"
        write_table(citations, ["doc_id", "count"], [["a", 1]])
        out = tmp_path / "out"
        assert main(["normalize", "--out", str(out),
                     "--citations", str(citations)]) == 1
        err = read_errors(out)
        assert err["stage"] == "normalize"
        assert err["error"] == "ConfigError"
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
        _, _, profile_rows = read_table(out / "profiles.csv")
        assert len(profile_rows) == 30
        assert len(list((out / "tagged").glob("*.tsv"))) == 30

    def test_group_sizes_and_report_shapes(self, tmp_path):
        out = tmp_path / "out"
        assert self.run_full(out) == 0
        _, _, scores = read_table(out / "scores.csv")
        groups = [r[2] for r in scores]
        assert groups.count("High") == 0
        assert groups.count("Medium") == 3
        assert groups.count("Low") == 27
        _, _, comparison = read_table(out / "comparison.csv")
        assert len(comparison) == 36
        statuses = [r[8] for r in comparison]
        assert statuses.count("GroupEmpty") == 24  # every pair touching High
        assert statuses.count("Ok") == 12
        _, _, regression = read_table(out / "regression.csv")
        assert len(regression) == 24
        _, _, estimates = read_table(out / "estimates.csv")
        assert len(estimates) == 36

    def test_metadata_headers_present(self, tmp_path):
        out = tmp_path / "out"
        assert self.run_full(out, seed="3") == 0
        meta, _, _ = read_table(out / "comparison.csv")
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
        _, _, rows1 = read_table(out1 / "comparison.csv")
        _, _, rows2 = read_table(out2 / "comparison.csv")
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
