"""File-based pipeline CLI.

Stages hand off through files in the output directory so any stage can be
replaced externally (for example, splicing in a different tagger's output
at the tag stage):

    ingest     article XML dir            -> corpus.jsonl, rejects.csv
    tag        corpus.jsonl               -> tagged/<doc>.tsv
    profile    tagged/*.tsv               -> profiles.csv
    normalize  citations.csv [baselines]  -> baselines.csv, scores.csv
    group      scores.csv                 -> scores.csv (groups filled)
    compare    profiles + grouped scores  -> comparison.csv, cdf.csv, estimates.csv
    regress    profiles + grouped scores  -> regression.csv
    run        all of the above in order

Option precedence is flags > LEXCITE_* environment variables > defaults;
an unrecognized LEXCITE_* variable is an error rather than a silent no-op.
Outputs carry no timestamps and all randomness flows from the recorded
seed, so a rerun with identical inputs is byte-identical.

A configuration mistake (an empty path among them), or an --out that
cannot be created, prints one error line and exits 2. Otherwise main
removes any errors.json an earlier invocation left, then runs the stages in
turn, and any failure of errors.STAGE_FAILURES (a LexciteError, an OSError
or a MemoryError) that a stage raises ends the run with exit 1 and an
errors.json written by main, the one place that knows which stage is
running. Stages raise plain errors, wrapped in DocumentError where they
know the input document: a failure to read a file names the file, and a
failure after reading names the document's id.

Outputs depend only on the inputs, not on what --out held before. main
removes the files a stage owns before the stage runs, and again if it fails
(in a run, also those of every later stage), but never a file the
invocation was given to read. So no stage reads an output of an earlier
invocation. group owns nothing, because scores.csv is also its input.

Each of these rules is declared once: _OPTIONS holds every option with its
converter and help, _STAGE_FUNCS the stages in order, and _STAGE_OUTPUTS
what each stage owns.

Only compare and regress compute with arrays: each joins every
profiles.csv row to its score as it reads it, and keeps only the scored
rows (`reports.join_scores`). Every function that uses
numpy imports it itself, so importing this module and running any other
stage never loads numpy, and a one-stage process does not pay for it. In
the same way only ingest loads the XML parser. Every text input is read
through tableio, under one rule for its encoding and line ends.

tag and profile each map one function per document (make or read it,
then write or profile it) with `parallel.run_on_two_processes`, under the
rule and contract stated there. They loop over its values as it yields
them and close it before a failure of their own loop leaves the stage, so
that its child has ended before main removes the stage's files. compare
maps its bootstrap cells with the same map (`reports.build_estimate_rows`)
after it has loaded numpy, whose OpenBLAS joins its threads before a fork;
lexcite itself starts no thread.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import sys
from contextlib import closing
from pathlib import Path
from typing import TYPE_CHECKING, Iterator, NamedTuple

from . import __version__
from .errors import STAGE_FAILURES, ConfigError, FormatError, LexciteError, MissingMetadata
from .impact import (
    Baseline,
    CitationRecord,
    ImpactGroup,
    NormalizedScore,
    baseline_map,
    compute_baselines,
    normalize_citations,
    stratify,
)
from .ingest import (
    AbbreviationTable,
    RawDocument,
    normalize_abbreviations,
    parse_jats,
    read_corpus,
    usable_doc_id,
    write_corpus,
)
from .metrics import (
    ComplexityProfile,
    VARIABLE_COLUMNS,
    complexity_profile,
    profile_cells,
)
from .parallel import run_on_two_processes
from .reports import (
    CDF_HEADER,
    COMPARISON_HEADER,
    ESTIMATES_HEADER,
    REGRESSION_HEADER,
    build_cdf_rows,
    build_comparison_rows,
    build_estimate_rows,
    build_regression_rows,
    join_scores,
)
from .tableio import parse_finite, read_table, readable_name, write_table
from .tagging import (
    LexiconTagger,
    TaggedDocument,
    export_tagged,
    read_tagged,
    tag_document,
)

if TYPE_CHECKING:
    import numpy as np

# Every option a flag or a LEXCITE_<NAME> variable can set: the type that
# converts its text, and the flag's help. build_parser adds one flag per
# entry; RunConfig gives the defaults.
_OPTIONS = {
    "input": (Path, "directory of article XML files"),
    "citations": (Path, "citations CSV (doc_id, year, domain, total_citations)"),
    "baselines": (Path, "externally computed baselines CSV (year, domain, adc, n)"),
    "out": (Path, "output directory for all stage files"),
    "seed": (int, "root random seed"),
    "iterations": (int, "bootstrap iterations"),
    "level": (float, "confidence level"),
    "abbrev": (Path, "abbreviation table TSV (key, expansion)"),
    "import_tagged": (Path, "directory of externally tagged .tsv files to use "
                            "instead of the built-in tagger"),
}
_ENV_PREFIX = "LEXCITE_"
_ENV_KEYS = {_ENV_PREFIX + option.upper(): option for option in _OPTIONS}

# Conventions recorded in every output header so alternate readings of the
# ambiguous definitions can be distinguished downstream.
DECISION_FLAGS = {
    "sd_denominator": "n-1",
    "ttr_case": "lower",
    "ttr_stopwords": "none",
    "word_length": "alpha_chars",
    "absent_policy": "exclude_row",
    "nc_zero_policy": "zero_when_tc_zero",
    "log_zero_policy": "drop_and_count",
    "stratify_rule": "floor_1_10_percent",
    "ks_p": "asymptotic_series",
    "bootstrap_ci": "percentile_nearest_rank",
    "standardize": "zscore_before_expansion",
}


class RunConfig(NamedTuple):
    """Resolved options for one invocation."""

    out: Path
    input: Path | None = None
    citations: Path | None = None
    baselines: Path | None = None
    abbrev: Path | None = None
    import_tagged: Path | None = None
    seed: int = 0
    iterations: int = 10_000
    level: float = 0.95

    def config_hash(self) -> str:
        """Hash of the analysis parameters (paths excluded: outputs depend
        on file contents, which the stage files already capture)."""
        payload = json.dumps(
            {"seed": self.seed, "iterations": self.iterations,
             "level": self.level, "version": __version__},
            sort_keys=True,
        )
        return hashlib.sha256(payload.encode()).hexdigest()[:16]

    def metadata(self) -> dict[str, str]:
        meta = {
            "tool": "lexcite",
            "version": __version__,
            "seed": str(self.seed),
            "iterations": str(self.iterations),
            "level": repr(self.level),
            "config_hash": self.config_hash(),
        }
        meta.update(DECISION_FLAGS)
        return meta


class DocumentError(LexciteError):
    """Wraps an error with the input document it occurred in."""

    def __init__(self, document: str, cause: Exception):
        super().__init__(f"{document}: {cause}")
        self.document = document
        self.cause = cause


def _env_overrides(environ: dict[str, str]) -> dict[str, str]:
    overrides: dict[str, str] = {}
    for key, value in environ.items():
        if not key.startswith(_ENV_PREFIX):
            continue
        if key not in _ENV_KEYS:
            raise ConfigError(f"unknown environment variable {key}")
        overrides[_ENV_KEYS[key]] = value
    return overrides


def build_config(args: argparse.Namespace,
                 environ: dict[str, str] | None = None) -> RunConfig:
    """Merge CLI flags over environment variables over defaults. A flag and
    a variable are converted alike; an empty path is an error, never the
    current directory."""
    env = _env_overrides(dict(os.environ) if environ is None else environ)
    merged: dict[str, object] = {}
    for option, (convert, _) in _OPTIONS.items():
        text = getattr(args, option, None)
        source = _flag(option)
        if text is None and option in env:
            text, source = env[option], _ENV_PREFIX + option.upper()
        if text is None:
            continue
        if convert is Path and text == "":
            raise ConfigError(f"{source} is an empty path")
        try:
            merged[option] = convert(text)
        except ValueError as exc:
            raise ConfigError(f"bad value for {source}: {text!r}") from exc
    if "out" not in merged:
        raise ConfigError("an output directory is required (--out or LEXCITE_OUT)")
    config = RunConfig(**merged)
    if config.iterations < 1:
        raise ConfigError("iterations must be >= 1")
    if not 0.0 < config.level < 1.0:
        raise ConfigError("level must be strictly between 0 and 1")
    return config


def _flag(option: str) -> str:
    return "--" + option.replace("_", "-")


def _safe_name(doc_id: str) -> str:
    return re.sub(r"[^A-Za-z0-9._-]", "_", doc_id)


def _require(config: RunConfig, option: str) -> Path:
    value: Path | None = getattr(config, option)
    if value is None:
        raise ConfigError(f"{_flag(option)} is required")
    if not value.exists():
        raise ConfigError(f"path not found: {value}")
    return value


def _stage_file(config: RunConfig, name: str) -> Path:
    path = config.out / name
    if not path.exists():
        raise ConfigError(f"missing {name}; run the earlier stages into {config.out} first")
    return path


def _tsv_files(directory: Path) -> list[Path]:
    """The .tsv files of directory, sorted; none is a ConfigError."""
    files = sorted(directory.glob("*.tsv"))
    if not files:
        raise ConfigError(f"no .tsv files in {directory}")
    return files


def _read_tagged(path: Path) -> TaggedDocument:
    """The document in a tagged file; a failure to read it names the file."""
    try:
        return read_tagged(path)
    except (LexciteError, OSError) as exc:
        raise DocumentError(readable_name(path.name), exc)


# ---------------------------------------------------------------- stages

def stage_ingest(config: RunConfig) -> None:
    """Parse, rewrite and write one article at a time, in file-name order,
    keeping only the reject rows and the ids written. A file that cannot be
    read fails the stage, naming the file; one that cannot be parsed is a
    reject. rejects.csv is written however the stage ends, with the rejects
    read until then."""
    input_dir = _require(config, "input")
    if config.abbrev is None:
        table = AbbreviationTable()
    else:
        table = AbbreviationTable.from_file(_require(config, "abbrev"))
    xml_files = sorted(input_dir.glob("*.xml"))
    if not xml_files:
        raise ConfigError(f"no .xml files in {input_dir}")
    rejects: list[list[object]] = []
    doc_id = ""  # parsed last; write_corpus refuses it at once if it repeats

    def accepted() -> Iterator[RawDocument]:
        nonlocal doc_id
        for path in xml_files:
            try:
                data = path.read_bytes()
            except OSError as exc:  # a failure, not a reject
                raise DocumentError(readable_name(path.name), exc)
            try:
                doc = parse_jats(data)
                doc_id = doc.doc_id
                yield doc._replace(paragraphs=[normalize_abbreviations(p, table)
                                               for p in doc.paragraphs])
            except LexciteError as exc:
                rejects.append([readable_name(path.name), type(exc).__name__, str(exc)])

    try:
        written = write_corpus(accepted(), config.out / "corpus.jsonl")
    except MissingMetadata as exc:  # doc_id repeats
        raise DocumentError(doc_id, exc)
    finally:
        write_table(config.out / "rejects.csv", ["file", "error", "message"],
                    rejects, config.metadata())
    if not written:
        raise DocumentError(readable_name(xml_files[0].name),
                            ConfigError("every input file was rejected"))


def stage_tag(config: RunConfig) -> None:
    """Write tagged/<doc>.tsv per document through one map of one function:
    make the document (tag a corpus.jsonl record, or `_read_tagged` an
    --import-tagged file), then write it. Two documents whose ids give one
    file name fail the stage at the second, once it is written; a failure to
    write it is the error reported. main has removed every earlier .tsv but
    those being imported, so tagged/ itself cannot be the import directory:
    profile would read both the imported files and their copies. That is a
    ConfigError, raised before anything is written."""
    tagged_dir = config.out / "tagged"
    if config.import_tagged is None:
        corpus = _stage_file(config, "corpus.jsonl")
        items = lambda: read_corpus(corpus)
        tagger = LexiconTagger()

        def document(raw: RawDocument) -> TaggedDocument:
            try:
                return tag_document(raw, tagger)
            except LexciteError as exc:
                raise DocumentError(raw.doc_id, exc)
    else:
        import_dir = _require(config, "import_tagged")
        if tagged_dir.is_dir() and os.path.samefile(import_dir, tagged_dir):
            raise ConfigError(f"--import-tagged {import_dir} is the tagged/ directory "
                              "of --out, which this stage rewrites")
        files = _tsv_files(import_dir)
        items, document = (lambda: files), _read_tagged
    tagged_dir.mkdir(parents=True, exist_ok=True)

    def write(item: RawDocument | Path) -> tuple[str, str]:
        doc = document(item)
        name = _safe_name(doc.doc_id) + ".tsv"
        try:
            (tagged_dir / name).write_bytes(export_tagged(doc).encode("utf-8"))
        except OSError as exc:
            raise DocumentError(doc.doc_id, exc)
        return name, doc.doc_id

    first_ids: dict[str, str] = {}
    with closing(run_on_two_processes(items, write)) as written:
        for name, doc_id in written:
            if name in first_ids:
                raise DocumentError(doc_id, ConfigError(
                    f"doc ids {first_ids[name]!r} and {doc_id!r} collide on file {name}"))
            first_ids[name] = doc_id


def stage_profile(config: RunConfig) -> None:
    """profiles.csv, from one map that reads and profiles each tagged/*.tsv."""
    tagged_dir = config.out / "tagged"
    if not tagged_dir.is_dir():
        raise ConfigError(f"missing tagged/; run the tag stage into {config.out} first")
    files = _tsv_files(tagged_dir)

    def profile_one(path: Path) -> tuple[str, ComplexityProfile]:
        doc = _read_tagged(path)
        try:
            return path.name, complexity_profile(doc)
        except LexciteError as exc:
            raise DocumentError(doc.doc_id, exc)

    named: dict[str, tuple[str, ComplexityProfile]] = {}
    with closing(run_on_two_processes(lambda: files, profile_one)) as profiles:
        for name, profile in profiles:
            if profile.doc_id in named:
                raise DocumentError(profile.doc_id, ConfigError(
                    f"files {named[profile.doc_id][0]} and {name} name one document"))
            named[profile.doc_id] = name, profile
    write_table(config.out / "profiles.csv", ["doc_id", *VARIABLE_COLUMNS],
                (named[doc_id][1] for doc_id in sorted(named)), config.metadata())


def _read_rows(path: Path, header: list[str], parse, key) -> Iterator:
    """Yield the data rows of an input table, each through parse, as they
    are read. A malformed table or a header other than `header` fails the
    stage. So does a cell that parse rejects with ValueError, a doc_id in
    the first column that `usable_doc_id` refuses, or a row whose key (a
    tuple of its parsed leading columns, from key) repeats an earlier row's:
    each as a FormatError naming its line and, in a table keyed by doc_id,
    its document."""
    table = read_table(path)
    if table.header != header:
        raise ConfigError(f"{readable_name(path.name)} columns {table.header} != {header}")
    seen: set[tuple] = set()
    for line, row in table.rows:
        try:
            if header[0] == "doc_id" and not usable_doc_id(row[0]):
                raise ValueError(f"doc_id {row[0]!r} is no doc id (empty, a TAB or a "
                                 "line break, or white space at an end)")
            value = parse(row)
            row_key = key(value)
            if row_key in seen:
                shown = row_key[0] if len(row_key) == 1 else row_key
                raise ValueError(f"{', '.join(header[:len(row_key)])} {shown!r} is repeated")
        except ValueError as exc:
            document = row[0] if header[0] == "doc_id" else ""
            raise DocumentError(document, FormatError(
                line, f"{readable_name(path.name)}: {exc}")) from None
        seen.add(row_key)
        yield value


def _citation(row: list[str]) -> CitationRecord:
    """A citations.csv row. Its count must convert to a float, which keeps
    every mean of counts finite."""
    record = CitationRecord(doc_id=row[0], year=int(row[1]), domain=row[2],
                            total_citations=int(row[3]))
    try:
        float(record.total_citations)
    except OverflowError:
        raise ValueError(f"total_citations {row[3]!r} is too large for a float") from None
    return record


def _baseline(row: list[str]) -> Baseline:
    baseline = Baseline(year=int(row[0]), domain=row[1], adc=parse_finite(row[2]),
                        n=int(row[3]))
    if baseline.adc < 0:
        raise ValueError(f"adc {row[2]!r} is negative")
    if baseline.n < 1:
        raise ValueError(f"n {row[3]!r} is below 1")
    return baseline


def _score(row: list[str]) -> NormalizedScore:
    score = NormalizedScore(doc_id=row[0], nc=parse_finite(row[1]),
                            group=ImpactGroup(row[2]) if row[2] else None)
    if score.nc < 0:
        raise ValueError(f"nc {row[1]!r} is negative")
    return score


def stage_normalize(config: RunConfig) -> None:
    records = list(_read_rows(_require(config, "citations"),
                              ["doc_id", "year", "domain", "total_citations"], _citation,
                              lambda rec: (rec.doc_id,)))
    if config.baselines is not None:
        baselines = list(_read_rows(_require(config, "baselines"),
                                    ["year", "domain", "adc", "n"], _baseline,
                                    lambda b: (b.year, b.domain)))
    else:
        baselines = compute_baselines(records)
    lookup = baseline_map(baselines)
    scores = []
    for rec in records:
        try:
            scores.append(normalize_citations(rec, lookup))
        except LexciteError as exc:
            raise DocumentError(rec.doc_id, exc)
    write_table(config.out / "baselines.csv", ["year", "domain", "adc", "n"],
                ([b.year, b.domain, b.adc, b.n] for b in baselines),
                config.metadata())
    _write_scores(config, scores)


def _write_scores(config: RunConfig, scores: list[NormalizedScore]) -> None:
    rows = ([s.doc_id, s.nc, "" if s.group is None else s.group.value]
            for s in scores)
    write_table(config.out / "scores.csv", ["doc_id", "nc", "group"],
                rows, config.metadata())


def _read_scores(config: RunConfig) -> list[NormalizedScore]:
    return list(_read_rows(_stage_file(config, "scores.csv"),
                           ["doc_id", "nc", "group"], _score, lambda s: (s.doc_id,)))


def stage_group(config: RunConfig) -> None:
    scores = _read_scores(config)
    _write_scores(config, stratify(scores))


def _grouped_scores(config: RunConfig) -> list[NormalizedScore]:
    scores = _read_scores(config)
    if scores and all(s.group is None for s in scores):
        raise ConfigError("scores.csv has no groups; run the group stage first")
    return scores


def _joined_inputs(config: RunConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The profiles joined to the grouped scores: values, nc and group
    codes of the profile rows that have a score (`join_scores`). A missing
    profiles.csv fails first; then scores.csv is read whole, and then each
    profiles.csv row is joined as it is read."""
    profiles = _read_rows(_stage_file(config, "profiles.csv"), ["doc_id", *VARIABLE_COLUMNS],
                          lambda row: (row[0], profile_cells(row)), lambda parsed: parsed[:1])
    return join_scores(profiles, _grouped_scores(config))


def stage_compare(config: RunConfig) -> None:
    values, _, codes = _joined_inputs(config)
    meta = config.metadata()
    write_table(config.out / "comparison.csv", COMPARISON_HEADER,
                build_comparison_rows(values, codes), meta)
    write_table(config.out / "cdf.csv", CDF_HEADER,
                build_cdf_rows(values, codes), meta)
    write_table(config.out / "estimates.csv", ESTIMATES_HEADER,
                build_estimate_rows(values, codes, config.iterations,
                                    config.level, config.seed), meta)


def stage_regress(config: RunConfig) -> None:
    rows = build_regression_rows(*_joined_inputs(config))
    write_table(config.out / "regression.csv", REGRESSION_HEADER, rows,
                config.metadata())


_STAGE_FUNCS = {
    "ingest": stage_ingest,
    "tag": stage_tag,
    "profile": stage_profile,
    "normalize": stage_normalize,
    "group": stage_group,
    "compare": stage_compare,
    "regress": stage_regress,
}
STAGE_ORDER = tuple(_STAGE_FUNCS)

# What each stage owns in --out, as globs: main removes these before the
# stage runs and again if it fails, so that no stage reads what an earlier
# invocation wrote. group is left out, because scores.csv is also its
# input. rejects.csv is left out, because ingest writes it even when it
# fails, and errors.json is main's own.
_STAGE_OUTPUTS = {
    "ingest": ("corpus.jsonl",),
    "tag": ("tagged/*.tsv",),
    "profile": ("profiles.csv",),
    "normalize": ("baselines.csv", "scores.csv"),
    "compare": ("comparison.csv", "cdf.csv", "estimates.csv"),
    "regress": ("regression.csv",),
}


def _given_input(config: RunConfig, path: Path) -> bool:
    """Whether path is a file the invocation was given to read: an option's
    file, or a .tsv of --import-tagged."""
    pairs = [(path, config.citations), (path, config.baselines), (path, config.abbrev)]
    if path.suffix == ".tsv":
        pairs.append((path.parent, config.import_tagged))
    return any(given is not None and given.exists() and os.path.samefile(own, given)
               for own, given in pairs)


def _remove_outputs(config: RunConfig, stages: tuple[str, ...]) -> None:
    """Remove the files the stages write, except any file the invocation was
    given to read, as far as the file system lets it (a directory in an
    output's place stays)."""
    for stage in stages:
        for pattern in _STAGE_OUTPUTS.get(stage, ()):
            for path in config.out.glob(pattern):
                if _given_input(config, path):
                    continue
                try:
                    path.unlink()
                except OSError:
                    pass


# ------------------------------------------------------------------ main

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lexcite",
        description="Linguistic-complexity and citation-impact analysis pipeline.",
    )
    parser.add_argument("--version", action="version", version=f"lexcite {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in (*STAGE_ORDER, "run"):
        stage_parser = sub.add_parser(name, help=f"run the {name} stage"
                                      if name != "run" else "run all stages")
        # Values stay text here: build_config converts flags and LEXCITE_*
        # variables alike.
        for option, (_, help_text) in _OPTIONS.items():
            default = RunConfig._field_defaults.get(option)
            if default is not None:
                help_text += f" (default {default})"
            stage_parser.add_argument(_flag(option), help=help_text)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = build_config(args)
        config.out.mkdir(parents=True, exist_ok=True)
        (config.out / "errors.json").unlink(missing_ok=True)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    stages = STAGE_ORDER if args.command == "run" else (args.command,)
    for done, stage in enumerate(stages):
        try:
            _remove_outputs(config, (stage,))
            _STAGE_FUNCS[stage](config)
        except STAGE_FAILURES as exc:
            # the failed stage, and the ones a run never reached
            _remove_outputs(config, stages[done:])
            document, cause = ((exc.document, exc.cause) if isinstance(exc, DocumentError)
                               else ("", exc))
            report = {
                "stage": stage,
                "document": document,
                "error": type(cause).__name__,
                "message": str(cause),
            }
            (config.out / "errors.json").write_text(
                json.dumps(report, indent=2) + "\n", encoding="utf-8")
            print(f"error in {stage} stage: {cause}", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
