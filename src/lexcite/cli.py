"""File-based pipeline CLI.

Stages hand off through files in the output directory so any stage can be
replaced externally (for example, splicing in a different tagger's output
at the tag stage); run runs them all in order.

Option precedence is flags > LEXCITE_* environment variables > defaults;
an unrecognized LEXCITE_* variable is an error rather than a silent no-op.
Outputs carry no timestamps and all randomness flows from the recorded
seed, so a rerun with identical inputs is byte-identical.

Each rule is declared once: _OPTIONS holds every option with its converter
and help, and _STAGES the stages in order, each with its function, the
options it requires, the stage files it reads and the globs it owns in
--out. A configuration mistake (a bad option value, an empty path among
them, or a fault of the whole invocation against _STAGES) prints one error
line and exits 2 before any stage runs, with nothing in --out written or
removed. Otherwise main removes any errors.json an earlier invocation left,
then runs the stages in turn, and any failure of errors.STAGE_FAILURES (a
LexciteError, OSError or MemoryError, or a warning raised as an error) that
a stage raises ends the run with exit 1 and an errors.json written by main,
the one place that knows the running stage. Stages raise plain errors,
wrapped in DocumentError where they know the input document: a failure to
read a file names the file, and one after reading names the document's id.

Outputs depend only on the inputs, not on what --out held before. main
removes the files a stage owns before the stage runs, and again if it fails
(in a run, also those of every later stage), but never a file the
invocation was given to read. So no stage reads an output of an earlier
invocation.

Only compare and regress compute with arrays: each joins every
profiles.csv row to its score as it reads it, and keeps only the scored
rows (`reports.join_scores`). Every function that uses
numpy imports it itself, so importing this module and running any other
stage never loads numpy, and a one-stage process does not pay for it. In
the same way only ingest loads the XML parser. Every text input is read
through tableio, under one rule for its encoding and line ends and one for
the spelling of its numbers.

tag and profile each map one function per document (make or read it,
then write or profile it), and compare one per variable (its rows of all
three tables), with `parallel.run_on_two_processes`, under the rule
and contract stated there. Each loops over the map's values as it yields
them and closes it before a failure of its own loop leaves the stage, so
that its child has ended before main removes the stage's files.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import sys
from contextlib import closing, suppress
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterator, NamedTuple

from . import __version__
from .errors import (STAGE_FAILURES, ConfigError, DataError, FormatError, LexciteError,
                     MissingMetadata)
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
    check_doc_id,
    normalize_abbreviations,
    parse_jats,
    read_corpus,
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
    group_samples,
    join_scores,
)
from .stats import check_bootstrap_options
from .tableio import parse_finite, parse_int, read_table, readable_name, write_table
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
    "seed": (parse_int, "root random seed"),
    "iterations": (parse_int, "bootstrap iterations"),
    "level": (parse_finite, "confidence level"),
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
        return {
            "tool": "lexcite",
            "version": __version__,
            "seed": str(self.seed),
            "iterations": str(self.iterations),
            "level": repr(self.level),
            "config_hash": self.config_hash(),
            **DECISION_FLAGS,
        }


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
    try:
        check_bootstrap_options(config.iterations, config.level)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return config


def _flag(option: str) -> str:
    return "--" + option.replace("_", "-")


def _safe_name(doc_id: str) -> str:
    return re.sub(r"[^A-Za-z0-9._-]", "_", doc_id)


def _tsv_files(directory: Path) -> list[Path]:
    """The .tsv files of directory, sorted; none is a DataError."""
    files = sorted(directory.glob("*.tsv"))
    if not files:
        raise DataError(f"no .tsv files in {directory}")
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
    table = AbbreviationTable() if config.abbrev is None else \
        AbbreviationTable.from_file(config.abbrev)
    xml_files = sorted(config.input.glob("*.xml"))
    if not xml_files:
        raise DataError(f"no .xml files in {config.input}")
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
                            DataError("every input file was rejected"))


def stage_tag(config: RunConfig) -> None:
    """Write tagged/<doc>.tsv per document through one map of one function:
    make the document (tag a corpus.jsonl record, or `_read_tagged` an
    --import-tagged file), then write it. Two documents whose ids give one
    file name fail the stage at the second, once it is written; a failure to
    write it is the error reported."""
    tagged_dir = config.out / "tagged"
    if config.import_tagged is None:
        items = lambda: read_corpus(config.out / "corpus.jsonl")
        tagger = LexiconTagger()

        def document(raw: RawDocument) -> TaggedDocument:
            try:
                return tag_document(raw, tagger)
            except LexciteError as exc:
                raise DocumentError(raw.doc_id, exc)
    else:
        files = _tsv_files(config.import_tagged)
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
                raise DocumentError(doc_id, DataError(
                    f"doc ids {first_ids[name]!r} and {doc_id!r} collide on file {name}"))
            first_ids[name] = doc_id


def stage_profile(config: RunConfig) -> None:
    """profiles.csv, from one map that reads and profiles each tagged/*.tsv."""
    files = _tsv_files(config.out / "tagged")

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
                raise DocumentError(profile.doc_id, DataError(
                    f"files {named[profile.doc_id][0]} and {name} name one document"))
            named[profile.doc_id] = name, profile
    write_table(config.out / "profiles.csv", ["doc_id", *VARIABLE_COLUMNS],
                (named[doc_id][1] for doc_id in sorted(named)), config.metadata())


def _read_rows(path: Path, header: list[str], parse, key) -> Iterator:
    """Yield the data rows of an input table, each through parse, as they
    are read. A malformed table or a header other than `header` fails the
    stage. So does a row that parse refuses with ValueError (the record
    types check their own values), or one whose key (a tuple of its parsed
    leading columns, from key) repeats an earlier row's: each as a
    FormatError naming its line and, in a table keyed by doc_id, its
    document."""
    table = read_table(path)
    if table.header != header:
        raise DataError(f"{readable_name(path.name)} columns {table.header} != {header}")
    seen: set[tuple] = set()
    for line, row in table.rows:
        try:
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


def stage_normalize(config: RunConfig) -> None:
    records = list(_read_rows(
        config.citations, ["doc_id", "year", "domain", "total_citations"],
        lambda row: CitationRecord(row[0], parse_int(row[1]), row[2], parse_int(row[3])),
        lambda rec: (rec.doc_id,)))
    if config.baselines is not None:
        baselines = list(_read_rows(
            config.baselines, ["year", "domain", "adc", "n"],
            lambda row: Baseline(parse_int(row[0]), row[1], parse_finite(row[2]),
                                 parse_int(row[3])),
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
    return list(_read_rows(
        config.out / "scores.csv", ["doc_id", "nc", "group"],
        lambda row: NormalizedScore(row[0], parse_finite(row[1]),
                                    ImpactGroup(row[2]) if row[2] else None),
        lambda s: (s.doc_id,)))


def stage_group(config: RunConfig) -> None:
    scores = _read_scores(config)
    _write_scores(config, stratify(scores))


def _joined_inputs(config: RunConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The profiles joined to the grouped scores: values, nc and group
    codes of the profile rows that have a score (`join_scores`). scores.csv
    is read whole, and then each profiles.csv row is joined as it is read."""
    profiles = _read_rows(config.out / "profiles.csv", ["doc_id", *VARIABLE_COLUMNS],
                          lambda row: (check_doc_id(row[0]), profile_cells(row)),
                          lambda parsed: parsed[:1])
    scores = _read_scores(config)
    if scores and all(s.group is None for s in scores):
        raise DataError("scores.csv has no groups; run the group stage first")
    return join_scores(profiles, scores)


def stage_compare(config: RunConfig) -> None:
    """cdf.csv, taking each variable's rows as one map of one function per
    variable yields them; then comparison.csv and estimates.csv."""
    values, _, codes = _joined_inputs(config)
    meta = config.metadata()

    def variable_rows(column: str) -> tuple[list, list, list]:
        samples = group_samples(values, codes, column)
        return (build_comparison_rows(column, samples),
                build_estimate_rows(column, samples, config.iterations,
                                    config.level, config.seed),
                build_cdf_rows(column, samples))  # made after the bootstrap: it holds none

    comparison, estimates = [], []  # the map's 3 + 3 rows per variable

    def cdf_rows(per_variable: Iterator[tuple[list, list, list]]) -> Iterator[tuple]:
        for variable_comparison, variable_estimates, variable_cdf in per_variable:
            comparison.extend(variable_comparison)
            estimates.extend(variable_estimates)
            yield from variable_cdf
            del variable_cdf  # so that no two variables' rows are held at once

    with closing(run_on_two_processes(lambda: VARIABLE_COLUMNS, variable_rows)) as per_variable:
        write_table(config.out / "cdf.csv", CDF_HEADER, cdf_rows(per_variable), meta)
    write_table(config.out / "comparison.csv", COMPARISON_HEADER, comparison, meta)
    write_table(config.out / "estimates.csv", ESTIMATES_HEADER, estimates, meta)


def stage_regress(config: RunConfig) -> None:
    rows = build_regression_rows(*_joined_inputs(config))
    write_table(config.out / "regression.csv", REGRESSION_HEADER, rows,
                config.metadata())


class _Stage(NamedTuple):
    """A stage: its function, the options it requires, the stage files it
    reads from --out in the order it reads them (a name ending in / is a
    directory, owned by a glob in it), and the globs it owns there."""

    func: Callable[[RunConfig], None]
    requires: tuple[str, ...] = ()
    reads: tuple[str, ...] = ()
    owns: tuple[str, ...] = ()


# group owns nothing, because scores.csv is also its input. No stage owns
# rejects.csv, which ingest writes even when it fails, or main's errors.json.
# tag reads no corpus.jsonl under --import-tagged, and the directory it
# rewrites cannot be the one imported: profile would read each file twice.
_STAGES = {
    "ingest": _Stage(stage_ingest, requires=("input",), owns=("corpus.jsonl",)),
    "tag": _Stage(stage_tag, reads=("corpus.jsonl",), owns=("tagged/*.tsv",)),
    "profile": _Stage(stage_profile, reads=("tagged/",), owns=("profiles.csv",)),
    "normalize": _Stage(stage_normalize, requires=("citations",),
                        owns=("baselines.csv", "scores.csv")),
    "group": _Stage(stage_group, reads=("scores.csv",)),
    "compare": _Stage(stage_compare, reads=("profiles.csv", "scores.csv"),
                      owns=("comparison.csv", "cdf.csv", "estimates.csv")),
    "regress": _Stage(stage_regress, reads=("profiles.csv", "scores.csv"),
                      owns=("regression.csv",)),
}
STAGE_ORDER = tuple(_STAGES)
# main calls each stage through this dict, whose values benchmark/tracer.py
# rebinds to time them (ROADMAP item 10).
_STAGE_FUNCS = {name: stage.func for name, stage in _STAGES.items()}


def _check_invocation(config: RunConfig, stages: tuple[str, ...]) -> None:
    """Raise a ConfigError for the invocation's first fault, touching nothing:
    an --out that cannot be created, a required option not set, a missing
    given path, a stage file read that neither --out holds nor an earlier
    stage writes, or an --import-tagged that is tagged/ of --out."""
    existing = next((p for p in (config.out, *config.out.parents) if p.exists()), config.out)
    if not existing.is_dir():
        raise ConfigError(f"--out {config.out} cannot be created: {existing} is not a directory")
    for stage in stages:
        for option in _STAGES[stage].requires:
            if getattr(config, option) is None:
                raise ConfigError(f"{_flag(option)} is required")
    for option, (convert, _) in _OPTIONS.items():
        given = getattr(config, option)
        if convert is Path and option != "out" and given is not None and not given.exists():
            raise ConfigError(f"path not found: {given}")
    owned: list[str] = []
    for stage in stages:
        tag_imports = stage == "tag" and config.import_tagged is not None
        for name in () if tag_imports else _STAGES[stage].reads:
            path = config.out / name
            there = path.is_dir() if name.endswith("/") else path.exists()
            if not there and not any(g.startswith(name) for g in owned):
                raise ConfigError(f"missing {name}; run the earlier stages into "
                                  f"{config.out} first")
        owned += _STAGES[stage].owns
    tagged = config.out / "tagged"
    if ("tag" in stages and config.import_tagged is not None and tagged.is_dir()
            and os.path.samefile(config.import_tagged, tagged)):
        raise ConfigError(f"--import-tagged {config.import_tagged} is the tagged/ "
                          "directory of --out, which the tag stage rewrites")


def _given_input(config: RunConfig, path: Path) -> bool:
    """Whether path is the file of --citations, --baselines or --abbrev."""
    return any(given is not None and given.exists() and os.path.samefile(path, given)
               for given in (config.citations, config.baselines, config.abbrev))


def _remove_outputs(config: RunConfig, stages: tuple[str, ...]) -> None:
    """Remove the files the stages write, except any file the invocation was
    given to read, as far as the file system lets it (a directory in an
    output's place stays)."""
    for stage in stages:
        for pattern in _STAGES[stage].owns:
            for path in config.out.glob(pattern):
                if not _given_input(config, path):
                    with suppress(OSError):
                        path.unlink()


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
    stages = STAGE_ORDER if args.command == "run" else (args.command,)
    try:
        config = build_config(args)
        _check_invocation(config, stages)
        config.out.mkdir(parents=True, exist_ok=True)
        (config.out / "errors.json").unlink(missing_ok=True)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
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
