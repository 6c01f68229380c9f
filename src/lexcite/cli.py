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
seed, so a rerun with identical inputs is byte-identical. On failure a
machine-readable errors.json names the failing stage and document.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import sys
from dataclasses import dataclass
from pathlib import Path

from . import __version__
from .errors import ConfigError, JoinMismatch, LexciteError
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
    write_corpus,
)
from .metrics import (
    ComplexityProfile,
    VARIABLE_COLUMNS,
    complexity_profile,
    profile_from_row,
    profile_to_row,
)
from .reports import (
    CDF_HEADER,
    COMPARISON_HEADER,
    ESTIMATES_HEADER,
    REGRESSION_HEADER,
    build_cdf_rows,
    build_comparison_rows,
    build_estimate_rows,
    build_regression_rows,
)
from .tableio import read_table, write_table
from .tagging import LexiconTagger, export_tagged, import_tagged, tag_document

STAGE_ORDER = ("ingest", "tag", "profile", "normalize", "group",
               "compare", "regress")

_ENV_PREFIX = "LEXCITE_"
_ENV_KEYS = {
    "LEXCITE_INPUT": "input",
    "LEXCITE_CITATIONS": "citations",
    "LEXCITE_BASELINES": "baselines",
    "LEXCITE_OUT": "out",
    "LEXCITE_SEED": "seed",
    "LEXCITE_ITERATIONS": "iterations",
    "LEXCITE_LEVEL": "level",
    "LEXCITE_ABBREV": "abbrev",
    "LEXCITE_IMPORT_TAGGED": "import_tagged",
}
_INT_OPTIONS = {"seed", "iterations"}
_FLOAT_OPTIONS = {"level"}

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


@dataclass
class RunConfig:
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


class StageFailure(LexciteError):
    """Wraps an error with the stage and document where it occurred."""

    def __init__(self, stage: str, document: str, cause: Exception):
        super().__init__(f"{stage}: {cause}")
        self.stage = stage
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
    """Merge CLI flags over environment variables over defaults."""
    env = _env_overrides(dict(os.environ) if environ is None else environ)
    merged: dict[str, object] = {}
    for option in ("input", "citations", "baselines", "out", "seed",
                   "iterations", "level", "abbrev", "import_tagged"):
        flag_value = getattr(args, option, None)
        if flag_value is not None:
            merged[option] = flag_value
        elif option in env:
            raw = env[option]
            try:
                if option in _INT_OPTIONS:
                    merged[option] = int(raw)
                elif option in _FLOAT_OPTIONS:
                    merged[option] = float(raw)
                else:
                    merged[option] = raw
            except ValueError as exc:
                raise ConfigError(f"bad value for LEXCITE_{option.upper()}: {raw!r}") from exc
    if "out" not in merged:
        raise ConfigError("an output directory is required (--out or LEXCITE_OUT)")
    config = RunConfig(out=Path(str(merged["out"])))
    for option in ("input", "citations", "baselines", "abbrev", "import_tagged"):
        if option in merged:
            setattr(config, option, Path(str(merged[option])))
    for option in ("seed", "iterations", "level"):
        if option in merged:
            setattr(config, option, merged[option])
    if config.iterations < 1:
        raise ConfigError("iterations must be >= 1")
    if not 0.0 < config.level < 1.0:
        raise ConfigError("level must be strictly between 0 and 1")
    return config


def _safe_name(doc_id: str) -> str:
    return re.sub(r"[^A-Za-z0-9._-]", "_", doc_id)


def _require(config: RunConfig, stage: str, option: str) -> Path:
    value: Path | None = getattr(config, option)
    if value is None:
        raise StageFailure(stage, "", ConfigError(
            f"the {stage} stage needs --{option.replace('_', '-')}"))
    if not value.exists():
        raise StageFailure(stage, "", ConfigError(f"path not found: {value}"))
    return value


def _stage_file(config: RunConfig, stage: str, name: str) -> Path:
    path = config.out / name
    if not path.exists():
        raise StageFailure(stage, "", ConfigError(
            f"missing {name}; run the earlier stages into {config.out} first"))
    return path


# ---------------------------------------------------------------- stages

def stage_ingest(config: RunConfig) -> None:
    input_dir = _require(config, "ingest", "input")
    if config.abbrev is None:
        table = AbbreviationTable()
    else:
        table = AbbreviationTable.from_file(_require(config, "ingest", "abbrev"))
    xml_files = sorted(input_dir.glob("*.xml"))
    if not xml_files:
        raise StageFailure("ingest", "", ConfigError(f"no .xml files in {input_dir}"))
    docs: list[RawDocument] = []
    rejects: list[list[object]] = []
    for path in xml_files:
        try:
            doc = parse_jats(path.read_text(encoding="utf-8"))
        except LexciteError as exc:
            rejects.append([path.name, type(exc).__name__, str(exc)])
            continue
        paragraphs = [normalize_abbreviations(p, table) for p in doc.paragraphs]
        docs.append(RawDocument(doc_id=doc.doc_id, year=doc.year,
                                domain=doc.domain, journal=doc.journal,
                                paragraphs=paragraphs))
    if not docs:
        raise StageFailure("ingest", xml_files[0].name,
                           ConfigError("every input file was rejected"))
    config.out.mkdir(parents=True, exist_ok=True)
    write_table(config.out / "rejects.csv", ["file", "error", "message"],
                rejects, config.metadata())
    try:
        write_corpus(docs, config.out / "corpus.jsonl")
    except LexciteError as exc:
        raise StageFailure("ingest", "", exc)


def stage_tag(config: RunConfig) -> None:
    tagged_dir = config.out / "tagged"
    tagged_dir.mkdir(parents=True, exist_ok=True)
    written: dict[str, str] = {}

    def emit(doc_id: str, text: str) -> None:
        name = _safe_name(doc_id) + ".tsv"
        if name in written:
            raise StageFailure("tag", doc_id, ConfigError(
                f"doc ids {written[name]!r} and {doc_id!r} collide on file {name}"))
        written[name] = doc_id
        (tagged_dir / name).write_bytes(text.encode("utf-8"))

    if config.import_tagged is not None:
        import_dir = _require(config, "tag", "import_tagged")
        files = sorted(import_dir.glob("*.tsv"))
        if not files:
            raise StageFailure("tag", "", ConfigError(f"no .tsv files in {import_dir}"))
        for path in files:
            try:
                doc = import_tagged(path.read_text(encoding="utf-8"),
                                    doc_id=path.stem)
            except LexciteError as exc:
                raise StageFailure("tag", path.name, exc)
            emit(doc.doc_id, export_tagged(doc))
        return

    corpus = read_corpus(_stage_file(config, "tag", "corpus.jsonl"))
    tagger = LexiconTagger()
    for raw in corpus:
        try:
            doc = tag_document(raw, tagger)
        except LexciteError as exc:
            raise StageFailure("tag", raw.doc_id, exc)
        emit(doc.doc_id, export_tagged(doc))


def stage_profile(config: RunConfig) -> None:
    tagged_dir = config.out / "tagged"
    if not tagged_dir.is_dir():
        raise StageFailure("profile", "", ConfigError(
            f"missing tagged/; run the tag stage into {config.out} first"))
    files = sorted(tagged_dir.glob("*.tsv"))
    if not files:
        raise StageFailure("profile", "", ConfigError(f"no .tsv files in {tagged_dir}"))
    profiles: list[ComplexityProfile] = []
    for path in files:
        try:
            doc = import_tagged(path.read_text(encoding="utf-8"), doc_id=path.stem)
            profiles.append(complexity_profile(doc))
        except LexciteError as exc:
            raise StageFailure("profile", path.stem, exc)
    profiles.sort(key=lambda p: p.doc_id)
    write_table(config.out / "profiles.csv",
                ["doc_id", *VARIABLE_COLUMNS],
                [profile_to_row(p) for p in profiles],
                config.metadata())


def _read_citations(path: Path) -> list[CitationRecord]:
    _, header, rows = read_table(path)
    expected = ["doc_id", "year", "domain", "total_citations"]
    if header != expected:
        raise ConfigError(f"citations file columns {header} != {expected}")
    return [CitationRecord(doc_id=r[0], year=int(r[1]), domain=r[2],
                           total_citations=int(r[3])) for r in rows]


def _read_baselines(path: Path) -> list[Baseline]:
    _, header, rows = read_table(path)
    expected = ["year", "domain", "adc", "n"]
    if header != expected:
        raise ConfigError(f"baselines file columns {header} != {expected}")
    return [Baseline(year=int(r[0]), domain=r[1], adc=float(r[2]), n=int(r[3]))
            for r in rows]


def stage_normalize(config: RunConfig) -> None:
    citations_path = _require(config, "normalize", "citations")
    try:
        records = _read_citations(citations_path)
        if config.baselines is not None:
            baselines = _read_baselines(_require(config, "normalize", "baselines"))
        else:
            baselines = compute_baselines(records)
        lookup = baseline_map(baselines)
        scores = [normalize_citations(rec, lookup) for rec in records]
    except LexciteError as exc:
        document = getattr(exc, "doc_id", "")
        raise StageFailure("normalize", document, exc)
    config.out.mkdir(parents=True, exist_ok=True)
    write_table(config.out / "baselines.csv", ["year", "domain", "adc", "n"],
                [[b.year, b.domain, b.adc, b.n] for b in baselines],
                config.metadata())
    _write_scores(config, scores)


def _write_scores(config: RunConfig, scores: list[NormalizedScore]) -> None:
    rows = [[s.doc_id, s.nc, "" if s.group is None else s.group.value]
            for s in scores]
    write_table(config.out / "scores.csv", ["doc_id", "nc", "group"],
                rows, config.metadata())


def _read_scores(config: RunConfig, stage: str) -> list[NormalizedScore]:
    _, header, rows = read_table(_stage_file(config, stage, "scores.csv"))
    if header != ["doc_id", "nc", "group"]:
        raise StageFailure(stage, "", ConfigError(f"unexpected scores.csv columns {header}"))
    scores = []
    for r in rows:
        group = ImpactGroup(r[2]) if r[2] else None
        scores.append(NormalizedScore(doc_id=r[0], nc=float(r[1]), group=group))
    return scores


def stage_group(config: RunConfig) -> None:
    scores = _read_scores(config, "group")
    _write_scores(config, stratify(scores))


def _read_profiles(config: RunConfig, stage: str) -> list[ComplexityProfile]:
    _, header, rows = read_table(_stage_file(config, stage, "profiles.csv"))
    if header != ["doc_id", *VARIABLE_COLUMNS]:
        raise StageFailure(stage, "", ConfigError(f"unexpected profiles.csv columns {header}"))
    return [profile_from_row(r) for r in rows]


def _grouped_scores(config: RunConfig, stage: str) -> list[NormalizedScore]:
    scores = _read_scores(config, stage)
    if scores and all(s.group is None for s in scores):
        raise StageFailure(stage, "", ConfigError(
            "scores.csv has no groups; run the group stage first"))
    return scores


def _joined_inputs(config: RunConfig, stage: str
                   ) -> tuple[list[ComplexityProfile], list[NormalizedScore]]:
    """Profiles and grouped scores, which must share at least one doc id."""
    profiles = _read_profiles(config, stage)
    scores = _grouped_scores(config, stage)
    score_ids = {s.doc_id for s in scores}
    if not any(p.doc_id in score_ids for p in profiles):
        raise StageFailure(stage, "", JoinMismatch("profiles and scores share no doc_ids"))
    return profiles, scores


def stage_compare(config: RunConfig) -> None:
    profiles, scores = _joined_inputs(config, "compare")
    meta = config.metadata()
    write_table(config.out / "comparison.csv", COMPARISON_HEADER,
                build_comparison_rows(profiles, scores), meta)
    write_table(config.out / "cdf.csv", CDF_HEADER,
                build_cdf_rows(profiles, scores), meta)
    write_table(config.out / "estimates.csv", ESTIMATES_HEADER,
                build_estimate_rows(profiles, scores, config.iterations,
                                    config.level, config.seed), meta)


def stage_regress(config: RunConfig) -> None:
    profiles, scores = _joined_inputs(config, "regress")
    try:
        rows = build_regression_rows(profiles, scores)
    except LexciteError as exc:
        raise StageFailure("regress", "", exc)
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


def run_pipeline(config: RunConfig, stages: tuple[str, ...]) -> None:
    config.out.mkdir(parents=True, exist_ok=True)
    for stage in STAGE_ORDER:
        if stage in stages:
            _STAGE_FUNCS[stage](config)


# ------------------------------------------------------------------ main

def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--input", type=Path, help="directory of article XML files")
    parser.add_argument("--citations", type=Path, help="citations CSV (doc_id, year, domain, total_citations)")
    parser.add_argument("--baselines", type=Path, help="externally computed baselines CSV (year, domain, adc, n)")
    parser.add_argument("--out", type=Path, help="output directory for all stage files")
    parser.add_argument("--seed", type=int, help="root random seed (default 0)")
    parser.add_argument("--iterations", type=int, help="bootstrap iterations (default 10000)")
    parser.add_argument("--level", type=float, help="confidence level (default 0.95)")
    parser.add_argument("--abbrev", type=Path, help="abbreviation table TSV (key, expansion)")
    parser.add_argument("--import-tagged", type=Path, dest="import_tagged",
                        help="directory of externally tagged .tsv files to use instead of the built-in tagger")


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
        _add_common(stage_parser)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = build_config(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    stages = STAGE_ORDER if args.command == "run" else (args.command,)
    try:
        run_pipeline(config, stages)
    except StageFailure as exc:
        report = {
            "stage": exc.stage,
            "document": exc.document,
            "error": type(exc.cause).__name__,
            "message": str(exc.cause),
        }
        config.out.mkdir(parents=True, exist_ok=True)
        (config.out / "errors.json").write_text(
            json.dumps(report, indent=2) + "\n", encoding="utf-8")
        print(f"error in {exc.stage} stage: {exc.cause}", file=sys.stderr)
        return 1
    except LexciteError as exc:
        config.out.mkdir(parents=True, exist_ok=True)
        (config.out / "errors.json").write_text(
            json.dumps({"stage": "unknown", "document": "",
                        "error": type(exc).__name__, "message": str(exc)},
                       indent=2) + "\n", encoding="utf-8")
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
