"""Span tracer installed from outside lexcite by the benchmark.

`Tracer.install()` wraps the public functions listed in `SPANS` and
`COUNTERS` and rebinds every reference to each original that a lexcite
module holds: module globals (`cli.py` binds `tag_document` through
`from .tagging import ...`), dict values in module globals (`_STAGE_FUNCS`)
and class attributes. Spans (name, start, end, parent) stay in memory until
`write_spans()`. `layer_metrics()` turns them into the per-layer metrics.

Self time is a span's duration minus the durations of its children; the
program is single-threaded, so children of one span never overlap.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

# (module, attribute path, span name)
SPANS = (
    ("lexcite.cli", "stage_ingest", "cli.ingest"),
    ("lexcite.cli", "stage_tag", "cli.tag"),
    ("lexcite.cli", "stage_profile", "cli.profile"),
    ("lexcite.cli", "stage_normalize", "cli.normalize"),
    ("lexcite.cli", "stage_group", "cli.group"),
    ("lexcite.cli", "stage_compare", "cli.compare"),
    ("lexcite.cli", "stage_regress", "cli.regress"),
    ("lexcite.ingest", "parse_jats", "ingest.parse_jats"),
    ("lexcite.ingest", "normalize_abbreviations", "ingest.normalize_abbreviations"),
    ("lexcite.ingest", "write_corpus", "ingest.write_corpus"),
    ("lexcite.ingest", "read_corpus", "ingest.read_corpus"),
    ("lexcite.tagging", "load_lexicon", "tagging.load_lexicon"),
    ("lexcite.tagging", "segment_sentences", "tagging.segment_sentences"),
    ("lexcite.tagging", "tokenize", "tagging.tokenize"),
    ("lexcite.tagging", "LexiconTagger.__call__", "tagging.tagger"),
    ("lexcite.tagging", "tag_document", "tagging.tag_document"),
    ("lexcite.tagging", "export_tagged", "tagging.export_tagged"),
    ("lexcite.tagging", "import_tagged", "tagging.import_tagged"),
    ("lexcite.metrics", "complexity_profile", "metrics.complexity_profile"),
    ("lexcite.impact", "compute_baselines", "impact.compute_baselines"),
    ("lexcite.impact", "normalize_citations", "impact.normalize_citations"),
    ("lexcite.impact", "stratify", "impact.stratify"),
    ("lexcite.stats", "bootstrap_mean_ci", "stats.bootstrap_mean_ci"),
    ("lexcite.stats", "ks_two_sample", "stats.ks_two_sample"),
    ("lexcite.stats", "ecdf_steps", "stats.ecdf_steps"),
    ("lexcite.stats", "fit_model", "stats.fit_model"),
    ("lexcite.reports", "group_samples", "reports.group_samples"),
    ("lexcite.reports", "build_comparison_rows", "reports.build_comparison_rows"),
    ("lexcite.reports", "build_cdf_rows", "reports.build_cdf_rows"),
    ("lexcite.reports", "build_estimate_rows", "reports.build_estimate_rows"),
    ("lexcite.reports", "build_regression_rows", "reports.build_regression_rows"),
    ("lexcite.tableio", "write_table", "tableio.write_table"),
    ("lexcite.tableio", "read_table", "tableio.read_table"),
)

# Calls counted without a span: too many, or too small, to time one by one.
COUNTERS = (
    ("lexcite.tagging", "Token.from_surface", "tagging.token_objects"),
    ("lexcite.ingest", "AbbreviationTable.__init__", "ingest.abbrev_tables"),
)


def _resolve(module_name: str, attr_path: str):
    """(owner, attribute, raw value): the raw value keeps a classmethod
    wrapper, so it can be put back unchanged."""
    owner = sys.modules[module_name]
    *outer, attr = attr_path.split(".")
    for name in outer:
        owner = getattr(owner, name)
    raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    return owner, attr, raw


class Tracer:
    """Collects spans and counts while installed; one per traced process."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter[str] = Counter()
        self._stack: list[int] = []
        self._restore: list[tuple[object, object, object]] = []

    # -- wrappers -------------------------------------------------------

    def _span(self, name: str, fn, after=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.counts[name + ".errors"] += 1
                raise
            finally:
                spans[index][2] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _counter(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    @contextlib.contextmanager
    def root(self, name: str):
        """A top-level span around one CLI invocation."""
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, -1])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter()

    # -- result hooks ---------------------------------------------------

    def _after_export(self, args, result):
        doc = args[0]
        self.counts["tagging.sentences"] += len(doc.sentences)
        self.counts["tagging.tokens"] += sum(len(s.tokens) for s in doc.sentences)

    def _after_bootstrap(self, args, result):
        self.counts["stats.bootstrap_draws"] += result.iterations * len(args[0])

    def _after_fit(self, args, result):
        self.counts["stats.fit_model.estimable"] += result.status == "Estimable"

    def _after_write(self, args, result):
        self.counts["tableio.bytes_written"] += Path(args[0]).stat().st_size

    # -- install --------------------------------------------------------

    def _rebind(self, original, replacement) -> int:
        """Point every lexcite module global, and every value of a dict held
        in one, that is `original` at `replacement`. Returns the count."""
        hits = 0
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "lexcite" and not mod_name.startswith("lexcite."):
                continue
            namespace = vars(module)
            for key, value in list(namespace.items()):
                if value is original:
                    self._restore.append((namespace, key, original))
                    namespace[key] = replacement
                    hits += 1
                elif isinstance(value, dict):
                    for dkey, dvalue in list(value.items()):
                        if dvalue is original:
                            self._restore.append((value, dkey, original))
                            value[dkey] = replacement
                            hits += 1
        return hits

    def _wrap(self, module_name: str, attr_path: str, make) -> None:
        owner, attr, raw = _resolve(module_name, attr_path)
        if isinstance(owner, type):
            if isinstance(raw, classmethod):
                wrapped = classmethod(make(raw.__func__))
            else:
                wrapped = make(raw)
            self._restore.append((owner, attr, raw))
            setattr(owner, attr, wrapped)
        elif self._rebind(raw, make(raw)) == 0:
            raise RuntimeError(f"{module_name}.{attr_path} is bound nowhere")

    def install(self) -> None:
        import lexcite.cli  # noqa: F401  (imports every module it binds from)

        hooks = {
            "tagging.export_tagged": self._after_export,
            "stats.bootstrap_mean_ci": self._after_bootstrap,
            "stats.fit_model": self._after_fit,
            "tableio.write_table": self._after_write,
        }
        for module_name, attr_path, name in SPANS:
            self._wrap(module_name, attr_path,
                       functools.partial(self._span, name, after=hooks.get(name)))
        for module_name, attr_path, name in COUNTERS:
            self._wrap(module_name, attr_path, functools.partial(self._counter, name))

    def uninstall(self) -> None:
        for target, key, original in reversed(self._restore):
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)
        self._restore.clear()

    # -- output ---------------------------------------------------------

    def write_spans(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps([name, start, end, parent]) + "\n")

    def summary(self) -> dict:
        """Per span name: total seconds, self seconds and calls; plus counts."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        total: dict[str, float] = defaultdict(float)
        self_s: dict[str, float] = defaultdict(float)
        calls: Counter[str] = Counter()
        for i, (name, start, end, _) in enumerate(self.spans):
            total[name] += end - start
            self_s[name] += end - start - child_time[i]
            calls[name] += 1
        return {"total": dict(total), "self": dict(self_s),
                "calls": dict(calls), "counts": dict(self.counts)}


def merge_summaries(summaries: list[dict]) -> dict:
    """Sum the summaries of the invocations of one pass."""
    merged: dict[str, dict] = {"total": Counter(), "self": Counter(),
                               "calls": Counter(), "counts": Counter()}
    for summary in summaries:
        for key in merged:
            merged[key].update(summary[key])
    return merged


def layer_metrics(summary: dict) -> dict[str, float]:
    """The per-layer metrics of one traced pass."""
    total, self_s, calls, counts = (summary["total"], summary["self"],
                                    summary["calls"], summary["counts"])

    def s(*names):
        return sum(total.get(n, 0.0) for n in names)

    def ratio(num, den):
        return num / den if den else 0.0

    tokens = counts.get("tagging.tokens", 0)
    out = {f"cli.{stage}.s": s(f"cli.{stage}") for stage in
           ("ingest", "tag", "profile", "normalize", "group", "compare", "regress")}
    out.update({
        "ingest.parse_jats.s": s("ingest.parse_jats"),
        "ingest.parse_jats.calls": calls.get("ingest.parse_jats", 0),
        "ingest.normalize_abbreviations.s": s("ingest.normalize_abbreviations"),
        "ingest.corpus_io.s": s("ingest.write_corpus", "ingest.read_corpus"),
        "ingest.abbrev_tables_per_paragraph": ratio(
            counts.get("ingest.abbrev_tables", 0),
            calls.get("ingest.normalize_abbreviations", 0)),
        "ingest.rejects": counts.get("ingest.parse_jats.errors", 0),
        "tagging.load_lexicon.s": s("tagging.load_lexicon"),
        "tagging.segment_sentences.s": s("tagging.segment_sentences"),
        "tagging.tokenize.s": s("tagging.tokenize"),
        "tagging.tagger.s": s("tagging.tagger"),
        "tagging.tagger.calls": calls.get("tagging.tagger", 0),
        "tagging.tag_document.self_s": self_s.get("tagging.tag_document", 0.0),
        "tagging.export_tagged.s": s("tagging.export_tagged"),
        "tagging.import_tagged.s": s("tagging.import_tagged"),
        "tagging.token_objects_per_token": ratio(
            counts.get("tagging.token_objects", 0), tokens),
        "tagging.sentences": counts.get("tagging.sentences", 0),
        "tagging.tokens": tokens,
        "metrics.complexity_profile.s": s("metrics.complexity_profile"),
        "metrics.complexity_profile.calls": calls.get("metrics.complexity_profile", 0),
        "impact.s": s("impact.compute_baselines", "impact.normalize_citations",
                      "impact.stratify"),
        "stats.bootstrap_mean_ci.s": s("stats.bootstrap_mean_ci"),
        "stats.bootstrap_mean_ci.calls": calls.get("stats.bootstrap_mean_ci", 0),
        "stats.bootstrap_draws": counts.get("stats.bootstrap_draws", 0),
        "stats.ks_two_sample.s": s("stats.ks_two_sample"),
        "stats.ecdf_steps.s": s("stats.ecdf_steps"),
        "stats.fit_model.s": s("stats.fit_model"),
        "stats.fit_model.estimable": counts.get("stats.fit_model.estimable", 0),
        "reports.group_samples.s": s("reports.group_samples"),
        "reports.group_samples.calls": calls.get("reports.group_samples", 0),
        "reports.self_s": sum(v for k, v in self_s.items() if k.startswith("reports.")),
        "tableio.write_table.s": s("tableio.write_table"),
        "tableio.read_table.s": s("tableio.read_table"),
        "tableio.bytes_written": counts.get("tableio.bytes_written", 0),
    })
    return out
