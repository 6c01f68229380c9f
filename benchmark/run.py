#!/usr/bin/env python3
"""lexcite benchmark: one workload, closed loop, one invocation at a time.

    python3 benchmark/run.py --workload fulltext-run --seed 1 --seconds 36 --trace 0

Generates the workload's inputs from --seed under .benchwork/<workload>/,
then runs passes over them until --seconds are used up (a pass is not
started if it would end past that). A pass is the workload's sequence of
lexcite CLI invocations, each a fresh process (benchmark/child.py, which
calls lexcite.cli.main), into a fresh output directory. Every pass's
outputs are checked and digested; all passes must give the same digests.

--trace 0 reports the end-to-end metrics of BENCHMARK.json. --trace 1
alternates an untraced pass with a traced one (the tracer wraps lexcite's
public functions inside each invocation) and reports the per-layer metrics.
The last line of stdout is the JSON result; the exit code is 1 when a
check failed and 2 when the program or the benchmark files are missing.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import checks
import generate
from generate import Planted
from tracer import layer_metrics, merge_summaries

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
CHILD = BENCH_DIR / "child.py"
WORK = ROOT / ".benchwork"

SETUP_LAUNCHES_PER_PASS = 2
# Every run must end well within 180 s, even if an invocation hangs.
HARD_LIMIT_S = 150
ALL_STAGES = ["ingest", "tag", "profile", "normalize", "group", "compare", "regress"]


@dataclass(frozen=True)
class Workload:
    name: str
    size: int           # articles, or profile rows for stats-rerun
    setup_state: str    # fixed state built by child.py setup
    stages: tuple[str, ...]
    generator: Callable[[Path, int, int], Planted]  # (dest, seed, size)
    extra_args: tuple[str, ...] = ()

    def generate(self, inputs: Path, seed: int) -> Planted:
        return self.generator(inputs, seed, self.size)

    def invocations(self, inputs: Path, out: Path) -> list[tuple[list[str], list[str]]]:
        """(stages checked, lexcite argv) per CLI invocation of one pass."""
        common = ["--out", str(out), *self.extra_args]
        citations = ["--citations", str(inputs / "citations.csv")]
        if self.name == "fulltext-run":
            return [(ALL_STAGES, ["run", "--input", str(inputs), *citations, *common])]
        argvs = []
        for stage in self.stages:
            if stage == "tag":
                argv = ["tag", "--import-tagged", str(inputs / "tagged"), *common]
            elif stage == "normalize":
                argv = ["normalize", *citations, *common]
            else:
                argv = [stage, *common]
            argvs.append(([stage], argv))
        return argvs

    def prepare_out(self, inputs: Path, out: Path) -> None:
        """A fresh output directory; stats-rerun starts from profiles.csv."""
        if out.exists():
            shutil.rmtree(out)
        out.mkdir(parents=True)
        if "profile" not in self.stages:
            shutil.copyfile(inputs / "profiles.csv", out / "profiles.csv")


WORKLOADS = {
    w.name: w for w in (
        Workload("fulltext-run", 600, "tagger", tuple(ALL_STAGES),
                 functools.partial(generate.generate_fulltext, ROOT)),
        Workload("tagged-import", 600, "none",
                 ("tag", "profile", "normalize", "group", "compare", "regress"),
                 generate.generate_tagged),
        Workload("stats-rerun", 10_000, "none",
                 ("normalize", "group", "compare", "regress"),
                 generate.generate_profiles,
                 ("--seed", "2019", "--iterations", "2000")),
    )
}

TEXT = {"fulltext-run"}
TAGGED = {"fulltext-run", "tagged-import"}
EVERY = set(WORKLOADS)

# Per-layer metric -> the workloads on which it must be non-zero; on every
# other workload it must be exactly zero.
NONZERO_ON = {
    "cli.ingest.s": TEXT, "cli.tag.s": TAGGED, "cli.profile.s": TAGGED,
    "cli.normalize.s": EVERY, "cli.group.s": EVERY, "cli.compare.s": EVERY,
    "cli.regress.s": EVERY,
    "ingest.parse_jats.s": TEXT, "ingest.parse_jats.calls": TEXT,
    "ingest.normalize_abbreviations.s": TEXT, "ingest.corpus_io.s": TEXT,
    "ingest.abbrev_tables_per_paragraph": TEXT, "ingest.rejects": TEXT,
    "tagging.load_lexicon.s": TEXT, "tagging.segment_sentences.s": TEXT,
    "tagging.tokenize.s": TEXT, "tagging.tagger.s": TEXT,
    "tagging.tagger.calls": TEXT, "tagging.tag_document.self_s": TEXT,
    "tagging.export_tagged.s": TAGGED, "tagging.import_tagged.s": TAGGED,
    "tagging.token_objects_per_token": TAGGED, "tagging.sentences": TAGGED,
    "tagging.tokens": TAGGED,
    "metrics.complexity_profile.s": TAGGED,
    "metrics.complexity_profile.calls": TAGGED,
    "impact.s": EVERY,
    "stats.bootstrap_mean_ci.s": EVERY, "stats.bootstrap_mean_ci.calls": EVERY,
    "stats.bootstrap_draws": EVERY, "stats.ks_two_sample.s": EVERY,
    "stats.ecdf_steps.s": EVERY, "stats.fit_model.s": EVERY,
    "stats.fit_model.estimable": EVERY,
    "reports.group_samples.s": EVERY, "reports.group_samples.calls": EVERY,
    "reports.self_s": EVERY,
    "tableio.write_table.s": EVERY, "tableio.read_table.s": EVERY,
    "tableio.bytes_written": EVERY,
    "trace.wall_s": EVERY, "tokens_per_s": TAGGED,
}
# Counts that describe the work, not its speed: equal on every traced pass.
EXACT = {name for name in NONZERO_ON
         if name.endswith((".calls", "_per_token", "_per_paragraph"))
         or name in {"ingest.rejects", "tagging.sentences", "tagging.tokens",
                     "stats.bootstrap_draws", "stats.fit_model.estimable",
                     "tableio.bytes_written"}}


@dataclass
class PassResult:
    wall_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    maxrss_kb: int = 0
    problems: dict[str, list[str]] = field(default_factory=dict)
    digests: dict[str, str] = field(default_factory=dict)
    summaries: list[dict] = field(default_factory=list)


def child_env() -> dict[str, str]:
    """The caller's environment minus LEXCITE_* (lexcite rejects unknown ones)."""
    return {k: v for k, v in os.environ.items() if not k.startswith("LEXCITE_")}


def run_timed(cmd: list[str], timeout: float, **popen_args) -> tuple[int, float]:
    """(exit code, wall seconds) of cmd, killed after timeout seconds.

    Waits for the exit in one blocking call: subprocess.run(timeout=...)
    polls in steps of up to 50 ms, which would quantise the time measured.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, **popen_args)
    watchdog = threading.Timer(timeout, proc.kill)
    watchdog.start()
    try:
        rc = proc.wait()
    finally:
        watchdog.cancel()
    return rc, time.perf_counter() - start


def load_metric_specs() -> tuple[list[dict], list[dict]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return spec["end_to_end"], spec["per_layer"]


@dataclass
class BenchRun:
    """One benchmark run of one workload over its generated inputs."""

    wl: Workload
    work: Path
    planted: Planted
    hard_deadline: float

    @property
    def inputs(self) -> Path:
        return self.work / "inputs"

    def run_pass(self, tag: str, traced: bool) -> PassResult:
        """Run the workload's invocations once, then check and digest."""
        out, logs = self.work / "out", self.work / "logs"
        logs.mkdir(exist_ok=True)
        self.wl.prepare_out(self.inputs, out)
        result = PassResult()
        failed_stages: set[str] = set()
        invocations = self.wl.invocations(self.inputs, out)
        for i, (stages, argv) in enumerate(invocations):
            report = logs / f"{tag}-{i}.json"
            head = [str(report)] + ([str(logs / f"{tag}-{i}.spans.jsonl")] if traced else [])
            cmd = [sys.executable, str(CHILD), "cli", *head, "--", *argv]
            result.attempted += 1
            with open(logs / f"{tag}-{i}.stderr", "wb") as err:
                rc = None
                left = self.hard_deadline - time.perf_counter()
                if left > 0:
                    rc, seconds = run_timed(cmd, left, stdout=subprocess.DEVNULL, stderr=err,
                                            env=child_env(), cwd=ROOT)
                    result.wall_s += seconds
            if rc != 0 or not report.exists():
                failed_stages.update(stages)
                result.problems[argv[0]] = [f"exit code {rc}; see {err.name}"]
                continue
            info = json.loads(report.read_text(encoding="utf-8"))
            result.maxrss_kb = max(result.maxrss_kb, info["maxrss_kb"])
            if traced:
                result.summaries.append(info["summary"])
        checked = [s for stages, _ in invocations for s in stages]
        problems = checks.check_outputs(checked, out, self.planted)
        result.problems.update(problems)
        failed_stages.update(s for s in problems if s in ALL_STAGES)
        if "errors.json" in problems:
            failed_stages.update(checked)
        result.failed = sum(1 for stages, _ in invocations
                            if failed_stages.intersection(stages))
        result.digests = checks.digests(out)
        return result

    def setup_launch(self) -> float:
        """Wall time of a fresh interpreter that imports lexcite.cli and
        builds the workload's fixed state."""
        cmd = [sys.executable, str(CHILD), "setup", self.wl.setup_state]
        rc, seconds = run_timed(cmd, 60, env=child_env(), cwd=ROOT)
        if rc != 0:
            raise subprocess.CalledProcessError(rc, cmd)
        return seconds

    def _more(self, deadline: float, iteration_start: float) -> bool:
        """Start another iteration only if it can end before the deadline,
        taking the last iteration's whole wall time as the estimate."""
        now = time.perf_counter()
        return now + (now - iteration_start) <= min(deadline, self.hard_deadline)

    def end_to_end(self, seconds: float) -> tuple[dict, list[PassResult]]:
        self.setup_launch()  # warm-up: writes the byte-code caches
        setup, passes = [], []
        deadline = time.perf_counter() + seconds
        while True:
            iteration_start = time.perf_counter()
            # Set-up launches are spread over the run, like the passes, so
            # that both sample the same stretch of machine time.
            setup += [self.setup_launch() for _ in range(SETUP_LAUNCHES_PER_PASS)]
            passes.append(self.run_pass(f"p{len(passes)}", traced=False))
            if not self._more(deadline, iteration_start):
                break
        walls = [p.wall_s for p in passes]
        metrics = {
            "wall_s": statistics.median(walls),
            "docs_per_s": statistics.median(self.planted.documents / w for w in walls),
            "peak_rss_mb": max(p.maxrss_kb for p in passes) / 1024,
            "setup_s": statistics.median(setup),
        }
        return metrics, passes

    def traced(self, seconds: float) -> tuple[dict, list[PassResult], list[str]]:
        """Alternate untraced and traced passes; per-layer metrics are the
        medians over the traced passes."""
        self.setup_launch()  # warm-up: writes the byte-code caches
        plain, traced = [], []
        deadline = time.perf_counter() + seconds
        while True:
            iteration_start = time.perf_counter()
            plain.append(self.run_pass(f"u{len(plain)}", traced=False))
            traced.append(self.run_pass(f"t{len(traced)}", traced=True))
            if not self._more(deadline, iteration_start):
                break
        per_pass = []
        for p in traced:
            layers = layer_metrics(merge_summaries(p.summaries))
            layers["trace.wall_s"] = p.wall_s
            per_pass.append(layers)
        untraced_wall = statistics.median(p.wall_s for p in plain)
        problems = []
        metrics = {}
        for name in per_pass[0]:
            values = [layers[name] for layers in per_pass]
            if name in EXACT and len(set(values)) != 1:
                problems.append(f"{name} differs between traced passes: {values}")
            metrics[name] = statistics.median(values)
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - untraced_wall
        metrics["tokens_per_s"] = metrics["tagging.tokens"] / untraced_wall
        for name, workloads in NONZERO_ON.items():
            if (metrics[name] != 0) != (self.wl.name in workloads):
                want = "non-zero" if self.wl.name in workloads else "zero"
                problems.append(f"{name} = {metrics[name]!r} on {self.wl.name}, want {want}")
        if self.wl.name in TEXT and metrics["ingest.rejects"] != len(self.planted.rejects):
            problems.append(f"ingest.rejects = {metrics['ingest.rejects']}, "
                            f"planted {len(self.planted.rejects)}")
        return metrics, plain + traced, problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    needed = [ROOT / "src" / "lexcite" / "cli.py", ROOT / "tools" / "gen_minicorpus.py",
              ROOT / "BENCHMARK.json"]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        print(f"benchmark: missing {', '.join(missing)}; run from a lexcite checkout",
              file=sys.stderr)
        return 2
    e2e_specs, layer_specs = load_metric_specs()

    wl = WORKLOADS[args.workload]
    work = WORK / wl.name
    if work.exists():
        shutil.rmtree(work)
    start = time.perf_counter()
    planted = wl.generate(work / "inputs", args.seed)
    print(f"generated {wl.name} seed={args.seed}: {planted.documents} documents, "
          f"{len(planted.rejects)} planted rejects, "
          f"{time.perf_counter() - start:.2f} s")
    bench = BenchRun(wl, work, planted, hard_deadline=start + HARD_LIMIT_S)

    problems: list[str] = []
    if args.trace:
        metrics, passes, problems = bench.traced(args.seconds)
        specs = layer_specs
    else:
        metrics, passes = bench.end_to_end(args.seconds)
        specs = e2e_specs
    if {s["name"] for s in specs} != set(metrics):
        raise SystemExit(f"metric names differ from BENCHMARK.json: "
                         f"{sorted(set(metrics) ^ {s['name'] for s in specs})}")

    for i, p in enumerate(passes):
        for stage, found in p.problems.items():
            problems += [f"pass {i} {stage}: {msg}" for msg in found]
    distinct = {json.dumps(p.digests, sort_keys=True) for p in passes}
    if len(distinct) != 1:
        problems.append(f"outputs differ between passes ({len(distinct)} digest sets)")
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)

    print(f"passes: {len(passes)}; pass wall s: "
          + " ".join(f"{p.wall_s:.3f}" for p in passes))
    for spec in specs:
        print(f"  {spec['name']:<36} {metrics[spec['name']]:>14.6g} {spec['unit']}")
    print("digests: " + json.dumps(passes[0].digests, sort_keys=True))
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    correct = not problems and failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {s["name"]: {"value": metrics[s["name"]], "unit": s["unit"]}
                    for s in specs},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
