"""Tests of the benchmark harness itself (not part of lexcite's suite).

    python3 -m pytest benchmark/test_harness.py

They run each workload at a tiny size with one untraced and one traced
pass, and check that the tracer sees every layer where the workload uses
it and nothing where the workload bypasses it.
"""

from __future__ import annotations

import dataclasses
import sys
import time
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
from tracer import Tracer, layer_metrics, merge_summaries  # noqa: E402

TINY = {"fulltext-run": 40, "tagged-import": 40, "stats-rerun": 400}


def tiny_run(name: str, tmp_path: Path) -> run.BenchRun:
    wl = dataclasses.replace(run.WORKLOADS[name], size=TINY[name])
    planted = wl.generate(tmp_path / "inputs", seed=5)
    return run.BenchRun(wl, tmp_path, planted, hard_deadline=time.perf_counter() + 120)


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_layer_pattern_and_checks(name, tmp_path):
    metrics, passes, problems = tiny_run(name, tmp_path).traced(seconds=0)
    assert problems == []
    assert all(p.failed == 0 and not p.problems for p in passes)
    assert passes[0].digests == passes[1].digests
    assert set(metrics) == set(run.NONZERO_ON) | {"trace.overhead_s"}


def test_check_catches_wrong_group_sizes(tmp_path):
    bench = tiny_run("stats-rerun", tmp_path)
    assert bench.run_pass("p0", traced=False).problems == {}
    scores = tmp_path / "out" / "scores.csv"
    scores.write_text(scores.read_text(encoding="utf-8").replace(",Low", ",High", 1),
                      encoding="utf-8")
    found = checks.check_outputs(["group"], tmp_path / "out", bench.planted)
    assert "group" in found


def test_tracer_rebinds_every_binding():
    import lexcite.cli
    import lexcite.reports
    import lexcite.stats
    import lexcite.tagging

    originals = (lexcite.tagging.tag_document, lexcite.cli._STAGE_FUNCS["tag"],
                 lexcite.stats.bootstrap_mean_ci, lexcite.tagging.Token.__dict__["from_surface"])
    tracer = Tracer()
    tracer.install()
    try:
        wrapped = lexcite.tagging.tag_document
        assert wrapped is not originals[0]
        assert lexcite.cli.tag_document is wrapped
        assert lexcite.cli._STAGE_FUNCS["tag"] is lexcite.cli.stage_tag is not originals[1]
        assert lexcite.reports.bootstrap_mean_ci is lexcite.stats.bootstrap_mean_ci
        assert lexcite.reports.bootstrap_mean_ci is not originals[2]
        for module in (lexcite.cli, lexcite.reports, lexcite.stats, lexcite.tagging):
            assert not any(v is o for v in vars(module).values() for o in originals)
        lexcite.tagging.tokenize("Two words.")
        assert tracer.counts["tagging.token_objects"] == 3
    finally:
        tracer.uninstall()
    assert lexcite.tagging.tag_document is originals[0]
    assert lexcite.cli.tag_document is originals[0]
    assert lexcite.cli._STAGE_FUNCS["tag"] is originals[1]
    assert lexcite.reports.bootstrap_mean_ci is originals[2]
    assert lexcite.tagging.Token.__dict__["from_surface"] is originals[3]


def test_self_time_subtracts_children():
    tracer = Tracer()
    tracer.spans = [["cli.tag", 0.0, 10.0, -1],
                    ["tagging.tag_document", 1.0, 9.0, 0],
                    ["tagging.tokenize", 2.0, 4.0, 1],
                    ["tagging.tagger", 5.0, 6.0, 1]]
    metrics = layer_metrics(merge_summaries([tracer.summary()]))
    assert metrics["cli.tag.s"] == 10.0
    assert metrics["tagging.tag_document.self_s"] == 5.0
    assert metrics["tagging.tokenize.s"] == 2.0
    assert metrics["tagging.tagger.calls"] == 1
