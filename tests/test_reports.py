"""Report-row builders: fixed row order, GroupEmpty handling, subseeds, and
none forks."""

import math
import os
import tracemalloc

import numpy as np

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lexcite import parallel
from lexcite.cli import RunConfig, _joined_inputs
from lexcite.errors import JoinMismatch
from lexcite.impact import GROUP_ORDER, ImpactGroup, NormalizedScore
from lexcite.metrics import VARIABLE_COLUMNS
from lexcite.reports import (
    CDF_HEADER,
    COHORT_ORDER,
    GROUP_PAIRS,
    STATUS_GROUP_EMPTY,
    STATUS_OK,
    build_cdf_rows,
    build_comparison_rows,
    build_estimate_rows,
    build_regression_rows,
    group_samples,
    join_scores,
    stars_text,
    subseed,
)
from lexcite.stats import ecdf_steps
from lexcite.tableio import write_table

X1, X8 = 0, 7  # matrix columns of mean sentence length and adverb length


def make_corpus(rng, sizes=(6, 8, 10)):
    """Profile rows (doc_id, x1..x12) plus grouped scores: sizes = (High,
    Medium, Low) counts."""
    doc_ids, values, scores = [], [], []
    i = 0
    for group, size in zip(GROUP_ORDER, sizes):
        for _ in range(size):
            doc_id = f"d{i:03d}"
            doc_ids.append(doc_id)
            values.append(rng.uniform(1, 9, 12))
            scores.append(NormalizedScore(doc_id=doc_id,
                                          nc=float(rng.lognormal(0, 1)),
                                          group=group))
            i += 1
    return list(zip(doc_ids, np.array(values, dtype=float).reshape(-1, 12))), scores


def codes_of(rng, sizes=(6, 8, 10)):
    """make_corpus's joined values and the group code of each of their rows."""
    values, _, codes = join_scores(*make_corpus(rng, sizes))
    return values, codes


def every_variable(build, values, codes, *args):
    """build's rows for each variable in turn, from its group_samples, as
    compare makes them."""
    return [row for column in VARIABLE_COLUMNS
            for row in build(column, group_samples(values, codes, column), *args)]


class TestHelpers:
    def test_stars_text(self):
        assert stars_text(0) == ""
        assert stars_text(1) == "*"
        assert stars_text(3) == "***"
        with pytest.raises(ValueError):
            stars_text(4)

    def test_subseed_deterministic(self):
        assert subseed(0, 1, 0) == subseed(0, 1, 0)

    def test_subseed_distinct(self):
        seeds = {subseed(0, v, g) for v in range(1, 13) for g in range(3)}
        assert len(seeds) == 36

    def test_subseed_varies_with_root(self):
        assert subseed(0, 1, 0) != subseed(1, 1, 0)

    def test_group_samples_partitions(self):
        rng = np.random.default_rng(0)
        values, codes = codes_of(rng)
        samples = group_samples(values, codes, "x1")
        assert [len(samples[g][0]) for g in GROUP_ORDER] == [6, 8, 10]

    def test_group_samples_counts_absent(self):
        rng = np.random.default_rng(1)
        values, codes = codes_of(rng)
        values[0, X8] = np.nan  # doc in High
        samples = group_samples(values, codes, "x8")
        values, excluded = samples[ImpactGroup.HIGH]
        assert len(values) == 5
        assert excluded == 1

    def test_ungrouped_scores_excluded(self):
        rng = np.random.default_rng(2)
        profiles, scores = make_corpus(rng)
        scores[0] = NormalizedScore(doc_id=scores[0].doc_id, nc=scores[0].nc,
                                    group=None)
        values, _, codes = join_scores(profiles, scores)
        samples = group_samples(values, codes, "x1")
        assert len(samples[ImpactGroup.HIGH][0]) == 5

    def test_group_samples_keep_row_order(self):
        # groups interleaved in the file: each sample keeps file row order,
        # and unscored documents fall in no group
        column = [5.0, 12.0, 3.0, 9.0, 1.0, 7.0, 11.0, 2.0, 8.0, 4.0, 10.0, 6.0]
        values = np.array(column)[:, None] * np.ones((1, 12))
        values[4, X1] = np.nan
        doc_ids = tuple(f"d{i:02d}" for i in range(12))
        groups = [ImpactGroup.LOW, ImpactGroup.HIGH, ImpactGroup.LOW,
                  ImpactGroup.MEDIUM, ImpactGroup.LOW, ImpactGroup.HIGH,
                  None, ImpactGroup.MEDIUM, ImpactGroup.LOW, ImpactGroup.HIGH,
                  ImpactGroup.LOW]  # d11 has no score
        scores = [NormalizedScore(doc_id=d, nc=1.0, group=g)
                  for d, g in zip(doc_ids, groups)][::-1]
        values, _, codes = join_scores(zip(doc_ids, values), scores)
        samples = group_samples(values, codes, "x1")
        assert samples[ImpactGroup.HIGH][0].tolist() == [12.0, 7.0, 4.0]
        assert samples[ImpactGroup.MEDIUM][0].tolist() == [9.0, 2.0]
        assert samples[ImpactGroup.LOW][0].tolist() == [5.0, 3.0, 8.0, 10.0]
        assert samples[ImpactGroup.LOW][1] == 1


cells = st.one_of(st.sampled_from([math.nan, 0.0, -0.0, 1.5]),
                  st.floats(allow_nan=False, allow_infinity=False))


class TestJoin:
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_equals_plain_selection(self, data):
        """join_scores is the list-comprehension selection of the scored
        rows, in row order, to the bit; it raises JoinMismatch exactly when
        no profile has a score."""
        doc_ids = data.draw(st.lists(st.text("abcd", min_size=1, max_size=3),
                                     unique=True, max_size=8))
        rows = [(doc_id, data.draw(st.lists(cells, min_size=12, max_size=12)))
                for doc_id in doc_ids]
        scored = data.draw(st.lists(st.text("cdef", min_size=1, max_size=3),
                                    unique=True, max_size=8))
        scores = [NormalizedScore(doc_id, data.draw(st.floats(0, 1e6)),
                                  data.draw(st.sampled_from([None, *GROUP_ORDER])))
                  for doc_id in scored]
        score_of = {s.doc_id: s for s in scores}
        expected = [(cells, score_of[doc_id]) for doc_id, cells in rows if doc_id in score_of]
        if not expected:
            with pytest.raises(JoinMismatch):
                join_scores(iter(rows), scores)
            return
        values, nc, codes = join_scores(iter(rows), scores)
        assert values.shape == (len(expected), 12)
        assert values.tobytes() == np.array([c for c, _ in expected], dtype=float).tobytes()
        assert nc.tolist() == [s.nc for _, s in expected]
        assert codes.tolist() == [-1 if s.group is None else GROUP_ORDER.index(s.group)
                                  for _, s in expected]

    def test_scored_rows_in_file_order(self):
        values = np.arange(48, dtype=float).reshape(4, 12)
        values[2, X8] = np.nan
        scores = [NormalizedScore("d3", 3.0, ImpactGroup.LOW),
                  NormalizedScore("e9", 9.0, ImpactGroup.MEDIUM),  # no profile
                  NormalizedScore("d2", 2.0, None),
                  NormalizedScore("d0", 0.5, ImpactGroup.HIGH)]  # d1: no score
        joined, nc, codes = join_scores(zip(("d0", "d1", "d2", "d3"), values), scores)
        np.testing.assert_array_equal(joined, values[[0, 2, 3]])
        assert nc.tolist() == [0.5, 2.0, 3.0]
        assert codes.tolist() == [0, -1, 2]

    def test_join_mismatch(self):
        rng = np.random.default_rng(10)
        rows = zip((f"d{i:04d}" for i in range(5)), rng.uniform(0.5, 10, (5, 12)))
        scores = [NormalizedScore(doc_id="other", nc=1.0)]
        with pytest.raises(JoinMismatch):
            join_scores(rows, scores)


class TestComparisonRows:
    def test_row_order_and_count(self):
        rng = np.random.default_rng(3)
        values, codes = codes_of(rng)
        rows = every_variable(build_comparison_rows, values, codes)
        assert len(rows) == 36
        assert [r[0] for r in rows[:3]] == ["x1", "x1", "x1"]
        assert [r[1] for r in rows[:3]] == ["High-Medium", "High-Low",
                                            "Medium-Low"]
        assert rows[-1][0] == "x12"
        assert all(r[8] == STATUS_OK for r in rows)

    def test_sample_sizes_reported(self):
        rng = np.random.default_rng(4)
        values, codes = codes_of(rng, sizes=(3, 5, 7))
        rows = every_variable(build_comparison_rows, values, codes)
        high_medium = rows[0]
        assert (high_medium[5], high_medium[6]) == (3, 5)

    def test_group_empty_row(self):
        rng = np.random.default_rng(5)
        values, codes = codes_of(rng, sizes=(0, 5, 7))
        rows = every_variable(build_comparison_rows, values, codes)
        assert rows[0][1] == "High-Medium"
        assert rows[0][8] == STATUS_GROUP_EMPTY
        assert rows[0][2] is None and rows[0][3] is None and rows[0][4] == ""
        assert rows[2][8] == STATUS_OK  # Medium-Low unaffected

    def test_all_absent_variable_is_group_empty(self):
        rng = np.random.default_rng(6)
        values, codes = codes_of(rng, sizes=(2, 2, 2))
        values[:2, X8] = np.nan  # High docs lack x8
        rows = every_variable(build_comparison_rows, values, codes)
        x8_rows = [r for r in rows if r[0] == "x8"]
        assert x8_rows[0][8] == STATUS_GROUP_EMPTY  # High-Medium
        assert x8_rows[0][7] == 2  # both High docs excluded
        assert x8_rows[2][8] == STATUS_OK


class TestCdfRows:
    def test_heights_and_order(self):
        rng = np.random.default_rng(7)
        values, codes = codes_of(rng, sizes=(2, 2, 2))
        rows = every_variable(build_cdf_rows, values, codes)
        assert [r[0] for r in rows[:2]] == ["x1", "x1"]
        assert rows[0][1] == "High"
        by_key = {}
        for variable, group, x, f in rows:
            by_key.setdefault((variable, group), []).append((x, f))
        for steps in by_key.values():
            assert steps[-1][1] == pytest.approx(1.0)
            xs = [x for x, _ in steps]
            assert xs == sorted(xs)

    def test_empty_group_skipped(self):
        rng = np.random.default_rng(8)
        values, codes = codes_of(rng, sizes=(0, 2, 2))
        rows = every_variable(build_cdf_rows, values, codes)
        assert all(r[1] != "High" for r in rows)


class TestEstimateRows:
    def test_order_and_status(self):
        rng = np.random.default_rng(9)
        values, codes = codes_of(rng, sizes=(3, 3, 3))
        rows = every_variable(build_estimate_rows, values, codes, 200, 0.95, 0)
        assert len(rows) == 36
        assert [r[1] for r in rows[:3]] == ["High", "Medium", "Low"]
        assert all(r[7] == STATUS_OK for r in rows)
        for r in rows:
            assert r[3] <= r[2] <= r[4]  # ci_low <= point <= ci_high

    def test_empty_group_row(self):
        rng = np.random.default_rng(10)
        values, codes = codes_of(rng, sizes=(0, 3, 3))
        rows = every_variable(build_estimate_rows, values, codes, 100, 0.95, 0)
        assert rows[0][1] == "High"
        assert rows[0][7] == STATUS_GROUP_EMPTY
        assert rows[0][2] is None and rows[0][5] == 0

    def test_seed_isolation_per_variable(self):
        """Changing one variable's data must not shift another's interval."""
        rng = np.random.default_rng(11)
        values, codes = codes_of(rng, sizes=(4, 4, 4))
        before = every_variable(build_estimate_rows, values, codes, 300, 0.95, 7)
        values[:, X1] += 100.0
        after = every_variable(build_estimate_rows, values, codes, 300, 0.95, 7)
        assert before[0] != after[0]  # x1 rows moved
        assert before[3:] == after[3:]  # x2..x12 rows byte-for-byte stable

    def test_deterministic(self):
        rng = np.random.default_rng(12)
        values, codes = codes_of(rng, sizes=(3, 3, 3))
        a = every_variable(build_estimate_rows, values, codes, 200, 0.95, 5)
        b = every_variable(build_estimate_rows, values, codes, 200, 0.95, 5)
        assert a == b


def test_no_builder_forks(monkeypatch):
    """Every builder runs on a view of two CPUs, where the map would fork,
    without forking: only the stages that map do (`lexcite.cli`)."""
    def no_fork():
        raise AssertionError("a reports builder forked")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(os, "fork", no_fork)
    assert parallel.usable_cpus() == 2
    values, nc, codes = join_scores(*make_corpus(np.random.default_rng(17), (3, 5, 40)))
    assert len(every_variable(build_comparison_rows, values, codes)) == 36
    assert len(every_variable(build_cdf_rows, values, codes)) == 12 * 48
    assert len(every_variable(build_estimate_rows, values, codes, 100, 0.95, 0)) == 36
    assert len(build_regression_rows(values, nc, codes)) == 24


class TestRegressionRows:
    def test_order_and_shape(self):
        rng = np.random.default_rng(13)
        profiles, scores = make_corpus(rng, sizes=(40, 40, 40))
        rows = build_regression_rows(*join_scores(profiles, scores))
        assert len(rows) == 24
        assert [r[0] for r in rows[:4]] == [1, 1, 1, 1]
        assert [r[1] for r in rows[:4]] == list(COHORT_ORDER)
        assert rows[-1][:2] == [6, "Low"]

    def test_small_cohorts_non_estimable(self):
        rng = np.random.default_rng(14)
        profiles, scores = make_corpus(rng, sizes=(5, 9, 120))
        rows = build_regression_rows(*join_scores(profiles, scores))
        m1 = {r[1]: r for r in rows if r[0] == 1}
        assert m1["High"][2] == "-"  # 5 rows < 91 columns
        assert m1["Low"][2] != "-"
        m5 = {r[1]: r for r in rows if r[0] == 5}
        assert m5["Medium"][2] == "-"  # 9 rows < 13 columns
        assert isinstance(m1["all"][2], float)

    def test_empty_cohort_row(self):
        rng = np.random.default_rng(15)
        profiles, scores = make_corpus(rng, sizes=(0, 20, 120))
        rows = build_regression_rows(*join_scores(profiles, scores))
        high_rows = [r for r in rows if r[1] == "High"]
        assert all(r[2] == "-" and r[3] == 0 and r[4] == 0 for r in high_rows)

    def test_zero_nc_drops_counted_in_log_models(self):
        rng = np.random.default_rng(16)
        profiles, scores = make_corpus(rng, sizes=(0, 0, 60))
        for i in range(4):
            scores[i] = NormalizedScore(doc_id=scores[i].doc_id, nc=0.0,
                                        group=scores[i].group)
        rows = build_regression_rows(*join_scores(profiles, scores))
        by_model = {r[0]: r for r in rows if r[1] == "all"}
        assert by_model[5][4] == 0
        assert by_model[6][4] == 4
        assert by_model[6][3] == 56

    def test_group_pairs_constant(self):
        assert [f"{a.value}-{b.value}" for a, b in GROUP_PAIRS] == \
            ["High-Medium", "High-Low", "Medium-Low"]


def traced_peak(run):
    """run's result and the peak of the memory it allocated, numpy's arrays
    included, as tracemalloc counts it."""
    tracemalloc.start()
    try:
        result = run()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestStreamedMemory:
    """Tables stream: reading and joining a 10 k-row profiles.csv and
    scores.csv, and writing the cdf.csv of their 12 x 10 k values, peak at a
    fraction of what holding a table's text or rows would take."""

    N = 10_000

    @pytest.fixture(scope="class")
    def config(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("stream")
        rng = np.random.default_rng(11)
        values = rng.lognormal(size=(self.N, 12))
        values[::50, X8] = np.nan  # 2% Absent adverb lengths
        doc_ids = [f"doc{i:05d}" for i in range(self.N)]
        write_table(out / "profiles.csv", ["doc_id", *VARIABLE_COLUMNS],
                    ([doc_id, *(None if math.isnan(v) else v for v in row)]
                     for doc_id, row in zip(doc_ids, values.tolist())),
                    {"tool": "lexcite"})
        rank = rng.permutation(self.N)  # 1% High, 9% Medium, the rest Low
        groups = np.where(rank < self.N // 100, "High",
                          np.where(rank < self.N // 10, "Medium", "Low"))
        write_table(out / "scores.csv", ["doc_id", "nc", "group"],
                    ([doc_id, nc, group] for doc_id, nc, group in
                     zip(doc_ids, rng.exponential(size=self.N).tolist(), groups.tolist())),
                    {"tool": "lexcite"})
        return RunConfig(out=out)

    def test_read_and_join_below_three_times_the_file(self, config):
        (values, nc, codes), peak = traced_peak(lambda: _joined_inputs(config))
        assert values.shape == (self.N, 12) and len(nc) == len(codes) == self.N
        assert peak < 3 * (config.out / "profiles.csv").stat().st_size

    def test_cdf_write_below_half_the_file(self, config):
        values, _, codes = _joined_inputs(config)
        ecdf_steps([1.0])  # numpy loads what ecdf_steps needs on its first call
        path = config.out / "cdf.csv"
        rows = (row for column in VARIABLE_COLUMNS
                for row in build_cdf_rows(column, group_samples(values, codes, column)))
        _, peak = traced_peak(lambda: write_table(path, CDF_HEADER, rows, config.metadata()))
        assert path.stat().st_size > 4_000_000  # about 12 x 10 k step rows
        assert peak < 0.5 * path.stat().st_size
