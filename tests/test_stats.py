"""ECDF, KS test, bootstrap, and the six regression model families."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from lexcite.errors import DegenerateResponseWarning, EmptySample
from lexcite.impact import NormalizedScore
from lexcite.reports import join_scores
from lexcite.stats import (
    ITERATIONS_MAX,
    MODEL_IDS,
    _expand_design,
    bootstrap_mean_ci,
    ecdf_steps,
    fit_model,
    ks_asymptotic_p,
    ks_two_sample,
    stars_for_p,
)

X5, X6, X8 = 4, 5, 7  # matrix columns of noun, verb and adverb length


def rand_values(rng, n):
    """n profiles of 12 values each, drawn row by row."""
    return np.array([rng.uniform(0.5, 10, 12) for _ in range(n)])


class TestEcdf:
    def test_midpoint(self):
        # F(1) = 2/3: the step at 1 covers two of three values
        assert ecdf_steps([1, 1, 2])[0] == (1.0, pytest.approx(2 / 3))

    def test_below_and_above(self):
        # no step below the smallest value; the last step reaches 1
        steps = ecdf_steps([3, 1, 2])
        assert steps == [(1.0, pytest.approx(1 / 3)), (2.0, pytest.approx(2 / 3)),
                         (3.0, 1.0)]
        assert all(isinstance(x, float) and isinstance(f, float)
                   for x, f in steps)

    def test_empty(self):
        with pytest.raises(EmptySample):
            ecdf_steps([])

    def test_steps(self):
        steps = ecdf_steps([2, 1, 2])
        assert steps == [(1.0, pytest.approx(1 / 3)), (2.0, 1.0)]

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.sampled_from([-2.5, -0.0, 0.0, 1e-300, 1 / 3, 0.1, 7.0, 1e300]),
                    min_size=1, max_size=60),
           st.lists(st.floats(allow_nan=False), max_size=20))
    def test_heights_are_the_scalar_division(self, ties, others):
        # counts / n in numpy is float(count) / n in Python, bit for bit; a
        # step is the first element of a run of the sort, plus 0.0
        sample = ties + others
        data = np.sort(np.asarray(sample, dtype=float)).tolist()
        starts = [i for i in range(len(data)) if i == 0 or data[i - 1] != data[i]]
        want = [(data[i] + 0.0, float(c) / len(data))
                for i, c in zip(starts, [*starts[1:], len(data)])]
        got = ecdf_steps(sample)
        assert [(x.hex(), f.hex()) for x, f in got] == [(x.hex(), f.hex()) for x, f in want]

    @pytest.mark.parametrize("sample", [[-0.0], [0.0, -0.0, 0.0],
                                        [-2.5] + [0.0] * 8 + [-0.0]])
    def test_zero_step_is_positive_zero(self, sample):
        # -0.0 and 0.0 are one run, written as 0.0 whichever zero the sort
        # put first, and its height covers the whole run
        zero_steps = [(x.hex(), f) for x, f in ecdf_steps(sample) if x == 0.0]
        assert zero_steps == [("0x0.0p+0", sum(x <= 0.0 for x in sample) / len(sample))]

    def test_steps_reach_one(self):
        rng = np.random.default_rng(5)
        sample = list(rng.normal(size=40))
        steps = ecdf_steps(sample)
        assert steps[-1][1] == pytest.approx(1.0)
        heights = [f for _, f in steps]
        assert heights == sorted(heights)


class TestKs:
    def test_identical_samples(self):
        res = ks_two_sample([1, 2, 3, 4], [1, 2, 3, 4])
        assert res.d_statistic == 0.0
        assert res.p_value == pytest.approx(1.0)
        assert res.stars == 0

    def test_interleaved_hand_value(self):
        # ECDF gap at x=1 is 1/3 - 0, and stays 1/3 at every later point
        res = ks_two_sample([1, 3, 5], [2, 4, 6])
        assert res.d_statistic == pytest.approx(1 / 3)

    def test_disjoint_samples(self):
        res = ks_two_sample([1, 2], [10, 20])
        assert res.d_statistic == 1.0

    def test_symmetry_and_range(self):
        rng = np.random.default_rng(77)
        for _ in range(300):
            a = list(rng.normal(size=rng.integers(1, 12)))
            b = list(rng.normal(size=rng.integers(1, 12)))
            ab = ks_two_sample(a, b)
            ba = ks_two_sample(b, a)
            assert ab.d_statistic == pytest.approx(ba.d_statistic)
            assert ab.p_value == pytest.approx(ba.p_value)
            assert 0.0 <= ab.d_statistic <= 1.0
            assert 0.0 <= ab.p_value <= 1.0

    def test_d_exhaustive_small_samples(self):
        """D equals brute-force max gap over a dense evaluation grid."""
        rng = np.random.default_rng(11)
        for _ in range(60):
            n1, n2 = rng.integers(1, 9), rng.integers(1, 9)
            a = sorted(rng.integers(0, 6, n1).tolist())
            b = sorted(rng.integers(0, 6, n2).tolist())
            grid = sorted(set(a) | set(b))
            brute = max(abs(sum(v <= x for v in a) / len(a)
                            - sum(v <= x for v in b) / len(b)) for x in grid)
            assert ks_two_sample(a, b).d_statistic == pytest.approx(brute)

    def test_empty_sample(self):
        with pytest.raises(EmptySample):
            ks_two_sample([], [1.0])

    def test_p_non_increasing_in_d(self):
        # at fixed sizes, a larger D must not give a larger p
        res_small = ks_two_sample([1, 2, 3, 4], [1.5, 2.5, 3.5, 4.5])
        res_large = ks_two_sample([1, 2, 3, 4], [10, 20, 30, 40])
        assert res_large.d_statistic > res_small.d_statistic
        assert res_large.p_value <= res_small.p_value

    def test_lambda_guard(self):
        assert ks_asymptotic_p(0.0) == 1.0
        assert ks_asymptotic_p(1e-5) == 1.0

    def test_asymptotic_series_value(self):
        # lambda = 1: p = 2 * sum (-1)^(k-1) exp(-2 k^2)
        expected = 2 * sum((-1) ** (k - 1) * math.exp(-2 * k * k)
                           for k in range(1, 40))
        assert ks_asymptotic_p(1.0) == pytest.approx(expected, abs=1e-12)

    def test_stars_thresholds(self):
        assert stars_for_p(0.0005) == 3
        assert stars_for_p(0.001) == 3
        assert stars_for_p(0.005) == 2
        assert stars_for_p(0.01) == 2
        assert stars_for_p(0.03) == 1
        assert stars_for_p(0.05) == 1
        assert stars_for_p(0.051) == 0
        assert stars_for_p(1.0) == 0


class TestBootstrap:
    def test_reproducible(self):
        sample = [1.0, 2.0, 3.0, 4.0, 5.0]
        a = bootstrap_mean_ci(sample, iterations=2000, level=0.95, seed=9)
        b = bootstrap_mean_ci(sample, iterations=2000, level=0.95, seed=9)
        assert a == b

    def test_seed_changes_interval(self):
        sample = list(np.random.default_rng(0).normal(size=30))
        a = bootstrap_mean_ci(sample, iterations=2000, seed=1)
        b = bootstrap_mean_ci(sample, iterations=2000, seed=2)
        assert (a.ci_low, a.ci_high) != (b.ci_low, b.ci_high)

    def test_point_is_sample_mean(self):
        sample = [1.0, 2.0, 6.0]
        est = bootstrap_mean_ci(sample, iterations=100, seed=0)
        assert est.point == pytest.approx(3.0)

    def test_constant_sample_zero_width(self):
        est = bootstrap_mean_ci([4.2] * 10, iterations=500, seed=3)
        assert est.ci_low == est.ci_high == est.point
        assert est.point == pytest.approx(4.2)

    def test_interval_brackets_point_usually(self):
        sample = list(np.random.default_rng(4).normal(10, 2, 100))
        est = bootstrap_mean_ci(sample, iterations=2000, seed=5)
        assert est.ci_low <= est.point <= est.ci_high
        assert est.ci_high - est.ci_low < 2.0

    def test_level_widens_interval(self):
        sample = list(np.random.default_rng(6).normal(0, 1, 50))
        narrow = bootstrap_mean_ci(sample, iterations=4000, level=0.80, seed=7)
        wide = bootstrap_mean_ci(sample, iterations=4000, level=0.99, seed=7)
        assert wide.ci_low <= narrow.ci_low
        assert wide.ci_high >= narrow.ci_high

    def test_nearest_rank_tiny_sample(self):
        # 2 values, 4 resamples: means enumerable, ranks checkable by hand
        est = bootstrap_mean_ci([0.0, 10.0], iterations=4, level=0.5, seed=12)
        rng = np.random.default_rng(12)
        idx = rng.integers(0, 2, size=(4, 2))
        means = sorted(np.array([0.0, 10.0])[idx].mean(axis=1))
        # alpha = 0.25: rank ceil(0.25*4) = 1, ceil(0.75*4) = 3
        assert est.ci_low == means[0]
        assert est.ci_high == means[2]

    def test_chunking_invariant(self, monkeypatch):
        """Estimates do not depend on how the draws are split into blocks:
        one row per block, the default block size (several blocks here),
        2^18 cells (two blocks) and 2 M cells (one block), for odd and even
        n. Generator.integers must give the same stream however the draws
        are split into calls."""
        import lexcite.stats as stats_mod

        default = stats_mod._BOOTSTRAP_BLOCK_CELLS
        assert 64 < default < 5000 * 63 // 2
        for n in (63, 64):
            sample = np.random.default_rng(8).normal(size=n)
            results = []
            for cells in (n, default, 2 ** 18, 2_000_000):
                monkeypatch.setattr(stats_mod, "_BOOTSTRAP_BLOCK_CELLS", cells)
                results.append(bootstrap_mean_ci(sample, iterations=5000, seed=13))
            assert results[0] == results[1] == results[2] == results[3]

    def test_empty_sample(self):
        with pytest.raises(EmptySample):
            bootstrap_mean_ci([], iterations=10, seed=0)

    def test_bad_iterations(self):
        with pytest.raises(ValueError):
            bootstrap_mean_ci([1.0], iterations=0, seed=0)

    def test_iterations_bounded(self):
        """The replicate means take 8 bytes an iteration, so the bound keeps
        them to 80 MB; above it nothing is allocated."""
        with pytest.raises(ValueError, match="^iterations must be <= 10000000$"):
            bootstrap_mean_ci([1.0], iterations=ITERATIONS_MAX + 1, seed=0)
        with pytest.raises(ValueError, match="^iterations must be <= 10000000$"):
            bootstrap_mean_ci([1.0], iterations=10 ** 20, seed=0)

    @pytest.mark.parametrize("level", [0.0, 1.0, math.nan])
    def test_bad_level(self, level):
        with pytest.raises(ValueError, match="^level must be strictly between 0 and 1$"):
            bootstrap_mean_ci([1.0, 2.0], iterations=10, level=level, seed=0)


# A bootstrap subseed, as reports.subseed(1, 0, 0) derives it.
SUBSEED = 5942101179225861032


class TestDrawStream:
    """Known answers for the draws every estimates.csv rests on, as numpy
    2.4.6 gives them. NEP 19 keeps a bit generator's raw stream stable
    across numpy versions but lets Generator methods change their
    algorithm; an upgrade that changes either fails here, instead of
    silently changing the bootstrap intervals."""

    @pytest.mark.parametrize("seed, raw", [
        (0, [11749869230777074271, 4976686463289251617, 755828109848996024]),
        (1, [9441442522235856127, 17532960557476522086, 2659275481604167885]),
        (SUBSEED, [14234197762657658048, 12191871809904778119, 12578548287453706349]),
    ])
    def test_pcg64_raw_stream(self, seed, raw):
        bits = np.random.PCG64(np.random.SeedSequence(seed))
        assert bits.random_raw(3).tolist() == raw

    @pytest.mark.parametrize("seed, n, draws", [
        (0, 17, [14, 10, 8, 4, 5, 0]),
        (1, 162, [76, 82, 122, 153, 5, 23]),
        (SUBSEED, 1618, [1579, 1248, 1368, 1069, 1616, 1103]),
        (0, 32760, [27866, 20866, 16744, 8838, 10084, 1342]),
        (SUBSEED, 32760, [31975, 25278, 27701, 21651, 32731, 22338]),
    ])
    def test_generator_integers(self, seed, n, draws):
        """The draws of bootstrap_mean_ci: indices into a sample of size n."""
        rng = np.random.default_rng(seed)
        assert rng.integers(0, n, size=(2, 3)).ravel().tolist() == draws


class TestRSquared:
    """R-squared as fit_model reports it: 1 - SS_res / SS_tot."""

    def test_perfect(self):
        rng = np.random.default_rng(20)
        values = rand_values(rng, 30)
        nc = 3.0 + values @ rng.uniform(-1, 1, 12)
        fit = fit_model(values, nc, 5)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-9)

    def test_constant_prediction(self):
        # a response orthogonal to every predictor is fitted by its mean
        rng = np.random.default_rng(21)
        values = rand_values(rng, 30)
        design = np.column_stack([np.ones(30), values])
        noise = rng.normal(0, 1, 30)
        residual = noise - design @ np.linalg.lstsq(design, noise, rcond=None)[0]
        fit = fit_model(values, 5.0 + residual, 5)
        assert fit.status == "Estimable"
        assert fit.r_squared == pytest.approx(0.0, abs=1e-9)

    def test_hand_value(self):
        # the same R-squared as a plain least-squares fit on the raw columns
        rng = np.random.default_rng(22)
        values = rand_values(rng, 40)
        y = rng.lognormal(0, 1, 40)
        design = np.column_stack([np.ones(40), values])
        yhat = design @ np.linalg.lstsq(design, y, rcond=None)[0]
        expected = 1.0 - np.sum((y - yhat) ** 2) / np.sum((y - y.mean()) ** 2)
        fit = fit_model(values, y, 5)
        assert fit.r_squared == pytest.approx(expected, abs=1e-12)

    def test_length_mismatch(self):
        # profiles without a score are left out of the fit, uncounted
        rng = np.random.default_rng(23)
        values = rand_values(rng, 30)
        doc_ids = tuple(f"d{i:04d}" for i in range(30))
        scores = [NormalizedScore(doc_id=doc_id, nc=float(v))
                  for doc_id, v in zip(doc_ids, rng.lognormal(0, 1, 30))][:20]
        joined, nc, _ = join_scores(zip(doc_ids, values), scores)
        fit = fit_model(joined, nc, 5)
        alone = fit_model(values[:20], nc, 5)
        assert (fit.n_used, fit.n_dropped_absent) == (20, 0)
        assert fit.r_squared == alone.r_squared

    def test_degenerate_response(self):
        # a constant log response (every score 1) warns and reports 0
        rng = np.random.default_rng(24)
        values = rand_values(rng, 20)
        with pytest.warns(DegenerateResponseWarning):
            fit = fit_model(values, np.full(20, 1.0), 6)
        assert (fit.status, fit.r_squared) == ("Estimable", 0.0)

    @pytest.mark.parametrize("score", [3.0, 0.7, 2.5])
    @pytest.mark.parametrize("model_id", [2, 4, 5, 6])
    def test_inexact_constant_response(self, score, model_id):
        # the mean of equal floats (or of their logs) can miss them by an
        # ulp; the response is still constant, so R-squared is 0, not noise
        rng = np.random.default_rng(20)
        values = rand_values(rng, 30)
        with pytest.warns(DegenerateResponseWarning):
            fit = fit_model(values, np.full(30, score), model_id)
        assert (fit.status, fit.r_squared) == ("Estimable", 0.0)


class TestDesignMatrix:
    def test_column_counts(self):
        # a design is NonEstimable with one row fewer than its columns
        rng = np.random.default_rng(1)
        for model_id, expected in ((1, 91), (2, 25), (3, 91), (4, 25),
                                   (5, 13), (6, 13)):
            for n_rows, status in ((expected - 1, "NonEstimable"),
                                   (expected, "Estimable")):
                values = rand_values(rng, n_rows)
                nc = rng.lognormal(0, 1, n_rows)
                fit = fit_model(values, nc, model_id)
                assert (fit.status, fit.n_used) == (status, n_rows)

    def test_absent_rows_dropped(self):
        rng = np.random.default_rng(2)
        values = rand_values(rng, 20)
        values[1, X8] = np.nan
        fit = fit_model(values, rng.lognormal(0, 1, 20), 5)
        assert fit.n_used == 19
        assert fit.n_dropped_absent == 1

    def test_all_absent_is_non_estimable(self):
        rng = np.random.default_rng(3)
        values = rand_values(rng, 2)
        values[:, X5] = np.nan
        fit = fit_model(values, np.array([1.0, 2.0]), 5)
        assert (fit.status, fit.r_squared) == ("NonEstimable", None)
        assert (fit.n_used, fit.n_dropped_zero_nc, fit.n_dropped_absent) == (0, 0, 2)

    def test_standardize_preserves_span(self):
        # an affine rescaling of the predictors leaves the fit unchanged
        rng = np.random.default_rng(4)
        values = rand_values(rng, 40)
        nc = rng.lognormal(0, 1, 40)
        rescaled = values * 3.0 + 7.0
        raw = fit_model(values, nc, 2)
        std = fit_model(rescaled, nc, 2)
        assert raw.r_squared == pytest.approx(std.r_squared, abs=1e-9)

    @settings(max_examples=60, deadline=None)
    @given(hnp.arrays(float, st.tuples(st.integers(0, 30), st.just(12)),
                      elements=st.floats(-1e200, 1e200)),
           st.sampled_from(MODEL_IDS))
    def test_design_filled_in_place_is_column_stack(self, base, model_id):
        # the columns, their order and their bits are those of stacking them
        with np.errstate(all="ignore"):
            cols = [np.ones(len(base)), *base.T]
            if model_id in (1, 2, 3, 4):
                cols += [base[:, i] ** 2 for i in range(12)]
            if model_id in (1, 3):
                cols += [base[:, i] * base[:, j] for i in range(12) for j in range(i + 1, 12)]
            want = np.column_stack(cols)
            got = _expand_design(base, model_id)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    def test_bad_model_id(self):
        rng = np.random.default_rng(5)
        values = rand_values(rng, 20)
        with pytest.raises(ValueError):
            fit_model(values, np.full(20, 1.0), 7)


class TestFitModel:
    def test_planted_linear_m5(self):
        rng = np.random.default_rng(5150)
        values = rand_values(rng, 60)
        coef = rng.uniform(-1.5, 1.5, 12)
        nc = np.array([float(40 + coef @ x) for x in values])
        fit = fit_model(values, nc, 5)
        assert fit.status == "Estimable"
        assert fit.r_squared == pytest.approx(1.0, abs=1e-9)

    def test_planted_quadratic_m1(self):
        rng = np.random.default_rng(99)
        values = rand_values(rng, 120)
        nc = np.array([50 + 0.3 * x[0] ** 2 + 0.5 * x[1] * x[2] - 1.2 * x[3]
                       for x in values])
        fit = fit_model(values, nc, 1)
        assert fit.status == "Estimable"
        assert fit.r_squared == pytest.approx(1.0, abs=1e-9)

    def test_non_estimable_underdetermined(self):
        rng = np.random.default_rng(6)
        values = rand_values(rng, 17)
        nc = rng.lognormal(0, 1, 17)
        fit = fit_model(values, nc, 1)
        assert fit.status == "NonEstimable"
        assert fit.r_squared is None
        assert fit.n_used == 17

    def test_non_estimable_rank_deficient(self):
        rng = np.random.default_rng(7)
        values = rand_values(rng, 40)
        values[:, X6] = values[:, X5]  # duplicate a predictor
        nc = rng.lognormal(0, 1, 40)
        fit = fit_model(values, nc, 5)
        assert fit.status == "NonEstimable"
        assert fit.r_squared is None

    def test_log_models_drop_zero_nc(self):
        rng = np.random.default_rng(8)
        values = rand_values(rng, 40)
        nc = rng.lognormal(0, 1, 40)
        nc[:5] = 0.0
        fit = fit_model(values, nc, 6)
        assert fit.n_dropped_zero_nc == 5
        assert fit.n_used == 35
        linear_fit = fit_model(values, nc, 5)
        assert linear_fit.n_dropped_zero_nc == 0
        assert linear_fit.n_used == 40

    def test_absent_rows_counted(self):
        rng = np.random.default_rng(9)
        values = rand_values(rng, 30)
        values[0:2, X8] = np.nan
        nc = rng.lognormal(0, 1, 30)
        fit = fit_model(values, nc, 5)
        assert fit.n_dropped_absent == 2
        assert fit.n_used == 28

    def test_all_rows_zero_nc_for_log_model(self):
        rng = np.random.default_rng(11)
        values = rand_values(rng, 5)
        nc = np.full(5, 0.0)
        fit = fit_model(values, nc, 3)
        assert (fit.status, fit.r_squared) == ("NonEstimable", None)
        assert (fit.n_used, fit.n_dropped_zero_nc, fit.n_dropped_absent) == (0, 5, 0)

    def test_constant_response_warns_r2_zero(self):
        rng = np.random.default_rng(12)
        values = rand_values(rng, 20)
        nc = np.full(20, 2.5)
        with pytest.warns(DegenerateResponseWarning):
            fit = fit_model(values, nc, 5)
        assert fit.r_squared == 0.0
        assert fit.status == "Estimable"

    def test_nesting_inequalities(self):
        rng = np.random.default_rng(5150)
        for _ in range(20):
            values = rand_values(rng, 120)
            nc = rng.lognormal(0, 1, 120)
            r = {m: fit_model(values, nc, m).r_squared
                 for m in (1, 2, 3, 4, 6)}
            assert r[1] >= r[2] - 1e-9
            assert r[3] >= r[4] - 1e-9
            assert r[4] >= r[6] - 1e-9

    def test_r2_clamped(self):
        rng = np.random.default_rng(13)
        values = rand_values(rng, 50)
        nc = rng.lognormal(0, 1, 50)
        for model_id in (1, 2, 3, 4, 5, 6):
            fit = fit_model(values, nc, model_id)
            if fit.r_squared is not None:
                assert 0.0 <= fit.r_squared <= 1.0


@st.composite
def fit_inputs(draw):
    """n x 12 finite values, n from 0 to 40, with some NaN (Absent) cells
    and some constant columns, and n finite scores nc >= 0."""
    n = draw(st.integers(0, 40))
    cell = st.floats(-1e308, 1e308) | st.floats(0.5, 10.0) | st.just(np.nan)
    values = draw(hnp.arrays(np.float64, (n, 12), elements=cell))
    for column in draw(st.sets(st.integers(0, 11), max_size=12)):
        values[:, column] = draw(st.floats(-1e308, 1e308))
    nc = draw(hnp.arrays(np.float64, n, elements=st.floats(0.0, 1e308)
                         | st.floats(0.0, 10.0)))
    return values, nc


class TestFitModelTotal:
    @settings(max_examples=50, deadline=None)
    @given(fit_inputs())
    def test_answers_every_finite_input(self, inputs):
        values, nc = inputs
        for model_id in MODEL_IDS:
            fit = fit_model(values, nc, model_id)
            assert (fit.r_squared is None) == (fit.status == "NonEstimable")
            if fit.r_squared is not None:
                assert 0.0 <= fit.r_squared <= 1.0
            assert (fit.n_used + fit.n_dropped_zero_nc + fit.n_dropped_absent
                    == len(values))
