"""Exact referees for the columns that compare and regress write.

Every float is a dyadic rational, so fractions.Fraction computes each of
these statistics exactly from the same inputs:
- cdf.csv `f` is count / n, and must be that fraction correctly rounded;
- comparison.csv `d` is the supremum over the pooled points of the gap
  between the two ECDFs. Each ECDF height is rounded once and their
  difference once more, so `d` may be off by at most 3/4 of an ulp of 1.0
  (2**-52); the referee measured at most 0.53 of it on generated samples;
- estimates.csv `point` is numpy's mean, within 2 ulps of the correctly
  rounded mean on the bundled corpus's run. It is not within 2 ulps on
  every sample: the mean of [24.652, 47.389, 1.41, 0.094, 0.023] is 3 ulps
  off, so generated samples are not held to that bound;
- regression.csv `r_squared` is the OLS R-squared of the float design and
  response that fit_model builds, taken as exact rationals. The referee
  gets it from two determinants of integer Gram matrices (Bareiss
  elimination), and a singular Gram matrix is an exactly rank-deficient
  design, which must be NonEstimable. The bound scales with the design's
  2-norm condition number kappa: |R2 - exact| <= R2_BOUND * kappa * eps *
  sum(y**2) / sum((y - mean y)**2), eps = 2**-52. Over 10,200 designs of
  every family from generated_design (kappa up to 1.5e14) the error
  measured at most 1.3 of kappa * eps * that ratio, and at most 0.10 of it
  where kappa exceeds 100. Where kappa nears 1 / (eps * rows), float rank
  and exact rank may disagree: one more design, 10 x 10 with kappa 4.6e14,
  was NonEstimable to fit_model and of full exact rank. The seeds below
  draw no such design, and a column an ulp from constant is not drawn.
"""
import math
from fractions import Fraction
from importlib.resources import files
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lexcite.cli import main
from lexcite.errors import GroupEmptyWarning
from lexcite.impact import GROUP_ORDER
from lexcite.metrics import VARIABLE_COLUMNS
from lexcite.reports import build_cdf_rows, build_comparison_rows
from lexcite.stats import (MODEL_IDS, _LOG_RESPONSE_MODELS, _expand_design,
                           _standardize, fit_model)
from lexcite.tableio import read_table

MINICORPUS = Path(str(files("lexcite").joinpath("data", "minicorpus")))

D_BOUND = Fraction(3, 4) * Fraction(2.0 ** -52)
R2_BOUND = 4


def exact_height(sample: list[float], x: float) -> Fraction:
    return Fraction(sum(value <= x for value in sample), len(sample))


def exact_sup_gap(a: list[float], b: list[float]) -> Fraction:
    return max(abs(exact_height(a, x) - exact_height(b, x)) for x in set(a) | set(b))


def ulps_from_mean(point: float, sample: list[float]) -> Fraction:
    """How many ulps point is from the correctly rounded mean of sample."""
    mean = float(sum(map(Fraction, sample)) / len(sample))  # int / int rounds once
    return abs(Fraction(point) - Fraction(mean)) / Fraction(math.ulp(mean))


def check_cdf(samples: dict, rows) -> int:
    """Every step of every sample is a row, at its value and with the exact
    height; return the count of rows checked."""
    steps = {}
    for column, group, x, f in rows:
        sample = samples[column, group]
        assert f == float(exact_height(sample, x)), (column, group, x)
        steps.setdefault((column, group), []).append(x)
    for key, xs in steps.items():
        assert xs == sorted({value + 0.0 for value in samples[key]})
    assert set(steps) == {key for key, sample in samples.items() if sample}
    return sum(map(len, steps.values()))


def check_d(samples: dict, rows) -> int:
    """Every d within D_BOUND of the exact supremum; return the count."""
    checked = 0
    for column, pair, d, *_ in rows:
        a, b = (samples[column, group] for group in pair.split("-"))
        if d is None:
            assert not (a and b)
            continue
        assert abs(Fraction(d) - exact_sup_gap(a, b)) <= D_BOUND, (column, pair)
        checked += 1
    return checked


def samples_of(values: np.ndarray, codes: np.ndarray) -> dict:
    """(variable, group name) -> the present values, in row order."""
    return {(column, group.value): [v for v in values[codes == code, j].tolist()
                                    if not math.isnan(v)]
            for j, column in enumerate(VARIABLE_COLUMNS)
            for code, group in enumerate(GROUP_ORDER)}


cell_values = st.one_of(st.sampled_from([0.0, -0.0, 0.1, 1.0, 2.5, math.nan]),
                  st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False))


@settings(max_examples=40, deadline=None)
@given(sizes=st.tuples(*[st.integers(0, 7)] * 3), data=st.data())
def test_generated_samples(sizes, data):
    codes = np.repeat(np.arange(3, dtype=np.int8), sizes)
    values = np.array(data.draw(st.lists(cell_values, min_size=12 * len(codes),
                                         max_size=12 * len(codes))),
                      dtype=float).reshape(len(codes), 12)
    samples = samples_of(values, codes)
    check_cdf(samples, build_cdf_rows(values, codes))
    check_d(samples, build_comparison_rows(values, codes))


@pytest.fixture(scope="module")
def minicorpus_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    with pytest.warns(GroupEmptyWarning, match="High group empty"):
        assert main(["run", "--input", str(MINICORPUS), "--citations",
                     str(MINICORPUS / "citations.csv"), "--out", str(out)]) == 0
    return out


def rows_of(path: Path) -> list[list[str]]:
    return [row for _, row in read_table(path).rows]


def test_minicorpus_run_outputs(minicorpus_run):
    """The referee's own join of profiles.csv and scores.csv gives each
    (variable, group) sample in profile row order."""
    out = minicorpus_run
    group_of = {row[0]: row[2] for row in rows_of(out / "scores.csv")}
    samples = {(column, group.value): [] for column in VARIABLE_COLUMNS
               for group in GROUP_ORDER}
    for doc_id, *cells in rows_of(out / "profiles.csv"):
        if group_of.get(doc_id):
            for column, cell in zip(VARIABLE_COLUMNS, cells):
                if cell:
                    samples[column, group_of[doc_id]].append(float(cell))
    cdf = [(column, group, float(x), float(f))
           for column, group, x, f in rows_of(out / "cdf.csv")]
    assert check_cdf(samples, cdf) == len(cdf) > 0
    comparison = [(column, pair, float(d) if d else None)
                  for column, pair, d, *_ in rows_of(out / "comparison.csv")]
    assert check_d(samples, comparison) == 12  # Medium-Low: the High group is empty
    points = 0
    for column, group, point, *_ in rows_of(out / "estimates.csv"):
        if point:
            assert ulps_from_mean(float(point), samples[column, group]) <= 2
            points += 1
    assert points == 24


def integer_column(column: np.ndarray) -> list[int]:
    """The column times the power of two that makes every entry an integer.
    Scaling a column by a constant leaves the span, and so R2, unchanged."""
    ratios = [value.as_integer_ratio() for value in column.tolist()]
    scale = max(den for _, den in ratios)
    return [num * (scale // den) for num, den in ratios]


def gram_minors(columns: list[list[int]]) -> list[int]:
    """The leading principal minors of the Gram matrix of columns, by
    Bareiss's fraction-free elimination, up to the first zero one. Each
    pivot is the minor of its order, and every division is exact."""
    m = [[sum(a * b for a, b in zip(ci, cj)) for cj in columns] for ci in columns]
    minors: list[int] = []
    previous = 1
    for k, row_k in enumerate(m):
        pivot = row_k[k]
        minors.append(pivot)
        if pivot == 0:
            break
        for row_i in m[k + 1:]:
            factor = row_i[k]
            for j in range(k + 1, len(row_k)):
                row_i[j] = (row_i[j] * pivot - factor * row_k[j]) // previous
        previous = pivot
    return minors


def exact_r2(design: np.ndarray, y: np.ndarray) -> Fraction | None:
    """The exact OLS R2 of y on design, or None when the design is rank
    deficient: when it has fewer rows than columns, or else when its Gram
    matrix G is singular. With G+ the Gram matrix of the design with y
    beside it, the residual sum of squares is det(G+) / det(G)."""
    if len(y) < design.shape[1]:
        return None
    columns = [integer_column(design[:, j]) for j in range(design.shape[1])]
    response = integer_column(y)
    minors = gram_minors(columns + [response])
    p = len(columns)
    if len(minors) <= p or minors[p - 1] == 0:
        return None
    ss_res = Fraction(minors[p], minors[p - 1])
    ss_tot = sum(v * v for v in response) - Fraction(sum(response) ** 2, len(response))
    return 1 - ss_res / ss_tot


def fitted_inputs(values: np.ndarray, nc: np.ndarray, model: int):
    """The design and response that fit_model builds for these rows; the
    design is None when no row is kept."""
    keep = ~np.isnan(values).any(axis=1)
    if model in _LOG_RESPONSE_MODELS:
        keep &= nc > 0
    y = np.log(nc[keep]) if model in _LOG_RESPONSE_MODELS else nc[keep]
    return (_expand_design(_standardize(values[keep]), model) if len(y) else None), y


def r2_bound(design: np.ndarray, y: np.ndarray) -> Fraction:
    ratio = Fraction(float(np.sum(y ** 2))) / Fraction(float(np.sum((y - y.mean()) ** 2)))
    return R2_BOUND * Fraction(float(np.linalg.cond(design))) * Fraction(2.0 ** -52) * ratio


def check_r2(values: np.ndarray, nc: np.ndarray, model: int, r2: float | None,
             n_used: int) -> bool:
    """Check one fit against the referee; return whether it is Estimable."""
    design, y = fitted_inputs(values, nc, model)
    assert len(y) == n_used
    exact = None if design is None else exact_r2(design, y)
    assert (r2 is None) == (exact is None), (model, r2, exact)
    if exact is not None:
        assert abs(Fraction(r2) - exact) <= r2_bound(design, y), (model, r2, float(exact))
    return exact is not None


def generated_design(rng: np.random.Generator, model: int):
    """Rows of 1 to 4 variables at mixed scales and offsets, sometimes with
    two nearly collinear variables, then one Absent row; a score that may
    be zero, and whose mean may dwarf its spread."""
    k = int(rng.integers(1, 5))
    columns = len(_expand_design(np.zeros((1, k)), model)[0])
    n = int(rng.integers(columns + 1, 3 * columns + 4))
    scale = 10.0 ** rng.integers(-3, 4, size=k)
    values = rng.normal(size=(n, k)) * scale + 10.0 ** rng.integers(-2, 5, size=k)
    if k >= 2 and rng.random() < 0.5:
        values[:, 1] = values[:, 0] + 10.0 ** -rng.integers(1, 7) * scale[0] * \
            rng.normal(size=n)
    signal = (values - values.mean(axis=0)) / values.std(axis=0) @ rng.normal(size=k)
    nc = np.exp(0.3 * signal / signal.std() +
                rng.normal(scale=rng.choice([1e-3, 0.1, 1.0]), size=n))
    nc += 10.0 ** rng.integers(-1, 5) * (rng.random() < 0.5)
    if rng.random() < 0.5:
        nc[0] = 0.0
    return np.vstack([values, np.full((1, k), np.nan)]), np.append(nc, 1.0)


@pytest.mark.parametrize("model", MODEL_IDS)
def test_r2_generated_designs(model):
    rng = np.random.default_rng(model)
    for _ in range(60):
        values, nc = generated_design(rng, model)
        fit = fit_model(values, nc, model)
        assert check_r2(values, nc, model, fit.r_squared, fit.n_used)


@pytest.mark.parametrize("model", MODEL_IDS)
@pytest.mark.parametrize("collinear", ["copy", "times-4", "constant", "few-rows"])
def test_r2_exactly_collinear_designs(model, collinear):
    """An exactly rank-deficient design is NonEstimable to fit_model and to
    the referee alike."""
    rng = np.random.default_rng(7)
    values = rng.normal(size=(40, 3)) * [1.0, 30.0, 0.01] + [0.0, 5.0, 2.0]
    if collinear == "copy":
        values[:, 2] = values[:, 0]
    elif collinear == "times-4":
        values[:, 2] = 4.0 * values[:, 1]
    elif collinear == "constant":
        values[:, 1] = 1.0
    else:
        values = values[:len(_expand_design(values[:1], model)[0]) - 1]
    nc = np.exp(rng.normal(size=len(values)))
    fit = fit_model(values, nc, model)
    assert fit.r_squared is None
    assert not check_r2(values, nc, model, fit.r_squared, fit.n_used)


def test_minicorpus_regression_r2(minicorpus_run):
    """Every regression.csv row of the bundled corpus's run, from the
    referee's own join of profiles.csv and scores.csv."""
    out = minicorpus_run
    score_of = {doc_id: (float(nc), group) for doc_id, nc, group in rows_of(out / "scores.csv")}
    joined = [(cells, score_of[doc_id]) for doc_id, *cells in rows_of(out / "profiles.csv")
              if doc_id in score_of]
    values = np.array([[float(cell) if cell else math.nan for cell in cells]
                       for cells, _ in joined])
    nc = np.array([score for _, (score, _) in joined])
    groups = np.array([group for _, (_, group) in joined])
    estimable = 0
    for model, cohort, r2, n_used, _ in rows_of(out / "regression.csv"):
        members = np.ones(len(groups), dtype=bool) if cohort == "all" else groups == cohort
        estimable += check_r2(values[members], nc[members], int(model),
                              None if r2 == "-" else float(r2), int(n_used))
    assert estimable == 5
