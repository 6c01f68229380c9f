"""Exact referees for three columns that compare writes.

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
  off, so generated samples are not held to that bound.
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
from lexcite.tableio import read_table

MINICORPUS = Path(str(files("lexcite").joinpath("data", "minicorpus")))

D_BOUND = Fraction(3, 4) * Fraction(2.0 ** -52)


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
