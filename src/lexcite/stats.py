"""Statistical battery: ECDFs, two-sample KS tests, bootstrap point
estimation, and the six polynomial regression model families.

Regressions fit arrays that are already joined (`reports.join_scores`):
n x 12 float64 values with NaN marking Absent, and the n scores of the same
rows. The Absent-row drop and the zero-score drop of the log models are
boolean masks over those rows, which keep file row order.

The KS p-value uses the asymptotic series p = 2 * sum_{k>=1} (-1)^(k-1)
exp(-2 k^2 lambda^2) with lambda = D * sqrt(n1*n2/(n1+n2)), truncated once
terms fall below 1e-12 and clamped to [0, 1]. Bootstrap intervals are
percentile (nearest-rank) with a recorded seed. Regressions are ordinary
least squares with SVD rank detection; `fit_model` alone decides which fits
are NonEstimable, for every finite input, instead of forcing a number.

Each function that computes with arrays imports numpy itself, so that
importing this module does not load numpy (see `lexcite.cli`).
"""

from __future__ import annotations

import itertools
import math
import warnings
from typing import TYPE_CHECKING, NamedTuple, Sequence

from .errors import DegenerateResponseWarning, EmptySample

if TYPE_CHECKING:
    import numpy as np

_SERIES_EPS = 1e-12
# Resample index blocks are capped so bootstrap memory stays bounded (2^15
# int64 indices, 256 KB, plus the gathered values). One block is in flight
# in each of the two processes that share the cells (see `lexcite.parallel`).
# The child's memory ends with it, and the calling process frees its blocks
# to its main malloc arena, which a later regress in `run` reuses; no
# other arena keeps them. Much smaller blocks lose to per-call overhead.
# The block size does not change the estimates: Generator.integers yields
# the same stream however the draws are split into calls, which
# test_chunking_invariant pins.
_BOOTSTRAP_BLOCK_CELLS = 2 ** 15
ITERATIONS_MAX = 10 ** 7  # replicate means of 8 bytes each: 80 MB at the bound

# Column layout per model family: 1/3 full quadratic, 2/4 squares+linear,
# 5/6 linear only. The intercept is always included.
MODEL_IDS = (1, 2, 3, 4, 5, 6)
_QUADRATIC_MODELS = {1, 3}
_SQUARES_MODELS = {2, 4}
_LOG_RESPONSE_MODELS = {3, 4, 6}


class KsResult(NamedTuple):
    d_statistic: float
    p_value: float
    stars: int
    n1: int
    n2: int


class BootstrapEstimate(NamedTuple):
    point: float
    ci_low: float
    ci_high: float
    iterations: int
    level: float
    seed: int


class ModelFit(NamedTuple):
    model_id: int
    r_squared: float | None
    n_used: int
    n_dropped_zero_nc: int
    n_dropped_absent: int
    status: str  # "Estimable" | "NonEstimable"


def ecdf_steps(sample: Sequence[float]) -> list[tuple[float, float]]:
    """(x, F(x)) at every distinct sample value, for step plotting.

    The steps are read from the one sort: each run of equal values is one
    step, at the run's first element, and its height is the count up to the
    run's end over n, the same IEEE division as float(count) / n. -0.0 and
    0.0 are one run, and its step is written as 0.0, whichever zero the sort
    put first. The sample holds present values only: NaN equals nothing, so
    each NaN would be a step of its own.

    numpy's unique() finds the same runs, but it imports numpy.ma, about
    1.3 MB of a compare process's peak."""
    import numpy as np

    if len(sample) == 0:
        raise EmptySample("ecdf of empty sample")
    data = np.sort(np.asarray(sample, dtype=float))
    n = len(data)
    starts = np.flatnonzero(np.concatenate(([True], data[1:] != data[:-1])))
    counts = np.append(starts[1:], n)
    # adding 0.0 turns -0.0 into 0.0 and leaves every other value as it is
    return list(zip((data[starts] + 0.0).tolist(), (counts / n).tolist()))


def stars_for_p(p: float) -> int:
    if p <= 0.001:
        return 3
    if p <= 0.01:
        return 2
    if p <= 0.05:
        return 1
    return 0


def ks_asymptotic_p(lam: float) -> float:
    """Two-sided asymptotic KS tail probability at lambda."""
    if lam < 1e-4:
        return 1.0
    total = 0.0
    sign = 1.0
    k = 1
    while True:
        term = math.exp(-2.0 * k * k * lam * lam)
        total += sign * term
        if term < _SERIES_EPS:
            break
        sign = -sign
        k += 1
    return min(max(2.0 * total, 0.0), 1.0)


def ks_two_sample(a: Sequence[float], b: Sequence[float]) -> KsResult:
    """Two-sample KS test: supremum ECDF gap over all observed values."""
    import numpy as np

    if len(a) == 0 or len(b) == 0:
        raise EmptySample("ks_two_sample requires two nonempty samples")
    a_sorted = np.sort(np.asarray(a, dtype=float))
    b_sorted = np.sort(np.asarray(b, dtype=float))
    n1, n2 = len(a_sorted), len(b_sorted)
    pooled = np.concatenate([a_sorted, b_sorted])
    cdf_a = np.searchsorted(a_sorted, pooled, side="right") / n1
    cdf_b = np.searchsorted(b_sorted, pooled, side="right") / n2
    d = float(np.max(np.abs(cdf_a - cdf_b)))
    lam = d * math.sqrt(n1 * n2 / (n1 + n2))
    p = ks_asymptotic_p(lam)
    return KsResult(d_statistic=d, p_value=p, stars=stars_for_p(p), n1=n1, n2=n2)


def _nearest_rank(sorted_values: np.ndarray, q: float) -> float:
    """Nearest-rank percentile: the ceil(q*n)-th smallest value."""
    n = len(sorted_values)
    rank = min(max(math.ceil(q * n), 1), n)
    return float(sorted_values[rank - 1])


def check_bootstrap_options(iterations: int, level: float) -> None:
    """A ValueError unless 1 <= iterations <= ITERATIONS_MAX and 0 < level < 1."""
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    if iterations > ITERATIONS_MAX:
        raise ValueError(f"iterations must be <= {ITERATIONS_MAX}")
    if not 0.0 < level < 1.0:
        raise ValueError("level must be strictly between 0 and 1")


def bootstrap_mean_ci(
    sample: Sequence[float],
    iterations: int = 10_000,
    level: float = 0.95,
    seed: int = 0,
) -> BootstrapEstimate:
    """Percentile bootstrap CI for the mean, bit-reproducible per seed."""
    import numpy as np

    check_bootstrap_options(iterations, level)
    data = np.asarray(sample, dtype=float)
    n = len(data)
    if n == 0:
        raise EmptySample("bootstrap of empty sample")
    rng = np.random.default_rng(seed)
    means = np.empty(iterations, dtype=float)
    block = max(1, _BOOTSTRAP_BLOCK_CELLS // n)
    done = 0
    # a sum past the largest float is inf, unwarned; write_table refuses it
    with np.errstate(over="ignore"):
        while done < iterations:
            rows = min(block, iterations - done)
            idx = rng.integers(0, n, size=(rows, n))
            means[done:done + rows] = data[idx].mean(axis=1)
            done += rows
        point = float(data.mean())
    means.sort()
    alpha = (1.0 - level) / 2.0
    return BootstrapEstimate(
        point=point,
        ci_low=_nearest_rank(means, alpha),
        ci_high=_nearest_rank(means, 1.0 - alpha),
        iterations=iterations,
        level=level,
        seed=seed,
    )


def _expand_design(base: np.ndarray, model_id: int) -> np.ndarray:
    """The design matrix of a model family, filled in place: the intercept,
    the k columns of base, their k squares (models 1-4), then their pairwise
    products in (i, j) order (models 1 and 3). k is 12 for the profiles."""
    import numpy as np

    rows, k = base.shape
    squares = model_id in _QUADRATIC_MODELS or model_id in _SQUARES_MODELS
    pairs = (list(itertools.combinations(range(k), 2))
             if model_id in _QUADRATIC_MODELS else [])
    first_pair = 1 + k * (2 if squares else 1)
    design = np.empty((rows, first_pair + len(pairs)))
    design[:, 0] = 1.0
    design[:, 1:1 + k] = base
    if squares:
        np.square(base, out=design[:, 1 + k:first_pair])
    for col, (i, j) in enumerate(pairs, start=first_pair):
        np.multiply(base[:, i], base[:, j], out=design[:, col])
    return design


def _standardize(base: np.ndarray) -> np.ndarray:
    import numpy as np

    # Affine rescaling before term expansion preserves the expanded column
    # span (hence fitted values, rank, and R^2) while conditioning the
    # normal equations; zero-variance columns are only centered.
    mean = base.mean(axis=0)
    sd = base.std(axis=0)
    sd[sd == 0.0] = 1.0
    return (base - mean) / sd


def fit_model(values: np.ndarray, nc: np.ndarray, model_id: int) -> ModelFit:
    """Fit one model family by least squares with rank detection.

    Row i of values (n x 12, NaN marking Absent) is fitted against nc[i].
    Models 1 and 2 regress the normalized citation score itself; models 3,
    4, and 6 regress its natural log, dropping zero-score rows and counting
    them; model 5 fits the exponential-response form by least squares of
    the score against the linear columns. Rows with an Absent value are
    dropped and counted. No row left, fewer rows than design columns, a
    rank-deficient design, or arithmetic that leaves the finite range gives
    a NonEstimable fit with no R-squared; finite inputs never raise.
    """
    import numpy as np

    if model_id not in MODEL_IDS:
        raise ValueError(f"unknown model id {model_id}")
    keep = ~np.isnan(values).any(axis=1)
    n_complete = int(np.count_nonzero(keep))
    n_dropped_absent = len(values) - n_complete

    n_dropped_zero = 0
    if model_id in _LOG_RESPONSE_MODELS:
        keep &= nc > 0
        n_dropped_zero = n_complete - int(np.count_nonzero(keep))
    nc = nc[keep]
    y = np.log(nc) if model_id in _LOG_RESPONSE_MODELS else nc

    fit = ModelFit(
        model_id=model_id,
        r_squared=None,
        n_used=len(y),
        n_dropped_zero_nc=n_dropped_zero,
        n_dropped_absent=n_dropped_absent,
        status="NonEstimable",
    )
    if not fit.n_used:
        return fit
    # Overflow is checked in the results; numpy's warnings would repeat it.
    with np.errstate(all="ignore"):
        design = _expand_design(_standardize(values[keep]), model_id)
    n_rows, n_cols = design.shape
    if n_rows < n_cols or not np.isfinite(design).all():
        return fit
    # rcond=None scales the singular-value cutoff by machine epsilon times
    # max(n_rows, n_cols), the documented rank-deficiency threshold.
    beta, _, rank, _ = np.linalg.lstsq(design, y, rcond=None)
    if rank < n_cols:
        return fit

    # Decide a constant response on the values themselves: the mean of n
    # equal floats can differ from them by an ulp, leaving a sum of squares
    # of about 1e-30 that would turn R-squared into noise.
    if y.max() == y.min():
        warnings.warn("constant response; R-squared reported as 0",
                      DegenerateResponseWarning)
        r2 = 0.0
    else:
        with np.errstate(all="ignore"):
            ss_tot = float(np.sum((y - y.mean()) ** 2))
            ss_res = float(np.sum((y - design @ beta) ** 2))
        if not (0.0 < ss_tot < math.inf and math.isfinite(ss_res)):
            return fit
        r2 = min(max(1.0 - ss_res / ss_tot, 0.0), 1.0)

    return fit._replace(status="Estimable", r_squared=r2)
