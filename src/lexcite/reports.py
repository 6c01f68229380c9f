"""Report-row builders for the group-comparison and regression outputs.

Four tables are produced. comparison.csv holds one KS row per variable and
group pair; cdf.csv holds the ECDF step points per variable and group;
estimates.csv holds the bootstrap mean and confidence interval per variable
and group; regression.csv holds one row per model and cohort with the
R-squared, or "-" where `stats.fit_model`, run on every cohort, finds the
fit NonEstimable.

Row order is fixed everywhere: variables x1..x12, groups High/Medium/Low,
pairs High-Medium, High-Low, Medium-Low, models 1..6, cohorts
all/High/Medium/Low. `build_comparison_rows`, `build_estimate_rows` and
`build_cdf_rows` each make one variable's rows from its `group_samples`
(`cli.stage_compare` maps them), so of cdf.csv's rows, about 12 per
document, one variable's are held at once.

Each stage joins the profiles.csv rows to the scores as it reads them
(`join_scores`), with NaN marking Absent, and keeps only the rows that have
a score, in file row order, as their n x 12 values, their nc and their
group codes, which `group_samples` and `build_regression_rows` take.
`group_samples` takes boolean-mask slices of one values column and the
regression cohorts are boolean masks over the rows, so both keep file row
order and the bootstrap sees its sample in the same order on every run. A
profile without a score counts nowhere; a score without a group counts in
the "all" regression cohort only. Documents whose value for a variable is
Absent are excluded from that variable's rows and counted in the n_excluded
column. When the effective sample for a group is empty (an empty stratum,
or every document lacking the variable), a GroupEmpty row is emitted
instead of failing.

Bootstrap subseeds are derived from the root seed by hashing the variable
index and group index, so adding or removing one variable never perturbs
another variable's interval, and the rows do not depend on which process
makes them. No builder forks.

Each function that builds an array imports numpy itself, so that importing
this module does not load numpy (see `lexcite.cli`).
"""

from __future__ import annotations

import hashlib
from array import array
from typing import TYPE_CHECKING, Iterable, Sequence

from .errors import JoinMismatch
from .impact import GROUP_ORDER, ImpactGroup, NormalizedScore
from .metrics import VARIABLE_COLUMNS
from .stats import MODEL_IDS, bootstrap_mean_ci, ecdf_steps, fit_model, ks_two_sample

if TYPE_CHECKING:
    import numpy as np

GROUP_PAIRS = (
    (ImpactGroup.HIGH, ImpactGroup.MEDIUM),
    (ImpactGroup.HIGH, ImpactGroup.LOW),
    (ImpactGroup.MEDIUM, ImpactGroup.LOW),
)

COHORT_ORDER = ("all", ImpactGroup.HIGH.value, ImpactGroup.MEDIUM.value,
                ImpactGroup.LOW.value)

COMPARISON_HEADER = ["variable", "group_pair", "d", "p", "stars",
                     "n1", "n2", "n_excluded", "status"]
CDF_HEADER = ["variable", "group", "x", "f"]
ESTIMATES_HEADER = ["variable", "group", "point", "ci_low", "ci_high",
                    "n", "n_excluded", "status"]
REGRESSION_HEADER = ["model", "cohort", "r_squared", "n_used", "n_dropped"]

STATUS_OK = "Ok"
STATUS_GROUP_EMPTY = "GroupEmpty"


def stars_text(stars: int) -> str:
    """Render a 0-3 star level as '', '*', '**', or '***'."""
    if stars not in (0, 1, 2, 3):
        raise ValueError(f"star level out of range: {stars}")
    return "*" * stars


def subseed(seed: int, var_index: int, group_index: int) -> int:
    """Per-(variable, group) bootstrap seed derived from the root seed."""
    digest = hashlib.sha256(f"{seed}:{var_index}:{group_index}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def join_scores(
    rows: Iterable[tuple[str, Iterable[float]]],
    scores: Sequence[NormalizedScore],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The profile rows, each (doc_id, x1..x12) with NaN marking Absent, that
    have a score, in row order: their n x 12 values, their nc, and their
    group codes (the index of the group in GROUP_ORDER, or -1 when the score
    has no group). rows is read once, and only the scored rows are kept.

    Raises JoinMismatch when no row has a score."""
    import numpy as np

    index = {group: i for i, group in enumerate(GROUP_ORDER)}
    score_of = {s.doc_id: s for s in scores}
    values = array("d")
    joined: list[NormalizedScore] = []
    for doc_id, cells in rows:
        score = score_of.get(doc_id)
        if score is not None:
            values.extend(cells)
            joined.append(score)
    if not joined:
        raise JoinMismatch("profiles and scores share no doc_ids")
    return (np.frombuffer(values, dtype=float).reshape(len(joined), len(VARIABLE_COLUMNS)),
            np.array([s.nc for s in joined], dtype=float),
            np.array([-1 if s.group is None else index[s.group] for s in joined],
                     dtype=np.int8))


def group_samples(
    values: np.ndarray,
    codes: np.ndarray,
    column: str,
) -> dict[ImpactGroup, tuple[np.ndarray, int]]:
    """Per group: the variable's present values, in row order, and the
    Absent-drop count."""
    import numpy as np

    column_values = values[:, VARIABLE_COLUMNS.index(column)]
    out: dict[ImpactGroup, tuple[np.ndarray, int]] = {}
    for code, group in enumerate(GROUP_ORDER):
        members = column_values[codes == code]
        absent = np.isnan(members)
        out[group] = (members[~absent], int(np.count_nonzero(absent)))
    return out


def build_comparison_rows(
    column: str,
    samples: dict[ImpactGroup, tuple[np.ndarray, int]],
) -> list[list[object]]:
    """One variable's KS row per group pair, from its `group_samples`."""
    rows: list[list[object]] = []
    for ga, gb in GROUP_PAIRS:
        pair = f"{ga.value}-{gb.value}"
        (va, ea), (vb, eb) = samples[ga], samples[gb]
        if len(va) == 0 or len(vb) == 0:
            rows.append([column, pair, None, None, "",
                         len(va), len(vb), ea + eb, STATUS_GROUP_EMPTY])
            continue
        ks = ks_two_sample(va, vb)
        rows.append([column, pair, ks.d_statistic, ks.p_value,
                     stars_text(ks.stars), ks.n1, ks.n2, ea + eb, STATUS_OK])
    return rows


def build_cdf_rows(
    column: str,
    samples: dict[ImpactGroup, tuple[np.ndarray, int]],
) -> list[tuple[str, str, float, float]]:
    """One variable's ECDF step rows, from its `group_samples`, group by
    group; a group with no present value has none."""
    return [(column, group.value, x, f)
            for group in GROUP_ORDER if len(samples[group][0])
            for x, f in ecdf_steps(samples[group][0])]


def build_estimate_rows(
    column: str,
    samples: dict[ImpactGroup, tuple[np.ndarray, int]],
    iterations: int,
    level: float,
    seed: int,
) -> list[list[object]]:
    """One variable's bootstrap row per group, from its `group_samples`, each
    drawn from the group's own subseed stream."""
    var_index = VARIABLE_COLUMNS.index(column) + 1
    rows: list[list[object]] = []
    for group_index, group in enumerate(GROUP_ORDER):
        sample, excluded = samples[group]
        if len(sample) == 0:
            rows.append([column, group.value, None, None, None, 0, excluded,
                         STATUS_GROUP_EMPTY])
            continue
        est = bootstrap_mean_ci(sample, iterations=iterations, level=level,
                                seed=subseed(seed, var_index, group_index))
        rows.append([column, group.value, est.point, est.ci_low, est.ci_high,
                     len(sample), excluded, STATUS_OK])
    return rows


def build_regression_rows(
    values: np.ndarray,
    nc: np.ndarray,
    codes: np.ndarray,
) -> list[list[object]]:
    """One row per model and cohort; '-' marks a NonEstimable fit."""
    import numpy as np

    members_of = [np.ones(len(codes), dtype=bool),  # all, then each group
                  *(codes == code for code in range(len(GROUP_ORDER)))]
    rows: list[list[object]] = []
    for model_id in MODEL_IDS:
        for cohort, members in zip(COHORT_ORDER, members_of):
            fit = fit_model(values[members], nc[members], model_id)
            r2 = "-" if fit.r_squared is None else fit.r_squared
            rows.append([model_id, cohort, r2, fit.n_used,
                         fit.n_dropped_zero_nc + fit.n_dropped_absent])
    return rows
