"""Report-row builders for the group-comparison and regression outputs.

Four tables are produced. comparison.csv holds one KS row per variable and
group pair; cdf.csv holds the ECDF step points per variable and group;
estimates.csv holds the bootstrap mean and confidence interval per variable
and group; regression.csv holds one row per model and cohort with the
R-squared or "-" when the fit is not estimable.

Row order is fixed everywhere: variables x1..x12, groups High/Medium/Low,
pairs High-Medium, High-Low, Medium-Low, models 1..6, cohorts all/High/
Medium/Low.

Each stage reads profiles.csv once, as a `ProfileMatrix` with NaN marking
Absent, and computes each document's group code once (`group_codes`).
`group_samples` then takes boolean-mask slices of one matrix column, which
keep file row order, so the bootstrap sees its sample in the same order on
every run. Documents whose value for a variable is Absent are excluded
from that variable's rows and counted in the n_excluded column. When the
effective sample for a group is empty (an empty stratum, or every document
lacking the variable), a GroupEmpty row is emitted instead of failing.

Bootstrap subseeds are derived from the root seed by hashing the variable
index and group index, so adding or removing one variable never perturbs
another variable's interval. Because each cell has its own stream, the
cells are computed on two threads when the process may use two or more
CPUs (numpy releases the GIL while it draws and averages); each row is
stored at its cell's index, so the bytes do not depend on this.

Each function that builds an array imports numpy itself, so that importing
this module does not load numpy (see `lexcite.cli`).
"""

from __future__ import annotations

import hashlib
import os
import threading
from typing import TYPE_CHECKING, Callable, Sequence

from .impact import GROUP_ORDER, ImpactGroup, NormalizedScore
from .metrics import VARIABLE_COLUMNS, ProfileMatrix
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


def group_codes(matrix: ProfileMatrix,
                scores: Sequence[NormalizedScore]) -> np.ndarray:
    """Per matrix row: the index of its document's group in GROUP_ORDER, or
    -1 when the document has no score or no group."""
    import numpy as np

    index = {group: i for i, group in enumerate(GROUP_ORDER)}
    code_of = {s.doc_id: index[s.group] for s in scores if s.group is not None}
    return np.array([code_of.get(doc_id, -1) for doc_id in matrix.doc_ids],
                    dtype=np.int8)


def group_samples(
    matrix: ProfileMatrix,
    codes: np.ndarray,
    column: str,
) -> dict[ImpactGroup, tuple[np.ndarray, int]]:
    """Per group: the variable's present values, in row order, and the
    Absent-drop count."""
    import numpy as np

    values = matrix.values[:, VARIABLE_COLUMNS.index(column)]
    out: dict[ImpactGroup, tuple[np.ndarray, int]] = {}
    for code, group in enumerate(GROUP_ORDER):
        members = values[codes == code]
        absent = np.isnan(members)
        out[group] = (members[~absent], int(np.count_nonzero(absent)))
    return out


def build_comparison_rows(
    matrix: ProfileMatrix,
    codes: np.ndarray,
) -> list[list[object]]:
    rows: list[list[object]] = []
    for column in VARIABLE_COLUMNS:
        samples = group_samples(matrix, codes, column)
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
    matrix: ProfileMatrix,
    codes: np.ndarray,
) -> list[list[object]]:
    rows: list[list[object]] = []
    for column in VARIABLE_COLUMNS:
        samples = group_samples(matrix, codes, column)
        for group in GROUP_ORDER:
            values, _ = samples[group]
            if len(values) == 0:
                continue
            for x, f in ecdf_steps(values):
                rows.append([column, group.value, x, f])
    return rows


def build_estimate_rows(
    matrix: ProfileMatrix,
    codes: np.ndarray,
    iterations: int,
    level: float,
    seed: int,
) -> list[list[object]]:
    """One bootstrap row per variable and group, in fixed row order.

    Each cell draws from its own subseed stream, so the cells may run in any
    order on any thread: when the process may use two or more CPUs, the
    calling thread and one helper thread take cells in turn. The rows do not
    depend on this."""
    rows: list[list[object]] = []
    cells: list[tuple[int, np.ndarray, int]] = []  # (row index, values, subseed)
    for var_index, column in enumerate(VARIABLE_COLUMNS, start=1):
        samples = group_samples(matrix, codes, column)
        for group_index, group in enumerate(GROUP_ORDER):
            values, excluded = samples[group]
            if len(values) == 0:
                rows.append([column, group.value, None, None, None,
                             0, excluded, STATUS_GROUP_EMPTY])
                continue
            cells.append((len(rows), values, subseed(seed, var_index, group_index)))
            rows.append([column, group.value, None, None, None,
                         len(values), excluded, STATUS_OK])

    def estimate(cell: tuple[int, np.ndarray, int]) -> None:
        index, values, cell_seed = cell
        est = bootstrap_mean_ci(values, iterations=iterations, level=level,
                                seed=cell_seed)
        rows[index][2:5] = [est.point, est.ci_low, est.ci_high]

    _run_on_two_threads(cells, estimate)
    return rows


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_on_two_threads(tasks: list[tuple], run: Callable[[tuple], None]) -> None:
    """Call run once per task. The calling thread and, when the process may
    use two or more CPUs and there are two or more tasks, one helper thread
    take tasks in list order from one shared iterator. After the first
    exception neither thread starts another task, and that exception is
    raised here once the helper has ended."""
    pending = iter(tasks)
    lock = threading.Lock()
    errors: list[BaseException] = []

    def drain() -> None:
        try:
            while not errors:
                with lock:
                    task = next(pending, None)
                if task is None:
                    return
                run(task)
        except BaseException as exc:  # re-raised by the calling thread
            errors.append(exc)

    helper = None
    if len(tasks) >= 2 and _usable_cpus() >= 2:
        helper = threading.Thread(target=drain, name="lexcite-estimates")
        helper.start()
    try:
        drain()
    finally:
        if helper is not None:
            helper.join()
    if errors:
        raise errors[0]


def build_regression_rows(
    matrix: ProfileMatrix,
    scores: Sequence[NormalizedScore],
) -> list[list[object]]:
    """One row per model and cohort; '-' marks a NonEstimable fit."""
    codes = group_codes(matrix, scores)
    cohorts = {"all": matrix}
    for code, group in enumerate(GROUP_ORDER):
        cohorts[group.value] = matrix.subset(codes == code)
    rows: list[list[object]] = []
    for model_id in MODEL_IDS:
        for cohort in COHORT_ORDER:
            members = cohorts[cohort]
            if len(members) == 0:
                rows.append([model_id, cohort, "-", 0, 0])
                continue
            fit = fit_model(members, scores, model_id)
            r2 = "-" if fit.r_squared is None else fit.r_squared
            rows.append([model_id, cohort, r2, fit.n_used,
                         fit.n_dropped_zero_nc + fit.n_dropped_absent])
    return rows
