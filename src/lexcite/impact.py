"""Field/year-normalized citation scores and impact stratification.

A paper's normalized citation score is its total citations divided by the
mean citations of all papers published in the same year and domain. Papers
are then ranked by that score and split into the top 1% (High), the next 9%
(Medium), and the remaining 90% (Low), with floor-based group sizes.
"""

from __future__ import annotations

import math
import warnings
from enum import Enum

from .errors import (GroupEmptyWarning, MissingBaseline, ScoreOverflow,
                     ZeroBaselineNonzeroCitations)
from .ingest import _record, check_doc_id, check_year


class ImpactGroup(str, Enum):
    HIGH = "High"
    MEDIUM = "Medium"
    LOW = "Low"


GROUP_ORDER = (ImpactGroup.HIGH, ImpactGroup.MEDIUM, ImpactGroup.LOW)


class CitationRecord(_record("doc_id year domain total_citations")):
    """A count that a float holds, which keeps every mean of counts finite."""

    __slots__ = ()

    def __new__(cls, doc_id: str, year: int, domain: str, total_citations: int):
        check_doc_id(doc_id)
        check_year(year)
        if total_citations < 0:
            raise ValueError(f"negative citations for {doc_id!r}")
        try:
            float(total_citations)
        except OverflowError:
            raise ValueError(f"total_citations '{total_citations}' is too large "
                             "for a float") from None
        return super().__new__(cls, doc_id, year, domain, total_citations)


class Baseline(_record("year domain adc n")):
    """Mean citations (adc) over the n >= 1 papers in one year x domain cell."""

    __slots__ = ()

    def __new__(cls, year: int, domain: str, adc: float, n: int):
        check_year(year)
        if adc < 0:
            raise ValueError(f"adc '{adc!r}' is negative")
        if n < 1:
            raise ValueError(f"n '{n!r}' is below 1")
        return super().__new__(cls, year, domain, adc, n)


class NormalizedScore(_record("doc_id nc group")):
    """A count over a mean of counts, so not negative."""

    __slots__ = ()

    def __new__(cls, doc_id: str, nc: float, group: ImpactGroup | None = None):
        check_doc_id(doc_id)
        if nc < 0:
            raise ValueError(f"nc '{nc!r}' is negative")
        return super().__new__(cls, doc_id, nc, group)


def compute_baselines(records: list[CitationRecord]) -> list[Baseline]:
    """One baseline per distinct (year, domain) cell, sorted for determinism."""
    cells: dict[tuple[int, str], list[int]] = {}
    for rec in records:
        cells.setdefault((rec.year, rec.domain), []).append(rec.total_citations)
    return [
        Baseline(year=year, domain=domain, adc=sum(counts) / len(counts), n=len(counts))
        for (year, domain), counts in sorted(cells.items())
    ]


def baseline_map(baselines: list[Baseline]) -> dict[tuple[int, str], Baseline]:
    return {(b.year, b.domain): b for b in baselines}


def normalize_citations(
    record: CitationRecord,
    baselines: dict[tuple[int, str], Baseline],
) -> NormalizedScore:
    """Citations divided by the cell mean; group left unset.

    A zero-mean cell is only consistent with zero citations; anything else
    signals a baseline computed from different records. A quotient too
    large for a float, which only a given mean far below the counts can
    make, is ScoreOverflow.
    """
    cell = baselines.get((record.year, record.domain))
    if cell is None:
        raise MissingBaseline(f"no baseline for ({record.year}, {record.domain!r})")
    if cell.adc == 0:
        if record.total_citations == 0:
            return NormalizedScore(doc_id=record.doc_id, nc=0.0)
        raise ZeroBaselineNonzeroCitations(
            f"{record.doc_id!r} has {record.total_citations} citations in a zero-mean cell"
        )
    nc = record.total_citations / cell.adc
    if not math.isfinite(nc):
        raise ScoreOverflow(f"{record.doc_id!r} has {record.total_citations} citations "
                            f"in a cell of mean {cell.adc!r}: too large a score")
    return NormalizedScore(doc_id=record.doc_id, nc=nc)


def stratify(scores: list[NormalizedScore]) -> list[NormalizedScore]:
    """Assign High/Medium/Low groups by descending score.

    The top floor(N/100) papers are High, the next floor(N/10) - floor(N/100)
    Medium, the rest Low. Ties are broken by ascending doc_id so grouping is
    deterministic. Returns a new list in ranked order.
    """
    ranked = sorted(scores, key=lambda s: (-s.nc, s.doc_id))
    n = len(ranked)
    n_high = n // 100
    n_top10 = n // 10
    if n_high == 0:
        warnings.warn(f"High group empty at N={n} (< 100 documents)", GroupEmptyWarning)
    out = []
    for i, score in enumerate(ranked):
        if i < n_high:
            group = ImpactGroup.HIGH
        elif i < n_top10:
            group = ImpactGroup.MEDIUM
        else:
            group = ImpactGroup.LOW
        out.append(NormalizedScore(doc_id=score.doc_id, nc=score.nc, group=group))
    return out
