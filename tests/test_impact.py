"""Citation normalization and impact stratification."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lexcite.errors import (
    GroupEmptyWarning,
    MissingBaseline,
    ZeroBaselineNonzeroCitations,
)
from lexcite.impact import (
    Baseline,
    CitationRecord,
    ImpactGroup,
    NormalizedScore,
    baseline_map,
    compute_baselines,
    normalize_citations,
    stratify,
)


def records(cells):
    """cells: {(year, domain): [citation counts]}"""
    out = []
    serial = 0
    for (year, domain), counts in cells.items():
        for c in counts:
            out.append(CitationRecord(doc_id=f"d{serial:04d}", year=year,
                                      domain=domain, total_citations=c))
            serial += 1
    return out


class TestBaselines:
    def test_mean_per_cell(self):
        recs = records({(2010, "Ecology"): [4, 6]})
        (b,) = compute_baselines(recs)
        assert (b.year, b.domain, b.adc, b.n) == (2010, "Ecology", 5.0, 2)

    def test_degenerate_single_zero(self):
        (b,) = compute_baselines(records({(2011, "Cancer"): [0]}))
        assert b.adc == 0.0 and b.n == 1

    def test_hand_mean(self):
        (b,) = compute_baselines(records({(2012, "x"): [1, 2, 3, 10]}))
        assert b.adc == 4.0

    def test_sorted_output(self):
        recs = records({(2011, "b"): [1], (2010, "z"): [1], (2010, "a"): [1]})
        cells = [(b.year, b.domain) for b in compute_baselines(recs)]
        assert cells == [(2010, "a"), (2010, "z"), (2011, "b")]


class TestNormalize:
    def test_basic(self):
        lookup = baseline_map([Baseline(2010, "e", 5.0, 2)])
        rec = CitationRecord("d", 2010, "e", 10)
        assert normalize_citations(rec, lookup).nc == 2.0

    def test_zero_citations(self):
        lookup = baseline_map([Baseline(2010, "e", 5.0, 2)])
        assert normalize_citations(CitationRecord("d", 2010, "e", 0), lookup).nc == 0.0

    def test_zero_cell_zero_citations(self):
        lookup = baseline_map([Baseline(2010, "e", 0.0, 1)])
        assert normalize_citations(CitationRecord("d", 2010, "e", 0), lookup).nc == 0.0

    def test_zero_cell_nonzero_citations(self):
        lookup = baseline_map([Baseline(2010, "e", 0.0, 1)])
        with pytest.raises(ZeroBaselineNonzeroCitations):
            normalize_citations(CitationRecord("d", 2010, "e", 3), lookup)

    def test_missing_baseline(self):
        with pytest.raises(MissingBaseline):
            normalize_citations(CitationRecord("d", 1999, "e", 1), {})

    def test_negative_citations_rejected(self):
        with pytest.raises(ValueError):
            CitationRecord("d", 2010, "e", -1)
        with pytest.raises(ValueError):
            CitationRecord("d", 2010, "e", 1)._replace(total_citations=-1)

    def test_count_beyond_the_float_range_rejected(self):
        # compute_baselines would divide it into a bare OverflowError
        with pytest.raises(ValueError, match="too large for a float"):
            compute_baselines([CitationRecord("a", 2010, "Eco", 10**400)])
        with pytest.raises(ValueError, match="too large for a float"):
            CitationRecord("a", 2010, "Eco", 1)._replace(total_citations=10**400)

    @pytest.mark.parametrize("adc, n, message", [(-5.5, 4, "adc '-5.5' is negative"),
                                                 (2.0, 0, "n '0' is below 1")])
    def test_baseline_values_checked(self, adc, n, message):
        with pytest.raises(ValueError, match=message):
            Baseline(2010, "e", adc, n)
        with pytest.raises(ValueError, match=message):
            Baseline(2010, "e", 2.0, 4)._replace(adc=adc, n=n)
        with pytest.raises(ValueError, match=message):
            Baseline._make([2010, "e", adc, n])

    def test_negative_score_rejected(self):
        with pytest.raises(ValueError, match="nc '-0.5' is negative"):
            NormalizedScore("d", -0.5)
        with pytest.raises(ValueError, match="nc '-0.5' is negative"):
            NormalizedScore("d", 0.5)._replace(nc=-0.5)
        assert NormalizedScore("d", -0.0).nc == 0.0

    def test_group_unset(self):
        lookup = baseline_map([Baseline(2010, "e", 5.0, 2)])
        assert normalize_citations(CitationRecord("d", 2010, "e", 1), lookup).group is None

    @settings(max_examples=200, deadline=None)
    @given(st.dictionaries(
        st.tuples(st.integers(1900, 2100), st.sampled_from(["e", "p", "Ökologie"])),
        st.lists(st.integers(0, 10**9), min_size=1, max_size=40), min_size=1, max_size=6))
    def test_within_cell_mean_is_one(self, cells):
        # a cell whose mean is 0 holds only zeros, which normalize to 0
        recs = records(cells)
        lookup = baseline_map(compute_baselines(recs))
        by_cell = {}
        for rec in recs:
            nc = normalize_citations(rec, lookup).nc
            by_cell.setdefault((rec.year, rec.domain), []).append(nc)
        for cell, ncs in by_cell.items():
            if any(cells[cell]):
                assert abs(sum(ncs) / len(ncs) - 1.0) < 1e-9
            else:
                assert set(ncs) == {0.0}

    def test_scaling_invariance(self):
        counts = [1, 2, 3, 10]
        for scale in (1, 3, 7):
            recs = records({(2010, "e"): [c * scale for c in counts]})
            lookup = baseline_map(compute_baselines(recs))
            ncs = [normalize_citations(r, lookup).nc for r in recs]
            assert ncs == pytest.approx([0.25, 0.5, 0.75, 2.5])


def scored(n):
    return [NormalizedScore(doc_id=f"d{i:05d}", nc=float(n - i)) for i in range(n)]


class TestStratify:
    def test_floor_rule_1797(self):
        groups = [s.group for s in stratify(scored(1797))]
        assert groups.count(ImpactGroup.HIGH) == 17
        assert groups.count(ImpactGroup.MEDIUM) == 162
        assert groups.count(ImpactGroup.LOW) == 1618

    def test_exact_percentages_100(self):
        groups = [s.group for s in stratify(scored(100))]
        assert (groups.count(ImpactGroup.HIGH),
                groups.count(ImpactGroup.MEDIUM),
                groups.count(ImpactGroup.LOW)) == (1, 9, 90)

    def test_small_n_warns(self):
        with pytest.warns(GroupEmptyWarning):
            result = stratify(scored(50))
        groups = [s.group for s in result]
        assert (groups.count(ImpactGroup.HIGH),
                groups.count(ImpactGroup.MEDIUM),
                groups.count(ImpactGroup.LOW)) == (0, 5, 45)

    @pytest.mark.filterwarnings("ignore::lexcite.errors.GroupEmptyWarning")
    def test_descending_order_with_ties_by_doc_id(self):
        scores = [
            NormalizedScore("b", 5.0),
            NormalizedScore("a", 5.0),
            NormalizedScore("c", 9.0),
        ]
        ranked = stratify(scores)
        assert [s.doc_id for s in ranked] == ["c", "a", "b"]

    def test_group_boundaries_monotone(self):
        result = stratify(scored(300))
        high = [s.nc for s in result if s.group is ImpactGroup.HIGH]
        med = [s.nc for s in result if s.group is ImpactGroup.MEDIUM]
        low = [s.nc for s in result if s.group is ImpactGroup.LOW]
        assert min(high) >= max(med) >= max(low)

    def test_sizes_sum_to_n(self):
        import warnings

        for n in (1, 7, 99, 100, 101, 1000):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", GroupEmptyWarning)
                result = stratify(scored(n))
            assert len(result) == n
            assert all(s.group is not None for s in result)

    @pytest.mark.filterwarnings("ignore::lexcite.errors.GroupEmptyWarning")
    def test_input_not_mutated(self):
        scores = scored(10)
        stratify(scores)
        assert all(s.group is None for s in scores)
