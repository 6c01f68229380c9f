"""Acceptance suite: eight end-to-end criteria with pinned tolerances.

Each criterion prints one PASS/FAIL line (visible in the summary section of
a verbose pytest run) and then asserts. All randomness is driven by frozen
seeds, so every run checks the same frozen quantities.

Criteria and pinned bands:
  1 stratification sizes         exact counts; empty-High warning at N<100
  2 variable definitions         |library - independent oracle| <= 1e-12
  3 KS p calibration             exact n=6 gap <= 0.08; MC n=50 gap <= 0.02
  4 bootstrap CI coverage        95% interval covers true mean 93%..97%
  5 regression behavior          planted R^2 >= 1-1e-9; nesting; "-" rows
  6 normalization invariants     cell mean NC = 1 +/- 1e-9; scale invariance
  7 false-positive control       <= 3 of 36 null flags; planted shift = ***
  8 end-to-end determinism       bundled corpus, byte-identical reruns
"""

import itertools
import math
import time
import warnings
from importlib.resources import files
from pathlib import Path

import numpy as np
import pytest

from lexcite.cli import main
from lexcite.errors import GroupEmptyWarning, ZeroBaselineNonzeroCitations
from lexcite.impact import (
    CitationRecord,
    ImpactGroup,
    NormalizedScore,
    baseline_map,
    compute_baselines,
    normalize_citations,
    stratify,
)
from lexcite.metrics import ProfileMatrix, complexity_profile
from lexcite.reports import build_comparison_rows, build_regression_rows, join_scores
from lexcite.stats import bootstrap_mean_ci, fit_model, ks_two_sample
from lexcite.tableio import read_table
from lexcite.tagging import import_tagged

MINICORPUS = Path(str(files("lexcite").joinpath("data", "minicorpus")))


def report(index: int, name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {index} {name}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {index} ({name}): {detail}"


def rand_profiles(rng, n, prefix="d"):
    return ProfileMatrix(tuple(f"{prefix}{i:05d}" for i in range(n)),
                         np.array([rng.uniform(0.5, 10, 12) for _ in range(n)]))


# --------------------------------------------------------------- criterion 1

def test_criterion_1_stratification_sizes():
    def sizes(n):
        scores = [NormalizedScore(doc_id=f"d{i:05d}", nc=float(n - i))
                  for i in range(n)]
        ranked = stratify(scores)
        groups = [s.group for s in ranked]
        return (groups.count(ImpactGroup.HIGH),
                groups.count(ImpactGroup.MEDIUM),
                groups.count(ImpactGroup.LOW))

    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no warning expected at N >= 100
        got_large = sizes(1797)
        got_100 = sizes(100)
    with pytest.warns(GroupEmptyWarning):
        got_50 = sizes(50)
    ok = (got_large == (17, 162, 1618) and got_100 == (1, 9, 90)
          and got_50 == (0, 5, 45))
    report(1, "stratification sizes", ok,
           f"1797->{got_large}, 100->{got_100}, 50->{got_50} "
           "(expected (17,162,1618), (1,9,90), (0,5,45))")


# --------------------------------------------------------------- criterion 2

_NOUN = {"NN", "NNS", "NNP", "NNPS"}
_VERB = {"VB", "VBD", "VBG", "VBN", "VBP", "VBZ"}
_ADJ = {"JJ", "JJR", "JJS"}
_ADV = {"RB", "RBR", "RBS"}
_FINITE = {"VBD", "VBZ", "VBP"}

WORD_POOL = [
    ("cat", "NN"), ("cats", "NNS"), ("system", "NN"), ("systems", "NNS"),
    ("Model", "NN"), ("B12", "NN"),
    ("runs", "VBZ"), ("ran", "VBD"), ("sleep", "VBP"), ("running", "VBG"),
    ("taken", "VBN"), ("run", "VB"), ("can", "MD"),
    ("big", "JJ"), ("complex", "JJ"), ("x-ray", "JJ"), ("larger", "JJR"),
    ("quickly", "RB"), ("very", "RB"), ("faster", "RBR"),
    ("the", "DT"), ("of", "IN"), ("it", "PRP"), ("and", "CC"),
]
PUNCT_POOL = [(".", "."), (",", ","), ("(", "("), (")", ")"),
              ("5", "CD"), ("3.5", "CD")]


def oracle_clauses(tags):
    """Clause count straight from the definition: every finite tag, plus
    every modal whose forward scan meets a VB before a finite tag."""
    count = sum(1 for t in tags if t in _FINITE)
    for i, t in enumerate(tags):
        if t != "MD":
            continue
        for later in tags[i + 1:]:
            if later == "VB":
                count += 1
                break
            if later in _FINITE:
                break
    return count


def oracle_profile(sentences):
    """Recompute all 12 variables from (surface, tag) pairs, independently
    of the library implementation, straight from the documented definitions."""
    def is_word(s):
        return any(c.isalpha() for c in s)

    def char_len(s):
        return sum(1 for c in s if c.isalpha())

    def word_class(surface, tag):
        if not is_word(surface):
            return "Other"
        if tag in _NOUN:
            return "Noun"
        if tag in _VERB:
            return "Verb"
        if tag in _ADJ:
            return "Adjective"
        if tag in _ADV:
            return "Adverb"
        return "Other"

    retained = [s for s in sentences if any(is_word(sf) for sf, _ in s)]
    counts = [sum(1 for sf, _ in s if is_word(sf)) for s in retained]
    n = len(counts)
    mean_len = sum(counts) / n
    if n == 1:
        sd_len = 0.0
    else:
        sd_len = math.sqrt(sum((c - mean_len) ** 2 for c in counts) / (n - 1))
    ratio = sum(oracle_clauses([t for _, t in s]) for s in retained) / n

    words = [(sf, tg) for s in sentences for sf, tg in s if is_word(sf)]
    ttr = len({sf.lower() for sf, _ in words}) / len(words)

    out = [mean_len, sd_len, ratio, ttr]
    for cls in ("Noun", "Verb", "Adjective", "Adverb"):
        lens = [char_len(sf) for sf, tg in words if word_class(sf, tg) == cls]
        out.append(sum(lens) / len(lens) if lens else None)
    for cls in ("Noun", "Verb", "Adjective", "Adverb"):
        out.append(sum(1 for sf, tg in words if word_class(sf, tg) == cls)
                   / len(words))
    return out


def test_criterion_2_variables_vs_oracle():
    rng = np.random.default_rng(7)
    worst = 0.0
    absent_docs = 0
    for i in range(20):
        adverb_free = i % 4 == 0
        word_pool = ([p for p in WORD_POOL if p[1] not in _ADV]
                     if adverb_free else WORD_POOL)
        sentences = []
        for _ in range(int(rng.integers(1, 9))):
            tokens = []
            for _ in range(int(rng.integers(1, 13))):
                if rng.random() < 0.25:
                    tokens.append(PUNCT_POOL[int(rng.integers(0, len(PUNCT_POOL)))])
                else:
                    tokens.append(word_pool[int(rng.integers(0, len(word_pool)))])
            sentences.append(tokens)
        if not any(any(c.isalpha() for c in sf) for s in sentences for sf, _ in s):
            sentences[0].insert(0, ("cat", "NN"))

        column_text = "\n\n".join(
            "\n".join(f"{sf}\t{tg}" for sf, tg in s) for s in sentences) + "\n"
        profile = complexity_profile(import_tagged(column_text, doc_id=f"doc{i:02d}"))
        expected = oracle_profile(sentences)
        if expected[7] is None:
            absent_docs += 1
        for got, want in zip(profile.values(), expected):
            assert (got is None) == (want is None), f"doc{i:02d}: Absent mismatch"
            if want is not None:
                worst = max(worst, abs(got - want))
    ok = worst <= 1e-12 and absent_docs >= 3
    report(2, "variable definitions vs oracle", ok,
           f"20 documents, worst |library-oracle| = {worst:.2e} "
           f"(tolerance 1e-12), {absent_docs} adverb-free documents")


# --------------------------------------------------------------- criterion 3

def d_stat(x, y):
    x = np.sort(np.asarray(x, dtype=float))
    y = np.sort(np.asarray(y, dtype=float))
    grid = np.concatenate([x, y])
    cdf_x = np.searchsorted(x, grid, side="right") / len(x)
    cdf_y = np.searchsorted(y, grid, side="right") / len(y)
    return float(np.max(np.abs(cdf_x - cdf_y)))


def test_criterion_3_ks_calibration():
    # (a) exact permutation null at n1 = n2 = 6: all C(12,6) = 924 splits.
    start = time.time()
    rng = np.random.default_rng(123)
    combos = list(itertools.combinations(range(12), 6))
    complements = [tuple(sorted(set(range(12)) - set(c))) for c in combos]
    worst_exact = 0.0
    for trial in range(40):
        kind = trial % 4
        if kind == 0:
            a, b = rng.normal(0, 1, 6), rng.normal(0, 1, 6)
        elif kind == 1:
            a, b = rng.normal(0, 1, 6), rng.normal(1.0, 1, 6)
        elif kind == 2:
            a, b = rng.exponential(1.0, 6), rng.exponential(1.0, 6)
        else:
            a, b = rng.normal(0, 1, 6), rng.exponential(1.0, 6)
        pooled = np.concatenate([a, b])
        d_obs = d_stat(a, b)
        hits = sum(
            d_stat(pooled[list(c)], pooled[list(comp)]) >= d_obs - 1e-12
            for c, comp in zip(combos, complements))
        p_exact = hits / len(combos)
        p_asym = ks_two_sample(a.tolist(), b.tolist()).p_value
        worst_exact = max(worst_exact, abs(p_asym - p_exact))

    # (b) Monte Carlo permutation at n1 = n2 = 50: 10,000 permutations,
    # permutation seed = trial index.
    rng = np.random.default_rng(2024)
    worst_mc = 0.0
    for trial in range(8):
        shift = rng.uniform(0.0, 0.6)
        a = rng.normal(0, 1, 50)
        b = rng.normal(shift, 1, 50)
        pooled = np.concatenate([a, b])
        d_obs = d_stat(a, b)
        perm_rng = np.random.default_rng(trial)
        hits = 0
        for _ in range(10_000):
            idx = perm_rng.permutation(100)
            if d_stat(pooled[idx[:50]], pooled[idx[50:]]) >= d_obs - 1e-12:
                hits += 1
        worst_mc = max(worst_mc,
                       abs(ks_two_sample(a.tolist(), b.tolist()).p_value
                           - hits / 10_000))
    elapsed = time.time() - start
    # frozen measurements: worst_exact 0.0380, worst_mc 0.0073
    ok = worst_exact <= 0.08 and worst_mc <= 0.02 and elapsed < 120
    report(3, "KS p calibration", ok,
           f"exact n=6 worst gap {worst_exact:.4f} (<= 0.08), "
           f"MC n=50 worst gap {worst_mc:.4f} (<= 0.02), {elapsed:.1f}s")


# --------------------------------------------------------------- criterion 4

def test_criterion_4_bootstrap_coverage():
    start = time.time()
    rng = np.random.default_rng(31415)
    covered = 0
    reps = 1000
    for rep in range(reps):
        sample = rng.normal(10.0, 2.0, 200).tolist()
        est = bootstrap_mean_ci(sample, iterations=10_000, level=0.95, seed=rep)
        if est.ci_low <= 10.0 <= est.ci_high:
            covered += 1
    elapsed = time.time() - start
    rate = covered / reps
    # frozen measurement: 942/1000
    ok = 0.93 <= rate <= 0.97 and elapsed < 300
    report(4, "bootstrap CI coverage", ok,
           f"{covered}/{reps} = {rate:.1%} in [93%, 97%], {elapsed:.1f}s")


# --------------------------------------------------------------- criterion 5

@pytest.mark.filterwarnings("ignore::lexcite.errors.GroupEmptyWarning")
def test_criterion_5_regression_behavior():
    rng = np.random.default_rng(5150)
    profiles = rand_profiles(rng, 60)
    coef = rng.uniform(-1.5, 1.5, 12)
    scores = [NormalizedScore(doc_id=doc_id, nc=float(40 + coef @ x))
              for doc_id, x in zip(profiles.doc_ids, profiles.values)]
    planted = fit_model(*join_scores(profiles, scores)[:2], 5)
    planted_ok = (planted.status == "Estimable"
                  and planted.r_squared >= 1 - 1e-9)

    violations = 0
    for _ in range(100):
        profs = rand_profiles(rng, 120)
        scrs = [NormalizedScore(doc_id=doc_id, nc=float(v))
                for doc_id, v in zip(profs.doc_ids, rng.lognormal(0, 1, 120))]
        values, nc, _ = join_scores(profs, scrs)
        r = {m: fit_model(values, nc, m).r_squared for m in (1, 2, 3, 4, 5, 6)}
        if not (r[1] >= r[2] - 1e-9 and r[2] >= r[5] - 1e-9
                and r[3] >= r[4] - 1e-9 and r[4] >= r[6] - 1e-9):
            violations += 1

    small_profiles = rand_profiles(rng, 17)
    small_scores = [NormalizedScore(doc_id=doc_id, nc=float(v))
                    for doc_id, v in zip(small_profiles.doc_ids,
                                         rng.lognormal(0, 1, 17))]
    small = fit_model(*join_scores(small_profiles, small_scores)[:2], 1)
    rows = build_regression_rows(*join_scores(small_profiles, stratify(small_scores)))
    dash_ok = (small.status == "NonEstimable" and small.r_squared is None
               and [r[2] for r in rows if r[0] == 1 and r[1] == "all"] == ["-"])

    ok = planted_ok and violations == 0 and dash_ok
    report(5, "regression behavior", ok,
           f"planted R^2 = {planted.r_squared!r} (>= 1-1e-9), "
           f"nesting violations {violations}/100, "
           f"17-row full model -> NonEstimable rendered '-'")


# --------------------------------------------------------------- criterion 6

def test_criterion_6_normalization_invariants():
    # hand-checked cell: counts 1,2,3,10 -> mean 4 -> scores .25,.5,.75,2.5
    hand = [CitationRecord(doc_id=f"h{i}", year=2000, domain="A",
                           total_citations=c)
            for i, c in enumerate([1, 2, 3, 10])]
    lookup = baseline_map(compute_baselines(hand))
    hand_nc = [normalize_citations(r, lookup).nc for r in hand]
    hand_ok = hand_nc == [0.25, 0.5, 0.75, 2.5]

    # every cell's mean normalized score is 1 when baselines are internal
    rng = np.random.default_rng(6)
    records = []
    for year in (2001, 2002):
        for domain in ("Eco", "Gen", "Psy"):
            for i in range(int(rng.integers(3, 40))):
                records.append(CitationRecord(
                    doc_id=f"r{year}{domain}{i:03d}", year=year, domain=domain,
                    total_citations=int(rng.integers(0, 200))))
    lookup = baseline_map(compute_baselines(records))
    scored = [normalize_citations(r, lookup) for r in records]
    cell_means = {}
    for rec, score in zip(records, scored):
        cell_means.setdefault((rec.year, rec.domain), []).append(score.nc)
    worst_mean = max(abs(sum(v) / len(v) - 1.0) for v in cell_means.values())

    # scaling every count in a cell by a constant leaves scores unchanged
    scaled = [CitationRecord(doc_id=r.doc_id, year=r.year, domain=r.domain,
                             total_citations=r.total_citations * 7)
              for r in records]
    scaled_lookup = baseline_map(compute_baselines(scaled))
    worst_scale = max(
        abs(normalize_citations(s, scaled_lookup).nc
            - normalize_citations(r, lookup).nc)
        for r, s in zip(records, scaled))

    # zero-mean cell: zero citations score 0; nonzero citations are an error
    zero = [CitationRecord(doc_id=f"z{i}", year=1999, domain="Z",
                           total_citations=0) for i in range(3)]
    zero_lookup = baseline_map(compute_baselines(zero))
    zero_ok = all(normalize_citations(r, zero_lookup).nc == 0.0 for r in zero)
    try:
        normalize_citations(
            CitationRecord(doc_id="z9", year=1999, domain="Z",
                           total_citations=2), zero_lookup)
        raised = False
    except ZeroBaselineNonzeroCitations:
        raised = True

    ok = (hand_ok and worst_mean <= 1e-9 and worst_scale <= 1e-12
          and zero_ok and raised)
    report(6, "normalization invariants", ok,
           f"hand cell {hand_nc}, worst |cell mean - 1| = {worst_mean:.2e} "
           f"(<= 1e-9), worst scale drift {worst_scale:.2e}, "
           f"zero-cell handling {'ok' if zero_ok and raised else 'BROKEN'}")


# --------------------------------------------------------------- criterion 7

def test_criterion_7_false_positive_control():
    rng = np.random.default_rng(42)
    n_docs = 3000
    values = rng.normal(10.0, 2.0, size=(n_docs, 12))
    nc = rng.exponential(1.0, n_docs)
    profiles = ProfileMatrix(tuple(f"D{i:05d}" for i in range(n_docs)), values)
    scores = stratify([NormalizedScore(doc_id=f"D{i:05d}", nc=float(nc[i]))
                       for i in range(n_docs)])
    joined, _, codes = join_scores(profiles, scores)
    null_rows = build_comparison_rows(joined, codes)
    flagged = sum(1 for r in null_rows if r[4] != "")

    high_ids = {s.doc_id for s in scores if s.group is ImpactGroup.HIGH}
    shifted_values = values.copy()
    for i, doc_id in enumerate(profiles.doc_ids):
        if doc_id in high_ids:
            shifted_values[i, 0] += 5.0  # x1, mean sentence length
    shifted, _, _ = join_scores(ProfileMatrix(profiles.doc_ids, shifted_values), scores)
    planted_rows = build_comparison_rows(shifted, codes)
    planted = next(r for r in planted_rows
                   if r[0] == "x1" and r[1] == "High-Low")
    # frozen measurements: 0/36 null flags; planted d 0.8896, p 8.0e-21
    ok = flagged <= 3 and planted[4] == "***"
    report(7, "false-positive control", ok,
           f"null data flagged {flagged}/36 (<= 3 allowed); planted shift "
           f"-> d = {planted[2]:.3f}, p = {planted[3]:.1e}, "
           f"stars = {planted[4]!r}")


# --------------------------------------------------------------- criterion 8

@pytest.mark.filterwarnings("ignore::lexcite.errors.GroupEmptyWarning")
def test_criterion_8_end_to_end_determinism(tmp_path, monkeypatch):
    import os
    for key in list(os.environ):
        if key.startswith("LEXCITE_"):
            monkeypatch.delenv(key)

    def run(out):
        return main(["run", "--input", str(MINICORPUS),
                     "--citations", str(MINICORPUS / "citations.csv"),
                     "--out", str(out), "--seed", "0"])

    # the third run goes into an --out that an earlier run left dirty: a
    # tagged file of a document that is no longer an input, and an
    # errors.json of a failed invocation
    out1, out2, dirty = tmp_path / "one", tmp_path / "two", tmp_path / "dirty"
    (dirty / "tagged").mkdir(parents=True)
    (dirty / "tagged" / "STALE.0001.tsv").write_text(
        "#doc=STALE.0001\nThe\tDT\ncats\tNNS\nsleep\tVBP\n.\t.\n\n",
        encoding="utf-8")
    (dirty / "errors.json").write_text('{"stage": "group"}\n', encoding="utf-8")
    code1, code2, code3 = run(out1), run(out2), run(dirty)

    rejects = read_table(out1 / "rejects.csv").rows
    corpus_lines = (out1 / "corpus.jsonl").read_text("utf-8").count("\n")
    profile_rows = read_table(out1 / "profiles.csv").rows
    mean_x1 = sum(float(r[1]) for r in profile_rows) / len(profile_rows)

    rel_files = sorted(p.relative_to(out1) for p in out1.rglob("*")
                       if p.is_file())
    identical = all(
        rel_files == sorted(p.relative_to(out) for p in out.rglob("*")
                            if p.is_file())
        and all((out1 / rel).read_bytes() == (out / rel).read_bytes()
                for rel in rel_files)
        for out in (out2, dirty))

    ok = (code1 == 0 and code2 == 0 and code3 == 0 and not rejects
          and corpus_lines == 30 and len(profile_rows) == 30
          and 15.0 <= mean_x1 <= 40.0 and identical)
    report(8, "end-to-end determinism", ok,
           f"exit codes ({code1},{code2},{code3}), {corpus_lines} articles "
           f"ingested, 0 rejects expected (got {len(rejects)}), mean sentence "
           f"length {mean_x1:.2f} in [15,40], rerun and rerun into a dirty "
           f"--out byte-identical: {identical} ({len(rel_files)} files)")
