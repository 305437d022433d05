import csv
import dataclasses
import json
import re

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import brute_force_cutpoint, mann_whitney, optimize_oracle
from funcutpoint.cutpoint import (
    CRITERIA,
    CutpointResult,
    auc,
    candidate_set,
    candidates,
    confusion_at,
    optimize,
    roc_points,
    sorted_sweeps,
    write_result_json,
    write_roc_csv,
    write_sweep_csv,
)

SEED = 20240813


def random_sample(rng, max_n=25, discrete=False):
    """Labeled sample with both classes present."""
    while True:
        n = int(rng.integers(2, max_n + 1))
        labels = (rng.random(n) < 0.5).astype(int)
        if labels.min() == labels.max():
            continue
        if discrete:
            scores = rng.integers(0, 6, n).astype(float)
        else:
            scores = rng.normal(0.0, 1.0, n)
        return scores, labels


def test_confusion_examples():
    scores = np.array([2.0, 0.0, -1.0, 1.0])
    labels = np.array([1, 1, 0, 0])
    sens, spec, youden = confusion_at(scores, labels, 0.5)
    assert (sens, spec, youden) == (0.5, 0.5, 0.0)
    assert confusion_at(scores, labels, -5.0) == (1.0, 0.0, 0.0)
    assert confusion_at(scores, labels, 5.0) == (0.0, 1.0, 0.0)
    # The boundary counts as positive.
    sens, spec, _ = confusion_at(scores, labels, 2.0)
    assert sens == 0.5 and spec == 1.0


def test_confusion_at_refuses_a_nan_threshold():
    """No score is >= NaN or < NaN, so a NaN cut-off has no rates to give."""
    with pytest.raises(ValueError, match="c must not be NaN"):
        confusion_at(np.array([0.0, 1.0]), np.array([0, 1]), float("nan"))


def test_degenerate_sample_rejected():
    with pytest.raises(ValueError, match="degenerate sample"):
        confusion_at(np.array([1.0, 2.0]), np.array([1, 1]), 0.0)
    with pytest.raises(ValueError, match="degenerate sample"):
        optimize(np.array([1.0, 2.0]), np.array([0, 0]))
    with pytest.raises(ValueError):
        optimize(np.array([1.0, 2.0]), np.array([0, 2]))
    with pytest.raises(ValueError):
        optimize(np.array([1.0, np.nan]), np.array([0, 1]))


def test_candidate_set_examples():
    np.testing.assert_array_equal(candidate_set([1.0, 1.0, 2.0]), [1.0, 2.0, 3.0])
    np.testing.assert_array_equal(candidate_set([4.5]), [4.5, 5.5])
    rng = np.random.default_rng(SEED)
    scores = rng.normal(0, 1, 40)
    cs = candidate_set(scores)
    assert np.all(np.diff(cs) > 0)
    assert cs[-1] == np.max(scores) + 1.0


def test_optimize_perfect_separation():
    scores = np.array([2.0, 3.0, 0.0, 1.0])
    labels = np.array([1, 1, 0, 0])
    res = optimize(scores, labels, "youden")
    assert res.c_hat == 2.0
    assert res.sensitivity == 1.0
    assert res.specificity == 1.0
    assert res.youden == 1.0
    assert res.auc == 1.0


def test_optimize_all_scores_equal():
    res = optimize(np.full(4, 5.0), np.array([0, 1, 0, 1]))
    assert res.c_hat == 5.0
    assert res.youden == 0.0
    assert res.auc == 0.5


def test_auc_crossed_pairs():
    # Cases at 0 and 2, controls at 1 and 3: one concordant pair in four.
    value = auc(np.array([0.0, 2.0, 1.0, 3.0]), np.array([1, 1, 0, 0]))
    assert value == pytest.approx(0.25, abs=1e-12)


def test_auc_uninformative_scores():
    rng = np.random.default_rng(SEED + 1)
    scores = rng.normal(0.0, 1.0, 2000)
    labels = (rng.random(2000) < 0.5).astype(int)
    assert auc(scores, labels) == pytest.approx(0.5, abs=0.05)


def test_auc_matches_pair_counting():
    rng = np.random.default_rng(SEED + 2)
    for k in range(60):
        scores, labels = random_sample(rng, max_n=60, discrete=(k % 3 == 0))
        assert auc(scores, labels) == pytest.approx(
            mann_whitney(scores, labels), abs=1e-12
        )


def test_optimize_agrees_with_exhaustive_search():
    rng = np.random.default_rng(SEED + 3)
    for k in range(150):
        scores, labels = random_sample(rng, discrete=(k % 2 == 0))
        for criterion in CRITERIA:
            res = optimize(scores, labels, criterion)
            c, sens, spec = brute_force_cutpoint(scores, labels, criterion)
            assert res.c_hat == c
            assert res.sensitivity == sens
            assert res.specificity == spec


@settings(max_examples=300, deadline=None)
@given(
    # Scores rounded to one decimal in [-1, 1]: at most 21 distinct values,
    # so most samples carry heavy ties within and across the classes.
    st.lists(st.tuples(st.floats(-1.0, 1.0).map(lambda x: round(x, 1)),
                       st.integers(0, 1)), min_size=2, max_size=40),
)
def test_optimize_agrees_with_exhaustive_search_on_tied_scores(pairs):
    scores = np.array([s for s, _ in pairs])
    labels = np.array([z for _, z in pairs])
    assume(labels.min() != labels.max())
    for criterion in CRITERIA:
        res = optimize(scores, labels, criterion)
        assert (res.c_hat, res.sensitivity, res.specificity) == \
            brute_force_cutpoint(scores, labels, criterion)


def float_bits(value):
    """Exact float identity: float.hex tells -0.0 from 0.0, which == and
    np.array_equal do not."""
    return [float(v).hex() for v in np.atleast_1d(value)]


# A sample on which np.unique's sort and np.argsort put different zeros
# first (numpy 2.4, x86-64).
MIXED_ZEROS = [(0.9, 0), (-0.8, 0), (-0.6, 1), (0.0, 0), (0.6, 1), (0.2, 0),
               (-0.7, 0), (-0.0, 1), (-0.2, 0)]


@settings(max_examples=400, deadline=None)
@given(
    st.lists(st.tuples(
        st.one_of(
            # Rounded scores tie heavily; round() also yields -0.0.
            st.floats(-1.0, 1.0).map(lambda x: round(x, 1)),
            st.sampled_from([0.0, -0.0]),
            st.floats(-1e3, 1e3),
        ),
        st.integers(0, 1)), min_size=2, max_size=60),
)
@example(MIXED_ZEROS)
@example([(-0.0, 0), (0.0, 1)])
def test_optimize_matches_oracle_bit_for_bit(pairs):
    """The single-argsort sweep reproduces candidate_set + sweep_metrics in
    every field, including which zero a mixed-sign zero run reports."""
    scores = np.array([s for s, _ in pairs])
    labels = np.array([z for _, z in pairs])
    assume(labels.min() != labels.max())
    for criterion in CRITERIA:
        got = optimize(scores, labels, criterion)
        want = optimize_oracle(scores, labels, criterion)
        assert got.criterion == want.criterion == criterion
        for field in dataclasses.fields(CutpointResult):
            if field.name != "criterion":
                assert float_bits(getattr(got, field.name)) == \
                    float_bits(getattr(want, field.name)), field.name


def test_sentinel_lies_above_the_largest_present_value():
    """The sentinel is the largest present value + 1, and a sample whose
    max + 1.0 rounds back to its max has no cut-off above it and fails."""
    for scores in ([1e16, 2e16, 3e16], [-3e16, -2e16, -1e16], [0.0, 2.0**53]):
        with pytest.raises(FloatingPointError, match=re.escape(
                f"no cut-off above the maximum score {max(scores)!r}: max + 1.0 rounds back")):
            optimize(np.array(scores), np.array([1, 0, 0])[:len(scores)])
    assert optimize(np.array([0.0, 2.0**53 - 1]), np.array([1, 0])).sweep_c[-1] == 2.0**53
    # Shared distinct values: row 0 drew only -1e16, row 1 both values.
    distinct, cols = np.array([-1e16, 5.0]), np.array([[2], [2]])
    present = np.array([[True, False, True], [True, True, True]])
    assert candidates(distinct[None], present[1:], cols[1:], None).tolist() == [[6.0]]
    with pytest.raises(FloatingPointError, match=re.escape("maximum score -1e+16:")):
        candidates(distinct[None], present, cols, None)


@st.composite
def score_rows(draw):
    rows, n = draw(st.integers(1, 6)), draw(st.integers(1, 20))
    value = st.one_of(st.floats(-1.0, 1.0).map(lambda x: round(x, 1)),
                      st.sampled_from([0.0, -0.0]))
    scores = draw(st.lists(st.lists(value, min_size=n, max_size=n),
                           min_size=rows, max_size=rows))
    labels = draw(st.lists(st.lists(st.integers(0, 1), min_size=n, max_size=n),
                           min_size=rows, max_size=rows))
    return np.array(scores), np.array(labels)


@settings(max_examples=100, deadline=None)
@given(score_rows())
@example((np.array([[x for x, _ in MIXED_ZEROS], [-0.0, 0.0, 0.0, -0.0, -1.0, 0.0,
                                                   -0.0, -0.0, 0.0]]),
          np.array([[z for _, z in MIXED_ZEROS], [1, 0, 1, 0, 0, 1, 1, 0, 0]])))
def test_sorted_sweeps_rows_are_candidate_sets(sample):
    """Each row of a 2-d sort yields candidate_set of that row, zero signs
    included, and the cases below each candidate; one column per row (the
    first candidate, then the sentinel) reads the same values."""
    scores, labels = sample
    rows, n = scores.shape
    values, cases_below, present = sorted_sweeps(scores, labels)
    for r in range(rows):
        want = candidate_set(scores[r])
        cols = np.flatnonzero(present[r])
        got = candidates(values[r:r + 1], present[r:r + 1], cols[None], lambda _: scores[r])[0]
        assert float_bits(got) == float_bits(want)
        assert cases_below[r, cols].tolist() == \
            [int(labels[r][scores[r] < c].sum()) for c in want]
    for k, col in ((0, 0), (-1, n)):
        got = candidates(values, present, np.full((rows, 1), col), lambda i: scores[i])[:, 0]
        assert float_bits(got) == float_bits([candidate_set(row)[k] for row in scores])


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.tuples(
        st.one_of(
            st.floats(-1.0, 1.0).map(lambda x: round(x, 1)),
            st.sampled_from([0.0, -0.0]),
        ),
        st.integers(0, 1)), min_size=2, max_size=40),
    st.lists(st.sampled_from([-0.5, -0.0, 0.0, 0.25, 1.0, 2.5]), min_size=1, max_size=6),
    st.tuples(st.sampled_from([-2.0, -0.3, -0.0, 0.0]),
              st.sampled_from([-0.0, 0.0, 0.4, 3.0])),
)
@example(MIXED_ZEROS, [0.0, -0.0], (-0.0, 0.0))
def test_restricted_optimize_matches_oracle_bit_for_bit(pairs, grid, bounds):
    """Bounds and grids restrict the same sorted sweep: every field equals
    the candidate_set/sweep_metrics search over the restricted thresholds,
    or both raise the same error."""
    scores = np.array([s for s, _ in pairs])
    labels = np.array([z for _, z in pairs])
    assume(labels.min() != labels.max())
    for kwargs in ({"bounds": bounds}, {"c_grid": np.array(grid)},
                   {"bounds": bounds, "c_grid": np.array(grid)}):
        for criterion in CRITERIA:
            try:
                want = optimize_oracle(scores, labels, criterion, **kwargs)
            except ValueError as exc:
                with pytest.raises(ValueError, match=str(exc)):
                    optimize(scores, labels, criterion, **kwargs)
                continue
            got = optimize(scores, labels, criterion, **kwargs)
            assert got.criterion == want.criterion == criterion
            for field in dataclasses.fields(CutpointResult):
                if field.name != "criterion":
                    assert float_bits(getattr(got, field.name)) == \
                        float_bits(getattr(want, field.name)), field.name


def test_optimize_roc_is_the_full_candidate_roc():
    """ROC and AUC come from the unrestricted sweep, with or without bounds
    and grids, and equal roc_points and auc() exactly."""
    rng = np.random.default_rng(SEED + 8)
    for k in range(40):
        scores, labels = random_sample(rng, max_n=60, discrete=(k % 2 == 0))
        fpr, tpr = roc_points(scores, labels)
        area = auc(scores, labels)
        lo, hi = float(scores.min()), float(scores.max())
        for kwargs in ({}, {"bounds": (lo, hi)},
                       {"c_grid": np.linspace(lo, hi, 7)},
                       {"bounds": (lo, hi), "c_grid": np.linspace(lo, hi, 7)}):
            res = optimize(scores, labels, **kwargs)
            np.testing.assert_array_equal(res.roc_fpr, fpr)
            np.testing.assert_array_equal(res.roc_tpr, tpr)
            assert res.auc == area


def test_tie_breaks():
    scores = np.array([0.0, 1.0, 2.0, 3.0])
    labels = np.array([0, 1, 0, 1])
    # Youden ties at c=1 and c=3; the smaller c wins.
    assert optimize(scores, labels, "youden").c_hat == 1.0
    # Sensitivity 1.0 at c in {0, 1}; specificity prefers c=1.
    res = optimize(scores, labels, "max_sensitivity")
    assert res.c_hat == 1.0 and res.sensitivity == 1.0 and res.specificity == 0.5
    # Specificity 1.0 at c in {3, 4}; sensitivity prefers c=3.
    res = optimize(scores, labels, "max_specificity")
    assert res.c_hat == 3.0 and res.specificity == 1.0 and res.sensitivity == 0.5


def test_sweep_monotonicity_and_youden_identity():
    rng = np.random.default_rng(SEED + 4)
    for k in range(40):
        scores, labels = random_sample(rng, max_n=80, discrete=(k % 2 == 0))
        res = optimize(scores, labels)
        assert np.all(np.diff(res.sweep_sensitivity) <= 0)
        assert np.all(np.diff(res.sweep_specificity) >= 0)
        np.testing.assert_array_equal(
            res.sweep_youden, res.sweep_sensitivity + res.sweep_specificity - 1.0
        )


def test_roc_endpoints_and_monotonicity():
    rng = np.random.default_rng(SEED + 5)
    for _ in range(25):
        scores, labels = random_sample(rng, max_n=50)
        fpr, tpr = roc_points(scores, labels)
        assert fpr[0] == 0.0 and tpr[0] == 0.0
        assert fpr[-1] == 1.0 and tpr[-1] == 1.0
        assert np.all(np.diff(fpr) >= 0)
        assert np.all(np.diff(tpr) >= 0)


def test_rank_invariance_under_increasing_transform():
    """Monotone rescoring may move c_hat but not the achieved rates or AUC."""
    rng = np.random.default_rng(SEED + 6)
    for _ in range(30):
        scores, labels = random_sample(rng, max_n=40)
        res = optimize(scores, labels)
        res_t = optimize(scores**3, labels)
        assert res_t.sensitivity == res.sensitivity
        assert res_t.specificity == res.specificity
        assert res_t.auc == pytest.approx(res.auc, abs=1e-12)
        base_pos = scores >= res.c_hat
        np.testing.assert_array_equal(scores**3 >= res_t.c_hat, base_pos)


def test_bounds_restrict_the_search():
    scores = np.array([0.0, 1.0, 2.0, 3.0])
    labels = np.array([0, 1, 0, 1])
    res = optimize(scores, labels, "youden", bounds=(2.0, 4.0))
    assert res.c_hat == 3.0
    assert res.youden == 0.5
    with pytest.raises(ValueError, match="no candidate cut-points"):
        optimize(scores, labels, bounds=(10.0, 20.0))
    with pytest.raises(ValueError):
        optimize(scores, labels, bounds=(4.0, 2.0))


def test_explicit_grid_search():
    scores = np.array([0.0, 1.0, 2.0, 3.0])
    labels = np.array([0, 1, 0, 1])
    res = optimize(scores, labels, c_grid=np.array([0.25, 2.5]))
    # Both grid points reach Youden 0.5; the smaller one wins.
    assert res.c_hat == 0.25
    assert res.youden == 0.5
    with pytest.raises(ValueError):
        optimize(scores, labels, c_grid=np.array([]))


def test_bounded_search_never_beats_free_search():
    rng = np.random.default_rng(SEED + 7)
    for _ in range(30):
        scores, labels = random_sample(rng, max_n=40)
        free = optimize(scores, labels)
        lo, hi = np.quantile(scores, [0.25, 0.75])
        try:
            bounded = optimize(scores, labels, bounds=(float(lo), float(hi)))
        except ValueError:
            continue
        assert bounded.youden <= free.youden + 1e-12
        # ROC/AUC ignore the restriction.
        assert bounded.auc == free.auc


def test_csv_writers_roundtrip(tmp_path):
    rng = np.random.default_rng(SEED + 8)
    scores, labels = random_sample(rng, max_n=30)
    res = optimize(scores, labels)

    sweep_path = tmp_path / "sweep.csv"
    write_sweep_csv(sweep_path, res)
    with open(sweep_path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["c", "sensitivity", "specificity", "youden"]
    got_c = np.array([float(r[0]) for r in rows[1:]])
    np.testing.assert_array_equal(got_c, res.sweep_c)

    roc_path = tmp_path / "roc.csv"
    write_roc_csv(roc_path, res)
    with open(roc_path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["fpr", "tpr"]
    assert len(rows) - 1 == res.roc_fpr.size

    json_path = tmp_path / "result.json"
    write_result_json(json_path, res, extra={"n_subjects": int(scores.size)})
    payload = json.loads(json_path.read_text())
    assert payload["c_hat"] == res.c_hat
    assert payload["auc"] == res.auc
    assert payload["n_subjects"] == scores.size
    assert len(payload["sweep"]["c"]) == res.sweep_c.size
