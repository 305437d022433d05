import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import curve_above_threshold
from funcutpoint.cutpoint import CRITERIA
from funcutpoint import threshold
from funcutpoint.quantiles import QuantileCurve, default_grid
from funcutpoint.threshold import (
    MU_MODES,
    SIGMA_FLOOR,
    ThresholdFamily,
    classify,
    cutoff_curve,
    estimate_mu,
    margin_vector,
    read_cutoff_json,
    standardise,
    write_cutoff_json,
)

SEED = 20240812


def constant_curve(sid, grid, level):
    return QuantileCurve(sid, grid, np.full(grid.size, float(level)))


def random_curves(rng, grid, n, base=100.0, spread=20.0):
    return [
        QuantileCurve(f"s{i}", grid, np.sort(rng.normal(base, spread, grid.size)))
        for i in range(n)
    ]


def test_pooled_mean_of_constant_curves():
    grid = default_grid(6)
    fam = estimate_mu([constant_curve("a", grid, 100.0), constant_curve("b", grid, 120.0)])
    np.testing.assert_array_equal(fam.mu, np.full(6, 110.0))
    np.testing.assert_array_equal(fam.sigma, np.ones(6))


def test_pointwise_median_odd_and_even():
    grid = default_grid(4)
    odd = [constant_curve(s, grid, v) for s, v in zip("abc", [90.0, 100.0, 200.0])]
    fam = estimate_mu(odd, mode="pointwise-median")
    np.testing.assert_array_equal(fam.mu, np.full(4, 100.0))

    even = [constant_curve(s, grid, v) for s, v in zip("abcd", [1.0, 2.0, 3.0, 4.0])]
    fam = estimate_mu(even, mode="pointwise-median")
    # Even count takes the lower of the two middle values.
    np.testing.assert_array_equal(fam.mu, np.full(4, 2.0))


def test_group_mean_uses_only_requested_label():
    grid = default_grid(5)
    curves = [
        constant_curve("a", grid, 80.0),
        constant_curve("b", grid, 120.0),
        constant_curve("c", grid, 300.0),
    ]
    labels = {"a": 0, "b": 0, "c": 1}
    fam = estimate_mu(curves, mode="group-mean", labels=labels, group=0)
    np.testing.assert_array_equal(fam.mu, np.full(5, 100.0))
    fam1 = estimate_mu(curves, mode="group-mean", labels=labels, group=1)
    np.testing.assert_array_equal(fam1.mu, np.full(5, 300.0))
    with pytest.raises(ValueError):
        estimate_mu(curves, mode="group-mean")
    with pytest.raises(ValueError):
        estimate_mu(curves, mode="group-mean", labels={"a": 0, "b": 0, "c": 0}, group=1)


def test_group_mean_names_the_first_unlabelled_curve():
    grid = default_grid(3)
    curves = [constant_curve(sid, grid, 100.0) for sid in ("a", "b", "c")]
    with pytest.raises(ValueError) as exc:
        estimate_mu(curves, mode="group-mean", labels={"a": 0})
    assert str(exc.value) == "no label for subject 'b'"


def test_estimate_mu_rejects_unknown_mode():
    grid = default_grid(3)
    with pytest.raises(ValueError):
        estimate_mu([constant_curve("a", grid, 1.0)], mode="trimmed")


def test_pooled_mean_is_nondecreasing():
    """Averaging nondecreasing curves keeps the threshold curve valid."""
    rng = np.random.default_rng(SEED)
    grid = default_grid(30)
    for _ in range(20):
        curves = random_curves(rng, grid, int(rng.integers(2, 12)))
        fam = estimate_mu(curves)
        assert np.all(np.diff(fam.mu) >= 0)


def test_sigma_floor_on_identical_curves():
    grid = default_grid(4)
    curves = [constant_curve(s, grid, 100.0) for s in "abcd"]
    fam = estimate_mu(curves, with_sigma=True)
    np.testing.assert_array_equal(fam.sigma, np.full(4, SIGMA_FLOOR))
    with pytest.raises(ValueError):
        estimate_mu([curves[0]], with_sigma=True)


def test_sigma_matches_pointwise_sd():
    rng = np.random.default_rng(SEED + 1)
    grid = default_grid(8)
    curves = random_curves(rng, grid, 7)
    fam = estimate_mu(curves, with_sigma=True)
    matrix = np.vstack([c.values for c in curves])
    np.testing.assert_allclose(fam.sigma, matrix.std(axis=0, ddof=1))


def test_margin_examples():
    grid = default_grid(3)
    mu = np.array([10.0, 20.0, 30.0])
    fam = ThresholdFamily(grid, mu, np.ones(3))
    shifted = QuantileCurve("up", grid, mu + 3.0)
    assert margin_vector([shifted], fam)[shifted.subject_id] == 3.0

    curve = QuantileCurve("mix", grid, mu + np.array([2.0, -1.0, 4.0]))
    assert margin_vector([curve], fam)[curve.subject_id] == -1.0

    fam_scaled = ThresholdFamily(grid, mu, np.array([1.0, 2.0, 1.0]))
    assert margin_vector([curve], fam_scaled)[curve.subject_id] == -0.5


def test_margin_grid_mismatch():
    fam = ThresholdFamily(default_grid(4), np.zeros(4), np.ones(4))
    other = QuantileCurve("x", default_grid(5), np.zeros(5))
    with pytest.raises(ValueError, match="grid mismatch"):
        margin_vector([other], fam)[other.subject_id]
    with pytest.raises(ValueError, match="grid mismatch"):
        margin_vector([other], fam)


def test_classification_boundary_is_inclusive():
    margins = {"a": 3.0, "b": -1.0}
    assert classify(margins, 3.0) == {"a": 1, "b": 0}
    assert classify(margins, 3.0001) == {"a": 0, "b": 0}
    assert classify(margins, -2.0) == {"a": 1, "b": 1}


def test_classification_equals_pointwise_rule():
    """Margin-vs-c must agree with checking every grid point directly."""
    rng = np.random.default_rng(SEED + 2)
    for _ in range(100):
        m = int(rng.integers(1, 15))
        grid = np.sort(rng.uniform(0.01, 0.999, m))
        if np.any(np.diff(grid) <= 0):
            continue
        mu = rng.normal(0.0, 5.0, m)
        sigma = rng.uniform(0.1, 3.0, m)
        fam = ThresholdFamily(grid, mu, sigma)
        c = float(rng.normal(0.0, 2.0))
        for i in range(int(rng.integers(1, 8))):
            curve = QuantileCurve(f"s{i}", grid, np.sort(rng.normal(0.0, 6.0, m)))
            direct = curve_above_threshold(curve.values, mu, sigma, c)
            via_margin = margin_vector([curve], fam)[curve.subject_id] >= c
            assert direct == via_margin


def test_margin_shift_rules():
    """Raising mu by k lowers every margin by k; shifting a curve raises its own."""
    rng = np.random.default_rng(SEED + 3)
    grid = default_grid(12)
    curves = random_curves(rng, grid, 6)
    fam = estimate_mu(curves)
    base = margin_vector(curves, fam)
    k = 7.25
    fam_up = ThresholdFamily(grid, fam.mu + k, fam.sigma)
    moved = margin_vector(curves, fam_up)
    for sid in base:
        assert moved[sid] == pytest.approx(base[sid] - k, abs=1e-9)
    curve_up = QuantileCurve("u", grid, curves[0].values + k)
    assert (margin_vector([curve_up], fam)[curve_up.subject_id]
            == pytest.approx(base["s0"] + k, abs=1e-9))


def test_predicted_positives_are_nested_in_c():
    rng = np.random.default_rng(SEED + 4)
    grid = default_grid(10)
    curves = random_curves(rng, grid, 25)
    fam = estimate_mu(curves)
    margins = margin_vector(curves, fam)
    cs = np.sort(rng.normal(0.0, 10.0, 6))
    previous = None
    for c in cs[::-1]:
        positives = {s for s, z in classify(margins, float(c)).items() if z == 1}
        if previous is not None:
            assert previous <= positives
        previous = positives


def test_cutoff_curve_values():
    grid = default_grid(5)
    fam = ThresholdFamily(grid, np.full(5, 100.0), np.ones(5))
    np.testing.assert_array_equal(cutoff_curve(fam, 0.0), fam.mu)
    np.testing.assert_allclose(cutoff_curve(fam, 21.6), np.full(5, 121.6))
    fam2 = ThresholdFamily(grid, np.full(5, 100.0), np.full(5, 2.0))
    np.testing.assert_allclose(cutoff_curve(fam2, -3.0), np.full(5, 94.0))


def test_margin_vector_matches_scalar_margin():
    rng = np.random.default_rng(SEED + 5)
    grid = default_grid(20)
    curves = random_curves(rng, grid, 9)
    fam = estimate_mu(curves, with_sigma=True)
    vec = margin_vector(curves, fam)
    for c in curves:
        assert vec[c.subject_id] == pytest.approx(margin_vector([c], fam)[c.subject_id], abs=0)


def test_family_validation():
    grid = default_grid(3)
    with pytest.raises(ValueError):
        ThresholdFamily(grid, np.zeros(4), np.ones(4))
    with pytest.raises(ValueError):
        ThresholdFamily(grid, np.zeros(3), np.array([1.0, 0.0, 1.0]))
    with pytest.raises(ValueError):
        ThresholdFamily(grid, np.array([0.0, np.inf, 0.0]), np.ones(3))


def test_cutoff_json_roundtrip(tmp_path):
    rng = np.random.default_rng(SEED + 6)
    grid = default_grid(9)
    curves = random_curves(rng, grid, 5)
    fam = estimate_mu(curves, with_sigma=True)
    path = tmp_path / "cutoff.json"
    smoothed = np.sort(fam.mu + 0.5)
    write_cutoff_json(path, fam, c_hat=1.25, criterion="youden", smoothed_curve=smoothed)
    got_fam, c_hat, criterion, got_smoothed = read_cutoff_json(path)
    np.testing.assert_allclose(got_fam.grid, fam.grid)
    np.testing.assert_allclose(got_fam.mu, fam.mu)
    np.testing.assert_allclose(got_fam.sigma, fam.sigma)
    assert c_hat == 1.25
    assert criterion == "youden"
    np.testing.assert_allclose(got_smoothed, smoothed)

    plain = tmp_path / "plain.json"
    write_cutoff_json(plain, fam, c_hat=-0.5, criterion="max_sensitivity")
    _, c2, crit2, sm2 = read_cutoff_json(plain)
    assert (c2, crit2, sm2) == (-0.5, "max_sensitivity", None)


def hexes(values):
    return [float(v).hex() for v in values]


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.integers(1, 8).flatmap(lambda m: st.tuples(
    st.lists(st.floats(-1e300, 1e300), min_size=m, max_size=m),
    st.lists(st.floats(1e-300, 1e300), min_size=m, max_size=m),
    st.none() | st.lists(st.floats(-1e300, 1e300), min_size=m, max_size=m),
)), st.floats(-1e300, 1e300), st.sampled_from(CRITERIA))
def test_cutoff_json_round_trip_is_exact(tmp_path, arrays, c_hat, criterion):
    mu, sigma, smoothed = arrays
    fam = ThresholdFamily(default_grid(len(mu)), np.array(mu), np.array(sigma))
    path = tmp_path / "cutoff.json"
    write_cutoff_json(path, fam, c_hat, criterion, smoothed_curve=smoothed)
    got_fam, got_c, got_criterion, got_smoothed = read_cutoff_json(path)
    for got, want in ((got_fam.grid, fam.grid), (got_fam.mu, fam.mu),
                      (got_fam.sigma, fam.sigma)):
        assert hexes(got) == hexes(want)
    assert (got_c.hex(), got_criterion) == (float(c_hat).hex(), criterion)
    assert (got_smoothed is None) == (smoothed is None)
    if smoothed is not None:
        assert hexes(got_smoothed) == hexes(smoothed)


@settings(max_examples=50, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from([float("nan"), float("inf"), -float("inf")]) | st.floats(-5.0, 5.0),
       st.sampled_from(CRITERIA) | st.text(max_size=12))
def test_cutoff_json_rejects_bad_c_hat_and_criterion(tmp_path, c_hat, criterion):
    grid = default_grid(3)
    fam = ThresholdFamily(grid, np.zeros(3), np.ones(3))
    path = tmp_path / "cutoff.json"
    write_cutoff_json(path, fam, c_hat, criterion)
    if not np.isfinite(c_hat):
        message = f"cutoff file {path}: c_hat must be finite, got {c_hat!r}"
    elif criterion not in CRITERIA:
        message = f"cutoff file {path}: unknown criterion {criterion!r}"
    else:
        assert read_cutoff_json(path)[1:3] == (c_hat, criterion)
        return
    with pytest.raises(ValueError) as exc:
        read_cutoff_json(path)
    assert str(exc.value) == message


def standardise_reference(rows, labels, mode, group, with_sigma, k_split):
    """mu and sigma of the estimation rows with np.mean, np.sort and
    np.std, then the scored rows out of place as (rows - mu) / sigma."""
    est = rows[:k_split] if k_split else rows
    if with_sigma and len(est) < 2:
        raise ValueError("sigma estimation needs at least two curves")
    if mode == "pooled-mean":
        mu = est.mean(axis=0)
    elif mode == "group-mean":
        if not np.any(labels[:len(est)] == group):
            raise ValueError(f"no curves with label {group}")
        mu = est[labels[:len(est)] == group].mean(axis=0)
    else:
        mu = np.sort(est, axis=0)[(len(est) - 1) // 2]
    if with_sigma:
        sigma = np.maximum(est.std(axis=0, ddof=1), SIGMA_FLOOR)
    else:
        sigma = np.ones_like(mu)
    scored = (rows[k_split:] - mu) / sigma
    return mu, sigma, scored, np.min(scored, axis=1)


STANDARDISE_VALUES = (st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, -3.75])
                      | st.floats(-1e6, 1e6))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_standardise_matches_out_of_place_reference(data):
    """The in-place kernel gives the reference's mu, sigma, scored rows and
    margins bit for bit, in every mode, with and without sigma and a split.
    Rows are drawn from a small pool, so tied rows are common."""
    n = data.draw(st.integers(2, 8), label="n")
    m = data.draw(st.integers(1, 5), label="m")
    pool = data.draw(st.lists(st.lists(STANDARDISE_VALUES, min_size=m, max_size=m),
                              min_size=1, max_size=n), label="pool")
    picks = data.draw(st.lists(st.integers(0, len(pool) - 1), min_size=n, max_size=n))
    rows = np.array([pool[i] for i in picks], dtype=float)
    labels = np.array(data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    mode = data.draw(st.sampled_from(MU_MODES), label="mode")
    group = data.draw(st.integers(0, 1), label="group")
    with_sigma = data.draw(st.booleans(), label="with_sigma")
    k_split = data.draw(st.sampled_from([0, 1, n - 1]), label="k_split")

    matrix = rows.copy()
    try:
        want = standardise_reference(rows, labels, mode, group, with_sigma, k_split)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            standardise(matrix, labels, mode, group, with_sigma, k_split)
        assert str(got.value) == str(exc)
        return
    mu, sigma, margins = standardise(matrix, labels, mode, group, with_sigma, k_split)
    want_mu, want_sigma, want_scored, want_margins = want
    assert mu.tobytes() == want_mu.tobytes()
    assert sigma.tobytes() == want_sigma.tobytes()
    assert margins.tobytes() == want_margins.tobytes()
    assert matrix[k_split:].tobytes() == want_scored.tobytes()
    assert matrix[:k_split].tobytes() == rows[:k_split].tobytes()


BLOCK = threshold._SQUARE_BLOCK


@pytest.mark.parametrize("n", [3, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK, 2 * BLOCK + 1])
@pytest.mark.parametrize("m", [1, 2, 100])
def test_pooled_sigma_sums_squares_in_np_add_reduce_order(n, m):
    """The blocked sum of squares is np.add.reduce(np.square(x), axis=0)
    bit for bit, at m = 1 and on a Fortran-ordered x (where numpy may sum
    pairwise) and with n below, at and one past a block multiple. Values span twelve decades, so another
    order of the additions shows. standardise's sigma and margins, with and
    without a split, are the np.std reference's."""
    rng = np.random.default_rng(SEED + 7 * n + m)
    x = rng.normal(size=(n, m)) * 10.0 ** rng.integers(-6, 7, size=(n, m))
    for layout in (x, np.asfortranarray(x)):
        want = np.add.reduce(np.square(layout), axis=0)
        assert threshold._column_sum_of_squares(layout).tobytes() == want.tobytes()
    labels = np.arange(n) % 2
    for k_split in (0, max(2, n // 2)):
        matrix = x.copy()
        _, sigma, margins = standardise(matrix, labels, "pooled-mean", 0, True, k_split)
        _, want_sigma, _, want_margins = standardise_reference(x, labels, "pooled-mean", 0,
                                                               True, k_split)
        assert sigma.tobytes() == want_sigma.tobytes()
        assert margins.tobytes() == want_margins.tobytes()


def test_pooled_sigma_allocates_less_than_one_square():
    """standardise with sigma at n = 1000, m = 100 allocates less than one
    n x m array (0.8 MB) beyond its input: the centred rows are squared a
    block at a time, not whole."""
    rng = np.random.default_rng(SEED + 3)
    x = rng.normal(size=(1000, 100))
    labels = np.arange(1000) % 2
    standardise(x.copy(), labels, with_sigma=True)  # numpy's one-time set-up, untraced
    matrix = x.copy()
    tracemalloc.start()
    try:
        standardise(matrix, labels, with_sigma=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < x.nbytes
