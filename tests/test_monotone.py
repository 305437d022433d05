import csv

import numpy as np
import pytest

from conftest import brute_force_isotonic
from funcutpoint.monotone import (
    monotone_smooth,
    moving_average,
    pava,
    write_curve_values_csv,
)

SEED = 20240814


def test_pava_examples():
    np.testing.assert_allclose(pava([1.0, 3.0, 2.0]), [1.0, 2.5, 2.5])
    np.testing.assert_allclose(pava([3.0, 2.0, 1.0]), [2.0, 2.0, 2.0])
    np.testing.assert_array_equal(pava([1.0, 1.0, 2.0, 5.0]), [1.0, 1.0, 2.0, 5.0])
    np.testing.assert_array_equal(pava([7.0]), [7.0])


def test_pava_validation():
    with pytest.raises(ValueError):
        pava([])


def test_pava_output_is_nondecreasing():
    rng = np.random.default_rng(SEED)
    for _ in range(200):
        v = rng.normal(0.0, 3.0, int(rng.integers(1, 40)))
        out = pava(v)
        assert np.all(np.diff(out) >= -1e-12)


def test_pava_idempotent_and_mean_preserving():
    rng = np.random.default_rng(SEED + 1)
    for _ in range(100):
        n = int(rng.integers(1, 30))
        v = rng.normal(0.0, 2.0, n)
        out = pava(v)
        np.testing.assert_array_equal(pava(out), out)
        assert np.sum(out) == pytest.approx(np.sum(v), rel=1e-12)


def test_pava_matches_exhaustive_projection():
    """Check against brute-force search over every contiguous partition."""
    rng = np.random.default_rng(SEED + 2)
    for _ in range(150):
        n = int(rng.integers(2, 7))
        v = rng.normal(0.0, 2.0, n)
        got = pava(v)
        expect, best_sse = brute_force_isotonic(v)
        np.testing.assert_allclose(got, expect, atol=1e-10)
        assert np.sum((v - got) ** 2) == pytest.approx(best_sse, abs=1e-10)


def test_moving_average_examples():
    np.testing.assert_allclose(moving_average([0.0, 3.0, 0.0], 3), [1.5, 1.0, 1.5])
    np.testing.assert_array_equal(moving_average([4.0, 5.0], 1), [4.0, 5.0])
    v = np.arange(10.0)
    # Centered full windows leave a linear sequence unchanged.
    out = moving_average(v, 5)
    np.testing.assert_allclose(out[2:-2], v[2:-2])


def test_moving_average_validation():
    with pytest.raises(ValueError):
        moving_average([1.0, 2.0], 2)
    with pytest.raises(ValueError):
        moving_average([1.0, 2.0], 0)


def test_monotone_smooth_reports_max_change():
    values = [1.0, 3.0, 2.0]
    smoothed, change = monotone_smooth(values, window=1)
    np.testing.assert_allclose(smoothed, [1.0, 2.5, 2.5])
    assert change == pytest.approx(0.5)

    flat, change0 = monotone_smooth([1.0, 2.0, 4.0], window=1)
    np.testing.assert_array_equal(flat, [1.0, 2.0, 4.0])
    assert change0 == 0.0


def test_monotone_smooth_with_window():
    rng = np.random.default_rng(SEED + 3)
    for _ in range(50):
        v = np.sort(rng.normal(0, 2, 25)) + rng.normal(0, 0.05, 25)
        out, change = monotone_smooth(v, window=5)
        assert np.all(np.diff(out) >= -1e-12)
        assert change == pytest.approx(np.max(np.abs(out - v)), abs=0)


def test_monotone_smooth_rejects_even_window():
    values = np.arange(9.0)
    for window in (4, 0):
        with pytest.raises(ValueError, match="window must be an odd integer >= 1"):
            monotone_smooth(values, window=window)
    smoothed, _ = monotone_smooth(values, window=7)
    np.testing.assert_array_equal(smoothed, moving_average(values, 7))


def test_curve_values_csv_roundtrip(tmp_path):
    rng = np.random.default_rng(SEED + 4)
    rho = np.linspace(0.1, 0.9, 9)
    values = np.sort(rng.normal(100, 10, 9))
    path = tmp_path / "curve.csv"
    write_curve_values_csv(path, rho, values)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["rho", "value"]
    assert [float(r).hex() for r, _ in rows[1:]] == [r.hex() for r in rho]
    assert [float(v).hex() for _, v in rows[1:]] == [v.hex() for v in values]
    with pytest.raises(ValueError):
        write_curve_values_csv(tmp_path / "bad.csv", rho, values[:-1])
