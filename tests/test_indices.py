import csv

import numpy as np
import pytest

from conftest import make_series
from funcutpoint import indices
from funcutpoint.indices import (
    INDEX_COLUMNS,
    _auc_index,
    compute_indices,
    conga,
    mage,
    write_indices_csv,
)
from funcutpoint.quantiles import empirical_quantile

SEED = 20240816


@pytest.fixture
def basic(monkeypatch):
    """compute_indices with MAGE and CONGA stubbed to 0.0, for series on
    which they fail (under 3 records, no CONGA pairs): its other fields are
    the basic indices."""
    monkeypatch.setattr(indices, "mage", lambda series: 0.0)
    monkeypatch.setattr(indices, "conga", lambda series, horizon_hours: 0.0)
    return compute_indices


def test_basic_indices_constant_series():
    s = make_series("c", range(0, 120, 5), np.full(24, 100.0))
    vec = compute_indices(s)
    assert vec.mg == 100.0
    assert vec.sd == 0.0
    assert vec.cv == 0.0
    assert vec.iqr == 0.0
    assert vec.tar140 == 0.0 and vec.tar180 == 0.0
    assert vec.auc_index == pytest.approx(100.0)


def test_basic_indices_two_points(basic):
    s = make_series("p", [0, 5], [100.0, 200.0])
    vec = basic(s)
    assert vec.mg == 150.0
    assert vec.sd == pytest.approx(np.std([100.0, 200.0], ddof=1))
    assert vec.cv == pytest.approx(100.0 * vec.sd / 150.0)
    assert vec.iqr == 100.0
    assert vec.tar140 == 0.5 and vec.tar180 == 0.5
    assert vec.auc_index == pytest.approx(150.0)


def test_tar_threshold_convention(basic):
    s = make_series("t", [0, 5], [180.0, 100.0])
    assert basic(s, tar_inclusive=True).tar180 == 0.5
    assert basic(s, tar_inclusive=False).tar180 == 0.0
    low = basic(make_series("l", [0, 5], [54.0, 54.0]))
    assert low.tar140 == 0.0 and low.tar180 == 0.0


def test_basic_indices_needs_two_records():
    s = make_series("one", [0], [100.0])
    with pytest.raises(ValueError, match="need at least 2 records for the basic indices"):
        compute_indices(s)


def test_auc_index_does_not_bridge_long_gaps():
    offs = list(range(0, 125, 5)) + [3 * 1440 + o for o in range(0, 65, 5)]
    values = [100.0] * 25 + [200.0] * 13
    s = make_series("g", offs, values)
    # 2 hours at 100 and 1 hour at 200, the multi-day hole contributes nothing.
    assert compute_indices(s).auc_index == pytest.approx(400.0 / 3.0)


def test_auc_index_skips_singleton_segments(basic):
    s = make_series("i", [0, 5, 10, 10 * 1440], [100.0, 100.0, 100.0, 400.0])
    assert basic(s).auc_index == pytest.approx(100.0)


def test_auc_index_requires_a_segment():
    s = make_series("x", [0, 1440], [100.0, 200.0])
    with pytest.raises(ValueError, match="no contiguous segments"):
        compute_indices(s)


def test_mage_alternating_example():
    s = make_series("m", range(0, 25, 5), [100.0, 160.0, 100.0, 160.0, 100.0])
    assert mage(s) == pytest.approx(60.0)


def test_mage_monotone_and_constant_are_zero():
    ramp = make_series("r", range(0, 20, 5), [100.0, 120.0, 140.0, 160.0])
    assert mage(ramp) == 0.0
    flat = make_series("f", range(0, 25, 5), np.full(5, 100.0))
    assert mage(flat) == 0.0


def test_mage_collapses_plateaus():
    s = make_series("p", range(0, 20, 5), [100.0, 160.0, 160.0, 100.0])
    assert mage(s) == pytest.approx(60.0)


def test_mage_skips_sub_sd_excursions():
    # Amplitudes are [60, 10, 10, 60] against a sample SD near 31.3.
    s = make_series("s", range(0, 25, 5), [100.0, 160.0, 150.0, 160.0, 100.0])
    assert mage(s) == pytest.approx(60.0)


def test_mage_threshold_is_strict():
    # Amplitudes [100, 50] with SD exactly 50: only the 100 qualifies.
    s = make_series("e", range(0, 15, 5), [100.0, 200.0, 150.0])
    assert mage(s) == pytest.approx(100.0)


def test_mage_needs_three_records():
    with pytest.raises(ValueError):
        mage(make_series("x", [0, 5], [100.0, 120.0]))


def test_conga_hourly_example():
    s = make_series("c", [0, 60, 120, 180], [100.0, 100.0, 120.0, 100.0],
                    nominal=60.0)
    assert conga(s) == pytest.approx(20.0)


def test_conga_is_zero_for_period_matching_patterns():
    alternating = make_series(
        "a", [0, 30, 60, 90, 120], [100.0, 120.0, 100.0, 120.0, 100.0],
        nominal=30.0,
    )
    assert conga(alternating) == 0.0
    ramp = make_series(
        "r", [0, 30, 60, 90, 120], [100.0, 110.0, 120.0, 130.0, 140.0],
        nominal=30.0,
    )
    assert conga(ramp) == 0.0
    flat = make_series("f", range(0, 130, 10), np.full(13, 95.0), nominal=10.0)
    assert conga(flat) == 0.0


def test_conga_longer_horizon():
    v = [100.0, 120.0, 90.0, 150.0, 110.0]
    s = make_series("h", [0, 60, 120, 180, 240], v, nominal=60.0)
    expect = np.std(np.array(v[2:]) - np.array(v[:-2]), ddof=1)
    assert conga(s, horizon_hours=2.0) == pytest.approx(expect)


def test_conga_span_and_pairing_errors():
    short = make_series("s", [0, 30], [100.0, 120.0], nominal=30.0)
    with pytest.raises(ValueError, match="span"):
        conga(short)
    misaligned = make_series("m", [0, 25, 50, 75], np.full(4, 100.0), nominal=5.0)
    with pytest.raises(ValueError, match="no valid sample pairs"):
        conga(misaligned)
    with pytest.raises(ValueError):
        conga(short, horizon_hours=0.0)


def test_compute_indices_matches_parts():
    rng = np.random.default_rng(SEED)
    values = np.clip(120.0 + np.cumsum(rng.normal(0, 4, 288)), 60.0, 300.0)
    s = make_series("w", range(0, 1440, 5), values)
    vec = compute_indices(s)
    mg = float(np.mean(values))
    sd = float(np.std(values, ddof=1))
    quart = empirical_quantile(values, np.array([0.25, 0.75]))
    assert vec.subject_id == "w"
    assert vec.mg == mg and vec.sd == sd and vec.cv == 100.0 * sd / mg
    assert vec.iqr == float(quart[1] - quart[0]) and vec.auc_index == _auc_index(s)
    assert vec.tar140 == float(np.mean(values >= 140.0))
    assert vec.tar180 == float(np.mean(values >= 180.0))
    assert vec.mage == mage(s)
    assert vec.conga == conga(s)


def test_shift_invariance_of_dispersion_indices():
    """Adding a constant moves MG/AUC and leaves the dispersion indices."""
    rng = np.random.default_rng(SEED + 1)
    for _ in range(10):
        values = 150.0 + np.cumsum(rng.normal(0, 3, 288))
        s = make_series("a", range(0, 1440, 5), values)
        k = float(rng.uniform(-30.0, 30.0))
        shifted = make_series("a", range(0, 1440, 5), values + k)
        base = compute_indices(s)
        moved = compute_indices(shifted)
        assert moved.mg == pytest.approx(base.mg + k, abs=1e-9)
        assert moved.auc_index == pytest.approx(base.auc_index + k, abs=1e-9)
        for field in ("sd", "iqr", "mage", "conga"):
            assert getattr(moved, field) == pytest.approx(
                getattr(base, field), abs=1e-9
            ), field


def test_write_indices_csv(tmp_path):
    rng = np.random.default_rng(SEED + 2)
    rows = []
    for sid in ("s1", "s2"):
        values = np.clip(130.0 + np.cumsum(rng.normal(0, 4, 288)), 60.0, 300.0)
        rows.append(compute_indices(make_series(sid, range(0, 1440, 5), values)))
    path = tmp_path / "indices.csv"
    write_indices_csv(path, rows)
    with open(path, newline="") as fh:
        got = list(csv.reader(fh))
    assert got[0] == ["subject_id"] + list(INDEX_COLUMNS)
    assert len(got) == 3
    assert float(got[1][1]) == rows[0].mg
