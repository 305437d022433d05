import json

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from funcutpoint import quantiles
from funcutpoint.quantiles import (
    QuantileCurve,
    default_grid,
    empirical_quantile,
    linear_quantiles,
    read_curves_csv,
    read_grid_json,
    write_curves_csv,
    write_grid_json,
)

SEED = 20240811


def test_default_grid_values():
    grid = default_grid()
    assert grid.size == 100
    assert grid[0] == pytest.approx(1.0 / 101.0)
    assert grid[-1] == pytest.approx(100.0 / 101.0)
    assert np.all(np.diff(grid) > 0)
    assert np.all((grid > 0) & (grid < 1))

    small = default_grid(3)
    np.testing.assert_allclose(small, [0.25, 0.5, 0.75])


def test_default_grid_rejects_bad_size():
    with pytest.raises(ValueError):
        default_grid(0)
    with pytest.raises(ValueError):
        default_grid(-4)


def test_empirical_quantile_four_point_example():
    obs = np.array([80.0, 100.0, 120.0, 140.0])
    grid = np.array([0.25, 0.5, 0.75, 1.0])
    values = empirical_quantile(obs, grid)
    np.testing.assert_array_equal(values, [80.0, 100.0, 120.0, 140.0])
    # Left-continuity: just past a jump the next order statistic applies.
    just_past = empirical_quantile(obs, np.array([0.2500001, 0.5000001]))
    np.testing.assert_array_equal(just_past, [100.0, 120.0])


def test_empirical_quantile_single_observation():
    values = empirical_quantile(np.array([95.0]), np.array([0.1, 0.5, 0.99, 1.0]))
    assert values.shape == (4,) and np.all(values == 95.0)


def test_empirical_quantile_rejects_empty():
    with pytest.raises(ValueError):
        empirical_quantile(np.array([]), default_grid(4))


def test_empirical_quantile_is_order_statistic():
    """Each grid value must be one of the input observations."""
    rng = np.random.default_rng(SEED)
    for _ in range(50):
        n = int(rng.integers(1, 40))
        obs = rng.normal(100.0, 25.0, size=n)
        values = empirical_quantile(obs, default_grid(17))
        pool = set(obs.tolist())
        assert all(v in pool for v in values.tolist())
        assert np.all(np.diff(values) >= 0)


def test_empirical_quantile_shift_equivariance():
    rng = np.random.default_rng(SEED + 1)
    grid = default_grid(25)
    for _ in range(25):
        obs = rng.normal(120.0, 30.0, size=int(rng.integers(2, 60)))
        shift = float(rng.uniform(-40.0, 40.0))
        base = empirical_quantile(obs, grid)
        moved = empirical_quantile(obs + shift, grid)
        np.testing.assert_allclose(moved, base + shift, rtol=0, atol=1e-9)


def test_quantile_cdf_duality():
    """Q(F(x)) recovers every observed x when draws are distinct."""
    rng = np.random.default_rng(SEED + 2)
    for _ in range(30):
        obs = rng.normal(100.0, 20.0, size=int(rng.integers(3, 50)))
        # F(x): the fraction of observations <= x.
        probs = np.unique(np.searchsorted(np.sort(obs), obs, side="right") / obs.size)
        np.testing.assert_array_equal(empirical_quantile(obs, probs), np.unique(obs))


STUDY_QUANTILES = [0.025, 0.25, 0.5, 0.75, 0.975]
PROBABILITIES = st.one_of(
    st.just(STUDY_QUANTILES),
    st.floats(0.0, 1.0, exclude_min=True, exclude_max=True).map(lambda a: [a / 2.0,
                                                                          1.0 - a / 2.0]),
    st.lists(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0), min_size=1, max_size=6),
)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 300), st.integers(1, 3), PROBABILITIES, st.sampled_from(["ties", "normal"]),
       st.integers(0, 2**32 - 1))
@example(1, 1, [0.0, 1.0], "ties", 0)
@example(11, 2, [0.25, 0.75], "ties", 3)
@example(300, 3, STUDY_QUANTILES, "normal", 4)
def test_linear_quantiles_are_np_quantile_bit_for_bit(n, rows, q, kind, seed):
    """linear_quantiles gives np.quantile's linear quantiles bit for bit,
    for one sample and for each row of a 2-d array, at any probabilities
    in [0, 1]: 0 and 1, alpha/2 pairs and the study summary's five. Values
    tie heavily and hold zeros of both signs, whose order in the one
    partition decides the sign of a zero quantile; every fourth seed puts
    a NaN in the first row, whose quantiles are then NaN."""
    rng = np.random.default_rng(seed)
    if kind == "ties":
        values = rng.choice([-1.5, -0.0, 0.0, 0.25, 1.0, 3.0], size=(rows, n))
    else:
        values = rng.normal(size=(rows, n))
    if seed % 4 == 0:
        values[0, seed % n] = np.nan
    want = np.quantile(values, q, axis=1, method="linear")
    got = linear_quantiles(values.copy(), q)
    assert [v.hex() for v in got.ravel().tolist()] == [v.hex() for v in want.ravel().tolist()]
    one = linear_quantiles(values[0].copy(), q)
    assert [v.hex() for v in one.tolist()] == [v.hex() for v in want[:, 0].tolist()]


def test_curve_constructor_validation():
    grid = default_grid(4)
    with pytest.raises(ValueError):
        QuantileCurve("a", grid, np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        QuantileCurve("a", grid, np.array([1.0, 2.0, np.nan, 3.0]))
    with pytest.raises(ValueError):
        QuantileCurve("a", grid, np.array([3.0, 2.0, 2.0, 1.0]))
    with pytest.raises(ValueError):
        QuantileCurve("a", np.array([0.0, 0.5, 0.7, 0.9]), np.ones(4))
    with pytest.raises(ValueError):
        QuantileCurve("a", np.array([0.1, 0.5, 0.5, 0.9]), np.ones(4))
    curve = QuantileCurve("ok", grid, np.array([1.0, 1.0, 2.0, 2.0]))
    assert curve.grid.size == 4


def assert_same_cells(got, want):
    """Equal shapes and every cell equal bit for bit."""
    assert got.shape == want.shape
    assert [v.hex() for v in got.ravel().tolist()] == [v.hex() for v in want.ravel().tolist()]


def test_curves_csv_roundtrip(tmp_path):
    rng = np.random.default_rng(SEED + 5)
    grid = default_grid(12)
    ids = [f"s{i}" for i in range(5)]
    matrix = np.sort(rng.normal(110.0, 18.0, (5, 12)), axis=1)
    csv_path = tmp_path / "curves.csv"
    grid_path = tmp_path / "grid.json"
    write_curves_csv(csv_path, ids, matrix)
    write_grid_json(grid_path, grid)

    got_grid = read_grid_json(grid_path)
    np.testing.assert_array_equal(got_grid, grid)
    got_ids, got = read_curves_csv(csv_path, got_grid)
    assert got_ids == ids
    assert_same_cells(got, matrix)


def test_curves_csv_checks_the_grid_once(tmp_path, monkeypatch):
    """The reader checks the shared grid once per file, not once per row."""
    calls = []
    check_grid = quantiles.check_grid
    monkeypatch.setattr(quantiles, "check_grid",
                        lambda grid: calls.append(grid) or check_grid(grid))
    grid = default_grid(4)
    path = tmp_path / "curves.csv"
    write_curves_csv(path, [f"s{i}" for i in range(6)], np.tile(np.arange(4.0), (6, 1)))
    for _ in range(2):
        ids, matrix = read_curves_csv(path, grid)
    assert len(ids) == 6 and matrix.shape == (6, 4)
    assert len(calls) == 2


def test_curves_csv_rejects_wrong_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("subject_id,rho_1,rho_2\ns1,1.0,2.0\n")
    with pytest.raises(ValueError):
        read_curves_csv(path, default_grid(3))


# Ids with separators and quotes exercise the csv quoting; the reader
# keeps ids verbatim.
CURVE_IDS = st.text(alphabet="abXY09_-. ,\"'", min_size=1, max_size=6)
CURVE_VALUES = st.floats(-1e300, 1e300)


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.integers(1, 6).flatmap(lambda m: st.lists(
    st.tuples(CURVE_IDS, st.lists(CURVE_VALUES, min_size=m, max_size=m)),
    min_size=1, max_size=8, unique_by=lambda row: row[0])))
def test_curves_csv_round_trip_is_exact(tmp_path, rows):
    grid = default_grid(len(rows[0][1]))
    ids = [sid for sid, _ in rows]
    matrix = np.sort(np.array([values for _, values in rows]), axis=1)
    path = tmp_path / "curves.csv"
    write_curves_csv(path, ids, matrix)
    got_ids, got = read_curves_csv(path, grid)
    assert got_ids == ids
    assert_same_cells(got, matrix)


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.integers(2, 4), st.sampled_from([
    ("s1,1.0,2.0,3.0", "duplicate subject_id 's1'"),
    ("s9,1.0,2.0", "expected 4 fields, got 3"),
    ("s9,1.0,2.0,3.0,4.0", "expected 4 fields, got 5"),
    ("s9,1.0,abc,3.0", "non-numeric value"),
    ("s9,1.0,,3.0", "non-numeric value"),
    ("s9,1.0,nan,3.0", "curve values must be finite"),
    ("s9,-inf,2.0,3.0", "curve values must be finite"),
    ("s9,3.0,2.0,1.0", "quantile curve must be nondecreasing"),
]))
def test_curves_csv_rejects_bad_rows_with_file_and_line(tmp_path, line_no, defect):
    """A bad row at any line fails with the file, the line and the reason."""
    bad, message = defect
    rows = ["s1,1.0,2.0,3.0", "s2,1.5,2.5,3.5", "s3,0.0,0.0,0.0"]
    if line_no == 2 and message.startswith("duplicate"):
        line_no = 3
    rows[line_no - 2] = bad
    path = tmp_path / "curves.csv"
    path.write_text("subject_id,rho_1,rho_2,rho_3\n" + "\n".join(rows) + "\n")
    with pytest.raises(ValueError) as exc:
        read_curves_csv(path, default_grid(3))
    assert str(exc.value) == f"curves file {path} line {line_no}: {message}"


def test_curves_csv_reports_the_first_bad_line_first(tmp_path):
    """Each row is checked in full before the next is read: a decreasing
    line 3 fails before a short line 5, and a row that is both non-finite
    and decreasing fails as non-finite."""
    path = tmp_path / "curves.csv"
    header = "subject_id,rho_1,rho_2,rho_3\n"
    path.write_text(header + "s1,1.0,2.0,3.0\ns2,3.0,2.0,1.0\ns3,1.0,1.0,1.0\ns4,1.0,2.0\n")
    with pytest.raises(ValueError) as exc:
        read_curves_csv(path, default_grid(3))
    assert str(exc.value) == f"curves file {path} line 3: quantile curve must be nondecreasing"
    path.write_text(header + "s1,3.0,nan,1.0\n")
    with pytest.raises(ValueError) as exc:
        read_curves_csv(path, default_grid(3))
    assert str(exc.value) == f"curves file {path} line 2: curve values must be finite"


def test_grid_json_shape(tmp_path):
    path = tmp_path / "grid.json"
    write_grid_json(path, default_grid(7))
    payload = json.loads(path.read_text())
    assert payload["m"] == 7
    assert len(payload["points"]) == 7
