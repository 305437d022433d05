from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import run_study_oracle
from funcutpoint import cutpoint, simulate
from funcutpoint.cutpoint import optimize
from funcutpoint.normal import TruncNormalSpec, tn_quantile
from funcutpoint.simulate import (
    BASE_SPREAD,
    DgpParams,
    generate,
    generate_arrays,
    run_study,
    summarize_study,
    write_study_csv,
    write_summary_csv,
)
from funcutpoint.threshold import estimate_mu, margin_vector

SEED = 20240817


class FixedUniforms:
    """Stand-in generator returning preset uniforms, for formula checks."""

    def __init__(self, rows):
        self._rows = np.asarray(rows, dtype=float)

    def random(self, shape):
        assert shape == self._rows.shape
        return self._rows.copy()


# Uniform rows decode to: case (z=1, u1=0, u2=0, u3=1) and
# control (z=0, u1=0.5, u2=-0.25, u3=1.16).
CASE_ROW = [0.4, 0.5, 0.5, 0.5]
CONTROL_ROW = [0.6, 0.75, 0.375, 0.9]


def test_params_validation():
    with pytest.raises(ValueError):
        DgpParams(a=-1.0, b=0.0, n=10)
    with pytest.raises(ValueError):
        DgpParams(a=0.0, b=-0.5, n=10)
    with pytest.raises(ValueError):
        DgpParams(a=0.0, b=0.0, n=1)
    with pytest.raises(ValueError):
        DgpParams(a=0.0, b=0.0, n=10, spread_mode="wide")
    with pytest.raises(ValueError):
        DgpParams(a=0.0, b=0.0, n=10, u2_mode="quadratic")
    params = DgpParams(a=0.0, b=0.0, n=10)
    assert params.grid.size == 100


def test_literal_mode_formulas():
    params = DgpParams(a=1.5, b=2.0, n=2, grid=np.array([0.1, 0.5, 0.9]),
                       spread_mode="literal")
    matrix, z = generate_arrays(params, FixedUniforms([CASE_ROW, CONTROL_ROW]))
    np.testing.assert_array_equal(z, [1, 0])
    q0 = tn_quantile(params.tn, params.grid)
    # Case: a + (base + b) * u3 * q0 with u1 = u2 = 0, u3 = 1.
    np.testing.assert_allclose(matrix[0], 1.5 + (BASE_SPREAD + 2.0) * q0, atol=1e-12)
    # Control: the spread term vanishes, leaving the flat level u1 + v*u2 = 0.
    np.testing.assert_allclose(matrix[1], np.zeros(3), atol=1e-12)


def test_shared_base_mode_formulas():
    grid = np.array([0.1, 0.5, 0.9])
    params = DgpParams(a=1.5, b=2.0, n=2, grid=grid)
    matrix, z = generate_arrays(params, FixedUniforms([CASE_ROW, CONTROL_ROW]))
    q0 = tn_quantile(params.tn, grid)
    np.testing.assert_allclose(matrix[0], 1.5 + (BASE_SPREAD + 2.0) * q0, atol=1e-12)
    # Controls keep the base spread, so both groups share the q0 shape.
    np.testing.assert_allclose(matrix[1], BASE_SPREAD * q0, atol=1e-12)


def test_rho_scaled_u2_modes():
    grid = np.array([0.1, 0.5, 0.9])
    literal = DgpParams(a=0.0, b=0.0, n=2, grid=grid,
                        spread_mode="literal", u2_mode="rho-scaled")
    # A control with u2 < 0 and no spread term gives a decreasing curve.
    with pytest.raises(ValueError, match="not monotone"):
        generate_arrays(literal, FixedUniforms([CASE_ROW, CONTROL_ROW]))

    shared = DgpParams(a=0.0, b=0.0, n=2, grid=grid, u2_mode="rho-scaled")
    matrix, _ = generate_arrays(shared, FixedUniforms([CASE_ROW, CONTROL_ROW]))
    q0 = tn_quantile(shared.tn, grid)
    # u1 + u2*v*rho = 0.5 - 0.5*rho for this control row.
    np.testing.assert_allclose(
        matrix[1], 0.5 - 0.5 * grid + BASE_SPREAD * q0, atol=1e-12
    )
    assert np.all(np.diff(matrix, axis=1) >= 0)


def out_of_place_arrays(params, rng):
    """generate_arrays with fresh temporaries and an np.diff monotonicity
    test: the reference for its in-place build."""
    draws = rng.random((params.n, 4))
    z = (draws[:, 0] < 0.5).astype(int)
    zf = z.astype(float)
    u1 = 2.0 * draws[:, 1] - 1.0
    u2 = 2.0 * draws[:, 2] - 1.0
    u3 = 0.8 + 0.4 * draws[:, 3]
    q0 = tn_quantile(params.tn, params.grid)
    if params.spread_mode == "literal":
        coef = (BASE_SPREAD + params.b) * zf * u3
    else:
        coef = BASE_SPREAD + params.b * zf * u3
    base = params.a * zf + u1
    if params.u2_mode == "literal":
        matrix = (base + u2 * params.v)[:, None] + coef[:, None] * q0[None, :]
    else:
        matrix = (base[:, None] + (u2 * params.v)[:, None] * params.grid[None, :]
                  + coef[:, None] * q0[None, :])
    if np.any(np.diff(matrix, axis=1) < 0.0):
        raise ValueError("not monotone")
    return matrix, z


def test_params_certify_their_spread_shape():
    assert DgpParams(a=0.0, b=0.0, n=10).q0_sorted
    for q0, want in [([0.0, 0.0, 1.0], True), ([-0.0, 0.0], True), ([1.0, 0.5], False),
                     ([0.0, np.inf], False), ([np.nan, 1.0], False)]:
        assert simulate._sorted_finite(np.array(q0)) is want


SPECIAL = st.sampled_from([0.0, -0.0, 1.0, -1.0, 5e-324, 1e308, -1e308, np.inf])


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 4), st.integers(2, 5), st.sampled_from(simulate.U2_MODES),
       st.data())
def test_monotone_certificate_raises_exactly_where_the_scan_does(n, m, u2_mode, data):
    """With the certificate (coef >= 0 and a finite, nondecreasing q0) the
    literal-u2 build skips the O(n*m) scan; it must raise on exactly the
    inputs where the scan over the same matrix finds a decrease, and
    otherwise return that matrix."""
    floats = st.floats(-1e3, 1e3) | SPECIAL
    vec = lambda k, elems=floats: st.lists(elems, min_size=k, max_size=k).map(np.array)
    q0 = data.draw(st.one_of(vec(m), vec(m).map(np.sort),
                             vec(m, st.floats(allow_nan=True)).map(np.sort)))
    coef, base, u2v = data.draw(vec(n)), data.draw(vec(n)), data.draw(vec(n))
    grid = np.linspace(0.1, 1.0, m)
    params = SimpleNamespace(u2_mode=u2_mode, grid=grid, q0=q0,
                             q0_sorted=simulate._sorted_finite(q0))
    with np.errstate(all="ignore"):
        if u2_mode == "literal":
            want = np.multiply.outer(coef, q0) + (base + u2v)[:, None]
        else:
            want = (base[:, None] + u2v[:, None] * grid[None, :]
                    + coef[:, None] * q0[None, :])
        if np.any(want[:, 1:] < want[:, :-1]):
            with pytest.raises(ValueError, match="not monotone"):
                simulate._curves(params, coef, base, u2v)
        else:
            got = simulate._curves(params, coef, base, u2v)
            assert [v.hex() for v in got.ravel()] == [v.hex() for v in want.ravel()]


@pytest.mark.parametrize("u2_mode", ["literal", "rho-scaled"])
@pytest.mark.parametrize("spread_mode", ["shared-base", "literal"])
def test_generate_arrays_matches_out_of_place_formula(spread_mode, u2_mode):
    for seed, (a, b) in enumerate([(0.0, 0.0), (1.5, 0.0), (0.5, 2.0), (3.0, 1.0)]):
        params = DgpParams(a=a, b=b, n=200, v=2.0, spread_mode=spread_mode,
                           u2_mode=u2_mode)

        def rng():
            return np.random.default_rng(np.random.SeedSequence(seed))

        if spread_mode == "literal" and u2_mode == "rho-scaled":
            with pytest.raises(ValueError, match="not monotone"):
                out_of_place_arrays(params, rng())
            with pytest.raises(ValueError, match="not monotone"):
                generate_arrays(params, rng())
            continue
        matrix, z = generate_arrays(params, rng())
        want, want_z = out_of_place_arrays(params, rng())
        assert np.array_equal(matrix, want)
        assert np.array_equal(z, want_z)


def test_generate_is_deterministic():
    params = DgpParams(a=2.0, b=1.0, n=30, seed=4)
    first, labels1 = generate(params)
    second, labels2 = generate(params)
    assert labels1 == labels2
    assert [c.subject_id for c in first] == [f"s{i+1:02d}" for i in range(30)]
    for a, b in zip(first, second):
        np.testing.assert_array_equal(a.values, b.values)


def test_draw_stream_and_uniform_transforms():
    """The cohort must be a pure function of one (n, 4) uniform block."""
    n = 100000
    params = DgpParams(a=0.0, b=0.0, n=n, grid=np.array([0.2, 0.5, 0.8]), seed=11)
    draws = np.random.default_rng(np.random.SeedSequence(11)).random((n, 4))
    matrix, z = generate_arrays(
        params, np.random.default_rng(np.random.SeedSequence(11))
    )
    np.testing.assert_array_equal(z, (draws[:, 0] < 0.5).astype(int))

    u1 = 2.0 * draws[:, 1] - 1.0
    u2 = 2.0 * draws[:, 2] - 1.0
    q0 = tn_quantile(params.tn, params.grid)
    expect = (u1 + params.v * u2)[:, None] + BASE_SPREAD * q0[None, :]
    np.testing.assert_allclose(matrix, expect, atol=1e-12)

    # Centered-uniform sanity at this sample size.
    assert abs(float(u1.mean())) <= 0.01
    assert 0.45 <= float(z.mean()) <= 0.55


def test_separation_grows_with_a_and_b():
    def fitted_youden(a, b):
        params = DgpParams(a=a, b=b, n=400, seed=21)
        curves, labels = generate(params)
        fam = estimate_mu(curves)
        margins = margin_vector(curves, fam)
        scores = np.array([margins[c.subject_id] for c in curves])
        y = np.array([labels[c.subject_id] for c in curves])
        return optimize(scores, y).youden

    null = fitted_youden(0.0, 0.0)
    assert fitted_youden(5.0, 0.0) > null + 0.3
    assert fitted_youden(0.0, 5.0) > null + 0.3


def test_run_study_shape_and_keys():
    rows, meta = run_study([(2.0, 0.0, 40)], R=6, seed=3)
    assert len(rows) == 18
    assert meta["regenerated"] == 0
    for row in rows:
        assert set(row) == {"a", "b", "n", "criterion", "replicate",
                            "sensitivity", "specificity"}
        assert 0.0 <= row["sensitivity"] <= 1.0
        assert 0.0 <= row["specificity"] <= 1.0
    assert sorted({row["replicate"] for row in rows}) == list(range(6))


def test_run_study_thread_count_invariance():
    cells = [(2.0, 0.0, 60), (0.0, 1.0, 40)]
    rows1, meta1 = run_study(cells, R=8, seed=5, threads=1)
    rows4, meta4 = run_study(cells, R=8, seed=5, threads=4)
    assert rows1 == rows4
    assert meta1 == meta4


def test_run_study_matches_manual_replicate():
    """Row (cell 0, replicate 0) must equal the hand-built pipeline."""
    params = DgpParams(a=2.0, b=0.0, n=50)
    rng = np.random.default_rng(np.random.SeedSequence(9, spawn_key=(0, 0)))
    matrix, z = generate_arrays(params, rng)
    mu = matrix.mean(axis=0)
    margins = np.min(matrix - mu[None, :], axis=1)
    expect = optimize(margins, z, "youden")

    rows, _ = run_study([(2.0, 0.0, 50)], criteria=("youden",), R=1, seed=9)
    assert rows[0]["sensitivity"] == expect.sensitivity
    assert rows[0]["specificity"] == expect.specificity


@pytest.mark.parametrize("u2_mode", ["literal", "rho-scaled"])
@pytest.mark.parametrize("spread_mode", ["shared-base", "literal"])
def test_run_study_matches_per_replicate_oracle(spread_mode, u2_mode):
    """One sweep per replicate and the hoisted q0 and DgpParams give the
    rows and meta of one optimize per criterion on a freshly built cohort."""
    cells = [(0.0, 0.0, 2), (2.0, 0.0, 30), (0.5, 2.0, 57), (0.0, 1.0, 4)]
    kwargs = dict(R=12, seed=31, v=1.5, grid=np.linspace(0.05, 1.0, 20),
                  tn=TruncNormalSpec(mean=0.0, sd=3.0, lower=-2.0, upper=4.0),
                  spread_mode=spread_mode, u2_mode=u2_mode)
    if spread_mode == "literal" and u2_mode == "rho-scaled":
        with pytest.raises(ValueError, match="not monotone"):
            run_study_oracle(cells, **kwargs)
        with pytest.raises(ValueError, match="not monotone"):
            run_study(cells, **kwargs)
        return
    rows, meta = run_study(cells, **kwargs)
    want_rows, want_meta = run_study_oracle(cells, **kwargs)
    assert meta == want_meta
    assert meta["regenerated"] > 0
    assert rows == want_rows


@pytest.mark.parametrize("cap", [1, 217, 2**30])
def test_run_study_chunks_match_oracle(cap, monkeypatch):
    """Chunks of 1 replicate; of 7 and 3 (217 elements over 31 and 58
    candidate columns; R = 12 is a multiple of neither); and of all R
    replicates give the oracle's rows bit for bit, regeneration count
    included."""
    monkeypatch.setattr(cutpoint, "_CHUNK_ELEMENTS", cap)
    cells = [(0.0, 0.0, 2), (2.0, 0.0, 30), (0.5, 2.0, 57), (0.0, 1.0, 4)]
    rows, meta = run_study(cells, R=12, seed=17)
    want_rows, want_meta = run_study_oracle(cells, R=12, seed=17)
    assert meta == want_meta
    assert meta["regenerated"] > 0

    def bits(rows):
        return [{k: v.hex() if isinstance(v, float) else v for k, v in row.items()}
                for row in rows]

    assert bits(rows) == bits(want_rows)


def test_run_study_regenerates_single_class_cohorts():
    rows, meta = run_study([(0.0, 0.0, 2)], criteria=("youden",), R=30, seed=0)
    assert len(rows) == 30
    assert meta["regenerated"] > 0


def test_run_study_validation():
    with pytest.raises(ValueError):
        run_study([], R=5)
    with pytest.raises(ValueError):
        run_study([(1.0, 0.0, 20)], R=0)
    with pytest.raises(ValueError):
        run_study([(1.0, 0.0, 20)], criteria=("youden", "accuracy"))


def test_summarize_study_quantiles():
    rows = [
        {"a": 1.0, "b": 0.0, "n": 10, "criterion": "youden",
         "replicate": r, "sensitivity": s, "specificity": 1.0 - s}
        for r, s in enumerate([0.0, 0.5, 1.0])
    ]
    summary = summarize_study(rows)
    sens = {row["metric"]: row for row in summary}["sensitivity"]
    assert sens["mean"] == pytest.approx(0.5)
    assert sens["median"] == pytest.approx(0.5)
    assert sens["q025"] == pytest.approx(np.quantile([0.0, 0.5, 1.0], 0.025))
    assert {row["metric"] for row in summary} == {"sensitivity", "specificity"}


def test_study_csv_writers(tmp_path):
    rows, _ = run_study([(1.0, 0.0, 20)], R=4, seed=2)
    study_path = tmp_path / "study.csv"
    write_study_csv(study_path, rows)
    lines = study_path.read_text().strip().splitlines()
    assert lines[0] == "a,b,n,criterion,replicate,sensitivity,specificity"
    assert len(lines) == 1 + len(rows)

    summary_path = tmp_path / "summary.csv"
    write_summary_csv(summary_path, summarize_study(rows))
    header = summary_path.read_text().splitlines()[0]
    assert header == "a,b,n,criterion,metric,mean,q025,q250,median,q750,q975"
