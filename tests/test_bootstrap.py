import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import bootstrap_cutpoint_oracle, bootstrap_scalar_oracle
from funcutpoint import bootstrap, cutpoint
from funcutpoint.bootstrap import (
    BootstrapConfig,
    _percentile_ci,
    bootstrap_cutpoint,
    bootstrap_scalar,
    write_bootstrap_summary_json,
    write_curve_band_csv,
    write_sweep_band_csv,
)
from funcutpoint.cutpoint import CRITERIA, optimize
from funcutpoint.quantiles import QuantileCurve, default_grid
from funcutpoint.simulate import DgpParams, generate

SEED = 20240819


def scalar_sample(rng, n_case=20, n_ctrl=20, delta=2.0):
    scores = np.concatenate([
        rng.normal(delta, 1.0, n_case),
        rng.normal(0.0, 1.0, n_ctrl),
    ])
    labels = np.concatenate([np.ones(n_case, dtype=int), np.zeros(n_ctrl, dtype=int)])
    return scores, labels


def cohort(seed=7, n=40, a=2.0):
    return generate(DgpParams(a=a, b=0.0, n=n, seed=seed))


def test_config_validation():
    with pytest.raises(ValueError):
        BootstrapConfig(B=0)
    with pytest.raises(ValueError):
        BootstrapConfig(alpha=0.0)
    with pytest.raises(ValueError):
        BootstrapConfig(alpha=1.0)
    with pytest.raises(ValueError):
        BootstrapConfig(max_redraws=0)


def test_percentile_rule_on_integers():
    values = np.arange(1.0, 101.0)
    assert _percentile_ci(values, 0.05) == pytest.approx((3.475, 97.525), abs=1e-12)
    assert _percentile_ci(values, 0.5) == pytest.approx((25.75, 75.25), abs=1e-12)


def test_degenerate_resampling_distribution():
    """A single case value pins every replicate's cut-point."""
    scores = np.array([0.0, 1.0, 2.0])
    labels = np.array([0, 0, 1])
    summary = bootstrap_scalar(scores, labels, cfg=BootstrapConfig(B=64, seed=1))
    assert summary.ci == (2.0, 2.0)
    assert np.all(summary.c_hats == 2.0)
    assert summary.metric_cis["sensitivity"] == (1.0, 1.0)
    assert summary.metric_cis["specificity"] == (1.0, 1.0)


def test_scalar_replicate_stream_is_pinned():
    """Replicate b re-runs the fit on indices from substream (seed, b)."""
    rng = np.random.default_rng(SEED)
    scores, labels = scalar_sample(rng)
    cfg = BootstrapConfig(B=8, seed=42)
    summary = bootstrap_scalar(scores, labels, cfg=cfg)
    n = scores.size
    for b in range(cfg.B):
        sub = np.random.default_rng(np.random.SeedSequence(42, spawn_key=(b,)))
        idx = sub.integers(0, n, size=n)
        expect = optimize(scores[idx], labels[idx], "youden")
        assert summary.c_hats[b] == expect.c_hat


def test_scalar_bootstrap_determinism_and_threads():
    rng = np.random.default_rng(SEED + 1)
    scores, labels = scalar_sample(rng)
    cfg = BootstrapConfig(B=60, seed=5)
    one = bootstrap_scalar(scores, labels, cfg=cfg)
    two = bootstrap_scalar(scores, labels, cfg=cfg)
    four = bootstrap_scalar(scores, labels, cfg=cfg)
    np.testing.assert_array_equal(one.c_hats, two.c_hats)
    np.testing.assert_array_equal(one.c_hats, four.c_hats)
    assert one.ci == two.ci == four.ci
    np.testing.assert_array_equal(one.sens_lower, four.sens_lower)


@pytest.mark.parametrize("criterion", ["youden", "max_sensitivity", "max_specificity"])
def test_scalar_bootstrap_matches_per_replicate_oracle(criterion, monkeypatch):
    """The single-sort replicate reproduces optimize plus sweep_metrics per
    resample bit for bit, on tied scores with zeros of both signs and of one
    sign. A replicate's sample is drawn again, and zero_candidate asked for
    its zero, only when its c_hat is zero and it drew zeros of both signs."""
    rng = np.random.default_rng(SEED + 9)
    labels = np.repeat([1, 0], [24, 16])
    draws, zero_calls = [], []
    real_draw, real_zero = bootstrap._draw_indices, cutpoint.zero_candidate

    def recorded_draw(*args):
        idx, fails = real_draw(*args)
        draws.append(idx)
        return idx, fails

    monkeypatch.setattr(bootstrap, "_draw_indices", recorded_draw)
    monkeypatch.setattr(cutpoint, "zero_candidate",
                        lambda sample: zero_calls.append(sample) or real_zero(sample))
    for zeros in ([-0.0, 0.0], [0.0], [-0.0]):
        # Zero-valued scores are cases and every control lies below zero or
        # at 0.5, so c_hat is often the zero candidate, whose sign must match.
        scores = np.concatenate([rng.choice([*zeros, 0.5, 1.0], 24),
                                 rng.choice([-1.0, -0.5, 0.5], 16)])
        zero_calls.clear()
        optimize(scores, labels, criterion)
        point_calls = len(zero_calls)
        draws.clear()
        zero_calls.clear()
        got = bootstrap_scalar(scores, labels, criterion, BootstrapConfig(B=40, seed=3))
        replicate_calls = len(zero_calls) - point_calls
        want = bootstrap_scalar_oracle(scores, labels, criterion, B=40, seed=3)
        assert [v.hex() for v in got.c_hats] == [v.hex() for v in want["c_hats"]]
        assert got.metric_cis == want["metric_cis"]
        assert got.redraws == want["redraws"]
        np.testing.assert_array_equal(got.sweep_c, want["sweep_c"])
        np.testing.assert_array_equal([got.sens_lower, got.sens_upper], want["sens_band"])
        np.testing.assert_array_equal([got.spec_lower, got.spec_upper], want["spec_band"])
        # B = 40 replicates over 5 distinct values are one chunk: the 40
        # draws in order, then the second draws.
        first, again = draws[:40], draws[40:]
        both = [idx for c, idx in zip(got.c_hats, first)
                if c == 0.0 and np.unique(np.signbit(scores[idx][scores[idx] == 0.0])).size == 2]
        assert [a.tolist() for a in again] == [idx.tolist() for idx in both]
        assert replicate_calls == len(both)
        assert len(zeros) == 2 or again == []


def hex_list(values):
    return [float(v).hex() for v in np.ravel(values)]


@st.composite
def tied_samples(draw):
    """Scores with heavy ties and zeros of both signs, and labels with
    both classes; a third of them have a single case or a single control,
    which forces redraws."""
    scores = draw(st.lists(st.one_of(
        # Rounded scores tie heavily; round() also yields -0.0.
        st.floats(-1.0, 1.0).map(lambda x: round(x, 1)),
        st.sampled_from([0.0, -0.0]),
        st.floats(-1e3, 1e3),
    ), min_size=2, max_size=30))
    n = len(scores)
    rare = draw(st.sampled_from(["none", "case", "control"]))
    if rare == "none":
        labels = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    else:
        labels = [int(rare == "control")] * n
        labels[draw(st.integers(0, n - 1))] = int(rare == "case")
    if min(labels) == max(labels):
        labels[0] = 1 - labels[0]
    return np.array(scores), np.array(labels)


@settings(max_examples=100, deadline=None)
@given(tied_samples(), st.integers(1, 40), st.sampled_from([1, 40, 100, 2**16]),
       st.integers(0, 2**32 - 1))
@example((np.array([0.0, -0.0, -0.0, 0.0, 0.5, -0.5]), np.array([1, 1, 0, 1, 0, 0])),
         23, 20, 3)
def test_batched_scalar_bootstrap_matches_oracle_bit_for_bit(sample, B, cap, seed):
    """The counting kernel reproduces optimize plus sweep_metrics per
    resample in every c_hat, metric interval, band and redraw count, for
    every criterion and chunk size: an element cap of 1 counts one replicate
    at a time, 40 and 100 count chunks of 1 to 50 (B is rarely a multiple
    of them), and 2**16 counts all of them at once."""
    scores, labels = sample
    old = cutpoint._CHUNK_ELEMENTS
    cutpoint._CHUNK_ELEMENTS = cap
    try:
        for criterion in CRITERIA:
            cfg = BootstrapConfig(B=B, seed=seed)
            try:
                want = bootstrap_scalar_oracle(scores, labels, criterion, B=B, seed=seed)
            except RuntimeError as exc:
                with pytest.raises(RuntimeError, match=str(exc)):
                    bootstrap_scalar(scores, labels, criterion, cfg)
                continue
            got = bootstrap_scalar(scores, labels, criterion, cfg)
            assert hex_list(got.c_hats) == hex_list(want["c_hats"]), criterion
            for name, ci in want["metric_cis"].items():
                assert hex_list(got.metric_cis[name]) == hex_list(ci), name
            assert got.redraws == want["redraws"]
            assert hex_list(got.sweep_c) == hex_list(want["sweep_c"])
            assert hex_list([got.sens_lower, got.sens_upper]) == hex_list(want["sens_band"])
            assert hex_list([got.spec_lower, got.spec_upper]) == hex_list(want["spec_band"])
    finally:
        cutpoint._CHUNK_ELEMENTS = old


def test_ci_brackets_the_resampling_distribution():
    rng = np.random.default_rng(SEED + 2)
    scores, labels = scalar_sample(rng, 30, 30)
    summary = bootstrap_scalar(scores, labels, cfg=BootstrapConfig(B=200, seed=9))
    lo, hi = summary.ci
    med = float(np.median(summary.c_hats))
    assert lo <= med <= hi
    assert summary.ci == _percentile_ci(summary.c_hats, 0.05)


def test_narrower_alpha_nests():
    rng = np.random.default_rng(SEED + 3)
    scores, labels = scalar_sample(rng, 25, 25)
    wide = bootstrap_scalar(scores, labels, cfg=BootstrapConfig(B=150, seed=3))
    tight = bootstrap_scalar(
        scores, labels, cfg=BootstrapConfig(B=150, seed=3, alpha=0.5)
    )
    assert wide.ci[0] <= tight.ci[0] <= tight.ci[1] <= wide.ci[1]


def test_ci_width_shrinks_with_sample_size():
    hits = 0
    for k in range(20):
        rng = np.random.default_rng(np.random.SeedSequence(1000 + k))
        small = scalar_sample(rng, 20, 20)
        big = scalar_sample(rng, 400, 400)
        cfg = BootstrapConfig(B=100, seed=k)
        w_small = np.diff(bootstrap_scalar(*small, cfg=cfg).ci)[0]
        w_big = np.diff(bootstrap_scalar(*big, cfg=cfg).ci)[0]
        hits += w_big < w_small
    assert hits >= 17


def test_sweep_band_properties():
    rng = np.random.default_rng(SEED + 4)
    scores, labels = scalar_sample(rng)
    summary = bootstrap_scalar(scores, labels, cfg=BootstrapConfig(B=80, seed=8))
    assert summary.sweep_c.size == 512
    assert summary.sweep_c[0] == scores.min()
    assert summary.sweep_c[-1] == scores.max()
    assert np.all(summary.sens_lower <= summary.sens_upper)
    assert np.all(summary.spec_lower <= summary.spec_upper)
    for band in (summary.sens_lower, summary.sens_upper):
        assert np.all(np.diff(band) <= 1e-12)
    for band in (summary.spec_lower, summary.spec_upper):
        assert np.all(np.diff(band) >= -1e-12)
    assert summary.curve_grid is None
    with pytest.raises(ValueError):
        write_curve_band_csv("/dev/null", summary)


def test_functional_bootstrap_reestimates_mu():
    """Replicate 0 must re-run pooled-mean estimation on the resample."""
    curves, labels = cohort()
    cfg = BootstrapConfig(B=12, seed=17)
    summary = bootstrap_cutpoint(curves, labels, cfg=cfg)

    matrix = np.vstack([c.values for c in curves])
    labels_arr = np.array([labels[c.subject_id] for c in curves])
    sub = np.random.default_rng(np.random.SeedSequence(17, spawn_key=(0,)))
    idx = sub.integers(0, matrix.shape[0], size=matrix.shape[0])
    mu_b = matrix[idx].mean(axis=0)
    margins_b = np.min(matrix[idx] - mu_b[None, :], axis=1)
    expect = optimize(margins_b, labels_arr[idx], "youden")
    assert summary.c_hats[0] == expect.c_hat


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("split_fraction", [None, 0.5])
@pytest.mark.parametrize("with_sigma", [False, True])
@pytest.mark.parametrize("mu_mode", ["pooled-mean", "group-mean", "pointwise-median"])
def test_functional_bootstrap_matches_per_replicate_oracle(mu_mode, with_sigma,
                                                           split_fraction, threads):
    """The in-place replicate reproduces the out-of-place one bit for bit."""
    curves, labels = generate(DgpParams(a=1.0, b=1.0, n=40, seed=21))
    kwargs = dict(mu_mode=mu_mode, group=1, with_sigma=with_sigma,
                  split_fraction=split_fraction)
    got = bootstrap_cutpoint(curves, labels, "youden",
                             BootstrapConfig(B=25, seed=13), threads=threads, **kwargs)
    want = bootstrap_cutpoint_oracle(curves, labels, "youden", B=25, seed=13, **kwargs)
    np.testing.assert_array_equal(got.c_hats, want["c_hats"])
    assert got.metric_cis == want["metric_cis"]
    np.testing.assert_array_equal(got.sweep_c, want["sweep_c"])
    np.testing.assert_array_equal([got.sens_lower, got.sens_upper], want["sens_band"])
    np.testing.assert_array_equal([got.spec_lower, got.spec_upper], want["spec_band"])
    np.testing.assert_array_equal([got.curve_lower, got.curve_upper], want["curve_band"])


@pytest.mark.parametrize("criterion", CRITERIA)
def test_functional_bootstrap_prints_sweeps_signed_zero(criterion):
    """Zero margins of both signs: every case curve is +0.0, so the case
    mean is +0.0, and control curves at -0.0 score -0.0 - 0.0 = -0.0.
    c_hat must print the zero that optimize gives each resample."""
    rng = np.random.default_rng(SEED + 10)
    grid = default_grid(1)
    curves, labels = [], {}
    for i in range(40):
        case = i % 2
        value = 0.0 if case else rng.choice([-1.0, -0.0])
        curves.append(QuantileCurve(f"s{i}", grid, np.array([value])))
        labels[f"s{i}"] = case
    kwargs = dict(mu_mode="group-mean", group=1)
    got = bootstrap_cutpoint(curves, labels, criterion, BootstrapConfig(B=60, seed=4),
                             **kwargs)
    want = bootstrap_cutpoint_oracle(curves, labels, criterion, B=60, seed=4, **kwargs)
    assert hex_list(got.c_hats) == hex_list(want["c_hats"])
    assert got.metric_cis == want["metric_cis"]


@pytest.mark.parametrize("cap", [1, 287])
def test_functional_bootstrap_chunks_match_oracle(cap, monkeypatch):
    """Chunks of 1 replicate, and of 7 and 13 (287 elements over 41 and 21
    candidate columns; B = 25 is a multiple of neither) sweep every
    replicate as the per-replicate oracle does."""
    monkeypatch.setattr(cutpoint, "_CHUNK_ELEMENTS", cap)
    curves, labels = generate(DgpParams(a=1.0, b=1.0, n=40, seed=21))
    for kwargs in ({"with_sigma": True},
                   {"mu_mode": "pointwise-median", "split_fraction": 0.5}):
        for criterion in CRITERIA:
            got = bootstrap_cutpoint(curves, labels, criterion,
                                     BootstrapConfig(B=25, seed=13), **kwargs)
            want = bootstrap_cutpoint_oracle(curves, labels, criterion, B=25, seed=13,
                                             **kwargs)
            assert hex_list(got.c_hats) == hex_list(want["c_hats"])
            assert got.metric_cis == want["metric_cis"]
            assert hex_list([got.sens_lower, got.sens_upper]) == hex_list(want["sens_band"])
            assert hex_list([got.spec_lower, got.spec_upper]) == hex_list(want["spec_band"])
            assert hex_list([got.curve_lower, got.curve_upper]) == \
                hex_list(want["curve_band"])


def test_bands_at_n_300_match_oracles(monkeypatch):
    """At n = 300, with a batch of 5 values between selections (B = 30 is no
    multiple of it, and the chunks cut it), both bootstraps' bands keep
    only each point's tails and match the per-replicate oracles bit for
    bit."""
    monkeypatch.setattr(bootstrap, "_BAND_BATCH", 5)
    rng = np.random.default_rng(SEED + 11)
    scores, labels = scalar_sample(rng, n_case=150, n_ctrl=150, delta=1.0)
    scores = np.round(scores, 1)
    curves, curve_labels = generate(DgpParams(a=1.0, b=1.0, n=300, seed=21,
                                              grid=default_grid(10)))
    for criterion in CRITERIA:
        got = bootstrap_scalar(scores, labels, criterion, BootstrapConfig(B=30, seed=9))
        want = bootstrap_scalar_oracle(scores, labels, criterion, B=30, seed=9)
        assert hex_list(got.c_hats) == hex_list(want["c_hats"])
        assert hex_list([got.sens_lower, got.sens_upper]) == hex_list(want["sens_band"])
        assert hex_list([got.spec_lower, got.spec_upper]) == hex_list(want["spec_band"])
        got = bootstrap_cutpoint(curves, curve_labels, criterion,
                                 BootstrapConfig(B=30, seed=9), with_sigma=True)
        want = bootstrap_cutpoint_oracle(curves, curve_labels, criterion, B=30, seed=9,
                                         with_sigma=True)
        assert hex_list(got.c_hats) == hex_list(want["c_hats"])
        assert hex_list([got.sens_lower, got.sens_upper]) == hex_list(want["sens_band"])
        assert hex_list([got.spec_lower, got.spec_upper]) == hex_list(want["spec_band"])
        assert hex_list([got.curve_lower, got.curve_upper]) == hex_list(want["curve_band"])


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 300).flatmap(lambda B: st.tuples(
           st.just(B),
           st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
           st.integers(1, B),
           st.integers(1, B),
           st.integers(1, 4),
           st.integers(0, 2**32 - 1))))
@example((12, 0.2, 1, 5, 2, 0))
@example((300, 1e-300, 1, 7, 1, 1))
@example((11, 0.5, 1, 1, 2, 1))  # a -0.0 lower limit where np.quantile gives 0.0
@example((11, 0.20000000000000004, 1, 1, 2, 0))  # h = 1 + 2**-52 reads order statistic 2
def test_band_limits_are_np_quantile_bit_for_bit(case):
    """_Band's limits over any stream are np.quantile's linear limits over
    all B values, whatever the batch between selections (1 to B) and the
    chunks the stream arrives in (1 to B, so some cut a batch), at any
    alpha, including those where the tails and a batch cover B and every
    value is kept. Values tie heavily and hold zeros of both signs, as a
    curve band's can, and a point that meets a NaN has NaN limits. Where
    only the tails were kept and a point's values hold zeros of both
    signs, the sign of a zero limit is an arbitrary one of them in both,
    so there the limit is checked by value."""
    B, alpha, batch, chunk, points, seed = case
    rng = np.random.default_rng(seed)
    values = rng.choice([-1.5, -0.0, 0.0, 0.25, 1.0, 3.0], size=(B, points))
    values[:, -1] = rng.normal(size=B)
    if seed % 4 == 0:
        values[seed % B, 0] = np.nan
    old = bootstrap._BAND_BATCH
    bootstrap._BAND_BATCH = batch
    try:
        band = bootstrap._Band(points, B, alpha)
        for start in range(0, B, chunk):
            band.add(values[start:start + chunk])
        kept_all = band.ws.shape[1] == B
        got = band.limits()
    finally:
        bootstrap._BAND_BATCH = old
    want = np.quantile(values, [alpha / 2.0, 1.0 - alpha / 2.0], axis=0, method="linear")
    np.testing.assert_array_equal(got, want)
    zero = values == 0.0
    mixed = (zero & np.signbit(values)).any(axis=0) & (zero & ~np.signbit(values)).any(axis=0)
    exact = ~(mixed & (want == 0.0)) | kept_all
    assert hex_list(got[exact]) == hex_list(want[exact])


def test_bands_hold_no_float_replicate_rows():
    """Peak traced memory of a bootstrap whose sweep band dominates it. A
    (512, B) float64 band is 8.2 MB at B = 2000 and 4.1 MB at B = 1000, and
    the sensitivity and specificity bands are two of them: storing float
    rates would peak near 25 and 13 MB."""
    rng = np.random.default_rng(SEED + 12)
    scores, labels = scalar_sample(rng, n_case=500, n_ctrl=500, delta=1.0)
    scores = np.round(scores, 1)
    curves, curve_labels = generate(DgpParams(a=1.0, b=1.0, n=60, seed=5,
                                              grid=default_grid(10)))
    for run, bound_mb in ((lambda: bootstrap_scalar(scores, labels, cfg=BootstrapConfig(B=2000)),
                           10.0),
                          (lambda: bootstrap_cutpoint(curves, curve_labels,
                                                      cfg=BootstrapConfig(B=1000)),
                           6.0)):
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound_mb * 1e6


def test_band_memory_does_not_grow_with_B():
    """Peak traced memory of a scalar bootstrap at B = 10 000 on a tied
    n = 1000 sample. Its band points keep each tail's 251 values, not all
    B: a (513, B) uint16 pair of stored band counts alone would take
    2 * 513 * 10 000 * 2 bytes = 20.52 MB."""
    rng = np.random.default_rng(SEED + 14)
    scores, labels = scalar_sample(rng, n_case=500, n_ctrl=500, delta=1.0)
    scores = np.round(scores, 1)
    B = 10_000
    tracemalloc.start()
    try:
        bootstrap_scalar(scores, labels, cfg=BootstrapConfig(B=B))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * (bootstrap.SWEEP_BAND_POINTS + 1) * B * 2


def test_curve_band_holds_less_than_one_replicate_column():
    """Peak traced memory of the curve band of a (100, 1000) stream, fed in
    the functional bootstrap's chunks of 8, stays below one (m, B) column
    of it (0.8 MB), and its limits are np.quantile's."""
    rng = np.random.default_rng(SEED + 13)
    m, B = 100, 1000
    values = rng.normal(size=(B, m))

    def band():
        curve = bootstrap._Band(m, B, 0.05)
        for start in range(0, B, 8):
            curve.add(values[start:start + 8])
        return curve.limits()

    band()  # numpy's one-time set-up of np.partition, untraced
    tracemalloc.start()
    try:
        got = band()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < values.nbytes
    want = np.quantile(values, [0.025, 0.975], axis=0, method="linear")
    assert hex_list(got) == hex_list(want)


def test_functional_bootstrap_thread_invariance():
    curves, labels = cohort(seed=8)
    cfg = BootstrapConfig(B=16, seed=2)
    one = bootstrap_cutpoint(curves, labels, cfg=cfg, threads=1)
    four = bootstrap_cutpoint(curves, labels, cfg=cfg, threads=4)
    np.testing.assert_array_equal(one.c_hats, four.c_hats)
    np.testing.assert_array_equal(one.curve_lower, four.curve_lower)
    assert one.ci == four.ci


def test_functional_curve_band():
    curves, labels = cohort(seed=12)
    summary = bootstrap_cutpoint(curves, labels, cfg=BootstrapConfig(B=40, seed=6))
    np.testing.assert_array_equal(summary.curve_grid, curves[0].grid)
    assert np.all(summary.curve_lower <= summary.curve_upper)
    assert summary.curve_lower.size == curves[0].grid.size


def test_perfectly_separated_functional_metrics():
    grid = default_grid(8)
    curves = []
    labels = {}
    for i in range(10):
        sid = f"c{i}"
        curves.append(QuantileCurve(sid, grid, np.full(8, 100.0)))
        labels[sid] = 0
    for i in range(10):
        sid = f"d{i}"
        curves.append(QuantileCurve(sid, grid, np.full(8, 180.0)))
        labels[sid] = 1
    summary = bootstrap_cutpoint(curves, labels, cfg=BootstrapConfig(B=32, seed=0))
    for name in ("sensitivity", "specificity", "youden", "auc"):
        assert summary.metric_cis[name] == (1.0, 1.0), name


def test_split_fraction_paths():
    curves, labels = cohort(seed=30, n=50)
    cfg = BootstrapConfig(B=10, seed=4)
    split = bootstrap_cutpoint(curves, labels, cfg=cfg, split_fraction=0.5)
    again = bootstrap_cutpoint(curves, labels, cfg=cfg, split_fraction=0.5)
    np.testing.assert_array_equal(split.c_hats, again.c_hats)
    assert split.B == 10

    with pytest.raises(ValueError):
        bootstrap_cutpoint(curves, labels, cfg=cfg, split_fraction=1.0)
    with pytest.raises(ValueError):
        bootstrap_cutpoint(curves, labels, cfg=cfg, split_fraction=0.0)


def test_redraws_are_counted():
    rng = np.random.default_rng(SEED + 5)
    scores = rng.normal(0.0, 1.0, 12)
    labels = np.zeros(12, dtype=int)
    labels[0] = 1
    summary = bootstrap_scalar(scores, labels, cfg=BootstrapConfig(B=50, seed=2))
    assert summary.redraws > 0


def test_bootstrap_infeasible_raises():
    rng = np.random.default_rng(SEED + 6)
    scores = rng.normal(0.0, 1.0, 12)
    labels = np.zeros(12, dtype=int)
    labels[0] = 1
    cfg = BootstrapConfig(B=50, seed=2, max_redraws=1)
    with pytest.raises(RuntimeError, match="bootstrap infeasible"):
        bootstrap_scalar(scores, labels, cfg=cfg)


def test_missing_label_is_an_error():
    curves, labels = cohort(seed=3, n=10)
    del labels[curves[0].subject_id]
    with pytest.raises(ValueError, match="no label for subject"):
        bootstrap_cutpoint(curves, labels, cfg=BootstrapConfig(B=4, seed=0))


def test_summary_json_schema(tmp_path):
    rng = np.random.default_rng(SEED + 7)
    scores, labels = scalar_sample(rng)
    summary = bootstrap_scalar(scores, labels, cfg=BootstrapConfig(B=30, seed=11))
    path = tmp_path / "bootstrap.json"
    write_bootstrap_summary_json(path, summary)
    payload = json.loads(path.read_text())
    assert set(payload) == {"c_hat", "ci", "B", "alpha", "seed", "redraws",
                            "metric_cis"}
    assert payload["B"] == 30
    assert payload["seed"] == 11
    assert payload["ci"] == [summary.ci[0], summary.ci[1]]
    assert set(payload["metric_cis"]) == {"sensitivity", "specificity",
                                          "youden", "auc"}


def test_band_csv_writers(tmp_path):
    curves, labels = cohort(seed=14)
    summary = bootstrap_cutpoint(curves, labels, cfg=BootstrapConfig(B=20, seed=1))
    sweep_path = tmp_path / "sweep_band.csv"
    write_sweep_band_csv(sweep_path, summary)
    lines = sweep_path.read_text().splitlines()
    assert lines[0] == "c,sens_lo,sens_hi,spec_lo,spec_hi"
    assert len(lines) == 1 + 512

    curve_path = tmp_path / "curve_band.csv"
    write_curve_band_csv(curve_path, summary)
    lines = curve_path.read_text().splitlines()
    assert lines[0] == "rho,lower,upper"
    assert len(lines) == 1 + curves[0].grid.size
