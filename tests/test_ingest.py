from datetime import datetime

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import (
    filter_days_oracle,
    make_series,
    parse_series_oracle,
    uniform_day_rows,
    write_labels_file,
    write_series_file,
)
from funcutpoint import ingest
from funcutpoint.ingest import (
    SubjectSeries,
    filter_days,
    ingest_cohort,
    parse_labels,
    parse_series,
)

SEED = 20240815
DAY_MINUTES = 1440


def day_offsets(*holes, step=5):
    """Minute offsets covering one day, minus any (lo, hi) exclusive holes."""
    offs = []
    for o in range(0, 1440, step):
        if any(lo < o < hi for lo, hi in holes):
            continue
        offs.append(o)
    return offs


def test_parse_sorts_and_dedups(tmp_path):
    path = tmp_path / "series.csv"
    write_series_file(path, [
        ("s1", "2024-03-01T00:10:00Z", "110"),
        ("s1", "2024-03-01T00:00:00Z", "100"),
        ("s1", "2024-03-01T00:05:00Z", "105"),
        ("s1", "2024-03-01T00:05:00Z", "999999"),
        ("s2", "2024-03-01T00:00:00Z", "90"),
    ])
    series, stats = parse_series(path)
    assert [s.subject_id for s in series] == ["s1", "s2"]
    s1 = series[0]
    assert np.all(np.diff(s1.times) > 0)
    # The first occurrence of a duplicated timestamp wins.
    np.testing.assert_array_equal(s1.values, [100.0, 105.0, 110.0])
    assert stats["s1"] == {"records_in": 4, "deduped": 1, "clamped": 1}
    assert stats["s2"] == {"records_in": 1, "deduped": 0, "clamped": 0}


def test_parse_clamps_to_device_range(tmp_path):
    path = tmp_path / "series.csv"
    write_series_file(path, [
        ("s1", "2024-03-01T00:00:00Z", "39.0"),
        ("s1", "2024-03-01T00:05:00Z", "401.5"),
        ("s1", "2024-03-01T00:10:00Z", "40.0"),
    ])
    series, stats = parse_series(path)
    np.testing.assert_array_equal(series[0].values, [40.0, 400.0, 40.0])
    assert stats["s1"]["clamped"] == 2


def test_timestamp_forms_are_equivalent(tmp_path):
    path = tmp_path / "series.csv"
    write_series_file(path, [
        ("s1", "2024-03-01T00:00:00Z", "100"),
        ("s2", "2024-03-01T00:00:00+00:00", "100"),
        ("s3", "2024-03-01T00:00:00", "100"),
        ("s4", "2024-03-01T01:00:00+01:00", "100"),
    ])
    series, _ = parse_series(path)
    stamps = {s.subject_id: int(s.times[0]) for s in series}
    assert len(set(stamps.values())) == 1


def test_parse_error_messages_name_the_line(tmp_path):
    bad_stamp = tmp_path / "stamp.csv"
    write_series_file(bad_stamp, [
        ("s1", "2024-03-01T00:00:00Z", "100"),
        ("s1", "not-a-time", "100"),
    ])
    with pytest.raises(ValueError, match="line 3"):
        parse_series(bad_stamp)

    bad_value = tmp_path / "value.csv"
    write_series_file(bad_value, [("s1", "2024-03-01T00:00:00Z", "high")])
    with pytest.raises(ValueError, match="non-numeric glucose"):
        parse_series(bad_value)

    bad_header = tmp_path / "header.csv"
    bad_header.write_text("id,time,value\ns1,2024-03-01T00:00:00Z,100\n")
    with pytest.raises(ValueError, match="expected header"):
        parse_series(bad_header)

    empty = tmp_path / "empty.csv"
    empty.write_text("subject_id,timestamp,glucose\n")
    with pytest.raises(ValueError, match="no data rows"):
        parse_series(empty)


def test_parse_labels(tmp_path):
    path = tmp_path / "labels.csv"
    write_labels_file(path, {"a": 1, "b": 0})
    assert parse_labels(path) == {"a": 1, "b": 0}

    bad = tmp_path / "bad.csv"
    bad.write_text("subject_id,label\na,2\n")
    with pytest.raises(ValueError, match="label must be 0 or 1"):
        parse_labels(bad)

    dup = tmp_path / "dup.csv"
    dup.write_text("subject_id,label\na,1\na,0\n")
    with pytest.raises(ValueError, match="duplicate label"):
        parse_labels(dup)


def test_full_day_is_retained():
    s = make_series("s1", day_offsets(), np.full(288, 100.0))
    for mode in ("single", "cumulative"):
        out = filter_days(s, gap_mode=mode)
        assert out.retained_days == 1
        assert out.n_records == 288


def test_single_large_gap_drops_the_day():
    offs = day_offsets((600, 725))
    s = make_series("s1", offs, np.full(len(offs), 100.0))
    # A 125-minute hole exceeds the 120-minute budget under both rules.
    for mode in ("single", "cumulative"):
        out = filter_days(s, gap_mode=mode)
        assert out.retained_days == 0
        assert out.n_records == 0


def test_gap_modes_differ_on_repeated_medium_gaps():
    offs = day_offsets((100, 150), (400, 450), (700, 750))
    s = make_series("s1", offs, np.full(len(offs), 100.0))
    # Three 50-minute holes: each is under the budget, their sum is not.
    assert filter_days(s, gap_mode="single").retained_days == 1
    assert filter_days(s, gap_mode="cumulative").retained_days == 0


def test_boundary_coverage_counts_as_gap():
    offs = list(range(480, 1440, 5))
    s = make_series("s1", offs, np.full(len(offs), 100.0))
    for mode in ("single", "cumulative"):
        assert filter_days(s, gap_mode=mode).retained_days == 0


def test_gap_exactly_at_budget_is_kept():
    offs = day_offsets((300, 420))
    s = make_series("s1", offs, np.full(len(offs), 100.0))
    # The hole is exactly 120 minutes; only strictly larger gaps drop a day.
    for mode in ("single", "cumulative"):
        assert filter_days(s, gap_mode=mode).retained_days == 1


def test_sampling_jitter_within_tolerance_is_not_a_gap():
    offs = list(range(0, 1440, 7))
    s = make_series("s1", offs, np.full(len(offs), 100.0))
    # 7-minute spacing on a 5-minute device stays under the 1.5x tolerance.
    assert filter_days(s, gap_mode="cumulative").retained_days == 1


def test_filter_keeps_only_clean_days():
    offs = (
        day_offsets()
        + [o + 1440 for o in day_offsets((600, 725))]
        + [o + 2880 for o in day_offsets()]
    )
    s = make_series("s1", offs, np.full(len(offs), 100.0))
    out = filter_days(s)
    assert out.retained_days == 2
    bad_day = np.unique(out.times // 86400)
    assert bad_day.size == 2


def test_filter_days_is_idempotent():
    rng = np.random.default_rng(SEED)
    offs = day_offsets((200, 330)) + [o + 1440 for o in day_offsets()]
    s = make_series("s1", offs, rng.uniform(80, 150, len(offs)))
    once = filter_days(s)
    twice = filter_days(once)
    np.testing.assert_array_equal(once.times, twice.times)
    np.testing.assert_array_equal(once.values, twice.values)
    assert once.retained_days == twice.retained_days


def test_filter_days_validation():
    s = make_series("s1", [0, 5, 10], [100.0, 100.0, 100.0])
    with pytest.raises(ValueError):
        filter_days(s, gap_mode="weekly")
    with pytest.raises(ValueError):
        filter_days(s, max_gap_minutes=0.0)


def test_series_validation():
    with pytest.raises(ValueError, match="strictly increasing"):
        SubjectSeries("x", np.array([0, 0]), np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        SubjectSeries("x", np.array([0, 60]), np.array([1.0]))


def build_cohort(tmp_path, rng):
    rows = []
    for day in range(2):
        rows += uniform_day_rows("s_good", day, 100.0, step_minutes=15,
                                 jitter=5.0, rng=rng)
    rows.append(("s_good", "2024-03-01T00:07:00Z", "39.0"))
    rows.append(("s_good", "2024-03-01T00:15:00Z", "115.0"))
    rows += uniform_day_rows("s_short", 0, 140.0, step_minutes=15)
    series_path = tmp_path / "series.csv"
    labels_path = tmp_path / "labels.csv"
    write_series_file(series_path, rows)
    write_labels_file(labels_path, {"s_good": 1, "s_short": 0, "s_ghost": 1})
    return series_path, labels_path


def test_ingest_cohort_report(tmp_path):
    rng = np.random.default_rng(SEED + 1)
    series_path, labels_path = build_cohort(tmp_path, rng)
    kept, labels, report = ingest_cohort(
        series_path, labels_path, max_gap_minutes=120.0,
        gap_mode="cumulative", min_days=2, nominal_interval_minutes=15.0,
    )
    assert [s.subject_id for s in kept] == ["s_good"]
    assert labels == {"s_good": 1, "s_short": 0, "s_ghost": 1}
    assert report["missing_subjects"] == ["s_ghost"]

    good = report["subjects"]["s_good"]
    assert good["excluded"] is False
    assert good["retained_days"] == 2
    assert good["dropped_days"] == 0
    assert good["clamped"] == 1
    assert good["deduped"] == 1
    assert min(kept[0].values) == 40.0

    short = report["subjects"]["s_short"]
    assert short["excluded"] is True
    assert short["retained_days"] == 1
    assert short["records_retained"] == 0
    assert short["records_dropped_exclusion"] == 96


def test_ingest_record_conservation(tmp_path):
    rng = np.random.default_rng(SEED + 2)
    series_path, labels_path = build_cohort(tmp_path, rng)
    _, _, report = ingest_cohort(
        series_path, labels_path, max_gap_minutes=120.0,
        gap_mode="cumulative", min_days=2, nominal_interval_minutes=15.0,
    )
    for sid, rec in report["subjects"].items():
        assert rec["records_in"] == (
            rec["deduped"]
            + rec["records_dropped_day_filter"]
            + rec["records_dropped_exclusion"]
            + rec["records_retained"]
        ), sid
    totals = report["totals"]
    assert totals["records_in"] == sum(
        rec["records_in"] for rec in report["subjects"].values()
    )


def test_ingest_without_labels(tmp_path):
    rng = np.random.default_rng(SEED + 3)
    series_path, _ = build_cohort(tmp_path, rng)
    kept, labels, report = ingest_cohort(
        series_path, None, max_gap_minutes=120.0, gap_mode="cumulative",
        min_days=1, nominal_interval_minutes=15.0,
    )
    assert labels == {}
    assert report["missing_subjects"] == []
    assert {s.subject_id for s in kept} == {"s_good", "s_short"}


# --- Columnar fast path against the per-row oracle --------------------------

CANONICAL_STAMP = "{:04d}-{:02d}-{:02d}T{:02d}:{:02d}:{:02d}"


@st.composite
def timestamps(draw, odd=False):
    # Years close together, so that timestamps of one subject collide.
    stamp = draw(st.one_of(
        st.datetimes(min_value=datetime(2024, 2, 28), max_value=datetime(2024, 3, 2)),
        st.datetimes(min_value=datetime(1, 1, 1), max_value=datetime(9999, 12, 31)),
    )).replace(microsecond=0)
    text = CANONICAL_STAMP.format(stamp.year, stamp.month, stamp.day,
                                  stamp.hour, stamp.minute, stamp.second)
    if not odd:
        return text + draw(st.sampled_from(["Z", ""]))
    if draw(st.integers(0, 3)) == 0:
        # Out-of-range parts, e.g. 02-30, hour 24, second 60, year 0.
        parts = draw(st.tuples(
            st.integers(0, 9999), st.integers(0, 13), st.integers(0, 32),
            st.integers(0, 24), st.integers(0, 60), st.integers(0, 61),
        ))
        return CANONICAL_STAMP.format(*parts) + draw(st.sampled_from(["", "Z"]))
    return draw(st.sampled_from([
        text + "+00:00", text + "+01:30", text + "-05:00", text + ".5",
        text + ".250000Z", text[:10] + " " + text[11:], text[:16], text[:10],
        " " + text + "Z", text + "z", "not-a-time",
    ]))


@st.composite
def glucose_texts(draw, odd=False):
    if odd:
        return draw(st.sampled_from([
            "-5", "+120", "nan", "inf", "1_0", "1e2", ".5", "5.", " 120", "120 ", "",
            "1234567890123456", "0.1234567890123456", "12.3.4", "high",
        ]))
    digits = str(draw(st.integers(0, 10 ** 15 - 1))).zfill(draw(st.integers(1, 15)))
    if draw(st.booleans()) or len(digits) == 1:
        return digits
    cut = draw(st.integers(1, len(digits) - 1))
    return digits[:cut] + "." + digits[cut:]


ODD_IDS = [" s1", "s1 ", "", "é", "s,1", '"s1"']


@st.composite
def series_files(draw):
    """Series files, half of them wholly canonical, the rest with odd rows,
    odd line endings, blank lines, a BOM or no final newline."""
    odd = draw(st.booleans())
    ids = draw(st.lists(st.sampled_from(["s1", "s2", "s10", "a b", "S1", "x" * 20]),
                        min_size=1, max_size=4))
    lines = []
    for _ in range(draw(st.integers(0, 40))):
        # An odd row has exactly one field in a non-canonical form.
        odd_field = draw(st.sampled_from(["id", "stamp", "glucose"])) if (
            odd and draw(st.integers(0, 7)) == 0) else None
        sid = draw(st.sampled_from(ODD_IDS if odd_field == "id" else ids))
        if "," in sid:
            sid = f'"{sid}"'
        lines.append(",".join([
            sid, draw(timestamps(odd_field == "stamp")), draw(glucose_texts(odd_field == "glucose")),
        ]))
    eol = "\n"
    if odd:
        if lines and draw(st.integers(0, 3)) == 0:
            lines.insert(draw(st.integers(0, len(lines))), "")
        eol = draw(st.sampled_from(["\n", "\r\n"]))
    text = eol.join(["subject_id,timestamp,glucose"] + lines)
    if draw(st.integers(0, 4)):
        text += eol
    if odd and draw(st.integers(0, 9)) == 0:
        text = "\ufeff" + text
    return text.encode("utf-8")


def outcome(parse, path):
    try:
        series, stats = parse(path)
    except Exception as exc:  # the error itself is the outcome to compare
        return type(exc), str(exc)
    return [(s.subject_id, s.times, s.values, s.nominal_interval_minutes) for s in series], stats


def assert_same_outcome(got, want):
    if isinstance(want[0], type):
        assert got == want
        return
    assert not isinstance(got[0], type), got
    assert got[1] == want[1]
    assert list(got[1]) == list(want[1])
    assert [g[0] for g in got[0]] == [w[0] for w in want[0]]
    for (_, t, v, nominal), (_, t_want, v_want, nominal_want) in zip(got[0], want[0]):
        assert t.dtype == np.int64 and v.dtype == np.float64
        np.testing.assert_array_equal(t, t_want)
        np.testing.assert_array_equal(v, v_want)
        assert nominal == nominal_want


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=series_files(), block_rows=st.sampled_from([1, 2, 3, 7, 1 << 15]))
def test_parse_series_matches_per_row_oracle(tmp_path, monkeypatch, data, block_rows):
    path = tmp_path / "series.csv"
    path.write_bytes(data)
    monkeypatch.setattr(ingest, "_BLOCK_ROWS", block_rows)
    assert_same_outcome(outcome(parse_series, path), outcome(parse_series_oracle, path))


def test_fast_path_owns_canonical_files(tmp_path, monkeypatch):
    def per_row(path, nominal):
        raise AssertionError("per-row parser called")

    path = tmp_path / "series.csv"
    path.write_bytes(
        b"subject_id,timestamp,glucose\n"
        b"b,2024-03-01T00:05:00Z,101\n"
        b"a,2024-03-01T00:00:00,99.5\n"
        b"b,2024-03-01T00:00:00Z,0038.25\n"
        b"b,2024-03-01T00:05:00,7"
    )
    want = outcome(parse_series_oracle, path)
    with monkeypatch.context() as patch:
        patch.setattr(ingest, "_parse_series_rows", per_row)
        patch.setattr(ingest, "_BLOCK_ROWS", 2)
        got = outcome(parse_series, path)
    assert_same_outcome(got, want)
    assert got[1]["b"] == {"records_in": 3, "deduped": 1, "clamped": 2}


@pytest.mark.parametrize("line", [
    b"s1,2024-03-01T00:00:00+00:00,100",
    b"s1,2024-03-01T00:00:00.5Z,100",
    b"s1,2024-03-01T00:00:00Z,100\r",
    b'"s1",2024-03-01T00:00:00Z,100',
    b" s1,2024-03-01T00:00:00Z,100",
    b"s1 ,2024-03-01T00:00:00Z,100",
    b"s1,2024-03-01T00:00:00Z,1_0",
    b"s1,2024-03-01T00:00:00Z,nan",
    b"s1,2024-02-30T00:00:00Z,100",
    b"s1,2024-03-01T00:00:60Z,100",
    b"s\xc3\xa9,2024-03-01T00:00:00Z,100",
])
def test_fast_path_declines_other_forms(tmp_path, monkeypatch, line):
    calls = []
    per_row = ingest._parse_series_rows

    def spy(path, nominal):
        calls.append(path)
        return per_row(path, nominal)

    path = tmp_path / "series.csv"
    path.write_bytes(b"subject_id,timestamp,glucose\n" + line + b"\n")
    monkeypatch.setattr(ingest, "_parse_series_rows", spy)
    assert_same_outcome(outcome(parse_series, path), outcome(parse_series_oracle, path))
    assert calls == [path]


@settings(max_examples=200, deadline=None)
@given(
    # Runs of equal steps, in minutes: long runs of the nominal interval
    # with jitter and holes of every size around the gap budgets.
    runs=st.lists(
        st.tuples(st.integers(1, 300), st.sampled_from([1, 4, 5, 6, 7, 8, 15, 20, 31, 61, 125])),
        min_size=0, max_size=12,
    ),
    start=st.integers(-3 * DAY_MINUTES, 3 * DAY_MINUTES),
    nominal=st.sampled_from([5.0, 15.0]),
    max_gap=st.sampled_from([10.0, 30.0, 120.0, 200.5]),
    gap_mode=st.sampled_from(["single", "cumulative"]),
)
def test_filter_days_matches_per_day_loop(runs, start, nominal, max_gap, gap_mode):
    steps = [step for count, step in runs for _ in range(count)]
    offsets = start + np.cumsum(np.asarray(steps, dtype=np.int64))
    s = make_series("s1", offsets, np.arange(offsets.size, dtype=float), nominal=nominal)
    out = filter_days(s, max_gap, gap_mode)
    times, values, retained = filter_days_oracle(s, max_gap, gap_mode)
    np.testing.assert_array_equal(out.times, times)
    np.testing.assert_array_equal(out.values, values)
    assert out.retained_days == retained
