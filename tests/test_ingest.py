import csv
import os
import threading
import tracemalloc
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
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
from funcutpoint.ingest import SubjectSeries, ingest_cohort
from funcutpoint.quantiles import parse_labels

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


def parsed(path):
    """Each subject's sorted, deduped and clamped series, and its records_in,
    deduped and clamped counts, from ingest_cohort under a day rule that
    drops no day: no gap in a UTC day, its midnight coverage included,
    exceeds 1440 minutes, and every subject has a day."""
    kept, _, report = ingest_cohort(path, min_days=1, gap_mode="single", max_gap_minutes=1440.0)
    return kept, {sid: {key: rec[key] for key in ("records_in", "deduped", "clamped")}
                  for sid, rec in report["subjects"].items()}


def test_parse_sorts_and_dedups(tmp_path):
    path = tmp_path / "series.csv"
    write_series_file(path, [
        ("s1", "2024-03-01T00:10:00Z", "110"),
        ("s1", "2024-03-01T00:00:00Z", "100"),
        ("s1", "2024-03-01T00:05:00Z", "105"),
        ("s1", "2024-03-01T00:05:00Z", "999999"),
        ("s2", "2024-03-01T00:00:00Z", "90"),
    ])
    series, stats = parsed(path)
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
    series, stats = parsed(path)
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
    series, _ = parsed(path)
    stamps = {s.subject_id: int(s.times[0]) for s in series}
    assert len(set(stamps.values())) == 1


def test_parse_error_messages_name_the_line(tmp_path):
    bad_stamp = tmp_path / "stamp.csv"
    write_series_file(bad_stamp, [
        ("s1", "2024-03-01T00:00:00Z", "100"),
        ("s1", "not-a-time", "100"),
    ])
    with pytest.raises(ValueError, match="line 3"):
        parsed(bad_stamp)

    bad_value = tmp_path / "value.csv"
    write_series_file(bad_value, [("s1", "2024-03-01T00:00:00Z", "high")])
    with pytest.raises(ValueError, match="non-numeric glucose"):
        parsed(bad_value)

    bad_header = tmp_path / "header.csv"
    bad_header.write_text("id,time,value\ns1,2024-03-01T00:00:00Z,100\n")
    with pytest.raises(ValueError, match="expected header"):
        parsed(bad_header)

    empty = tmp_path / "empty.csv"
    empty.write_text("subject_id,timestamp,glucose\n")
    with pytest.raises(ValueError, match="no data rows"):
        parsed(empty)


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
    with pytest.raises(ValueError) as exc:
        parse_labels(dup)
    assert str(exc.value) == f"{dup} line 3: duplicate subject_id 'a'"

    # The id rules come before the label's own: a repeated id with a bad
    # label fails as a duplicate, as in the curves and scores readers.
    dup.write_text("subject_id,label\na,1\na,2\n")
    with pytest.raises(ValueError) as exc:
        parse_labels(dup)
    assert str(exc.value) == f"{dup} line 3: duplicate subject_id 'a'"


def kept_days(s, max_gap_minutes=120.0, gap_mode="cumulative"):
    """The series' rows on the days that ingest._day_rule keeps, with their
    number as retained_days."""
    bad, rows = ingest._day_rule(s.times, s.nominal_interval_minutes, max_gap_minutes, gap_mode)
    keep = np.repeat(~bad, rows)
    return SubjectSeries(s.subject_id, s.times[keep], s.values[keep], s.nominal_interval_minutes,
                         int((~bad).sum()))


def test_full_day_is_retained():
    s = make_series("s1", day_offsets(), np.full(288, 100.0))
    for mode in ("single", "cumulative"):
        out = kept_days(s, gap_mode=mode)
        assert out.retained_days == 1
        assert out.n_records == 288


def test_single_large_gap_drops_the_day():
    offs = day_offsets((600, 725))
    s = make_series("s1", offs, np.full(len(offs), 100.0))
    # A 125-minute hole exceeds the 120-minute budget under both rules.
    for mode in ("single", "cumulative"):
        out = kept_days(s, gap_mode=mode)
        assert out.retained_days == 0
        assert out.n_records == 0


def test_gap_modes_differ_on_repeated_medium_gaps():
    offs = day_offsets((100, 150), (400, 450), (700, 750))
    s = make_series("s1", offs, np.full(len(offs), 100.0))
    # Three 50-minute holes: each is under the budget, their sum is not.
    assert kept_days(s, gap_mode="single").retained_days == 1
    assert kept_days(s, gap_mode="cumulative").retained_days == 0


def test_boundary_coverage_counts_as_gap():
    offs = list(range(480, 1440, 5))
    s = make_series("s1", offs, np.full(len(offs), 100.0))
    for mode in ("single", "cumulative"):
        assert kept_days(s, gap_mode=mode).retained_days == 0


def test_gap_exactly_at_budget_is_kept():
    offs = day_offsets((300, 420))
    s = make_series("s1", offs, np.full(len(offs), 100.0))
    # The hole is exactly 120 minutes; only strictly larger gaps drop a day.
    for mode in ("single", "cumulative"):
        assert kept_days(s, gap_mode=mode).retained_days == 1


def test_sampling_jitter_within_tolerance_is_not_a_gap():
    offs = list(range(0, 1440, 7))
    s = make_series("s1", offs, np.full(len(offs), 100.0))
    # 7-minute spacing on a 5-minute device stays under the 1.5x tolerance.
    assert kept_days(s, gap_mode="cumulative").retained_days == 1


def test_filter_keeps_only_clean_days():
    offs = (
        day_offsets()
        + [o + 1440 for o in day_offsets((600, 725))]
        + [o + 2880 for o in day_offsets()]
    )
    s = make_series("s1", offs, np.full(len(offs), 100.0))
    out = kept_days(s)
    assert out.retained_days == 2
    bad_day = np.unique(out.times // 86400)
    assert bad_day.size == 2


def test_filter_days_is_idempotent():
    rng = np.random.default_rng(SEED)
    offs = day_offsets((200, 330)) + [o + 1440 for o in day_offsets()]
    s = make_series("s1", offs, rng.uniform(80, 150, len(offs)))
    once = kept_days(s)
    twice = kept_days(once)
    np.testing.assert_array_equal(once.times, twice.times)
    np.testing.assert_array_equal(once.values, twice.values)
    assert once.retained_days == twice.retained_days


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


@pytest.mark.parametrize("min_days", [0, -1])
def test_ingest_cohort_rejects_min_days_below_one(tmp_path, min_days):
    """min_days below 1 excludes no subject, not even one with no retained
    day, so it fails before the series file is read (here it does not exist)."""
    with pytest.raises(ValueError) as exc:
        ingest_cohort(tmp_path / "absent.csv", min_days=min_days)
    assert str(exc.value) == "min_days must be at least 1"


@pytest.mark.parametrize("kwargs, message", [
    ({"max_gap_minutes": 0}, "max_gap_minutes must be positive"),
    ({"max_gap_minutes": float("nan")}, "max_gap_minutes must be positive"),
    ({"nominal_interval_minutes": 0}, "nominal interval must be positive"),
    ({"nominal_interval_minutes": float("nan")}, "nominal interval must be positive"),
    ({"gap_mode": "bogus"}, "unknown gap mode: 'bogus'"),
    ({"max_gap_minutes": float("inf")}, "max_gap_minutes must be finite in seconds"),
    ({"max_gap_minutes": 1e308}, "max_gap_minutes must be finite in seconds"),
    ({"nominal_interval_minutes": float("inf")}, "nominal interval must be finite in seconds"),
    ({"nominal_interval_minutes": 1e308}, "nominal interval must be finite in seconds"),
], ids=["max_gap_0", "max_gap_nan", "nominal_0", "nominal_nan", "gap_mode", "max_gap_inf",
        "max_gap_1e308", "nominal_inf", "nominal_1e308"])
def test_ingest_cohort_checks_parameters_before_reading(tmp_path, kwargs, message):
    """Each day-filter parameter fails with its own error before the series
    file is read (here it does not exist)."""
    with pytest.raises(ValueError) as exc:
        ingest_cohort(tmp_path / "absent.csv", **kwargs)
    assert str(exc.value) == message


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
# Every subject of an ordered file starts here: the first rows of all
# subjects share a date, and later ones cross midnight and 29 February.
ORDERED_START = datetime(2024, 2, 28, 23, 0)


@st.composite
def ordered_lines(draw, ids):
    """Canonical rows in runs of one subject, each subject's rows in time
    order. Steps run from 0 (a duplicate timestamp) to a day; a subject may
    come back, later in time, after another subject's run; runs of 1 to 9
    rows cross every small block size."""
    lines, clock = [], {}
    for sid in draw(st.lists(st.sampled_from(ids), min_size=1, max_size=6)):
        for _ in range(draw(st.integers(1, 9))):
            clock[sid] = clock.get(sid, 0) + draw(st.sampled_from([0, 1, 300, 3599, 86400]))
            stamp = ORDERED_START + timedelta(seconds=clock[sid])
            lines.append(f"{sid},{stamp:%Y-%m-%dT%H:%M:%S}{draw(st.sampled_from(['Z', '']))},"
                         f"{draw(glucose_texts())}")
    return lines


@st.composite
def series_files(draw, ordered=False):
    """Series files. Unordered, half of them are wholly canonical and the
    rest have odd rows, odd line endings, blank lines, a BOM or no final
    newline. Ordered, they are canonical files of ordered_lines."""
    odd = not ordered and draw(st.booleans())
    ids = draw(st.lists(st.sampled_from(["s1", "s2", "s10", "a b", "S1", "x" * 20]),
                        min_size=1, max_size=4))
    lines = draw(ordered_lines(ids)) if ordered else []
    for _ in range(0 if ordered else draw(st.integers(0, 40))):
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


# Reads of less than a line, of a few lines, and the default: a read's
# block is its whole lines, and the line it cuts, with the timestamp lead
# before it, waits for the next read.
READ_SIZES = st.sampled_from([1, 7, 23, 64, 256, ingest._READ_BYTES])


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
@given(data=series_files(), read_bytes=READ_SIZES)
@pytest.mark.parametrize("per_row", [False, True])
def test_parse_series_matches_per_row_oracle(tmp_path, monkeypatch, per_row, data, read_bytes):
    """With per_row, every file goes through the per-row reader and the
    shared tail."""
    path = tmp_path / "series.csv"
    path.write_bytes(data)
    monkeypatch.setattr(ingest, "_READ_BYTES", read_bytes)
    if per_row:
        monkeypatch.setattr(ingest, "_parse_columns", lambda data: None)
    assert_same_outcome(outcome(parsed, path), outcome(parse_series_oracle, path))


def grouped_in_time_order(path) -> bool:
    """Whether each subject's rows form one run, in nondecreasing time."""
    with open(path, newline="") as fh:
        rows = [(sid, datetime.fromisoformat(stamp.rstrip("Z")).replace(tzinfo=timezone.utc))
                for sid, stamp, _ in list(csv.reader(fh))[1:]]
    runs = [sid for k, (sid, _) in enumerate(rows) if k == 0 or rows[k - 1][0] != sid]
    return len(runs) == len(set(runs)) and all(
        t <= u for (s, t), (r, u) in zip(rows, rows[1:]) if s == r)


def per_row_refused(path):
    raise AssertionError("per-row parser called")


# Two subjects in order, sharing a date; with the last two rows swapped,
# s1 comes back after s2's run.
SWAP_EXAMPLE = (b"subject_id,timestamp,glucose\n"
                b"s1,2024-02-28T23:00:00Z,100\n"
                b"s1,2024-02-29T00:00:00,101\n"
                b"s2,2024-02-28T23:00:00Z,102\n")


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=series_files(ordered=True), swap=st.booleans(), read_bytes=READ_SIZES)
@example(data=SWAP_EXAMPLE, swap=True, read_bytes=ingest._READ_BYTES)
@pytest.mark.parametrize("per_row", [False, True])
def test_ordered_files_sort_only_when_out_of_order(tmp_path, monkeypatch, per_row, data,
                                                   swap, read_bytes):
    """Files already grouped by subject in time order skip the sort. A
    subject coming back after another's run, or a swap of the last two
    rows that puts them out of order, takes it. Both readers match the
    per-row oracle either way."""
    lines = data.rstrip(b"\n").split(b"\n")
    if swap and len(lines) > 2:
        lines[-2], lines[-1] = lines[-1], lines[-2]
        data = b"\n".join(lines) + b"\n"
    path = tmp_path / "series.csv"
    path.write_bytes(data)
    monkeypatch.setattr(ingest, "_READ_BYTES", read_bytes)
    if per_row:
        monkeypatch.setattr(ingest, "_parse_columns", lambda data: None)
    else:
        monkeypatch.setattr(ingest, "_parse_series_rows", per_row_refused)
    sorts, lexsort = [], np.lexsort
    with monkeypatch.context() as patch:
        patch.setattr(np, "lexsort", lambda keys: sorts.append(keys) or lexsort(keys))
        got = outcome(parsed, path)
    assert_same_outcome(got, outcome(parse_series_oracle, path))
    assert len(sorts) == (0 if grouped_in_time_order(path) else 1)


def test_fast_path_owns_canonical_files(tmp_path, monkeypatch):
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
        patch.setattr(ingest, "_parse_series_rows", per_row_refused)
        patch.setattr(ingest, "_READ_BYTES", 64)
        got = outcome(parsed, path)
    assert_same_outcome(got, want)
    assert got[1]["b"] == {"records_in": 3, "deduped": 1, "clamped": 2}


# Lines in other forms than the canonical one, each as the only data line
# of a file unless it holds more. The column-wise decoder must decline all.
OTHER_FORMS = [
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
    # Control bytes and a quote inside an id: only the id's own checks see them.
    b"s\t1,2024-03-01T00:00:00Z,100",
    b"s\x001,2024-03-01T00:00:00Z,100",
    b"s\x1f1,2024-03-01T00:00:00Z,100",
    b"s\x7f1,2024-03-01T00:00:00Z,100",
    b's"1,2024-03-01T00:00:00Z,100',
    # Glucose with a dot first or last: float() reads both, csv too.
    b"s1,2024-03-01T00:00:00Z,.5",
    b"s1,2024-03-01T00:00:00Z,5.",
    # Separators out of the comma, comma, newline order.
    b"s1,2024-03-01T00:00:00Z,100\n\ns1,2024-03-01T00:05:00Z,101",
    b"s1,2024-03-01T00:00:00Z,100,5",
    b"s1,2024-03-01T00:00:00Z,100,s1,2024-03-01T00:05:00Z,101",
    b"s1,2024-03-01T00:00:00Z\n100,s1,2024-03-01T00:05:00Z,101",
]


@pytest.mark.parametrize("line", OTHER_FORMS)
def test_fast_path_declines_other_forms(tmp_path, monkeypatch, line):
    calls = []
    per_row = ingest._parse_series_rows

    def spy(path):
        calls.append(path)
        return per_row(path)

    path = tmp_path / "series.csv"
    path.write_bytes(b"subject_id,timestamp,glucose\n" + line + b"\n")
    monkeypatch.setattr(ingest, "_parse_series_rows", spy)
    assert_same_outcome(outcome(parsed, path), outcome(parse_series_oracle, path))
    assert calls == [path]


@pytest.mark.parametrize("line", [None] + OTHER_FORMS)
def test_fast_path_on_files_without_final_newline(tmp_path, monkeypatch, line):
    """A one-row file whose row is canonical but has no final newline is the
    column-wise decoder's (line None); every other form is declined."""
    path = tmp_path / "series.csv"
    path.write_bytes(b"subject_id,timestamp,glucose\n"
                     + (line or b"s1,2024-03-01T00:00:00Z,100"))
    per_row, calls = ingest._parse_series_rows, []
    monkeypatch.setattr(ingest, "_parse_series_rows",
                        lambda path: calls.append(path) or per_row(path))
    assert_same_outcome(outcome(parsed, path), outcome(parse_series_oracle, path))
    assert calls == ([] if line is None else [path])


ID_BYTES = "".join(chr(c) for c in range(0x20, 0x7F) if chr(c) not in '",')


@st.composite
def mixed_width_files(draw):
    """Canonical files whose rows mix ids of 1 to 40 bytes (spaces only
    inside) and glucose fields of 1 to 16 bytes, in any order."""
    ids = draw(st.lists(st.text(ID_BYTES, min_size=1, max_size=40).filter(lambda i: i == i.strip()),
                        min_size=1, max_size=5, unique=True))
    lines = []
    for _ in range(draw(st.integers(1, 30))):
        width = draw(st.integers(1, 16))
        digits = draw(st.text("0123456789", min_size=min(width, 15), max_size=min(width, 15)))
        if width == 16 or (width > 2 and draw(st.booleans())):
            cut = draw(st.integers(1, width - 2))
            digits = digits[:cut] + "." + digits[cut:width - 1]
        lines.append(f"{draw(st.sampled_from(ids))},{draw(timestamps())},{digits}")
    return ("subject_id,timestamp,glucose\n" + "\n".join(lines)
            + draw(st.sampled_from(["\n", ""]))).encode("ascii")


# The 40-byte id's window, at the short last line, runs past the end of the file.
LONG_ID_THEN_SHORT_LINE = (b"subject_id,timestamp,glucose\n" + b"x" * 40
                           + b",2024-03-01T00:00:00Z,100\na,2024-03-01T00:05:00,5")


# A read of len(LONG_ID_THEN_SHORT_LINE) + 1 bytes ends at the short line's
# newline: the 40-byte id's window runs past the bytes read mid-file.
LONG_ID_BEFORE_READ_END = LONG_ID_THEN_SHORT_LINE + b"\nb,2024-03-01T00:10:00Z,6\n"


# With 1-byte ids, the first timestamp window of a block starts 3 bytes before
# the block, in bytes the move to the front of the buffer must keep.
ONE_BYTE_IDS = (b"subject_id,timestamp,glucose\n"
                + b"".join(b"%c,2024-03-01T00:%02d:00Z,%d\n" % (sid, 5 * k, 90 + k)
                           for k, sid in enumerate(b"abcabcaab")))


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=mixed_width_files(), read_bytes=READ_SIZES)
@example(data=LONG_ID_THEN_SHORT_LINE, read_bytes=64)
@example(data=LONG_ID_THEN_SHORT_LINE, read_bytes=ingest._READ_BYTES)
@example(data=LONG_ID_BEFORE_READ_END, read_bytes=len(LONG_ID_THEN_SHORT_LINE) + 1)
@example(data=ONE_BYTE_IDS, read_bytes=1)
@example(data=ONE_BYTE_IDS, read_bytes=7)
@example(data=ONE_BYTE_IDS, read_bytes=23)
def test_fast_path_decodes_mixed_field_widths(tmp_path, monkeypatch, data, read_bytes):
    """Every row of a block is padded to its widest id and glucose field: the
    column-wise decoder owns these files and matches the per-row oracle."""
    path = tmp_path / "series.csv"
    path.write_bytes(data)
    monkeypatch.setattr(ingest, "_READ_BYTES", read_bytes)
    monkeypatch.setattr(ingest, "_parse_series_rows", per_row_refused)
    assert_same_outcome(outcome(parsed, path), outcome(parse_series_oracle, path))


@pytest.mark.parametrize("width", [ingest._MAX_ID_BYTES, ingest._MAX_ID_BYTES + 1, 2000])
def test_fast_path_declines_blocks_with_long_ids(tmp_path, width):
    """The id gather is rows x the widest id of a block, so a canonical file
    with an id over _MAX_ID_BYTES is the per-row reader's, which reads it
    as the oracle does; an id at the cap stays column-wise."""
    path = tmp_path / "series.csv"
    path.write_bytes(b"subject_id,timestamp,glucose\n"
                     + b"x" * width + b",2024-03-01T00:00:00Z,100\n"
                     + b"s1,2024-03-01T00:05:00Z,101\n")
    assert (ingest._parse_columns(path) is None) == (width > ingest._MAX_ID_BYTES)
    assert_same_outcome(outcome(parsed, path), outcome(parse_series_oracle, path))


def canonical_lines(ids, per_subject):
    """Canonical lines of 5-minute samples, each subject's in one run; some
    glucose lies above the device range."""
    start = datetime(2024, 3, 1)
    return b"".join(
        b"%s,%sZ,%d\n" % (sid.encode(), (start + timedelta(minutes=5 * k)).isoformat().encode(),
                          40 + (7 * k + len(sid)) % 400)
        for sid in ids for k in range(per_subject))


class RecordedReads:
    """A file whose reads are recorded as (bytes asked, bytes returned);
    before_read, if given, runs before the first."""

    def __init__(self, fh, reads, before_read=None):
        self._fh, self._reads, self._before_read = fh, reads, before_read

    def readinto(self, buffer):
        if self._before_read is not None and not self._reads:
            self._before_read()
        got = self._fh.readinto(buffer)
        self._reads.append((memoryview(buffer).nbytes, got))
        return got

    def __getattr__(self, name):
        return getattr(self._fh, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()


def record_reads(monkeypatch, reads, before_read=None):
    """Wrap every file the ingest module opens in RecordedReads."""
    monkeypatch.setattr(ingest, "open",
                        lambda *args, **kwargs: RecordedReads(open(*args, **kwargs), reads,
                                                              before_read),
                        raising=False)


def test_series_file_is_read_through_one_bounded_buffer(tmp_path, monkeypatch):
    """Memory is the columns plus one buffer, not the file: the column-wise
    decoder reads a file many buffers long in reads of at most _READ_BYTES,
    each byte once, and its columns equal the oracle's."""
    path = tmp_path / "series.csv"
    path.write_bytes(b"subject_id,timestamp,glucose\n"
                     + canonical_lines([f"s{k}" for k in range(5)], 2000))
    reads = []
    monkeypatch.setattr(ingest, "_READ_BYTES", 4096)
    monkeypatch.setattr(ingest, "_parse_series_rows", per_row_refused)
    record_reads(monkeypatch, reads)
    got = outcome(parsed, path)
    assert_same_outcome(got, outcome(parse_series_oracle, path))
    size = path.stat().st_size
    assert size > 50 * 4096
    assert max(asked for asked, _ in reads) <= 4096
    assert sum(returned for _, returned in reads) == size


@pytest.mark.parametrize("interleaved, bound", [(False, 0.2), (True, 1.6)])
def test_ingest_holds_one_copy_of_the_rows(tmp_path, monkeypatch, interleaved, bound):
    """Peak traced memory of ingest_cohort past the decoded columns, times
    and glucose (16 bytes a row, sized from the file at open), is a small
    fraction of them on rows grouped by subject: no per-row subject column,
    no copy of either column and no second set of series. Rows interleaved
    across subjects, a run each, take the sort, which copies the columns one
    at a time once the runs are gone (a per-row subject column with both
    columns copied at once peaks near 1.8).
    Small reads keep the per-read temporaries small next to 120,000 rows."""
    lines = canonical_lines([f"s{k}" for k in range(60)], 2000).splitlines(keepends=True)
    if interleaved:
        lines = [lines[subject * 2000 + k] for k in range(2000) for subject in range(60)]
    path = tmp_path / "series.csv"
    path.write_bytes(ingest._HEADER + b"".join(lines))
    monkeypatch.setattr(ingest, "_READ_BYTES", 1 << 14)
    columns = 16 * ((path.stat().st_size - len(ingest._HEADER)) // ingest._MIN_LINE + 1)
    tracemalloc.start()
    try:
        kept, _, report = ingest_cohort(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report["totals"]["records_retained"] == sum(s.n_records for s in kept) > 0
    assert peak - columns < bound * columns


def test_long_line_is_declined_after_one_read(tmp_path, monkeypatch):
    """No canonical line is over _MAX_LINE bytes, so a file whose first data
    line runs a megabyte with no newline goes to the per-row reader after
    one read. Its fields stay under the csv module's field limit, so both
    readers fail on its field count."""
    path = tmp_path / "series.csv"
    path.write_bytes(ingest._HEADER + b"x," * (1 << 19))
    reads = []
    monkeypatch.setattr(ingest, "_READ_BYTES", 4096)
    record_reads(monkeypatch, reads)
    assert ingest._parse_columns(path) is None
    assert sum(got for _, got in reads) <= len(ingest._HEADER) + ingest._MAX_LINE + 4096
    assert_same_outcome(outcome(parsed, path), outcome(parse_series_oracle, path))


@pytest.mark.parametrize("read_bytes", [7, ingest._READ_BYTES])
def test_file_growing_while_read_stays_column_wise(tmp_path, monkeypatch, read_bytes):
    """Rows appended after the file is opened outrun the columns sized from
    its size at open: they grow, and every row is read as the oracle reads
    the final file."""
    path = tmp_path / "series.csv"
    path.write_bytes(b"subject_id,timestamp,glucose\n" + canonical_lines(["a"], 3))

    def append_rows():
        with open(path, "ab") as fh:
            fh.write(canonical_lines(["b", "c10"], 500))

    monkeypatch.setattr(ingest, "_READ_BYTES", read_bytes)
    monkeypatch.setattr(ingest, "_parse_series_rows", per_row_refused)
    record_reads(monkeypatch, [], append_rows)
    got = outcome(parsed, path)
    assert_same_outcome(got, outcome(parse_series_oracle, path))
    assert [s[0] for s in got[0]] == ["a", "b", "c10"]


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_fifo_is_read_column_wise(tmp_path, monkeypatch):
    """A FIFO's size at open is 0: its columns start at one row and grow."""
    data = b"subject_id,timestamp,glucose\n" + canonical_lines(["a", "b"], 300)
    regular, fifo = tmp_path / "series.csv", tmp_path / "series.fifo"
    regular.write_bytes(data)
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_bytes, args=(data,), daemon=True)
    writer.start()
    monkeypatch.setattr(ingest, "_parse_series_rows", per_row_refused)
    got = outcome(parsed, fifo)
    writer.join(timeout=10)
    assert not writer.is_alive()
    assert_same_outcome(got, outcome(parse_series_oracle, regular))


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
    out = kept_days(s, max_gap, gap_mode)
    times, values, retained = filter_days_oracle(s, max_gap, gap_mode)
    np.testing.assert_array_equal(out.times, times)
    np.testing.assert_array_equal(out.values, values)
    assert out.retained_days == retained


def cohort_outcome(path, **config):
    try:
        kept, _, report = ingest_cohort(path, **config)
    except Exception as exc:  # the error itself is the outcome to compare
        return type(exc), str(exc)
    return [(s.subject_id, s.times, s.values, s.nominal_interval_minutes, s.retained_days)
            for s in kept], report["subjects"]


def cohort_oracle(path, *, max_gap_minutes, gap_mode, min_days, nominal_interval_minutes):
    """parse_series_oracle, then filter_days_oracle and the min_days rule per
    subject, as ingest_cohort's kept series and report fields."""
    try:
        series, stats = parse_series_oracle(path, nominal_interval_minutes)
    except Exception as exc:
        return type(exc), str(exc)
    kept, subjects = [], {}
    for s in series:
        times, values, days = filter_days_oracle(s, max_gap_minutes, gap_mode)
        excluded = days < min_days
        subjects[s.subject_id] = {
            **stats[s.subject_id],
            "retained_days": days,
            "dropped_days": np.unique(s.times // (DAY_MINUTES * 60)).size - days,
            "excluded": excluded,
            "records_dropped_day_filter": s.n_records - times.size,
            "records_dropped_exclusion": times.size if excluded else 0,
            "records_retained": 0 if excluded else times.size,
        }
        if not excluded:
            kept.append((s.subject_id, times, values, nominal_interval_minutes, days))
    return kept, subjects


# A CRLF file, out of order, with a repeated timestamp and clamped rows.
CRLF_EXAMPLE = (b"subject_id,timestamp,glucose\r\n"
                b"s2,2024-03-01T00:05:00Z,500\r\n"
                b"s1,2024-03-01T00:00:00Z,30\r\n"
                b"s2,2024-03-01T00:05:00Z,101\r\n"
                b"s2,2024-03-01T00:00:00Z,100\r\n")


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@example(data=CRLF_EXAMPLE, max_gap_minutes=1440.0, nominal_interval_minutes=5.0,
         gap_mode="single", min_days=1)
@given(data=st.one_of(series_files(), series_files(ordered=True)),
       max_gap_minutes=st.sampled_from([30.0, 240.0, 720.0, 1440.0]),
       nominal_interval_minutes=st.sampled_from([5.0, 60.0, 480.0]),
       gap_mode=st.sampled_from(ingest.GAP_MODES), min_days=st.integers(1, 3))
@pytest.mark.parametrize("per_row", [False, True])
def test_ingest_cohort_matches_oracles(tmp_path, monkeypatch, per_row, data, **config):
    """Unordered files with duplicates, clamped rows and odd forms (CRLF ones
    among them go row by row), and ordered ones: the kept times and values
    bit for bit, the retained days and every report field of each subject
    equal the oracles'. With per_row, every file goes row by row."""
    path = tmp_path / "series.csv"
    path.write_bytes(data)
    if per_row:
        monkeypatch.setattr(ingest, "_parse_columns", lambda path: None)
    got, want = cohort_outcome(path, **config), cohort_oracle(path, **config)
    if isinstance(want[0], type):
        assert got == want
        return
    assert not isinstance(got[0], type), got
    assert got[1] == want[1]
    assert list(got[1]) == list(want[1])
    assert [k[0] for k in got[0]] == [k[0] for k in want[0]]
    for (_, t, v, *rest), (_, t_want, v_want, *rest_want) in zip(got[0], want[0]):
        assert t.dtype == np.int64 and v.dtype == np.float64
        assert t.tobytes() == t_want.tobytes() and v.tobytes() == v_want.tobytes()
        assert rest == rest_want
