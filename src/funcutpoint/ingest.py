"""CGM time-series ingestion.

Parses per-subject glucose CSV files, clamps values to the device range,
deduplicates timestamps, partitions records into UTC calendar days, and
drops days whose data gaps exceed the quality rule. Every dropped record
is attributed in the ingest report; nothing is lost silently.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .quantiles import subject_rows, write_json

__all__ = [
    "SubjectSeries",
    "parse_series",
    "parse_labels",
    "label_array",
    "filter_days",
    "ingest_cohort",
    "write_report_json",
]

SECONDS_PER_DAY = 86400
# The device's reporting range in mg/dL: readings outside it are clamped.
GLUCOSE_LO = 40.0
GLUCOSE_HI = 400.0
GAP_MODES = ("single", "cumulative")
# Deltas up to 1.5x the nominal interval are ordinary sampling jitter, not
# data loss; only longer deltas count toward a day's non-acquisition time.
GAP_TOLERANCE_FACTOR = 1.5


@dataclass(eq=False)
class SubjectSeries:
    """One subject's glucose records as parallel arrays.

    times are UTC epoch seconds, strictly increasing after parsing.
    retained_days is set by filter_days (0 before filtering).
    """

    subject_id: str
    times: np.ndarray
    values: np.ndarray
    nominal_interval_minutes: float = 5.0
    retained_days: int = 0

    def __post_init__(self) -> None:
        self.times = np.asarray(self.times, dtype=np.int64)
        self.values = np.asarray(self.values, dtype=float)
        if self.times.shape != self.values.shape or self.times.ndim != 1:
            raise ValueError("times and values must be equally long 1-d arrays")
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("timestamps must be strictly increasing")
        if np.any(~np.isfinite(self.values)):
            raise ValueError("glucose values must be finite")
        if not self.nominal_interval_minutes > 0:
            raise ValueError("nominal interval must be positive")

    @property
    def n_records(self) -> int:
        return int(self.times.size)


def _parse_timestamp(raw: str, path, line_no: int) -> int:
    text = raw.strip()
    if text.endswith("Z"):
        text = text[:-1] + "+00:00"
    try:
        stamp = datetime.fromisoformat(text)
    except ValueError:
        raise ValueError(
            f"{path} line {line_no}: invalid timestamp {raw!r}"
        ) from None
    if stamp.tzinfo is None:
        stamp = stamp.replace(tzinfo=timezone.utc)
    return int(stamp.timestamp())


# Columnar fast path of parse_series. It decodes only the canonical forms
# below and declines (returns None) on anything else, so every other input,
# and every error message, goes through the per-row reader.
_HEADER = b"subject_id,timestamp,glucose\n"
# Rows decoded per block: bounds the per-block temporaries.
_BLOCK_ROWS = 1 << 15
_NL, _QUOTE, _COMMA, _SPACE, _DOT, _ZERO, _Z = (ord(c) for c in '\n", .0Z')
# YYYY-MM-DDTHH:MM:SS, optionally followed by Z: the date's 10 bytes, then the clock.
_TS_WIDTH, _DATE_WIDTH = 19, 10
_TS_SEPS = np.frombuffer(b"0000-00-00T00:00:00", dtype=np.uint8)[:, None]
_DATE_SEP_POS, _DATE_DIGIT_POS = np.array([4, 7]), np.array([0, 1, 2, 3, 5, 6, 8, 9])
_CLOCK_SEP_POS, _CLOCK_DIGIT_POS = np.array([10, 13, 16]), np.array([11, 12, 14, 15, 17, 18])
_MONTH_DAYS = np.array([0, 31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31], dtype=np.int32)
# digits[.digits] with at most 15 digits: int / 10**k then equals float(text).
_GLUCOSE_DIGITS = 15
_POW10 = np.array([float(10 ** k) for k in range(_GLUCOSE_DIGITS)])


def _line_ends(buf, pos: int, rows: int) -> np.ndarray:
    """Offsets of the newlines ending the next `rows` lines from pos.

    A last line without a newline ends at len(buf).
    """
    span = 48 * rows  # first guess at the bytes of `rows` lines; doubled as needed
    while True:
        ends = np.flatnonzero(buf[pos:pos + span] == _NL)[:rows] + pos
        if ends.size == rows or pos + span >= buf.size:
            break
        span *= 2
    if ends.size < rows and buf[-1] != _NL:
        ends = np.append(ends, buf.size)
    return ends


def _epoch_seconds(stamp):
    """UTC epoch seconds of YYYY-MM-DDTHH:MM:SS rows (bytes as columns), or None.

    Calendar ranges are checked as datetime.fromisoformat checks them. A
    date is decoded only where it differs from the row before.
    """
    head = np.ones(stamp.shape[1], dtype=bool)
    head[1:] = (stamp[:_DATE_WIDTH, 1:] != stamp[:_DATE_WIDTH, :-1]).any(axis=0)
    date = stamp[:_DATE_WIDTH, head]
    d = date[_DATE_DIGIT_POS] - _ZERO  # uint8: bytes below "0" wrap past 9
    c = stamp[_CLOCK_DIGIT_POS] - _ZERO
    if not ((date[_DATE_SEP_POS] == _TS_SEPS[_DATE_SEP_POS]).all() and (d <= 9).all()
            and (stamp[_CLOCK_SEP_POS] == _TS_SEPS[_CLOCK_SEP_POS]).all() and (c <= 9).all()):
        return None
    d, c = d.astype(np.int32), c.astype(np.int32)
    year = ((d[0] * 10 + d[1]) * 10 + d[2]) * 10 + d[3]
    month, day = d[4] * 10 + d[5], d[6] * 10 + d[7]
    hour, minute, second = (c[k] * 10 + c[k + 1] for k in range(0, 6, 2))
    leap = (year % 4 == 0) & ((year % 100 != 0) | (year % 400 == 0))
    month_days = _MONTH_DAYS[np.minimum(month, 12)] + (leap & (month == 2))
    if not (
        ((year >= 1) & (month >= 1) & (month <= 12) & (day >= 1) & (day <= month_days)).all()
        and ((hour <= 23) & (minute <= 59) & (second <= 59)).all()
    ):
        return None
    # Days from the civil date (proleptic Gregorian, years starting in March).
    y = year - (month <= 2)
    era = y // 400
    yoe = y - era * 400
    doy = (153 * ((month + 9) % 12) + 2) // 5 + day - 1
    days = era * 146097 + yoe * 365 + yoe // 4 - yoe // 100 + doy - 719468
    return (days.astype(np.int64)[np.cumsum(head) - 1] * SECONDS_PER_DAY
            + (hour * 3600 + minute * 60 + second))


def _decode_glucose(text, length):
    """float(text) of digits[.digits] fields (bytes as columns), or None."""
    rows = length.size
    inside = np.arange(text.shape[0])[:, None] < length
    digit = text - _ZERO
    is_digit = (digit <= 9) & inside
    is_dot = (text == _DOT) & inside
    dot_at = is_dot.argmax(axis=0)
    has_dot = is_dot[dot_at, np.arange(rows)]
    if (
        not np.array_equal(is_digit | is_dot, inside)
        or is_dot.sum(axis=0).max() > 1
        or (has_dot & ((dot_at == 0) | (dot_at == length - 1))).any()
        or (length - has_dot).max() > _GLUCOSE_DIGITS
    ):
        return None
    number = np.zeros(rows, dtype=np.int64)
    for k in range(text.shape[0]):
        number = np.where(is_digit[k], number * 10 + digit[k], number)
    return number / _POW10[np.where(has_dot, length - 1 - dot_at, 0)]


def _decode_block(seg, ends):
    """Decode one block of lines; seg holds them without the last newline.

    ends are the block-local newline offsets. Returns (id keys, times,
    glucose) or None when a line is not in the canonical form.
    """
    rows = ends.size
    commas = np.flatnonzero(seg == _COMMA)
    if commas.size != 2 * rows or not np.array_equal(
        np.searchsorted(commas, ends), 2 * np.arange(1, rows + 1)
    ):
        return None
    # Printable ASCII and newlines only, and no quote: csv splitting is then
    # plain splitting on commas, and the only whitespace is the space.
    if (
        seg.max() > 0x7E
        or np.count_nonzero(seg < 0x20) != rows - 1
        or (seg == _QUOTE).any()
    ):
        return None
    starts = np.concatenate([[0], ends[:-1] + 1])
    c1, c2 = commas[0::2], commas[1::2]
    id_len = c1 - starts
    g_len = ends - c2 - 1
    if (
        id_len.min() == 0
        or (seg[starts] == _SPACE).any()
        or (seg[c1 - 1] == _SPACE).any()
        or not np.array_equal(c2 - c1 - 1 - (seg[c2 - 1] == _Z), np.full(rows, _TS_WIDTH))
        or g_len.min() < 1
        or g_len.max() > _GLUCOSE_DIGITS + 1
    ):
        return None

    id_width, g_width = int(id_len.max()), int(g_len.max())
    padded = np.concatenate([seg, np.zeros(max(id_width, g_width), dtype=np.uint8)])
    ids = sliding_window_view(padded, id_width)[starts]
    ids[np.arange(id_width) >= id_len[:, None]] = 0
    times = _epoch_seconds(sliding_window_view(padded, _TS_WIDTH)[c1 + 1].T)
    glucose = _decode_glucose(sliding_window_view(padded, g_width)[c2 + 1].T, g_len)
    if times is None or glucose is None:
        return None
    return ids.view(f"S{id_width}").ravel(), times, glucose


def _parse_columns(data: bytes):
    """Decode a canonical series file into (ids, times, glucose, codes).

    codes index ids in first-appearance order. Returns None when the
    file is not fully in the canonical form.
    """
    if not data.startswith(_HEADER) or len(data) == len(_HEADER):
        return None
    buf = np.frombuffer(data, dtype=np.uint8)
    n_rows = data.count(b"\n", len(_HEADER)) + (data[-1] != _NL)
    times = np.empty(n_rows, dtype=np.int64)
    glucose = np.empty(n_rows, dtype=float)
    codes = np.empty(n_rows, dtype=np.int32)
    index: dict[bytes, int] = {}
    pos, row = len(_HEADER), 0
    while pos < buf.size:
        ends = _line_ends(buf, pos, _BLOCK_ROWS)
        block = _decode_block(buf[pos:ends[-1]], ends - pos)
        if block is None:
            return None
        keys, block_times, block_glucose = block
        # Only the first key of each run of equal keys is looked up.
        heads = np.flatnonzero(np.concatenate([[True], keys[1:] != keys[:-1]]))
        unique, first, inverse = np.unique(keys[heads], return_index=True, return_inverse=True)
        local = np.empty(unique.size, dtype=np.int32)
        for u in np.argsort(first):
            local[u] = index.setdefault(bytes(unique[u]), len(index))
        stop = row + ends.size
        times[row:stop], glucose[row:stop] = block_times, block_glucose
        codes[row:stop] = np.repeat(local[inverse], np.diff(heads, append=keys.size))
        pos, row = int(ends[-1]) + 1, stop
    return [key.decode("ascii") for key in index], times, glucose, codes


def _header_is(path, names):
    """subject_rows' check_header for a file whose stripped header is `names`."""
    def check_header(header):
        if [h.strip() for h in header] != names:
            raise ValueError(f"{path}: expected header {','.join(names)}")
    return check_header


def _parse_series_rows(path):
    """The per-row reader: the reference for every form and error message.

    Returns what _parse_columns returns, for any file the csv module reads.
    """
    index: dict[str, int] = {}
    times, glucose, codes = [], [], []
    check_header = _header_is(path, ["subject_id", "timestamp", "glucose"])
    for line_no, sid, row in subject_rows(path, str(path), check_header, unique=False):
        times.append(_parse_timestamp(row[1], path, line_no))
        try:
            g = float(row[2])
        except ValueError:
            raise ValueError(
                f"{path} line {line_no}: non-numeric glucose {row[2]!r}"
            ) from None
        if not np.isfinite(g):
            raise ValueError(f"{path} line {line_no}: non-finite glucose {row[2]!r}")
        glucose.append(g)
        codes.append(index.setdefault(sid, len(index)))
    return (list(index), np.array(times, dtype=np.int64), np.array(glucose, dtype=float),
            np.array(codes, dtype=np.int32))


def parse_series(path, nominal_interval_minutes: float = 5.0):
    """Parse a series CSV into per-subject SubjectSeries.

    Returns (series list in first-appearance order, per-subject parse
    stats {clamped, deduped, records_in}). Rows are sorted by timestamp
    per subject; exact-duplicate timestamps keep the first occurrence;
    out-of-range glucose is clamped to [40, 400] and counted.

    Files wholly in the canonical form are decoded column-wise; any other
    file is read row by row. Both readers feed the one tail below.
    """
    ids, times, glucose, codes = (
        _parse_columns(Path(path).read_bytes()) or _parse_series_rows(path)
    )
    n = len(ids)
    out_of_range = (glucose < GLUCOSE_LO) | (glucose > GLUCOSE_HI)
    clamped = np.bincount(codes[out_of_range], minlength=n)
    np.clip(glucose, GLUCOSE_LO, GLUCOSE_HI, out=glucose)
    records_in = np.bincount(codes, minlength=n)
    # lexsort is stable: among equal timestamps the first row in the file leads.
    # On rows already grouped by subject in time order it is the identity.
    step = codes[1:] - codes[:-1]
    if not ((step > 0) | ((step == 0) & (times[1:] >= times[:-1]))).all():
        order = np.lexsort((times, codes))
        codes, times, glucose = codes[order], times[order], glucose[order]
    keep = np.ones(codes.size, dtype=bool)
    keep[1:] = (codes[1:] != codes[:-1]) | (times[1:] != times[:-1])
    kept = np.bincount(codes[keep], minlength=n)
    times, glucose = times[keep], glucose[keep]
    bounds = np.concatenate([[0], np.cumsum(kept)])
    series, stats = [], {}
    for code, sid in enumerate(ids):
        lo, hi = bounds[code], bounds[code + 1]
        series.append(
            SubjectSeries(sid, times[lo:hi], glucose[lo:hi], nominal_interval_minutes)
        )
        stats[sid] = {
            "records_in": int(records_in[code]),
            "deduped": int(records_in[code] - kept[code]),
            "clamped": int(clamped[code]),
        }
    return series, stats


def parse_labels(path) -> dict[str, int]:
    labels: dict[str, int] = {}
    check_header = _header_is(path, ["subject_id", "label"])
    for line_no, sid, row in subject_rows(path, str(path), check_header):
        raw = row[1].strip()
        if raw not in ("0", "1"):
            raise ValueError(f"{path} line {line_no}: label must be 0 or 1, got {raw!r}")
        labels[sid] = int(raw)
    return labels


def label_array(ids, labels: dict[str, int], source=None) -> np.ndarray:
    """The labels of `ids`, in order; the first id without one fails, naming source."""
    try:
        return np.array([labels[sid] for sid in ids], dtype=int)
    except KeyError as exc:
        where = f"{source}: " if source is not None else ""
        raise ValueError(f"{where}no label for subject {exc.args[0]!r}") from None


def filter_days(
    series: SubjectSeries,
    max_gap_minutes: float = 120.0,
    gap_mode: str = "cumulative",
) -> SubjectSeries:
    """Drop UTC calendar days whose data gaps break the quality rule.

    A day's gaps are the deltas between its consecutive samples plus the
    coverage gaps at the midnight boundaries. Deltas above 1.5x the
    nominal interval count as non-acquisition. Mode "single" discards a
    day when any one delta exceeds max_gap_minutes; "cumulative" (default)
    when the summed non-acquisition time does.
    """
    if gap_mode not in GAP_MODES:
        raise ValueError(f"unknown gap mode: {gap_mode!r}")
    if not max_gap_minutes > 0:
        raise ValueError("max_gap_minutes must be positive")
    t = series.times
    tol = GAP_TOLERANCE_FACTOR * series.nominal_interval_minutes * 60.0
    max_gap = max_gap_minutes * 60.0
    days = t // SECONDS_PER_DAY
    # One pass over day boundaries: samples first[k]..last[k] form day k.
    first = np.flatnonzero(np.diff(days, prepend=days[:1] - 1))
    last = np.flatnonzero(np.diff(days, append=days[-1:] + 1))
    day_start = days[first] * SECONDS_PER_DAY
    lead = t[first] - day_start
    trail = day_start + SECONDS_PER_DAY - t[last]
    # Deltas inside each day; the delta across a day boundary (and the
    # padding slot that keeps reduceat in range) is zero.
    inner = np.zeros(t.size, dtype=np.int64)
    inner[:-1] = np.diff(t)
    inner[last] = 0
    if gap_mode == "single":
        worst = np.maximum(np.maximum.reduceat(inner, first), np.maximum(lead, trail))
        bad = worst > max_gap
    else:
        # Gaps are whole seconds summing to at most a day, so the sum is
        # exact in any order.
        missing = (
            np.add.reduceat(np.where(inner > tol, inner, 0), first)
            + np.where(lead > tol, lead, 0)
            + np.where(trail > tol, trail, 0)
        )
        bad = missing > max_gap
    keep = np.repeat(~bad, last - first + 1)
    retained = int(bad.size - np.count_nonzero(bad))
    return SubjectSeries(
        series.subject_id,
        t[keep],
        series.values[keep],
        series.nominal_interval_minutes,
        retained_days=retained,
    )


def ingest_cohort(
    series_path,
    labels_path=None,
    *,
    max_gap_minutes: float = 120.0,
    gap_mode: str = "cumulative",
    min_days: int = 2,
    nominal_interval_minutes: float = 5.0,
):
    """Full ingest pipeline: parse, filter days, apply the inclusion rule.

    Returns (kept series, labels, report). Subjects with fewer than
    min_days retained days are excluded from the kept list but stay in
    the report with excluded=True. Labeled subjects absent from the
    series file are reported as missing, not errors.
    """
    series, stats = parse_series(series_path, nominal_interval_minutes)
    labels = parse_labels(labels_path) if labels_path is not None else {}

    kept = []
    subjects = {}
    for s in series:
        st = stats[s.subject_id]
        # Times strictly increase, so each new day starts where the day changes.
        days_in = 1 + int(np.count_nonzero(np.diff(s.times // SECONDS_PER_DAY)))
        filtered = filter_days(s, max_gap_minutes, gap_mode)
        excluded = filtered.retained_days < min_days
        n_filtered = filtered.n_records
        subjects[s.subject_id] = {
            "retained_days": int(filtered.retained_days),
            "dropped_days": days_in - int(filtered.retained_days),
            "clamped": st["clamped"],
            "deduped": st["deduped"],
            "excluded": bool(excluded),
            "records_in": st["records_in"],
            "records_dropped_day_filter": s.n_records - n_filtered,
            "records_dropped_exclusion": n_filtered if excluded else 0,
            "records_retained": 0 if excluded else n_filtered,
        }
        if not excluded:
            kept.append(filtered)

    missing = sorted(sid for sid in labels if sid not in stats)
    totals = {
        key: int(sum(rec[key] for rec in subjects.values()))
        for key in (
            "records_in",
            "deduped",
            "clamped",
            "records_dropped_day_filter",
            "records_dropped_exclusion",
            "records_retained",
        )
    }
    report = {
        "subjects": subjects,
        "missing_subjects": missing,
        "totals": totals,
        "config": {
            "max_gap_minutes": max_gap_minutes,
            "gap_mode": gap_mode,
            "min_days": min_days,
            "nominal_interval_minutes": nominal_interval_minutes,
        },
    }
    return kept, labels, report


def write_report_json(path, report) -> None:
    write_json(path, report)
