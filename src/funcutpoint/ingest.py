"""CGM time-series ingestion.

Parses per-subject glucose CSV files, clamps values to the device range,
deduplicates timestamps, partitions records into UTC calendar days, and
drops days whose data gaps exceed the quality rule. Every dropped record
is attributed in the ingest report; nothing is lost silently.
"""

from __future__ import annotations

import os
import stat
from array import array
from dataclasses import dataclass
from datetime import datetime, timezone

import numpy as np

from . import GAP_MODES
from .quantiles import _header_is, parse_labels, subject_rows

__all__ = [
    "SubjectSeries",
    "ingest_cohort",
]

SECONDS_PER_DAY = 86400
# The device's reporting range in mg/dL: readings outside it are clamped.
GLUCOSE_LO = 40.0
GLUCOSE_HI = 400.0
# Deltas up to 1.5x the nominal interval are ordinary sampling jitter, not
# data loss; only longer deltas count toward a day's non-acquisition time.
GAP_TOLERANCE_FACTOR = 1.5


@dataclass(eq=False)
class SubjectSeries:
    """One subject's glucose records as parallel arrays.

    times are UTC epoch seconds, strictly increasing after parsing.
    retained_days is set by ingest_cohort (0 otherwise).
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


# Columnar fast path of _subject_rows. It decodes only the canonical forms
# below and declines (returns None) on anything else, so every other input,
# and every error message, goes through the per-row reader.
_HEADER = b"subject_id,timestamp,glucose\n"
# Bytes asked for by each read of the file. The whole lines of each read are
# decoded as one block, so this bounds the per-block temporaries.
_READ_BYTES = 1 << 18
_NL, _QUOTE, _COMMA, _SPACE, _DOT, _ZERO, _Z = (ord(c) for c in '\n", .0Z')
# The shortest canonical line, "a,YYYY-MM-DDTHH:MM:SS,0\n", bounds the row count.
_MIN_LINE = 24
# Longer ids go to the per-row reader: the id gather is rows x a block's widest id.
_MAX_ID_BYTES = 64
# A timestamp is read as three little-endian 64-bit words from 5 bytes before
# it: "????,YYY" "Y-MM-DDT" "HH:MM:SS". XOR with _TS_PATTERN maps a digit to
# its value and a separator to 0. Each byte x must then be at most its limit:
# 9 for a digit, 0 for a separator, the largest tens digit of a month, day,
# hour, minute or second, and 0x7F before the timestamp. All are exactly when
# (x + 0x7F - limit) | x has no high bit set: a sum carries only past a set one.
_TS_LEAD, _TS_WIDTH = 5, 19
_TS_PATTERN = np.frombuffer(b"\0" * 5 + b"0000-00-00T00:00:00", dtype="<u8")[:, None]
_TS_ADD = (0x7F - np.array([0x7F] * 5 + [9, 9, 9, 9, 0, 1, 9, 0, 3, 9, 0, 2, 9, 0, 5, 9, 0, 5, 9],
                          dtype=np.uint8)).view("<u8")[:, None]
_HIGH_BITS = 0x8080808080808080
_MONTH_DAYS = np.array([0, 31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31])
# digits[.digits] with at most 15 digits: int / 10**k then equals float(text).
_GLUCOSE_DIGITS = 15
_POW10 = np.array([float(10 ** k) for k in range(_GLUCOSE_DIGITS)])
# The longest canonical line: the widest id, a timestamp with its Z, the
# widest glucose with its dot, two commas and the newline.
_MAX_LINE = _MAX_ID_BYTES + _TS_WIDTH + _GLUCOSE_DIGITS + 6


def _row_separators(buf, pos: int, end: int):
    """(lines, 3) offsets of the two commas and the newline of each line of
    buf[pos:end], which ends in a newline; None when a line has other
    separators."""
    seg = buf[pos:end]
    is_sep = seg == _NL
    is_sep |= seg == _COMMA
    at = np.flatnonzero(is_sep)
    newline = seg[at] == _NL
    if at.size % 3 or not newline[2::3].all() or np.count_nonzero(newline) * 3 != at.size:
        return None
    return (at + pos).reshape(-1, 3)


def _windows(buf, at, width: int):
    """Rows of the `width` bytes from each (increasing) offset in at, zero past buf's end."""
    if at[-1] + width > buf.size:  # a block's last lines may run past the bytes read
        buf = np.concatenate([buf[at[0]:], np.zeros(width, dtype=np.uint8)])
        at = at - at[0]
    # One void item per window: the fancy index copies whole items.
    items = np.ndarray((buf.size - width + 1,), dtype=f"V{width}", buffer=buf, strides=(1,))
    return items[at].view(np.uint8).reshape(at.size, width)


def _epoch_seconds(window):
    """UTC epoch seconds of timestamp windows laid out as _TS_PATTERN, or None.
    Calendar ranges are checked as datetime.fromisoformat checks them; a date
    is decoded only where it differs from the row before."""
    x = np.ascontiguousarray(window.view("<u8").T) ^ _TS_PATTERN
    high = x + _TS_ADD
    high |= x
    if (high & _HIGH_BITS).any():
        return None
    year3 = x[0] >> 40  # the date is these three bytes and the next word
    heads = np.flatnonzero(np.concatenate([[True], (year3[1:] != year3[:-1])
                                           | (x[1, 1:] != x[1, :-1])]))
    d = window[heads, _TS_LEAD:].T - np.int64(_ZERO)
    year = ((d[0] * 10 + d[1]) * 10 + d[2]) * 10 + d[3]
    month, day = d[5] * 10 + d[6], d[8] * 10 + d[9]
    # Each clock byte times 10 plus the next: hour, minute, second are bytes 0, 3, 6.
    clock = x[2] * 10 + (x[2] >> 8)
    hour = clock & 0xFF
    leap = (year % 4 == 0) & ((year % 100 != 0) | (year % 400 == 0))
    month_days = _MONTH_DAYS[np.minimum(month, 12)] + (leap & (month == 2))
    if not (((year >= 1) & (month >= 1) & (month <= 12) & (day >= 1) & (day <= month_days)).all()
            and (hour <= 23).all()):
        return None
    # Days from the civil date (proleptic Gregorian, years starting in March).
    y = year - (month <= 2)
    era = y // 400
    yoe = y - era * 400
    doy = (153 * ((month + 9) % 12) + 2) // 5 + day - 1
    days = era * 146097 + yoe * 365 + yoe // 4 - yoe // 100 + doy - 719468
    seconds = (hour * 60 + (clock >> 24 & 0xFF)) * 60 + (clock >> 48 & 0xFF)
    return (np.repeat(days * SECONDS_PER_DAY, np.diff(heads, append=len(window)))
            + seconds.view(np.int64))


def _decode_glucose(text, length):
    """float(text) of digits[.digits] fields, or None. text holds them
    right-aligned, bytes as columns: column k is byte place[k] from the end."""
    place = np.arange(text.shape[0], 0, -1)[:, None]
    inside = place <= length
    is_dot = (text == _DOT) & inside
    dots = is_dot.sum(axis=0, dtype=np.uint8)
    digit = text - _ZERO  # uint8: bytes below "0" wrap past 9
    digit *= inside ^ is_dot  # 0 outside the field and at its dot
    if (not (digit <= 9).all() or dots.max() > 1
            or (is_dot[-1] | (is_dot & (place == length)).any(axis=0)).any()
            or (length - dots).max() > _GLUCOSE_DIGITS):
        return None
    # The digits as one integer (exact below 2**53): a dot shifts nothing.
    number = np.zeros(length.size)
    for scale_k, digit_k in zip(np.where(is_dot, 1.0, 10.0), digit.astype(float)):
        number *= scale_k
        number += digit_k
    if dots.any():
        number /= _POW10[(place[:, 0] - 1) @ is_dot]
    return number


def _decode_block(buf, pos: int, seps):
    """(ids as byte columns, times, glucose) of the lines from pos whose
    separators are seps, or None when a line is not canonical. The separators
    bound every field, and the timestamp and glucose decoders check each of
    their bytes, so only ids need the printable, no-quote and no-surrounding-
    space checks that make csv read every field as it is."""
    c1, c2, ends = seps.T
    starts = np.concatenate([[pos], ends[:-1] + 1])
    id_len, g_len = c1 - starts, ends - c2 - 1
    if (id_len.min() < 1 or id_len.max() > _MAX_ID_BYTES
            or g_len.min() < 1 or g_len.max() > _GLUCOSE_DIGITS + 1
            or not (c2 - c1 - 1 - (buf[c2 - 1] == _Z) == _TS_WIDTH).all()):
        return None
    ids = np.ascontiguousarray(_windows(buf, starts, int(id_len.max())).T)
    inside = np.arange(len(ids))[:, None] < id_len
    ids *= inside
    if (not np.array_equal((ids - 0x20 < 0x5F) & (ids != _QUOTE), inside)
            or (ids[0] == _SPACE).any() or (buf[c1 - 1] == _SPACE).any()):
        return None
    times = _epoch_seconds(_windows(buf, c1 + 1 - _TS_LEAD, _TS_LEAD + _TS_WIDTH))
    g_width = int(g_len.max())
    glucose = _decode_glucose(np.ascontiguousarray(_windows(buf, ends - g_width, g_width).T),
                              g_len)
    return None if times is None or glucose is None else (ids, times, glucose)


def _parse_columns(path):
    """Decode a canonical series file into (ids, times, glucose, run codes,
    run rows): the rows come in runs of one subject, run k being run_rows[k]
    rows of subject run_codes[k], which indexes ids in first-appearance
    order; None unless wholly canonical.

    The file is read through one buffer, and the whole lines of each read are
    decoded as one block, so memory is the columns plus the buffer."""
    with open(path, "rb", buffering=0) as fh:
        # No more rows fit in the size at open; the pages past the rows
        # decoded are never touched. The columns grow if the file does.
        cap = max(os.fstat(fh.fileno()).st_size - len(_HEADER), 0) // _MIN_LINE + 1
        times, glucose = np.empty(cap, np.int64), np.empty(cap)
        # A read lands behind the line the last one cut and its timestamp lead.
        buf = np.empty(_TS_LEAD + _MAX_LINE + _READ_BYTES, dtype=np.uint8)
        index: dict[bytes, int] = {}
        run_codes, run_rows = np.empty(64, np.int32), np.empty(64, np.int32)
        pos = filled = _TS_LEAD
        header, row, runs = True, 0, 0
        while True:
            # Move the unread bytes, and the _TS_LEAD bytes before them that
            # the first timestamp window starts in, to the front of buf.
            keep = pos - _TS_LEAD
            buf[:filled - keep] = buf[keep:filled]
            pos, filled = _TS_LEAD, filled - keep
            got = fh.readinto(buf[filled:filled + _READ_BYTES])
            filled += got
            if filled == pos:  # the end of the file, every line decoded
                break
            if not got and buf[filled - 1] != _NL:
                buf[filled] = _NL  # the file's last line ends at its end
                filled += 1
            tail = max(pos, filled - _MAX_LINE - 1)
            newlines = np.flatnonzero(buf[tail:filled] == _NL)
            if not newlines.size:
                if filled - pos > _MAX_LINE:  # no canonical line is that long
                    return None
                continue
            end = tail + int(newlines[-1]) + 1
            if header:
                if buf[pos:min(end, pos + len(_HEADER))].tobytes() != _HEADER:
                    return None
                pos, header = pos + len(_HEADER), False
                if pos == end:
                    continue
            seps = _row_separators(buf, pos, end)
            block = None if seps is None else _decode_block(buf[:filled], pos, seps)
            if block is None:
                return None
            ids, block_times, block_glucose = block
            # Only the first id of each run of equal ids is looked up.
            heads = np.flatnonzero(np.concatenate([[True], (ids[:, 1:] != ids[:, :-1]).any(axis=0)]))
            keys = np.ascontiguousarray(ids[:, heads].T).view(f"S{len(ids)}").ravel()
            unique, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
            local = np.empty(unique.size, dtype=np.int32)
            for u in np.argsort(first):
                local[u] = index.setdefault(bytes(unique[u]), len(index))
            stop = row + len(seps)
            if stop > times.size:  # the file grew after it was opened
                for column in (times, glucose):
                    column.resize(2 * stop, refcheck=False)
            times[row:stop], glucose[row:stop] = block_times, block_glucose
            # A run ends at each change of id and at each block's end, so its
            # rows fit int32; a file of interleaved subjects has a run a row.
            runs_stop = runs + heads.size
            if runs_stop > run_codes.size:
                for column in (run_codes, run_rows):
                    column.resize(2 * runs_stop, refcheck=False)
            run_codes[runs:runs_stop] = local[inverse]
            run_rows[runs:runs_stop] = np.diff(heads, append=len(seps))
            pos, row, runs = end, stop, runs_stop
    if not row:  # no data rows: the per-row reader names the error
        return None
    return ([key.decode("ascii") for key in index], times[:row], glucose[:row],
            run_codes[:runs], run_rows[:runs])


def _parse_series_rows(path):
    """The per-row reader: the reference for every form and error message.

    Returns what _parse_columns returns, for any regular file the csv module
    reads. It runs after _parse_columns has declined the input, so it opens
    the path a second time, which a pipe or FIFO cannot serve.
    """
    if not stat.S_ISREG(os.stat(path).st_mode):
        raise OSError(f"{path}: a series on a pipe or FIFO must be in the canonical "
                      "form; any other form is read from a regular file")
    index: dict[str, int] = {}
    times, glucose, codes = array("q"), array("d"), array("i")
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
    codes = np.frombuffer(codes, dtype=np.intc)
    starts = np.flatnonzero(np.diff(codes, prepend=-1))
    return (list(index), np.frombuffer(times, dtype=np.int64),
            np.frombuffer(glucose, dtype=float), codes[starts], np.diff(starts, append=codes.size))


def _subject_rows(path):
    """(ids, times, glucose, bounds, keep) of a series file: its rows
    grouped by subject in first-appearance order, subject k in rows
    bounds[k]:bounds[k + 1], each subject's in time order with ties in file
    order. keep marks the first row of each of a subject's timestamps.

    Files wholly in the canonical form are decoded column-wise; any other
    file is read row by row. Both readers feed the one tail below.
    """
    ids, times, glucose, run_codes, run_rows = _parse_columns(path) or _parse_series_rows(path)
    # keep is built in place: first (after is its view from the second row)
    # the rows whose time goes back within a subject, then the rows kept by
    # the dedupe.
    keep = np.empty(times.size, dtype=bool)
    after = keep[1:]
    np.less(times[1:], times[:-1], out=after)
    after[np.cumsum(run_rows[:-1])[run_codes[1:] != run_codes[:-1]] - 1] = False
    records_in = np.bincount(run_codes, run_rows, minlength=len(ids)).astype(np.int64)
    # lexsort is stable: among equal timestamps the first row in the file leads.
    # Rows already grouped by subject in time order skip it. Rows out of order
    # may be a run each, so the runs go before the columns are copied, one at
    # a time, each freeing the one it replaces.
    if after.any() or (run_codes[1:] < run_codes[:-1]).any():
        codes = np.repeat(run_codes, run_rows)
        del run_codes, run_rows
        order = np.lexsort((times, codes))
        del codes
        times = times[order]
        glucose = glucose[order]
        del order
    bounds = np.concatenate([[0], np.cumsum(records_in)])
    np.not_equal(times[1:], times[:-1], out=after)
    keep[bounds[:-1]] = True
    return ids, times, glucose, bounds, keep


def _kept_series(ids, times, glucose, keep, counts, nominal_interval_minutes, retained_days):
    """SubjectSeries of each subject with counts[k] > 0 rows marked in keep,
    as views of times and glucose: the marked rows move to the front of both
    columns in place, as many rows at a time as one read can hold."""
    rows, moved = _READ_BYTES // _MIN_LINE + 1, 0
    for start in range(0, keep.size, rows):
        block = keep[start:start + rows]
        n = int(np.count_nonzero(block))
        for column in (times, glucose):
            column[moved:moved + n] = column[start:start + rows][block]
        moved += n
    ends = np.cumsum(counts).tolist()
    return [SubjectSeries(sid, times[end - count:end], glucose[end - count:end],
                          nominal_interval_minutes, days)
            for sid, count, end, days in zip(ids, counts, ends, retained_days) if count]


def _day_rule(t, nominal_interval_minutes, max_gap_minutes, gap_mode):
    """(bad, rows) for each UTC calendar day of the nondecreasing times t:
    whether the day's gaps break the quality rule, and its row count.

    A day's gaps are the deltas between its consecutive samples plus the
    coverage gaps at the midnight boundaries. Deltas above 1.5x the nominal
    interval count as non-acquisition. Mode "single" marks a day bad when
    any one gap exceeds max_gap_minutes; "cumulative" when the summed
    non-acquisition time does. A repeated time adds a zero delta, which
    breaks no rule."""
    tol = GAP_TOLERANCE_FACTOR * nominal_interval_minutes * 60.0
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
    return bad, last - first + 1


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

    Returns (kept series, labels, report). Glucose is clamped to the device
    range and each subject's repeated timestamps keep their first row, both
    counted in the report. Subjects with fewer than min_days retained days
    are excluded from the kept list but stay in the report with
    excluded=True, so min_days must be at least 1. Labeled subjects absent
    from the series file are reported as missing, not errors. Every
    parameter is checked, and the labels file read, before the series file.

    The kept series are views of one pair of columns: the dedupe, the day
    filter and the exclusion mark one keep mask over the cohort's rows,
    which are then compacted in place.
    """
    if min_days < 1:
        raise ValueError("min_days must be at least 1")
    if not nominal_interval_minutes > 0:
        raise ValueError("nominal interval must be positive")
    if not np.isfinite(GAP_TOLERANCE_FACTOR * nominal_interval_minutes * 60.0):
        raise ValueError("nominal interval must be finite in seconds")
    if gap_mode not in GAP_MODES:
        raise ValueError(f"unknown gap mode: {gap_mode!r}")
    if not max_gap_minutes > 0:
        raise ValueError("max_gap_minutes must be positive")
    if not np.isfinite(max_gap_minutes * 60.0):
        raise ValueError("max_gap_minutes must be finite in seconds")
    labels = parse_labels(labels_path) if labels_path is not None else {}
    ids, times, glucose, bounds, keep = _subject_rows(series_path)

    subjects, counts, retained = {}, [], []
    for sid, lo, hi in zip(ids, bounds[:-1].tolist(), bounds[1:].tolist()):
        g = glucose[lo:hi]
        rows = keep[lo:hi]
        deduped = hi - lo - int(np.count_nonzero(rows))
        # The dedupe's rows of the days the rule keeps, and none if excluded.
        bad, day_rows = _day_rule(times[lo:hi], nominal_interval_minutes, max_gap_minutes,
                                  gap_mode)
        rows &= np.repeat(~bad, day_rows)
        n_filtered = int(np.count_nonzero(rows))
        days = int(bad.size - np.count_nonzero(bad))
        excluded = days < min_days
        if excluded:
            rows[:] = False
        subjects[sid] = {
            "retained_days": days,
            "dropped_days": int(bad.size) - days,
            "clamped": int(np.count_nonzero(g < GLUCOSE_LO) + np.count_nonzero(g > GLUCOSE_HI)),
            "deduped": deduped,
            "excluded": bool(excluded),
            "records_in": hi - lo,
            "records_dropped_day_filter": hi - lo - deduped - n_filtered,
            "records_dropped_exclusion": n_filtered if excluded else 0,
            "records_retained": 0 if excluded else n_filtered,
        }
        counts.append(subjects[sid]["records_retained"])
        retained.append(days)
    np.clip(glucose, GLUCOSE_LO, GLUCOSE_HI, out=glucose)
    kept = _kept_series(ids, times, glucose, keep, counts, nominal_interval_minutes, retained)

    missing = sorted(sid for sid in labels if sid not in subjects)
    totals = {key: int(sum(rec[key] for rec in subjects.values()))
              for key in ("records_in", "deduped", "clamped", "records_dropped_day_filter",
                          "records_dropped_exclusion", "records_retained")}
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
