"""Daily temperature series: ingestion, repair and descriptive statistics.

CSV interface (README "Input CSV format"): UTF-8 text, a leading byte-order
mark skipped; LF or CRLF line endings; a header row ``date,tmax,tmin`` or
``date,tavg`` in any case, further columns ignored; dates in any form
``datetime.date.fromisoformat`` accepts; finite decimal numbers, with
missing values as empty fields (``inf`` and ``nan`` are unparseable rows).
When both tmax and tmin are present the daily average is their arithmetic
mean.  Missing days (empty fields or absent calendar dates) are filled with
the mean of the available values in the centred seven-day window around
the missing point (the window shrinks at the series edges; filling iterates
until no gaps remain).  A gap wider than 7 consecutive days is an error.

A file is read column by column (`_parse_columns`): one split makes its
fields, then the dates and each value column are converted in one pass
each.  A file that pass does not read as plain, with quotes, blank or
ragged rows, a field that does not parse or a duplicate date, is read row
by row by the csv module (`_parse_rows`).  The row reader gives the same
series or raises the error that names each offending line, so every error
message comes from it.  The values are then placed on the calendar, and the
gaps checked and filled, with array operations.
"""

from __future__ import annotations

import csv
import datetime as dt
import io
from dataclasses import dataclass

import numpy as np

from ._normal import _kolmogorov_sf, _norm_cdf
from .errors import DomainError, IngestError

KS_CRITICAL_COEFF = 1.3581  # 5% asymptotic Kolmogorov-Smirnov coefficient
MAX_GAP_DAYS = 7
_FILL_HALF_WINDOW = 3  # centred seven-day window


@dataclass(frozen=True)
class DailySeries:
    """Dated daily average temperatures with a repaired-value mask."""

    dates: np.ndarray          # datetime64[D], strictly increasing, one per day
    values: np.ndarray         # float, no missing values after repair
    missing_mask: np.ndarray   # True where the value was filled during repair

    def __post_init__(self):
        if len(self.dates) != len(self.values) or len(self.dates) != len(self.missing_mask):
            raise IngestError("dates, values and mask must have equal length")
        if len(self.dates) > 1:
            deltas = np.diff(self.dates).astype("timedelta64[D]").astype(int)
            if np.any(deltas != 1):
                raise IngestError("dates must be consecutive calendar days")

    @property
    def n(self) -> int:
        return len(self.values)

    @property
    def repaired(self) -> int:
        return int(np.sum(self.missing_mask))


@dataclass(frozen=True)
class SummaryStats:
    mean: float
    minimum: float
    maximum: float
    std: float            # sample standard deviation (ddof = 1)
    skewness: float       # population standardized third central moment
    kurtosis: float       # population standardized fourth central moment (normal = 3)


@dataclass(frozen=True)
class KsResult:
    """One-sample Kolmogorov-Smirnov test against the standard normal.

    `statistic` tests the raw series against N(0, 1); `statistic_standardized`
    tests the mean/sd-standardized series.  The 5% critical value uses the
    asymptotic 1.3581/sqrt(n); the p-value of `statistic` uses the asymptotic
    Kolmogorov law.
    """

    statistic: float
    critical_value: float
    p_value: float
    statistic_standardized: float


def _parse_value(txt: str) -> float:
    """The value of a field, NaN where it is empty; ValueError for a non-finite one."""
    txt = txt.strip()
    if not txt:
        return float("nan")
    value = float(txt)
    if not np.isfinite(value):
        raise ValueError(f"non-finite value {txt!r}")
    return value


def ingest_csv(source) -> DailySeries:
    """Read a daily temperature CSV and repair missing days.

    `source` may be a path (read as UTF-8, a leading byte-order mark
    skipped) or an open text stream (one leading U+FEFF skipped).  Raises
    IngestError with offending line numbers for unparseable rows (non-finite
    values included), duplicated dates, or gaps wider than 7 consecutive days.
    """
    if hasattr(source, "read"):
        text = source.read().removeprefix("\ufeff")
    else:
        try:
            with open(source, "r", newline="", encoding="utf-8-sig") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise IngestError(f"cannot read {source}: {exc}") from exc
    parsed = _parse_columns(text)
    ordinals, values = parsed if parsed is not None else _parse_rows(text)

    first = int(ordinals.min())
    n = int(ordinals.max()) - first + 1
    series = np.full(n, np.nan)
    series[ordinals - first] = values
    missing = np.isnan(series)
    start = dt.date.fromordinal(first)
    _check_gaps(missing, start)
    dates = np.array(start.isoformat(), dtype="datetime64[D]") + np.arange(n)
    return DailySeries(dates=dates, values=_fill_missing(series), missing_mask=missing)


def _value_columns(header: list[str]) -> int | None:
    """2 for a date,tmax,tmin header, 1 for date,tavg, None for any other."""
    cols = [c.strip().lower() for c in header]
    if cols[:3] == ["date", "tmax", "tmin"]:
        return 2
    if cols[:2] == ["date", "tavg"]:
        return 1
    return None


def _float_column(fields: list[str]) -> np.ndarray:
    """`float` of each field, NaN where empty.  Raises ValueError for a field
    that `float` does not parse (a blank one among them) or a non-finite value."""
    nan = float("nan")
    column = np.array([float(f) if f else nan for f in fields])
    if np.count_nonzero(np.isfinite(column)) != len(fields) - fields.count(""):
        raise ValueError("non-finite value")
    return column


def _parse_columns(text: str) -> tuple[np.ndarray, np.ndarray] | None:
    """Day ordinals and daily values (NaN where missing) of a plain CSV, or None.

    One split makes the fields; the dates and each value column are then
    converted in one pass each.  Returns None, leaving the verdict to
    `_parse_rows`, for a quote or a bare carriage return, an unknown header,
    no rows, a ragged or blank row, a field that does not parse (a blank
    value among them; an empty one is a missing value), a non-finite value
    or a duplicate date.
    """
    text = text.replace("\r\n", "\n")
    if '"' in text or "\r" in text:
        return None
    header, _, body = text.partition("\n")
    n_values = _value_columns(header.split(","))
    body = body.removesuffix("\n")
    width = body.partition("\n")[0].count(",") + 1
    rows = body.count("\n") + 1
    # a line break ends a field and starts the next line's date field with
    # "\n", so the rows are regular when every width-th field holds one
    fields = body.replace("\n", ",\n").split(",")
    if (n_values is None or width <= n_values or len(fields) != rows * width
            or "".join(fields[width::width]).count("\n") != rows - 1):
        return None
    try:
        dates = map(dt.date.fromisoformat, map(str.strip, fields[::width]))
        ordinals = np.fromiter(map(dt.date.toordinal, dates), np.int64, rows)
        columns = [_float_column(fields[k::width]) for k in range(1, n_values + 1)]
    except ValueError:
        return None
    in_order = np.sort(ordinals)
    if np.any(in_order[1:] == in_order[:-1]):
        return None
    return ordinals, _daily_average(columns)


def _daily_average(columns):
    """The daily average of a row's or a file's value columns: tavg itself, or
    the mean of tmax and tmin (NaN, a missing day, where either is NaN)."""
    return columns[0] if len(columns) == 1 else 0.5 * (columns[0] + columns[1])


def _parse_rows(text: str) -> tuple[np.ndarray, np.ndarray]:
    """`_parse_columns`' result read row by row with the csv module, or
    IngestError naming the header, every offending line, or the line where
    the csv module fails (a quoted field over its size limit, say)."""
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        header = next(reader, None)
        if header is None:
            raise IngestError("empty input")
        n_values = _value_columns(header)
        if n_values is None:
            raise IngestError(
                f"unrecognised header {header!r}; expected date,tmax,tmin or date,tavg"
            )
        by_date: dict[dt.date, float] = {}
        bad: list[tuple[int, str]] = []
        for line_no, row in enumerate(reader, start=2):
            if not any(c.strip() for c in row):
                continue
            try:
                date = dt.date.fromisoformat(row[0].strip())
                # a field past the end of a short row is missing
                fields = [_parse_value(row[k]) if k < len(row) else float("nan")
                          for k in range(1, n_values + 1)]
            except ValueError as exc:
                bad.append((line_no, str(exc)))
                continue
            if date in by_date:
                bad.append((line_no, f"duplicate date {date.isoformat()}"))
                continue
            by_date[date] = _daily_average(fields)
    except csv.Error as exc:
        raise IngestError(f"line {reader.line_num}: {exc}") from exc
    if bad:
        listing = "; ".join(f"line {ln}: {msg}" for ln, msg in bad[:20])
        raise IngestError(f"{len(bad)} unparseable row(s): {listing}")
    if not by_date:
        raise IngestError("no data rows")
    ordinals = np.array([date.toordinal() for date in by_date], np.int64)
    return ordinals, np.array(list(by_date.values()))


def _check_gaps(missing: np.ndarray, first: dt.date) -> None:
    # the padded mask changes value at the start and one past the end of each run
    edges = np.flatnonzero(np.diff(np.concatenate(([False], missing, [False]))))
    starts, ends = edges[0::2], edges[1::2]
    long_runs = np.flatnonzero(ends - starts > MAX_GAP_DAYS)
    if long_runs.size:
        start = first + dt.timedelta(days=int(starts[long_runs[0]]))
        raise IngestError(
            f"gap of more than {MAX_GAP_DAYS} consecutive missing days starting "
            f"{start.isoformat()}: seven-day-window repair is ill-defined"
        )


def _fill_missing(values: np.ndarray) -> np.ndarray:
    """Fill NaNs in sweeps: each sets every NaN with an available value in its
    centred seven-day window of the previous sweep to their mean."""
    values = values.copy()
    n, half = values.size, _FILL_HALF_WINDOW
    while True:
        missing = np.isnan(values)
        if not missing.any():
            return values
        padded, have = np.zeros((2, n + 2 * half))
        padded[half:half + n] = np.where(missing, 0.0, values)
        have[half:half + n] = ~missing
        total, count = np.zeros((2, n))
        # left to right from 0.0, the order in which np.mean sums a window,
        # so a fill is bit-identical to the mean of the window's values
        for k in range(2 * half + 1):
            total += padded[k:k + n]
            count += have[k:k + n]
        fill = missing & (count > 0)
        if not fill.any():
            raise IngestError("missing-value repair made no progress")
        values[fill] = total[fill] / count[fill]


def _as_values(series) -> np.ndarray:
    if isinstance(series, DailySeries):
        return series.values
    return np.asarray(series, float)


def _mean_sd(x: np.ndarray) -> tuple[float, float]:
    """The mean and sample standard deviation (ddof = 1) of the values, the one
    rule `summary_stats` and `ks_normality` share."""
    return float(np.mean(x)), float(np.std(x, ddof=1))


def summary_stats(series) -> SummaryStats:
    """Sample moments of a series (DailySeries or array)."""
    x = _as_values(series)
    n = x.size
    if n < 2:
        raise DomainError(f"need at least 2 observations, got {n}")
    mean, sd = _mean_sd(x)
    centred = x - mean
    m2 = float(np.mean(centred**2))
    if m2 == 0.0:
        skew = kurt = float("nan")
    else:
        skew = float(np.mean(centred**3) / m2**1.5)
        kurt = float(np.mean(centred**4) / m2**2)
    return SummaryStats(mean=mean, minimum=float(np.min(x)), maximum=float(np.max(x)),
                        std=sd, skewness=skew, kurtosis=kurt)


def _ks_distance(ordered: np.ndarray) -> float:
    """sup |F_n - Phi| for a sample in ascending order: the largest gap at its
    order statistics."""
    cdf = _norm_cdf(ordered)
    steps = np.arange(cdf.size + 1) / cdf.size  # F_n from 0 to 1
    return float(max(np.max(steps[1:] - cdf), np.max(cdf - steps[:-1])))


def ks_normality(series) -> KsResult:
    """Kolmogorov-Smirnov goodness-of-fit against the normal distribution."""
    x = _as_values(series)
    n = x.size
    if n < 30:
        raise DomainError(f"KS test requires n >= 30, got {n}")
    ordered = np.sort(x)
    d_raw = _ks_distance(ordered)
    mean, sd = _mean_sd(x)
    # standardising is increasing and elementwise, so it keeps the order
    d_std = _ks_distance((ordered - mean) / sd) if sd > 0 else float("nan")
    root_n = np.sqrt(n)
    return KsResult(
        statistic=d_raw,
        critical_value=float(KS_CRITICAL_COEFF / root_n),
        p_value=float(_kolmogorov_sf(root_n * d_raw)),
        statistic_standardized=d_std,
    )
