"""Daily temperature series: ingestion, repair and descriptive statistics.

CSV interface: a header row ``date,tmax,tmin`` or ``date,tavg``; ISO-8601
dates; plain decimal numbers; missing values as empty fields.  When both
tmax and tmin are present the daily average is their arithmetic mean.
Missing days (empty fields or absent calendar dates) are filled with the
mean of the available values in the centred seven-day window around the
missing point (the window shrinks at the series edges; filling iterates
until no gaps remain).  A gap wider than 7 consecutive days is an error.
"""

from __future__ import annotations

import csv
import datetime as dt
import io
from dataclasses import dataclass

import numpy as np

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

    def day_index(self) -> np.ndarray:
        return np.arange(self.n, dtype=float)


@dataclass(frozen=True)
class SummaryStats:
    mean: float
    minimum: float
    maximum: float
    std: float            # sample standard deviation (ddof = 1)
    skewness: float       # population standardized third central moment
    kurtosis: float       # population standardized fourth central moment (normal = 3)
    n: int


@dataclass(frozen=True)
class KsResult:
    """One-sample Kolmogorov-Smirnov test against the standard normal.

    `statistic` tests the raw series against N(0, 1); `statistic_standardized`
    tests the mean/sd-standardized series.  The 5% critical value uses the
    asymptotic 1.3581/sqrt(n); p-values use the asymptotic Kolmogorov law.
    """

    statistic: float
    critical_value: float
    p_value: float
    statistic_standardized: float
    p_value_standardized: float
    n: int


def _parse_value(txt: str) -> float | None:
    txt = txt.strip()
    if not txt:
        return None
    return float(txt)


def ingest_csv(source) -> DailySeries:
    """Read a daily temperature CSV and repair missing days.

    `source` may be a path or an open text stream.  Raises IngestError with
    offending line numbers for unparseable rows, duplicated dates, or gaps
    wider than 7 consecutive days.
    """
    if hasattr(source, "read"):
        return _ingest_stream(source)
    try:
        with open(source, "r", newline="") as fh:
            return _ingest_stream(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise IngestError(f"cannot read {source}: {exc}") from exc


def _ingest_stream(fh: io.TextIOBase) -> DailySeries:
    reader = csv.reader(fh)
    try:
        header = next(reader)
    except StopIteration:
        raise IngestError("empty input") from None
    cols = [c.strip().lower() for c in header]
    if cols[:3] == ["date", "tmax", "tmin"]:
        mode = "maxmin"
    elif cols[:2] == ["date", "tavg"]:
        mode = "tavg"
    else:
        raise IngestError(
            f"unrecognised header {header!r}; expected date,tmax,tmin or date,tavg"
        )

    by_date: dict[dt.date, float | None] = {}
    bad: list[tuple[int, str]] = []
    for line_no, row in enumerate(reader, start=2):
        if not row or all(not c.strip() for c in row):
            continue
        try:
            date = dt.date.fromisoformat(row[0].strip())
            if mode == "maxmin":
                tmax = _parse_value(row[1]) if len(row) > 1 else None
                tmin = _parse_value(row[2]) if len(row) > 2 else None
                # the daily average needs both extremes; a lone one is a missing day
                if tmax is None or tmin is None:
                    value = None
                else:
                    value = 0.5 * (tmax + tmin)
            else:
                value = _parse_value(row[1]) if len(row) > 1 else None
        except (ValueError, IndexError) as exc:
            bad.append((line_no, str(exc)))
            continue
        if date in by_date:
            bad.append((line_no, f"duplicate date {date.isoformat()}"))
            continue
        by_date[date] = value
    if bad:
        listing = "; ".join(f"line {ln}: {msg}" for ln, msg in bad[:20])
        raise IngestError(f"{len(bad)} unparseable row(s): {listing}")
    if not by_date:
        raise IngestError("no data rows")

    first, last = min(by_date), max(by_date)
    n = (last - first).days + 1
    values = np.full(n, np.nan)
    for date, value in by_date.items():
        if value is not None:
            values[(date - first).days] = value
    missing = np.isnan(values)

    _check_gaps(missing, first)
    values = _fill_missing(values)
    dates = np.array(first.isoformat(), dtype="datetime64[D]") + np.arange(n)
    return DailySeries(dates=dates, values=values, missing_mask=missing)


def _check_gaps(missing: np.ndarray, first: dt.date) -> None:
    run = 0
    for i, miss in enumerate(missing):
        run = run + 1 if miss else 0
        if run > MAX_GAP_DAYS:
            start = first + dt.timedelta(days=i - run + 1)
            raise IngestError(
                f"gap of more than {MAX_GAP_DAYS} consecutive missing days starting "
                f"{start.isoformat()}: seven-day-window repair is ill-defined"
            )


def _fill_missing(values: np.ndarray) -> np.ndarray:
    values = values.copy()
    n = len(values)
    while np.any(np.isnan(values)):
        snapshot = values.copy()
        progressed = False
        for i in np.flatnonzero(np.isnan(snapshot)):
            lo, hi = max(0, i - _FILL_HALF_WINDOW), min(n, i + _FILL_HALF_WINDOW + 1)
            window = snapshot[lo:hi]
            avail = window[~np.isnan(window)]
            if avail.size:
                values[i] = float(np.mean(avail))
                progressed = True
        if not progressed:
            raise IngestError("missing-value repair made no progress")
    return values


def _as_values(series) -> np.ndarray:
    if isinstance(series, DailySeries):
        return series.values
    return np.asarray(series, float)


def summary_stats(series) -> SummaryStats:
    """Sample moments of a series (DailySeries or array)."""
    x = _as_values(series)
    n = x.size
    if n < 2:
        raise DomainError(f"need at least 2 observations, got {n}")
    mean = float(np.mean(x))
    sd = float(np.std(x, ddof=1))
    centred = x - mean
    m2 = float(np.mean(centred**2))
    if m2 == 0.0:
        skew = kurt = float("nan")
    else:
        skew = float(np.mean(centred**3) / m2**1.5)
        kurt = float(np.mean(centred**4) / m2**2)
    return SummaryStats(mean=mean, minimum=float(np.min(x)), maximum=float(np.max(x)),
                        std=sd, skewness=skew, kurtosis=kurt, n=n)


def _ks_distance(x: np.ndarray) -> float:
    """sup |F_n - Phi| for the sample x: the largest gap at its order statistics."""
    from scipy import special

    cdf = special.ndtr(np.sort(x))
    steps = np.arange(cdf.size + 1) / cdf.size  # F_n from 0 to 1
    return float(max(np.max(steps[1:] - cdf), np.max(cdf - steps[:-1])))


def ks_normality(series) -> KsResult:
    """Kolmogorov-Smirnov goodness-of-fit against the normal distribution."""
    from scipy import special

    x = _as_values(series)
    n = x.size
    if n < 30:
        raise DomainError(f"KS test requires n >= 30, got {n}")
    d_raw = _ks_distance(x)
    sd = np.std(x, ddof=1)
    d_std = _ks_distance((x - np.mean(x)) / sd) if sd > 0 else float("nan")
    root_n = np.sqrt(n)
    return KsResult(
        statistic=d_raw,
        critical_value=float(KS_CRITICAL_COEFF / root_n),
        p_value=float(special.kolmogorov(root_n * d_raw)),
        statistic_standardized=d_std,
        p_value_standardized=float(special.kolmogorov(root_n * d_std)),
        n=n,
    )
