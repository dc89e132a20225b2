import io
import math
import re

import numpy as np
import pytest
from scipy import special, stats

from helpers import fill_missing_loop
from tempderiv import (DailySeries, DomainError, IngestError, _normal, data, ingest_csv,
                       ks_normality, summary_stats)
from tempderiv._normal import _kolmogorov_sf, _norm_cdf, _t_quantile, _t_tails


def csv_from(rows, header="date,tavg"):
    return io.StringIO(header + "\n" + "\n".join(rows) + "\n")


def date_range_rows(n, values, start="2020-01-01"):
    base = np.datetime64(start)
    return [f"{base + i},{v}" for i, v in zip(range(n), values)]


class TestDailySeries:
    DATES = np.arange(np.datetime64("2020-01-01"), np.datetime64("2020-01-04"))

    @pytest.mark.parametrize("n_values, n_mask", [(2, 3), (3, 2), (4, 4)])
    def test_unequal_lengths_rejected(self, n_values, n_mask):
        with pytest.raises(IngestError, match="dates, values and mask must have equal length"):
            DailySeries(self.DATES, np.zeros(n_values), np.zeros(n_mask, bool))

    def test_non_consecutive_dates_rejected(self):
        dates = np.array(["2020-01-01", "2020-01-02", "2020-01-04"], dtype="datetime64[D]")
        with pytest.raises(IngestError, match="dates must be consecutive calendar days"):
            DailySeries(dates, np.zeros(3), np.zeros(3, bool))


class TestIngest:
    def test_clean_series_unchanged(self):
        rows = date_range_rows(10, [f"{v:.1f}" for v in np.arange(10.0)])
        s = ingest_csv(csv_from(rows))
        assert s.n == 10 and s.repaired == 0
        assert np.allclose(s.values, np.arange(10.0))

    def test_tmax_tmin_averaged(self):
        src = csv_from(["2020-01-01,10,0", "2020-01-02,8,2"], header="date,tmax,tmin")
        s = ingest_csv(src)
        assert np.allclose(s.values, [5.0, 5.0])

    def test_lone_extreme_treated_as_missing(self):
        rows = ["2020-01-01,10,0", "2020-01-02,8,", "2020-01-03,10,0"]
        s = ingest_csv(csv_from(rows, header="date,tmax,tmin"))
        assert s.repaired == 1
        assert s.values[1] == pytest.approx(5.0)  # window mean, not the lone tmax

    def test_single_missing_constant_window(self):
        rows = ["2020-01-01,5", "2020-01-02,5", "2020-01-03,5", "2020-01-04,",
                "2020-01-05,5", "2020-01-06,5", "2020-01-07,5"]
        s = ingest_csv(csv_from(rows))
        assert s.repaired == 1
        assert s.values[3] == pytest.approx(5.0)
        assert bool(s.missing_mask[3])

    def test_absent_calendar_rows_are_missing(self):
        rows = ["2020-01-01,1", "2020-01-02,2", "2020-01-04,4"]  # Jan 3 absent
        s = ingest_csv(csv_from(rows))
        assert s.n == 4 and s.repaired == 1

    def test_seven_day_gap_filled_multipass(self):
        vals = ["2020-01-0%d,3" % d for d in range(1, 4)]
        gap = [f"2020-01-{d:02d}," for d in range(4, 11)]  # 7 missing days
        tail = [f"2020-01-{d:02d},9" for d in range(11, 14)]
        s = ingest_csv(csv_from(vals + gap + tail))
        assert s.repaired == 7
        assert np.all(np.isfinite(s.values))
        assert np.all(s.values[3:10] >= 3.0) and np.all(s.values[3:10] <= 9.0)

    def test_eight_day_gap_rejected(self):
        vals = ["2020-01-0%d,3" % d for d in range(1, 4)]
        gap = [f"2020-01-{d:02d}," for d in range(4, 12)]  # 8 missing days
        tail = [f"2020-01-{d:02d},9" for d in range(12, 15)]
        with pytest.raises(IngestError, match="gap"):
            ingest_csv(csv_from(vals + gap + tail))

    def test_bad_rows_reported_with_line_numbers(self):
        rows = ["2020-01-01,1", "not-a-date,2", "2020-01-03,abc"]
        with pytest.raises(IngestError, match="line 3.*line 4") as exc:
            ingest_csv(csv_from(rows))

    def test_duplicate_date_rejected(self):
        rows = ["2020-01-01,1", "2020-01-01,2"]
        with pytest.raises(IngestError, match="duplicate"):
            ingest_csv(csv_from(rows))

    def test_unknown_header_rejected(self):
        with pytest.raises(IngestError, match="header"):
            ingest_csv(io.StringIO("day,value\n1,2\n"))

    def test_toronto_calendar_count(self):
        """1/1/2013 .. 15/11/2018 spans exactly 2145 daily points."""
        n = (np.datetime64("2018-11-15") - np.datetime64("2013-01-01")).astype(int) + 1
        assert n == 2145
        rows = date_range_rows(2145, ["1.0"] * 2145, start="2013-01-01")
        s = ingest_csv(csv_from(rows))
        assert s.n == 2145
        assert str(s.dates[-1]) == "2018-11-15"


class TestIngestInput:
    @pytest.mark.parametrize("header, row", [("date,tavg", "{},{}"),
                                             ("date,tmax,tmin", "{},{},3.0")])
    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    def test_non_finite_value_rejected_with_its_line(self, header, row, value):
        """A value that parses to +-inf or NaN is an unparseable row, not a
        temperature nor a missing day (missing values are empty fields)."""
        days = np.datetime64("2018-01-01") + np.arange(10)
        rows = [row.format(day, value if i == 5 else "5.0") for i, day in enumerate(days)]
        with pytest.raises(IngestError, match=f"1 unparseable row\\(s\\): line 7: "
                                              f"non-finite value '{value}'$"):
            ingest_csv(csv_from(rows, header=header))

    def test_byte_order_mark_path(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_text("\ufeffdate,tavg\n2020-01-01,1.5\n2020-01-02,2.5\n", encoding="utf-8")
        s = ingest_csv(str(path))
        assert s.n == 2 and np.array_equal(s.values, [1.5, 2.5])

    def test_byte_order_mark_stream(self):
        s = ingest_csv(io.StringIO("\ufeffdate,tmax,tmin\r\n2020-01-01,4,1\r\n"))
        assert s.n == 1 and s.values[0] == 2.5


# Variants of a daily CSV.  The column parse must read the plain ones and may
# decline any other, leaving it to the csv row reader.
VARIANTS = ("crlf", "unsorted", "extra_columns", "whitespace", "blank_lines", "blank_value",
            "short_row", "quoted", "duplicate", "bad_date", "bad_number", "non_finite",
            "basic_dates", "gap_7", "gap_8", "no_final_newline")
PLAIN = {"crlf", "unsorted", "extra_columns", "whitespace", "basic_dates", "gap_7", "gap_8",
         "no_final_newline"}


def csv_variant(seed: int) -> tuple[str, set[str]]:
    """A seeded daily CSV text with a random set of VARIANTS applied."""
    rng = np.random.default_rng(seed)
    applied = {v for v in VARIANTS if rng.random() < 0.2}
    maxmin = bool(rng.integers(2))
    n = int(rng.integers(15, 40))
    start = np.datetime64("2019-12-20") + int(rng.integers(0, 60))
    temps = np.round(rng.normal(2.0, 8.0, n), int(rng.integers(1, 4)))
    temps[rng.random(n) < 0.05] = -0.0
    spread = np.round(rng.uniform(2.0, 10.0, n), 1)
    rows = [[str(start + i)] + ([repr(float(t + s)), repr(float(t - s))] if maxmin
                                else [repr(float(t))])
            for i, (t, s) in enumerate(zip(temps, spread))]
    for i in np.flatnonzero(rng.random(n) < 0.08):  # isolated blanks
        rows[i][1 + int(rng.integers(1 + maxmin))] = ""
    for gap in (7, 8):
        if f"gap_{gap}" in applied:
            at = int(rng.integers(2, n - gap - 1))
            for row in rows[at:at + gap]:
                row[1:] = [""] * (len(row) - 1)
            if rng.integers(2):  # absent rows rather than blank fields
                del rows[at:at + gap]
    header = ["date", "tmax", "tmin"] if maxmin else ["date", "tavg"]
    if rng.integers(2):
        header = [h.upper() if rng.integers(2) else h for h in header]

    def pick():
        return rows[int(rng.integers(len(rows)))]

    if "basic_dates" in applied:
        for row in rows:
            row[0] = row[0].replace("-", "")
    if "extra_columns" in applied:
        header = header + ["station"]
        for row in rows:
            row.append(str(rng.choice(["YYZ", "", "1.5", "x y"])))
    if "whitespace" in applied:
        for row in rows:
            row[:] = [str(rng.choice(["", " ", "\t"])) + f + str(rng.choice(["", " "])) if f
                      else f for f in row]
    if "blank_value" in applied:  # a missing value written as blanks, not as an empty field
        pick()[1 + int(rng.integers(1 + maxmin))] = str(rng.choice([" ", "\t", "  "]))
    if "duplicate" in applied:
        rows.insert(int(rng.integers(len(rows))), list(pick()))
    if "bad_date" in applied:
        pick()[0] = str(rng.choice(["2020-13-01", "2020-02-30", "not-a-date", "2020/01/05"]))
    if "bad_number" in applied:
        pick()[1 + int(rng.integers(1 + maxmin))] = str(rng.choice(["abc", "1.2.3", "5C", "--1"]))
    if "non_finite" in applied:
        pick()[1 + int(rng.integers(1 + maxmin))] = str(rng.choice(["inf", "-nan", "Infinity",
                                                                 "1e999"]))
    if "short_row" in applied:
        pick().pop()
    if "quoted" in applied:
        row = pick()
        k = int(rng.integers(len(row)))
        row[k] = f'"{row[k]}"'
    if "unsorted" in applied:
        rows = [rows[i] for i in rng.permutation(len(rows))]
    lines = [",".join(header)] + [",".join(row) for row in rows]
    if "blank_lines" in applied:
        for _ in range(int(rng.integers(1, 4))):
            lines.insert(int(rng.integers(1, len(lines))), str(rng.choice(["", "  ", ",,"])))
    newline = "\r\n" if "crlf" in applied else "\n"
    text = newline.join(lines) + ("" if "no_final_newline" in applied else newline)
    return text, applied


def outcome(text: str):
    """The series ingest_csv reads, as bytes, or its IngestError message."""
    try:
        s = ingest_csv(io.StringIO(text))
    except IngestError as exc:
        return str(exc)
    return s.dates.tobytes(), s.values.tobytes(), s.missing_mask.tobytes()


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    nan = np.isnan(a)
    return np.array_equal(nan, np.isnan(b)) and a[~nan].tobytes() == b[~nan].tobytes()


class TestParsePathsAgree:
    def test_column_parse_equals_row_reader_on_variants(self, monkeypatch):
        read = set()
        for seed in range(400):
            text, applied = csv_variant(seed)
            columns = data._parse_columns(text)
            try:
                rows = data._parse_rows(text)
            except IngestError:
                rows = None
            if columns is not None:
                read |= applied
                assert rows is not None, seed
                assert np.array_equal(columns[0], rows[0]), seed
                assert same_bits(columns[1], rows[1]), seed
            assert rows is not None or columns is None, seed
            if applied <= PLAIN:
                assert columns is not None, (seed, applied)
            with monkeypatch.context() as m:
                m.setattr(data, "_parse_columns", lambda text: None)
                by_rows = outcome(text)
            assert outcome(text) == by_rows, seed
        assert read == PLAIN  # each plain variant was read by the column parse

    @pytest.mark.parametrize("text,message", [
        ("", "empty input"),
        ("day,value\n1,2\n", "unrecognised header ['day', 'value']"),
        ("date,tavg\n", "no data rows"),
        ("date,tavg\n\n2020-01-01,\n", "missing-value repair made no progress"),
        ('date,tavg\n2020-01-01,"1"\n2020-01-01,2\n', "line 3: duplicate date 2020-01-01"),
        ("date,tavg\r\n2020-01-01,x\r\n", "line 2: could not convert string to float: 'x'"),
        # a short row then a long one: the field count is that of regular rows
        ("date,tmax,tmin\n2020-01-01,4,2\n2020-01-02,5\n3,2020-01-03,7,3\n",
         "line 4: Invalid isoformat string: '3'"),
    ])
    def test_messages_come_from_the_row_reader(self, text, message):
        assert data._parse_columns(text) is None
        with pytest.raises(IngestError, match=re.escape(message)):
            ingest_csv(io.StringIO(text))

    @pytest.mark.parametrize("text", [
        'date,tavg\n"2020-01-01","1.5"\n2020-01-02,2.5\n',
        # a quoted note that spans what looks like a row of its own
        'date,tavg,note\n2020-01-01,1.5,"a\n2020-01-03,9.9,b"\n2020-01-02,2.5,c\n',
    ])
    def test_quoted_fields_read_by_the_row_reader(self, text):
        assert data._parse_columns(text) is None
        assert np.array_equal(ingest_csv(io.StringIO(text)).values, [1.5, 2.5])

    def test_field_over_the_csv_limit_names_its_line(self):
        """A quoted field longer than the csv module's 131,072-character limit is
        an IngestError naming its line, not the csv module's own error."""
        text = f'date,tavg,note\n2020-01-01,1.5,"{"x" * 140_000}"\n2020-01-02,2.5,ok\n'
        with pytest.raises(IngestError, match=r"^line 2: field larger than field limit"):
            ingest_csv(io.StringIO(text))


class TestRepair:
    @pytest.mark.parametrize("seed", range(12))
    def test_fill_bit_identical_to_window_loop(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 300))
        x = rng.normal(0.0, 1.0, n) * 10.0 ** rng.integers(-4, 17, n)
        x[rng.random(n) < 0.05] = -0.0
        pos = int(rng.integers(0, 3))
        while pos < n:  # missing runs of 1-7 days, at least one value apart
            run = int(rng.integers(1, 8))
            x[pos:pos + run] = np.nan
            pos += run + int(rng.integers(1, 12))
        if np.all(np.isnan(x)):
            x[0] = 1.0
        assert data._fill_missing(x).tobytes() == fill_missing_loop(x).tobytes()

    def test_all_missing_makes_no_progress(self):
        for fill in (data._fill_missing, fill_missing_loop):
            with pytest.raises(IngestError, match="no progress"):
                fill(np.full(5, np.nan))

    def test_gap_message_names_the_first_long_run(self):
        rows = date_range_rows(40, ["1.0"] * 40)
        for i in list(range(3, 10)) + list(range(15, 24)):  # 7 days, then 9 days from Jan 16
            rows[i] = rows[i].split(",")[0] + ","
        with pytest.raises(IngestError, match="gap of more than 7 consecutive missing days "
                                              "starting 2020-01-16: "):
            ingest_csv(csv_from(rows))


class TestSummaryStats:
    def test_constant_series(self):
        s = summary_stats(np.full(50, 7.0))
        assert s.std == 0.0
        assert np.isnan(s.skewness) and np.isnan(s.kurtosis)

    def test_normal_moments(self):
        rng = np.random.default_rng(10)
        x = rng.standard_normal(1_000_000)
        s = summary_stats(x)
        assert abs(s.skewness) < 3 * np.sqrt(6.0 / x.size)
        assert abs(s.kurtosis - 3.0) < 3 * np.sqrt(24.0 / x.size)

    def test_affine_invariance_of_shape(self):
        rng = np.random.default_rng(11)
        x = rng.gamma(2.0, 1.0, 5000)
        s1, s2 = summary_stats(x), summary_stats(2.0 * x + 3.0)
        assert s1.skewness == pytest.approx(s2.skewness, abs=1e-12)
        assert s1.kurtosis == pytest.approx(s2.kurtosis, abs=1e-12)

    def test_needs_two_points(self):
        with pytest.raises(DomainError):
            summary_stats([1.0])


class TestKsNormality:
    def test_critical_value_at_2145(self):
        rng = np.random.default_rng(12)
        res = ks_normality(rng.standard_normal(2145))
        assert res.critical_value == pytest.approx(0.0293, abs=5e-4)

    def test_null_p_values(self):
        rng = np.random.default_rng(13)
        passed = sum(ks_normality(rng.standard_normal(10_000)).p_value > 0.01
                     for _ in range(40))
        assert passed >= 38  # >= 95%

    def test_shifted_series_raw_vs_standardized(self):
        rng = np.random.default_rng(14)
        x = rng.standard_normal(5000) * 11.0 + 9.0
        res = ks_normality(x)
        assert res.statistic > 0.3              # raw vs N(0,1): decisive rejection
        assert res.statistic_standardized < 0.05  # shape itself is normal

    def test_needs_thirty(self):
        with pytest.raises(DomainError):
            ks_normality(np.ones(10))

    @pytest.mark.parametrize("seed", range(5))
    def test_statistics_equal_scipy_kstest(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_t(4, 30 + 500 * seed) * rng.uniform(0.5, 3.0) + rng.uniform(-1.0, 1.0)
        x[::7] = np.round(x[::7], 1)  # ties, as in data recorded to 0.1 degree
        res = ks_normality(x)
        z = (x - np.mean(x)) / np.std(x, ddof=1)
        for sample, got in ((x, res.statistic), (z, res.statistic_standardized)):
            # SciPy's KS code on the package's Phi gives the same statistic, bit for bit
            assert got == stats.kstest(sample, _norm_cdf).statistic
            # against SciPy's own Phi: D moves by no more than Phi does at the sample
            gap = np.max(np.abs(_norm_cdf(sample) - special.ndtr(sample)))
            assert abs(got - stats.kstest(sample, "norm").statistic) <= gap


class TestKolmogorovSf:
    def test_against_scipy(self):
        """Both series, either side of their switch at x = 1, within 1e-13 of SciPy."""
        x = np.concatenate([np.linspace(0.05, 6.0, 2001), 1.0 + np.array([-1e-6, 0.0, 1e-6]),
                            np.nextafter(1.0, [0.0, 2.0])])
        got = np.array([_kolmogorov_sf(v) for v in x])
        want = special.kolmogorov(x)
        assert np.all(np.abs(got - want) <= 1e-13 * want)
        assert _kolmogorov_sf(0.05) == 1.0

    def test_underflows_to_zero_with_scipy(self):
        x = np.linspace(15.0, 25.0, 10_001)
        got = np.array([_kolmogorov_sf(v) for v in x])
        want = special.kolmogorov(x)
        assert np.array_equal(got == 0.0, want == 0.0)
        assert want[-1] == 0.0 and want[0] > 0.0


STUDENT_DOFS = [1, 2, 3, 5, 14, 40, 100, 2141, 1e4, 1e6]
QUANTILE_PS = [0.5, 0.5 + 2.0**-40, 0.5001, 0.51, 0.6, 0.75, 0.9, 0.95, 0.975, 0.99, 0.999,
               0.9999, 0.99999, 0.999999]


class TestStudentT:
    """Student's t law of the seasonal fit against SciPy's and, at dof = 1 and 2,
    against closed forms, to 1e-12 relative: the report prints 10 digits.
    dof = 40 puts a = dof/2 on the switch of `_inv_beta_half` from a ratio of
    gammas to its series."""

    @pytest.mark.parametrize("dof", STUDENT_DOFS)
    def test_tails_against_scipy(self, dof):
        """The two-sided tail from 1 down to 1e-300, and below the normal range
        (under 2.2e-308) where SciPy's underflows to 0; the central mass too.  Each
        oracle is 1 minus the other where it passes 1/2: near t = 0 SciPy's stdtr
        rounds x = dof/(dof + t^2) to 1 (a 3e-9 error at dof = 1, t = 1e-8), and its
        incomplete beta of t^2/(dof + t^2) does the same near 1."""
        t = np.concatenate([np.geomspace(1e-8, 1e3, 2500), np.geomspace(1e3, 1e300, 3000)[1:]])
        got = np.array([_t_tails(v, dof) for v in t])
        y = 1.0 / (1.0 + dof / t / t)  # t^2/(dof + t^2), without overflow
        inner = special.betainc(0.5, 0.5 * dof, y)
        tail = 2.0 * special.stdtr(dof, -t)
        if dof == 1:  # stdtr squares t, so it gives 0 from t = 1.3e154 on
            tail = np.where(t > 1e8, 2.0 / (np.pi * t), tail)  # Cauchy: 2/(pi t) (1 + O(t^-2))
        inner, tail = np.where(inner < 0.5, inner, 1.0 - tail), np.where(inner < 0.5, 1.0 - inner, tail)
        kept = tail >= 1e-300
        assert tail[0] > 1.0 - 1e-8 and np.min(tail[kept]) < 1e-290 and not np.all(kept)
        np.testing.assert_allclose(got[kept, 0], tail[kept], rtol=1e-12, atol=0)
        assert np.all(got[~kept, 0] < 1e-300) and np.all(got[tail == 0.0, 0] < np.finfo(float).tiny)
        np.testing.assert_allclose(got[:, 1], inner, rtol=1e-12, atol=0)
        assert _t_tails(0.0, dof) == (1.0, 0.0) and _t_tails(-t[2000], dof) == tuple(got[2000])
        # the continued fraction runs on both sides of its switch
        switch = (0.5 * dof + 2.5) * y >= 2.0
        assert np.any(switch & kept) and np.any(~switch)

    @pytest.mark.parametrize("dof", STUDENT_DOFS)
    def test_quantile_against_scipy(self, dof):
        """From p = 1/2 (t = 0, absolute error at most 1e-15 there) to 0.999999, and
        1 - 1e-12 at dof = 1 and 2.  Within 1e-3 of 1/2, SciPy's stdtrit loses up
        to 6e-7 of t (dof = 3, p = 1/2 + 2^-40), so there the oracle is SciPy's
        incomplete beta at the quantile, which gives back p - 1/2."""
        ps = QUANTILE_PS + [1.0 - 1e-12] * (dof <= 2)
        assert abs(_t_quantile(0.5, dof)) <= 1e-15
        for p in ps[1:]:
            got = _t_quantile(p, dof)
            if p - 0.5 < 1e-3:
                half = 0.5 * special.betainc(0.5, 0.5 * dof, got * got / (dof + got * got))
                assert abs(half - (p - 0.5)) <= 1e-12 * (p - 0.5), (p, got)
            else:
                want = special.stdtrit(dof, p)
                assert abs(got - want) <= 1e-12 * want, (p, got, want)

    @pytest.mark.parametrize("dof", [1, 2])
    def test_quantile_closed_forms(self, dof):
        """SciPy-free oracles, with q = 1 - p: tan(pi (p - 1/2)) at dof = 1, or
        1/tan(pi q) above p = 3/4, and (2p - 1)/sqrt(2 p q) at dof = 2, up to
        p = 1 - 2^-53, the largest double below 1."""
        for p in QUANTILE_PS[1:] + [1.0 - 1e-12, 1.0 - 2.0**-53]:
            q = 1.0 - p
            if dof == 1:
                want = math.tan(math.pi * (p - 0.5)) if q > 0.25 else 1.0 / math.tan(math.pi * q)
            else:
                want = (p - q) / math.sqrt(2.0 * p * q)
            got = _t_quantile(p, dof)
            assert abs(got - want) <= 1e-12 * want, (p, got, want)

    def test_cauchy_tails_closed_form(self):
        """At dof = 1 the two-sided tail is 2 atan(1/|t|)/pi and the central mass
        2 atan(|t|)/pi, from t = 1e-8 to 1e300."""
        t = np.geomspace(1e-8, 1e300, 3000)
        got = np.array([_t_tails(v, 1) for v in t])
        want = np.stack([np.arctan(1.0 / t), np.arctan(t)], axis=1) * (2.0 / np.pi)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)

    def test_quantile_stops_well_below_the_step_cap(self, monkeypatch):
        """Newton's method stops on its step test, never on the 100-step cap: counted
        in `_t_tails` calls, the most is 54, at dof = 1 and p = 1 - 2^-53."""
        tails = _normal._t_tails
        calls = []
        monkeypatch.setattr(_normal, "_t_tails", lambda t, dof: calls.append(t) or tails(t, dof))
        counts = {}
        for dof in STUDENT_DOFS:
            for p in QUANTILE_PS + [1.0 - 2.0**-53] * (dof <= 2):
                calls.clear()
                _t_quantile(p, dof)
                counts[dof, p] = len(calls)
        assert max(counts.values()) <= 60, max(counts.items(), key=lambda kv: kv[1])
