import io

import numpy as np
import pytest
from scipy import stats

from tempderiv import (DomainError, IngestError, ingest_csv, ks_normality,
                       summary_stats)


def csv_from(rows, header="date,tavg"):
    return io.StringIO(header + "\n" + "\n".join(rows) + "\n")


def date_range_rows(n, values, start="2020-01-01"):
    base = np.datetime64(start)
    return [f"{base + i},{v}" for i, v in zip(range(n), values)]


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
        assert res.statistic == stats.kstest(x, "norm").statistic
        assert res.statistic_standardized == stats.kstest(z, "norm").statistic
