import argparse
import ast
import json
import os
import re
import runpy
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from helpers import gaussian_kde, simulate_csv_lines
from tempderiv import (ContractSpec, CosGrid, FourCoeffs, GammaTimeChange,
                       ModelParams, SimConfig, cat_cumulants, cli, cos_coefficients,
                       price_strangle, simulate_paths, solve_theta, truncation_bounds)
from tempderiv.charfun import _cat_parts
from tempderiv.cli import build_parser, main
from tempderiv.data import ingest_csv

ROOT = Path(__file__).parent.parent
DATA = Path(__file__).parent / "data"

MODEL_CFG = {
    "alpha": 0.25, "t0": -3.0,
    "seasonal": [8.0, 0.0008, -5.9, -12.9],
    "vol": [3.5, 0.0, 0.5, 1.0],
    "timechange": {"a": 1.5, "b": 1.0, "mu1": 0.3},
}
CONTRACT_CFG = {"horizon_t": 30, "k1_strike": 330.0, "k2_strike": 250.0,
                "d1": 1.0, "d2": 1.0, "rate_r": 0.02}
# every whole-number field of the price, density and simulate configs
WHOLE_NUMBER_CFG = {"model": MODEL_CFG, "contract": CONTRACT_CFG, "horizon_t": 30,
                    "points": 5, "cos": {"auto": True, "n1": 64, "n2": 64}, "horizon": 10,
                    "sim": {"n_paths": 2, "seed": 1}}


@pytest.fixture
def price_config(tmp_path):
    cfg = {"model": MODEL_CFG, "contract": CONTRACT_CFG,
           "cos": {"auto": True, "l_mult": 10.0, "n1": 256, "n2": 256},
           "sim": {"n_paths": 20000, "seed": 7}}
    path = tmp_path / "price.json"
    path.write_text(json.dumps(cfg))
    return str(path)


@pytest.fixture
def sim_config(tmp_path):
    cfg = {"model": MODEL_CFG, "horizon": 40,
           "sim": {"n_paths": 3, "seed": 11}, "start_date": "2018-01-01"}
    path = tmp_path / "sim.json"
    path.write_text(json.dumps(cfg))
    return str(path)


@pytest.fixture
def fit_csv():
    # 700 days of the model alpha=0.25, t0=-5, seasonal (8, 0.0008, -6, -13),
    # vol (1, 0, 0, 0), timechange (1.5, 1.0, 0.2) from 2016-01-01, as written
    # by an earlier version of the simulator (seed 2024) and kept as a file, so
    # the frozen fit below does not move when the random streams change
    return str(DATA / "fit_daily.csv")


class TestFit:
    def test_fit_outputs_all_betas(self, fit_csv, tmp_path):
        out = tmp_path / "fit.json"
        rc = main(["fit", fit_csv, "--out", str(out), "--vol-shape", "constant"])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert len(payload["seasonal"]["estimate"]) == 4
        assert payload["alpha"]["estimate"] > 0
        assert {"a", "b", "mu1"} <= payload["timechange"].keys()
        assert payload["timechange"]["converged"] is True
        assert isinstance(payload["timechange"]["status"], int)

    def test_seasonal_fit_reference(self, fit_csv, tmp_path):
        # frozen fit, compared on what the data identifies: the fit pins the vol level
        # c0 and trend c1, and (b, mu1, vol) enter only as b/c0^2, mu1/c0 and c_i/c0
        # (exact scale degeneracy, see tempderiv.calibrate); 1e-6 is the reference fit's
        # own precision
        out = tmp_path / "fit.json"
        assert main(["fit", fit_csv, "--out", str(out), "--vol-shape", "seasonal"]) == 0
        tch = json.loads(out.read_text())["timechange"]
        ref = {"a": 2.324459391, "b": 1.794377544, "mu1": 0.08743625675,
               "objective": 0.4352617199,
               "vol": [1.027644852, -7.169034008e-05, -0.03686685087, 0.02858682967]}

        def identified(fit):
            c0 = fit["vol"][0]
            return {"a": fit["a"], "objective": fit["objective"], "b/c0^2": fit["b"] / c0**2,
                    "mu1/c0": fit["mu1"] / c0, "c/c0": [c / c0 for c in fit["vol"][1:]]}

        got = identified(tch)
        for key, want in identified(ref).items():
            assert got[key] == pytest.approx(want, rel=1e-6, abs=1e-6)
        assert tch["converged"] is True and isinstance(tch["status"], int)

    @pytest.mark.parametrize("vol_shape", ["constant", "seasonal"])
    def test_interior_fit_reports_counts(self, fit_csv, tmp_path, vol_shape):
        out = tmp_path / "fit.json"
        assert main(["fit", fit_csv, "--out", str(out), "--vol-shape", vol_shape]) == 0
        tch = json.loads(out.read_text())["timechange"]
        assert tch["at_bound"] == [] and tch["converged"] is True
        assert isinstance(tch["status"], int) and tch["status"] > 0
        assert all(isinstance(tch[n], int) and 0 < tch[n] <= 10 for n in ("nfev", "njev"))

    @pytest.mark.parametrize("vol_shape", ["constant", "seasonal"])
    def test_fit_ending_on_the_box_wall_is_not_converged(self, tmp_path, vol_shape):
        """Criterion 10's near-Gaussian series: mu1 is not identified and LM walks to
        |mu1| = 50; the solver stops normally, but the fit is no interior optimum."""
        rng = np.random.default_rng(99)
        vals = 8 + 6 * np.sin(2 * np.pi * np.arange(700) / 365) + rng.normal(0, 2, 700)
        base = np.datetime64("2016-01-01")
        csv = tmp_path / "series.csv"
        csv.write_text("date,tavg\n" + "\n".join(
            f"{base + i},{v:.4f}" for i, v in enumerate(vals)) + "\n")
        out = tmp_path / "fit.json"
        assert main(["fit", str(csv), "--out", str(out), "--vol-shape", vol_shape]) == 0
        tch = json.loads(out.read_text())["timechange"]
        assert tch["at_bound"] == ["mu1"] and abs(tch["mu1"]) > 50 - 1e-3
        assert tch["converged"] is False and tch["status"] > 0

    def test_short_series_exit_3(self, fit_csv, tmp_path, capsys):
        """30 days fit the seasonal curve and alpha, but leave too few innovations for
        the time change: a fit failure, exit 3, and no report written."""
        short, out = tmp_path / "short.csv", tmp_path / "fit.json"
        short.write_text("".join(Path(fit_csv).read_text().splitlines(True)[:31]))
        assert main(["fit", str(short), "--out", str(out)]) == 3
        assert "fit error: need at least 500 innovations, got 29" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("series", ["zero", "constant", "harmonic"])
    def test_exactly_fitted_series_exit_3(self, tmp_path, capsys, series):
        """800 days that the seasonal curve fits exactly, written to full precision,
        leave only rounding to fit: exit 3, no report and no RuntimeWarning (the suite
        makes one an error), not a crash in fit_alpha or a fit to the rounding."""
        wt = 2 * np.pi * np.arange(800) / 365
        vals = {"zero": np.zeros_like(wt), "constant": np.full_like(wt, 5.0),
                "harmonic": 8.0 + 6.0 * np.sin(wt) - 3.0 * np.cos(wt)}[series]
        base = np.datetime64("2016-01-01")
        csv, out = tmp_path / "exact.csv", tmp_path / "fit.json"
        csv.write_text("date,tavg\n" + "".join(f"{base + i},{float(v)!r}\n"
                                                for i, v in enumerate(vals)))
        assert main(["fit", str(csv), "--out", str(out)]) == 3
        assert "fit error: the seasonal curve fits the series exactly" in capsys.readouterr().err
        assert not out.exists()

    def test_gap_csv_exit_2(self, tmp_path, capsys):
        lines = ["date,tavg"]
        base = np.datetime64("2020-01-01")
        for i in range(40):
            val = "" if 10 <= i < 20 else "5.0"
            lines.append(f"{base + i},{val}")
        path = tmp_path / "gap.csv"
        path.write_text("\n".join(lines) + "\n")
        rc = main(["fit", str(path)])
        assert rc == 2
        assert "gap" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["fit", "stats"])
    def test_csv_without_values_exit_2(self, tmp_path, capsys, command):
        path = tmp_path / "empty.csv"
        path.write_text("date,tavg\n2020-01-01,\n2020-01-02,\n2020-01-03,\n")
        assert main([command, str(path)]) == 2
        assert "missing-value repair made no progress" in capsys.readouterr().err


class TestPrice:
    def test_solved_theta_block(self, price_config, tmp_path):
        """A solved tilt reports the root, its source and its residual, and nothing else."""
        out = tmp_path / "report.json"
        assert main(["price", "--config", price_config, "--out", str(out)]) == 0
        theta = json.loads(out.read_text())["theta"]
        assert theta.keys() == {"theta", "source", "residual"}
        assert theta["source"] == "solved" and abs(theta["residual"]) < 1e-10

    def test_negative_strikes_exit_0(self, tmp_path):
        """Criterion 10's model has a Q CAT mean of -53.7 at T = 20: a strangle around it
        has strikes below 0, and prices."""
        cfg = {"model": MODEL_CFG, "contract": dict(CONTRACT_CFG, horizon_t=20,
                                                    k1_strike=-10.0, k2_strike=-100.0)}
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg))
        out = tmp_path / "price.json"
        assert main(["price", "--config", str(p), "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["grid"]["cat_mean"] == pytest.approx(-53.7, abs=0.05)
        assert payload["price"] > 0.0

    def test_zero_ticks_price_zero(self, tmp_path):
        cfg = {"model": MODEL_CFG,
               "contract": dict(CONTRACT_CFG, d1=0.0, d2=0.0)}
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg))
        out = tmp_path / "price.json"
        assert main(["price", "--config", str(p), "--out", str(out), "--mc",
                     "--paths", "500"]) == 0
        payload = json.loads(out.read_text())
        assert payload["price"] == 0.0
        assert payload["mc"]["stderr"] == 0.0 and payload["mc"]["z"] is None

    def test_price_with_mc_flag(self, price_config, tmp_path):
        out = tmp_path / "report.json"
        rc = main(["price", "--config", price_config, "--out", str(out),
                   "--mc", "--paths", "20000"])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["theta"]["source"] == "solved"
        assert "price" in payload and "mc" in payload
        mc = payload["mc"]
        assert mc["within_3_stderr"] is True
        # each field is rounded to 10 significant digits, and mc - price cancels
        assert mc["z"] == pytest.approx((mc["price"] - payload["price"]) / mc["stderr"],
                                        rel=1e-6)
        assert payload["convergence"]["relative_change"] < 1e-6

    def test_half_term_check_matches_half_grid_price(self, price_config, tmp_path):
        """The half-term price, taken from a coefficient prefix, is the half grid's price."""
        out = tmp_path / "report.json"
        assert main(["price", "--config", price_config, "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        model = ModelParams(alpha=0.25, t0=-3.0, seasonal=FourCoeffs(*MODEL_CFG["seasonal"]),
                            vol=FourCoeffs(*MODEL_CFG["vol"]),
                            timechange=GammaTimeChange(1.5, 1.0, 0.3), horizon=30.0)
        contract = ContractSpec(horizon_T=30, k1_strike=330.0, k2_strike=250.0,
                                d1=1.0, d2=1.0, rate_r=0.02)
        theta = solve_theta(model, 0.02, 30.0).theta
        b1, b2 = truncation_bounds(*cat_cumulants(model, theta, 30), 10.0)
        for n, got in ((256, payload["price"]),
                       (128, payload["convergence"]["price_half_terms"])):
            want = price_strangle(contract, model, theta, CosGrid(b1, b2, n, n)).price
            assert got == float("{:.10g}".format(want))

    def test_alpha_sweep_rows(self, tmp_path):
        """The grid's cumulants and the charfun of one price share one CAT kernel build,
        and the row at the model's own alpha is the headline's own quote, so a sweep of
        three alphas around the model's builds 3 kernels.  A kept kernel refuses writes."""
        cfg = {"model": MODEL_CFG, "contract": CONTRACT_CFG,
               "alpha_sweep": [0.1, MODEL_CFG["alpha"], 0.4]}
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg))
        out = tmp_path / "sweep.json"
        _cat_parts.cache_clear()
        assert main(["price", "--config", str(p), "--out", str(out)]) == 0
        assert _cat_parts.cache_info().misses == 3
        payload = json.loads(out.read_text())
        alphas = [row["alpha"] for row in payload["alpha_sweep"]]
        assert alphas == [0.1, 0.25, 0.4]
        assert all("price" in row and "theta" in row for row in payload["alpha_sweep"])
        # the row at the model's own alpha is the main price, bit for bit
        at_model = payload["alpha_sweep"][1]
        assert at_model["price"] == payload["price"]
        assert at_model["theta"] == payload["theta"]["theta"]
        _, kern, _ = _cat_parts(cli._model_from(cfg, horizon=30.0), 30)
        assert _cat_parts.cache_info().misses == 3
        with pytest.raises(ValueError):
            kern[0, 0] = 0.0

    def test_repeated_sweep_alpha_priced_once(self, tmp_path, monkeypatch):
        """Each distinct alpha is priced once: a sweep [0.1, 0.1, alpha] prices the
        headline and 0.1, and its two 0.1 rows are equal."""
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return price_strangle(*args, **kwargs)

        monkeypatch.setattr(cli, "price_strangle", counted)
        cfg = {"model": MODEL_CFG, "contract": CONTRACT_CFG,
               "alpha_sweep": [0.1, 0.1, MODEL_CFG["alpha"]]}
        p, out = tmp_path / "cfg.json", tmp_path / "sweep.json"
        p.write_text(json.dumps(cfg))
        assert main(["price", "--config", str(p), "--out", str(out)]) == 0
        assert len(calls) == 2
        payload = json.loads(out.read_text())
        rows = payload["alpha_sweep"]
        assert [row["alpha"] for row in rows] == [0.1, 0.1, 0.25]
        assert rows[0] == rows[1]
        assert rows[2] == {"alpha": 0.25, "theta": payload["theta"]["theta"],
                           "price": payload["price"]}

    def test_explicit_cos_bounds(self, tmp_path):
        """cos {b1, b2, n1, n2} prices on exactly that grid, with no automatic bounds; the
        grid block also reports how many coefficients were live (|phi| >= PHI_FLOOR)."""
        cfg = {"model": MODEL_CFG, "contract": CONTRACT_CFG, "theta": -0.18,
               "cos": {"b1": -1200.0, "b2": 1100.0, "n1": 192, "n2": 160}}
        p, out = tmp_path / "cfg.json", tmp_path / "price.json"
        p.write_text(json.dumps(cfg))
        assert main(["price", "--config", str(p), "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["grid"] == {"auto": False, "b1": -1200.0, "b2": 1100.0, "n1": 192,
                                   "n2": 160, "live_terms": 110, "unit_nodes": 5}
        model = ModelParams(alpha=0.25, t0=-3.0, seasonal=FourCoeffs(*MODEL_CFG["seasonal"]),
                            vol=FourCoeffs(*MODEL_CFG["vol"]),
                            timechange=GammaTimeChange(1.5, 1.0, 0.3), horizon=30.0)
        contract = ContractSpec(horizon_T=30, k1_strike=330.0, k2_strike=250.0,
                                d1=1.0, d2=1.0, rate_r=0.02)
        want = price_strangle(contract, model, -0.18, CosGrid(-1200.0, 1100.0, 192, 160)).price
        assert payload["price"] == float("{:.10g}".format(want))

    def test_no_bracket_exit_4(self, tmp_path, capsys):
        cfg = {"model": dict(MODEL_CFG, t0=3000.0, vol=[1e-6, 0, 0, 0],
                             seasonal=[0.0, 0, 0, 0], timechange={"a": 1.0, "b": 1.0, "mu1": 0.0}),
               "contract": CONTRACT_CFG}
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg))
        assert main(["price", "--config", str(p)]) == 4
        assert "no sign change" in capsys.readouterr().err

    def test_missing_config_exit_2(self):
        assert main(["price"]) == 2


class TestExitCodes:
    def test_missing_csv_exit_2(self, tmp_path, capsys):
        assert main(["stats", str(tmp_path / "absent.csv")]) == 2
        assert "cannot read" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["fit", "stats"])
    @pytest.mark.parametrize("header, row", [("date,tavg", "{},{}"),
                                             ("date,tmax,tmin", "{},{},3.0")])
    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    def test_non_finite_value_exit_2(self, tmp_path, capsys, command, header, row, value):
        """inf used to end stats and fit in a traceback, and nan became a repaired day."""
        base = np.datetime64("2018-01-01")
        lines = [header] + [row.format(base + i, value if i == 5 else f"{10 + np.sin(i):.1f}")
                            for i in range(60)]
        path = tmp_path / "non_finite.csv"
        path.write_text("\n".join(lines) + "\n")
        assert main([command, str(path)]) == 2
        assert f"line 7: non-finite value '{value}'" in capsys.readouterr().err

    @pytest.mark.parametrize("section, field, value, shown", [
        ("model", "alpha", "abc", "'abc'"), ("contract", "k1_strike", "abc", "'abc'"),
        ("contract", "horizon_t", "abc", "'abc'"), ("contract", "k1_strike", [1], "[1]"),
        ("contract", "horizon_t", 1e999, "inf")],
        ids=["model-alpha", "contract-k1_strike", "contract-horizon_t",
             "contract-k1_strike-list", "contract-horizon_t-overflow"])
    def test_non_numeric_config_field_exit_2(self, tmp_path, capsys, section, field, value,
                                             shown):
        """A number too large for a double (1e999 in the file) reads as inf, which no
        whole-number field converts."""
        cfg = {"model": dict(MODEL_CFG), "contract": dict(CONTRACT_CFG)}
        cfg[section][field] = value
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg).replace("Infinity", "1e999"))
        assert main(["price", "--config", str(p)]) == 2
        assert f"{section}.{field} must be a number, got {shown}" in capsys.readouterr().err

    @pytest.mark.parametrize("command, flags, keys, literal", [
        ("price", [], ("model", "t0"), "NaN"),
        ("price", [], ("contract", "rate_r"), "NaN"),
        ("price", [], ("model", "timechange", "a"), "Infinity"),
        ("price", [], ("contract", "k1_strike"), "1e999"),
        ("price", [], ("contract", "k2_strike"), "-Infinity"),
        ("price", ["--l-mult", "nan"], (), None),
        ("simulate", [], ("model", "t0"), "NaN"),
        ("simulate", [], ("sim", "step"), "Infinity"),
        ("density", [], ("model", "timechange", "mu1"), "NaN"),
    ], ids=["price-t0-nan", "price-rate_r-nan", "price-a-inf", "price-k1_strike-1e999",
            "price-k2_strike--inf", "price-l-mult-flag-nan", "simulate-t0-nan",
            "simulate-step-inf", "density-mu1-nan"])
    def test_non_finite_config_number_exit_2(self, tmp_path, capsys, command, flags, keys,
                                             literal):
        """JSON's NaN, Infinity and 1e999 (read as inf) are no numbers.  Before, a NaN
        t0 or rate ended price in a solver error (exit 4), an infinite a in
        RuntimeWarnings, an infinite strike in a null echoed price (exit 0), a NaN t0
        in a simulate of nan paths (exit 0), a NaN mu1 in a density error that blamed
        theta, and an infinite step (with a start_date) in one about whole days."""
        cfg = {"model": json.loads(json.dumps(MODEL_CFG)), "contract": dict(CONTRACT_CFG),
               "horizon": 3, "start_date": "2018-01-01", "sim": {"n_paths": 1, "seed": 1}}
        target = cfg
        for key in keys[:-1]:
            target = target[key]
        if keys:
            target[keys[-1]] = "@"
        p, out = tmp_path / "cfg.json", tmp_path / "out"
        p.write_text(json.dumps(cfg).replace('"@"', str(literal)))
        assert main([command, "--config", str(p), "--out", str(out), *flags]) == 2
        name, shown = (".".join(keys), repr(json.loads(literal))) if keys else ("cos.l_mult", "nan")
        err = capsys.readouterr().err
        assert err.startswith("input error:") and f"{name} must be a number, got {shown}" in err
        assert not out.exists()

    @pytest.mark.parametrize("command, flags, edit, message", [
        ("price", [], {"cos": {"n1": 0}}, "term counts must be >= 1"),
        ("price", [], {"cos": {"b1": 10.0, "b2": 5.0}}, "need b1 < b2"),
        ("price", [], {"contract": dict(CONTRACT_CFG, horizon_t=0)},
         "horizon_T must be a positive number of days"),
        ("price", [], {"contract": dict(CONTRACT_CFG, rate_r=-0.01)},
         "interest rate must be >= 0"),
        ("price", ["--l-mult", "-1"], {}, "l_mult must be >= 0"),
        ("price", [], {"model": dict(MODEL_CFG, vol=[3.5, 0.0, 0.5])},
         "model.vol must have exactly 4 coefficients, got 3"),
        ("price", [], {"model": dict(MODEL_CFG, vol=[0.0, 0.0, 0.0, 0.0])},
         "volatility kernel integral K2 is not positive"),
        ("simulate", [], {"horizon": 10, "sim": {"seed": 1, "step": 0}}, "step must be > 0"),
        ("simulate", [], {"horizon": 10, "sim": {"seed": 1, "n_paths": 0}},
         "n_paths must be >= 1"),
        ("simulate", [], {"horizon": -3, "sim": {"seed": 1}}, "horizon must be >= 0, got -3.0"),
        ("density", [], {"horizon_t": -3}, "horizon must be >= 0, got -3.0"),
    ], ids=["n1-zero", "b1-above-b2", "horizon-zero", "rate-negative", "l-mult-negative",
            "vol-three-coefficients", "vol-zero", "step-zero", "n_paths-zero",
            "simulate-horizon-negative", "density-horizon-negative"])
    def test_value_outside_its_domain_exit_2(self, tmp_path, capsys, command, flags, edit,
                                             message):
        cfg = {"model": MODEL_CFG, "contract": CONTRACT_CFG, **edit}
        p, out = tmp_path / "cfg.json", tmp_path / "out"
        p.write_text(json.dumps(cfg))
        assert main([command, "--config", str(p), "--out", str(out), *flags]) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error:") and message in err
        assert not out.exists()

    @pytest.mark.parametrize("section, field", [("cos", "n1"), ("contract", "horizon_t")])
    def test_boolean_in_a_numeric_field_exit_2(self, tmp_path, capsys, section, field):
        """JSON true is no number: read as 1, it priced one cosine term or a 1-day contract."""
        cfg = {"model": MODEL_CFG, "contract": dict(CONTRACT_CFG), "cos": {"n1": 256}}
        cfg[section][field] = True
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg))
        assert main(["price", "--config", str(p)]) == 2
        assert f"{section}.{field} must be a number, got True" in capsys.readouterr().err

    @pytest.mark.parametrize("section, field, value", [("contract", "horizon_t", "30"),
                                                        ("cos", "n1", "64")])
    def test_number_written_as_a_string_exit_2(self, tmp_path, capsys, section, field, value):
        """A JSON string is no number, though float() parses it: "30" priced a 30-day contract."""
        cfg = {"model": MODEL_CFG, "contract": dict(CONTRACT_CFG), "cos": {"n1": 256}}
        cfg[section][field] = value
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg))
        assert main(["price", "--config", str(p)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error:")
        assert f"{section}.{field} must be a number, got {value!r}" in err

    @pytest.mark.parametrize("auto", ["false", 0, True])
    def test_explicit_bounds_priced_as_given(self, tmp_path, auto):
        """Explicit b1 and b2 are a manual grid, whatever `auto` says: it is not read."""
        cfg = {"model": MODEL_CFG, "contract": CONTRACT_CFG,
               "cos": {"auto": auto, "b1": -1200.0, "b2": 1100.0}}
        p, out = tmp_path / "cfg.json", tmp_path / "price.json"
        p.write_text(json.dumps(cfg))
        assert main(["price", "--config", str(p), "--out", str(out)]) == 0
        grid = json.loads(out.read_text())["grid"]
        assert (grid["auto"], grid["b1"], grid["b2"]) == (False, -1200.0, 1100.0)

    def test_no_bounds_is_the_automatic_grid(self, tmp_path):
        """A cos section without b1 prices on the automatic grid, "auto": false or not."""
        grids = []
        for i, cos in enumerate(({"auto": False}, {})):
            p, out = tmp_path / f"cfg{i}.json", tmp_path / f"price{i}.json"
            p.write_text(json.dumps({"model": MODEL_CFG, "contract": CONTRACT_CFG, "cos": cos}))
            assert main(["price", "--config", str(p), "--out", str(out)]) == 0
            grids.append(json.loads(out.read_text())["grid"])
        assert grids[0] == grids[1] and grids[0]["auto"] is True

    @pytest.mark.parametrize("command, section, field", [
        ("density", None, "horizon_t"), ("price", "contract", "horizon_t"),
        ("price", "cos", "n1"), ("price", "cos", "n2"),
        ("simulate", "sim", "n_paths"), ("simulate", "sim", "seed")])
    def test_fractional_whole_number_field_exit_2(self, tmp_path, capsys, command, section,
                                                  field):
        cfg = json.loads(json.dumps(WHOLE_NUMBER_CFG))
        target = cfg[section] if section else cfg
        target[field] += 0.7
        p, out = tmp_path / "cfg.json", tmp_path / "out"
        p.write_text(json.dumps(cfg))
        assert main([command, "--config", str(p), "--out", str(out)]) == 2
        name = f"{section}.{field}" if section else field
        assert f"{name} must be a whole number, got" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["density", "price", "simulate"])
    def test_whole_number_fields_written_as_floats_parse(self, tmp_path, command):
        as_float = json.loads(json.dumps(WHOLE_NUMBER_CFG))
        for target, field in [(as_float, "horizon_t"), (as_float["contract"], "horizon_t"),
                              (as_float["cos"], "n1"), (as_float["cos"], "n2"),
                              (as_float["sim"], "n_paths"), (as_float["sim"], "seed")]:
            target[field] = float(target[field])
        outputs = []
        for i, cfg in enumerate((WHOLE_NUMBER_CFG, as_float)):
            p, out = tmp_path / f"cfg{i}.json", tmp_path / f"out{i}"
            p.write_text(json.dumps(cfg))
            assert main([command, "--config", str(p), "--out", str(out)]) == 0
            result = out.read_text()
            if command == "price":  # the report echoes its config as written
                result = {k: v for k, v in json.loads(result).items() if k != "config"}
            outputs.append(result)
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("section, field, value", [
        ("model", "seasonal", 5), ("model", "timechange", [1.5, 1.0]),
        ("contract", None, [30, 330.0])])
    def test_wrongly_typed_config_field_exit_2(self, tmp_path, capsys, section, field, value):
        """A field of the wrong type is reported as such, not as missing."""
        cfg = {"model": dict(MODEL_CFG), "contract": dict(CONTRACT_CFG)}
        if field is None:
            cfg[section] = value
        else:
            cfg[section][field] = value
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg))
        assert main(["price", "--config", str(p)]) == 2
        err = capsys.readouterr().err
        assert f"invalid {section} config: wrong type" in err and "missing" not in err

    @pytest.mark.parametrize("section, field", [("model", "seasonal"), ("contract", "d2")])
    def test_missing_config_field_exit_2(self, tmp_path, capsys, section, field):
        cfg = {"model": dict(MODEL_CFG), "contract": dict(CONTRACT_CFG)}
        del cfg[section][field]
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg))
        assert main(["price", "--config", str(p)]) == 2
        assert f"invalid {section} config: missing '{field}'" in capsys.readouterr().err

    @pytest.mark.parametrize("command, flags, cfg, message", [
        ("simulate", [], {"model": MODEL_CFG, "horizon": 10, "sim": 5},
         "sim must be a JSON object"),
        ("price", ["--mc"], {"model": MODEL_CFG, "contract": CONTRACT_CFG, "sim": [1]},
         "sim must be a JSON object"),
        ("simulate", [], {"model": MODEL_CFG, "contract": [1, 2], "sim": {"seed": 1}},
         "contract must be a JSON object"),
        ("density", [], {"model": MODEL_CFG, "contract": [1, 2]},
         "contract must be a JSON object"),
        ("price", [], {"model": MODEL_CFG, "contract": CONTRACT_CFG, "cos": 5},
         "cos must be a JSON object"),
        ("price", [], {"model": MODEL_CFG, "contract": CONTRACT_CFG, "cos": "ab"},
         "cos must be a JSON object"),
        ("price", [], {"model": MODEL_CFG, "contract": CONTRACT_CFG, "alpha_sweep": 5},
         "alpha_sweep must be a list"),
        ("simulate", [], [MODEL_CFG], "must be a JSON object, got list"),
    ], ids=["sim-number", "sim-list-mc", "contract-list-simulate", "contract-list-density",
            "cos-number", "cos-string", "alpha_sweep-number", "root-list"])
    def test_config_section_of_the_wrong_type_exit_2(self, tmp_path, capsys, command, flags,
                                                     cfg, message):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg))
        assert main([command, "--config", str(p), *flags]) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error:") and message in err

    @pytest.mark.parametrize("command", ["price", "simulate", "density"])
    def test_config_not_utf8_exit_2(self, tmp_path, capsys, command):
        p = tmp_path / "cfg.json"
        p.write_bytes(b'\xff\xfe{"a":1}')
        assert main([command, "--config", str(p)]) == 2
        assert f"input error: cannot read config {p}" in capsys.readouterr().err

    def test_non_numeric_sim_field_exit_2(self, tmp_path):
        cfg = {"model": MODEL_CFG, "horizon": 10, "sim": {"n_paths": "many", "seed": 1}}
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg))
        assert main(["simulate", "--config", str(p)]) == 2

    def test_unwritable_output_exit_2(self, fit_csv, tmp_path, capsys):
        assert main(["stats", fit_csv, "--out", str(tmp_path / "absent" / "s.json")]) == 2
        assert "cannot write" in capsys.readouterr().err

    def test_failed_write_keeps_the_target(self, tmp_path):
        """A chunk that fails mid-write propagates; no temp file is left, and the
        file already at the path keeps its bytes."""
        target = tmp_path / "out.csv"
        target.write_bytes(b"old\n")

        def chunks():
            yield b"new\n"
            raise RuntimeError("chunk failed")

        with pytest.raises(RuntimeError, match="chunk failed"):
            cli._atomic_write(str(target), chunks())
        assert target.read_bytes() == b"old\n"
        assert [path.name for path in tmp_path.iterdir()] == ["out.csv"]

    def test_library_value_error_propagates(self, fit_csv, monkeypatch):
        def broken(series):
            raise ValueError("internal bug")
        monkeypatch.setattr("tempderiv.cli.summary_stats", broken)
        with pytest.raises(ValueError, match="internal bug"):
            main(["stats", fit_csv])


class TestSimulate:
    def test_deterministic_repeat(self, sim_config, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["simulate", "--config", sim_config, "--out", str(out1)]) == 0
        assert main(["simulate", "--config", sim_config, "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_stdout_equals_file(self, sim_config, tmp_path, capsys):
        """Without --out the same blocks go to stdout (2,000 x 41 values are two blocks)."""
        out = tmp_path / "sim.csv"
        argv = ["simulate", "--config", sim_config, "--paths", "2000"]
        assert main(argv + ["--out", str(out)]) == 0
        capsys.readouterr()
        assert main(argv) == 0
        assert capsys.readouterr().out == out.read_text()

    def test_row_count(self, sim_config, tmp_path):
        out = tmp_path / "sim.csv"
        assert main(["simulate", "--config", sim_config, "--out", str(out),
                     "--paths", "100"]) == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 1 + 100 * 41  # header + n_paths * (horizon + 1)

    def test_horizon_off_the_day_grid(self, tmp_path):
        """A horizon of 3.5 days in steps of 0.5 runs to 3.5, and its volatility is
        checked up to 3.5: sigma(t) = 3.8 - t, negative only from t = 3.8 on, simulates."""
        cfg = {"model": dict(MODEL_CFG, vol=[3.8, -1.0, 0.0, 0.0]), "horizon": 3.5,
               "sim": {"seed": 1, "step": 0.5}}
        p, out = tmp_path / "cfg.json", tmp_path / "sim.csv"
        p.write_text(json.dumps(cfg))
        assert main(["simulate", "--config", str(p), "--out", str(out)]) == 0
        times = [float(line.split(",")[0]) for line in out.read_text().splitlines()[1:]]
        assert times == [0.5 * i for i in range(8)]

    def test_horizon_under_one_day(self, tmp_path):
        """A half-day run checks its volatility on [0, 0.5] only: sigma(t) = 0.8 - t,
        negative from t = 0.8 on, simulates."""
        cfg = {"model": dict(MODEL_CFG, vol=[0.8, -1.0, 0.0, 0.0]), "horizon": 0.5,
               "sim": {"seed": 1, "step": 0.5}}
        p, out = tmp_path / "cfg.json", tmp_path / "sim.csv"
        p.write_text(json.dumps(cfg))
        assert main(["simulate", "--config", str(p), "--out", str(out)]) == 0
        times = [float(line.split(",")[0]) for line in out.read_text().splitlines()[1:]]
        assert times == [0.0, 0.5]

    def test_noiseless_equals_deterministic(self, tmp_path):
        cfg = {"model": dict(MODEL_CFG, vol=[0.0, 0.0, 0.0, 0.0]), "horizon": 10,
               "sim": {"n_paths": 1, "seed": 3}}
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg))
        out = tmp_path / "det.csv"
        assert main(["simulate", "--config", str(p), "--out", str(out)]) == 0
        rows = [line.split(",") for line in out.read_text().strip().split("\n")[1:]]
        temps = np.array([float(r[2]) for r in rows])
        model = ModelParams(alpha=0.25, t0=-3.0, seasonal=FourCoeffs(8.0, 0.0008, -5.9, -12.9),
                            vol=FourCoeffs(0, 0, 0, 0), timechange=GammaTimeChange(1.5, 1.0, 0.3))
        expected = model.det_mean(np.arange(11.0))
        assert np.max(np.abs(temps - expected)) < 1e-9

    @pytest.mark.parametrize("start_date,step", [("2018-01-01", 1.0), (None, 0.5)])
    def test_csv_matches_line_by_line_format(self, tmp_path, monkeypatch, start_date, step):
        """The CSV equals one "{:.10g}" format per (path, time) of the same array."""
        rng = np.random.default_rng(8)
        paths = rng.normal(10.0, 8.0, (3, 9))
        paths[0, :6] = [np.inf, -np.inf, np.nan, -0.0, 1e300, 5e-324]
        paths[1, :5] = [1e16, 123456789012.0, 0.1, -1e-5, 2.5e-7]
        times = np.arange(9) * step
        monkeypatch.setattr("tempderiv.cli.simulate_paths", lambda p, cfg, horizon, theta: (times, paths))
        cfg = {"model": MODEL_CFG, "horizon": 8 * step,
               "sim": {"n_paths": 3, "seed": 1, "step": step}}
        if start_date is not None:
            cfg["start_date"] = start_date
            labels = [str(np.datetime64(start_date) + j) for j in range(9)]
        else:
            labels = ["{:.10g}".format(t) for t in times]
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg))
        out = tmp_path / "sim.csv"
        assert main(["simulate", "--config", str(p), "--out", str(out)]) == 0
        lines = ["date,path_id,temperature"]
        for pid in range(paths.shape[0]):
            lines.extend(f"{labels[j]},{pid},{'{:.10g}'.format(paths[pid, j])}" for j in range(9))
        assert out.read_bytes() == ("\n".join(lines) + "\n").encode()

    @staticmethod
    def written_csv(tmp_path, monkeypatch, paths, step, start_date):
        """The CSV main writes when the simulator returns `paths` at `step`, and the
        oracle's bytes for the same array."""
        times = np.arange(paths.shape[1]) * step
        monkeypatch.setattr("tempderiv.cli.simulate_paths",
                            lambda p, cfg, horizon, theta: (times, paths))
        cfg = {"model": MODEL_CFG, "horizon": times[-1],
               "sim": {"n_paths": len(paths), "seed": 1, "step": step}}
        if start_date is not None:
            cfg["start_date"] = start_date
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg))
        out = tmp_path / "sim.csv"
        assert main(["simulate", "--config", str(p), "--out", str(out)]) == 0
        return out.read_bytes(), simulate_csv_lines(times, paths, start_date)

    @staticmethod
    def awkward_values(rng) -> np.ndarray:
        """Values at the edges of the digit writer, each sign, in shuffled order."""
        m = rng.integers(10**9, 10**10, 500).astype(float)
        ties = (m + 0.5) * 10.0 ** rng.integers(-9, 1, 500)  # near-ties at 10 digits
        tens = np.array([9.9999999995, 99.999999995, 999999999.5, 9999999999.5, 1e9, 1e10])
        integers = np.array([1.0, 7.0, 10.0, 100.0, 30.0, 123456789.0, 2.0**33, 1e15])
        special = np.array([0.0, 5e-324, 1e-310, np.finfo(float).tiny, np.inf, np.nan])
        below_one = 10.0 ** rng.uniform(-4.0, 0.0, 500)
        values = np.concatenate([ties, np.nextafter(ties, 0.0), np.nextafter(ties, np.inf),
                                 tens, np.nextafter(tens, 0.0), np.nextafter(tens, np.inf),
                                 integers, special, below_one])
        return rng.permutation(np.concatenate([values, -values]))

    @pytest.mark.parametrize("start_date,step", [("2018-01-01", 1.0), (None, 0.5)])
    def test_csv_awkward_values_match_oracle(self, tmp_path, monkeypatch, start_date, step):
        values = self.awkward_values(np.random.default_rng(19))
        paths = values[:values.size // 7 * 7].reshape(7, -1)
        got, want = self.written_csv(tmp_path, monkeypatch, paths, step, start_date)
        assert got == want

    @pytest.mark.parametrize("shape", [(179, 366), (180, 366), (181, 366), (1, 100_001)])
    @pytest.mark.parametrize("start_date,step", [("2018-01-01", 1.0), (None, 0.5)])
    def test_csv_blocks_match_oracle(self, tmp_path, monkeypatch, shape, start_date, step):
        """179 paths of 366 values fill one block of DRAW_SIZE values; 180 and 181
        spill into a second; a path longer than a block is a block of its own."""
        rng = np.random.default_rng(shape[0])
        paths = rng.normal(10.0, 8.0, shape)
        awkward = self.awkward_values(rng)[:shape[1]]
        paths[-1, :awkward.size] = awkward
        got, want = self.written_csv(tmp_path, monkeypatch, paths, step, start_date)
        assert got == want
        labels = cli._format_10g(np.arange(shape[1]) * step).T
        lines = [chunk.count(b"\n") for chunk in cli._csv_blocks(labels, paths)]
        per_block = max(1, cli.DRAW_SIZE // shape[1]) * shape[1]
        assert lines == [1] + [per_block] * (paths.size // per_block) + (
            [paths.size % per_block] if paths.size % per_block else [])

    def test_format_10g_matches_percent_operator(self):
        """The digit writer against b"%.10g" on values log-uniform over 1e-6..1e12."""
        rng = np.random.default_rng(5)
        values = 10.0 ** rng.uniform(-6.0, 12.0, 200_000) * rng.choice([-1.0, 1.0], 200_000)
        columns = cli._format_10g(values).T
        assert [bytes(c).replace(b"\0", b"") for c in columns] == [b"%.10g" % v for v in values]

    @pytest.mark.parametrize("step", [1.0, 2.0])
    def test_date_labels_across_leap_day(self, tmp_path, step):
        """A 400-day run from 2019-12-01 spans 2020-02-29; each label is
        str(base + int(round(t))) of its time."""
        cfg = {"model": MODEL_CFG, "horizon": 400, "start_date": "2019-12-01",
               "sim": {"n_paths": 2, "seed": 5, "step": step}}
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg))
        out = tmp_path / "sim.csv"
        assert main(["simulate", "--config", str(p), "--out", str(out)]) == 0
        labels = [line.split(",")[0] for line in out.read_text().strip().split("\n")[1:]]
        base = np.datetime64("2019-12-01")
        expected = [str(base + int(round(t))) for t in np.arange(int(400 / step) + 1) * step]
        assert labels == 2 * expected
        assert "2020-02-29" in labels

    @pytest.mark.parametrize("step", [0.5])
    def test_fractional_step_with_start_date_exit_2(self, tmp_path, capsys, step):
        """Half-day steps would label several rows with the same date."""
        cfg = {"model": MODEL_CFG, "horizon": 3, "start_date": "2018-01-01",
               "sim": {"n_paths": 1, "seed": 1, "step": step}}
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg))
        assert main(["simulate", "--config", str(p)]) == 2
        assert "whole number of days" in capsys.readouterr().err

    @pytest.mark.parametrize("start", [5, "today", ""])
    def test_start_date_not_an_iso_date_string_exit_2(self, tmp_path, capsys, start):
        """5 used to label the CSV from 0005-01-01, "today" from the day of the run."""
        cfg = {"model": MODEL_CFG, "horizon": 3, "start_date": start,
               "sim": {"n_paths": 1, "seed": 1}}
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg))
        assert main(["simulate", "--config", str(p)]) == 2
        assert f"start_date must be an ISO date string, got {start!r}" in capsys.readouterr().err

    def test_seed_required(self, tmp_path, capsys):
        cfg = {"model": MODEL_CFG, "horizon": 10, "sim": {"n_paths": 1}}
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg))
        assert main(["simulate", "--config", str(p)]) == 2

    @staticmethod
    def _run(tmp_path, name, sim, **top):
        cfg = {"model": MODEL_CFG, "horizon": 30, "sim": {"n_paths": 3, "seed": 1, **sim},
               **top}
        p, out = tmp_path / f"{name}.json", tmp_path / f"{name}.csv"
        p.write_text(json.dumps(cfg))
        assert main(["simulate", "--config", str(p), "--out", str(out)]) == 0
        return out.read_bytes()

    def test_q_measure_is_tilted(self, tmp_path):
        """Under Q the paths use theta* solved from the contract, and a pinned
        top-level theta wins; lower case names the same measure."""
        p_run = self._run(tmp_path, "p", sim={"measure": "P"}, contract=CONTRACT_CFG)
        q_run = self._run(tmp_path, "q", sim={"measure": "Q"}, contract=CONTRACT_CFG)
        assert q_run != p_run
        assert self._run(tmp_path, "lower", sim={"measure": "q"}, contract=CONTRACT_CFG) == q_run
        pinned = self._run(tmp_path, "pinned", sim={"measure": "Q"}, theta=-0.2,
                           contract=CONTRACT_CFG)
        assert pinned != q_run

    def test_q_measure_pinned_theta_matches_library(self, tmp_path):
        out = self._run(tmp_path, "pinned", sim={"measure": "Q"}, theta=-0.2)
        temps = np.array([float(line.split(",")[2])
                          for line in out.decode().strip().split("\n")[1:]])
        model = ModelParams(alpha=0.25, t0=-3.0, seasonal=FourCoeffs(*MODEL_CFG["seasonal"]),
                            vol=FourCoeffs(*MODEL_CFG["vol"]),
                            timechange=GammaTimeChange(1.5, 1.0, 0.3), horizon=30.0)
        _, paths = simulate_paths(model, SimConfig(n_paths=3, seed=1), 30.0, -0.2)
        assert np.array_equal(temps, [float("{:.10g}".format(x)) for x in paths.ravel()])

    @pytest.mark.parametrize("sim, message", [({"measure": "Q"}, "missing 'contract'"),
                                              ({"measure": "X"}, "measure must be P or Q")])
    def test_measure_errors_exit_2(self, tmp_path, capsys, sim, message):
        """Q needs a pinned theta or a contract to solve it from; only P and Q are measures."""
        cfg = {"model": MODEL_CFG, "horizon": 10, "sim": {"n_paths": 1, "seed": 1, **sim}}
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg))
        assert main(["simulate", "--config", str(p)]) == 2
        assert message in capsys.readouterr().err


class TestDensity:
    def test_density_integrates_to_one(self, tmp_path):
        cfg = {"model": MODEL_CFG, "horizon_t": 30, "measure": "P", "points": 513}
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg))
        out = tmp_path / "density.csv"
        assert main(["density", "--config", str(p), "--out", str(out)]) == 0
        rows = np.array([[float(v) for v in line.split(",")]
                         for line in out.read_text().strip().split("\n")[1:]])
        integral = np.trapezoid(rows[:, 1], rows[:, 0])
        assert integral == pytest.approx(1.0, abs=1e-3)

    def test_rounding_noise_prints_as_zero(self, tmp_path, monkeypatch):
        """Values below the cosine sum's rounding floor max(n, ceil(n/M) + 4 ceil(log2 M))
        eps sum_k |A_k| (n eps sum_k |A_k| here) print as 0, so no row is negative; every
        other row prints the FFT sum's value."""
        seen = {}
        real = cli.density_from_charfun

        def spy(charfun_at, grid, points, terms):
            seen.update(charfun_at=charfun_at, grid=grid, points=points, terms=terms)
            return real(charfun_at, grid, points, terms)

        monkeypatch.setattr(cli, "density_from_charfun", spy)
        cfg = {"model": MODEL_CFG, "contract": {**CONTRACT_CFG, "horizon_t": 90},
               "horizon_t": 90, "measure": "Q"}
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg))
        out = tmp_path / "density.csv"
        assert main(["density", "--config", str(p), "--out", str(out)]) == 0
        printed = [line.split(",")[1] for line in out.read_text().splitlines()[1:]]
        grid, points, terms = seen["grid"], seen["points"], seen["terms"]
        coeffs = cos_coefficients(seen["charfun_at"], grid, terms)
        m = 2 * (points - 1)
        k = np.arange(terms + 1)
        raw = np.fft.rfft(np.bincount(k % m, np.where(k == 0, 0.5, 1.0) * coeffs, m)).real
        assert coeffs.size >= -(-coeffs.size // m) + 4 * int(np.ceil(np.log2(m)))
        noise = np.abs(raw) < coeffs.size * np.finfo(float).eps * np.sum(np.abs(coeffs))
        assert np.any(raw < 0.0) and np.all(noise[raw < 0.0])  # every negative sum is noise
        assert all(float(d) >= 0.0 for d in printed)
        assert [d for d, z in zip(printed, noise) if z] == ["0"] * int(np.sum(noise))
        assert ([d for d, z in zip(printed, noise) if not z]
                == ["{:.10g}".format(d) for d in raw[~noise]])

    def test_csv_bytes_equal_the_per_row_format(self, tmp_path, monkeypatch):
        """The CSV, written with one bytes % call, is the "{:.10g}" text of each row:
        for floored rows (0), -0.0, subnormal, tiny, large and ordinary values."""
        seen = {}
        real = cli.density_from_charfun

        def spy(charfun_at, grid, points, terms):
            dens = real(charfun_at, grid, points, terms)
            dens[:8] = [0.0, -0.0, 5e-324, 2.2250738585072014e-308, 2.603104195e-14,
                        -1.5e-300, 1e16, 123456789012.5]
            seen.update(x=np.linspace(grid.b1, grid.b2, points), dens=dens)
            return dens

        monkeypatch.setattr(cli, "density_from_charfun", spy)
        cfg = {"model": MODEL_CFG, "contract": {**CONTRACT_CFG, "horizon_t": 90},
               "horizon_t": 90, "measure": "Q", "points": 64}
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg))
        out = tmp_path / "density.csv"
        assert main(["density", "--config", str(p), "--out", str(out)]) == 0
        assert np.sum(seen["dens"] == 0.0) > 2  # rows floored by density_from_charfun too
        lines = ["x,density"] + ["{:.10g},{:.10g}".format(x, d)
                                 for x, d in zip(seen["x"], seen["dens"])]
        assert out.read_bytes() == ("\n".join(lines) + "\n").encode()

    @pytest.mark.parametrize("points", [1, 2])
    def test_one_and_two_points(self, tmp_path, points):
        """One point is b1 alone and two are b1 and b2, 10 sd from the mean: the density
        there is below the sum's rounding bound and prints as 0."""
        cfg = {"model": MODEL_CFG, "contract": CONTRACT_CFG, "horizon_t": 30,
               "measure": "Q", "points": points}
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg))
        out = tmp_path / "density.csv"
        assert main(["density", "--config", str(p), "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "x,density" and len(lines) == points + 1
        xs = [float(line.split(",")[0]) for line in lines[1:]]
        assert xs == sorted(xs) and [line.split(",")[1] for line in lines[1:]] == ["0"] * points

    def test_q_measure_density(self, tmp_path):
        cfg = {"model": MODEL_CFG, "contract": CONTRACT_CFG, "horizon_t": 30,
               "measure": "Q", "points": 129}
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg))
        out = tmp_path / "density_q.csv"
        assert main(["density", "--config", str(p), "--out", str(out)]) == 0
        assert len(out.read_text().strip().split("\n")) == 130

    @pytest.mark.parametrize("measure", ["X", "", "PQ"])
    def test_unknown_measure_exit_2(self, tmp_path, capsys, measure):
        """Only P and Q (any case) name a measure; anything else used to price under Q."""
        cfg = {"model": MODEL_CFG, "contract": CONTRACT_CFG, "horizon_t": 30,
               "measure": measure}
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg))
        out = tmp_path / "density.csv"
        assert main(["density", "--config", str(p), "--out", str(out)]) == 2
        assert "measure must be P or Q" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("measure", ["p", "q"])
    def test_measure_any_case(self, tmp_path, measure):
        cfg = {"model": MODEL_CFG, "contract": CONTRACT_CFG, "horizon_t": 30,
               "measure": measure, "points": 5}
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg))
        out = tmp_path / f"density_{measure}.csv"
        assert main(["density", "--config", str(p), "--out", str(out)]) == 0
        upper = tmp_path / f"density_{measure.upper()}.csv"
        p.write_text(json.dumps({**cfg, "measure": measure.upper()}))
        assert main(["density", "--config", str(p), "--out", str(upper)]) == 0
        assert out.read_bytes() == upper.read_bytes()

    def test_n2_is_not_read(self, tmp_path):
        """A density sums n1 + 1 terms; cos.n2, which sets a price's put leg, is not read."""
        outputs = []
        for n2 in (0, 256):
            cfg = {"model": MODEL_CFG, "horizon_t": 30, "measure": "P", "points": 65,
                   "cos": {"n1": 128, "n2": n2}}
            p, out = tmp_path / f"cfg{n2}.json", tmp_path / f"density{n2}.csv"
            p.write_text(json.dumps(cfg))
            assert main(["density", "--config", str(p), "--out", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("points", [-1, 0, 2.5, "many"])
    def test_points_not_a_positive_integer_exit_2(self, tmp_path, capsys, points):
        cfg = {"model": MODEL_CFG, "horizon_t": 30, "measure": "P", "points": points}
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg))
        out = tmp_path / "density.csv"
        assert main(["density", "--config", str(p), "--out", str(out)]) == 2
        assert "points must be a" in capsys.readouterr().err
        assert not out.exists()


class TestStats:
    def test_constant_file(self, tmp_path):
        base = np.datetime64("2020-01-01")
        lines = ["date,tavg"] + [f"{base + i},5.0" for i in range(60)]
        src = tmp_path / "const.csv"
        src.write_text("\n".join(lines) + "\n")
        out = tmp_path / "stats.json"
        assert main(["stats", str(src), "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["summary"]["std"] == 0.0
        assert payload["summary"]["skewness"] is None  # undefined marker

    def test_histogram_counts_sum_to_n(self, fit_csv, tmp_path):
        out = tmp_path / "stats.json"
        assert main(["stats", fit_csv, "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert sum(payload["histogram"]["counts"]) == payload["input"]["n"]
        assert len(payload["kde"]["x"]) == len(payload["kde"]["density"]) == 256

    def test_byte_order_mark_and_crlf_read_as_the_plain_file(self, fit_csv, tmp_path):
        variant = tmp_path / "fit_daily_bom_crlf.csv"
        variant.write_bytes(("\ufeff" + Path(fit_csv).read_text().replace("\n", "\r\n"))
                            .encode("utf-8"))
        reports = []
        for src in (fit_csv, str(variant)):
            out = tmp_path / "stats.json"
            assert main(["stats", src, "--out", str(out)]) == 0
            report = json.loads(out.read_text())
            assert report["input"].pop("path") == src
            reports.append(report)
        assert reports[0] == reports[1]

    def test_kde_equals_the_one_expression_formula(self, fit_csv, monkeypatch):
        payloads = []
        monkeypatch.setattr(cli, "_write_json", lambda path, payload: payloads.append(payload))
        assert main(["stats", fit_csv]) == 0
        kde = payloads[0]["kde"]
        want = gaussian_kde(ingest_csv(fit_csv).values, kde["x"], kde["bandwidth"])
        assert np.array_equal(kde["density"], want)

    def test_tied_majority_bandwidth_falls_back_to_sd(self, tmp_path):
        """IQR = 0 (60% of days at 10.0): the bandwidth uses sd, as R's bw.nrd0 does."""
        rng = np.random.default_rng(5)
        values = np.where(rng.random(730) < 0.6, 10.0, np.round(rng.normal(10.0, 3.0, 730), 1))
        base = np.datetime64("2019-01-01")
        src = tmp_path / "tied.csv"
        src.write_text("date,tavg\n" + "".join(f"{base + i},{v}\n" for i, v in enumerate(values)))
        out = tmp_path / "stats.json"
        assert main(["stats", str(src), "--out", str(out)]) == 0
        kde = json.loads(out.read_text())["kde"]
        assert kde["bandwidth"] > 0.0
        density = np.array([np.nan if d is None else d for d in kde["density"]])
        assert np.all(np.isfinite(density))
        assert abs(np.trapezoid(density, kde["x"]) - 1.0) < 1e-2


class TestDeterminism:
    def test_price_byte_identical(self, price_config, tmp_path):
        out1, out2 = tmp_path / "p1.json", tmp_path / "p2.json"
        main(["price", "--config", price_config, "--out", str(out1), "--mc"])
        main(["price", "--config", price_config, "--out", str(out2), "--mc"])
        assert out1.read_bytes() == out2.read_bytes()

    @pytest.mark.parametrize("command", ["price", "simulate", "density"])
    def test_config_with_a_bom_prints_the_plain_bytes(self, tmp_path, capsys, command):
        """A config saved with a UTF-8 byte-order mark is the same config."""
        text = json.dumps(WHOLE_NUMBER_CFG)
        plain, bom = tmp_path / "plain.json", tmp_path / "bom.json"
        plain.write_text(text, encoding="utf-8")
        bom.write_text(text, encoding="utf-8-sig")
        assert bom.read_bytes() == b"\xef\xbb\xbf" + plain.read_bytes()
        outs = []
        for path in (plain, bom):
            assert main([command, "--config", str(path)]) == 0
            outs.append(capsys.readouterr().out.encode())
        assert outs[0] and outs[0] == outs[1]

    def test_entry_point_runs(self, tmp_path):
        res = subprocess.run([sys.executable, "-m", "tempderiv.cli", "--help"],
                             capture_output=True, text=True)
        assert res.returncode == 0
        assert "fit" in res.stdout and "price" in res.stdout

    def test_entry_point_runs_in_process(self, fit_csv, tmp_path, monkeypatch):
        """`python -m tempderiv.cli` in this process, so that a line trace of the suite
        sees the module's `__main__` line: a stats run exits 0 and writes its report.
        The module leaves sys.modules first, as runpy warns about executing one that
        is already imported; monkeypatch puts it back."""
        out = tmp_path / "stats.json"
        monkeypatch.setattr(sys, "argv", ["tempderiv", "stats", fit_csv, "--out", str(out)])
        monkeypatch.delitem(sys.modules, "tempderiv.cli")
        with pytest.raises(SystemExit) as exc:
            runpy.run_module("tempderiv.cli", run_name="__main__", alter_sys=True)
        assert exc.value.code == 0
        assert json.loads(out.read_text())["input"]["n"] == ingest_csv(fit_csv).n

    def test_one_parser_serves_every_call_in_a_process(self, price_config):
        """main builds its parser on the first call and keeps it: after an argv that argparse
        rejects, price and density in the same process print what fresh processes print."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                          env.get("PYTHONPATH")]))
        runs = [["price", "--terms", "five"], ["price", "--config", price_config],
                ["density", "--config", price_config, "--terms", "64"]]
        code = (
            "import contextlib, io, json\n"
            "from tempderiv.cli import main\n"
            "results = []\n"
            f"for argv in {runs!r}:\n"
            "    out, err = io.StringIO(), io.StringIO()\n"
            "    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):\n"
            "        try:\n"
            "            rc = main(argv)\n"
            "        except SystemExit as exc:\n"
            "            rc = exc.code\n"
            "    results.append([rc, out.getvalue(), err.getvalue()])\n"
            "print(json.dumps(results))\n"
        )
        res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=env)
        assert res.returncode == 0, res.stderr
        fresh = [subprocess.run([sys.executable, "-m", "tempderiv.cli", *argv],
                                capture_output=True, text=True, env=env) for argv in runs]
        assert [r.returncode for r in fresh] == [2, 0, 0]
        assert json.loads(res.stdout) == [[r.returncode, r.stdout, r.stderr] for r in fresh]


class TestFlags:
    def test_subcommand_flags_match_readme_synopsis(self):
        readme = (ROOT / "README.md").read_text()
        start = readme.index("\ntempderiv fit") + 1
        documented = {}
        for line in readme[start:readme.index("```", start)].split("\n"):
            if line.startswith("tempderiv "):
                name = line.split()[1]
            documented.setdefault(name, set()).update(re.findall(r"--[\w-]+", line))
        sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        accepted = {name: {opt for act in p._actions for opt in act.option_strings
                           if opt not in ("-h", "--help")}
                    for name, p in sub.choices.items()}
        assert accepted == documented
        assert sum(len(flags - {"--vol-shape"}) for flags in accepted.values()) == 17

    @pytest.mark.parametrize("command, flags", [("fit", ["--mc"]), ("stats", ["--terms", "5"])])
    def test_flag_the_command_does_not_read_exit_2(self, fit_csv, command, flags, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, fit_csv, *flags])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


def test_library_never_imports_scipy_integrate():
    """scipy.integrate serves only the tests' quadrature oracles: no module of the
    package imports it, at module level or inside a function body."""
    offenders = []
    for path in sorted((ROOT / "src" / "tempderiv").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [f"{node.module}.{alias.name}" for alias in node.names]
            else:
                continue
            offenders += [f"{path.name}:{node.lineno} {name}" for name in names
                          if name == "scipy.integrate" or name.startswith("scipy.integrate.")]
    assert offenders == []


def test_package_exports_resolve():
    """Every name in tempderiv.__all__ is an attribute of the package, and a star
    import binds them all."""
    import tempderiv
    assert [name for name in tempderiv.__all__ if not hasattr(tempderiv, name)] == []
    namespace = {}
    exec("from tempderiv import *", namespace)
    assert set(tempderiv.__all__) <= namespace.keys()


def test_no_command_loads_scipy(price_config, sim_config, fit_csv, tmp_path):
    """price (with a solved tilt and --mc), simulate, density, stats and fit run on
    numpy alone: with `scipy` blocked before tempderiv is imported, any SciPy import
    in them would raise."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    price_out = tmp_path / "report.json"
    runs = [["price", "--config", price_config, "--mc", "--paths", "2000",
             "--out", str(price_out)],
            ["simulate", "--config", sim_config, "--out", str(tmp_path / "paths.csv")],
            ["density", "--config", price_config, "--out", str(tmp_path / "density.csv")],
            ["stats", fit_csv, "--out", str(tmp_path / "stats.json")],
            ["fit", fit_csv, "--out", str(tmp_path / "fit.json")]]
    code = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "from tempderiv.cli import main\n"
        f"for argv in {runs!r}:\n"
        "    assert main(argv) == 0, argv\n"
        "print(sorted(k for k in sys.modules if k.split('.')[0] == 'scipy'))\n"
    )
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert res.returncode == 0, res.stderr
    assert res.stdout.split("\n")[0] == "['scipy']"  # the blocking entry alone
    # the price solved its tilt, and the fit converged
    assert json.loads(price_out.read_text())["theta"]["source"] == "solved"
    assert json.loads((tmp_path / "fit.json").read_text())["timechange"]["converged"]
