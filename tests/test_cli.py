import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from tempderiv import (ContractSpec, CosGrid, FourCoeffs, GammaTimeChange, MarketParams,
                       ModelParams, cat_cumulants, price_strangle, solve_theta,
                       truncation_bounds)
from tempderiv.cli import build_parser, main

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
    # by the simulator's earlier 4096-row-block stream (seed 2024), so the
    # frozen fit below does not move with the random stream
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
        assert len(payload["timechange"]["status"]) == 1

    def test_seasonal_fit_reference(self, fit_csv, tmp_path):
        # frozen fit, compared on what the data identifies: the fit pins the vol level
        # c0, and (b, mu1, vol) enter only as b/c0^2, mu1/c0 and c_i/c0 (exact scale
        # degeneracy, see tempderiv.calibrate); 1e-6 is the reference fit's own precision
        out = tmp_path / "fit.json"
        assert main(["fit", fit_csv, "--out", str(out), "--vol-shape", "seasonal"]) == 0
        tch = json.loads(out.read_text())["timechange"]
        ref = {"a": 2.309121007, "b": 2.079776949, "mu1": 0.09389348793,
               "objective": 0.4373994928,
               "vol": [1.095420747, -6.605255761e-05, -0.03917957937, 0.03323692596]}

        def identified(fit):
            c0 = fit["vol"][0]
            return {"a": fit["a"], "objective": fit["objective"], "b/c0^2": fit["b"] / c0**2,
                    "mu1/c0": fit["mu1"] / c0, "c/c0": [c / c0 for c in fit["vol"][1:]]}

        got = identified(tch)
        for key, want in identified(ref).items():
            assert got[key] == pytest.approx(want, rel=1e-6, abs=1e-6)
        assert tch["converged"] is True and len(tch["status"]) == 2

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


class TestPrice:
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
        theta = solve_theta(model, MarketParams(r=0.02), 30.0).theta
        b1, b2 = truncation_bounds(*cat_cumulants(model, theta, 30), 10.0)
        for n, got in ((256, payload["price"]),
                       (128, payload["convergence"]["price_half_terms"])):
            want = price_strangle(contract, model, theta, CosGrid(b1, b2, n, n)).price
            assert got == float("{:.10g}".format(want))

    def test_alpha_sweep_rows(self, tmp_path):
        cfg = {"model": MODEL_CFG, "contract": CONTRACT_CFG,
               "alpha_sweep": [0.15, 0.25, 0.35]}
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg))
        out = tmp_path / "sweep.json"
        assert main(["price", "--config", str(p), "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        alphas = [row["alpha"] for row in payload["alpha_sweep"]]
        assert alphas == [0.15, 0.25, 0.35] and alphas == sorted(alphas)
        assert all("price" in row and "theta" in row for row in payload["alpha_sweep"])

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

    @pytest.mark.parametrize("section, field", [("model", "alpha"), ("contract", "k1_strike"),
                                                 ("contract", "horizon_t")])
    def test_non_numeric_config_field_exit_2(self, tmp_path, capsys, section, field):
        cfg = {"model": dict(MODEL_CFG), "contract": dict(CONTRACT_CFG)}
        cfg[section][field] = "abc"
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg))
        assert main(["price", "--config", str(p)]) == 2
        assert f"{section}.{field} must be a number" in capsys.readouterr().err

    def test_non_numeric_sim_field_exit_2(self, tmp_path):
        cfg = {"model": MODEL_CFG, "horizon": 10, "sim": {"n_paths": "many", "seed": 1}}
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg))
        assert main(["simulate", "--config", str(p)]) == 2

    def test_unwritable_output_exit_2(self, fit_csv, tmp_path, capsys):
        assert main(["stats", fit_csv, "--out", str(tmp_path / "absent" / "s.json")]) == 2
        assert "cannot write" in capsys.readouterr().err

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

    def test_row_count(self, sim_config, tmp_path):
        out = tmp_path / "sim.csv"
        assert main(["simulate", "--config", sim_config, "--out", str(out),
                     "--paths", "100"]) == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 1 + 100 * 41  # header + n_paths * (horizon + 1)

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
        monkeypatch.setattr("tempderiv.cli.simulate_paths", lambda p, cfg, horizon: (times, paths))
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

    def test_seed_required(self, tmp_path, capsys):
        cfg = {"model": MODEL_CFG, "horizon": 10, "sim": {"n_paths": 1}}
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg))
        assert main(["simulate", "--config", str(p)]) == 2


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

    def test_q_measure_density(self, tmp_path):
        cfg = {"model": MODEL_CFG, "contract": CONTRACT_CFG, "horizon_t": 30,
               "measure": "Q", "points": 129}
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg))
        out = tmp_path / "density_q.csv"
        assert main(["density", "--config", str(p), "--out", str(out)]) == 0
        assert len(out.read_text().strip().split("\n")) == 130


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

    def test_entry_point_runs(self, tmp_path):
        res = subprocess.run([sys.executable, "-m", "tempderiv.cli", "--help"],
                             capture_output=True, text=True)
        assert res.returncode == 0
        assert "fit" in res.stdout and "price" in res.stdout


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


def test_cli_import_leaves_scipy_stats_out():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    code = "import sys, tempderiv.cli; print('scipy.stats' in sys.modules)"
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "False"


def test_pricing_commands_load_no_scipy_until_fit(price_config, sim_config, fit_csv, tmp_path):
    """price (with its printed-variant root and --mc), simulate and density run on numpy
    alone; the first fit then loads scipy.optimize, so SciPy is deferred, not dropped."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    price_out = tmp_path / "report.json"
    runs = [["price", "--config", price_config, "--mc", "--paths", "2000",
             "--out", str(price_out)],
            ["simulate", "--config", sim_config, "--out", str(tmp_path / "paths.csv")],
            ["density", "--config", price_config, "--out", str(tmp_path / "density.csv")]]
    code = (
        "import sys\n"
        "from tempderiv.cli import main\n"
        f"for argv in {runs!r}:\n"
        "    assert main(argv) == 0, argv\n"
        "print(sorted(k for k in sys.modules if k.split('.')[0] == 'scipy'))\n"
        f"assert main(['fit', {fit_csv!r}, '--out', {str(tmp_path / 'fit.json')!r}]) == 0\n"
        "print('scipy.optimize' in sys.modules)\n"
    )
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert res.returncode == 0, res.stderr
    assert res.stdout.split("\n")[:2] == ["[]", "True"]
    # CONTRACT_CFG at T = 30 has a printed-variant root, so its solve ran
    assert json.loads(price_out.read_text())["theta"]["eq12_variant_theta"] is not None
