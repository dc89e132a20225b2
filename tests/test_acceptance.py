"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Criterion 9 is skipped (not failed) when the Toronto Pearson
dataset is not supplied (env TEMPDERIV_TORONTO_CSV or tests/data/
toronto_pearson.csv).
"""

import json
import os
import time

import numpy as np
import pytest
from scipy.integrate import quad

from tempderiv import (ContractSpec, CosGrid, FourCoeffs, GammaTimeChange,
                       ModelParams, SimConfig, cat_cumulants,
                       charfun_T, charfun_cat,
                       density_from_charfun, eval_seasonal,
                       fit_alpha, fit_seasonal, fit_timechange, ingest_csv,
                       k1, k2, ks_normality, mc_price_cat, price_strangle,
                       simulate_cat, simulate_paths, solve_theta,
                       summary_stats, transformed_timechange, truncation_bounds,
                       v_cumulants)
from tempderiv.calibrate import seasonal_design
from tempderiv.charfun import a1
from tempderiv.cli import main as cli_main
from tempderiv.seasonal import k1 as k1_integral

from helpers import cumulant_V, quad_exp_kernel


def report(num: int, desc: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    tail = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num:2d}: {status} - {desc}{tail}")
    assert passed, f"criterion {num} failed: {desc} {tail}"


# ---------------------------------------------------------------- criterion 1

def test_criterion_01_kernel_certification():
    rng = np.random.default_rng(1001)
    start = time.time()
    worst = 0.0
    for _ in range(1000):
        coeffs = FourCoeffs(*rng.uniform(-5, 5, 4))
        alpha = rng.uniform(0.01, 2.0)
        t = rng.uniform(0.0, 730.0)
        oracle = quad_exp_kernel(lambda u: eval_seasonal(coeffs, u), alpha, t, "decaying")
        err = abs(k1(t, alpha, coeffs) - oracle) / max(abs(oracle), 1e-30)
        worst = max(worst, err if abs(oracle) > 1e-12 else abs(k1(t, alpha, coeffs) - oracle))

        vol = FourCoeffs(rng.uniform(0.5, 5.0), rng.uniform(0, 1e-3),
                         rng.uniform(-0.2, 0.2), rng.uniform(-0.2, 0.2))
        t2 = rng.uniform(0.0, min(730.0, 600.0 / alpha))  # float64 range of e^{alpha t}
        oracle2 = quad_exp_kernel(lambda u: eval_seasonal(vol, u), alpha, t2, "growing")
        err2 = abs(k2(t2, alpha, vol) - oracle2) / max(abs(oracle2), 1e-30)
        worst = max(worst, err2 if abs(oracle2) > 1e-12 else 0.0)
    elapsed = time.time() - start
    report(1, "k1/k2 match adaptive quadrature to 1e-10 relative on 1000 draws",
           worst < 1e-10 and elapsed < 10.0,
           f"worst rel err {worst:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------- criterion 2

def _random_model(rng: np.random.Generator) -> ModelParams:
    c0 = rng.uniform(1.0, 4.0)
    return ModelParams(
        alpha=rng.uniform(0.08, 0.5),
        t0=rng.uniform(-5, 15),
        seasonal=FourCoeffs(rng.uniform(0, 15), rng.uniform(-1e-3, 1e-3),
                            rng.uniform(-8, 8), rng.uniform(-14, 14)),
        vol=FourCoeffs(c0, rng.uniform(0, 5e-4), rng.uniform(-0.2, 0.2) * c0,
                       rng.uniform(-0.2, 0.2) * c0),
        timechange=GammaTimeChange(rng.uniform(0.5, 3.0), rng.uniform(0.5, 3.0),
                                   rng.uniform(-0.5, 0.5)),
    )


def test_criterion_02_normalization_and_symmetry():
    rng = np.random.default_rng(1002)
    u_t = np.array([0.0, 0.4, -0.4, 1.3, -1.3])
    u_cat = np.array([0.0, 0.004, -0.004, 0.02, -0.02])
    worst_norm, worst_sym = 0.0, 0.0
    for _ in range(100):
        p = _random_model(rng)
        thetas = [0.0]
        try:
            thetas.append(solve_theta(p, 0.02, 30.0).theta)
        except Exception:
            pass
        for theta in thetas:
            vt = charfun_T(u_t, 25.0, p, theta)
            vc = charfun_cat(u_cat, p, theta, 20)
            for vals in (vt, vc):
                worst_norm = max(worst_norm, abs(vals[0] - 1.0))
                worst_sym = max(worst_sym,
                                abs(vals[2] - np.conj(vals[1])),
                                abs(vals[4] - np.conj(vals[3])))
    report(2, "charfun normalization phi(0)=1 (1e-10) and conjugate symmetry (1e-12)",
           worst_norm < 1e-10 and worst_sym < 1e-12,
           f"norm {worst_norm:.1e}, sym {worst_sym:.1e}")


# ---------------------------------------------------------------- criterion 3

def test_criterion_03_gaussian_limit():
    p = ModelParams(alpha=0.25, t0=-2.0, seasonal=FourCoeffs(6.0, 0.0005, -4.0, -9.0),
                    vol=FourCoeffs(1.0, 0.0, 0.1, 0.1),
                    timechange=GammaTimeChange(1e6, 1e6, 0.3))
    t = 30.0
    mean_shift = quad(lambda s: eval_seasonal(p.vol, s) * np.exp(-p.alpha * (t - s)),
                      0, t, epsabs=1e-13)[0]
    var = quad(lambda s: eval_seasonal(p.vol, s) ** 2 * np.exp(-2 * p.alpha * (t - s)),
               0, t, epsabs=1e-13)[0]
    m = p.det_mean(t) + p.timechange.mu1 * mean_shift

    u = np.linspace(-1, 1, 41)
    target = np.exp(1j * u * m - 0.5 * u * u * var)
    err_cf = float(np.max(np.abs(charfun_T(u, t, p) - target)))

    b1, b2 = truncation_bounds(m, var, 10.0)
    grid = CosGrid(b1, b2, 256, 256)
    x = np.linspace(b1, b2, 801)
    dens = density_from_charfun(lambda uu: charfun_T(uu, t, p), grid, x.size, 256)
    normal_pdf = np.exp(-0.5 * (x - m) ** 2 / var) / np.sqrt(2 * np.pi * var)
    err_pdf = float(np.max(np.abs(dens - normal_pdf)))

    report(3, "Brownian-limit charfun within 1e-4 and COS density within 1e-6 of the normal law",
           err_cf < 1e-4 and err_pdf < 1e-6,
           f"charfun {err_cf:.2e}, density {err_pdf:.2e}")


# ---------------------------------------------------------------- criterion 4

def test_criterion_04_esscher_identity_and_martingale(toronto_like_model):
    p = toronto_like_model
    tc = p.timechange
    theta = -0.35
    tc_q = transformed_timechange(tc, theta)
    u = np.array([0.3 + 0.1j, -0.6 + 0.4j, 1j * 0.8, 0.5, -0.9])
    # the Esscher identity by its definition: l_V(u + theta) - l_V(theta) is l_V(u)
    # of the transformed time change
    tilted = cumulant_V(u + theta, tc) - cumulant_V(theta, tc)
    err_tilt = float(np.max(np.abs(tilted - cumulant_V(u, tc_q))))

    h = 1e-6
    rng = np.random.default_rng(1004)
    err_fd, err_printed = 0.0, 0.0
    for _ in range(40):
        th = rng.uniform(-0.8, 0.8)
        fd = (cumulant_V(th + h, tc).real - cumulant_V(th - h, tc).real) / (2 * h)
        err_fd = max(err_fd, abs(v_cumulants(transformed_timechange(tc, th))[0] - fd))
        printed = tc.a * (tc.mu1 + 0.5 * th) / (tc.b * float(a1(th, tc)))
        err_printed = max(err_printed, abs(printed - fd))

    r = 0.02
    horizon = 90
    sol = solve_theta(p, r, float(horizon))
    cfg = SimConfig(step=1.0, n_paths=100_000, seed=44)
    _, terminal = simulate_cat(p, cfg, horizon, sol.theta)
    disc = np.exp(-r / 365.0 * horizon) * terminal
    se = float(np.std(disc, ddof=1) / np.sqrt(disc.size))
    mart_err = abs(float(np.mean(disc)) - p.t0)

    report(4, "tilted-parameter identity 1e-12; discounted-mean martingale within 3 SE; "
              "cumulant derivative matches finite differences 1e-7",
           err_tilt < 1e-12 and err_fd < 1e-7 and mart_err < 3 * se,
           f"tilt {err_tilt:.1e}, fd {err_fd:.1e}, martingale {mart_err:.3f} vs 3se {3*se:.3f}; "
           f"half-theta variant deviates by {err_printed:.2e}")


# ------------------------------------------------------- criteria 5 and 6

@pytest.fixture(scope="module")
def pricing_pairs():
    rng = np.random.default_rng(1005)
    pairs = []
    while len(pairs) < 10:
        p = ModelParams(
            alpha=rng.uniform(0.08, 0.5),
            t0=rng.uniform(5, 20),
            seasonal=FourCoeffs(rng.uniform(8, 18), rng.uniform(0, 1e-3),
                                rng.uniform(-4, 4), rng.uniform(-4, 4)),
            vol=FourCoeffs(rng.uniform(1.5, 4.0), 0.0, rng.uniform(-0.3, 0.3),
                           rng.uniform(-0.3, 0.3)),
            timechange=GammaTimeChange(rng.uniform(0.5, 3.0), rng.uniform(0.5, 3.0),
                                       rng.uniform(-0.4, 0.4)),
        )
        horizon = int(rng.choice([30, 90]))
        r = rng.uniform(0.0, 0.05)
        try:
            theta = solve_theta(p, r, float(horizon)).theta
        except Exception:
            continue
        mean, var = cat_cumulants(p, theta, horizon)
        sd = np.sqrt(var)
        k1s = mean + rng.uniform(0.2, 1.0) * sd
        k2s = mean - rng.uniform(0.2, 1.0) * sd
        if k2s <= 0:
            continue
        contract = ContractSpec(horizon_T=horizon, k1_strike=k1s, k2_strike=k2s,
                                d1=rng.uniform(0.5, 2.0), d2=rng.uniform(0.5, 2.0), rate_r=r)
        b1, b2 = truncation_bounds(mean, var, 10.0)
        pairs.append((p, contract, theta, mean, var))
    return pairs


def test_criterion_05_cos_vs_monte_carlo(pricing_pairs):
    all_ok = True
    details = []
    for i, (p, contract, theta, mean, var) in enumerate(pricing_pairs):
        start = time.time()
        b1, b2 = truncation_bounds(mean, var, 10.0)
        cos_price = price_strangle(contract, p, theta, CosGrid(b1, b2, 256, 256)).price
        mc, se = mc_price_cat(contract, p, theta,
                              SimConfig(step=1.0, n_paths=100_000, seed=2000 + i))
        elapsed = time.time() - start
        ok = abs(cos_price - mc) <= 3 * se and elapsed < 60.0
        all_ok &= ok
        details.append(f"pair{i}(T={contract.horizon_T}): |d|={abs(cos_price-mc):.4f} "
                       f"3se={3*se:.4f} {elapsed:.1f}s")
    report(5, "COS price within 3 MC standard errors on 10 randomized pairs, each < 60 s",
           all_ok, "; ".join(details))


def test_criterion_06_spectral_convergence(pricing_pairs):
    worst_terms, worst_width = 0.0, 0.0
    for p, contract, theta, mean, var in pricing_pairs:
        b1, b2 = truncation_bounds(mean, var, 10.0)
        p256 = price_strangle(contract, p, theta, CosGrid(b1, b2, 256, 256)).price
        p512 = price_strangle(contract, p, theta, CosGrid(b1, b2, 512, 512)).price
        w1, w2 = truncation_bounds(mean, var, 12.0)
        p_wide = price_strangle(contract, p, theta, CosGrid(w1, w2, 256, 256)).price
        scale = max(abs(p256), 1e-12)
        worst_terms = max(worst_terms, abs(p512 - p256) / scale)
        worst_width = max(worst_width, abs(p_wide - p256) / scale)
    report(6, "price stable to < 1e-6 relative under 256->512 terms and l_mult 10->12",
           worst_terms < 1e-6 and worst_width < 1e-6,
           f"terms {worst_terms:.2e}, widening {worst_width:.2e}")


# ---------------------------------------------------------------- criterion 7

def test_criterion_07_calibration_recovery():
    true_alpha, true_a, true_b, true_mu1 = 0.25, 1.5, 1.0, 0.2
    model = ModelParams(alpha=true_alpha, t0=-5.0,
                        seasonal=FourCoeffs(8.0, 0.0008, -6.0, -13.0),
                        vol=FourCoeffs(1.0, 0.0, 0.0, 0.0),
                        timechange=GammaTimeChange(true_a, true_b, true_mu1),
                        horizon=10_001.0)
    n_days = 10_000
    _, paths = simulate_paths(model, SimConfig(step=1.0, n_paths=100, seed=1007),
                              float(n_days))

    # estimand for the seasonal fit: basis projection of the exact mean path
    # (the mu1 E[R] drift shifts the level; the raw beta is not the target)
    t_grid = np.arange(n_days + 1, dtype=float)
    mean_path = model.det_mean(t_grid) + true_mu1 * (true_a / true_b) * k1_integral(
        t_grid, true_alpha, model.vol)
    beta_eff, _, _, _ = np.linalg.lstsq(seasonal_design(t_grid), mean_path, rcond=None)

    beta_hits = np.zeros(4)
    alpha_ok = 0
    fits = []
    for row in paths:
        sf = fit_seasonal(row)
        beta_hits += (sf.ci_low <= beta_eff) & (beta_eff <= sf.ci_high)
        af = fit_alpha(sf)
        alpha_ok += abs(af.alpha - true_alpha) / true_alpha < 0.2
        fits.append((sf, af))

    tc_ok = 0
    for sf, af in fits[:50]:
        tf = fit_timechange(sf.residuals, alpha=af.alpha, vol_shape="constant")
        tc_ok += (abs(tf.a - true_a) / true_a < 0.2 and abs(tf.b - true_b) / true_b < 0.2
                  and abs(tf.mu1 - true_mu1) / abs(true_mu1) < 0.2)

    passed = bool(np.all(beta_hits >= 90) and alpha_ok >= 90 and tc_ok >= 40)
    report(7, "recovery: beta CI coverage >= 90/100, alpha within 20% >= 90/100, "
              "timechange within 20% >= 40/50",
           passed,
           f"beta hits {beta_hits.astype(int).tolist()}, alpha {alpha_ok}/100, "
           f"timechange {tc_ok}/50")


# ---------------------------------------------------------------- criterion 8

def test_criterion_08_ks_machinery():
    rng = np.random.default_rng(1008)
    crit = ks_normality(rng.standard_normal(2145)).critical_value
    crit_ok = abs(crit - 0.0293) <= 5e-4
    hits = sum(ks_normality(rng.standard_normal(10_000)).p_value > 0.01 for _ in range(40))
    report(8, "KS critical value 0.0293 +/- 5e-4 at n=2145; null p > 0.01 in >= 95% of seeds",
           crit_ok and hits >= 38, f"critical {crit:.5f}, null pass {hits}/40")


# ---------------------------------------------------------------- criterion 9

TABLE1 = {"mean": 9.0483, "std": 11.0593, "skewness": -0.3021, "kurtosis": 2.1481}
TABLE3_CI = {"beta0": (7.573, 8.359), "beta1": (0.0005043, 0.00114),
             "beta2": (-6.143, -5.590), "beta3": (-13.13, -12.57)}


def _toronto_path():
    env = os.environ.get("TEMPDERIV_TORONTO_CSV")
    if env and os.path.exists(env):
        return env
    local = os.path.join(os.path.dirname(__file__), "data", "toronto_pearson.csv")
    return local if os.path.exists(local) else None


def test_criterion_09_conditional_data_reproduction():
    path = _toronto_path()
    if path is None:
        print("ACCEPTANCE  9: SKIP - Toronto Pearson dataset not supplied "
              "(set TEMPDERIV_TORONTO_CSV or add tests/data/toronto_pearson.csv)")
        pytest.skip("dataset not supplied")
    series = ingest_csv(path)
    stats = summary_stats(series)
    ks = ks_normality(series)
    fit = fit_seasonal(series)
    checks = {
        "n": series.n == 2145,
        "mean": abs(stats.mean - TABLE1["mean"]) < 1e-3,
        "std": abs(stats.std - TABLE1["std"]) < 1e-3,
        "skewness": abs(stats.skewness - TABLE1["skewness"]) < 1e-3,
        "kurtosis": abs(stats.kurtosis - TABLE1["kurtosis"]) < 1e-3,
        "ks": abs(ks.statistic - 0.6889) < 0.05,
    }
    for name, (lo, hi) in zip(fit.names, TABLE3_CI.values()):
        est = float(fit.params[list(fit.names).index(name)])
        checks[name] = lo <= est <= hi
    report(9, "supplied dataset reproduces the published summary, KS and seasonal fits",
           all(checks.values()), ", ".join(f"{k}={'ok' if v else 'BAD'}" for k, v in checks.items()))


# --------------------------------------------------------------- criterion 10

def test_criterion_10_cli_determinism(tmp_path):
    model_cfg = {"alpha": 0.25, "t0": -3.0, "seasonal": [8.0, 0.0008, -5.9, -12.9],
                 "vol": [3.5, 0.0, 0.5, 1.0], "timechange": {"a": 1.5, "b": 1.0, "mu1": 0.3}}
    contract_cfg = {"horizon_t": 20, "k1_strike": 220.0, "k2_strike": 160.0,
                    "d1": 1.0, "d2": 1.0, "rate_r": 0.02}

    price_cfg = tmp_path / "price.json"
    price_cfg.write_text(json.dumps({"model": model_cfg, "contract": contract_cfg,
                                     "sim": {"n_paths": 5000, "seed": 5}}))
    sim_cfg = tmp_path / "sim.json"
    sim_cfg.write_text(json.dumps({"model": model_cfg, "horizon": 15,
                                   "sim": {"n_paths": 4, "seed": 9},
                                   "start_date": "2018-01-01"}))
    dens_cfg = tmp_path / "dens.json"
    dens_cfg.write_text(json.dumps({"model": model_cfg, "horizon_t": 15,
                                    "measure": "P", "points": 65}))

    base = np.datetime64("2016-01-01")
    rng = np.random.default_rng(99)
    vals = 8 + 6 * np.sin(2 * np.pi * np.arange(700) / 365) + rng.normal(0, 2, 700)
    csv_path = tmp_path / "series.csv"
    csv_path.write_text("date,tavg\n" + "\n".join(
        f"{base + i},{v:.4f}" for i, v in enumerate(vals)) + "\n")

    commands = [
        ("price", ["price", "--config", str(price_cfg), "--mc", "--paths", "5000"]),
        ("simulate", ["simulate", "--config", str(sim_cfg)]),
        ("density", ["density", "--config", str(dens_cfg)]),
        ("stats", ["stats", str(csv_path)]),
        ("fit", ["fit", str(csv_path), "--vol-shape", "constant"]),
    ]
    all_ok = True
    for name, argv in commands:
        out1 = tmp_path / f"{name}_1.out"
        out2 = tmp_path / f"{name}_2.out"
        rc1 = cli_main(argv + ["--out", str(out1)])
        rc2 = cli_main(argv + ["--out", str(out2)])
        same = rc1 == rc2 == 0 and out1.read_bytes() == out2.read_bytes()
        all_ok &= same
    report(10, "every CLI command is byte-identical on repeat with fixed config and seed",
           all_ok)
