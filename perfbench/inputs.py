"""Seeded inputs of the benchmark workloads, built with numpy alone.

Nothing here imports the package under test, so a change to the library
(its simulator in particular) cannot change what the workloads feed it.
Every function is a pure function of its seed.
"""

from __future__ import annotations

import datetime as dt

import numpy as np

OMEGA = 2.0 * np.pi / 365.0

# The README model family: Toronto-like seasonal mean, mildly seasonal volatility.
README_MODEL = {
    "alpha": 0.25, "t0": 12.0,
    "seasonal": [12.0, 0.0008, -5.9, -4.0],
    "vol": [3.5, 0.0, 0.5, 1.0],
    "timechange": {"a": 1.5, "b": 1.0, "mu1": 0.3},
}

PRICE_HORIZONS = (30, 90, 365)
ALPHA_SWEEP = [0.1, 0.25, 0.4]
DENSITY_HORIZONS = (30, 90)
# The command line's default of 256 terms.
COS = {"auto": True, "l_mult": 10.0, "n1": 256, "n2": 256}
# The rate is fixed: it moves theta*, and with it the adaptive quadrature's
# work, so seeding it would make pricing cost differ from seed to seed.
RATE = 0.02
# Paths of the reference Monte Carlo price each COS price is checked against:
# 5 of its standard errors are then about 1% of a price (0.4% at T = 365).
REFERENCE_PATHS = 200_000

# Station series: the size of the paper's Toronto Pearson sample.  With
# alpha = 0.5 the AR(1) estimate's standard error is about 6%, so the 20%
# check on the fitted alpha sits more than 3 standard errors out.
STATION_DAYS = 2145
STATION_SEED = 0
STATION_START = dt.date(2005, 1, 1)
STATION_TRUTH = {
    "alpha": 0.5,
    "seasonal": [8.0, 0.0008, -5.9, -12.9],
    "vol": [3.5, 0.0, 0.5, 1.0],
    "a": 1.5, "b": 1.0, "mu1": 0.3,
}
MAX_GAP = 7


def _harmonic(c, t):
    t = np.asarray(t, float)
    return c[0] + c[1] * t + c[2] * np.sin(OMEGA * t) + c[3] * np.cos(OMEGA * t)


def _k1(t, alpha: float, c) -> np.ndarray:
    """int_0^t f(u) e^{-alpha(t-u)} du for f = c0 + c1 u + c2 sin(wu) + c3 cos(wu)."""
    t = np.asarray(t, float)
    e = np.exp(-alpha * t)
    den = alpha * alpha + OMEGA * OMEGA
    sw, cw = np.sin(OMEGA * t), np.cos(OMEGA * t)
    return (c[0] * (1.0 - e) / alpha
            + c[1] * (t / alpha - (1.0 - e) / alpha**2)
            + c[2] * (alpha * sw - OMEGA * cw + OMEGA * e) / den
            + c[3] * (alpha * cw + OMEGA * sw - alpha * e) / den)


def _det_mean(model: dict, t) -> np.ndarray:
    """Deterministic part of T_t: e^{-alpha t} T0 + alpha K1(t)."""
    alpha = model["alpha"]
    return np.exp(-alpha * np.asarray(t, float)) * model["t0"] \
        + alpha * _k1(t, alpha, model["seasonal"])


def tilt(model: dict, horizon: int, rate: float) -> float:
    """theta* of the martingale condition E_theta[e^{-rT} T_T] = T0, in closed form.

    With c = e^{rT} (T0 - e^{-rT} E[T_T]) / K1_sigma(T), the condition
    a (mu1 + theta) / (b A1(theta)) = c is the quadratic
    (c/2) theta^2 + (a + c mu1) theta + (a mu1 - c b) = 0, which has exactly
    one root on the admissible interval A1(theta) > 0.
    """
    tc = model["timechange"]
    a, b, mu1 = tc["a"], tc["b"], tc["mu1"]
    r = rate / 365.0
    c = float(np.exp(r * horizon) * (model["t0"] - np.exp(-r * horizon) * _det_mean(model, horizon))
              / _k1(horizon, model["alpha"], model["vol"]))
    if c == 0.0:
        return -mu1
    root = np.sqrt((a + c * mu1) ** 2 - 2.0 * c * (a * mu1 - c * b))
    half_width = np.sqrt(mu1 * mu1 + 2.0 * b)
    inside = [th for th in ((-(a + c * mu1) + root) / c, (-(a + c * mu1) - root) / c)
              if abs(th + mu1) < half_width]
    return float(inside[0])


def _cat_weights(model: dict, horizon: int, nodes_per_day: int = 8):
    """Day averages of h and h^2, where CAT = sum_{k=1}^T det_mean(k) + int_0^T h(u) dV_u.

    h(u) = sigma(u) g(u), g(u) = sum_{k=ceil(u)}^T e^{-alpha(k-u)} (a closed
    geometric sum), averaged over each day by Gauss-Legendre.
    """
    alpha = model["alpha"]
    x, w = np.polynomial.legendre.leggauss(nodes_per_day)
    day = np.arange(1, horizon + 1, dtype=float)[:, None]
    u = day - 0.5 + 0.5 * x[None, :]
    g = np.exp(-alpha * (day - u)) * (1.0 - np.exp(-alpha * (horizon - day + 1.0))) \
        / (1.0 - np.exp(-alpha))
    h = _harmonic(model["vol"], u) * g
    return 0.5 * (h @ w), 0.5 * ((h * h) @ w)


def cat_moments_p(model: dict, horizon: int) -> tuple[float, float]:
    """Mean and standard deviation of the CAT index under P, used to place strikes."""
    tc = model["timechange"]
    h1, h2 = _cat_weights(model, horizon)
    mean_v = tc["a"] * tc["mu1"] / tc["b"]
    var_v = tc["a"] / tc["b"] + tc["a"] * tc["mu1"] ** 2 / tc["b"] ** 2
    mean = float(np.sum(_det_mean(model, np.arange(1, horizon + 1))) + mean_v * h1.sum())
    return mean, float(np.sqrt(var_v * h2.sum()))


def cat_reference(model: dict, contract: dict, seed) -> dict:
    """Independent Monte Carlo price of a CAT strangle under Q, with its standard error.

    Under the theta*-tilted measure V is again Gamma-time-changed Brownian
    motion with drift mu1 + theta and Gamma rate b A1(theta).  Given the
    time change R, int h dV = mu1' int h dR + sqrt(int h^2 dR) Z is Gaussian,
    so a path needs one Gamma increment of R per day and one normal; each
    day's h and h^2 enter through their exact day averages, which keeps the
    mean exact and leaves a variance error of about 1e-3 relative.
    """
    tc = model["timechange"]
    horizon = int(contract["horizon_t"])
    theta = tilt(model, horizon, contract["rate_r"])
    a1 = 1.0 - (tc["mu1"] * theta + 0.5 * theta * theta) / tc["b"]
    mu1, rate_b = tc["mu1"] + theta, tc["b"] * a1
    h1, h2 = _cat_weights(model, horizon)
    base = float(np.sum(_det_mean(model, np.arange(1, horizon + 1))))
    rng = np.random.default_rng(seed)
    payoff = np.empty(REFERENCE_PATHS)
    for start in range(0, REFERENCE_PATHS, 4096):
        rows = min(4096, REFERENCE_PATHS - start)
        d_r = rng.standard_gamma(tc["a"], (rows, horizon)) / rate_b
        xi = base + mu1 * (d_r @ h1) + np.sqrt(d_r @ h2) * rng.standard_normal(rows)
        payoff[start:start + rows] = (contract["d1"] * np.maximum(xi - contract["k1_strike"], 0.0)
                                      + contract["d2"] * np.maximum(contract["k2_strike"] - xi, 0.0))
    disc = float(np.exp(-contract["rate_r"] * horizon / 365.0))
    return {"theta": theta, "price": disc * float(payoff.mean()),
            "stderr": disc * float(payoff.std(ddof=1) / np.sqrt(REFERENCE_PATHS))}


def references(cfg: dict, seed: int, stream: int) -> list[dict]:
    """Reference prices of a price config at its model's alpha and each alpha of its sweep."""
    alphas = dict.fromkeys([cfg["model"]["alpha"], *cfg.get("alpha_sweep", [])])
    return [dict(cat_reference(dict(cfg["model"], alpha=alpha), cfg["contract"],
                               [seed, 4, stream, i]), alpha=alpha)
            for i, alpha in enumerate(alphas)]


def price_book(seed: int) -> dict[str, dict]:
    """Configs of the price-book workload, keyed by a short label.

    One strangle per horizon, each strike 0.2-1 sd above or below the
    (approximate) CAT mean, so legs are in or out of the money, with seeded
    tick sizes; one alpha sweep and two Q-measure densities.
    """
    rng = np.random.default_rng([seed, 1])
    configs = {}
    for horizon in PRICE_HORIZONS:
        mean, sd = cat_moments_p(README_MODEL, horizon)
        strikes = mean + sd * rng.uniform(0.2, 1.0, 2) * rng.choice([-1.0, 1.0], 2)
        contract = {"horizon_t": horizon,
                    "k1_strike": round(float(strikes.max()), 3),
                    "k2_strike": round(float(strikes.min()), 3),
                    "d1": round(float(rng.uniform(0.5, 2.0)), 3),
                    "d2": round(float(rng.uniform(0.5, 2.0)), 3),
                    "rate_r": RATE}
        configs[f"price_T{horizon}"] = {"model": README_MODEL, "contract": contract,
                                        "cos": COS}
    sweep = dict(configs[f"price_T{PRICE_HORIZONS[0]}"], alpha_sweep=ALPHA_SWEEP)
    configs["price_sweep"] = sweep
    for horizon in DENSITY_HORIZONS:
        base = configs[f"price_T{horizon}"]
        configs[f"density_T{horizon}"] = dict(base, measure="Q", horizon_t=horizon,
                                              points=257)
    return configs


def paths(seed: int) -> dict[str, dict]:
    """Configs of the paths workload: wide output, long horizon, MC oracle."""
    rng = np.random.default_rng([seed, 2])
    sim_seed = int(rng.integers(1, 2**31))
    mean, sd = cat_moments_p(README_MODEL, 30)
    up, down = rng.uniform(0.2, 1.0, 2)
    contract = {"horizon_t": 30, "k1_strike": round(mean + up * sd, 3),
                "k2_strike": round(mean - down * sd, 3), "d1": 1.0, "d2": 1.0,
                "rate_r": RATE}
    return {
        "wide": {"model": README_MODEL, "horizon": 365, "start_date": "2018-01-01",
                 "sim": {"n_paths": 1000, "seed": sim_seed}},
        "scenario": {"model": README_MODEL, "horizon": 3650, "start_date": "2018-01-01",
                     "sim": {"n_paths": 4, "seed": sim_seed + 1}},
        "mc": {"model": README_MODEL, "contract": contract, "cos": COS,
               "sim": {"n_paths": 100_000, "seed": sim_seed + 2}},
    }


def station_series(seed: int) -> tuple[str, int]:
    """Synthetic daily station CSV (date,tmax,tmin) and its count of missing days.

    The series is one fixed station: its values come from STATION_SEED, and
    `seed` only moves its calendar.  The seasonal fit's Nelder-Mead run
    length depends on the noise realisation (700 to 3,000 objective
    evaluations, 3 to 18 s, over ten realisations), so a seeded realisation
    would make fit times incomparable between runs; a real station file
    would be fixed too.

    Deseasonalised temperatures follow the exact AR(1) recursion of the model
    at daily sampling, Y_{j+1} = e^{-alpha} Y_j + sigma(j) (mu1 R_j + sqrt(R_j) Z_j)
    with R_j ~ Gamma(a, rate b): one exact Gamma-time-changed increment of V
    per day.  A few percent of days are missing, in gaps of 1-7 days spaced
    at least a week apart; half the gaps are blank fields, half absent rows.
    """
    p = STATION_TRUTH
    rng = np.random.default_rng([STATION_SEED, 3])
    n = STATION_DAYS
    t = np.arange(n, dtype=float)
    d_r = rng.gamma(p["a"], 1.0 / p["b"], n)
    z = rng.standard_normal(n)
    eps = _harmonic(p["vol"], t) * (p["mu1"] * d_r + np.sqrt(d_r) * z)
    decay = np.exp(-p["alpha"])
    y = np.empty(n)
    y[0] = eps[0] / np.sqrt(1.0 - decay * decay)
    for j in range(1, n):
        y[j] = decay * y[j - 1] + eps[j - 1]
    temp = _harmonic(p["seasonal"], t) + y
    spread = rng.uniform(4.0, 12.0, n)
    tmax = np.round(temp + 0.5 * spread, 1)
    tmin = np.round(tmax - np.round(spread, 1), 1)

    missing = np.zeros(n, bool)
    absent = np.zeros(n, bool)
    pos = 10
    while True:
        pos += int(rng.integers(MAX_GAP + 1, 200))
        length = int(rng.integers(1, MAX_GAP + 1))
        if pos + length >= n - 10:
            break
        missing[pos:pos + length] = True
        absent[pos:pos + length] = bool(rng.integers(0, 2))
        pos += length

    start = STATION_START + dt.timedelta(days=seed % 3650)
    lines = ["date,tmax,tmin"]
    for j in range(n):
        if absent[j]:
            continue
        day = (start + dt.timedelta(days=j)).isoformat()
        if missing[j]:
            lines.append(f"{day},,")
        else:
            lines.append(f"{day},{tmax[j]:.1f},{tmin[j]:.1f}")
    return "\n".join(lines) + "\n", int(missing.sum())
