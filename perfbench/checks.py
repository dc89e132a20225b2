"""Correctness checks of each command's output.

Every check returns a list of failure messages (empty when the output is
right).  Reference values come from closed forms of the model (the exact
mean of T_t and of the CAT index, the convexity (Jensen) lower bound of a
strangle at that mean) and from the benchmark's own Monte Carlo prices and
closed-form tilts (inputs.cat_reference), which share no code with the
program.
"""

from __future__ import annotations

import json
import math

import numpy as np

from tempderiv import FourCoeffs, GammaTimeChange, ModelParams, k1

RELATIVE_CHANGE_MAX = 1e-6   # price at N terms against N/2 terms
# Every Monte Carlo comparison allows 5 standard errors.  A right program
# then fails one about once in 2 million (normal tails), so over the dozen
# such comparisons of a run and the hundreds of runs of a benchmark check a
# false failure stays below one in a thousand.  At 3 standard errors (the
# program's own `within_3_stderr` flag) one run in about 370 would fail
# with nothing wrong; a seed whose MC op lands 4 standard errors out was
# seen.
SE_TOL = 5.0
TERMINAL_MEAN_SE = SE_TOL    # simulated terminal mean against the exact mean
REFERENCE_SE = SE_TOL        # COS price against the reference Monte Carlo price
MC_SE = SE_TOL               # the program's own MC price against its COS price
THETA_TOL = 1e-8             # solved tilt against the closed-form root
ALPHA_REL_TOL = 0.20         # fitted alpha against the generator's truth
DENSITY_MASS_TOL = 1e-3      # trapezoid mass of the recovered density


def _model(cfg: dict, horizon: float, alpha: float | None = None) -> ModelParams:
    m = cfg["model"]
    tc = m["timechange"]
    return ModelParams(alpha=float(m["alpha"] if alpha is None else alpha), t0=float(m["t0"]),
                       seasonal=FourCoeffs(*m["seasonal"]), vol=FourCoeffs(*m["vol"]),
                       timechange=GammaTimeChange(tc["a"], tc["b"], tc["mu1"]),
                       horizon=max(float(horizon), 1.0))


def _drift_of_v(tc: GammaTimeChange, theta: float) -> float:
    """E[V_1] under the theta-tilted measure: a (mu1 + theta) / (b A1(theta))."""
    a1 = 1.0 - (tc.mu1 * theta + 0.5 * theta * theta) / tc.b
    return tc.a * (tc.mu1 + theta) / (tc.b * a1)


def cat_mean(p: ModelParams, theta: float, horizon: int) -> float:
    """Exact mean of the CAT index sum_{k=1}^T T_k under the theta-tilted measure."""
    days = np.arange(1, horizon + 1, dtype=float)
    noise = _drift_of_v(p.timechange, theta) * k1(days, p.alpha, p.vol)
    return float(np.sum(p.det_mean(days) + noise))


def _jensen_failures(label: str, price: float, p: ModelParams, theta: float,
                     contract: dict) -> list[str]:
    horizon = int(contract["horizon_t"])
    mean = cat_mean(p, theta, horizon)
    disc = math.exp(-contract["rate_r"] * horizon / 365.0)
    bound = disc * (contract["d1"] * max(mean - contract["k1_strike"], 0.0)
                    + contract["d2"] * max(contract["k2_strike"] - mean, 0.0))
    if price < bound * (1.0 - 1e-9) - 1e-9:
        return [f"{label}: price {price} below the Jensen bound {bound} at the CAT mean {mean}"]
    return []


def _reference_failures(label: str, price: float, theta: float, ref: dict) -> list[str]:
    errors = []
    if not abs(theta - ref["theta"]) <= THETA_TOL:
        errors.append(f"{label}: theta {theta}, the closed-form root is {ref['theta']}")
    if not abs(price - ref["price"]) <= REFERENCE_SE * ref["stderr"]:
        errors.append(f"{label}: price {price} is more than {REFERENCE_SE} standard errors "
                      f"({ref['stderr']}) from the reference Monte Carlo price {ref['price']}")
    return errors


def check_price(label: str, out: bytes, cfg: dict, refs: list[dict]) -> list[str]:
    """`refs` holds inputs.references rows: theta and a reference price per alpha."""
    payload = json.loads(out)
    contract = cfg["contract"]
    horizon = int(contract["horizon_t"])
    ref = {row["alpha"]: row for row in refs}
    errors = []
    change = payload["convergence"]["relative_change"]
    if not change <= RELATIVE_CHANGE_MAX:
        errors.append(f"{label}: term-halving relative change {change} > {RELATIVE_CHANGE_MAX}")
    price, theta = payload["price"], payload["theta"]["theta"]
    errors += _jensen_failures(label, price, _model(cfg, horizon), theta, contract)
    errors += _reference_failures(label, price, theta, ref[cfg["model"]["alpha"]])
    for row in payload.get("alpha_sweep", []):
        row_label = f"{label} alpha={row['alpha']}"
        errors += _jensen_failures(row_label, row["price"], _model(cfg, horizon, row["alpha"]),
                                   row["theta"], contract)
        errors += _reference_failures(row_label, row["price"], row["theta"], ref[row["alpha"]])
        if row["alpha"] == cfg["model"]["alpha"] and row["price"] != price:
            errors.append(f"{label}: sweep row at the model's alpha prices {row['price']}, "
                          f"the main price is {price}")
    if "mc" in payload:
        mc = payload["mc"]
        if not abs(price - mc["price"]) <= MC_SE * mc["stderr"]:
            errors.append(f"{label}: MC price {mc['price']} +- {mc['stderr']} is more than "
                          f"{MC_SE} standard errors from the COS price {price}")
    return errors


def check_density(label: str, out: bytes) -> list[str]:
    rows = out.decode().splitlines()
    if rows[0] != "x,density":
        return [f"{label}: unexpected header {rows[0]!r}"]
    xd = np.array([[float(v) for v in r.split(",")] for r in rows[1:]])
    if not np.all(np.isfinite(xd)):
        return [f"{label}: non-finite density values"]
    mass = float(np.sum(0.5 * (xd[1:, 1] + xd[:-1, 1]) * np.diff(xd[:, 0])))
    if abs(mass - 1.0) > DENSITY_MASS_TOL:
        return [f"{label}: density integrates to {mass}, not 1"]
    return []


def check_simulate(label: str, out: bytes, cfg: dict, terminal_mean: bool) -> list[str]:
    rows = out.decode().splitlines()
    horizon = int(cfg["horizon"])
    n_paths = int(cfg["sim"]["n_paths"])
    if rows[0] != "date,path_id,temperature":
        return [f"{label}: unexpected header {rows[0]!r}"]
    if len(rows) - 1 != n_paths * (horizon + 1):
        return [f"{label}: {len(rows) - 1} rows, expected {n_paths * (horizon + 1)}"]
    if not terminal_mean:
        return []
    last = [float(rows[(pid + 1) * (horizon + 1)].rsplit(",", 1)[1]) for pid in range(n_paths)]
    p = _model(cfg, horizon)
    tc = p.timechange
    exact = p.det_mean(float(horizon)) + tc.mu1 * (tc.a / tc.b) * k1(float(horizon), p.alpha, p.vol)
    se = float(np.std(last, ddof=1) / math.sqrt(n_paths))
    if abs(float(np.mean(last)) - exact) > TERMINAL_MEAN_SE * se:
        return [f"{label}: terminal mean {np.mean(last)} is more than {TERMINAL_MEAN_SE} "
                f"standard errors ({se}) from the exact mean {exact}"]
    return []


def check_series_input(label: str, payload: dict, rows: int, repaired: int) -> list[str]:
    got = (payload["input"]["n"], payload["input"]["repaired"])
    if got != (rows, repaired):
        return [f"{label}: read {got[0]} days with {got[1]} repaired, "
                f"expected {rows} with {repaired}"]
    return []


def check_fit(label: str, out: bytes, alpha_truth: float, rows: int, repaired: int) -> list[str]:
    payload = json.loads(out)
    errors = check_series_input(label, payload, rows, repaired)
    alpha = payload["alpha"]["estimate"]
    if not abs(alpha / alpha_truth - 1.0) <= ALPHA_REL_TOL:
        errors.append(f"{label}: fitted alpha {alpha} not within {ALPHA_REL_TOL:.0%} "
                      f"of the truth {alpha_truth}")
    tch = payload["timechange"]
    values = [tch["a"], tch["b"], *tch["vol"]]
    if None in values or not (tch["a"] > 0 and tch["b"] > 0):
        errors.append(f"{label}: degenerate time-change fit {tch}")
    return errors


def check_stats(label: str, out: bytes, rows: int, repaired: int) -> list[str]:
    payload = json.loads(out)
    errors = check_series_input(label, payload, rows, repaired)
    if sum(payload["histogram"]["counts"]) != rows:
        errors.append(f"{label}: histogram counts do not sum to {rows}")
    return errors
