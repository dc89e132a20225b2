"""Batch command line: fit, price, simulate, density, stats.

Configuration is a JSON file whose keys mirror the run-config fields in
lower_snake_case (see README for the schema).  All numeric output is
written with 10 significant digits; JSON reports embed the fully resolved
configuration; files are written atomically (temp file + rename) and are
byte-identical for identical (config, seed).

Exit codes: 0 success, 2 input/configuration error, 3 fit failure,
4 martingale-root solver found no bracket.  Only the package's typed
errors map to exit codes; any other exception is a bug and propagates.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

import numpy as np

from .calibrate import fit_alpha, fit_seasonal, fit_timechange
from .charfun import GammaTimeChange, ModelParams, cat_cumulants, charfun_cat
from .cosine import (ContractSpec, CosGrid, density_from_charfun, price_strangle,
                     truncation_bounds)
from .data import ingest_csv, ks_normality, summary_stats
from .errors import CalibrationError, IngestError, NoBracketError, TempDerivError
from .esscher import MarketParams, eq12_variant_theta, solve_theta
from .seasonal import FourCoeffs
from .simulate import SimConfig, mc_price_cat, simulate_paths

_FMT = "{:.10g}"


def _round_sig(obj):
    """Round every float in a JSON-able structure to 10 significant digits."""
    if isinstance(obj, dict):
        return {k: _round_sig(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_sig(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (float, np.floating)):
        val = float(obj)
        return float(_FMT.format(val)) if np.isfinite(val) else None
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [_round_sig(v) for v in obj.tolist()]
    return obj


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-tempderiv-")
    except OSError as exc:
        raise IngestError(f"cannot write {path}: {exc}") from exc
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_json(path: str | None, payload: dict) -> None:
    text = json.dumps(_round_sig(payload), indent=2, sort_keys=True) + "\n"
    if path:
        _atomic_write(path, text)
    else:
        sys.stdout.write(text)


def _load_config(path: str | None) -> dict:
    if not path:
        raise IngestError("--config is required for this command")
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise IngestError(f"cannot read config {path}: {exc}") from exc


def _num(value, what: str, kind=float):
    """Convert one config field, raising IngestError when it is not a number."""
    try:
        return kind(value)
    except (TypeError, ValueError) as exc:
        raise IngestError(f"{what} must be a number, got {value!r}") from exc


def _four(values, what: str) -> FourCoeffs:
    vals = list(values)
    if len(vals) != 4:
        raise IngestError(f"{what} must have exactly 4 coefficients, got {len(vals)}")
    return FourCoeffs(*(_num(v, what) for v in vals))


def _model_from(cfg: dict, horizon: float, alpha_override: float | None = None) -> ModelParams:
    try:
        m = cfg["model"]
        tcd = m["timechange"]
        return ModelParams(
            alpha=_num(alpha_override if alpha_override is not None else m["alpha"],
                       "model.alpha"),
            t0=_num(m["t0"], "model.t0"),
            seasonal=_four(m["seasonal"], "model.seasonal"),
            vol=_four(m["vol"], "model.vol"),
            timechange=GammaTimeChange(_num(tcd["a"], "model.timechange.a"),
                                       _num(tcd["b"], "model.timechange.b"),
                                       _num(tcd.get("mu1", 0.0), "model.timechange.mu1")),
            horizon=max(float(horizon), 1.0),
        )
    except (KeyError, TypeError) as exc:
        raise IngestError(f"invalid model config: missing {exc}") from exc


def _contract_from(cfg: dict) -> ContractSpec:
    try:
        c = cfg["contract"]
        return ContractSpec(
            horizon_T=_num(c["horizon_t"], "contract.horizon_t", int),
            k1_strike=_num(c["k1_strike"], "contract.k1_strike"),
            k2_strike=_num(c["k2_strike"], "contract.k2_strike"),
            d1=_num(c["d1"], "contract.d1"), d2=_num(c["d2"], "contract.d2"),
            rate_r=_num(c["rate_r"], "contract.rate_r"),
        )
    except (KeyError, TypeError) as exc:
        raise IngestError(f"invalid contract config: missing {exc}") from exc


def _grid_from(cfg: dict, model: ModelParams, theta: float, horizon_t: int,
               terms: int | None, l_mult: float | None) -> tuple[CosGrid, dict]:
    cos_cfg = dict(cfg.get("cos", {"auto": True}))
    n1 = _num(terms if terms is not None else cos_cfg.get("n1", 256), "cos.n1", int)
    n2 = _num(terms if terms is not None else cos_cfg.get("n2", 256), "cos.n2", int)
    if cos_cfg.get("auto", "b1" not in cos_cfg):
        lm = _num(l_mult if l_mult is not None else cos_cfg.get("l_mult", 10.0), "cos.l_mult")
        mean, var = cat_cumulants(model, theta, horizon_t)
        b1, b2 = truncation_bounds(mean, var, lm)
        info = {"auto": True, "l_mult": lm, "cat_mean": mean, "cat_variance": var}
    else:
        b1, b2 = _num(cos_cfg.get("b1"), "cos.b1"), _num(cos_cfg.get("b2"), "cos.b2")
        info = {"auto": False}
    grid = CosGrid(b1, b2, n1, n2)
    info.update({"b1": grid.b1, "b2": grid.b2, "n1": n1, "n2": n2})
    return grid, info


def _resolve_theta(cfg: dict, model: ModelParams, contract: ContractSpec) -> tuple[float, dict]:
    if cfg.get("theta") is not None:
        theta = _num(cfg["theta"], "theta")
        return theta, {"theta": theta, "source": "pinned"}
    mkt = MarketParams(r=contract.rate_r)
    sol = solve_theta(model, mkt, float(contract.horizon_T))
    return sol.theta, {"theta": sol.theta, "source": "solved", "residual": sol.residual}


def _describe(series) -> dict:
    """The `summary` and `ks` blocks of the `fit` and `stats` reports."""
    stats_r = summary_stats(series)
    ks = ks_normality(series)
    return {
        "summary": {"mean": stats_r.mean, "min": stats_r.minimum, "max": stats_r.maximum,
                    "std": stats_r.std, "skewness": stats_r.skewness,
                    "kurtosis": stats_r.kurtosis},
        "ks": {"statistic": ks.statistic, "critical_value": ks.critical_value,
               "p_value": ks.p_value, "statistic_standardized": ks.statistic_standardized},
    }


def cmd_fit(args) -> int:
    series = ingest_csv(args.csv)
    described = _describe(series)
    seasonal = fit_seasonal(series)
    alpha = fit_alpha(series, seasonal)
    tch = fit_timechange(seasonal.residuals, alpha=alpha.alpha,
                         vol_shape=args.vol_shape)
    payload = {
        "input": {"path": args.csv, "n": series.n, "repaired": series.repaired,
                  "first": str(series.dates[0]), "last": str(series.dates[-1])},
        **described,
        "seasonal": {
            "names": list(seasonal.names),
            "estimate": seasonal.params, "se": seasonal.se, "se_ols": seasonal.se_ols,
            "tstat": seasonal.tstats, "ci_low": seasonal.ci_low, "ci_high": seasonal.ci_high,
            "p_value": seasonal.p_values, "residual_lag1_autocorr": seasonal.rho1,
        },
        "alpha": {"estimate": alpha.alpha, "ar1_slope": alpha.rho, "slope_se": alpha.rho_se},
        "timechange": {"a": tch.a, "b": tch.b, "mu1": tch.mu1,
                       "vol": tch.vol.as_array(), "objective": tch.objective,
                       "init": list(tch.init), "vol_shape": args.vol_shape,
                       "converged": tch.converged, "status": list(tch.status)},
    }
    _write_json(args.out, payload)
    return 0


def cmd_price(args) -> int:
    cfg = _load_config(args.config)
    contract = _contract_from(cfg)
    model = _model_from(cfg, horizon=float(contract.horizon_T))
    theta, theta_info = _resolve_theta(cfg, model, contract)
    if theta_info["source"] == "solved":
        theta_info["eq12_variant_theta"] = eq12_variant_theta(
            model, MarketParams(r=contract.rate_r), float(contract.horizon_T))
    grid, grid_info = _grid_from(cfg, model, theta, contract.horizon_T,
                                 args.terms, args.l_mult)
    quote = price_strangle(contract, model, theta, grid)
    price = quote.price
    payload = {
        "config": cfg,
        "theta": theta_info,
        "grid": grid_info,
        "price": price,
        "convergence": {"price_half_terms": quote.price_half_terms,
                        "relative_change": quote.relative_change},
    }
    if args.mc:
        sim_cfg = dict(cfg.get("sim", {}))
        n_paths = _num(args.paths if args.paths is not None else sim_cfg.get("n_paths", 100_000),
                       "sim.n_paths", int)
        seed = _num(args.seed if args.seed is not None else sim_cfg.get("seed", 0),
                    "sim.seed", int)
        mc, se = mc_price_cat(contract, model, theta,
                              SimConfig(step=1.0, n_paths=n_paths, seed=seed))
        payload["mc"] = {"price": mc, "stderr": se, "n_paths": n_paths, "seed": seed,
                         "abs_diff": abs(price - mc),
                         "z": (mc - price) / se if se > 0.0 else None,
                         "within_3_stderr": bool(abs(price - mc) <= 3.0 * se)}
    if cfg.get("alpha_sweep"):
        rows = []
        for alpha_val in cfg["alpha_sweep"]:
            alpha_val = _num(alpha_val, "alpha_sweep")
            model_a = _model_from(cfg, horizon=float(contract.horizon_T),
                                  alpha_override=alpha_val)
            theta_a, _ = _resolve_theta(cfg, model_a, contract)
            grid_a, _ = _grid_from(cfg, model_a, theta_a, contract.horizon_T,
                                   args.terms, args.l_mult)
            rows.append({"alpha": alpha_val, "theta": theta_a,
                         "price": price_strangle(contract, model_a, theta_a, grid_a).price})
        payload["alpha_sweep"] = rows
    _write_json(args.out, payload)
    return 0


def cmd_simulate(args) -> int:
    cfg = _load_config(args.config)
    sim_cfg = dict(cfg.get("sim", {}))
    if args.paths is not None:
        sim_cfg["n_paths"] = int(args.paths)
    if args.seed is not None:
        sim_cfg["seed"] = int(args.seed)
    if "seed" not in sim_cfg:
        raise IngestError("simulate requires a seed (config sim.seed or --seed)")
    horizon = _num(cfg.get("horizon", cfg.get("contract", {}).get("horizon_t", 365)), "horizon")
    model = _model_from(cfg, horizon=horizon)
    run = SimConfig(step=_num(sim_cfg.get("step", 1.0), "sim.step"),
                    n_paths=_num(sim_cfg.get("n_paths", 1), "sim.n_paths", int),
                    seed=_num(sim_cfg["seed"], "sim.seed", int),
                    measure=str(sim_cfg.get("measure", "P")),
                    theta=_num(sim_cfg.get("theta", 0.0), "sim.theta"))
    times, paths = simulate_paths(model, run, horizon)

    start = cfg.get("start_date")
    if start is not None:
        try:
            base = np.datetime64(str(start), "D")
        except ValueError as exc:
            raise IngestError(f"start_date must be an ISO date, got {start!r}") from exc
        labels = [str(base + int(round(t))) for t in times]
    else:
        labels = [_FMT.format(t) for t in times]
    # one %-format per path over (label, value) pairs; "%.10g" is _FMT
    chunks = ["date,path_id,temperature\n"]
    fields = [None] * (2 * len(labels))
    fields[0::2] = labels
    for pid, row in enumerate(paths.tolist()):
        fields[1::2] = row
        chunks.append((f"%s,{pid},%.10g\n" * len(labels)) % tuple(fields))
    text = "".join(chunks)
    if args.out:
        _atomic_write(args.out, text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_density(args) -> int:
    cfg = _load_config(args.config)
    horizon_t = _num(cfg.get("horizon_t", cfg.get("contract", {}).get("horizon_t", 30)),
                     "horizon_t", int)
    model = _model_from(cfg, horizon=float(horizon_t))
    measure = str(cfg.get("measure", "P")).upper()
    if measure == "P":
        theta = 0.0
    elif cfg.get("theta") is not None:
        theta = _num(cfg["theta"], "theta")
    else:
        contract = _contract_from(cfg)
        theta, _ = _resolve_theta(cfg, model, contract)
    grid, _ = _grid_from(cfg, model, theta, horizon_t, args.terms, args.l_mult)
    points = _num(cfg.get("points", 257), "points", int)
    xs = np.linspace(grid.b1, grid.b2, points)
    charfun_at = lambda u: charfun_cat(u, model, theta, horizon_t, "exact_kernel")
    dens = density_from_charfun(charfun_at, grid, xs, grid.n1)
    lines = ["x,density"]
    lines.extend(f"{_FMT.format(x)},{_FMT.format(d)}" for x, d in zip(xs, dens))
    text = "\n".join(lines) + "\n"
    if args.out:
        _atomic_write(args.out, text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_stats(args) -> int:
    series = ingest_csv(args.csv)
    described = _describe(series)
    x = series.values
    n = x.size
    n_bins = max(1, int(np.ceil(np.log2(n))) + 1)  # Sturges
    counts, edges = np.histogram(x, bins=n_bins)
    sd = np.std(x, ddof=1)
    iqr = float(np.subtract(*np.percentile(x, [75, 25])))
    spread = min(sd, iqr / 1.34) or sd  # sd when over half the values tie, as R's bw.nrd0
    bw = 0.9 * spread * n ** (-0.2) if sd > 0 else 1.0  # Silverman
    grid = np.linspace(float(np.min(x)), float(np.max(x)), 256)
    kde = np.mean(np.exp(-0.5 * ((grid[:, None] - x[None, :]) / bw) ** 2), axis=1)
    kde /= bw * np.sqrt(2.0 * np.pi)
    payload = {
        "input": {"path": args.csv, "n": n, "repaired": series.repaired},
        **described,
        "histogram": {"bin_edges": edges, "counts": counts.tolist()},
        "kde": {"bandwidth": bw, "x": grid, "density": kde},
    }
    _write_json(args.out, payload)
    return 0


_ARGS = {
    "csv": {"help": "input CSV (date,tmax,tmin or date,tavg)"},
    "--config": {"help": "JSON run configuration"},
    "--out": {"help": "output path (stdout when omitted)"},
    "--mc": {"action": "store_true", "help": "add a Monte Carlo cross-check"},
    "--paths": {"type": int, "help": "override the Monte Carlo path count"},
    "--terms": {"type": int, "help": "override the cosine term counts"},
    "--l-mult": {"type": float, "dest": "l_mult",
                 "help": "override the truncation width multiplier"},
    "--seed": {"type": int, "help": "override the RNG seed"},
    "--vol-shape": {"choices": ["constant", "seasonal"], "default": "seasonal"},
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="tempderiv",
                                     description="Temperature-derivative model toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help, *args):
        """A subcommand taking only the arguments its cmd_* function reads."""
        p = sub.add_parser(name, help=help)
        for arg in args:
            p.add_argument(arg, **_ARGS[arg])
        p.set_defaults(func=func)

    command("fit", cmd_fit, "calibrate from a daily CSV", "csv", "--out", "--vol-shape")
    command("price", cmd_price, "price a CAT strangle", "--config", "--out", "--mc",
            "--paths", "--terms", "--l-mult", "--seed")
    command("simulate", cmd_simulate, "simulate temperature paths",
            "--config", "--out", "--paths", "--seed")
    command("density", cmd_density, "emit the CAT density",
            "--config", "--out", "--terms", "--l-mult")
    command("stats", cmd_stats, "descriptive statistics of a CSV", "csv", "--out")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except IngestError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except NoBracketError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 4
    except CalibrationError as exc:
        print(f"fit error: {exc}", file=sys.stderr)
        return 3
    except TempDerivError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
