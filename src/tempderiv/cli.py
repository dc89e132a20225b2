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
import dataclasses
import datetime
import functools
import json
import math
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
from .esscher import solve_theta
from .seasonal import FourCoeffs
from .simulate import DRAW_SIZE, SimConfig, mc_price_cat, simulate_paths

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
        return float(_FMT.format(val)) if math.isfinite(val) else None
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [_round_sig(v) for v in obj.tolist()]
    return obj


def _atomic_write(path: str, chunks) -> None:
    """Write an iterable of byte chunks to a temp file beside `path`, then
    rename it into place; the temp file is removed if a chunk fails."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-tempderiv-")
    except OSError as exc:
        raise IngestError(f"cannot write {path}: {exc}") from exc
    try:
        with os.fdopen(fd, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(path: str | None, chunks) -> None:
    """Write the byte chunks to `path` atomically, or to stdout when no path is given."""
    if path:
        _atomic_write(path, chunks)
    else:
        for chunk in chunks:
            sys.stdout.write(chunk.decode())


def _write_json(path: str | None, payload: dict) -> None:
    text = json.dumps(_round_sig(payload), indent=2, sort_keys=True) + "\n"
    _emit(path, [text.encode()])


@functools.cache
def _digit_table() -> np.ndarray:
    """ASCII digits of the 5-digit numbers k = 0..99999, shape (5, 300000):
    column k holds k's digits, column 100000 + k the same with k's leading
    zeros as NUL, column 200000 + k with its trailing zeros as NUL (0 is all
    NUL in both).  Built on first use, so importing the module stays cheap."""
    table = np.empty((5, 3, 100_000), np.uint8)
    for i in range(5):
        place = 10 ** (4 - i)
        table[i] = np.tile(np.repeat(np.arange(48, 58, dtype=np.uint8), place), 10 ** i)
        table[i, 1, :place] = 0  # k < place: a leading zero
        table[i, 2, ::10 * place] = 0  # k a multiple of 10 place: a trailing zero
    return table.reshape(5, 300_000)


def _format_10g(values: np.ndarray) -> np.ndarray:
    """b"%.10g" % v of each value of a 1-d float array, as the columns of a
    (width, n) uint8 array padded with NUL, which the caller drops.

    A finite v with 1 <= |v| < 1e10 is printed from its 10 significant
    digits m = rint(|v| 10^(9-e)), e = floor(log10 |v|): its column is the
    sign, the integer digits right-aligned with leading zeros as NUL, the
    point, and the fraction digits with trailing zeros (and the point, when
    none is left) as NUL.  10^(9-e) is exact, so |v| 10^(9-e) carries at
    most half an ulp, under 1.1e-6 below 1e10, and rint rounds it as
    printf does unless its fraction is within 1e-5 of one half.  Those
    near-ties, a product off [1e9, 1e10) or an m of 1e10 (a log10 off by
    one, a round-up to the next power of ten), and every other value
    (|v| < 1, |v| >= 1e10, zeros, infinities and NaN) are formatted by the
    % operator in one call.
    """
    a = np.abs(values)
    fast = (a >= 1.0) & (a < 1e10)
    a[~fast] = 1.0
    e = np.clip(np.log10(a).astype(np.intp), 0, 9)  # floor, as log10 a >= 0
    pow10 = 10 ** np.arange(10)
    a *= pow10[9 - e]
    m = np.rint(a)
    fast &= (a >= 1e9) & (m < 1e10) & (np.abs(a - np.floor(a) - 0.5) >= 1e-5)
    m[~fast] = 1e9
    e[~fast] = 0
    whole, frac = np.divmod(m.astype(np.int64), pow10[9 - e])
    frac *= pow10[e]  # the fraction digits as one 9-digit number
    n_int, n_frac = int(e.max()) + 1, 9 - int(e.min())
    width = 2 + n_int + n_frac
    slow = np.flatnonzero(~fast)
    if slow.size:
        text = (b"%.10g\n" * slow.size) % tuple(values[slow].tolist())
        fallback = np.array(text.split(b"\n")[:-1], dtype="S")
        width = max(width, fallback.itemsize)
    out = np.zeros((width, values.size), np.uint8)
    np.multiply(values < 0, np.uint8(ord("-")), out=out[0])
    np.multiply(frac != 0, np.uint8(ord(".")), out=out[1 + n_int])
    # table columns: base + k drops k's leading zeros, 2 base + k its trailing ones
    table, base = _digit_table(), 100_000
    w_hi, w_lo = np.divmod(whole, base)
    w_lo += base * (w_hi == 0)
    w_hi += base
    # the 10 integer places are w_hi's and w_lo's 5 digits, right-aligned
    for j, place in enumerate(range(10 - n_int, 10)):
        table[place % 5].take((w_hi, w_lo)[place // 5], out=out[1 + j])
    f_hi, f_lo = np.divmod(frac, base)
    f_hi += 2 * base * (f_lo == 0)
    f_lo += 2 * base
    # the 9 fraction places are f_hi's last 4 digits and f_lo's 5
    for j in range(n_frac):
        table[(j + 1) % 5].take((f_hi, f_lo)[(j + 1) // 5], out=out[2 + n_int + j])
    if slow.size:
        out[:, slow] = fallback.astype(f"S{width}").view(np.uint8).reshape(-1, width).T
    return out


def _csv_blocks(labels: np.ndarray, paths: np.ndarray):
    """Yield the bytes of the simulate CSV: the header, then each block of
    whole paths of at most DRAW_SIZE values (one path if it is longer).

    A line is label, path id and value; `labels` holds each time's label
    as a NUL-padded uint8 row.  Each block is laid out in one uint8 matrix
    of fixed-width fields, from which the NULs are then dropped."""
    yield b"date,path_id,temperature\n"
    n_paths, n_times = paths.shape
    run = max(1, DRAW_SIZE // n_times)
    label_w = labels.shape[1]
    for row in range(0, n_paths, run):
        block = paths[row:row + run]
        k = len(block)
        ids = np.arange(row, row + k).astype(f"S{len(str(row + k - 1))}")
        ids = ids.view(np.uint8).reshape(k, -1)
        values = _format_10g(block.ravel())
        comma = label_w + 1 + ids.shape[1]  # the second comma's column
        lines = np.empty((k, n_times, comma + values.shape[0] + 2), np.uint8)
        lines[:, :, :label_w] = labels
        lines[:, :, label_w] = lines[:, :, comma] = ord(",")
        lines[:, :, label_w + 1:comma] = ids[:, None, :]
        lines.reshape(k * n_times, -1)[:, comma + 1:-1] = values.T
        lines[:, :, -1] = ord("\n")
        yield lines.tobytes().translate(None, b"\0")


def _load_config(path: str | None) -> dict:
    if not path:
        raise IngestError("--config is required for this command")
    try:
        with open(path, encoding="utf-8-sig") as fh:
            cfg = json.load(fh)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise IngestError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise IngestError(f"config {path} must be a JSON object, got {type(cfg).__name__}")
    return cfg


def _section(cfg: dict, name: str) -> dict:
    """The config section `name`: {} when absent, IngestError unless an object."""
    section = cfg.get(name, {})
    if not isinstance(section, dict):
        raise IngestError(f"{name} must be a JSON object, got {section!r}")
    return section


def _num(value, what: str, kind=float):
    """Convert one config field, raising IngestError when it is not a number
    (JSON true, false and strings such as "30" are not) or, for kind=int, not
    a whole one (30 and 30.0 parse, 30.7 does not)."""
    if isinstance(value, (bool, str)):
        raise IngestError(f"{what} must be a number, got {value!r}")
    try:
        number = kind(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise IngestError(f"{what} must be a number, got {value!r}") from exc
    if kind is int and isinstance(value, float) and number != value:
        raise IngestError(f"{what} must be a whole number, got {value!r}")
    return number


def _four(values, what: str) -> FourCoeffs:
    vals = list(values)
    if len(vals) != 4:
        raise IngestError(f"{what} must have exactly 4 coefficients, got {len(vals)}")
    return FourCoeffs(*(_num(v, what) for v in vals))


def _model_from(cfg: dict, horizon: float) -> ModelParams:
    try:
        m = cfg["model"]
        tcd = m["timechange"]
        return ModelParams(
            alpha=_num(m["alpha"], "model.alpha"),
            t0=_num(m["t0"], "model.t0"),
            seasonal=_four(m["seasonal"], "model.seasonal"),
            vol=_four(m["vol"], "model.vol"),
            timechange=GammaTimeChange(_num(tcd["a"], "model.timechange.a"),
                                       _num(tcd["b"], "model.timechange.b"),
                                       _num(tcd.get("mu1", 0.0), "model.timechange.mu1")),
            horizon=max(float(horizon), 1.0),
        )
    except KeyError as exc:
        raise IngestError(f"invalid model config: missing {exc}") from exc
    except TypeError as exc:
        raise IngestError(f"invalid model config: wrong type ({exc})") from exc


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
    except KeyError as exc:
        raise IngestError(f"invalid contract config: missing {exc}") from exc
    except TypeError as exc:
        raise IngestError(f"invalid contract config: wrong type ({exc})") from exc


def _grid_from(cfg: dict, model: ModelParams, theta: float, horizon_t: int,
               terms: int | None, l_mult: float | None,
               legs=("n1", "n2")) -> tuple[CosGrid, dict]:
    """The cosine grid and its report block; only the term counts named in `legs`
    are read (a density reads n1 alone, and its grid keeps CosGrid's n2)."""
    cos_cfg = _section(cfg, "cos")
    counts = {leg: _num(terms if terms is not None else cos_cfg.get(leg, 256), f"cos.{leg}", int)
              for leg in legs}
    auto = cos_cfg.get("auto", "b1" not in cos_cfg)
    if not isinstance(auto, bool):
        raise IngestError(f"cos.auto must be true or false, got {auto!r}")
    if auto:
        lm = _num(l_mult if l_mult is not None else cos_cfg.get("l_mult", 10.0), "cos.l_mult")
        mean, var = cat_cumulants(model, theta, horizon_t)
        b1, b2 = truncation_bounds(mean, var, lm)
        info = {"auto": True, "l_mult": lm, "cat_mean": mean, "cat_variance": var}
    else:
        b1, b2 = _num(cos_cfg.get("b1"), "cos.b1"), _num(cos_cfg.get("b2"), "cos.b2")
        info = {"auto": False}
    grid = CosGrid(b1, b2, **counts)
    info.update({"b1": grid.b1, "b2": grid.b2, **counts})
    return grid, info


def _theta(cfg: dict, model: ModelParams, measure="Q") -> tuple[float, dict]:
    """The tilt of a `measure`, P or Q in any case, and its report block: P is
    theta 0; Q takes the top-level `theta` if pinned, else theta* solved from
    `contract`."""
    name = str(measure).upper()
    if name not in ("P", "Q"):
        raise IngestError(f"measure must be P or Q, got {measure!r}")
    if name == "P":
        return 0.0, {"theta": 0.0, "source": "P"}
    if cfg.get("theta") is not None:
        theta = _num(cfg["theta"], "theta")
        return theta, {"theta": theta, "source": "pinned"}
    contract = _contract_from(cfg)
    sol = solve_theta(model, contract.rate_r, float(contract.horizon_T))
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
    alpha = fit_alpha(seasonal)
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
                       "converged": tch.converged,
                       "at_bound": tch.at_bound, "status": tch.status,
                       "nfev": tch.nfev, "njev": tch.njev},
    }
    _write_json(args.out, payload)
    return 0


def cmd_price(args) -> int:
    cfg = _load_config(args.config)
    contract = _contract_from(cfg)
    model = _model_from(cfg, horizon=float(contract.horizon_T))

    @functools.cache
    def quote(alpha: float):
        """The theta block, grid block and quote of the contract at mean-reversion rate `alpha`."""
        model_a = dataclasses.replace(model, alpha=alpha)
        theta_a, theta_info = _theta(cfg, model_a)
        grid, grid_info = _grid_from(cfg, model_a, theta_a, contract.horizon_T,
                                     args.terms, args.l_mult)
        return theta_info, grid_info, price_strangle(contract, model_a, theta_a, grid)

    theta_info, grid_info, headline = quote(model.alpha)
    theta, price = theta_info["theta"], headline.price
    payload = {
        "config": cfg,
        "theta": theta_info,
        "grid": {**grid_info, "live_terms": headline.live_terms},
        "price": price,
        "convergence": {"price_half_terms": headline.price_half_terms,
                        "relative_change": headline.relative_change},
    }
    if args.mc:
        sim_cfg = _section(cfg, "sim")
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
    sweep = cfg.get("alpha_sweep")
    if sweep is not None and not isinstance(sweep, list):
        raise IngestError(f"alpha_sweep must be a list, got {sweep!r}")
    if sweep:
        rows = []
        for alpha_val in sweep:
            alpha_val = _num(alpha_val, "alpha_sweep")
            theta_block, _, row = quote(alpha_val)
            rows.append({"alpha": alpha_val, "theta": theta_block["theta"], "price": row.price})
        payload["alpha_sweep"] = rows
    _write_json(args.out, payload)
    return 0


def cmd_simulate(args) -> int:
    cfg = _load_config(args.config)
    sim_cfg = _section(cfg, "sim")
    n_paths = _num(args.paths if args.paths is not None else sim_cfg.get("n_paths", 1),
                   "sim.n_paths", int)
    seed = args.seed if args.seed is not None else sim_cfg.get("seed")
    if seed is None:
        raise IngestError("simulate requires a seed (config sim.seed or --seed)")
    horizon = _num(cfg.get("horizon", _section(cfg, "contract").get("horizon_t", 365)), "horizon")
    model = _model_from(cfg, horizon=horizon)
    theta, _ = _theta(cfg, model, sim_cfg.get("measure", "P"))
    run = SimConfig(step=_num(sim_cfg.get("step", 1.0), "sim.step"), n_paths=n_paths,
                    seed=_num(seed, "sim.seed", int))
    start = cfg.get("start_date")
    if start is not None:
        try:
            base = np.datetime64(datetime.date.fromisoformat(start), "D")
        except (TypeError, ValueError) as exc:
            raise IngestError(f"start_date must be an ISO date string, got {start!r}") from exc
        if not float(run.step).is_integer():
            raise IngestError(f"start_date needs a whole number of days per step, "
                              f"got sim.step {run.step}")
    times, paths = simulate_paths(model, run, horizon, theta)
    if start is not None:
        dates = (base + np.rint(times).astype(np.int64)).astype(str).tolist()
        labels = np.array(dates, dtype="S").view(np.uint8).reshape(len(dates), -1)
    else:
        labels = _format_10g(times).T
    _emit(args.out, _csv_blocks(labels, paths))
    return 0


def cmd_density(args) -> int:
    cfg = _load_config(args.config)
    horizon_t = _num(cfg.get("horizon_t", _section(cfg, "contract").get("horizon_t", 30)),
                     "horizon_t", int)
    model = _model_from(cfg, horizon=float(horizon_t))
    points = _num(cfg.get("points", 257), "points", int)
    if points < 1:
        raise IngestError(f"points must be a positive integer, got {cfg['points']!r}")
    theta, _ = _theta(cfg, model, cfg.get("measure", "P"))
    grid, _ = _grid_from(cfg, model, theta, horizon_t, args.terms, args.l_mult, legs=("n1",))
    xs = np.linspace(grid.b1, grid.b2, points)
    charfun_at = lambda u: charfun_cat(u, model, theta, horizon_t)
    dens = density_from_charfun(charfun_at, grid, xs, grid.n1)
    rows = np.column_stack([xs, dens]).ravel().tolist()
    _emit(args.out, [b"x,density\n" + (b"%.10g,%.10g\n" * points) % tuple(rows)])
    return 0


def cmd_stats(args) -> int:
    series = ingest_csv(args.csv)
    described = _describe(series)
    summary = described["summary"]
    x, sd = series.values, summary["std"]
    n = x.size
    n_bins = max(1, int(np.ceil(np.log2(n))) + 1)  # Sturges
    counts, edges = np.histogram(x, bins=n_bins)
    iqr = float(np.subtract(*np.percentile(x, [75, 25])))
    spread = min(sd, iqr / 1.34) or sd  # sd when over half the values tie, as R's bw.nrd0
    bw = 0.9 * spread * n ** (-0.2) if sd > 0 else 1.0  # Silverman
    grid = np.linspace(summary["min"], summary["max"], 256)
    z = np.subtract.outer(grid, x)  # exp(-((grid - x) / bw)^2 / 2), in place in one buffer
    z /= bw
    np.square(z, out=z)
    z *= -0.5
    kde = np.mean(np.exp(z, out=z), axis=1)
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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser `main` uses, built on its first call and kept for the process."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
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
