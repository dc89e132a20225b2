"""Spans and counters recorded at the boundaries between tempderiv's layers.

The benchmark installs wrappers on the module attributes that callers look
up at call time (``tempderiv.cli.price_strangle``, ``tempderiv.cosine.
charfun_cat``, ...), so no library file changes.  Coarse calls become spans
(name, start, end, parent, operation id); calls made thousands of times per
command (quadrature, cumulant exponents, random draws) only bump counters.
Everything stays in memory until the worker writes it out at the end.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from collections import Counter
from time import perf_counter

import numpy as np

# (module, attribute, span name, hook that reads attributes off the call)
SPANS = [
    ("tempderiv.cli", "solve_theta", "esscher.solve_theta", None),
    ("tempderiv.cli", "cat_cumulants", "charfun.cat_cumulants", None),
    ("tempderiv.charfun", "charfun_cat", "charfun.charfun_cat", "charfun"),
    ("tempderiv.cosine", "charfun_cat", "charfun.charfun_cat", "charfun"),
    ("tempderiv.cli", "charfun_cat", "charfun.charfun_cat", "charfun"),
    ("tempderiv.cli", "price_strangle", "cosine.price_strangle", "price_terms"),
    ("tempderiv.cli", "density_from_charfun", "cosine.density_from_charfun", "density_terms"),
    ("tempderiv.cli", "simulate_paths", "simulate.simulate_paths", "simulate"),
    ("tempderiv.cli", "mc_price_cat", "simulate.mc_price_cat", "mc"),
    ("tempderiv.cli", "fit_seasonal", "calibrate.fit_seasonal", None),
    ("tempderiv.cli", "fit_alpha", "calibrate.fit_alpha", None),
    ("tempderiv.cli", "fit_timechange", "calibrate.fit_timechange", "converged"),
    ("tempderiv.cli", "ingest_csv", "data.ingest_csv", "ingest"),
    ("tempderiv.cli", "summary_stats", "data.summary_stats", None),
    ("tempderiv.cli", "ks_normality", "data.ks_normality", None),
]

LAYERS = ("cli", "esscher", "charfun", "cosine", "simulate", "calibrate", "data")
_DRAWS = ("standard_gamma", "standard_normal", "gamma", "normal")

# span record fields
NAME, START, END, PARENT, OP, CHILD_S, ATTRS = range(7)


def _bound(fn, args, kwargs) -> dict:
    sig = inspect.signature(fn)
    bound = sig.bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _hook_attrs(kind: str, fn, args, kwargs, result) -> dict:
    """Work counts of one call, read from its arguments and result."""
    if kind == "converged":
        return {"converged": bool(result.converged)}
    if kind == "ingest":
        return {"rows": int(result.n), "repaired": int(result.repaired)}
    arg = _bound(fn, args, kwargs)
    if kind == "charfun":
        u = np.abs(np.atleast_1d(np.asarray(arg["u"], float)))
        return {"freqs": int(np.unique(u[u > 0.0]).size), "days": int(arg["horizon_T"])}
    if kind == "price_terms":
        grid = arg["grid"]
        return {"terms": int(max(grid.n1, grid.n2)) + 1}
    if kind == "density_terms":
        return {"terms": int(arg["terms"]) + 1}
    if kind == "simulate":
        cfg = arg["cfg"]
        steps = int(round(float(arg["horizon"]) / cfg.step))
        return {"paths": cfg.n_paths, "steps": steps}
    if kind == "mc":
        return {"paths": arg["cfg"].n_paths, "steps": int(arg["contract"].horizon_T)}
    raise ValueError(f"unknown hook {kind!r}")


class _CountingRng:
    """Forwards to a numpy Generator and counts the variates it draws."""

    def __init__(self, rng, counts: Counter):
        self._rng = rng
        self._counts = counts
        self._first = True

    def __getattr__(self, name):
        attr = getattr(self._rng, name)
        if name not in _DRAWS:
            return attr

        def draw(*args, **kwargs):
            out = attr(*args, **kwargs)
            size = int(np.size(out))
            self._counts["simulate.draws"] += size
            if self._first:  # one draw per row opens every block
                self._counts["simulate.rows_drawn"] += size
                self._first = False
            return out
        return draw


class Tracer:
    """In-memory span and counter store plus the patches that feed it."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.op_id = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------
    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self.op_id, 0.0, None])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def end(self, idx: int) -> None:
        rec = self.spans[idx]
        rec[END] = perf_counter()
        self._stack.pop()
        if rec[PARENT] >= 0:
            self.spans[rec[PARENT]][CHILD_S] += rec[END] - rec[START]

    def leaf(self, name: str, seconds: float) -> None:
        """A call too frequent for its own span: total it, charge it to the parent."""
        self.counts[name + "_calls"] += 1
        self.counts[name + "_s"] += seconds
        if self._stack:
            self.spans[self._stack[-1]][CHILD_S] += seconds

    # -- wrappers ----------------------------------------------------------
    def _span_wrapper(self, fn, name: str, hook: str | None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.begin(name)
            result = None
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(idx)
            if hook is not None:
                self.spans[idx][ATTRS] = _hook_attrs(hook, fn, args, kwargs, result)
            return result
        return wrapper

    def _patch(self, module, attr: str, replacement) -> None:
        self._patches.append((module, attr, getattr(module, attr)))
        setattr(module, attr, replacement)

    def install(self) -> list[str]:
        """Patch every boundary that exists; return the ones that do not."""
        missing = []
        for mod_name, attr, name, hook in SPANS:
            module = importlib.import_module(mod_name)
            if hasattr(module, attr):
                self._patch(module, attr, self._span_wrapper(getattr(module, attr), name, hook))
            else:
                missing.append(f"{mod_name}.{attr}")

        counters = [("tempderiv.esscher", "martingale_residual", self._count_calls),
                    ("tempderiv.charfun", "adaptive_simpson_complex", self._count_quad),
                    ("tempderiv.calibrate", "cumulant_V", self._time_leaf),
                    ("tempderiv.calibrate", "optimize", self._count_objective),
                    ("tempderiv.simulate", "block_rng", self._count_draws)]
        for mod_name, attr, make in counters:
            module = importlib.import_module(mod_name)
            if hasattr(module, attr):
                self._patch(module, attr, make(getattr(module, attr)))
            else:
                missing.append(f"{mod_name}.{attr}")
        return missing

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def _count_calls(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts["esscher.residual_evals"] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _count_quad(self, fn):
        @functools.wraps(fn)
        def wrapper(f, *args, **kwargs):
            self.counts["charfun.quad_calls"] += 1

            def counted(xs):
                self.counts["charfun.quad_points"] += int(np.size(xs))
                return f(xs)
            return fn(counted, *args, **kwargs)
        return wrapper

    def _time_leaf(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.leaf("charfun.cumulant_V", perf_counter() - t0)
        return wrapper

    def _count_objective(self, optimize_module):
        counts = self.counts

        class CountingOptimize:
            """scipy.optimize as calibrate sees it, counting objective calls."""

            def __getattr__(self, name):
                return getattr(optimize_module, name)

            @staticmethod
            def minimize(fun, *args, **kwargs):
                def counted(x, *fargs):
                    counts["calibrate.objective_evals"] += 1
                    return fun(x, *fargs)
                return optimize_module.minimize(counted, *args, **kwargs)
        return CountingOptimize()

    def _count_draws(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return _CountingRng(fn(*args, **kwargs), self.counts)
        return wrapper


def cycle_metrics(spans: list[list], first: int, counts: Counter,
                  bytes_out: int) -> tuple[dict, dict]:
    """Per-layer metrics and per-layer self time of the cycle whose spans start at `first`."""
    dur = lambda rec: rec[END] - rec[START]
    total = Counter()
    attrs = Counter()
    self_s = Counter()
    converged = []
    cumulant_calls = 0
    for rec in spans[first:]:
        name = rec[NAME]
        total[name] += dur(rec)
        self_s[name.split(".", 1)[0]] += dur(rec) - rec[CHILD_S]
        a = rec[ATTRS] or {}
        for key, val in a.items():
            if key == "converged":
                converged.append(val)
            else:
                attrs[f"{name}.{key}"] += val
        if name == "charfun.charfun_cat":
            attrs["freq_days"] += a.get("freqs", 0) * a.get("days", 0)
            if rec[PARENT] >= 0 and spans[rec[PARENT]][NAME] == "charfun.cat_cumulants":
                cumulant_calls += 1
        if name.startswith("simulate."):
            attrs["path_days"] += a.get("paths", 0) * a.get("steps", 0)
            # path matrices the request implies (computed): paths x (steps + 1) doubles
            attrs["block_bytes"] += a.get("paths", 0) * (a.get("steps", 0) + 1) * 8
            attrs["paths"] += a.get("paths", 0)
    self_s["charfun"] += counts["charfun.cumulant_V_s"]

    def ratio(num, den, scale=1.0):
        return scale * num / den if den else 0.0

    charfun_s = total["charfun.charfun_cat"]
    fit_tc_s = total["calibrate.fit_timechange"]
    ingest_s = total["data.ingest_csv"]
    metrics = {
        "cli.self_s": self_s["cli"],
        "cli.bytes_out": bytes_out,
        "esscher.solve_theta_s": total["esscher.solve_theta"],
        "esscher.residual_evals": counts["esscher.residual_evals"],
        "charfun.cat_cumulants_s": total["charfun.cat_cumulants"],
        "charfun.cumulant_charfun_calls": cumulant_calls,
        "charfun.charfun_cat_s": charfun_s,
        "charfun.freqs": attrs["charfun.charfun_cat.freqs"],
        "charfun.us_per_freq_day": ratio(charfun_s, attrs["freq_days"], 1e6),
        "charfun.quad_calls": counts["charfun.quad_calls"],
        "charfun.quad_points": counts["charfun.quad_points"],
        "charfun.cumulant_V_calls": counts["charfun.cumulant_V_calls"],
        "charfun.cumulant_V_s": counts["charfun.cumulant_V_s"],
        "cosine.expand_s": self_s["cosine"],
        "cosine.terms": (attrs["cosine.price_strangle.terms"]
                         + attrs["cosine.density_from_charfun.terms"]),
        "simulate.path_days_per_s": ratio(attrs["path_days"], self_s["simulate"]),
        "simulate.useful_row_frac": ratio(attrs["paths"], counts["simulate.rows_drawn"]),
        "simulate.draws": counts["simulate.draws"],
        "simulate.block_mb": attrs["block_bytes"] / 1e6,
        "calibrate.fit_timechange_s": fit_tc_s,
        "calibrate.objective_evals": counts["calibrate.objective_evals"],
        "calibrate.us_per_eval": ratio(fit_tc_s, counts["calibrate.objective_evals"], 1e6),
        "calibrate.fit_seasonal_s": total["calibrate.fit_seasonal"],
        "calibrate.converged": ratio(sum(converged), len(converged)),
        "data.ingest_s": ingest_s,
        "data.rows_per_s": ratio(attrs["data.ingest_csv.rows"], ingest_s),
        "data.repaired": attrs["data.ingest_csv.repaired"],
        "data.stats_s": total["data.summary_stats"] + total["data.ks_normality"],
    }
    return metrics, {layer: self_s[layer] for layer in LAYERS}


# Counts a deterministic program must repeat exactly from one cycle to the next.
EXACT_COUNTS = ("charfun.quad_points", "calibrate.objective_evals", "esscher.residual_evals",
                "simulate.draws", "simulate.useful_row_frac", "cli.bytes_out",
                "charfun.quad_calls", "charfun.freqs", "charfun.cumulant_V_calls",
                "cosine.terms", "data.repaired")
