"""Path simulation of the temperature process and Monte Carlo oracles.

One step of size D uses the exact solution of the mean-reverting dynamics:

    T_{t+D} = e^{-aD} T_t + alpha * [K1(t+D) - e^{-aD} K1(t)]
              + mu1' * (G1_j / D) * dR + sqrt(s2_j * dR) * Z,

with dR ~ Gamma(a*D, rate b'), Z standard normal, and noise scales
G1_j = int_step sigma_u e^{-alpha(t+D-u)} du (closed form) and
G2_j = int_step sigma_u^2 e^{-2 alpha(t+D-u)} du (the package's 8-node
Gauss-Legendre rule, scaled to the step).  The Gaussian part's variance
per unit dR, s2_j = G2_j/D + mu1'^2 (G2_j - G1_j^2/D) / (b' D), makes up
what the mean part lacks, so each step's mean and variance are the
model's; higher cumulants are not (conditionally on dR the step is
Gaussian).  The Brownian limit reproduces the exact mean-reverting
transition.  Under the tilted measure Q(theta) the transformed parameters
mu1' = mu1 + theta, b' = b A1(theta) are used.

Randomness is counter-based and scheduling-independent: paths are grouped
in fixed blocks of 128, block ``i`` draws from Philox(key=[seed, i]) in
chunks of at most 512 steps (a Gamma matrix, then a normal matrix, each
(steps, 128)), and a path's draws depend only on (seed, block, row) --
never on n_paths.

The Monte Carlo strangle price `mc_price_cat` is a conditional
(Rao-Blackwellised) estimator: given a path's Gamma clock the CAT index is
Gaussian, so each path contributes the closed-form (Bachelier) expectation
of the payoff -- the Gamma mixture of Gaussians of Madan, Carr & Chang
(1998), used as conditional Monte Carlo (Glasserman 2003, section 4.7).  It
draws only the Gamma matrices, the same ones `simulate_cat` draws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .charfun import (UNIT_NODES, UNIT_WEIGHTS, GammaTimeChange, ModelParams,
                      transformed_timechange)
from .cosine import ContractSpec
from .errors import DomainError
from .seasonal import eval_seasonal, k1

PATH_BLOCK = 128
CHUNK_STEPS = 512
D_CAP = 40.0


@dataclass(frozen=True)
class SimConfig:
    """Simulation settings: step size (days), path count, seed and measure."""

    step: float = 1.0
    n_paths: int = 10_000
    seed: int = 0
    measure: str = "P"
    theta: float = 0.0

    def __post_init__(self):
        if not self.step > 0.0:
            raise DomainError(f"step must be > 0, got {self.step}")
        if self.n_paths < 1:
            raise DomainError(f"n_paths must be >= 1, got {self.n_paths}")
        if self.measure not in ("P", "Q"):
            raise DomainError(f"measure must be 'P' or 'Q', got {self.measure!r}")


def gamma_increment(rng: np.random.Generator, shape: float, rate: float, size=None):
    """Gamma subordinator increment(s): Gamma(shape, rate) draws.

    Deterministic given the generator state; strictly positive (numpy may
    return exact 0.0 in the shape -> 0 degenerate limit, which is the
    correct limiting law).
    """
    if not (shape > 0.0 and rate > 0.0):
        raise DomainError(f"need shape > 0 and rate > 0, got {shape}, {rate}")
    return rng.gamma(shape, 1.0 / rate, size)


def block_rng(seed: int, block: int) -> np.random.Generator:
    """Counter-based generator for one path block."""
    key = np.array([np.uint64(seed & 0xFFFFFFFFFFFFFFFF), np.uint64(block)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _effective_timechange(p: ModelParams, cfg: SimConfig) -> GammaTimeChange:
    if cfg.measure == "Q":
        return transformed_timechange(p.timechange, cfg.theta)
    return p.timechange


def _step_tables(p: ModelParams, tc: GammaTimeChange, n_steps: int, step: float):
    """Per-step constants: drift increments, the dR coefficient of the mean
    part and the Gaussian part's variance per unit dR."""
    alpha = p.alpha
    times = np.arange(n_steps + 1) * step
    decay = np.exp(-alpha * step)
    k1_seas = k1(times, alpha, p.seasonal)
    drift = alpha * (k1_seas[1:] - decay * k1_seas[:-1])
    k1_vol = k1(times, alpha, p.vol)
    g1 = k1_vol[1:] - decay * k1_vol[:-1]

    # G2 by the unit Gauss-Legendre rule scaled to each step (sigma^2 is not
    # in the linear-plus-harmonic family, so no shared closed form)
    nodes = times[:-1, None] + step * UNIT_NODES
    sig2 = eval_seasonal(p.vol, nodes) ** 2
    kern2 = np.exp(-2.0 * alpha * (times[1:, None] - nodes))
    g2 = step * ((sig2 * kern2) @ UNIT_WEIGHTS)

    # the mean part mu1 (G1/D) dR carries mu1^2 (a/b^2) G1^2/D of variance,
    # the model mu1^2 (a/b^2) G2; the Gaussian part adds the difference
    # (>= 0 by Cauchy-Schwarz), so each step's variance is the model's
    drift_scale = tc.mu1 * g1 / step
    gauss_scale2 = g2 / step + tc.mu1 ** 2 * (g2 - g1 ** 2 / step) / (tc.b * step)
    return drift, drift_scale, gauss_scale2


def _n_steps(horizon: float, step: float) -> int:
    n_float = horizon / step
    n_steps = int(round(n_float))
    if abs(n_float - n_steps) > 1e-9 or n_steps < 1:
        raise DomainError(f"horizon {horizon} is not a positive multiple of step {step}")
    return n_steps


def _clock_chunks(tc: GammaTimeChange, cfg: SimConfig,
                  n_steps: int) -> Iterator[tuple[np.random.Generator, slice, slice, np.ndarray]]:
    """Yield (rng, paths, steps, d_r): the Gamma clock increments d_r of the
    steps in `steps` for the paths in `paths`, shape (steps, paths).

    Block ``i`` holds the PATH_BLOCK paths from PATH_BLOCK * i on and draws from
    rng = Philox(key=[seed, i]), one chunk of at most CHUNK_STEPS steps at a
    time, a (steps, PATH_BLOCK) Gamma matrix first.  Draws are always full
    width, so a path's draws are a pure function of (seed, block, row), never
    of n_paths; rows beyond n_paths are dropped.  A caller that draws more
    per chunk does so from `rng` before asking for the next chunk.
    """
    shape = tc.a * cfg.step
    for blk in range(-(-cfg.n_paths // PATH_BLOCK)):
        rng = block_rng(cfg.seed, blk)
        paths = slice(blk * PATH_BLOCK, min((blk + 1) * PATH_BLOCK, cfg.n_paths))
        rows = paths.stop - paths.start
        for j0 in range(0, n_steps, CHUNK_STEPS):
            steps = slice(j0, min(j0 + CHUNK_STEPS, n_steps))
            d_r = rng.standard_gamma(shape, (steps.stop - j0, PATH_BLOCK))[:, :rows] / tc.b
            yield rng, paths, steps, d_r


def _increments(p: ModelParams, cfg: SimConfig, n_steps: int) -> Iterator[tuple[slice, int, np.ndarray]]:
    """Yield (paths, first_step, inc): the increments inc_j of steps
    first_step.. for the paths in the slice, shape (steps, paths), where
    T_{j+1} = decay T_j + inc_j.

    Each chunk draws its Gamma clock (`_clock_chunks`), then a normal matrix
    of the same (steps, PATH_BLOCK) shape.
    """
    tc = _effective_timechange(p, cfg)
    drift, drift_scale, gauss_scale2 = _step_tables(p, tc, n_steps, cfg.step)
    for rng, paths, steps, d_r in _clock_chunks(tc, cfg, n_steps):
        z = rng.standard_normal((len(d_r), PATH_BLOCK))[:, :d_r.shape[1]]
        inc = (drift[steps, None] + drift_scale[steps, None] * d_r
               + np.sqrt(gauss_scale2[steps, None] * d_r) * z)
        yield paths, steps.start, inc


def simulate_paths(p: ModelParams, cfg: SimConfig, horizon: float) -> tuple[np.ndarray, np.ndarray]:
    """Simulate cfg.n_paths trajectories on [0, horizon].

    Returns (times, paths) with times of length horizon/step + 1 (including
    t = 0) and paths of shape (n_paths, len(times)).  Bit-reproducible for
    fixed (seed, params, horizon, step).
    """
    n_steps = _n_steps(horizon, cfg.step)
    decay = np.exp(-p.alpha * cfg.step)
    out = np.empty((cfg.n_paths, n_steps + 1))
    out[:, 0] = p.t0
    for paths, j0, inc in _increments(p, cfg, n_steps):
        prev = out[paths, j0]
        for row in inc:  # the AR(1) recursion, in place over the chunk
            row += decay * prev
            prev = row
        out[paths, j0 + 1:j0 + 1 + len(inc)] = inc.T
    return np.arange(n_steps + 1) * cfg.step, out


def _cat_weights(p: ModelParams, cfg: SimConfig, horizon_T: int):
    """(T, base, weights) of the CAT reduction at daily steps: with
    T_k = decay^k T_0 + sum_{i<k} decay^(k-1-i) inc_i,

        xi  = base[0] + weights[0] @ inc,  base[0] = T_0 sum_{k=1}^T decay^k,
              weights[0]_i = expm1(-alpha (T - i)) / expm1(-alpha),
        T_T = base[1] + weights[1] @ inc,  base[1] = T_0 decay^T,
              weights[1]_i = decay^(T-1-i).
    """
    if abs(cfg.step - 1.0) > 1e-12:
        raise DomainError("CAT simulation requires step = 1 day")
    horizon_T = _n_steps(float(int(horizon_T)), 1.0)  # int days, >= 1
    days = np.arange(horizon_T)
    decay = np.exp(-p.alpha)
    base = np.array([p.t0 * np.sum(decay ** (days + 1.0)), p.t0 * decay ** horizon_T])
    weights = np.stack([np.expm1(-p.alpha * (horizon_T - days)) / np.expm1(-p.alpha),
                        decay ** (horizon_T - 1 - days)])
    return horizon_T, base, weights


def simulate_cat(p: ModelParams, cfg: SimConfig, horizon_T: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-path cumulated temperature xi = sum_{k=1}^T T_k and terminal T_T.

    Requires daily steps (the CAT index sums daily values).  No path is
    built: each chunk's increments are reduced by their closed-form
    weights (`_cat_weights`).
    """
    horizon_T, base, weights = _cat_weights(p, cfg, horizon_T)
    sums = np.empty((2, cfg.n_paths))
    sums[:] = base[:, None]
    for paths, j0, inc in _increments(p, cfg, horizon_T):
        sums[:, paths] += weights[:, j0:j0 + len(inc)] @ inc
    return sums[0], sums[1]


def _norm_cdf(d: np.ndarray) -> np.ndarray:
    """Standard normal CDF, elementwise, through math.erfc (numpy has none)."""
    z = np.ravel(d) * -np.sqrt(0.5)
    return 0.5 * np.fromiter(map(math.erfc, z.tolist()), float, z.size).reshape(np.shape(d))


def _gaussian_call(m: np.ndarray, s: np.ndarray, strike: float) -> np.ndarray:
    """Bachelier call E[(X - strike)^+] for X ~ N(m, s^2), elementwise:
    (m - K) Phi(d) + s phi(d), d = (m - K)/s.  Where s = 0 it pays the
    intrinsic value.  |d| is capped at D_CAP, beyond which Phi(d) is 0 or 1
    and phi(d) is 0 in double precision, so the cap changes no value."""
    x = m - strike
    d = np.clip(np.divide(x, s, out=np.sign(x) * D_CAP, where=s > 0.0), -D_CAP, D_CAP)
    return x * _norm_cdf(d) + s * np.exp(-0.5 * d * d) / np.sqrt(2.0 * np.pi)


def mc_price_cat(contract: ContractSpec, p: ModelParams, theta: float,
                 cfg: SimConfig) -> tuple[float, float]:
    """Conditional (Rao-Blackwellised) Monte Carlo strangle price under the
    theta-tilted measure.

    Given a path's Gamma clock increments dR, the simulator's CAT index is
    exactly Gaussian with mean m = base + sum_i w_i (drift_i + drift_scale_i dR_i)
    and variance s^2 = sum_i w_i^2 gauss_scale2_i dR_i (w: the CAT weights,
    the rest from `_step_tables`), so the strangle pays
    d1 C(m, s, K1) + d2 P(m, s, K2) in expectation, C and P the Bachelier
    legs.  The estimator averages that over paths: only the clock is drawn
    (the Gamma stream `simulate_cat` draws, no normals), and its variance is
    that of the conditional payoff, never more than the plain payoff's.

    Returns (price, standard error of the mean).
    """
    run_cfg = SimConfig(step=cfg.step, n_paths=cfg.n_paths, seed=cfg.seed,
                        measure="Q", theta=theta)
    horizon_T, base, weights = _cat_weights(p, run_cfg, contract.horizon_T)
    tc = _effective_timechange(p, run_cfg)
    drift, drift_scale, gauss_scale2 = _step_tables(p, tc, horizon_T, 1.0)
    w = weights[0]
    coef = np.stack([w * drift_scale, w * w * gauss_scale2])
    moments = np.zeros((2, cfg.n_paths))
    for _, paths, steps, d_r in _clock_chunks(tc, run_cfg, horizon_T):
        moments[:, paths] += coef[:, steps] @ d_r
    m = base[0] + w @ drift + moments[0]
    s = np.sqrt(moments[1])
    # the put leg E[(K2 - X)^+] is the call on -X ~ N(-m, s^2) struck at -K2
    payoff = (contract.d1 * _gaussian_call(m, s, contract.k1_strike)
              + contract.d2 * _gaussian_call(-m, s, -contract.k2_strike))
    disc = contract.discount
    n = payoff.size
    price = disc * float(np.mean(payoff))
    stderr = disc * float(np.std(payoff, ddof=1) / np.sqrt(n)) if n > 1 else 0.0
    return price, stderr


def empirical_charfun(samples, u):
    """Empirical characteristic function (1/n) sum exp(i u x_j)."""
    x = np.asarray(samples, float)
    if x.size == 0:
        raise DomainError("empirical charfun of an empty sample")
    u_arr = np.asarray(u, float)
    out = np.mean(np.exp(1j * np.multiply.outer(u_arr, x)), axis=-1)
    return out if u_arr.ndim else complex(out)
