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
transition.  Each simulator takes the tilt theta as an argument (0, the
default, is P) and applies it once at its top: under Q(theta) the
transformed parameters mu1' = mu1 + theta, b' = b A1(theta) are used.

Randomness is one SFC64 stream per kind of variate per call: stream 0
draws the Gamma clock and stream 1 the normals, seeded by (seed, stream)
(fixed width, see `block_rng`).  Draws are path-major: each stream draws
(rows, n_steps) matrices in row order, for the rows asked for and no
others, in runs of rows that hold at most DRAW_SIZE variates.  Numpy fills an array
in sequence, so a path's draws depend only on (seed, row) -- never on
n_paths or on the run edges.  The AR(1) recursion of `simulate_paths` then
runs once over all paths.

The Monte Carlo strangle price `mc_price_cat` is a conditional
(Rao-Blackwellised) estimator: given a path's Gamma clock the CAT index is
Gaussian, so each path contributes the closed-form (Bachelier) expectation
of the payoff -- the Gamma mixture of Gaussians of Madan, Carr & Chang
(1998), used as conditional Monte Carlo (Glasserman 2003, section 4.7).  It
draws only the Gamma clock (stream 0), the same one `simulate_cat` draws.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from ._normal import _norm_cdf
from .charfun import (UNIT_NODES, UNIT_WEIGHTS, GammaTimeChange, ModelParams,
                      cat_day_weights, transformed_timechange)
from .cosine import ContractSpec
from .errors import DomainError
from .seasonal import eval_seasonal, k1

DRAW_SIZE = 65_536  # one draw holds at most this many variates (or one path)
D_CAP = 40.0


@dataclass(frozen=True)
class SimConfig:
    """Simulation settings: step size (days), path count and seed."""

    step: float = 1.0
    n_paths: int = 10_000
    seed: int = 0

    def __post_init__(self):
        if not self.step > 0.0:
            raise DomainError(f"step must be > 0, got {self.step}")
        if self.n_paths < 1:
            raise DomainError(f"n_paths must be >= 1, got {self.n_paths}")


def block_rng(seed: int, stream: int) -> np.random.Generator:
    """SFC64 generator of one stream of a seed, seeded by
    SeedSequence(seed mod 2**64, spawn_key=(stream,)): stream 0 draws the
    Gamma clock, stream 1 the normals.

    With a spawn key SeedSequence pads the entropy to its four-word pool
    before appending the key, so the entropy has a fixed width and no two
    (seed mod 2**64, stream) pairs share a stream."""
    entropy = np.random.SeedSequence(seed & 0xFFFFFFFFFFFFFFFF, spawn_key=(stream,))
    return np.random.Generator(np.random.SFC64(entropy))


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
                  n_steps: int) -> Iterator[tuple[slice, np.ndarray]]:
    """Yield (paths, d_r): the Gamma clock increments d_r of all n_steps
    steps for the paths in `paths`, shape (paths, n_steps).

    Stream 0 of the seed (`block_rng`) draws them in row order, in runs of
    DRAW_SIZE // n_steps rows (at least one), so a path's draws are a pure
    function of (seed, row), never of n_paths or of the row split.
    """
    clock = block_rng(cfg.seed, 0)
    run = max(1, DRAW_SIZE // n_steps)
    for row in range(0, cfg.n_paths, run):
        paths = slice(row, min(row + run, cfg.n_paths))
        yield paths, clock.standard_gamma(tc.a * cfg.step, (paths.stop - row, n_steps)) / tc.b


def _increments(p: ModelParams, tc: GammaTimeChange, cfg: SimConfig,
                n_steps: int) -> Iterator[tuple[slice, np.ndarray]]:
    """Yield (paths, inc): the increments inc_j of all steps for the paths in
    the slice, shape (paths, n_steps), where T_{j+1} = decay T_j + inc_j, on
    the (tilted) time change tc.  The normals z come from stream 1, drawn in
    the clock's run shapes."""
    drift, drift_scale, gauss_scale2 = _step_tables(p, tc, n_steps, cfg.step)
    noise = block_rng(cfg.seed, 1)
    for paths, d_r in _clock_chunks(tc, cfg, n_steps):
        z = noise.standard_normal(d_r.shape)
        yield paths, drift + drift_scale * d_r + np.sqrt(gauss_scale2 * d_r) * z


def simulate_paths(p: ModelParams, cfg: SimConfig, horizon: float,
                   theta: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """Simulate cfg.n_paths trajectories on [0, horizon] under the
    theta-tilted measure (theta = 0 is P).

    Returns (times, paths) with times of length horizon/step + 1 (including
    t = 0) and paths of shape (n_paths, len(times)).  Bit-reproducible for
    fixed (seed, params, theta, horizon, step).
    """
    tc = transformed_timechange(p.timechange, theta)
    n_steps = _n_steps(horizon, cfg.step)
    decay = np.exp(-p.alpha * cfg.step)
    out = np.empty((cfg.n_paths, n_steps + 1))
    out[:, 0] = p.t0
    for paths, inc in _increments(p, tc, cfg, n_steps):
        out[paths, 1:] = inc
    for j in range(1, n_steps + 1):  # the AR(1) recursion, once over all paths
        out[:, j] += decay * out[:, j - 1]
    return np.arange(n_steps + 1) * cfg.step, out


def _cat_weights(p: ModelParams, cfg: SimConfig, horizon_T: int):
    """(T, base, weights) of the CAT reduction at daily steps: with
    T_k = decay^k T_0 + sum_{i<k} decay^(k-1-i) inc_i,

        xi  = base[0] + weights[0] @ inc,  base[0] = T_0 sum_{k=1}^T decay^k,
              weights[0]_i = expm1(-alpha (T - i)) / expm1(-alpha) (`cat_day_weights`),
        T_T = base[1] + weights[1] @ inc,  base[1] = T_0 decay^T,
              weights[1]_i = decay^(T-1-i).
    """
    if abs(cfg.step - 1.0) > 1e-12:
        raise DomainError("CAT simulation requires step = 1 day")
    horizon_T = _n_steps(float(int(horizon_T)), 1.0)  # int days, >= 1
    days = np.arange(horizon_T)
    decay = np.exp(-p.alpha)
    base = np.array([p.t0 * np.sum(decay ** (days + 1.0)), p.t0 * decay ** horizon_T])
    weights = np.stack([cat_day_weights(p.alpha, horizon_T), decay ** (horizon_T - 1 - days)])
    return horizon_T, base, weights


def simulate_cat(p: ModelParams, cfg: SimConfig, horizon_T: int,
                 theta: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """Per-path cumulated temperature xi = sum_{k=1}^T T_k and terminal T_T,
    under the theta-tilted measure (theta = 0 is P).

    Requires daily steps (the CAT index sums daily values).  No path is
    built: each run's increments are reduced by their closed-form weights
    (`_cat_weights`).
    """
    tc = transformed_timechange(p.timechange, theta)
    horizon_T, base, weights = _cat_weights(p, cfg, horizon_T)
    sums = np.empty((2, cfg.n_paths))
    sums[:] = base[:, None]
    for paths, inc in _increments(p, tc, cfg, horizon_T):
        sums[:, paths] += weights @ inc.T
    return sums[0], sums[1]


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
    (the Gamma stream `simulate_cat` draws; the normal stream is never
    seeded), and its variance is that of the conditional payoff, never more
    than the plain payoff's.  `cfg` gives the path count, seed and (daily)
    step.

    Returns (price, standard error of the mean).
    """
    tc = transformed_timechange(p.timechange, theta)
    horizon_T, base, weights = _cat_weights(p, cfg, contract.horizon_T)
    drift, drift_scale, gauss_scale2 = _step_tables(p, tc, horizon_T, 1.0)
    w = weights[0]
    coef = np.stack([w * drift_scale, w * w * gauss_scale2])
    moments = np.zeros((2, cfg.n_paths))
    for paths, d_r in _clock_chunks(tc, cfg, horizon_T):
        moments[:, paths] += coef @ d_r.T
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

