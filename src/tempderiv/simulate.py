"""Path simulation of the temperature process and Monte Carlo oracles.

One step of size D uses the exact solution of the mean-reverting dynamics:

    T_{t+D} = e^{-aD} T_t + alpha * [K1(t+D) - e^{-aD} K1(t)]
              + mu1' * (G1_j / D) * dR + sqrt(G2_j / D * dR) * Z,

with dR ~ Gamma(a*D, rate b'), Z standard normal, and kernel-exact noise
scales G1_j = int_step sigma_u e^{-alpha(t+D-u)} du (closed form) and
G2_j = int_step sigma_u^2 e^{-2 alpha(t+D-u)} du (the package's 8-node
Gauss-Legendre rule, scaled to the step).
Conditionally on dR the increment is Gaussian, its first two cumulants
match the model exactly, and the Brownian limit reproduces the exact
mean-reverting transition.  Under the tilted measure Q(theta) the
transformed parameters mu1' = mu1 + theta, b' = b A1(theta) are used.

Randomness is counter-based and scheduling-independent: paths are grouped
in fixed blocks of 4096, block ``i`` draws from Philox(key=[seed, i]), and
a path's draws depend only on (seed, block, row) -- never on n_paths.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .charfun import UNIT_NODES, UNIT_WEIGHTS, GammaTimeChange, ModelParams
from .cosine import ContractSpec
from .errors import DomainError
from .esscher import transformed_timechange
from .seasonal import eval_seasonal, k1

PATH_BLOCK = 4096


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


def _step_tables(p: ModelParams, n_steps: int, step: float):
    """Per-step deterministic constants: drift increments and noise scales."""
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
    return decay, drift, g1, g2


def iter_path_blocks(p: ModelParams, cfg: SimConfig, horizon: float) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (first_path_index, block_paths) with block_paths of shape (rows, n_steps+1).

    Full blocks of PATH_BLOCK rows are always generated so a path's draws do
    not depend on n_paths; trailing rows beyond n_paths are discarded.
    """
    n_float = horizon / cfg.step
    n_steps = int(round(n_float))
    if abs(n_float - n_steps) > 1e-9 or n_steps < 1:
        raise DomainError(f"horizon {horizon} is not a positive multiple of step {cfg.step}")
    tc = _effective_timechange(p, cfg)
    decay, drift, g1, g2 = _step_tables(p, n_steps, cfg.step)
    shape = tc.a * cfg.step
    drift_scale = tc.mu1 * g1 / cfg.step
    gauss_scale2 = g2 / cfg.step

    n_blocks = (cfg.n_paths + PATH_BLOCK - 1) // PATH_BLOCK
    for blk in range(n_blocks):
        rng = block_rng(cfg.seed, blk)
        rows = min(PATH_BLOCK, cfg.n_paths - blk * PATH_BLOCK)
        paths = np.empty((rows, n_steps + 1))
        cur = np.full(PATH_BLOCK, p.t0)
        paths[:, 0] = cur[:rows]
        # fixed call order (per step: gamma then normal) at full block width:
        # a path's draws are a pure function of (seed, block, row), never n_paths
        for j in range(n_steps):
            d_r = rng.standard_gamma(shape, PATH_BLOCK) / tc.b
            z = rng.standard_normal(PATH_BLOCK)
            cur = (decay * cur + drift[j]
                   + drift_scale[j] * d_r
                   + np.sqrt(gauss_scale2[j] * d_r) * z)
            paths[:, j + 1] = cur[:rows]
        yield blk * PATH_BLOCK, paths


def simulate_paths(p: ModelParams, cfg: SimConfig, horizon: float) -> tuple[np.ndarray, np.ndarray]:
    """Simulate cfg.n_paths trajectories on [0, horizon].

    Returns (times, paths) with times of length horizon/step + 1 (including
    t = 0) and paths of shape (n_paths, len(times)).  Bit-reproducible for
    fixed (seed, params, horizon, step).
    """
    n_steps = int(round(horizon / cfg.step))
    times = np.arange(n_steps + 1) * cfg.step
    out = np.empty((cfg.n_paths, n_steps + 1))
    for start, block in iter_path_blocks(p, cfg, horizon):
        out[start:start + block.shape[0]] = block
    return times, out


def simulate_cat(p: ModelParams, cfg: SimConfig, horizon_T: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-path cumulated temperature xi = sum_{k=1}^T T_k and terminal T_T.

    Requires daily steps (the CAT index sums daily values).
    """
    if abs(cfg.step - 1.0) > 1e-12:
        raise DomainError("CAT simulation requires step = 1 day")
    horizon_T = int(horizon_T)
    xi = np.empty(cfg.n_paths)
    terminal = np.empty(cfg.n_paths)
    for start, block in iter_path_blocks(p, cfg, float(horizon_T)):
        rows = block.shape[0]
        xi[start:start + rows] = block[:, 1:].sum(axis=1)
        terminal[start:start + rows] = block[:, -1]
    return xi, terminal


def mc_price_cat(contract: ContractSpec, p: ModelParams, theta: float,
                 cfg: SimConfig) -> tuple[float, float]:
    """Monte Carlo strangle price under the theta-tilted measure.

    Returns (price, standard error of the mean).
    """
    run_cfg = SimConfig(step=cfg.step, n_paths=cfg.n_paths, seed=cfg.seed,
                        measure="Q", theta=theta)
    xi, _ = simulate_cat(p, run_cfg, contract.horizon_T)
    payoff = (contract.d1 * np.maximum(xi - contract.k1_strike, 0.0)
              + contract.d2 * np.maximum(contract.k2_strike - xi, 0.0))
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
