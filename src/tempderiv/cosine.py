"""Fourier-cosine machinery: density recovery and strangle pricing.

A density supported (numerically) on [b1, b2] is expanded as

    f(x) ~= sum'_{k=0..N} A_k cos(k pi (x - b1)/(b2 - b1)),
    A_k   = 2/(b2-b1) Re[ exp(-i k pi b1/(b2-b1)) phi(k pi/(b2-b1)) ],

where sum' halves the k = 0 term (A_0 is stored unhalved here; consumers
apply the 1/2 weight).  Payoff integrals against the cosine basis have
closed forms, so call/put legs reduce to dot products of the coefficient
vector with per-term payoff integrals over the clipped support.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .charfun import ModelParams, charfun_cat
from .errors import DomainError


class PricingWarning(UserWarning):
    """Raised-to-the-user diagnostics of the cosine expansion (clamps, tails)."""


@dataclass(frozen=True)
class CosGrid:
    """Truncation interval [b1, b2] and term counts for the two legs."""

    b1: float
    b2: float
    n1: int = 256
    n2: int = 256

    def __post_init__(self):
        if not self.b1 < self.b2:
            raise DomainError(f"need b1 < b2, got [{self.b1}, {self.b2}]")
        if self.n1 < 1 or self.n2 < 1:
            raise DomainError("term counts must be >= 1")

    @property
    def width(self) -> float:
        return self.b2 - self.b1


@dataclass(frozen=True)
class ContractSpec:
    """Strangle on the cumulated temperature over horizon_T days.

    Pays d1 (xi - K1)_+ + d2 (K2 - xi)_+ discounted at the yearly rate
    rate_r over T/365.  K1 >= K2, of any sign (the CAT index in degrees C is
    negative over a cold month); equal strikes give a straddle.
    """

    horizon_T: int
    k1_strike: float
    k2_strike: float
    d1: float
    d2: float
    rate_r: float

    def __post_init__(self):
        if self.horizon_T < 1:
            raise DomainError("horizon_T must be a positive number of days")
        if not self.k1_strike >= self.k2_strike:
            raise DomainError(
                f"strikes must satisfy K1 >= K2, got K1={self.k1_strike}, K2={self.k2_strike}"
            )
        if self.d1 < 0.0 or self.d2 < 0.0:
            raise DomainError("tick sizes must be >= 0")
        if self.rate_r < 0.0:
            raise DomainError("interest rate must be >= 0")

    @property
    def discount(self) -> float:
        return float(np.exp(-self.rate_r * self.horizon_T / 365.0))


def truncation_bounds(mean: float, variance: float, l_mult: float = 10.0) -> tuple[float, float]:
    """Cumulant-based truncation interval mean -/+ l_mult * sqrt(variance)."""
    if variance < 0.0:
        raise DomainError(f"variance must be >= 0, got {variance}")
    if l_mult < 0.0:
        raise DomainError(f"l_mult must be >= 0, got {l_mult}")
    half = l_mult * np.sqrt(variance)
    return (mean - half, mean + half)


def cos_coefficients(charfun_at, grid: CosGrid, count: int) -> np.ndarray:
    """Expansion coefficients A_0..A_count (A_0 stored unhalved).

    `charfun_at` maps an array of real u to complex phi(u) and must satisfy
    phi(0) = 1 to 1e-10.  Where phi is 0 (charfun_cat below its floor) A_k is 0.
    """
    width = grid.width
    k = np.arange(count + 1)
    u = k * np.pi / width
    phi = np.asarray(charfun_at(u), complex)
    if abs(phi[0] - 1.0) > 1e-10:
        raise DomainError(f"charfun normalisation violated: phi(0) = {phi[0]}")
    return (2.0 / width) * (np.exp(-1j * k * np.pi * grid.b1 / width) * phi).real


def _psi_chi(k: np.ndarray, grid: CosGrid, lower: float, upper: float):
    """Closed-form cosine integrals over [lower, upper], b1 <= lower <= upper <= b2:

    psi_k = int cos(k pi (x-b1)/(b2-b1)) dx,
    chi_k = int x cos(k pi (x-b1)/(b2-b1)) dx.
    """
    k = np.asarray(k, float)
    psi = np.empty_like(k)
    chi = np.empty_like(k)
    zero = k == 0
    psi[zero] = upper - lower
    chi[zero] = 0.5 * (upper * upper - lower * lower)
    kp = k[~zero]
    if kp.size:
        om = kp * np.pi / grid.width
        su, sl = np.sin(om * (upper - grid.b1)), np.sin(om * (lower - grid.b1))
        cu, cl = np.cos(om * (upper - grid.b1)), np.cos(om * (lower - grid.b1))
        psi[~zero] = (su - sl) / om
        chi[~zero] = (upper * su - lower * sl) / om + (cu - cl) / om**2
    return psi, chi


def _leg_terms(coeffs: np.ndarray, grid: CosGrid, strike: float, call: bool) -> np.ndarray:
    """Per-term contributions A_k * U_k of the call (xi - K)_+ or put (K - xi)_+
    leg (k = 0 term already halved)."""
    n = coeffs.size - 1
    if call:
        lower, upper = max(grid.b1, strike), grid.b2
    else:
        lower, upper = grid.b1, min(grid.b2, strike)
    if lower >= upper:
        where = (f"call strike {strike} at or above b2={grid.b2}" if call
                 else f"put strike {strike} at or below b1={grid.b1}")
        warnings.warn(f"{where}: empty payoff support, leg = 0", PricingWarning)
        return np.zeros(n + 1)
    psi, chi = _psi_chi(np.arange(n + 1), grid, lower, upper)
    terms = coeffs * (chi - strike * psi if call else strike * psi - chi)
    terms[0] *= 0.5
    return terms


def _live_terms(coeffs: np.ndarray) -> int:
    """1 + the index of the last nonzero coefficient: every sum stops there."""
    return int(np.flatnonzero(coeffs)[-1]) + 1


def _tail_check(term_values: np.ndarray, label: str) -> None:
    n_tail = max(1, term_values.size // 10)
    tail = abs(float(np.sum(term_values[-n_tail:])))
    if tail > 1e-8:
        warnings.warn(
            f"{label} cosine expansion under-resolved: last-10%-of-terms contribution {tail:.3e}",
            PricingWarning,
        )


@dataclass(frozen=True)
class StrangleQuote:
    """A strangle price and its term-halving check, from one coefficient vector.

    `price_half_terms` prices with n1 // 2 and n2 // 2 terms (at least 1)
    on the same interval; `relative_change` is |price - price_half_terms|
    over |price| (over 1 when the price is 0).  `live_terms` counts the
    coefficients up to the last nonzero one, k = 0 included; beyond it
    |phi| < charfun.PHI_FLOOR and charfun_cat was not evaluated.
    """

    price: float
    price_half_terms: float
    relative_change: float
    live_terms: int


def price_strangle(contract: ContractSpec, p: ModelParams, theta: float,
                   grid: CosGrid) -> StrangleQuote:
    """Discounted strangle price from the exact-kernel CAT charfun.

    d1 e^{-rT/365} E_theta(xi - K1)_+ + d2 e^{-rT/365} E_theta(K2 - xi)_+.
    The charfun is evaluated once; the call leg uses the first n1 + 1
    coefficients and the put leg the first n2 + 1, and the half-term price
    sums a prefix of each leg's terms.
    """
    charfun_at = lambda u: charfun_cat(u, p, theta, contract.horizon_T)
    coeffs = cos_coefficients(charfun_at, grid, max(grid.n1, grid.n2))
    call_terms = _leg_terms(coeffs[: grid.n1 + 1], grid, contract.k1_strike, call=True)
    put_terms = _leg_terms(coeffs[: grid.n2 + 1], grid, contract.k2_strike, call=False)
    _tail_check(call_terms, "call leg")
    _tail_check(put_terms, "put leg")

    def value(n1: int, n2: int) -> float:
        call, put = np.sum(call_terms[: n1 + 1]), np.sum(put_terms[: n2 + 1])
        return float(contract.discount * (contract.d1 * call + contract.d2 * put))

    price = value(grid.n1, grid.n2)
    half = value(max(grid.n1 // 2, 1), max(grid.n2 // 2, 1))
    return StrangleQuote(price, half, abs(price - half) / (abs(price) if price != 0.0 else 1.0),
                         _live_terms(coeffs))


def density_from_charfun(charfun_at, grid: CosGrid, x, terms: int):
    """Reconstructed density at x in [b1, b2] (k = 0 term halved).

    A value whose magnitude is below the sum's a-priori rounding bound
    n eps sum_k |A_k| (n = terms + 1 coefficients A_k) is returned as 0:
    its sign and digits are rounding noise.  The cosine basis is evaluated
    for the coefficients up to the last nonzero one only.
    """
    x_arr = np.asarray(x, float)
    if np.any(x_arr < grid.b1) or np.any(x_arr > grid.b2):
        raise DomainError("density evaluation point outside the truncation interval")
    coeffs = cos_coefficients(charfun_at, grid, terms)
    k = np.arange(_live_terms(coeffs))
    weights = np.ones(terms + 1)
    weights[0] = 0.5
    # the columns beyond the live terms stay 0, so the product sums all terms + 1
    # columns in the order of the full basis: a (points x live) product rounds differently
    basis = np.zeros(x_arr.shape + coeffs.shape)
    np.cos(np.multiply.outer(x_arr - grid.b1, k) * np.pi / grid.width, out=basis[..., :k.size])
    out = basis @ (weights * coeffs)
    bound = coeffs.size * np.finfo(float).eps * np.sum(np.abs(coeffs))
    out = np.where(np.abs(out) < bound, 0.0, out)
    return out if out.ndim else float(out)
