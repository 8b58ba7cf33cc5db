"""Closed-form pricing: symmetric solution, leading-order correction, implied vol.

The symmetric solution C0 coincides with Black-Scholes at volatility sigma.
The leading-order correction C1 is the closed-form evaluation of the
Green's-function integral of the breaking operator applied to the symmetric
solution; it is identical for calls and puts, so put prices follow from
parity on the symmetric part.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from .errors import NoConvergence, OutOfBounds
from .params import DerivedParams, MgParams, OptionSpec, PerturbParams, derive_params

IV_MIN = 1e-4
IV_MAX = 5.0
IV_PRICE_TOL = 1e-9
IV_MAX_ITER = 100


@dataclass(frozen=True)
class PriceBreakdown:
    """Price split into symmetric part and leading-order correction."""

    c0: float
    c1: float
    total: float
    d1: float
    d2: float


def normal_cdf(d):
    """Standard normal CDF, accurate to ~1e-15 absolute; total on finite input."""
    return ndtr(d)


def bs_price(spot, strike, tau, r, sigma, kind="call"):
    """Black-Scholes price, vectorized; exact payoff at tau = 0 or sigma = 0."""
    spot = np.asarray(spot, dtype=float)
    strike = np.asarray(strike, dtype=float)
    tau = np.asarray(tau, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    stt = sigma * np.sqrt(tau)
    with np.errstate(divide="ignore", invalid="ignore"):
        d1 = (np.log(spot / strike) + (r + 0.5 * sigma**2) * tau) / stt
    d2 = d1 - stt
    disc = np.exp(-r * tau)
    call = np.where(
        stt > 0,
        spot * ndtr(d1) - strike * disc * ndtr(d2),
        np.maximum(spot - strike * disc, 0.0),
    )
    if kind == "call":
        out = call
    else:
        out = call - spot + strike * disc
    return out if out.ndim else float(out)


def bs_vega(spot, strike, tau, r, sigma):
    spot = np.asarray(spot, dtype=float)
    stt = sigma * np.sqrt(tau)
    with np.errstate(divide="ignore", invalid="ignore"):
        d1 = (np.log(spot / strike) + (r + 0.5 * sigma**2) * tau) / stt
    out = spot * np.sqrt(tau) * np.exp(-0.5 * d1**2) / math.sqrt(2.0 * math.pi)
    return np.where(stt > 0, out, 0.0)


def d1_d2(opt: OptionSpec, sigma: float, r: float) -> tuple[float, float]:
    """Black-Scholes arguments; (inf, inf) signs at tau = 0 by moneyness."""
    stt = sigma * math.sqrt(opt.tau_cal)
    if stt == 0.0:
        s = math.inf if opt.spot >= opt.strike else -math.inf
        return s, s
    d1 = (math.log(opt.spot / opt.strike) + (r + 0.5 * sigma**2) * opt.tau_cal) / stt
    return d1, d1 - stt


def price_symmetric(opt: OptionSpec, pert: PerturbParams, r: float) -> float:
    """Symmetric-model price: Black-Scholes at sigma, put via parity."""
    return bs_price(opt.spot, opt.strike, opt.tau_cal, r, pert.sigma, opt.kind)


def perturb_correction(
    opt: OptionSpec, pert: PerturbParams, deriv: DerivedParams, r: float
) -> float:
    """Leading-order correction C1 = P1 (same value for calls and puts).

    Evaluated through its log-prefactor to avoid overflow of
    (S/K)^(1/2 - r/sigma^2) at extreme moneyness; 0 at tau_cal = 0 by
    continuous extension.
    """
    tau_c = opt.tau_cal
    if tau_c == 0.0:
        return 0.0
    sigma2 = pert.sigma**2
    r2 = deriv.r2
    x = math.log(opt.spot / opt.strike)
    log_mag = (
        math.log(opt.strike)
        + (0.5 - r / sigma2) * x
        - (4.0 * x**2 + (2.0 * r + sigma2) ** 2 * tau_c**2) / (8.0 * sigma2 * tau_c)
        - math.log(2.0 * math.sqrt(2.0 * math.pi) * abs(r2) * math.sqrt(sigma2 * tau_c))
    )
    bracket = -0.5 * sigma2**2 * r2 * tau_c + opt.variance * math.expm1(
        0.5 * sigma2 * r2 * tau_c
    )
    return -math.copysign(1.0, r2) * math.exp(log_mag) * bracket


def correction_root_variance(pert: PerturbParams, deriv: DerivedParams, tau_cal: float) -> float:
    """Variance at which the correction's bracket (hence C1) changes sign."""
    sigma2 = pert.sigma**2
    z = 0.5 * sigma2 * deriv.r2 * tau_cal
    return 0.5 * sigma2**2 * deriv.r2 * tau_cal / math.expm1(z)


def price_mg(opt: OptionSpec, mg: MgParams, pert: PerturbParams) -> PriceBreakdown:
    """Full perturbative price C0 + C1 with the Black-Scholes arguments."""
    deriv = derive_params(mg, pert)
    c0 = price_symmetric(opt, pert, mg.r)
    c1 = perturb_correction(opt, pert, deriv, mg.r)
    d1, d2 = d1_d2(opt, pert.sigma, mg.r)
    return PriceBreakdown(c0=c0, c1=c1, total=c0 + c1, d1=d1, d2=d2)


def implied_vol(price: float, opt: OptionSpec, r: float) -> float:
    """Invert Black-Scholes for the volatility reproducing `price`.

    Newton on vega with a bisection safeguard on [IV_MIN, IV_MAX]; price
    reproduced to IV_PRICE_TOL currency units.  Raises OutOfBounds when the
    price violates the no-arbitrage bracket and NoConvergence past the
    iteration cap.
    """
    if opt.tau_cal <= 0:
        raise OutOfBounds("tau_cal must be > 0 for implied volatility")
    disc = math.exp(-r * opt.tau_cal)
    if opt.is_call:
        lo_bound = max(opt.spot - opt.strike * disc, 0.0)
        hi_bound = opt.spot
    else:
        lo_bound = max(opt.strike * disc - opt.spot, 0.0)
        hi_bound = opt.strike * disc
    if price < lo_bound or price >= hi_bound:
        raise OutOfBounds(
            f"price {price} outside no-arbitrage range [{lo_bound}, {hi_bound})"
        )

    def f(s):
        return bs_price(opt.spot, opt.strike, opt.tau_cal, r, s, opt.kind) - price

    lo, hi = IV_MIN, IV_MAX
    f_lo = f(lo)
    if f_lo >= 0.0:
        # price at or below the lowest representable vol; clamp to the domain edge
        return IV_MIN
    if f(hi) <= 0.0:
        raise NoConvergence(f"price {price} not attainable below sigma = {IV_MAX}")

    sigma = min(max(0.5 * (lo + hi), 0.2), 1.0)
    for _ in range(IV_MAX_ITER):
        diff = f(sigma)
        if abs(diff) <= IV_PRICE_TOL:
            return sigma
        if diff > 0:
            hi = sigma
        else:
            lo = sigma
        vega = bs_vega(opt.spot, opt.strike, opt.tau_cal, r, sigma)
        if vega > 1e-12:
            step = sigma - diff / float(vega)
        else:
            step = 0.5 * (lo + hi)
        sigma = step if lo < step < hi else 0.5 * (lo + hi)
    raise NoConvergence(f"implied vol did not converge after {IV_MAX_ITER} iterations")


def implied_vol_array(prices, spot, strikes, tau, r, kind="call"):
    """Vectorized implied-vol inversion; NaN where the price is uninvertible.

    Same bracket and tolerance as implied_vol; bisection with a Newton
    acceleration step, which is robust for noisy Monte Carlo prices.  An
    entry that is still outside the tolerance after IV_MAX_ITER iterations
    is NaN too, where implied_vol raises NoConvergence.
    """
    prices = np.asarray(prices, dtype=float)
    spot_b, strikes_b, prices = np.broadcast_arrays(
        np.asarray(spot, dtype=float), np.asarray(strikes, dtype=float), prices
    )
    disc = math.exp(-r * tau)
    if kind == "call":
        lo_bound = np.maximum(spot_b - strikes_b * disc, 0.0)
        hi_bound = spot_b
    else:
        lo_bound = np.maximum(strikes_b * disc - spot_b, 0.0)
        hi_bound = strikes_b * disc
    ok = (prices >= lo_bound) & (prices < hi_bound)

    lo = np.full(prices.shape, IV_MIN)
    hi = np.full(prices.shape, IV_MAX)
    f_lo = bs_price(spot_b, strikes_b, tau, r, lo, kind) - prices
    f_hi = bs_price(spot_b, strikes_b, tau, r, hi, kind) - prices
    clamp_lo = ok & (f_lo >= 0)
    bad_hi = ok & (f_hi <= 0)
    active = ok & ~clamp_lo & ~bad_hi

    sigma = np.full(prices.shape, 0.3)
    for _ in range(IV_MAX_ITER):
        diff = bs_price(spot_b, strikes_b, tau, r, sigma, kind) - prices
        done = np.abs(diff) <= IV_PRICE_TOL
        if np.all(done | ~active):
            break
        hi = np.where(active & (diff > 0), sigma, hi)
        lo = np.where(active & (diff <= 0), sigma, lo)
        vega = bs_vega(spot_b, strikes_b, tau, r, sigma)
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = sigma - diff / vega
        mid = 0.5 * (lo + hi)
        step = np.where((vega > 1e-12) & (newton > lo) & (newton < hi), newton, mid)
        sigma = np.where(active & ~done, step, sigma)
    else:
        # iteration cap: entries still outside the tolerance have no answer
        ok &= done | ~active

    out = np.where(ok, sigma, np.nan)
    out = np.where(clamp_lo, IV_MIN, out)
    out = np.where(bad_hi, np.nan, out)
    return out
