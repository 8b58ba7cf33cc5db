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


def correction_kernel(x, tau, variance, sigma, r2, r, log_strike=0.0):
    """Leading-order correction C1 over arrays, as a multiple of the strike.

    x = log S/K, tau in years, variance V, R2 from params.correction_r2.
    Pass log_strike = log K for C1 itself.  Evaluated through its
    log-prefactor to avoid overflow of (S/K)^(1/2 - r/sigma^2) at extreme
    moneyness; 0 at tau = 0 by continuous extension.
    """
    # [()] makes 0-d input numpy scalars, whose arithmetic is several times cheaper
    x, tau, variance = (np.asarray(a, dtype=float)[()] for a in (x, tau, variance))
    sigma2 = sigma**2
    with np.errstate(divide="ignore", invalid="ignore"):
        log_mag = (
            log_strike
            + (0.5 - r / sigma2) * x
            - (4.0 * x**2 + (2.0 * r + sigma2) ** 2 * tau**2) / (8.0 * sigma2 * tau)
            - np.log(2.0 * math.sqrt(2.0 * math.pi) * np.abs(r2) * np.sqrt(sigma2 * tau))
        )
        bracket = -0.5 * sigma2**2 * r2 * tau + variance * np.expm1(0.5 * sigma2 * r2 * tau)
        out = np.where(tau > 0, -np.copysign(1.0, r2) * np.exp(log_mag) * bracket, 0.0)
    return out if out.ndim else float(out)


def perturb_correction(
    opt: OptionSpec, pert: PerturbParams, deriv: DerivedParams, r: float
) -> float:
    """Leading-order correction C1 = P1 (same value for calls and puts)."""
    return correction_kernel(
        math.log(opt.spot / opt.strike), opt.tau_cal, opt.variance, pert.sigma, deriv.r2, r,
        math.log(opt.strike),
    )


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


def _price_bracket(spot, strike, tau, r, kind):
    """No-arbitrage range [lo, hi) of a European option price."""
    kdisc = strike * math.exp(-r * tau)
    if kind == "call":
        return np.maximum(spot - kdisc, 0.0), spot
    return np.maximum(kdisc - spot, 0.0), kdisc


def implied_vol(price: float, opt: OptionSpec, r: float) -> float:
    """Invert Black-Scholes for the volatility reproducing `price`.

    implied_vol_array on one contract.  Raises OutOfBounds at tau_cal = 0 or
    when the price is outside the no-arbitrage bracket, and NoConvergence
    where implied_vol_array gives NaN: the price needs a volatility above
    IV_MAX, or the inversion reached IV_MAX_ITER iterations.
    """
    if opt.tau_cal <= 0:
        raise OutOfBounds("tau_cal must be > 0 for implied volatility")
    lo_bound, hi_bound = _price_bracket(opt.spot, opt.strike, opt.tau_cal, r, opt.kind)
    if not lo_bound <= price < hi_bound:
        raise OutOfBounds(
            f"price {price} outside no-arbitrage range [{lo_bound}, {hi_bound})"
        )
    sigma = float(implied_vol_array(price, opt.spot, opt.strike, opt.tau_cal, r, opt.kind))
    if math.isnan(sigma):
        raise NoConvergence(
            f"no volatility in [{IV_MIN}, {IV_MAX}] reproduces price {price} "
            f"within {IV_MAX_ITER} iterations"
        )
    return sigma


def implied_vol_array(prices, spot, strikes, tau, r, kind="call"):
    """Vectorized implied-vol inversion; NaN where the price is uninvertible.

    Bisection on [IV_MIN, IV_MAX] with a Newton acceleration step, which is
    robust for noisy Monte Carlo prices; the price is reproduced to
    IV_PRICE_TOL currency units.  A price at or below the IV_MIN price gives
    IV_MIN.  NaN marks a price outside the no-arbitrage bracket, one that
    needs a volatility above IV_MAX, and one still outside the tolerance
    after IV_MAX_ITER iterations.
    """
    prices = np.asarray(prices, dtype=float)
    spot, strikes, prices = np.broadcast_arrays(
        np.asarray(spot, dtype=float), np.asarray(strikes, dtype=float), prices
    )
    lo_bound, hi_bound = _price_bracket(spot, strikes, tau, r, kind)
    ok = (prices >= lo_bound) & (prices < hi_bound)
    ends = np.reshape([IV_MIN, IV_MAX], (2,) + (1,) * prices.ndim)
    f_lo, f_hi = bs_price(spot, strikes, tau, r, ends, kind) - prices
    clamp_lo = ok & (f_lo >= 0)
    active = ok & ~clamp_lo & (f_hi > 0)

    # the loop invariants of bs_price and bs_vega, in their expressions' order
    sqrt_tau = np.sqrt(tau)
    log_m = np.log(spot / strikes)
    kdisc = strikes * np.exp(-r * tau)
    spot_root = spot * sqrt_tau
    lo = np.full(prices.shape, IV_MIN)
    hi = np.full(prices.shape, IV_MAX)
    sigma = np.full(prices.shape, 0.3)
    # at tau = 0 nothing is active, and only the first price is computed
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(IV_MAX_ITER):
            stt = sigma * sqrt_tau
            d1 = (log_m + (r + 0.5 * sigma**2) * tau) / stt
            call = spot * ndtr(d1) - kdisc * ndtr(d1 - stt)
            diff = (call if kind == "call" else call - spot + kdisc) - prices
            done = np.abs(diff) <= IV_PRICE_TOL
            pending = active & ~done
            if not np.count_nonzero(pending):
                break
            hi = np.where(active & (diff > 0), sigma, hi)
            lo = np.where(active & (diff <= 0), sigma, lo)
            vega = spot_root * np.exp(-0.5 * d1**2) / math.sqrt(2.0 * math.pi)
            newton = sigma - diff / vega
            mid = 0.5 * (lo + hi)
            step = np.where((vega > 1e-12) & (newton > lo) & (newton < hi), newton, mid)
            sigma = np.where(pending, step, sigma)
        else:
            # iteration cap: entries still outside the tolerance have no answer
            active = active & done
    return np.where(clamp_lo, IV_MIN, np.where(active, sigma, np.nan))
