"""Closed-form pricing: symmetric solution, leading-order correction, implied vol.

The symmetric solution C0 coincides with Black-Scholes at volatility sigma.
The leading-order correction C1 is the closed-form evaluation of the
Green's-function integral of the breaking operator applied to the symmetric
solution; it is identical for calls and puts, so put prices follow from
parity on the symmetric part.

_d1 is the one d1, _black the one Black-Scholes formula, _put_parity the
one put-call parity and _vega the one vega; each runs on Python floats and
on numpy arrays alike.  price_mg, through the float kernel _bs_float, and
implied_vol serve one contract on Python floats; bs_price and
implied_vol_array run numpy on any shape, 0-d included.  The two give the
same bits:
- Phi is _ndtr_float, a pure-Python port of Cephes' ndtr (Moshier 1989),
  on floats, and normal_cdf, scipy.special.ndtr itself, on arrays.  scipy
  is imported on the first normal_cdf call, so pricing a contract never
  imports it (about 0.3 s and 21 MB of a cold `mgpert price`).
- exp and log are numpy's, called on a Python float.  libm's math.exp and
  math.log differ from them in the last bit on 4.5% and 0.2% of normal
  draws with standard deviation 3.  (_price_bracket, which both paths
  share, keeps math.exp.)
- Squares are products.  numpy squares an array as x*x, but x**2 on a
  numpy scalar or a Python float is C pow, which can differ in the last bit.
- Python float division raises where numpy gives inf or NaN, so the float
  kernels divide only where sigma * sqrt(tau) > 0.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import NoConvergence, OutOfBounds
from .params import MgParams, OptionSpec, PerturbParams, check_kind, correction_r2

IV_MIN = 1e-4
IV_MAX = 5.0
IV_PRICE_TOL = 1e-9
IV_MAX_ITER = 100
_SQRT_2PI = math.sqrt(2.0 * math.pi)


@dataclass(frozen=True)
class PriceBreakdown:
    """Price split into symmetric part and leading-order correction."""

    c0: float
    c1: float
    total: float
    d1: float
    d2: float


# Cephes ndtr.c's erf (T/U, |x| < 1) and erfc (P/Q below 8, R/S from 8) coefficients
_ERF_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
          7.00332514112805075473e3, 5.55923013010394962768e4)
_ERF_U = (3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
          2.26290000613890934246e4, 4.92673942608635921086e4)
_ERFC_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
           4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
           9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_ERFC_Q = (1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
           9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
           1.65666309194161350182e3, 5.57535340817727675546e2)
_ERFC_R = (5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
           6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0)
_ERFC_S = (2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
           1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0)
#: log of the largest double; exp(-z*z) underflows to 0 beyond it
_MAXLOG = 7.09782712893383996843e2
_SQRT1_2 = 0.70710678118654752440


def _poly(x, coef, monic=False):
    """Horner's rule in Cephes' order: polevl, or p1evl (leading 1) if monic."""
    ans = x + coef[0] if monic else coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _ndtr_float(a: float) -> float:
    """Phi(a) by Cephes' ndtr, operation for operation, so scipy's bits.

    exp is math.exp, the platform libm's that Cephes calls; numpy's SIMD exp
    differs from it in the last bit on about 1% of inputs.
    """
    if math.isnan(a):
        return a
    x = a * _SQRT1_2
    z = abs(x)
    if z < _SQRT1_2:
        zz = x * x
        return 0.5 + 0.5 * (x * _poly(zz, _ERF_T) / _poly(zz, _ERF_U, True))
    if z < 1.0:
        zz = z * z
        y = 0.5 * (1.0 - z * _poly(zz, _ERF_T) / _poly(zz, _ERF_U, True))
    elif -z * z < -_MAXLOG:
        y = 0.0
    else:
        e = math.exp(-z * z)
        if z < 8.0:
            p, q = _poly(z, _ERFC_P), _poly(z, _ERFC_Q, True)
        else:
            p, q = _poly(z, _ERFC_R), _poly(z, _ERFC_S, True)
        y = 0.5 * ((e * p) / q)
    return 1.0 - y if x > 0 else y


@functools.cache
def _scipy_ndtr():
    """scipy.special.ndtr, imported on first use."""
    from scipy.special import ndtr

    return ndtr


def normal_cdf(d):
    """Standard normal CDF on arrays: scipy.special.ndtr, imported on first use.

    A numpy port matches its bits only with exp taken in complex
    arithmetic, which made it 7 times slower per element than scipy
    (2-vCPU VM, numpy 2.4).
    """
    return _scipy_ndtr()(d)


def _log_moneyness(spot, strike):
    """numpy's log(S/K) as a float; -inf where S/K underflows to 0, which
    np.log would warn about (a branch: np.errstate costs microseconds)."""
    ratio = spot / strike
    return float(np.log(ratio)) if ratio else -math.inf


def _black_terms(spot, strike, tau, r):
    """The sigma-free terms (log S/K, K e^{-r tau}, sqrt tau) of a Black price, as floats."""
    return _log_moneyness(spot, strike), strike * float(np.exp(-r * tau)), math.sqrt(tau)


def _put_parity(call, spot, kdisc, kind):
    """The call's price, or by put-call parity the put's."""
    return call if kind == "call" else call - spot + kdisc


def _d1(sigma, tau, r, log_m, stt):
    """Black-Scholes d1 from log(S/K) and stt = sigma sqrt(tau), the one copy of it.

    Only entries with stt > 0 are meaningful; a float raises
    ZeroDivisionError at 0.
    """
    return (log_m + (r + 0.5 * (sigma * sigma)) * tau) / stt


def _black(sigma, spot, tau, r, kind, log_m, kdisc, sqrt_tau, cdf):
    """(price, d1) by the Black-Scholes formula, the one copy of it.

    Python floats take cdf = _ndtr_float and arrays cdf = normal_cdf.
    log_m, kdisc and sqrt_tau are log(S/K), K e^{-r tau} and sqrt(tau), as
    _black_terms computes them.  Only entries with sigma * sqrt(tau) > 0
    are meaningful.
    """
    stt = sigma * sqrt_tau
    d1 = _d1(sigma, tau, r, log_m, stt)
    return _put_parity(spot * cdf(d1) - kdisc * cdf(d1 - stt), spot, kdisc, kind), d1


def _vega(spot_root, d1):
    """dC/dsigma from S sqrt(tau) and d1, on floats or arrays (a numpy scalar for floats)."""
    return spot_root * np.exp(-0.5 * (d1 * d1)) / _SQRT_2PI


def _bs_float(sigma, spot, tau, r, kind, log_m, kdisc, sqrt_tau):
    """(bs_price, d1) on Python floats; the terms come from _black_terms.

    Where sigma * sqrt(tau) <= 0 the price is the discounted payoff and
    d1 = d2 is +inf (spot >= K e^{-r tau}) or -inf.
    """
    if sigma * sqrt_tau > 0:
        return _black(sigma, spot, tau, r, kind, log_m, kdisc, sqrt_tau, _ndtr_float)
    d1 = math.inf if spot >= kdisc else -math.inf
    return _put_parity(max(spot - kdisc, 0.0), spot, kdisc, kind), d1


def bs_price(spot, strike, tau, r, sigma, kind="call"):
    """Black-Scholes price, vectorized; exact payoff at tau = 0 or sigma = 0.

    Runs numpy on any shape and returns a float when every argument is 0-d.
    _bs_float, price_mg's kernel, runs the same _black on Python floats and
    gives the same bits.  Raises InvalidParams unless kind is "call" or
    "put".
    """
    check_kind(kind)
    spot, strike, tau, sigma = (np.asarray(a, dtype=float) for a in (spot, strike, tau, sigma))
    sqrt_tau = np.sqrt(tau)
    kdisc = strike * np.exp(-r * tau)
    with np.errstate(divide="ignore", invalid="ignore"):
        out, _ = _black(sigma, spot, tau, r, kind, np.log(spot / strike), kdisc, sqrt_tau, normal_cdf)
        live = sigma * sqrt_tau > 0
        if not live.all():  # the discounted payoff, as in _bs_float
            out = np.where(live, out, _put_parity(np.maximum(spot - kdisc, 0.0), spot, kdisc, kind))
    return out if out.ndim else float(out)


def bs_vega(spot, strike, tau, r, sigma):
    """Black-Scholes vega dC/dsigma, vectorized; 0 where sigma * sqrt(tau) <= 0."""
    spot, sigma = np.asarray(spot, dtype=float), np.asarray(sigma, dtype=float)
    sqrt_tau = np.sqrt(tau)
    stt = sigma * sqrt_tau
    with np.errstate(divide="ignore", invalid="ignore"):
        d1 = _d1(sigma, tau, r, np.log(spot / strike), stt)
        return np.where(stt > 0, _vega(spot * sqrt_tau, d1), 0.0)


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
    # squares of x and tau as products: on 0-d input x**2 is C pow, not x*x
    with np.errstate(divide="ignore", invalid="ignore"):
        log_mag = (
            log_strike
            + (0.5 - r / sigma2) * x
            - (4.0 * (x * x) + (2.0 * r + sigma2) ** 2 * (tau * tau)) / (8.0 * sigma2 * tau)
            - np.log(2.0 * math.sqrt(2.0 * math.pi) * np.abs(r2) * np.sqrt(sigma2 * tau))
        )
        bracket = -0.5 * sigma2**2 * r2 * tau + variance * np.expm1(0.5 * sigma2 * r2 * tau)
        out = np.where(tau > 0, -np.copysign(1.0, r2) * np.exp(log_mag) * bracket, 0.0)
    return out if out.ndim else float(out)


def price_mg(opt: OptionSpec, mg: MgParams, pert: PerturbParams) -> PriceBreakdown:
    """Full perturbative price C0 + C1 with the Black-Scholes arguments of C0.

    C0 and d1 come from one _bs_float evaluation, and C1 takes the same
    log S/K; at tau = 0, d1 = d2 is +inf where spot >= strike and -inf below.
    """
    r2 = correction_r2(mg.kappa, pert.xi0, pert.sigma)
    log_m, kdisc, sqrt_tau = _black_terms(opt.spot, opt.strike, opt.tau_cal, mg.r)
    c0, d1 = _bs_float(pert.sigma, opt.spot, opt.tau_cal, mg.r, opt.kind, log_m, kdisc, sqrt_tau)
    c1 = correction_kernel(log_m, opt.tau_cal, opt.variance, pert.sigma, r2, mg.r,
                           np.log(opt.strike))
    return PriceBreakdown(c0=c0, c1=c1, total=c0 + c1, d1=d1, d2=d1 - pert.sigma * sqrt_tau)


def _price_bracket(spot, strike, tau, r, kind):
    """No-arbitrage range [lo, hi) of a European option price."""
    kdisc = strike * math.exp(-r * tau)
    if kind == "call":
        return np.maximum(spot - kdisc, 0.0), spot
    return np.maximum(kdisc - spot, 0.0), kdisc


def implied_vol(price: float, opt: OptionSpec, r: float) -> float:
    """Invert Black-Scholes for the volatility reproducing `price`.

    implied_vol_array's loop for one contract, step for step on Python
    floats, with the same bits.  Raises OutOfBounds at tau_cal = 0 or when
    the price is outside the no-arbitrage bracket, and NoConvergence where
    implied_vol_array gives NaN otherwise: the price needs a volatility above
    IV_MAX, or the inversion reached IV_MAX_ITER iterations.
    """
    if opt.tau_cal <= 0:
        raise OutOfBounds("tau_cal must be > 0 for implied volatility")
    price, spot, strike, tau, r = map(float, (price, opt.spot, opt.strike, opt.tau_cal, r))
    kind = opt.kind
    lo_bound, hi_bound = _price_bracket(spot, strike, tau, r, kind)
    if not lo_bound <= price < hi_bound:
        raise OutOfBounds(f"price {price} outside no-arbitrage range [{lo_bound}, {hi_bound})")
    terms = _black_terms(spot, strike, tau, r)
    if _bs_float(IV_MIN, spot, tau, r, kind, *terms)[0] - price >= 0:
        return IV_MIN
    if _bs_float(IV_MAX, spot, tau, r, kind, *terms)[0] - price > 0:
        spot_root = spot * terms[2]
        lo, hi, sigma = IV_MIN, IV_MAX, 0.3
        for _ in range(IV_MAX_ITER):
            call, d1 = _bs_float(sigma, spot, tau, r, kind, *terms)
            diff = call - price
            if abs(diff) <= IV_PRICE_TOL:
                return sigma
            # a NaN diff moves neither end, as in the numpy loop
            if diff > 0:
                hi = sigma
            elif diff <= 0:
                lo = sigma
            vega = float(_vega(spot_root, d1))
            mid = 0.5 * (lo + hi)
            if vega > 1e-12:
                newton = sigma - diff / vega
                sigma = newton if lo < newton < hi else mid
            else:
                sigma = mid
    raise NoConvergence(
        f"no volatility in [{IV_MIN}, {IV_MAX}] reproduces price {price} "
        f"within {IV_MAX_ITER} iterations"
    )


def implied_vol_array(prices, spot, strikes, tau, r, kind="call"):
    """Vectorized implied-vol inversion; NaN where the price is uninvertible.

    Bisection on [IV_MIN, IV_MAX] with a Newton acceleration step, which is
    robust for noisy Monte Carlo prices; the price is reproduced to
    IV_PRICE_TOL currency units.  A price at or below the IV_MIN price gives
    IV_MIN.  NaN marks a price outside the no-arbitrage bracket, one that
    needs a volatility above IV_MAX, and one still outside the tolerance
    after IV_MAX_ITER iterations.

    Runs numpy on any shape; 0-d input gives a 0-d array.  implied_vol
    runs the same loop on one contract's Python floats and gives the same
    bits (see the module docstring).  Raises InvalidParams unless kind is
    "call" or "put".
    """
    check_kind(kind)
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

    # _black's and _vega's loop invariants
    sqrt_tau = np.sqrt(tau)
    log_m = np.log(spot / strikes)
    kdisc = strikes * np.exp(-r * tau)
    spot_root = spot * sqrt_tau
    lo = np.full(prices.shape, IV_MIN)
    hi = np.full(prices.shape, IV_MAX)
    sigma = np.full(prices.shape, 0.3)
    # at tau = 0 nothing is active, and only the first price is computed
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(IV_MAX_ITER):
            model, d1 = _black(sigma, spot, tau, r, kind, log_m, kdisc, sqrt_tau, normal_cdf)
            diff = model - prices
            done = np.abs(diff) <= IV_PRICE_TOL
            pending = active & ~done
            if not np.count_nonzero(pending):
                break
            hi = np.where(active & (diff > 0), sigma, hi)
            lo = np.where(active & (diff <= 0), sigma, lo)
            vega = _vega(spot_root, d1)
            newton = sigma - diff / vega
            mid = 0.5 * (lo + hi)
            step = np.where((vega > 1e-12) & (newton > lo) & (newton < hi), newton, mid)
            sigma = np.where(pending, step, sigma)
        else:
            # iteration cap: entries still outside the tolerance have no answer
            active = active & done
    return np.where(clamp_lo, IV_MIN, np.where(active, sigma, np.nan))
