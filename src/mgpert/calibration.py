"""IVRMSE objective and parameter estimation.

The perturbative price depends on (kappa, xi, alpha) only through R2 = 1 + sqrt(2) gamma /
(sigma xi0), with gamma = -kappa - xi0^2 and xi0 = xi * sigma^(2(alpha-1)); theta and rho never
enter it, so the fit searches (sigma, R2) alone.  The objective is the root mean square of
implied-vol residuals between observed quotes and the perturbative model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .analytic import bs_price, correction_kernel, implied_vol_array
from .errors import DegenerateParams, EmptyQuoteSet, InvalidParams
from .params import OptionSpec, correction_r2

#: Residual charged to a quote whose model price cannot be inverted to an
#: implied volatility (50 vol points keeps the objective finite while
#: strongly penalizing the region).
PENALTY_RESIDUAL = 0.5

NM_FATOL = 1e-6
NM_MAXITER = 500


@dataclass(frozen=True)
class Quote:
    """One observed option: either a price or an implied vol (or both)."""

    opt: OptionSpec
    price: float | None = None
    iv: float | None = None

    def __post_init__(self):
        if self.price is None and self.iv is None:
            raise InvalidParams("quote needs a price or an implied vol")


@dataclass
class QuoteSet:
    """Quotes sharing a rate and an observation timestamp.

    Quotes whose price cannot be inverted to an implied volatility are
    dropped up front and counted in n_dropped.
    """

    quotes: list
    r: float = 0.0
    timestamp: float = 0.0
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        if not self.quotes:
            raise EmptyQuoteSet("quote set must be nonempty")

    def arrays(self):
        """(spot, strike, tau, variance, observed_iv) arrays over usable quotes.

        Price quotes are inverted with one implied_vol_array call per
        (kind, maturity) group; the arrays keep the quotes' order.
        """
        if "arrays" not in self._cache:
            iv = [q.iv for q in self.quotes]
            groups = {}
            for i, q in enumerate(self.quotes):
                if q.iv is None:
                    groups.setdefault((q.opt.kind, q.opt.tau_cal), []).append(i)
            for (kind, tau), idx in groups.items():
                qs = [self.quotes[i] for i in idx]
                got = implied_vol_array(
                    [q.price for q in qs], [q.opt.spot for q in qs], [q.opt.strike for q in qs],
                    tau, self.r, kind,
                )
                for i, q_iv in zip(idx, got.tolist()):
                    iv[i] = q_iv if math.isfinite(q_iv) else None
            keep = [i for i, q_iv in enumerate(iv) if q_iv is not None]
            opts = [self.quotes[i].opt for i in keep]
            self._cache["arrays"] = tuple(
                np.asarray(col)
                for col in (
                    [o.spot for o in opts],
                    [o.strike for o in opts],
                    [o.tau_cal for o in opts],
                    [o.variance for o in opts],
                    [iv[i] for i in keep],
                )
            )
            self._cache["n_dropped"] = len(self.quotes) - len(keep)
        return self._cache["arrays"]

    @property
    def n_dropped(self) -> int:
        self.arrays()
        return self._cache["n_dropped"]


@dataclass(frozen=True)
class CalibResult:
    theta_pert: tuple  # (kappa, xi, alpha, sigma)
    ivrmse: float
    n_quotes_used: int
    iterations: int
    converged: bool
    residuals: np.ndarray
    n_evals: int = 0  # IVRMSE objective evaluations


def pert_price_grid(spot, strike, tau, variance, r, kappa, xi, alpha, sigma):
    """Vectorized perturbative call price C0 + C1 over quote arrays.

    Raises DegenerateParams where params.correction_r2 does.
    """
    spot = np.asarray(spot, dtype=float)
    strike = np.asarray(strike, dtype=float)
    r2 = correction_r2(kappa, xi * sigma ** (2.0 * (alpha - 1.0)), sigma)
    c1 = correction_kernel(np.log(spot / strike), tau, variance, sigma, r2, r, np.log(strike))
    return bs_price(spot, strike, tau, r, sigma, "call") + c1


def _model_residuals(quotes: QuoteSet, theta) -> np.ndarray:
    kappa, xi, alpha, sigma = theta
    spot, strike, tau, var, obs_iv = quotes.arrays()
    prices = pert_price_grid(spot, strike, tau, var, quotes.r, kappa, xi, alpha, sigma)
    # implied_vol_array takes a scalar tau, so invert one maturity at a time
    model_iv = np.empty_like(prices)
    for t in np.unique(tau):
        sel = tau == t
        model_iv[sel] = implied_vol_array(
            prices[sel], spot[sel], strike[sel], float(t), quotes.r
        )
    resid = model_iv - obs_iv
    return np.where(np.isfinite(resid), resid, PENALTY_RESIDUAL)


def ivrmse(quotes: QuoteSet, theta) -> float:
    """Root-mean-square implied-vol error of the model against the quotes."""
    kappa, xi, alpha, sigma = theta
    if not (kappa > 0 and xi > 0 and sigma > 0 and alpha > 0):
        raise InvalidParams(f"theta out of bounds: {theta}")
    resid = _model_residuals(quotes, theta)
    if resid.size == 0:
        raise EmptyQuoteSet("no usable quotes after implied-vol screening")
    return float(np.sqrt(np.mean(resid**2)))


def _nelder_mead(objective, z0):
    """NM with one restart from the best vertex, per the stopping rule."""
    # imported here: scipy.optimize costs about 0.4 s, and pricing never uses it
    from scipy.optimize import minimize

    res = minimize(
        objective,
        z0,
        method="Nelder-Mead",
        options={"fatol": NM_FATOL, "xatol": 1e-8, "maxiter": NM_MAXITER},
    )
    res2 = minimize(
        objective,
        res.x,
        method="Nelder-Mead",
        options={"fatol": NM_FATOL, "xatol": 1e-8, "maxiter": NM_MAXITER},
    )
    best = res2 if res2.fun <= res.fun else res
    return best, res.nit + res2.nit


def calibrate(quotes: QuoteSet, initial, fix_structurals: bool = False) -> CalibResult:
    """Fit (sigma, R2) by Nelder-Mead over z = (log sigma, log q), q = (1 - R2) sigma / sqrt(2).

    q = (kappa + xi0^2) / xi0 > 0 covers every R2 that positive kappa, xi reach.  alpha and
    c = kappa / xi0^2 keep their start values: xi0 = q / (1 + c), kappa = c xi0^2,
    xi = xi0 sigma^(2(1-alpha)).  fix_structurals=True moves sigma alone (the static study).
    Never raises on a flat search: returns the best point found with converged=False.
    """
    kappa0, xi0, alpha0, sigma0 = initial
    if not (kappa0 > 0 and xi0 > 0 and sigma0 > 0 and alpha0 > 0):
        raise InvalidParams(f"initial theta out of bounds: {initial}")

    if fix_structurals:

        def unpack(z):
            return (kappa0, xi0, alpha0, math.exp(z[0]))

        z0 = np.array([math.log(sigma0)])
    else:
        sym0 = xi0 * sigma0 ** (2.0 * (alpha0 - 1.0))  # the start's xi0
        c = kappa0 / sym0**2

        def unpack(z):
            sigma, sym = math.exp(z[0]), math.exp(z[1]) / (1.0 + c)
            return (c * sym**2, sym * sigma ** (2.0 * (1.0 - alpha0)), float(alpha0), sigma)

        z0 = np.array([math.log(sigma0), math.log((kappa0 + sym0**2) / sym0)])

    values = []  # every objective value, in call order; Nelder-Mead starts at z0

    def objective(z):
        try:
            value = ivrmse(quotes, unpack(z))
        except (FloatingPointError, OverflowError, InvalidParams, DegenerateParams):
            value = 10.0 * PENALTY_RESIDUAL  # e.g. exp underflow to 0, or R2 = 0
        values.append(value)
        return value

    best, n_iter = _nelder_mead(objective, z0)
    theta = unpack(best.x)
    resid = _model_residuals(quotes, theta)
    value = float(np.sqrt(np.mean(resid**2)))
    converged = bool(best.success) and value <= values[0] + 1e-15
    return CalibResult(
        theta_pert=theta,
        ivrmse=value,
        n_quotes_used=resid.size,
        iterations=n_iter,
        converged=converged,
        residuals=resid,
        n_evals=len(values),
    )
