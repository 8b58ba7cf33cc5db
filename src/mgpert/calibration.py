"""IVRMSE objective and parameter estimation.

The perturbative price depends on (kappa, xi, alpha) only through R2 = 1 + sqrt(2) gamma /
(sigma xi0), with gamma = -kappa - xi0^2 and xi0 = xi * sigma^(2(alpha-1)); theta and rho never
enter it, so the fit searches (sigma, R2) alone.  The objective is the root mean square of
implied-vol residuals between observed quotes and the perturbative model, and the fit minimises
it as a least-squares problem by trust-region Levenberg-Marquardt (Marquardt 1963, More 1978).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .analytic import bs_price, bs_vega, correction_kernel, implied_vol_array
from .errors import DegenerateParams, EmptyQuoteSet, InvalidParams
from .params import OptionSpec, correction_r2, symmetric_xi

#: Residual charged to a quote whose model price cannot be inverted to an
#: implied volatility (50 vol points keeps the objective finite while
#: strongly penalizing the region).
PENALTY_RESIDUAL = 0.5

#: Levenberg-Marquardt: first trust radius as a share of |z0|, tolerances on the relative
#: fall of |r|^2 and on the radius relative to |z|, the cap on residual evaluations, and the
#: cap on Newton iterations for the damping of one step.
LM_RADIUS0 = 0.1
LM_FTOL = 1e-12
LM_XTOL = 1e-10
LM_MAX_EVALS = 100
LM_LAMBDA_MAXITER = 30
#: Central-difference step in z for the Jacobian, about eps^(1/3).
JAC_STEP = 6e-6


@dataclass(frozen=True)
class Quote:
    """One observed option price, a call's or a put's; QuoteSet inverts it
    to an implied vol."""

    opt: OptionSpec
    price: float


def _implied_vols(prices, spot, strike, tau, r, kind="call"):
    """implied_vol_array over quote arrays of mixed maturity: one call per
    maturity, since it takes a scalar tau."""
    out = np.empty_like(prices)
    for t in np.unique(tau):
        sel = tau == t
        out[sel] = implied_vol_array(prices[sel], spot[sel], strike[sel], float(t), r, kind)
    return out


@dataclass
class QuoteSet:
    """Quotes sharing a rate.

    Quotes whose price cannot be inverted to an implied volatility are
    dropped up front and counted in n_dropped.
    """

    quotes: list
    r: float = 0.0
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        if not self.quotes:
            raise EmptyQuoteSet("quote set must be nonempty")
        # a non-finite rate would drop every quote as uninvertible
        if not math.isfinite(self.r):
            raise InvalidParams(f"r must be finite, got {self.r}")

    def arrays(self):
        """(spot, strike, tau, variance, observed_iv) arrays over usable quotes.

        The prices are inverted by _implied_vols, once per kind; the arrays
        keep the quotes' order.
        """
        if "arrays" not in self._cache:
            quotes = self.quotes
            spot, strike, tau, var = (
                np.array([getattr(q.opt, a) for q in quotes], dtype=float)
                for a in ("spot", "strike", "tau_cal", "variance")
            )
            # each quote's price until inverted
            iv = np.array([q.price for q in quotes], dtype=float)
            for kind in ("call", "put"):
                sel = np.array([q.opt.kind == kind for q in quotes])
                iv[sel] = _implied_vols(iv[sel], spot[sel], strike[sel], tau[sel], self.r, kind)
            keep = np.isfinite(iv)
            self._cache["arrays"] = tuple(a[keep] for a in (spot, strike, tau, var, iv))
            self._cache["n_dropped"] = len(quotes) - int(np.count_nonzero(keep))
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
    iterations: int  # Levenberg-Marquardt Jacobians
    converged: bool
    residuals: np.ndarray
    n_evals: int = 0  # residual-vector evaluations


def pert_price_grid(spot, strike, tau, variance, r, kappa, xi, alpha, sigma):
    """Vectorized perturbative call price C0 + C1 over quote arrays.

    Raises DegenerateParams where params.correction_r2 does.
    """
    spot = np.asarray(spot, dtype=float)
    strike = np.asarray(strike, dtype=float)
    r2 = correction_r2(kappa, symmetric_xi(xi, alpha, sigma), sigma)
    c1 = correction_kernel(np.log(spot / strike), tau, variance, sigma, r2, r, np.log(strike))
    return bs_price(spot, strike, tau, r, sigma, "call") + c1


def _model_residuals(quotes: QuoteSet, theta):
    """(IV residuals, model IVs) at theta; an uninvertible model price gives
    PENALTY_RESIDUAL and a NaN IV."""
    kappa, xi, alpha, sigma = theta
    spot, strike, tau, var, obs_iv = quotes.arrays()
    prices = pert_price_grid(spot, strike, tau, var, quotes.r, kappa, xi, alpha, sigma)
    model_iv = _implied_vols(prices, spot, strike, tau, quotes.r)
    resid = model_iv - obs_iv
    return np.where(np.isfinite(resid), resid, PENALTY_RESIDUAL), model_iv


def _check_theta(theta, what):
    """(kappa, xi, alpha, sigma) must each be finite and > 0; NaN fails too."""
    kappa, xi, alpha, sigma = theta
    if not all(0.0 < p < math.inf for p in (kappa, xi, alpha, sigma)):
        raise InvalidParams(f"{what} out of bounds: {theta}")


def ivrmse(quotes: QuoteSet, theta) -> float:
    """Root-mean-square implied-vol error of the model against the quotes."""
    _check_theta(theta, "theta")
    resid, _ = _model_residuals(quotes, theta)
    if resid.size == 0:
        raise EmptyQuoteSet("no usable quotes after implied-vol screening")
    return float(np.sqrt(np.mean(resid**2)))


def _trust_region_step(jac, grad, radius):
    """The d minimising |r + J d| over |d| <= radius, given grad = J^T r.

    The Gauss-Newton step if it fits, else (J^T J + lam I) d = -grad with |d| within 10% of
    radius, lam from Newton's method on 1/|d| - 1/radius, which rises monotonically to the
    root from lam = 0 (More 1978).  Directions J^T J cannot see are left out of d.
    """
    s, v = np.linalg.eigh(jac.T @ jac)
    g = v.T @ grad
    lam = 0.0
    for _ in range(LM_LAMBDA_MAXITER):
        seen = s + lam > 0
        w = np.divide(g, s + lam, out=np.zeros_like(g), where=seen)
        norm = math.sqrt(w @ w)
        if norm <= 1.1 * radius:
            break
        lam += (norm / radius - 1.0) * norm**2 / np.sum(w[seen] ** 2 / (s + lam)[seen])
    return -(v @ w)


def _levenberg_marquardt(residuals, jacobian, z0):
    """Minimise |r(z)|^2 by trust-region Levenberg-Marquardt with unit scaling (More 1978).

    residuals(z) returns (r, aux), and jacobian(z, aux) returns dr/dz at an accepted point,
    or None where it cannot be taken.  A step is accepted only where it lowers |r|.  Returns
    (z, r, n_evals, n_jacobians, stopped): stopped is True when a tolerance test ended the
    search, False when the evaluation cap or a missing Jacobian did.
    """
    z = z0
    r, aux = residuals(z)
    cost, n_evals, n_jac = r @ r, 1, 0
    radius = LM_RADIUS0 * (np.linalg.norm(z) or 1.0)
    while True:
        jac = jacobian(z, aux)
        if jac is None:
            return z, r, n_evals, n_jac, False
        n_jac += 1
        grad = jac.T @ r
        if not grad.any():
            return z, r, n_evals, n_jac, True
        while True:  # trial steps from z, until one lowers the cost
            step = _trust_region_step(jac, grad, radius)
            r_new, aux_new = residuals(z + step)
            n_evals += 1
            jstep = jac @ step
            predicted = -(2.0 * grad @ step + jstep @ jstep)
            actual = cost - r_new @ r_new
            ratio = actual / predicted if predicted > 0 else 0.0
            step_norm = np.linalg.norm(step)
            if ratio < 0.25:
                radius = 0.25 * step_norm
            elif ratio > 0.75:
                radius = max(radius, 2.0 * step_norm)
            stalled = abs(actual) <= LM_FTOL * cost and predicted <= LM_FTOL * cost
            accepted = ratio > 1e-4
            if accepted:
                z, r, aux, cost = z + step, r_new, aux_new, r_new @ r_new
            if (stalled and ratio <= 2.0) or radius <= LM_XTOL * np.linalg.norm(z):
                return z, r, n_evals, n_jac, True
            if n_evals >= LM_MAX_EVALS:
                return z, r, n_evals, n_jac, False
            if accepted:
                break


def calibrate(quotes: QuoteSet, initial, fix_structurals: bool = False) -> CalibResult:
    """Fit (sigma, R2) over z = (log sigma, log q), q = (1 - R2) sigma / sqrt(2).

    q = (kappa + xi0^2) / xi0 > 0 covers every R2 that positive kappa, xi reach.  alpha and
    c = kappa / xi0^2 keep their start values: xi0 = q / (1 + c), kappa = c xi0^2,
    xi = xi0 sigma^(2(1-alpha)).  fix_structurals=True moves sigma alone (the static study).

    The search is trust-region Levenberg-Marquardt on the IV residual vector (_model_residuals)
    with unit scaling in z and a first radius of LM_RADIUS0 |z0|.  Its Jacobian is the central
    difference of the closed-form price in z over the Black-Scholes vega at the model IVs of the
    same point, so each trial point costs one IV inversion.  A point the model cannot price
    (R2 = 0, exp under- or overflow) has every residual 10 PENALTY_RESIDUAL and takes the vega
    at the observed IVs.  n_evals counts residual evaluations and iterations Jacobians.
    converged is True when a tolerance test stopped the search, not the evaluation cap or a
    point where the Jacobian cannot be taken; the result is never worse than the start, since
    only steps that lower the IVRMSE are accepted.
    """
    _check_theta(initial, "initial theta")
    kappa0, xi0, alpha0, sigma0 = initial
    spot, strike, tau, var, obs_iv = quotes.arrays()
    if obs_iv.size == 0:
        raise EmptyQuoteSet("no usable quotes after implied-vol screening")

    if fix_structurals:

        def unpack(z):
            return (kappa0, xi0, alpha0, math.exp(z[0]))

        z0 = np.array([math.log(sigma0)])
    else:
        sym0 = symmetric_xi(xi0, alpha0, sigma0)  # the start's xi0
        c = kappa0 / sym0**2

        def unpack(z):
            sigma, sym = math.exp(z[0]), math.exp(z[1]) / (1.0 + c)
            return (c * sym**2, sym * sigma ** (2.0 * (1.0 - alpha0)), float(alpha0), sigma)

        z0 = np.array([math.log(sigma0), math.log((kappa0 + sym0**2) / sym0)])

    unpriceable = (FloatingPointError, OverflowError, InvalidParams, DegenerateParams)
    penalty = np.full(obs_iv.size, 10.0 * PENALTY_RESIDUAL)

    def residuals(z):
        try:
            theta = unpack(z)
            _check_theta(theta, "theta")  # e.g. exp underflow to 0
            return _model_residuals(quotes, theta)
        except unpriceable:
            return penalty, obs_iv

    def jacobian(z, iv):
        cols = []
        for h in np.eye(z.size) * JAC_STEP:
            try:
                up, down = (
                    pert_price_grid(spot, strike, tau, var, quotes.r, *unpack(z + sign * h))
                    for sign in (1.0, -1.0)
                )
            except unpriceable:
                return None
            cols.append((up - down) / (2.0 * JAC_STEP))
        with np.errstate(divide="ignore", invalid="ignore"):
            jac = np.column_stack(cols) / bs_vega(spot, strike, tau, quotes.r, iv)[:, None]
        # a penalised quote's residual is flat: NaN IV, vega 0
        return np.where(np.isfinite(jac), jac, 0.0)

    z, resid, n_evals, n_jac, stopped = _levenberg_marquardt(residuals, jacobian, z0)
    return CalibResult(
        theta_pert=unpack(z),
        ivrmse=float(np.sqrt(np.mean(resid**2))),
        n_quotes_used=resid.size,
        iterations=n_jac,
        converged=stopped,
        residuals=resid,
        n_evals=n_evals,
    )
