"""Output checks of the benchmark.

Each check compares a program output with a computation made apart from the
program, or with a property the method must have, and returns a list of
violation messages: an empty list means the output passed.
"""

from __future__ import annotations

import json
import math

import numpy as np

_erfc = np.frompyfunc(math.erfc, 1, 1)

#: Acceptance 3's quadrature tolerance on C1: max(abs, rel * |C1|).
C1_ABS_TOL = 5e-3
C1_REL_TOL = 1e-3
#: Acceptance 4's tolerances: C0 relative error and put-call parity defect.
C0_REL_TOL = 1e-10
PARITY_TOL = 1e-10
#: Rounding gap allowed between the program's Black-Scholes and the
#: reference one when an implied vol is re-priced (prices are at most ~100).
REPRICE_SLACK = 1e-12
#: A fit may end above its start by rounding only: the optimiser starts from
#: exp(log(theta)), not theta itself.
FIT_START_SLACK = 1e-9
#: Fitted IVRMSE may exceed the injected-noise RMS by this relative margin.
NOISE_RMS_SLACK = 1e-6
#: |sigma_hat - sigma_true| allowed on the synthetic 4-parameter fits.
SIGMA_FIT_TOL = 2e-3
#: Monte Carlo bounds, monotonicity and convexity hold within this many
#: standard errors.
MC_Z = 4.0


def norm_cdf(z):
    """Standard normal CDF from libm's erfc, which keeps both tails exact."""
    return 0.5 * np.asarray(_erfc(-np.asarray(z, dtype=float) / math.sqrt(2.0)), dtype=float)


def bs_price_ref(spot, strike, tau, r, sigma, is_call=True):
    """Black-Scholes from the textbook formula, independent of the program."""
    spot, strike, tau, sigma = np.broadcast_arrays(
        *(np.asarray(a, dtype=float) for a in (spot, strike, tau, sigma))
    )
    stt = sigma * np.sqrt(tau)
    disc = np.exp(-r * tau)
    live = stt > 0
    d1 = np.zeros(stt.shape)
    d1[live] = (
        np.log(spot[live] / strike[live]) + (r + 0.5 * sigma[live] ** 2) * tau[live]
    ) / stt[live]
    call = np.where(
        live,
        spot * norm_cdf(d1) - strike * disc * norm_cdf(d1 - stt),
        np.maximum(spot - strike * disc, 0.0),
    )
    return np.where(is_call, call, call - spot + strike * disc)


def same_bytes(expected: bytes, got: bytes, what: str):
    """Outputs the program promises to reproduce exactly."""
    if expected == got:
        return []
    at = next(
        (i for i, (a, b) in enumerate(zip(expected, got)) if a != b),
        min(len(expected), len(got)),
    )
    return [f"{what}: output differs from the reference at byte {at}"]


def call_surface(spot, strikes, prices, std_errors, tau, r):
    """Monte Carlo calls of one maturity on ascending strikes: inside
    [max(S - K e^(-r tau), 0), S], decreasing and convex in strike."""
    k, c, se = (np.asarray(a, dtype=float) for a in (strikes, prices, std_errors))
    out = []
    lo = np.maximum(spot - k * math.exp(-r * tau), 0.0)
    for i in np.flatnonzero((c < lo - MC_Z * se) | (c > spot + MC_Z * se)):
        out.append(f"call at K={k[i]:.6g} is {c[i]!r}, outside [{lo[i]!r}, {spot!r}]")
    dk = np.diff(k)
    slope = np.diff(c) / dk
    slope_tol = MC_Z * (se[1:] + se[:-1]) / dk
    for i in np.flatnonzero(slope > slope_tol):
        out.append(f"call rises from K={k[i]:.6g} to K={k[i + 1]:.6g}")
    for i in np.flatnonzero(np.diff(slope) < -(slope_tol[1:] + slope_tol[:-1])):
        out.append(f"call is not convex at K={k[i + 1]:.6g}")
    return out


def panel_prices(rows, r, days_per_year):
    """Time-series panel calls inside [max(S - K e^(-r tau), 0), S]."""
    out = []
    for row in rows:
        spot = row.strike / row.moneyness
        lo = max(spot - row.strike * math.exp(-r * row.maturity_days / days_per_year), 0.0)
        if not lo <= row.mc_price <= spot:
            out.append(
                f"panel path {row.path_id} obs {row.obs_index} K={row.strike:.6g} "
                f"T={row.maturity_days:g}d: price {row.mc_price!r} outside [{lo!r}, {spot!r}]"
            )
    return out


def fit_not_worse(fitted: float, start: float, what: str):
    """A minimiser that starts at theta0 ends no higher than f(theta0)."""
    if fitted <= start * (1.0 + FIT_START_SLACK):
        return []
    return [f"{what}: fitted IVRMSE {fitted!r} above its start {start!r}"]


def synthetic_fit(result, noise_rms: float, sigma_true: float, n_quotes: int, what: str):
    """A fit to model prices plus implied-vol noise: the true parameters
    score the noise RMS, so the fit scores no more; sigma is recovered."""
    out = []
    if result.ivrmse > noise_rms * (1.0 + NOISE_RMS_SLACK):
        out.append(f"{what}: IVRMSE {result.ivrmse!r} above the noise RMS {noise_rms!r}")
    sigma_hat = result.theta_pert[3]
    if not abs(sigma_hat - sigma_true) <= SIGMA_FIT_TOL:
        out.append(f"{what}: sigma_hat {sigma_hat!r} far from {sigma_true!r}")
    if result.n_quotes_used != n_quotes:
        out.append(f"{what}: {result.n_quotes_used} of {n_quotes} quotes used")
    return out


def c1_quadrature(c1_quad: float, c1_closed: float, what: str):
    """Quadrature C1 against the closed form, at acceptance 3's tolerance."""
    tol = max(C1_ABS_TOL, C1_REL_TOL * abs(c1_closed))
    if abs(c1_quad - c1_closed) <= tol:
        return []
    return [f"{what}: quadrature C1 {c1_quad!r} vs closed form {c1_closed!r} (tol {tol:.1e})"]


def book(spot, strike, tau, r, sigma, c0, total, iv, iv_tol):
    """Contracts in call/put pairs (even index call, odd index put, same
    terms): C0 against the reference Black-Scholes, put-call parity of the
    totals, and each implied vol re-pricing its total."""
    spot, strike, tau, c0, total, iv = (
        np.asarray(a, dtype=float) for a in (spot, strike, tau, c0, total, iv)
    )
    is_call = np.arange(spot.size) % 2 == 0
    out = []
    ref = bs_price_ref(spot, strike, tau, r, sigma, is_call)
    for i in np.flatnonzero(~(np.abs(c0 - ref) <= C0_REL_TOL * np.abs(ref))):
        out.append(f"contract {i}: C0 {c0[i]!r} vs reference {ref[i]!r}")
    fwd = spot[0::2] - strike[0::2] * np.exp(-r * tau[0::2])
    for j in np.flatnonzero(~(np.abs(total[0::2] - total[1::2] - fwd) <= PARITY_TOL)):
        out.append(f"pair {j}: put-call parity defect {total[2 * j] - total[2 * j + 1] - fwd[j]!r}")
    repriced = bs_price_ref(spot, strike, tau, r, iv, is_call)
    for i in np.flatnonzero(~(np.abs(repriced - total) <= iv_tol + REPRICE_SLACK)):
        out.append(f"contract {i}: implied vol {iv[i]!r} re-prices to {repriced[i]!r}, "
                   f"not {total[i]!r}")
    return out


def cli_json(stdout: str, expected: dict, what: str):
    """CLI JSON fields equal the in-process values to all 17 digits."""
    try:
        got = json.loads(stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        return [f"{what}: no JSON on stdout: {stdout!r}"]
    bad = [k for k, v in expected.items() if got.get(k, "missing") != v]
    return [f"{what}: CLI field {k} = {got.get(k)!r}, in-process {expected[k]!r}" for k in bad]
