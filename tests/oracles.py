"""Reference computations the tests compare the program against.

None of these is on a program path: psi1_closed_form, reconstruct_psi0 and
heat_residual check the closed form and psi0 in heat coordinates,
correction_root_variance locates C1's sign change, write_panel_csv writes
generate_time_series's rows for the panel golden hash, and simulate_euler
with price_option_euler is the Euler Monte Carlo reference, which
discretises (S, V) jointly, that the conditional engine is checked against.
"""

import math
from dataclasses import fields

import numpy as np

from mgpert.analytic import correction_kernel
from mgpert.errors import InvalidParams
from mgpert.experiments import write_csv
from mgpert.heatkernel import psi0_grid
from mgpert.mc import (
    McConfig,
    McPrice,
    PanelRow,
    _correlate,
    _estimate,
    _philox,
    _stratified_normals,
    maturity_step_count,
    step_euler,
)
from mgpert.params import DerivedParams, HeatCoords, MgParams, OptionSpec, PerturbParams, tilt


def correction_root_variance(pert: PerturbParams, deriv: DerivedParams, tau_cal: float) -> float:
    """Variance at which the correction's bracket (hence C1) changes sign."""
    sigma2 = pert.sigma**2
    z = 0.5 * sigma2 * deriv.r2 * tau_cal
    return 0.5 * sigma2**2 * deriv.r2 * tau_cal / math.expm1(z)


def psi1_closed_form(
    coords: HeatCoords, pert: PerturbParams, deriv: DerivedParams
) -> float:
    """Closed-form leading-order correction in heat coordinates: C1 / (K phi).

    analytic.correction_kernel at tau_cal = 2 tau / sigma^2, V = v0 e^y and
    r = r1 sigma^2 / 2, divided by the tilt phi.
    """
    sigma2 = pert.sigma**2
    c1_per_strike = correction_kernel(
        coords.x, 2.0 * coords.tau / sigma2, pert.v0 * math.exp(coords.y), pert.sigma,
        deriv.r2, 0.5 * deriv.r1 * sigma2,
    )
    phi = tilt(coords, deriv)
    psi1 = c1_per_strike / phi if phi > 0.0 else math.inf
    if math.isinf(psi1):
        exponent = deriv.a * coords.x + deriv.b * coords.y + deriv.c * coords.tau
        raise InvalidParams(
            f"psi1 = C1 / (K phi) overflows a double: the tilt exponent "
            f"a x + b y + c tau = {exponent:.6g} is too negative"
        )
    return psi1


def reconstruct_psi0(
    coords: HeatCoords, deriv: DerivedParams, n_nodes: int = 200, half_width: float = 10.0
) -> float:
    """Fold the boundary function with the propagator to recover psi0.

    The X-integral starts at the kink X = 0 (the payoff bracket vanishes for
    X < 0) and the Y-integral is a full Gaussian window, so both pieces are
    smooth and Gauss-Legendre converges spectrally.
    """
    x, y, tau = coords.x, coords.y, coords.tau
    if tau <= 0:
        return float(psi0_grid(x, y, tau, deriv))
    r1, r2 = deriv.r1, deriv.r2
    L = half_width * math.sqrt(2.0 * tau)
    gn, gw = np.polynomial.legendre.leggauss(n_nodes)

    hi = max(x + L, L)
    xn = 0.5 * (gn + 1.0) * hi
    xw = 0.5 * gw * hi
    fx = np.exp(0.5 * (r1 + 1.0) * xn) - np.exp(0.5 * (r1 - 1.0) * xn)
    gx = np.exp(-((x - xn) ** 2) / (4.0 * tau)) / math.sqrt(4.0 * math.pi * tau)
    ix = float(np.dot(xw, fx * gx))

    yn = y + gn * L
    yw = gw * L
    fy = np.exp(0.5 * (r2 - 1.0) * yn)
    gy = np.exp(-((y - yn) ** 2) / (4.0 * tau)) / math.sqrt(4.0 * math.pi * tau)
    iy = float(np.dot(yw, fy * gy))
    return ix * iy


def heat_residual(field, coords: HeatCoords, h: float = 1e-3, source=None) -> float:
    """Central-difference residual of (d/dtau - dxx - dyy) field = source.

    `field` maps (x, y, tau) to a scalar; `source` is evaluated at coords
    (None means the homogeneous equation).  Step h applies to all three
    directions; tau must exceed h so the stencil stays interior.
    """
    x, y, tau = coords.x, coords.y, coords.tau
    if tau <= h:
        raise InvalidParams(f"tau = {tau} must exceed the stencil step {h}")
    f0 = field(x, y, tau)
    dtau = (field(x, y, tau + h) - field(x, y, tau - h)) / (2.0 * h)
    dxx = (field(x + h, y, tau) - 2.0 * f0 + field(x - h, y, tau)) / h**2
    dyy = (field(x, y + h, tau) - 2.0 * f0 + field(x, y - h, tau)) / h**2
    res = dtau - dxx - dyy
    if source is not None:
        res -= source(x, y, tau)
    return res


def write_panel_csv(rows, path, config_comment=None):
    """generate_time_series's panel, one line per PanelRow; floats by repr."""
    columns = [f.name for f in fields(PanelRow)]
    write_csv(
        path,
        columns,
        ([r.path_id, r.obs_index, *(repr(getattr(r, c)) for c in columns[2:])] for r in rows),
        config_comment,
    )


def simulate_euler(
    spot: float,
    variance: float,
    mg: MgParams,
    cfg: McConfig,
    maturity_steps,
    dt: float,
):
    """Simulate all paths, snapshotting S at each requested step count.

    Returns an array of shape (len(maturity_steps), n_paths).  Antithetic
    partners occupy the second half of the path axis.

    Every buffer is allocated once per call, and each step draws into it
    and advances the state in place (step_euler with work buffers).  The
    first step stratifies the asset's shock and correlates the variance's
    to it; later steps draw the variance's shock first and correlate the
    asset's to it.
    """
    rng = _philox(cfg.seed)
    maturity_steps = list(maturity_steps)
    n_steps = max(maturity_steps)
    n, m = cfg.n_base, cfg.n_paths

    s = np.full(m, float(spot))
    v = np.full(m, float(variance))
    work = (np.empty(m), np.empty(m), np.empty(m))
    z_s, z_v, own = np.empty(m), np.empty(m), np.empty(n)
    snapshots = np.empty((len(maturity_steps), m))
    snap_at = {}  # step count -> every row that asks for it
    for i, step in enumerate(maturity_steps):
        snap_at.setdefault(step, []).append(i)
    if 0 in snap_at:
        snapshots[snap_at[0]] = s

    for k in range(1, n_steps + 1):
        if k == 1:
            _correlate(rng, mg.rho, _stratified_normals(rng, cfg.n_strata, z_s[:n]), z_v[:n], own)
        else:
            _correlate(rng, mg.rho, rng.standard_normal(out=z_v[:n]), z_s[:n], own)
        np.negative(z_s[:n], out=z_s[n:])
        np.negative(z_v[:n], out=z_v[n:])
        step_euler(s, v, dt, z_s, z_v, mg, work)
        if k in snap_at:
            snapshots[snap_at[k]] = s
    return snapshots


def price_option_euler(opt: OptionSpec, mg: MgParams, cfg: McConfig) -> McPrice:
    """Discounted-payoff estimate with standard error on simulate_euler's
    paths, at dt = tau_cal / steps."""
    if opt.tau_cal <= 0:
        raise InvalidParams("price_option_euler requires tau_cal > 0")
    n_steps = maturity_step_count(opt.tau_cal, cfg.steps_per_day)
    dt = opt.tau_cal / n_steps
    s_t = simulate_euler(opt.spot, opt.variance, mg, cfg, [n_steps], dt)[0]
    if opt.is_call:
        payoff = np.maximum(s_t - opt.strike, 0.0)
    else:
        payoff = np.maximum(opt.strike - s_t, 0.0)
    return _estimate(payoff, cfg, math.exp(-mg.r * opt.tau_cal))
