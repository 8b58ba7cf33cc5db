"""Independent verification machinery in heat coordinates.

Everything here works on the dimensionless fields: the exact symmetric
solution psi0, the 2+1 Gaussian propagator, the symmetry-breaking operator
applied to psi0, and a numerical-quadrature reconstruction of the
leading-order correction psi1.  The quadrature is deliberately independent
of the closed-form pricer: x-derivatives of psi0 are taken by central
finite differences, only the y-derivatives use the exact exponential
factorization d/dy psi0 = -b psi0.

That factorization is why acceptance 2 reports ratios of exactly 0 for the
c2-c4 terms of the breaking operator: with f_y = -b f, f_yy = b^2 f and
f_xy = -b f_x, each of their brackets vanishes algebraically, for every
alpha.  c2's (f_y + b f) and c4's (a b f + b f_x) + (a f_y + f_xy) cancel
exactly in floating point as written.  c3's (b^2 - b) f + (2b - 1) f_y + f_yy
cancels up to rounding, and at alpha = 1 its coefficient
xi^2 (V/v0)^(2 alpha - 2) - xi0^2 is itself 0.  So the full-operator psi1
equals the c1-only psi1, hence the closed form, at every alpha.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import ndtr

from .analytic import correction_kernel
from .errors import InvalidParams, QuadratureNotConverged
from .params import DerivedParams, HeatCoords, MgParams, PerturbParams, tilt


@dataclass(frozen=True)
class Psi0Eval:
    """Value of the symmetric solution at a heat-coordinate point."""

    value: float
    x: float
    y: float
    tau: float


@dataclass(frozen=True)
class QuadratureConfig:
    """Controls for the triple-integral quadrature.

    half_width   spatial half-width in units of the kernel scale 2*sqrt(tau-t)
                 (>= 6 guarantees the kernel mass is covered)
    n_nodes      Gauss-Legendre nodes per spatial axis
    n_time       Gauss-Legendre nodes for the 0..tau layer
    fd_step      central-difference step for x-derivatives of psi0
    rel_tol      accepted relative difference between successive refinements
    """

    half_width: float = 8.0
    n_nodes: int = 128
    n_time: int = 64
    fd_step: float = 1e-4
    rel_tol: float = 1e-3

    def __post_init__(self):
        if not self.half_width >= 6.0:
            raise InvalidParams(f"half_width must be >= 6, got {self.half_width}")
        # >= 64 recommended for production use; smaller grids are allowed so
        # that forced non-convergence is reachable from the CLI
        if not self.n_nodes >= 4:
            raise InvalidParams(f"n_nodes must be >= 4, got {self.n_nodes}")
        if not self.n_time >= 4:
            raise InvalidParams(f"n_time must be >= 4, got {self.n_time}")
        if not 1e-6 <= self.fd_step <= 1e-3:
            raise InvalidParams(f"fd_step must be in [1e-6, 1e-3], got {self.fd_step}")

    def refined(self) -> "QuadratureConfig":
        return replace(self, n_nodes=2 * self.n_nodes, n_time=2 * self.n_time)


def psi0_grid(x, y, tau, deriv: DerivedParams):
    """Vectorized symmetric solution; exact boundary function at tau = 0."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    tau = np.asarray(tau, dtype=float)
    r1, r2 = deriv.r1, deriv.r2
    with np.errstate(divide="ignore", invalid="ignore"):
        s = np.sqrt(2.0 * tau)
        d1 = x / s + 0.5 * s * (r1 + 1.0)
        d2 = x / s + 0.5 * s * (r1 - 1.0)
    pref = np.exp(0.5 * (r2 - 1.0) * (0.5 * tau * (r2 - 1.0) + y))
    interior = pref * (
        np.exp(0.5 * (r1 + 1.0) * x + 0.25 * (r1 + 1.0) ** 2 * tau) * ndtr(d1)
        - np.exp(0.5 * (r1 - 1.0) * x + 0.25 * (r1 - 1.0) ** 2 * tau) * ndtr(d2)
    )
    boundary = np.exp(0.5 * (r2 - 1.0) * y) * np.maximum(
        np.exp(0.5 * (r1 + 1.0) * x) - np.exp(0.5 * (r1 - 1.0) * x), 0.0
    )
    return np.where(tau > 0, interior, boundary)


def psi0(coords: HeatCoords, deriv: DerivedParams) -> Psi0Eval:
    value = float(psi0_grid(coords.x, coords.y, coords.tau, deriv))
    return Psi0Eval(value=value, x=coords.x, y=coords.y, tau=coords.tau)


def heat_green(x, y, tau, xp, yp, t):
    """Gaussian propagator of the 2+1 heat equation; zero for tau <= t."""
    x, y, xp, yp = (np.asarray(v, dtype=float) for v in (x, y, xp, yp))
    dt = np.asarray(tau, dtype=float) - np.asarray(t, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        val = np.exp(-((x - xp) ** 2 + (y - yp) ** 2) / (4.0 * dt)) / (4.0 * np.pi * dt)
    out = np.where(dt > 0, val, 0.0)
    return out if out.ndim else float(out)


def breaking_operator_grid(
    x,
    y,
    tau,
    mg: MgParams,
    pert: PerturbParams,
    deriv: DerivedParams,
    c1: float = 1.0,
    c2: float = 1.0,
    c3: float = 1.0,
    c4: float = 1.0,
    fd_step: float = 1e-4,
):
    """Symmetry-breaking operator applied to psi0, vectorized over the grid.

    y-derivatives are exact (psi0's y-factor is e^{-b y}); x-derivatives use
    central differences with step fd_step.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    a, b = deriv.a, deriv.b
    sigma2 = pert.sigma**2
    v0 = pert.v0
    h = fd_step

    f0 = psi0_grid(x, y, tau, deriv)
    fp = psi0_grid(x + h, y, tau, deriv)
    fm = psi0_grid(x - h, y, tau, deriv)
    fx = (fp - fm) / (2.0 * h)
    fxx = (fp - 2.0 * f0 + fm) / h**2
    fy = -b * f0
    fyy = b**2 * f0
    fxy = -b * fx

    out = np.zeros(np.broadcast(x, y).shape)
    if c1:
        out = out + c1 * 0.5 * (v0 * np.exp(y) - sigma2) * (
            (a * a - a) * f0 + (2.0 * a - 1.0) * fx + fxx
        )
    if c2:
        out = out + c2 * (mg.lam / v0) * np.exp(-y) * (fy + b * f0)
    if c3:
        out = out + c3 * (
            mg.xi**2 * v0 ** (2.0 * mg.alpha - 2.0) * np.exp((2.0 * mg.alpha - 2.0) * y)
            - pert.xi0**2
        ) * ((b * b - b) * f0 + (2.0 * b - 1.0) * fy + fyy)
    if c4:
        # group so the analytic cancellation (a b f0 + b fx) + (a fy + fxy) = 0
        # is exact in floating point, not just up to association-order noise
        out = out + c4 * mg.xi * mg.rho * v0 ** (mg.alpha - 0.5) * np.exp(
            (mg.alpha - 0.5) * y
        ) * ((a * (b * f0) + b * fx) + (a * fy + fxy))
    return out


def apply_breaking_operator(
    coords: HeatCoords,
    mg: MgParams,
    pert: PerturbParams,
    deriv: DerivedParams,
    c1: float = 1.0,
    c2: float = 1.0,
    c3: float = 1.0,
    c4: float = 1.0,
    fd_step: float = 1e-4,
) -> float:
    return float(
        breaking_operator_grid(
            coords.x, coords.y, coords.tau, mg, pert, deriv, c1, c2, c3, c4, fd_step
        )
    )


def _psi1_single_grid(coords, mg, pert, deriv, qcfg, c_flags):
    """One quadrature pass of psi1 = -int_0^tau dt iint G * (D psi0).

    Spatial integration uses kernel-scaled coordinates per time slice, with
    the x'-panel split at the payoff kink X = 0 so each piece is smooth.
    """
    x, y, tau = coords.x, coords.y, coords.tau
    L = qcfg.half_width
    ns, nt = qcfg.n_nodes, qcfg.n_time
    c1, c2, c3, c4 = c_flags

    full_n, full_w = np.polynomial.legendre.leggauss(ns)
    half_n, half_w = np.polynomial.legendre.leggauss(max(ns // 2, 2))
    tn, tw = np.polynomial.legendre.leggauss(nt)
    t_nodes = 0.5 * tau * (tn + 1.0)
    t_weights = 0.5 * tau * tw

    v = full_n * L
    vw = full_w * L * np.exp(-(v**2))

    total = 0.0
    for ti, wi in zip(t_nodes, t_weights):
        scale = 2.0 * math.sqrt(tau - ti)
        u_kink = -x / scale
        if -L < u_kink < L:
            u_lo = 0.5 * (half_n + 1.0) * (u_kink + L) - L
            w_lo = 0.5 * half_w * (u_kink + L)
            u_hi = 0.5 * (half_n + 1.0) * (L - u_kink) + u_kink
            w_hi = 0.5 * half_w * (L - u_kink)
            u = np.concatenate([u_lo, u_hi])
            uw = np.concatenate([w_lo, w_hi])
        else:
            u = full_n * L
            uw = full_w * L
        uw = uw * np.exp(-(u**2))
        integrand = breaking_operator_grid(
            x + scale * u[:, None],
            y + scale * v[None, :],
            ti,
            mg,
            pert,
            deriv,
            c1,
            c2,
            c3,
            c4,
            qcfg.fd_step,
        )
        total += wi * float(np.outer(uw, vw).ravel() @ integrand.ravel()) / math.pi
    return -total


def psi1_quadrature(
    coords: HeatCoords,
    mg: MgParams,
    pert: PerturbParams,
    deriv: DerivedParams,
    qcfg: QuadratureConfig | None = None,
    c_flags=(1.0, 1.0, 1.0, 1.0),
) -> float:
    """psi1 by tensor-product quadrature, with one grid refinement as check.

    Raises QuadratureNotConverged when the refined grid disagrees with the
    base grid by more than qcfg.rel_tol relative.
    """
    if coords.tau <= 0:
        raise InvalidParams("psi1 quadrature requires tau > 0")
    qcfg = qcfg or QuadratureConfig()
    coarse = _psi1_single_grid(coords, mg, pert, deriv, qcfg, c_flags)
    fine = _psi1_single_grid(coords, mg, pert, deriv, qcfg.refined(), c_flags)
    scale = max(abs(fine), 1e-300)
    if abs(fine - coarse) > qcfg.rel_tol * scale:
        raise QuadratureNotConverged(
            f"refinement moved psi1 by {abs(fine - coarse) / scale:.2e} relative "
            f"(> {qcfg.rel_tol:.1e}); increase n_nodes/n_time"
        )
    return fine


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
    return c1_per_strike / tilt(coords, deriv)


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
