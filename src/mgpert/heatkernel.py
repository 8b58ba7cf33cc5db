"""Independent verification machinery in heat coordinates.

Everything here works on the dimensionless fields: the exact symmetric
solution psi0, the symmetry-breaking operator applied to psi0, and a
numerical-quadrature reconstruction of the leading-order correction psi1
against the 2+1 heat kernel.  The quadrature is deliberately independent
of the closed-form pricer: x-derivatives of psi0 are central differences
of step FD_STEP, only the y-derivatives use the exact exponential
factorization d/dy psi0 = -b psi0.  breaking_operator_grid returns the
operator's four terms, stacked.

That factorization is why acceptance 2 reports ratios of exactly 0 for the
c2-c4 terms of the breaking operator: with f_y = -b f, f_yy = b^2 f and
f_xy = -b f_x, each of their brackets vanishes algebraically, for every
alpha.  c2's (f_y + b f) and c4's (a b f + b f_x) + (a f_y + f_xy) cancel
exactly in floating point as written.  c3's (b^2 - b) f + (2b - 1) f_y + f_yy
cancels up to rounding, and at alpha = 1 its coefficient
xi^2 (V/v0)^(2 alpha - 2) - xi0^2 is itself 0.  So the full-operator psi1
equals the c1-only psi1, hence the closed form, at every alpha.

The same factorization makes the quadrature cheap.  psi0 = e^{-b y} g(x, tau)
with g = psi0 at y = 0, and each term of the breaking operator is a
coefficient in y times a bracket in (psi0, its x-derivatives), so each term
of D psi0 is a function of y times a function of (x, t).  The Gaussian
propagator factors the same way, so on a tensor grid of nodes the double sum
over (x', y') is a short sum of products of two 1-D sums.  That is the same
sum in exact arithmetic, not an approximation: it agrees with the
tensor-product pass it replaced to ~1e-11 relative (recorded values in the
tests).  g and its x-derivatives are still central differences of psi0, so
the oracle stays independent of the closed form.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .analytic import normal_cdf
from .errors import InvalidParams, QuadratureNotConverged
from .params import DerivedParams, HeatCoords, MgParams, PerturbParams, check_counts


#: spatial half-width of the quadrature grid, in kernel scales 2 sqrt(tau - t)
HALF_WIDTH = 8.0
#: central-difference step for the x-derivatives of psi0
FD_STEP = 1e-4


@dataclass(frozen=True)
class QuadratureConfig:
    """Controls for the triple-integral quadrature.  The spatial half-width
    and the finite-difference step are fixed: HALF_WIDTH and FD_STEP.

    n_nodes      Gauss-Legendre nodes per spatial axis
    n_time       Gauss-Legendre nodes for the 0..tau layer
    rel_tol      accepted relative difference between successive refinements
    """

    n_nodes: int = 128
    n_time: int = 64
    rel_tol: float = 1e-3

    def __post_init__(self):
        # a NaN, zero or negative tolerance would switch the refinement check off
        if not 0.0 < self.rel_tol < math.inf:
            raise InvalidParams(f"rel_tol must be finite and > 0, got {self.rel_tol}")
        check_counts(self, "n_nodes", "n_time")
        # >= 64 recommended for production use; smaller grids are allowed so
        # that forced non-convergence is reachable from the CLI
        if not self.n_nodes >= 4:
            raise InvalidParams(f"n_nodes must be >= 4, got {self.n_nodes}")
        if not self.n_time >= 4:
            raise InvalidParams(f"n_time must be >= 4, got {self.n_time}")

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
        np.exp(0.5 * (r1 + 1.0) * x + 0.25 * (r1 + 1.0) ** 2 * tau) * normal_cdf(d1)
        - np.exp(0.5 * (r1 - 1.0) * x + 0.25 * (r1 - 1.0) ** 2 * tau) * normal_cdf(d2)
    )
    boundary = np.exp(0.5 * (r2 - 1.0) * y) * np.maximum(
        np.exp(0.5 * (r1 + 1.0) * x) - np.exp(0.5 * (r1 - 1.0) * x), 0.0
    )
    return np.where(tau > 0, interior, boundary)


def _breaking_terms(mg: MgParams, pert: PerturbParams, deriv: DerivedParams):
    """The four terms of the symmetry-breaking operator, as (coef, bracket) pairs.

    Term k of D psi0 is coef_k(y) * bracket_k(f, f_x, f_xx), with f = psi0 and
    its x-derivatives.  The y-derivatives are folded into the brackets through
    f_y = -b f, f_yy = b^2 f and f_xy = -b f_x, so each bracket is linear in
    (f, f_x, f_xx): applied to psi0 = e^{-b y} g(x, tau) it is e^{-b y} times
    the same bracket of g.
    """
    a, b = deriv.a, deriv.b
    v0 = pert.v0
    sigma2 = pert.sigma**2
    alpha = mg.alpha
    return (
        (
            lambda y: 0.5 * (v0 * np.exp(y) - sigma2),
            lambda f, fx, fxx: (a * a - a) * f + (2.0 * a - 1.0) * fx + fxx,
        ),
        (
            lambda y: (mg.lam / v0) * np.exp(-y),
            lambda f, fx, fxx: -b * f + b * f,
        ),
        (
            lambda y: mg.xi**2 * v0 ** (2.0 * alpha - 2.0) * np.exp((2.0 * alpha - 2.0) * y)
            - pert.xi0**2,
            lambda f, fx, fxx: (b * b - b) * f + (2.0 * b - 1.0) * (-b * f) + b**2 * f,
        ),
        (
            lambda y: mg.xi * mg.rho * v0 ** (alpha - 0.5) * np.exp((alpha - 0.5) * y),
            # grouped so the analytic cancellation (a b f + b fx) + (a fy + fxy) = 0
            # is exact in floating point, not just up to association-order noise
            lambda f, fx, fxx: (a * (b * f) + b * fx) + (a * (-b * f) + -b * fx),
        ),
    )


def _x_stencil(field, x, h):
    """field and its first two x-derivatives by central differences, step h."""
    f0 = field(x)
    fp = field(x + h)
    fm = field(x - h)
    return f0, (fp - fm) / (2.0 * h), (fp - 2.0 * f0 + fm) / h**2


def breaking_operator_grid(x, y, tau, mg: MgParams, pert: PerturbParams, deriv: DerivedParams):
    """The four terms of the symmetry-breaking operator applied to psi0,
    stacked on a leading axis of length 4 and vectorized over the grid.

    y-derivatives are exact (psi0's y-factor is e^{-b y}); x-derivatives use
    central differences with step FD_STEP.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    f = _x_stencil(lambda xs: psi0_grid(xs, y, tau, deriv), x, FD_STEP)
    return np.stack([coef(y) * bracket(*f) for coef, bracket in _breaking_terms(mg, pert, deriv)])


@functools.lru_cache(maxsize=16)
def _leggauss(n: int):
    """Gauss-Legendre nodes and weights on [-1, 1], computed once per n."""
    nodes, weights = np.polynomial.legendre.leggauss(n)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def _psi1_single_grid(coords, mg, pert, deriv, qcfg, c_flags):
    """One quadrature pass of psi1 = -int_0^tau dt iint G * (D psi0).

    Spatial integration uses kernel-scaled coordinates per time slice,
    x' = x + s u and y' = y + s v with s = 2 sqrt(tau - t), on a Gauss-Legendre
    tensor grid (u, v) with Gaussian weights, the u-panel split at the payoff
    kink x' = 0 so each piece is smooth.  The integrand is separable: term k
    of D psi0 is coef_k(y') e^{-b y'} times bracket_k of g(x', t) = psi0(x', 0, t)
    (see _breaking_terms).  So the tensor sum sum_u sum_v uw vw D psi0 equals
    sum_k (sum_u uw bracket_k) (sum_v vw coef_k e^{-b y'}) in exact arithmetic,
    and each slice costs two 1-D sums per term instead of one 2-D sum.
    """
    x, y, tau = coords.x, coords.y, coords.tau
    L = HALF_WIDTH
    ns, nt = qcfg.n_nodes, qcfg.n_time

    full_n, full_w = _leggauss(ns)
    half_n, half_w = _leggauss(max(ns // 2, 2))
    tn, tw = _leggauss(nt)
    t_nodes = 0.5 * tau * (tn + 1.0)
    t_weights = 0.5 * tau * tw
    scale = 2.0 * np.sqrt(tau - t_nodes)

    u_slices, w_slices = [], []
    for u_kink in -x / scale:
        if -L < u_kink < L:
            u_slices.append(np.concatenate([0.5 * (half_n + 1.0) * (u_kink + L) - L,
                                            0.5 * (half_n + 1.0) * (L - u_kink) + u_kink]))
            w_slices.append(np.concatenate([0.5 * half_w * (u_kink + L),
                                            0.5 * half_w * (L - u_kink)]))
        else:
            u_slices.append(full_n * L)
            w_slices.append(full_w * L)
    # all slices' u-nodes end to end; slice i's run starts at starts[i]
    sizes = [len(us) for us in u_slices]
    starts = np.cumsum([0] + sizes[:-1])
    u = np.concatenate(u_slices)
    uw = np.concatenate(w_slices) * np.exp(-(u**2))
    t_u = np.repeat(t_nodes, sizes)
    g = _x_stencil(lambda xs: psi0_grid(xs, 0.0, t_u, deriv),
                   x + np.repeat(scale, sizes) * u, FD_STEP)

    v = full_n * L
    vw = full_w * L * np.exp(-(v**2))
    y_nodes = y + scale[:, None] * v[None, :]
    y_factor = np.exp(-deriv.b * y_nodes)

    per_slice = np.zeros(nt)
    for c, (coef, bracket) in zip(c_flags, _breaking_terms(mg, pert, deriv)):
        if c:
            x_sums = np.add.reduceat(uw * bracket(*g), starts)
            y_sums = (coef(y_nodes) * y_factor) @ vw
            per_slice += c * x_sums * y_sums
    return -float(t_weights @ per_slice) / math.pi


def psi1_quadrature(
    coords: HeatCoords,
    mg: MgParams,
    pert: PerturbParams,
    deriv: DerivedParams,
    qcfg: QuadratureConfig | None = None,
    c_flags=(1.0, 1.0, 1.0, 1.0),
) -> float:
    """psi1 by separable Gauss-Legendre quadrature, with one grid refinement as check.

    Each time slice contracts 1-D sums over x' and y' (see _psi1_single_grid);
    the x-derivatives of psi0 are central differences, so the oracle shares
    nothing with the closed form.  Raises QuadratureNotConverged when the
    refined grid disagrees with the base grid by more than qcfg.rel_tol
    relative.
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
