"""Parameter types, unit conventions and heat-coordinate transformations.

Units: all rates and variances are per year, volatilities per sqrt(year),
times to maturity in years (the CLI converts days with a 365-day year).
The variables (x, y, tau) = (log S/K, log V/V0, sigma^2 (T-t)/2) are
dimensionless; so are the tilt constants a, b, c.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

from .errors import DegenerateParams, InvalidParams, NonpositiveVariance

#: |1 + sqrt(2) gamma / (sigma xi0)| below this is rejected: the leading-order
#: correction divides by it.
EPS_DEGENERATE = 1e-10

#: Reference variance scale, per year.  Results are provably independent of
#: this choice; it only makes log(V/V0) dimensionless.
DEFAULT_V0 = 1.0


def check_kind(kind) -> None:
    """The pricers read any kind but "call" as a put, so reject the rest first."""
    if kind not in ("call", "put"):
        raise InvalidParams(f"kind must be 'call' or 'put', got {kind!r}")


def check_counts(obj, *names):
    """A non-integer count passes every ordering check and fails later
    inside numpy, and a float seed is truncated, so reject them first."""
    for name in names:
        value = getattr(obj, name)
        if not isinstance(value, numbers.Integral):
            raise InvalidParams(f"{name} must be an integer, got {value!r}")


def _require_finite(obj, *names):
    """NaN and infinities pass every ordering check, so reject them first."""
    for name in names:
        value = getattr(obj, name)
        if not math.isfinite(value):
            raise InvalidParams(f"{name} must be finite, got {value}")


@dataclass(frozen=True)
class MgParams:
    """Structural parameters of the two-factor stochastic-volatility model.

    kappa  mean-reversion speed [1/year]
    theta  long-run variance [1/year]
    xi     vol-of-vol [year^(alpha - 3/2)]
    rho    correlation of the two Brownian drivers, in [-1, 1]
    alpha  variance exponent (1/2 -> Heston, 1 -> Hull-White)
    r      risk-free rate [1/year]
    """

    kappa: float
    theta: float
    xi: float
    rho: float
    alpha: float
    r: float = 0.0

    def __post_init__(self):
        _require_finite(self, "kappa", "theta", "xi", "rho", "alpha", "r")
        if not self.kappa > 0:
            raise InvalidParams(f"kappa must be > 0, got {self.kappa}")
        if not self.theta > 0:
            raise InvalidParams(f"theta must be > 0, got {self.theta}")
        if not self.xi > 0:
            raise InvalidParams(f"xi must be > 0, got {self.xi}")
        if not abs(self.rho) <= 1:
            raise InvalidParams(f"|rho| must be <= 1, got {self.rho}")
        if not self.alpha > 0:
            raise InvalidParams(f"alpha must be > 0, got {self.alpha}")
        if self.r < 0:
            raise InvalidParams(f"r must be >= 0, got {self.r}")

    @property
    def lam(self) -> float:
        """Drift constant lambda = kappa * theta [1/year^2]."""
        return self.kappa * self.theta


@dataclass(frozen=True)
class PerturbParams:
    """Parameters of the perturbative solution.

    sigma  averaged volatility [1/sqrt(year)]
    xi0    symmetric vol-of-vol [1/sqrt(year)]
    v0     reference variance scale [1/year]
    """

    sigma: float
    xi0: float
    v0: float = DEFAULT_V0

    def __post_init__(self):
        _require_finite(self, "sigma", "xi0", "v0")
        if not self.sigma > 0:
            raise InvalidParams(f"sigma must be > 0, got {self.sigma}")
        if not self.xi0 > 0:
            raise InvalidParams(f"xi0 must be > 0, got {self.xi0}")
        if not self.v0 > 0:
            raise InvalidParams(f"v0 must be > 0, got {self.v0}")

    @classmethod
    def from_mg(cls, mg: MgParams, sigma: float, v0: float = DEFAULT_V0) -> "PerturbParams":
        return cls(sigma=sigma, xi0=symmetric_xi(mg.xi, mg.alpha, sigma), v0=v0)


def symmetric_xi(xi, alpha, sigma):
    """The symmetric model's vol-of-vol, by the dimensional linkage
    xi0 = xi * sigma^(2(alpha-1))."""
    return xi * sigma ** (2.0 * (alpha - 1.0))


@dataclass(frozen=True)
class DerivedParams:
    """Dimensionless constants of the heat-coordinate frame."""

    r1: float      # 2 r / sigma^2
    r2: float      # 1 + sqrt(2) gamma / (sigma xi0), gamma = -kappa - xi0^2
    a: float
    b: float
    c: float


def correction_r2(kappa: float, xi0: float, sigma: float) -> float:
    """R2 = 1 + sqrt(2) gamma / (sigma xi0), with gamma = -kappa - xi0^2.

    Raises DegenerateParams when |R2| falls below EPS_DEGENERATE, because the
    leading-order correction divides by it.
    """
    gamma = -kappa - xi0**2
    r2 = 1.0 + math.sqrt(2.0) * gamma / (sigma * xi0)
    if abs(r2) < EPS_DEGENERATE:
        raise DegenerateParams(
            f"|1 + sqrt(2) gamma/(sigma xi0)| = {abs(r2):.3e} < {EPS_DEGENERATE}"
        )
    return r2


def derive_params(mg: MgParams, pert: PerturbParams) -> DerivedParams:
    """Compute the derived constants of the exponential-tilt transformation.

    Raises DegenerateParams where correction_r2 does.
    """
    sigma2 = pert.sigma ** 2
    r2 = correction_r2(mg.kappa, pert.xi0, pert.sigma)
    r1 = 2.0 * mg.r / sigma2
    return DerivedParams(
        r1=r1,
        r2=r2,
        a=-0.5 * (r1 - 1.0),
        b=-0.5 * (r2 - 1.0),
        c=-0.25 * ((r2 - 1.0) ** 2 + (r1 + 1.0) ** 2),
    )


@dataclass(frozen=True)
class OptionSpec:
    """A vanilla European contract plus the current variance state.

    spot, strike in currency units; tau_cal = T - t in years;
    variance is the instantaneous variance V [1/year].
    """

    spot: float
    strike: float
    tau_cal: float
    kind: str = "call"
    variance: float = 0.0

    def __post_init__(self):
        _require_finite(self, "spot", "strike", "tau_cal", "variance")
        if not self.spot > 0:
            raise InvalidParams(f"spot must be > 0, got {self.spot}")
        if not self.strike > 0:
            raise InvalidParams(f"strike must be > 0, got {self.strike}")
        if self.tau_cal < 0:
            raise InvalidParams(f"tau_cal must be >= 0, got {self.tau_cal}")
        if self.variance < 0:
            raise InvalidParams(f"variance must be >= 0, got {self.variance}")
        check_kind(self.kind)

    @property
    def is_call(self) -> bool:
        return self.kind == "call"


@dataclass(frozen=True)
class HeatCoords:
    """Dimensionless heat-equation coordinates (x, y, tau)."""

    x: float
    y: float
    tau: float

    def __post_init__(self):
        _require_finite(self, "x", "y", "tau")
        if self.tau < 0:
            raise InvalidParams(f"tau must be >= 0, got {self.tau}")


def to_heat_coords(opt: OptionSpec, pert: PerturbParams) -> HeatCoords:
    """Map a contract to (x, y, tau) = (log S/K, log V/V0, sigma^2 tau_cal / 2)."""
    if opt.variance <= 0:
        raise NonpositiveVariance(
            f"variance must be > 0 to form log(V/V0), got {opt.variance}"
        )
    ratio = opt.spot / opt.strike
    if not ratio:
        raise InvalidParams(f"S/K = {opt.spot}/{opt.strike} underflows to 0; log S/K is -inf")
    return HeatCoords(
        x=math.log(ratio),
        y=math.log(opt.variance / pert.v0),
        tau=0.5 * pert.sigma ** 2 * opt.tau_cal,
    )


def tilt(coords: HeatCoords, deriv: DerivedParams) -> float:
    """Exponential tilt phi = exp(a x + b y + c tau) linking C = K phi psi."""
    return math.exp(deriv.a * coords.x + deriv.b * coords.y + deriv.c * coords.tau)
