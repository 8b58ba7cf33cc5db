"""Perturbative pricing engine for a two-factor stochastic-volatility model."""

from .analytic import (
    PriceBreakdown,
    bs_price,
    bs_vega,
    implied_vol,
    implied_vol_array,
    price_mg,
)
from .calibration import CalibResult, Quote, QuoteSet, calibrate, ivrmse
from .errors import (
    DegenerateParams,
    EmptyQuoteSet,
    InvalidParams,
    MgpertError,
    NoConvergence,
    NonpositiveVariance,
    OutOfBounds,
    QuadratureNotConverged,
)
from .heatkernel import QuadratureConfig, psi1_quadrature
from .mc import (
    McConfig,
    McPrice,
    TimeSeriesSpec,
    generate_time_series,
    price_option_mc,
    price_surface_mc,
)
from .params import (
    DerivedParams,
    HeatCoords,
    MgParams,
    OptionSpec,
    PerturbParams,
    derive_params,
    tilt,
    to_heat_coords,
)

__version__ = "0.1.0"

__all__ = [
    "PriceBreakdown", "bs_price", "bs_vega", "implied_vol", "implied_vol_array", "price_mg",
    "CalibResult", "Quote", "QuoteSet", "calibrate", "ivrmse",
    "DegenerateParams", "EmptyQuoteSet", "InvalidParams", "MgpertError",
    "NoConvergence", "NonpositiveVariance", "OutOfBounds",
    "QuadratureNotConverged",
    "QuadratureConfig", "psi1_quadrature",
    "McConfig", "McPrice", "TimeSeriesSpec", "generate_time_series",
    "price_option_mc", "price_surface_mc",
    "DerivedParams", "HeatCoords", "MgParams", "OptionSpec", "PerturbParams",
    "derive_params", "tilt", "to_heat_coords",
]
