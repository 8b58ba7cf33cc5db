"""Experiment drivers: static cross-section and simulated time series.

The static exercise prices a Monte Carlo surface per initial-volatility
scenario, all scenarios simulated on one draw stream, and fits only sigma
(structural parameters pinned at the simulation truth).  The time-series
exercise generates the weekly panel, fits (sigma, R2) per sample path with
the true latent variance passed through, reports (kappa, xi, alpha, sigma)
under calibrate's convention, and gives parameter and error summary
statistics.
"""

from __future__ import annotations

import concurrent.futures
import csv
import math
import os
from dataclasses import dataclass

import numpy as np

from .analytic import _scipy_ndtr, bs_price, implied_vol_array
from .calibration import Quote, QuoteSet, calibrate, pert_price_grid
from .errors import InvalidParams
from .mc import (
    DAYS_PER_YEAR,
    MONEYNESS,
    McConfig,
    TimeSeriesSpec,
    generate_time_series,
    price_surface_mc,
    simulate_surface,
)
from .params import MgParams, OptionSpec

#: Structural vectors (kappa, theta, xi, rho, alpha) of the four simulated
#: option markets: equity-style negative correlation, zero correlation,
#: VIX-style positive correlation, and a high central tendency.
DATASETS = {
    1: MgParams(kappa=1.1768, theta=0.0823, xi=0.3000, rho=-0.5459, alpha=1.0),
    2: MgParams(kappa=1.1768, theta=0.0823, xi=0.3000, rho=0.0, alpha=1.0),
    3: MgParams(kappa=1.1768, theta=0.0823, xi=0.3000, rho=0.5459, alpha=1.0),
    4: MgParams(kappa=1.1768, theta=0.1250, xi=0.3000, rho=-0.5459, alpha=1.0),
}

STATIC_MG = MgParams(kappa=1.5, theta=0.08, xi=1.5, rho=-0.5, alpha=1.0)
STATIC_VOL_GRID = (0.35, 0.25, 0.18, 0.10)


@dataclass(frozen=True)
class StaticRow:
    v_init: float      # initial volatility sqrt(V(0))
    sigma_hat: float
    ivrmse: float


@dataclass(frozen=True)
class StaticCurves:
    """Per-strike diagnostics of one scenario, Figure-1/2 style."""

    v_init: float
    moneyness: np.ndarray
    log_price_diff: np.ndarray   # log(C_MC / C_pert)
    iv_mc: np.ndarray
    iv_pert: np.ndarray
    c1_ratio: np.ndarray         # C1 / (C0 + C1)


@dataclass(frozen=True)
class StaticReport:
    rows: list
    curves: list
    results: list  # CalibResult per scenario


def _call_quotes(contracts, r: float) -> QuoteSet:
    """Call price quotes from (spot, strike, tau, variance, price) tuples."""
    return QuoteSet(
        quotes=[
            Quote(
                opt=OptionSpec(spot=spot, strike=k, tau_cal=tau, kind="call", variance=var),
                price=price,
            )
            for spot, k, tau, var, price in contracts
        ],
        r=r,
    )


def run_static_experiment(
    mc_cfg: McConfig,
    maturity_days: float = 30.0,
    spot: float = 100.0,
) -> StaticReport:
    """Simulate, calibrate sigma, and report one row per volatility scenario.

    The model is STATIC_MG and the strikes are MONEYNESS times spot.  The
    scenarios are STATIC_VOL_GRID's initial volatilities v; the simulation
    starts the variance process at v^2.  They are simulated in one call, on
    one draw stream, and each is priced from its own paths: the same bits
    as a simulation per scenario, which would draw the same normals again.
    """
    if not 0.0 < maturity_days < math.inf:
        raise InvalidParams(f"maturity_days must be finite and > 0, got {maturity_days}")
    mg = STATIC_MG
    tau = maturity_days / DAYS_PER_YEAR
    strikes = [m * spot for m in MONEYNESS]
    rows, curves, results = [], [], []
    starts = [v_init**2 for v_init in STATIC_VOL_GRID]
    paths = simulate_surface(spot, starts, [maturity_days], mg, mc_cfg)
    for v_init, variance0, *scenario_paths in zip(STATIC_VOL_GRID, starts, *paths):
        surface = price_surface_mc(
            spot, variance0, [maturity_days], strikes, mg, mc_cfg, paths=scenario_paths
        )
        mc_prices = np.array([surface[(maturity_days, k)].estimate for k in strikes])
        quotes = _call_quotes(
            ((spot, k, tau, variance0, p) for k, p in zip(strikes, mc_prices)), mg.r
        )
        result = calibrate(
            quotes, (mg.kappa, mg.xi, mg.alpha, v_init), fix_structurals=True
        )
        sigma_hat = result.theta_pert[3]
        rows.append(StaticRow(v_init=v_init, sigma_hat=sigma_hat, ivrmse=result.ivrmse))
        results.append(result)

        strikes_arr = np.asarray(strikes)
        total = pert_price_grid(
            spot, strikes_arr, tau, variance0, mg.r, mg.kappa, mg.xi, mg.alpha, sigma_hat
        )
        c0_only = bs_price(spot, strikes_arr, tau, mg.r, sigma_hat, "call")
        c1 = total - c0_only
        iv_mc = implied_vol_array(mc_prices, spot, strikes_arr, tau, mg.r)
        iv_pert = implied_vol_array(total, spot, strikes_arr, tau, mg.r)
        curves.append(
            StaticCurves(
                v_init=v_init,
                moneyness=strikes_arr / spot,
                log_price_diff=np.log(mc_prices / total),
                iv_mc=iv_mc,
                iv_pert=iv_pert,
                c1_ratio=c1 / total,
            )
        )
    return StaticReport(rows=rows, curves=curves, results=results)


@dataclass(frozen=True)
class ParamStat:
    dataset: int
    param: str
    true: float
    mean: float
    bias: float
    std: float


@dataclass(frozen=True)
class TimeSeriesReport:
    dataset: int
    param_stats: list
    ivrmse_mean: float
    ivrmse_std: float
    per_path: list  # CalibResult per sample path


def _run_one_path(args):
    spec, mg, seed, path_id, sigma0 = args
    rows = generate_time_series(spec, mg, seed, paths=[path_id])
    # spot recovered from the stored strike and moneyness
    quotes = _call_quotes(
        ((row.strike / row.moneyness, row.strike, row.maturity_days / DAYS_PER_YEAR,
          row.v_true, row.mc_price) for row in rows),
        mg.r,
    )
    return calibrate(quotes, (mg.kappa, mg.xi, mg.alpha, sigma0))


def run_timeseries_experiment(
    dataset_id: int,
    spec: TimeSeriesSpec | None = None,
    seed: int = 0,
    n_workers: int = 1,
) -> TimeSeriesReport:
    """Generate the panel for one data set and calibrate each sample path.

    Work is distributed across processes path-by-path; results are reduced
    in path order so the report is independent of n_workers.
    """
    if dataset_id not in DATASETS:
        raise InvalidParams(f"dataset_id must be in {sorted(DATASETS)}, got {dataset_id}")
    if n_workers < 1:
        raise InvalidParams(f"n_workers must be >= 1, got {n_workers}")
    mg = DATASETS[dataset_id]
    spec = spec or TimeSeriesSpec()
    sigma0 = math.sqrt(spec.v0_init)

    # each job simulates one path of the panel generate_time_series(spec, mg,
    # seed) writes, so the fit for path p is the fit to that panel's path p
    jobs = [(spec, mg, seed, path_id, sigma0) for path_id in range(spec.n_sample_paths)]

    if n_workers > 1:
        # load scipy's array Phi before the workers fork, so they share its
        # pages instead of each importing scipy.special in its first round
        _scipy_ndtr()
        with concurrent.futures.ProcessPoolExecutor(max_workers=n_workers) as pool:
            per_path = list(pool.map(_run_one_path, jobs))
    else:
        per_path = [_run_one_path(j) for j in jobs]

    thetas = np.array([r.theta_pert for r in per_path])
    errors = np.array([r.ivrmse for r in per_path])
    kappa_h, xi_h, alpha_h, sigma_h = thetas.T
    sigma2_h = sigma_h**2
    stats = []
    for name, true, values in [
        ("kappa", mg.kappa, kappa_h),
        ("xi", mg.xi, xi_h),
        ("alpha", mg.alpha, alpha_h),
        ("sigma2", float("nan"), sigma2_h),
    ]:
        mean = float(values.mean())
        stats.append(
            ParamStat(
                dataset=dataset_id,
                param=name,
                true=true,
                mean=mean,
                bias=mean - true if math.isfinite(true) else float("nan"),
                std=float(values.std(ddof=1)) if values.size > 1 else 0.0,
            )
        )
    return TimeSeriesReport(
        dataset=dataset_id,
        param_stats=stats,
        ivrmse_mean=float(errors.mean()),
        ivrmse_std=float(errors.std(ddof=1)) if errors.size > 1 else 0.0,
        per_path=per_path,
    )


def write_csv(path, header, rows, config_comment=None):
    """CSV file with an optional '# <config_comment>' first line; the one writer of reports."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        if config_comment:
            fh.write(f"# {config_comment}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_static_report(report: StaticReport, out_dir, config_comment=None):
    os.makedirs(out_dir, exist_ok=True)
    write_csv(
        os.path.join(out_dir, "table1.csv"),
        ["v_init", "sigma_hat", "ivrmse"],
        [[repr(r.v_init), repr(r.sigma_hat), repr(r.ivrmse)] for r in report.rows],
        config_comment,
    )
    for cur in report.curves:
        rows = [
            [repr(m), repr(lpd), repr(imc), repr(ipt), repr(cr)]
            for m, lpd, imc, ipt, cr in zip(
                cur.moneyness, cur.log_price_diff, cur.iv_mc, cur.iv_pert, cur.c1_ratio
            )
        ]
        write_csv(
            os.path.join(out_dir, f"figure_v{cur.v_init:g}.csv"),
            ["moneyness", "log_price_diff", "iv_mc", "iv_pert", "c1_ratio"],
            rows,
            config_comment,
        )


def write_timeseries_report(report: TimeSeriesReport, out_dir, config_comment=None):
    os.makedirs(out_dir, exist_ok=True)
    write_csv(
        os.path.join(out_dir, "table2.csv"),
        ["dataset", "param", "true", "mean", "bias", "std"],
        [
            [s.dataset, s.param, repr(s.true), repr(s.mean), repr(s.bias), repr(s.std)]
            for s in report.param_stats
        ],
        config_comment,
    )
    write_csv(
        os.path.join(out_dir, "table3.csv"),
        ["dataset", "ivrmse_mean", "ivrmse_std"],
        [[report.dataset, repr(report.ivrmse_mean), repr(report.ivrmse_std)]],
        config_comment,
    )
