"""The four workloads: input generation, one timed round, output checks.

A workload object is built from its seed; that is the set-up.  run(index)
is one round, the unit that is timed; check(raw) is not timed and turns a
round's raw output into an Outcome.  Rounds index and index - period have
the same inputs, so their outputs must match byte for byte.
"""

from __future__ import annotations

import contextlib
import hashlib
import math
import os
import shutil
import subprocess
import sys
from dataclasses import dataclass, field

import numpy as np

from mgpert import analytic, calibration, experiments, heatkernel
from mgpert.errors import MgpertError
from mgpert.mc import DAYS_PER_YEAR, McConfig, TimeSeriesSpec
from mgpert.params import OptionSpec, PerturbParams, derive_params, tilt, to_heat_coords

import checks
import spans


@dataclass
class Outcome:
    blob: bytes = b""       # canonical output bytes of the round
    attempted: int = 0
    failed: int = 0
    violations: list = field(default_factory=list)

    def add(self, other: "Outcome"):
        self.attempted += other.attempted
        self.failed += other.failed
        self.violations += other.violations


def _take_report(path):
    """Every file of a report directory, names included, in name order; the
    directory is removed."""
    out = []
    for name in sorted(os.listdir(path)):
        with open(os.path.join(path, name), "rb") as fh:
            out.append(name.encode() + b"\n" + fh.read())
    shutil.rmtree(path)
    return b"\0".join(out)


def _fit_digest(result):
    return repr((
        result.theta_pert, result.ivrmse, result.n_quotes_used, result.iterations,
        result.converged, hashlib.sha256(result.residuals.tobytes()).hexdigest(),
    )).encode()


class StaticSmile:
    """run_static_experiment at its defaults (four volatility scenarios,
    30 days, 10 strikes) on 10^5 paths, and its CSV report."""

    period = 1
    N_PATHS = 100_000
    MATURITY_DAYS = 30.0
    SPOT = 100.0

    def __init__(self, seed, work_dir):
        self.cfg = McConfig(n_paths=self.N_PATHS, steps_per_day=10, n_strata=50, seed=seed)
        self.work_dir = work_dir
        self.comment = f"perfbench static-smile seed={seed}"

    def run(self, index, single_process=False):
        surfaces = []
        out_dir = os.path.join(self.work_dir, f"static{index}")
        try:
            with spans.tap("mgpert.experiments", "price_surface_mc", surfaces):
                report = experiments.run_static_experiment(
                    mc_cfg=self.cfg, maturity_days=self.MATURITY_DAYS, spot=self.SPOT)
                experiments.write_static_report(report, out_dir, self.comment)
        except MgpertError:
            report = None
        return report, surfaces, out_dir

    def check(self, raw):
        report, surfaces, out_dir = raw
        n = len(experiments.STATIC_VOL_GRID)
        if report is None:
            return Outcome(attempted=n, failed=n)
        mg = experiments.STATIC_MG
        tau = self.MATURITY_DAYS / DAYS_PER_YEAR
        out = Outcome(attempted=n)
        prices = []
        for v, surface, row in zip(experiments.STATIC_VOL_GRID, surfaces, report.rows):
            keys = sorted(surface)
            strikes = [k for _, k in keys]
            mc = [surface[key] for key in keys]
            prices.append([(p.estimate, p.std_error) for p in mc])
            out.violations += checks.call_surface(
                self.SPOT, strikes, [p.estimate for p in mc], [p.std_error for p in mc],
                tau, mg.r)
            quotes = calibration.QuoteSet(
                quotes=[
                    calibration.Quote(
                        opt=OptionSpec(spot=self.SPOT, strike=k, tau_cal=tau, variance=v * v),
                        price=p.estimate)
                    for k, p in zip(strikes, mc)
                ],
                r=mg.r,
            )
            start = calibration.ivrmse(quotes, (mg.kappa, mg.xi, mg.alpha, v))
            out.violations += checks.fit_not_worse(row.ivrmse, start, f"static v={v}")
        out.blob = _take_report(out_dir) + repr(prices).encode()
        return out


class TimeseriesPanel:
    """run_timeseries_experiment on data set 1 with 2 worker processes:
    2 sample paths x 2 weekly observations, 10^4 paths at 20 steps per day
    (TimeSeriesSpec's desk scale), horizons up to 180 days."""

    period = 1
    DATASET = 1
    WORKERS = 2

    def __init__(self, seed, work_dir):
        self.seed = seed
        self.spec = TimeSeriesSpec(
            n_sample_paths=2, n_obs=2,
            mc=McConfig(n_paths=10_000, steps_per_day=20, seed=seed))
        self.work_dir = work_dir
        self.comment = f"perfbench timeseries-panel seed={seed}"
        self.reference = None  # blob of the checked single-process run

    def run(self, index, single_process=False):
        panels = []
        out_dir = os.path.join(self.work_dir, f"timeseries{index}")
        with contextlib.ExitStack() as stack:
            if single_process:
                stack.enter_context(spans.tap("mgpert.experiments", "generate_time_series", panels))
            try:
                report = experiments.run_timeseries_experiment(
                    self.DATASET, spec=self.spec, seed=self.seed,
                    n_workers=1 if single_process else self.WORKERS)
                experiments.write_timeseries_report(report, out_dir, self.comment)
            except MgpertError:
                report = None
        return report, panels if single_process else None, out_dir

    def check(self, raw):
        report, panels, out_dir = raw
        n = self.spec.n_sample_paths
        out = Outcome(attempted=n)
        if panels is None and self.reference is None:
            # the pool's workers are out of reach, so the panel and fit checks
            # run on one single-process run that every pooled run must match
            out.add(self.check(self.run("reference", single_process=True)))
        if report is None:
            out.failed += n
            return out
        out.blob = _take_report(out_dir) + b"".join(_fit_digest(r) for r in report.per_path)
        if panels is not None:
            out.violations += self._check_panels(report, panels)
            if self.reference is None:
                self.reference = out.blob
        if self.reference is not None:
            out.violations += checks.same_bytes(self.reference, out.blob, "time-series report")
        return out

    def _check_panels(self, report, panels):
        mg = experiments.DATASETS[self.DATASET]
        start = (mg.kappa, mg.xi, mg.alpha, math.sqrt(self.spec.v0_init))
        violations = []
        for path, (rows, fit) in enumerate(zip(panels, report.per_path)):
            violations += checks.panel_prices(rows, mg.r, DAYS_PER_YEAR)
            quotes = calibration.QuoteSet(
                quotes=[
                    calibration.Quote(
                        opt=OptionSpec(spot=row.strike / row.moneyness, strike=row.strike,
                                       tau_cal=row.maturity_days / DAYS_PER_YEAR,
                                       variance=row.v_true),
                        price=row.mc_price)
                    for row in rows
                ],
                r=mg.r,
            )
            violations += checks.fit_not_worse(
                fit.ivrmse, calibration.ivrmse(quotes, start), f"sample path {path}")
        return violations


class CalibrateFit:
    """4-parameter calibrate on synthetic 720-quote sets: 12 variance states
    x 6 maturities x 10 moneyness, priced by price_mg at known parameters,
    kept where acceptance 7 holds, with seeded implied-vol noise, given as
    prices.  Round i fits set i mod N_SETS from the same start."""

    N_SETS = 4
    period = N_SETS
    TRUE = experiments.DATASETS[1]
    SIGMA_TRUE = math.sqrt(TRUE.theta)
    START = (2.0, 0.6, 0.8, 0.25)   # (kappa, xi, alpha, sigma)
    VARIANCES = tuple(np.geomspace(0.01, 0.47, 12))
    MATURITIES = (7, 30, 60, 90, 120, 180)
    MONEYNESS = tuple(np.round(np.linspace(0.9, 1.1, 10), 6))
    NOISE = 0.005
    C1_SHARE = 0.05   # acceptance 7's bound on |C1 / (C0 + C1)|

    def __init__(self, seed, work_dir):
        pert = PerturbParams.from_mg(self.TRUE, self.SIGMA_TRUE)
        kept = []
        for v in self.VARIANCES:
            for days in self.MATURITIES:
                for m in self.MONEYNESS:
                    opt = OptionSpec(spot=100.0, strike=100.0 * m,
                                     tau_cal=days / DAYS_PER_YEAR, variance=float(v))
                    bd = analytic.price_mg(opt, self.TRUE, pert)
                    if (max(opt.spot - opt.strike, 0.0) < bd.total < opt.spot
                            and abs(bd.c1 / bd.total) < self.C1_SHARE):
                        kept.append((opt, bd.total))
        strikes = np.array([o.strike for o, _ in kept])
        taus = np.array([o.tau_cal for o, _ in kept])
        totals = np.array([t for _, t in kept])
        iv_true = np.empty_like(totals)
        for tau in np.unique(taus):
            sel = taus == tau
            iv_true[sel] = analytic.implied_vol_array(totals[sel], 100.0, strikes[sel], tau, 0.0)
        self.sets = []
        for j in range(self.N_SETS):
            eps = np.random.default_rng([seed, j]).normal(0.0, self.NOISE, totals.size)
            prices = analytic.bs_price(100.0, strikes, taus, 0.0, iv_true + eps)
            quotes = [calibration.Quote(opt=o, price=float(p)) for (o, _), p in zip(kept, prices)]
            self.sets.append((quotes, math.sqrt(float(np.mean(eps**2)))))

    def run(self, index, single_process=False):
        j = index % self.N_SETS
        # a fresh QuoteSet, since it caches the quotes' implied vols
        quotes = calibration.QuoteSet(quotes=self.sets[j][0], r=0.0)
        try:
            return j, calibration.calibrate(quotes, self.START)
        except MgpertError:
            return j, None

    def check(self, raw):
        j, result = raw
        if result is None:
            return Outcome(attempted=1, failed=1)
        quotes, noise_rms = self.sets[j]
        return Outcome(
            blob=_fit_digest(result), attempted=1,
            violations=checks.synthetic_fit(
                result, noise_rms, self.SIGMA_TRUE, len(quotes), f"quote set {j}"))


class SingleContract:
    """Per-contract use: price_mg + implied_vol over a book of call/put
    pairs, psi1_quadrature at one acceptance-3 grid point, and one cold
    `mgpert price` subprocess.  Round i uses oracle point and CLI contract
    i mod 3."""

    N_PAIRS = 1250
    period = 3
    MG = experiments.STATIC_MG
    PERT = PerturbParams.from_mg(MG, 0.2865)

    def __init__(self, seed, work_dir):
        rng = np.random.default_rng(seed)
        strikes = 100.0 * rng.uniform(0.9, 1.1, self.N_PAIRS)
        days = rng.uniform(7.0, 180.0, self.N_PAIRS)
        variances = rng.uniform(0.01, 0.1225, self.N_PAIRS)
        self.days = np.repeat(days, 2)
        self.book = [
            OptionSpec(spot=100.0, strike=float(k), tau_cal=float(d) / DAYS_PER_YEAR,
                       kind=kind, variance=float(v))
            for k, d, v in zip(strikes, days, variances) for kind in ("call", "put")
        ]
        grid = [(m, v) for m in np.linspace(0.9, 1.1, 5) for v in np.linspace(0.01, 0.1225, 5)]
        self.oracle = [
            OptionSpec(spot=100.0, strike=100.0 * grid[g][0], tau_cal=30 / DAYS_PER_YEAR,
                       variance=float(grid[g][1]))
            for g in rng.choice(len(grid), self.period, replace=False)
        ]
        self.deriv = derive_params(self.MG, self.PERT)

    def _cli_command(self, i):
        opt, mg = self.book[i], self.MG
        flags = dict(spot=opt.spot, strike=opt.strike, days=self.days[i], kind=opt.kind,
                     variance=opt.variance, sigma=self.PERT.sigma, v0=self.PERT.v0,
                     kappa=mg.kappa, theta=mg.theta, xi=mg.xi, rho=mg.rho, alpha=mg.alpha,
                     rate=mg.r)
        cmd = [sys.executable, "-m", "mgpert.cli", "price"]
        for key, value in flags.items():
            cmd += [f"--{key}", value if isinstance(value, str) else repr(float(value))]
        return cmd

    def run(self, index, single_process=False):
        j = index % self.period
        priced = []
        for opt in self.book:
            try:
                bd = analytic.price_mg(opt, self.MG, self.PERT)
                priced.append((bd, analytic.implied_vol(bd.total, opt, self.MG.r)))
            except MgpertError:
                priced.append(None)
        opt = self.oracle[j]
        hc = to_heat_coords(opt, self.PERT)
        try:
            c1_quad = opt.strike * tilt(hc, self.deriv) * heatkernel.psi1_quadrature(
                hc, self.MG, self.PERT, self.deriv)
        except MgpertError:
            c1_quad = None
        cli = subprocess.run(self._cli_command(j), capture_output=True, text=True, timeout=120)
        return j, priced, c1_quad, cli

    def check(self, raw):
        j, priced, c1_quad, cli = raw
        out = Outcome(attempted=len(self.book) + 2)
        pairs = [p for p in range(self.N_PAIRS) if priced[2 * p] and priced[2 * p + 1]]
        out.failed += sum(p is None for p in priced)
        idx = [i for p in pairs for i in (2 * p, 2 * p + 1)]
        ok = [self.book[i] for i in idx]
        out.violations += checks.book(
            [o.spot for o in ok], [o.strike for o in ok], [o.tau_cal for o in ok],
            self.MG.r, self.PERT.sigma,
            [priced[i][0].c0 for i in idx], [priced[i][0].total for i in idx],
            [priced[i][1] for i in idx], analytic.IV_PRICE_TOL)
        if c1_quad is None:
            out.failed += 1
        else:
            c1 = analytic.price_mg(self.oracle[j], self.MG, self.PERT).c1
            out.violations += checks.c1_quadrature(c1_quad, c1, f"oracle point {j}")
        if cli.returncode != 0 or priced[j] is None:
            out.failed += 1
        else:
            bd, iv = priced[j]
            expected = dict(c0=bd.c0, c1=bd.c1, total=bd.total, d1=bd.d1, d2=bd.d2,
                            implied_vol=iv)
            out.violations += checks.cli_json(cli.stdout, expected, f"CLI contract {j}")
        out.blob = repr((
            [None if p is None else (p[0].c0, p[0].c1, p[0].d1, p[1]) for p in priced],
            c1_quad, cli.stdout,
        )).encode()
        return out


WORKLOADS = {
    "static-smile": StaticSmile,
    "timeseries-panel": TimeseriesPanel,
    "calibrate-fit": CalibrateFit,
    "single-contract": SingleContract,
}
