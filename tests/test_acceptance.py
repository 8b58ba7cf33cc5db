"""End-to-end acceptance checks, one test per shipped guarantee.

Each test prints a single PASS/FAIL line with the measured numbers so the
suite output doubles as a verification report.  Slow MC-driven checks reuse
module-level caches so the suite stays within its runtime budget.
"""

import json
import math
import subprocess
import sys

import numpy as np
import pytest

from mgpert.analytic import bs_price, implied_vol_array, price_mg
from mgpert.calibration import pert_price_grid
from mgpert.experiments import run_static_experiment, run_timeseries_experiment
from mgpert.heatkernel import breaking_operator_grid, psi1_quadrature
from mgpert.mc import McConfig, TimeSeriesSpec
from mgpert.params import (
    HeatCoords,
    MgParams,
    OptionSpec,
    PerturbParams,
    derive_params,
    tilt,
    to_heat_coords,
)
from oracles import heat_residual, price_option_euler, psi1_closed_form

STATIC_MG = MgParams(kappa=1.5, theta=0.08, xi=1.5, rho=-0.5, alpha=1.0)
STATIC_SIGMA = 0.2865
# published static calibration targets: initial volatility, sigma-hat, error
STATIC_TARGETS = [
    (0.35, 0.3254, 0.0055),
    (0.25, 0.2361, 0.0037),
    (0.18, 0.1730, 0.0070),
    (0.10, 0.1069, 0.0157),
]

RNG = np.random.default_rng(7)


def report(criterion, ok, detail):
    print(f"acceptance {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


@pytest.fixture(scope="module")
def static_frame():
    pert = PerturbParams.from_mg(STATIC_MG, STATIC_SIGMA)
    return STATIC_MG, pert, derive_params(STATIC_MG, pert)


class TestAcceptance:
    def test_criterion_01_static_table(self):
        rep = run_static_experiment(
            mc_cfg=McConfig(n_paths=500_000, steps_per_day=10, seed=0)
        )
        details, ok = [], True
        for row, (v, sigma_ref, err_ref) in zip(rep.rows, STATIC_TARGETS):
            sigma_ok = abs(row.sigma_hat - sigma_ref) <= 0.02
            err_ok = row.ivrmse <= err_ref + 0.005
            ok &= sigma_ok and err_ok
            details.append(
                f"v={v}: sigma_hat={row.sigma_hat:.4f} (ref {sigma_ref}, "
                f"{'ok' if sigma_ok else 'OFF'}), ivrmse={row.ivrmse:.4f} "
                f"(limit {err_ref + 0.005:.4f}, {'ok' if err_ok else 'OVER'})"
            )
        assert report(1, ok, "; ".join(details))

    def test_criterion_02_vanishing_breaking_terms(self, static_frame):
        mg, pert, deriv = static_frame
        n = 10_000
        x = RNG.uniform(-0.3, 0.3, n)
        y = RNG.uniform(-4.0, -1.0, n)
        tau = RNG.uniform(0.0005, 0.01, n)
        base, *others = np.abs(breaking_operator_grid(x, y, tau, mg, pert, deriv))
        ratios = [float(np.max(term / base)) for term in others]
        hc = HeatCoords(0.05, math.log(0.09), 0.003)
        q_all = psi1_quadrature(hc, mg, pert, deriv)
        q_c1 = psi1_quadrature(hc, mg, pert, deriv, c_flags=(1, 0, 0, 0))
        quad_rel = abs(q_all - q_c1) / abs(q_c1)
        ok = all(r <= 1e-6 for r in ratios) and quad_rel <= 1e-6
        assert report(
            2,
            ok,
            f"max term ratios {[f'{r:.2e}' for r in ratios]} on {n} draws, "
            f"full-vs-c1 quadrature rel diff {quad_rel:.2e}",
        )

    def test_criterion_03_quadrature_matches_closed_form(self, static_frame):
        mg, pert, deriv = static_frame
        worst_rel, worst_abs, ok = 0.0, 0.0, True
        for m in np.linspace(0.9, 1.1, 5):
            for v in np.linspace(0.01, 0.1225, 5):
                opt = OptionSpec(spot=100.0, strike=100.0 * m, tau_cal=30 / 365,
                                 variance=float(v))
                hc = to_heat_coords(opt, pert)
                c1_quad = opt.strike * tilt(hc, deriv) * psi1_quadrature(
                    hc, mg, pert, deriv)
                c1_cf = price_mg(opt, mg, pert).c1
                err = abs(c1_quad - c1_cf)
                worst_abs = max(worst_abs, err)
                if abs(c1_cf) > 0:
                    worst_rel = max(worst_rel, err / abs(c1_cf))
                ok &= err <= max(5e-3, 1e-3 * abs(c1_cf))
        assert report(
            3, ok,
            f"5x5 grid, worst abs err {worst_abs:.2e}, worst rel err {worst_rel:.2e}",
        )

    def test_criterion_04_symmetric_solution_identity(self, static_frame):
        mg, pert, _ = static_frame

        def bs_ref(s, k, tau, r, sigma):
            # erfc keeps full precision in both tails, unlike 1 + erf
            cdf = lambda z: 0.5 * math.erfc(-z / math.sqrt(2.0))
            d1 = (math.log(s / k) + (r + 0.5 * sigma**2) * tau) / (sigma * math.sqrt(tau))
            return s * cdf(d1) - k * math.exp(-r * tau) * cdf(d1 - sigma * math.sqrt(tau))

        worst_c0, worst_parity = 0.0, 0.0
        for _ in range(1000):
            s = RNG.uniform(60, 160)
            k = RNG.uniform(60, 160)
            tau = RNG.uniform(0.01, 1.5)
            v = RNG.uniform(0.01, 0.3)
            call = OptionSpec(spot=s, strike=k, tau_cal=tau, variance=v)
            put = OptionSpec(spot=s, strike=k, tau_cal=tau, kind="put", variance=v)
            bd_c = price_mg(call, mg, pert)
            bd_p = price_mg(put, mg, pert)
            ref = bs_ref(s, k, tau, mg.r, pert.sigma)
            if ref > 1e-12:
                worst_c0 = max(worst_c0, abs(bd_c.c0 - ref) / ref)
            parity = abs((bd_c.total - bd_p.total) - (s - k * math.exp(-mg.r * tau)))
            worst_parity = max(worst_parity, parity)
        ok = worst_c0 <= 1e-10 and worst_parity <= 1e-10
        assert report(
            4, ok,
            f"1000 draws, worst C0 rel err {worst_c0:.2e}, "
            f"worst parity defect {worst_parity:.2e}",
        )

    def test_criterion_05_heat_residual_orders(self, static_frame):
        mg, pert, deriv = static_frame
        from mgpert.heatkernel import psi0_grid

        pts = [
            (float(RNG.uniform(-0.2, 0.2)), float(RNG.uniform(-3.5, -1.5)),
             float(RNG.uniform(0.02, 0.05)))
            for _ in range(100)
        ]

        def f0(x, y, tau):
            return float(psi0_grid(x, y, tau, deriv))

        def f1(x, y, tau):
            return psi1_closed_form(HeatCoords(x, y, tau), pert, deriv)

        def src(x, y, tau):
            return -float(breaking_operator_grid(x, y, tau, mg, pert, deriv)[0])

        h = 1e-3
        orders = []
        for field, source in ((f0, None), (f1, src)):
            r2 = [heat_residual(field, HeatCoords(*p), 2 * h, source) for p in pts]
            r1 = [heat_residual(field, HeatCoords(*p), h, source) for p in pts]
            rms = lambda v: math.sqrt(float(np.mean(np.square(v))))
            orders.append(math.log2(rms(r2) / rms(r1)))
        ok = all(o >= 1.9 for o in orders)
        assert report(
            5, ok,
            f"observed orders psi0 {orders[0]:.3f}, psi1 {orders[1]:.3f} "
            f"at 100 interior points",
        )

    def test_criterion_06_mc_oracle_sanity(self):
        # the Euler reference, which discretises S: on the conditional engine
        # the flat limit is Black-Scholes to rounding, and its SE collapses
        flat = MgParams(kappa=1e-9, theta=0.04, xi=1e-9, rho=0.0, alpha=1.0)
        opt = OptionSpec(spot=100.0, strike=100.0, tau_cal=30 / 365, variance=0.04)
        mp = price_option_euler(opt, flat, McConfig(n_paths=100_000, seed=0))
        ref = float(bs_price(100.0, 100.0, 30 / 365, 0.0, 0.2, "call"))
        z_bs = abs(mp.estimate - ref) / mp.std_error

        mg = MgParams(kappa=1.1768, theta=0.0823, xi=0.3, rho=-0.5459, alpha=1.0,
                      r=0.03)
        fwd = price_option_euler(
            OptionSpec(spot=100.0, strike=1e-6, tau_cal=60 / 365, variance=0.0823),
            mg, McConfig(n_paths=100_000, seed=1))
        z_mart = abs(fwd.estimate - 100.0) / fwd.std_error

        from mgpert.mc import _correlate, _philox, _stratified_normals

        # the Euler reference's first-step shocks: stratified z_s, correlated z_v
        cfg = McConfig(n_paths=200_000, n_strata=100, seed=2)
        rng = _philox(2)
        z_s, z_v, own = np.empty((3, cfg.n_base))
        _correlate(rng, -0.5459, _stratified_normals(rng, cfg.n_strata, z_s), z_v, own)
        corr = float(np.corrcoef(z_s, z_v)[0, 1])
        corr_err = abs(corr - (-0.5459))

        ok = z_bs <= 3.0 and z_mart <= 4.0 and corr_err <= 0.01
        assert report(
            6, ok,
            f"BS limit z={z_bs:.2f}, martingale z={z_mart:.2f}, "
            f"shock correlation err {corr_err:.4f}",
        )

    def test_criterion_07_correction_stays_small(self):
        worst = 0.0
        moneyness = np.linspace(0.9, 1.1, 101)  # K/S grid
        for v_init, sigma_hat, _ in STATIC_TARGETS:
            strikes = 100.0 * moneyness
            total = pert_price_grid(
                100.0, strikes, 30 / 365, v_init**2, 0.0,
                STATIC_MG.kappa, STATIC_MG.xi, STATIC_MG.alpha, sigma_hat,
            )
            c0 = bs_price(100.0, strikes, 30 / 365, 0.0, sigma_hat, "call")
            worst = max(worst, float(np.max(np.abs((total - c0) / total))))
        ok = worst < 0.05
        assert report(
            7, ok,
            f"max |C1/(C0+C1)| = {worst:.4f} over K/S in [0.9, 1.1], "
            f"four volatility scenarios",
        )

    def test_criterion_08_time_series_desk_scale(self):
        rep1 = run_timeseries_experiment(1, n_workers=4)
        rep4 = run_timeseries_experiment(4, n_workers=4)
        sigma2 = next(s.mean for s in rep1.param_stats if s.param == "sigma2")
        err_ok = abs(rep1.ivrmse_mean - 0.0130) <= 0.0070
        sig_ok = abs(sigma2 - 0.0855) <= 0.024
        order_ok = rep4.ivrmse_mean > rep1.ivrmse_mean
        ok = err_ok and sig_ok and order_ok
        assert report(
            8, ok,
            f"data set 1 ivrmse mean {rep1.ivrmse_mean:.4f} "
            f"(window 0.0130+-0.0070), sigma^2 mean {sigma2:.4f} "
            f"(window 0.0855+-0.024), data set 4 ivrmse {rep4.ivrmse_mean:.4f} "
            f"{'>' if order_ok else '<='} data set 1",
        )

    def test_criterion_09_reference_scale_independence(self):
        opt = OptionSpec(spot=105.0, strike=100.0, tau_cal=30 / 365, variance=0.09)
        analytic, quad = [], []
        for v0 in (0.5, 1.0, 10.0):
            pert = PerturbParams.from_mg(STATIC_MG, STATIC_SIGMA, v0=v0)
            deriv = derive_params(STATIC_MG, pert)
            analytic.append(price_mg(opt, STATIC_MG, pert).c1)
            hc = to_heat_coords(opt, pert)
            quad.append(
                opt.strike * tilt(hc, deriv) * psi1_quadrature(hc, STATIC_MG, pert, deriv)
            )
        bit_identical = analytic[0] == analytic[1] == analytic[2]
        quad_spread = max(quad) - min(quad)
        quad_ok = quad_spread <= 1e-3 * abs(analytic[1])
        ok = bit_identical and quad_ok
        assert report(
            9, ok,
            f"analytic C1 bit-identical over v0 in (0.5, 1, 10): {bit_identical}; "
            f"quadrature spread {quad_spread:.2e}",
        )

    def test_criterion_10_cli_determinism(self, tmp_path):
        cli = [sys.executable, "-m", "mgpert.cli"]

        def run(*args):
            return subprocess.run(cli + list(args), capture_output=True, text=True,
                                  timeout=300)

        same = []
        for args in (
            ["price", "--variance", "0.09"],
            ["mc-price", "--paths", "2000", "--steps-per-day", "2", "--seed", "5"],
            ["oracle-check", "--moneyness-points", "1", "--variance-points", "2"],
        ):
            same.append(run(*args).stdout == run(*args).stdout)

        bodies = []
        for threads, name in (("1", "a"), ("4", "b")):
            d = tmp_path / name
            p = run("experiment", "timeseries", "--dataset", "3",
                    "--sample-paths", "2", "--obs", "1", "--paths", "2000",
                    "--steps-per-day", "2", "--threads", threads,
                    "--out-dir", str(d))
            bodies.append(
                (p.stdout, (d / "table2.csv").read_text(), (d / "table3.csv").read_text())
            )
        threads_same = bodies[0] == bodies[1]
        ok = all(same) and threads_same
        assert report(
            10, ok,
            f"repeat-run identical: {same}; 1-vs-4-worker identical: {threads_same}",
        )
