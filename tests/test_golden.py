"""Golden SHA-256 hashes of Monte Carlo outputs at fixed seeds.

The simulation promises bit-identical output for a fixed (seed, config), so
a change to an engine must leave these bytes alone.  The Euler hashes were
recorded on the allocating engine, before the in-place rewrite; the
conditional engine's and the panel's when the experiments moved to the
conditional engine; table1's when calibrate moved from Nelder-Mead to
Levenberg-Marquardt, which changed its sigma_hat and ivrmse in their last
digits.  They hold for this platform's numpy and libm,
which is what the determinism promise covers.  The pert_price_grid and
implied_vol_array hashes were recorded before the three copies of the
correction and the two implied-vol loops were merged into one each.  The
scalar book's hash was recorded while every Phi still came from
scipy.special.ndtr, before scalars moved to analytic's pure-Python port,
and re-recorded once when PriceBreakdown.d1 took bs_price's expressions
(6 d1 and 5 d2 of the book moved by one ulp; every price and implied vol
kept its bits) and the 0-d correction kernel its array squares, and once
more when perturb_correction took numpy's log, as pert_price_grid does (one
C1 of the book moved by 2 ulp; every total kept its bits).  When the
plain sampling designs were removed, alpha_half_rate moved from plain
sampling to the default design; the hash of its new config was computed
with the plain designs still in the code, and the removal kept it.  The
panel's hash was re-recorded (c38abbbe... to 3b10dd68...) when each sample
path's observations moved onto one shared pricing stream: observation 0's
rows kept their bits, and the later observations' prices moved.  The
conditional engine's, the panel's and table1's hashes were re-recorded
(f863a88d... to b842439e..., 3b10dd68... to 3ed3f846..., ff2ca97f... to
ab8cc512...) when simulate_terminal's variance step took one factor per
step shared by every variance: the same scheme with its constants folded,
so the outputs moved by rounding only (table1's sigma_hat and ivrmse from
their 12th significant digit on).  The panel's and table1's configs moved
(3ed3f846... to 33a4c317..., ab8cc512... to ff9fa651...) when the panel's
maturity x moneyness grid and the static study's volatility grid became
constants: they now run the full grids, and the new hashes were recorded on
the code before that change, which gives the same bytes.  The conditional
engine's and table1's goldens also run with chunks small enough that a
helper thread runs the variance steps and half the pricing; they give the
same hashes.
"""

import contextlib
import hashlib
import io
import math

import numpy as np
import pytest

from mgpert import cli, mc
from mgpert.analytic import IV_MIN, _price_bracket, bs_price, implied_vol, implied_vol_array, price_mg
from mgpert.calibration import pert_price_grid
from mgpert.errors import NoConvergence, OutOfBounds
from mgpert.experiments import STATIC_MG, run_static_experiment, write_static_report
from mgpert.mc import (
    DAYS_PER_YEAR,
    McConfig,
    TimeSeriesSpec,
    generate_time_series,
    simulate_terminal,
    step_euler,
)
from mgpert.params import MgParams, OptionSpec, PerturbParams
from oracles import simulate_euler, write_panel_csv

DT = 1.0 / (DAYS_PER_YEAR * 10)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


SIMULATE_CASES = {
    # the static-smile shape: alpha = 1, r = 0
    "static": (
        STATIC_MG,
        McConfig(n_paths=2000, steps_per_day=10, n_strata=50, seed=7),
        "264dfcfec7b86a42091a0e23334a663ba8203baa711e35420ff5d146e79b15f5",
    ),
    # Heston exponent with a rate
    "alpha_half_rate": (
        MgParams(kappa=2.0, theta=0.05, xi=0.6, rho=-0.7, alpha=0.5, r=0.03),
        McConfig(n_paths=1500, seed=11),
        "2f67cab15da2a5784f97cda9a01ed98b7c4f8d3ecc4c53b4cd791435489662fb",
    ),
    "alpha_three_halves": (
        MgParams(kappa=1.2, theta=0.06, xi=1.1, rho=0.3, alpha=1.5, r=0.01),
        McConfig(n_paths=1000, n_strata=10, seed=3),
        "fe317f6ee30cd543137169c73cf47e8a741f48b912d44292c6221b8e7df333f0",
    ),
}


@pytest.fixture(params=["one-chunk", "multi-chunk"])
def chunks(request, monkeypatch):
    """The default chunk sizes, at which a golden's paths are one chunk and
    run on one thread, or chunks small enough to take the helper thread."""
    if request.param == "multi-chunk":
        monkeypatch.setattr(mc, "STEP_CHUNK", 32)
        monkeypatch.setattr(mc, "PRICE_CHUNK", 64)


@pytest.mark.parametrize("name", sorted(SIMULATE_CASES))
def test_simulate_euler_golden(name):
    mg, cfg, digest = SIMULATE_CASES[name]
    snaps = simulate_euler(100.0, 0.09, mg, cfg, [0, 30, 75, 120], DT)
    assert np.isfinite(snaps).all()
    assert _sha(snaps.tobytes()) == digest


@pytest.mark.usefixtures("chunks")
def test_simulate_terminal_golden():
    # the static shape with a rate, so every factor of the forward is live
    mg = MgParams(kappa=1.5, theta=0.08, xi=1.5, rho=-0.5, alpha=1.0, r=0.02)
    cfg = McConfig(n_paths=2000, steps_per_day=10, n_strata=50, seed=7)
    forwards, variances = simulate_terminal(100.0, 0.09, mg, cfg, [0, 30, 75, 120], DT)
    assert np.isfinite(forwards).all() and (variances >= 0).all()
    assert (forwards[0] == 100.0).all() and (variances[0] == 0.0).all()
    assert _sha(forwards.tobytes() + variances.tobytes()) == (
        "b842439e6105f82d4ade05764e377ec332a7d68d52abab7e8fe8f1c3ec0e52a4"
    )


def test_panel_csv_golden(tmp_path):
    spec = TimeSeriesSpec(
        n_sample_paths=2,
        n_obs=2,
        mc=McConfig(n_paths=400, steps_per_day=4, n_strata=20),
    )
    rows = generate_time_series(spec, MgParams(kappa=1.1768, theta=0.0823, xi=0.3,
                                               rho=-0.5459, alpha=1.0), seed=5)
    path = tmp_path / "panel.csv"
    write_panel_csv(rows, path)
    assert _sha(path.read_bytes()) == (
        "33a4c317396f1354d3720189c665cbf3a0ee7c3f78c4515e9ded35f6c9446d34"
    )


@pytest.mark.usefixtures("chunks")
def test_static_table1_golden(tmp_path):
    report = run_static_experiment(
        mc_cfg=McConfig(n_paths=4000, steps_per_day=2, n_strata=20, seed=9),
    )
    write_static_report(report, tmp_path)
    assert _sha((tmp_path / "table1.csv").read_bytes()) == (
        "ff9fa651292b2ffa7548495ded1cfb66a0d7ecd2b24b9be556d3a761e45f1b89"
    )


@pytest.mark.parametrize("alpha, r", [(0.5, 0.03), (1.0, 0.0), (1.5, 0.01)])
def test_step_euler_matches_expression_order(alpha, r):
    mg = MgParams(kappa=1.5, theta=0.08, xi=1.5, rho=-0.5, alpha=alpha, r=r)
    rng = np.random.default_rng(0)
    s = 100.0 * np.exp(0.1 * rng.standard_normal(64))
    v = 0.09 + 0.05 * rng.standard_normal(64)  # some negative: full truncation
    z_s, z_v = rng.standard_normal(64), rng.standard_normal(64)
    # the step written out as one expression, in the documented order
    v_plus = np.maximum(v, 0.0)
    s_ref = s + mg.r * s * DT + s * np.sqrt(v_plus * DT) * z_s
    v_ref = v + mg.kappa * (mg.theta - v_plus) * DT + mg.xi * v_plus**alpha * math.sqrt(DT) * z_v

    s_in, v_in = step_euler(s, v, DT, z_s, z_v, mg, np.empty((3, 64)))
    assert s_in is s and v_in is v
    assert s.tobytes() == s_ref.tobytes() and v.tobytes() == v_ref.tobytes()


def _quote_grid():
    """The calibrate-fit benchmark's 720-quote layout, unfiltered: 12 variances
    x 6 maturities x 10 moneyness, calls and puts alternating."""
    v, days, m = np.meshgrid(np.geomspace(0.01, 0.47, 12), [7, 30, 60, 90, 120, 180],
                             np.round(np.linspace(0.9, 1.1, 10), 6), indexing="ij")
    kinds = np.where(np.arange(v.size) % 2 == 0, "call", "put")
    return 100.0 * m.ravel(), days.ravel() / DAYS_PER_YEAR, v.ravel(), kinds


def test_pert_price_grid_golden():
    strikes, taus, variances, _ = _quote_grid()
    out = [
        pert_price_grid(100.0, strikes, taus, variances, r, *theta)
        for r in (0.0, 0.01)
        for theta in ((1.1768, 0.3, 1.0, 0.2869), (2.0, 0.6, 0.8, 0.25), (1.5, 1.5, 1.0, 0.2865))
    ]
    assert _sha(np.concatenate(out).tobytes()) == (
        "a4bb7ee97841f1d5195ea50d42eb8e15f4b9e5f8c401d75d802f9cc8c264251d"
    )


def test_implied_vol_array_golden():
    # noisy prices: some fall below their no-arbitrage floor, every 97th sits
    # on the upper bound and every 89th on the floor, so each branch of the
    # inverter is reached
    strikes, taus, variances, kinds = _quote_grid()
    rng = np.random.default_rng(8)
    out = []
    for r in (0.0, 0.01):
        kdisc = strikes * np.exp(-r * taus)
        calls = kinds == "call"
        floor = np.where(calls, np.maximum(100.0 - kdisc, 0.0), np.maximum(kdisc - 100.0, 0.0))
        prices = np.empty_like(strikes)
        for kind, sel in (("call", calls), ("put", ~calls)):
            iv = np.sqrt(variances[sel]) + rng.normal(0.0, 0.005, np.count_nonzero(sel))
            prices[sel] = bs_price(100.0, strikes[sel], taus[sel], r, iv, kind)
        prices += rng.normal(0.0, 0.002, prices.size)
        prices[::97] = np.where(calls, 100.0, kdisc)[::97]
        prices[5::89] = floor[5::89]
        iv = np.empty_like(prices)
        for kind in ("call", "put"):
            for tau in np.unique(taus):
                sel = (kinds == kind) & (taus == tau)
                iv[sel] = implied_vol_array(prices[sel], 100.0, strikes[sel], float(tau), r, kind)
        out.append(iv)
    out = np.concatenate(out)
    assert np.isnan(out).any() and (out == IV_MIN).any() and np.isfinite(out).mean() > 0.5
    assert _sha(out.tobytes()) == (
        "6f2036f1c2717bb1f78af94bdf32b3df0c9d1dc3d8ef822aa49ce4e8c456bfef"
    )


def _scalar_iv(price, opt, r):
    """implied_vol, with -1 for OutOfBounds and -2 for NoConvergence."""
    try:
        return implied_vol(price, opt, r)
    except OutOfBounds:
        return -1.0
    except NoConvergence:
        return -2.0


def test_scalar_pricing_golden():
    # 2000 seeded contracts through the scalar API: price_mg's breakdown, the
    # implied vol of its total and of the no-arbitrage floor (which clamps to
    # IV_MIN), plus tau = 0 contracts and the CLI's `price` JSON
    rng = np.random.default_rng(13)
    models = [
        (MgParams(kappa=1.5, theta=0.08, xi=1.5, rho=-0.5, alpha=1.0, r=0.0), 0.2),
        (MgParams(kappa=4.4, theta=0.018, xi=0.5, rho=-0.9, alpha=1.0, r=0.03), 0.3),
        (MgParams(kappa=1.1768, theta=0.0823, xi=0.3, rho=-0.5459, alpha=0.5, r=0.01), 0.25),
    ]
    n = 2000
    days = np.where(np.arange(n) % 50 == 0, 0.0, rng.uniform(1.0, 730.0, n))
    strikes = rng.uniform(50.0, 200.0, n)
    variances = np.exp(rng.uniform(math.log(0.001), math.log(0.6), n))
    out = []
    for i in range(n):
        mg, sigma = models[i % len(models)]
        opt = OptionSpec(spot=100.0, strike=float(strikes[i]), tau_cal=float(days[i]) / DAYS_PER_YEAR,
                         kind=("call", "put")[i % 2], variance=float(variances[i]))
        b = price_mg(opt, mg, PerturbParams.from_mg(mg, sigma))
        floor, _ = _price_bracket(opt.spot, opt.strike, opt.tau_cal, mg.r, opt.kind)
        out += [b.c0, b.c1, b.total, b.d1, b.d2, _scalar_iv(b.total, opt, mg.r),
                _scalar_iv(float(floor), opt, mg.r)]
    out = np.array(out)
    assert (out == IV_MIN).sum() >= n // 2 and (out == -1.0).any()
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        for argv in (["--kind", "call", "--strike", "95", "--variance", "0.09"],
                     ["--kind", "put", "--strike", "120", "--days", "365", "--rate", "0.02"],
                     ["--kind", "call", "--strike", "80", "--days", "7", "--sigma", "0.3"]):
            assert cli.main(["price", *argv]) == 0
    assert _sha(out.tobytes() + stdout.getvalue().encode()) == (
        "b2df5f8708822cd44ae4bcaef0aca7f86dc6ba5400ff1b539ef2d83f5702a065"
    )
