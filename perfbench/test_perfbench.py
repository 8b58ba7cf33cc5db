"""Tests of the benchmark itself: python3 -m pytest perfbench"""

import math
import types

import numpy as np
import pytest

import checks
import spans
import workloads
from mgpert.mc import McConfig, price_surface_mc
from mgpert.params import MgParams


# Hull, "Options, Futures and Other Derivatives", Example 15.6 (c = 4.76,
# p = 0.81) and an at-the-money case; digits from 40-digit arithmetic.
@pytest.mark.parametrize("spot, strike, tau, r, sigma, call, put", [
    (42.0, 40.0, 0.5, 0.1, 0.2, 4.7594223928715334, 0.80859937290009365),
    (100.0, 100.0, 1.0, 0.05, 0.2, 10.450583572185567, 5.5735260222569680),
    (100.0, 120.0, 7 / 365, 0.0, 0.3, 5.4206726474281344e-6, 20.000005420672647),
])
def test_reference_black_scholes_textbook_values(spot, strike, tau, r, sigma, call, put):
    got_call = float(checks.bs_price_ref(spot, strike, tau, r, sigma, True))
    got_put = float(checks.bs_price_ref(spot, strike, tau, r, sigma, False))
    assert got_call == pytest.approx(call, rel=1e-12)
    assert got_put == pytest.approx(put, rel=1e-12)


def test_reference_black_scholes_expiry_is_payoff():
    got = checks.bs_price_ref([90.0, 110.0], 100.0, 0.0, 0.0, 0.2, True)
    assert list(got) == [0.0, 10.0]


def test_self_time_of_nested_spans():
    spans_ = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 4.0, 0],
        ["leaf", 2.0, 3.0, 1],
        ["b", 5.0, 9.0, 0],
        ["leaf", 6.0, 6.5, 3],
    ]
    t = spans.span_totals(spans_)
    assert t["root"] == [1, 10.0, 3.0]
    assert t["a"] == [1, 3.0, 2.0]
    assert t["b"] == [1, 4.0, 3.5]
    assert t["leaf"] == [2, 1.5, 1.5]


def test_recorder_links_children_to_parents():
    rec = spans.Recorder()
    inner = rec.wrap("inner", lambda x: x + 1)
    outer = rec.wrap("outer", lambda x: inner(x) * 2)
    assert outer(1) == 4 and inner(0) == 1
    assert [(s[0], s[3]) for s in rec.spans] == [("outer", -1), ("inner", 0), ("inner", -1)]
    t = spans.span_totals(rec.spans)
    assert 0.0 <= t["outer"][2] <= t["outer"][1]


def test_patch_restores_nested_replacements():
    from mgpert import experiments

    original = experiments.price_surface_mc
    sink = []
    rec = spans.Recorder()
    with rec.installed(), spans.tap("mgpert.experiments", "price_surface_mc", sink):
        assert experiments.price_surface_mc is not original
    assert experiments.price_surface_mc is original


def _surface():
    mg = MgParams(kappa=1.5, theta=0.08, xi=1.5, rho=-0.5, alpha=1.0)
    strikes = [90.0, 95.0, 100.0, 105.0, 110.0]
    surf = price_surface_mc(100.0, 0.09, [30], strikes, mg, McConfig(n_paths=2000, seed=3))
    prices = [surf[(30, k)].estimate for k in strikes]
    ses = [surf[(30, k)].std_error for k in strikes]
    return strikes, prices, ses


def test_call_surface_accepts_program_output_and_rejects_price_above_spot():
    strikes, prices, ses = _surface()
    assert checks.call_surface(100.0, strikes, prices, ses, 30 / 365, 0.0) == []
    bad = list(prices)
    bad[2] = 100.0 + 5 * checks.MC_Z * max(ses)
    found = checks.call_surface(100.0, strikes, bad, ses, 30 / 365, 0.0)
    assert any("outside" in v for v in found)


def test_panel_check_rejects_price_above_spot():
    row = types.SimpleNamespace(path_id=0, obs_index=0, strike=95.0, moneyness=0.95,
                                maturity_days=30.0, mc_price=6.0)
    assert checks.panel_prices([row], 0.0, 365.0) == []
    row.mc_price = 100.5
    assert len(checks.panel_prices([row], 0.0, 365.0)) == 1


def test_report_with_one_changed_byte_is_rejected():
    report = b"# config x\ndataset,param\n1,kappa\n"
    assert checks.same_bytes(report, bytes(report), "report") == []
    changed = bytearray(report)
    changed[20] ^= 1
    found = checks.same_bytes(report, bytes(changed), "report")
    assert found and "byte 20" in found[0]
    assert checks.same_bytes(report, report[:-1], "report")


def test_c1_moved_beyond_tolerance_is_rejected():
    c1 = -0.8
    tol = max(checks.C1_ABS_TOL, checks.C1_REL_TOL * abs(c1))
    assert checks.c1_quadrature(c1 + 0.99 * tol, c1, "p") == []
    assert len(checks.c1_quadrature(c1 + 1.01 * tol, c1, "p")) == 1


def test_book_check_rejects_parity_and_repricing_defects():
    spot, strike, tau, r, sigma = [100.0] * 2, [105.0] * 2, [0.1] * 2, 0.01, 0.25
    call = float(checks.bs_price_ref(100.0, 105.0, 0.1, r, sigma, True))
    put = float(checks.bs_price_ref(100.0, 105.0, 0.1, r, sigma, False))
    c0, total, iv = [call, put], [call, put], [sigma, sigma]
    assert checks.book(spot, strike, tau, r, sigma, c0, total, iv, 1e-9) == []
    assert checks.book(spot, strike, tau, r, sigma, c0, [call, put + 1e-8], iv, 1e-9)
    assert checks.book(spot, strike, tau, r, sigma, [call * (1 + 1e-9), put], total, iv, 1e-9)


def test_cli_json_needs_every_digit():
    expected = {"c0": 0.1 + 0.2, "implied_vol": None}
    assert checks.cli_json('{"c0": 0.30000000000000004, "implied_vol": null}\n', expected, "c") == []
    assert checks.cli_json('{"c0": 0.3, "implied_vol": null}\n', expected, "c")
    assert checks.cli_json("error: bad\n", expected, "c")


def test_synthetic_fit_check_rejects_a_fit_worse_than_the_truth():
    fit = types.SimpleNamespace(ivrmse=0.005, theta_pert=(1.0, 0.3, 1.0, 0.287),
                                n_quotes_used=10)
    assert checks.synthetic_fit(fit, 0.005, 0.2869, 10, "s") == []
    fit.ivrmse = 0.0051
    assert checks.synthetic_fit(fit, 0.005, 0.2869, 10, "s")


def test_fit_start_check():
    assert checks.fit_not_worse(0.01, 0.01, "f") == []
    assert checks.fit_not_worse(0.0101, 0.01, "f")


def test_inputs_depend_only_on_the_seed(tmp_path):
    a = workloads.SingleContract(5, str(tmp_path))
    b = workloads.SingleContract(5, str(tmp_path))
    c = workloads.SingleContract(6, str(tmp_path))
    assert a.book == b.book and a.oracle == b.oracle
    assert a.book != c.book
    assert a._cli_command(1) == b._cli_command(1)
    assert math.isclose(a.PERT.sigma, 0.2865)


def test_calibrate_fit_keeps_only_acceptance_7_quotes(tmp_path):
    from mgpert.analytic import price_mg
    from mgpert.params import PerturbParams

    wl = workloads.CalibrateFit(1, str(tmp_path))
    quotes, noise_rms = wl.sets[0]
    pert = PerturbParams.from_mg(wl.TRUE, wl.SIGMA_TRUE)
    shares = [abs(b.c1 / b.total) for b in (price_mg(q.opt, wl.TRUE, pert) for q in quotes)]
    assert max(shares) < 0.05
    kept = {(q.opt.variance, q.opt.tau_cal, q.opt.strike) for q in quotes}
    assert (wl.VARIANCES[-1], 7 / 365, 100.0 * wl.MONEYNESS[5]) not in kept
    assert 0 < len(quotes) < 12 * 6 * 10
    assert 0.8 * wl.NOISE < noise_rms < 1.2 * wl.NOISE
    again = workloads.CalibrateFit(1, str(tmp_path)).sets[0][0]
    assert [q.price for q in again] == [q.price for q in quotes]
