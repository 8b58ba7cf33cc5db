import math
import random

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from mgpert import calibration
from mgpert.analytic import bs_price, implied_vol_array, price_mg
from mgpert.calibration import (
    PENALTY_RESIDUAL,
    Quote,
    QuoteSet,
    calibrate,
    ivrmse,
    pert_price_grid,
)
from mgpert.errors import DegenerateParams, EmptyQuoteSet, InvalidParams
from mgpert.experiments import DATASETS
from mgpert.mc import DAYS_PER_YEAR
from mgpert.params import EPS_DEGENERATE, MgParams, OptionSpec, PerturbParams

THETA = (1.5, 1.5, 1.0, 0.2865)  # (kappa, xi, alpha, sigma)
# kappa chosen so R2 = 1 + sqrt(2)(-kappa - xi^2)/(sigma xi) vanishes
DEGENERATE = (0.2865 * 0.1 / math.sqrt(2.0) - 0.1**2, 0.1, 1.0, 0.2865)
TAU = 30 / 365


def synthetic_quotes(theta, n=10, tau=TAU, variance=0.09, iv_shift=0.0):
    """Quotes priced exactly by the perturbative model, optionally IV-shifted:
    then each is the Black-Scholes price at the model's IV plus iv_shift."""
    kappa, xi, alpha, sigma = theta
    spot = 100.0
    strikes = np.linspace(90.0, 110.0, n)
    prices = pert_price_grid(spot, strikes, tau, variance, 0.0, kappa, xi, alpha, sigma)
    if iv_shift:
        iv = implied_vol_array(prices, spot, strikes, tau, 0.0) + iv_shift
        prices = bs_price(spot, strikes, tau, 0.0, iv)
    return QuoteSet(quotes=[
        Quote(opt=OptionSpec(spot=spot, strike=float(k), tau_cal=tau, variance=variance),
              price=float(p))
        for k, p in zip(strikes, prices)
    ], r=0.0)


def panel_quotes(seed):
    """A 601-quote set: 12 variances x 6 maturities x 10 moneyness priced at
    data set 1 with sigma = sqrt(theta), kept where |C1 / (C0 + C1)| < 0.05,
    with seeded N(0, 0.005^2) implied-vol noise, given as prices."""
    mg = DATASETS[1]
    pert = PerturbParams.from_mg(mg, math.sqrt(mg.theta))
    kept = []
    for v in np.geomspace(0.01, 0.47, 12):
        for days in (7, 30, 60, 90, 120, 180):
            for m in np.round(np.linspace(0.9, 1.1, 10), 6):
                opt = OptionSpec(spot=100.0, strike=100.0 * m, tau_cal=days / DAYS_PER_YEAR,
                                 variance=float(v))
                bd = price_mg(opt, mg, pert)
                if (max(opt.spot - opt.strike, 0.0) < bd.total < opt.spot
                        and abs(bd.c1 / bd.total) < 0.05):
                    kept.append((opt, bd.total))
    strikes = np.array([o.strike for o, _ in kept])
    taus = np.array([o.tau_cal for o, _ in kept])
    totals = np.array([t for _, t in kept])
    iv = np.empty_like(totals)
    for t in np.unique(taus):
        sel = taus == t
        iv[sel] = implied_vol_array(totals[sel], 100.0, strikes[sel], t, 0.0)
    eps = np.random.default_rng(seed).normal(0.0, 0.005, totals.size)
    prices = bs_price(100.0, strikes, taus, 0.0, iv + eps)
    return QuoteSet(quotes=[Quote(opt=o, price=float(p)) for (o, _), p in zip(kept, prices)])


class TestQuoteSet:
    def test_empty_rejected(self):
        with pytest.raises(EmptyQuoteSet):
            QuoteSet(quotes=[], r=0.0)

    def test_quote_needs_a_price(self):
        # a quote is a price; an implied vol is not an argument
        opt = OptionSpec(spot=100.0, strike=100.0, tau_cal=TAU, variance=0.09)
        with pytest.raises(TypeError):
            Quote(opt=opt)
        with pytest.raises(TypeError):
            Quote(opt=opt, price=3.0, iv=0.3)

    @pytest.mark.parametrize("r", [math.nan, math.inf, -math.inf])
    def test_non_finite_rate_rejected(self, r):
        # it dropped every quote, and calibrate then named the empty set
        opt = OptionSpec(spot=100.0, strike=100.0, tau_cal=TAU, variance=0.09)
        with pytest.raises(InvalidParams, match="r must be finite"):
            QuoteSet(quotes=[Quote(opt=opt, price=3.0)], r=r)

    def test_uninvertible_quotes_dropped(self):
        opt = OptionSpec(spot=100.0, strike=100.0, tau_cal=TAU, variance=0.09)
        qs = QuoteSet(
            quotes=[
                Quote(opt=opt, price=3.0),
                Quote(opt=opt, price=150.0),  # above the no-arbitrage bound
            ],
            r=0.0,
        )
        spot, *_ = qs.arrays()
        assert spot.size == 1
        assert qs.n_dropped == 1

    def test_batched_inversion_matches_per_quote(self):
        # two maturities, calls and a put, and an uninvertible price
        quotes = []
        for tau in (TAU, 0.25):
            for k in (90.0, 100.0, 110.0):
                opt = OptionSpec(spot=100.0, strike=k, tau_cal=tau, variance=0.09)
                quotes.append(Quote(opt=opt, price=float(bs_price(100.0, k, tau, 0.01, 0.3))))
        put = OptionSpec(spot=100.0, strike=105.0, tau_cal=TAU, kind="put", variance=0.09)
        quotes.insert(2, Quote(opt=put, price=float(bs_price(100.0, 105.0, TAU, 0.01, 0.35, "put"))))
        quotes.insert(4, Quote(opt=quotes[0].opt, price=150.0))
        qs = QuoteSet(quotes=quotes, r=0.01)

        expected = []
        for q in quotes:
            o = q.opt
            got = float(implied_vol_array(q.price, o.spot, o.strike, o.tau_cal, 0.01, o.kind))
            if math.isfinite(got):
                expected.append((q, got))
        spot, strike, tau, var, iv = qs.arrays()
        assert qs.n_dropped == 1
        assert strike.tolist() == [q.opt.strike for q, _ in expected]
        assert tau.tolist() == [q.opt.tau_cal for q, _ in expected]
        assert iv.tobytes() == np.array([v for _, v in expected]).tobytes()


class TestIvrmse:
    def test_exact_model_gives_zero(self):
        qs = synthetic_quotes(THETA)
        assert ivrmse(qs, THETA) == pytest.approx(0.0, abs=1e-6)

    def test_constant_shift_is_the_rms(self):
        # shifting every observed IV by 0.01 must give IVRMSE = 0.01
        qs = synthetic_quotes(THETA, iv_shift=0.01)
        assert ivrmse(qs, THETA) == pytest.approx(0.01, abs=1e-6)

    def test_reorder_invariance(self):
        qs = synthetic_quotes(THETA, iv_shift=0.005)
        shuffled = list(qs.quotes)
        random.Random(3).shuffle(shuffled)
        qs2 = QuoteSet(quotes=shuffled, r=0.0)
        assert ivrmse(qs2, THETA) == pytest.approx(ivrmse(qs, THETA), abs=1e-12)

    def test_invalid_theta_rejected(self):
        qs = synthetic_quotes(THETA)
        with pytest.raises(InvalidParams):
            ivrmse(qs, (-1.0, 1.5, 1.0, 0.2))

    def test_penalty_residual_value(self):
        assert PENALTY_RESIDUAL == 0.5


@pytest.mark.parametrize("fn", [ivrmse, calibrate])
@pytest.mark.parametrize("position", range(4))
def test_infinite_theta_rejected(fn, position):
    # an infinite kappa, xi or sigma was fitted to NaN with converged=True,
    # and an infinite alpha raised ZeroDivisionError
    theta = list(THETA)
    theta[position] = math.inf
    with pytest.raises(InvalidParams):
        fn(synthetic_quotes(THETA), tuple(theta))


class TestPertPriceGrid:
    @pytest.mark.parametrize("mg, sigma", [
        (MgParams(kappa=1.5, theta=0.08, xi=1.5, rho=-0.5, alpha=1.0), 0.2865),
        (MgParams(kappa=1.1768, theta=0.0823, xi=0.3, rho=-0.5459, alpha=0.5, r=0.01), 0.25),
    ])
    def test_reduces_to_analytic_pricer(self, mg, sigma):
        # the same bits as price_mg over a seeded book of calls; with math.log
        # for C1's log-moneyness, a few totals in 10^4 were one ulp away
        rng = np.random.default_rng(4)
        strikes = rng.uniform(60.0, 160.0, 10_000)
        taus = rng.uniform(1.0, 365.0, strikes.size) / 365.0
        variances = rng.uniform(0.005, 0.3, strikes.size)
        grid = pert_price_grid(100.0, strikes, taus, variances, mg.r, mg.kappa, mg.xi, mg.alpha, sigma)
        pert = PerturbParams.from_mg(mg, sigma)
        totals = [
            price_mg(OptionSpec(spot=100.0, strike=k, tau_cal=t, variance=v), mg, pert).total
            for k, t, v in zip(strikes.tolist(), taus.tolist(), variances.tolist())
        ]
        assert np.array(totals).tobytes() == grid.tobytes()

    def test_degenerate_raises(self):
        kappa, xi, alpha, sigma = DEGENERATE
        assert abs(1.0 - math.sqrt(2.0) * (kappa + xi**2) / (sigma * xi)) < EPS_DEGENERATE
        with pytest.raises(DegenerateParams):
            pert_price_grid(100.0, np.array([90.0, 100.0]), TAU, 0.09, 0.0, *DEGENERATE)

    @settings(max_examples=200, deadline=None)
    @given(
        st.floats(0.05, 20.0), st.floats(0.05, 20.0), st.floats(0.3, 2.0),
        st.floats(0.05, 0.8), st.floats(0.01, 0.99), st.floats(0.3, 2.0),
    )
    def test_depends_on_structurals_only_through_q(self, kappa, xi, alpha, sigma, u, alpha2):
        # a second (kappa, xi, alpha) with the same sigma and q = (kappa + xi0^2) / xi0
        xi0 = xi * sigma ** (2.0 * (alpha - 1.0))
        q = (kappa + xi0**2) / xi0
        kappa2, xi2 = u * (1.0 - u) * q**2, u * q * sigma ** (2.0 * (1.0 - alpha2))
        assume(0.05 <= kappa2 <= 20.0 and 0.05 <= xi2 <= 20.0)
        spot, strike = 100.0, np.linspace(70.0, 130.0, 13)[:, None]
        tau = np.array([7, 30, 90, 180, 365]) / 365.0
        for r, v in ((0.0, 0.01), (0.03, 0.3)):
            a = pert_price_grid(spot, strike, tau, v, r, kappa, xi, alpha, sigma)
            b = pert_price_grid(spot, strike, tau, v, r, kappa2, xi2, alpha2, sigma)
            assert np.all(np.abs(a - b) <= 1e-13 * np.maximum(np.abs(a), 1.0))


class TestCalibrate:
    def test_sigma_recovery_zero_noise(self):
        # quotes generated at sigma = 0.2865; start the search away from it
        qs = synthetic_quotes(THETA)
        result = calibrate(qs, (1.5, 1.5, 1.0, 0.22), fix_structurals=True)
        assert result.theta_pert[3] == pytest.approx(0.2865, abs=1e-3)
        assert result.ivrmse < 1e-4
        assert result.theta_pert[:3] == (1.5, 1.5, 1.0)

    def test_full_vector_fit_reaches_low_error(self):
        qs = synthetic_quotes(THETA)
        result = calibrate(qs, (1.2, 1.2, 0.9, 0.25))
        assert result.ivrmse < 1e-4
        assert result.theta_pert[3] == pytest.approx(0.2865, abs=5e-3)

    def test_invalid_initial_rejected(self):
        qs = synthetic_quotes(THETA)
        with pytest.raises(InvalidParams):
            calibrate(qs, (0.0, 1.5, 1.0, 0.2))

    def test_result_fields(self):
        qs = synthetic_quotes(THETA)
        result = calibrate(qs, (1.5, 1.5, 1.0, 0.25), fix_structurals=True)
        assert result.n_quotes_used == 10
        assert result.iterations > 0
        assert result.residuals.shape == (10,)
        assert math.isfinite(result.ivrmse)

    # (quotes, start, IVRMSE and sigma of the 4-direction fit this one replaced)
    FOUR_DIRECTION_FITS = {
        "synthetic": (lambda: synthetic_quotes(THETA), (1.2, 1.2, 0.9, 0.25),
                      9.363258610435783e-12, 0.2865000097665645),
        "panel": (lambda: panel_quotes([1, 0]), (2.0, 0.6, 0.8, 0.25),
                  0.004743168327165208, 0.28669520675930105),
    }
    # Nelder-Mead's fits (fatol 1e-6, one restart), which the least-squares search replaced
    FOUR_DIRECTION_FITS.update({
        f"panel-{a}-{b}": (lambda s=[a, b]: panel_quotes(s), (2.0, 0.6, 0.8, 0.25), e, sg)
        for (a, b), e, sg in [
            ((1, 1), 0.004835153549398286, 0.28735368082034574),
            ((2, 0), 0.004976503391589428, 0.2867550225228275),
            ((2, 1), 0.00478095372495202, 0.2872270920432027),
            ((3, 0), 0.00495751387660695, 0.2870350442349094),
            ((3, 1), 0.00499401658881224, 0.28686558125263345),
            ((4, 0), 0.005018864781302065, 0.2871371851204719),
            ((4, 1), 0.004994751517158395, 0.2870243755968015),
        ]
    })

    @pytest.mark.parametrize("name", sorted(FOUR_DIRECTION_FITS))
    def test_no_worse_than_four_direction_fit(self, name):
        make, start, ivrmse_4d, sigma_4d = self.FOUR_DIRECTION_FITS[name]
        result = calibrate(make(), start)
        assert result.ivrmse <= ivrmse_4d * (1.0 + 1e-12)
        assert result.theta_pert[3] == pytest.approx(sigma_4d, abs=1e-6)
        assert all(type(p) is float for p in result.theta_pert)
        # the convention: alpha and kappa / xi0^2 stay at their start values
        (kappa0, xi0, alpha0, sigma0), (kappa, xi, alpha, sigma) = start, result.theta_pert
        sym0, sym = xi0 * sigma0 ** (2 * (alpha0 - 1)), xi * sigma ** (2 * (alpha - 1))
        assert alpha == alpha0
        assert kappa / sym**2 == pytest.approx(kappa0 / sym0**2, rel=1e-12)

    @pytest.mark.parametrize("fix_structurals", [False, True])
    def test_degenerate_start_is_a_penalty_point(self, fix_structurals):
        qs = synthetic_quotes(THETA)
        with pytest.raises(DegenerateParams):
            ivrmse(qs, DEGENERATE)
        result = calibrate(qs, DEGENERATE, fix_structurals)
        assert result.ivrmse < 10.0 * PENALTY_RESIDUAL  # the search left the start

    def test_n_evals_counts_objective_calls(self, monkeypatch):
        calls = []
        residuals = calibration._model_residuals

        def counted(quotes, theta):
            calls.append(theta)
            return residuals(quotes, theta)

        monkeypatch.setattr(calibration, "_model_residuals", counted)
        for fix in (False, True):
            calls.clear()
            result = calibrate(synthetic_quotes(THETA), (1.2, 1.2, 0.9, 0.25), fix)
            assert result.n_evals == len(calls) > result.iterations

    def test_deterministic(self):
        a = calibrate(synthetic_quotes(THETA), (1.2, 1.2, 0.9, 0.25))
        b = calibrate(synthetic_quotes(THETA), (1.2, 1.2, 0.9, 0.25))
        assert a.theta_pert == b.theta_pert and a.ivrmse == b.ivrmse
