import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mgpert import analytic
from mgpert.analytic import (
    _black_terms,
    _bs_float,
    bs_price,
    bs_vega,
    correction_kernel,
    implied_vol,
    implied_vol_array,
    normal_cdf,
    price_mg,
)
from mgpert.errors import InvalidParams, NoConvergence, OutOfBounds
from mgpert.params import OptionSpec, PerturbParams
from oracles import correction_root_variance


def bs_call_reference(s, k, tau, r, sigma):
    """Textbook Black-Scholes call, written independently via erf."""
    if tau <= 0 or sigma <= 0:
        return max(s - k * math.exp(-r * tau), 0.0)

    def cdf(z):
        return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))

    d1 = (math.log(s / k) + (r + 0.5 * sigma * sigma) * tau) / (sigma * math.sqrt(tau))
    d2 = d1 - sigma * math.sqrt(tau)
    return s * cdf(d1) - k * math.exp(-r * tau) * cdf(d2)


class TestNormalCdf:
    def test_frozen_values(self):
        # scipy-independent reference values of Phi
        assert normal_cdf(0.0) == pytest.approx(0.5, abs=1e-15)
        assert normal_cdf(1.0) == pytest.approx(0.8413447460685429, abs=1e-15)
        assert normal_cdf(-1.96) == pytest.approx(0.024997895148220435, abs=1e-15)

    @given(st.floats(min_value=-8, max_value=8))
    def test_symmetry(self, z):
        assert normal_cdf(z) + normal_cdf(-z) == pytest.approx(1.0, abs=1e-14)

    def test_scalar_port_is_bit_identical_to_scipy(self):
        from scipy.special import ndtr

        rng = np.random.default_rng(20)
        # Cephes switches branch at |a| = 1, sqrt 2 and 8 sqrt 2, and exp(-a^2/2)
        # underflows past sqrt(2 MAXLOG); sample each edge ulp by ulp and nearby
        edges = [1.0, math.sqrt(2.0), 8.0 * math.sqrt(2.0), math.sqrt(2.0 * analytic._MAXLOG)]
        near = [
            np.concatenate([
                e + np.arange(-2000, 2001) * math.ulp(e),
                e * (1.0 + rng.uniform(-1e-6, 1e-6, 4000)),
                e + rng.uniform(-0.05, 0.05, 4000),
            ])
            for e in edges
        ]
        special = [0.0, math.inf, math.nan, 1e-300, 5e-324, 1.7976931348623157e308]
        a = np.concatenate([rng.uniform(-40.0, 40.0, 100_000), rng.normal(0.0, 3.0, 100_000),
                            *near, special])
        a = np.concatenate([a, -a])
        ours = np.array([analytic._ndtr_float(v) for v in a.tolist()])
        ref = ndtr(a)
        same = (ours.view(np.int64) == ref.view(np.int64)) | (np.isnan(ours) & np.isnan(ref))
        assert a.size > 200_000 and same.all(), a[~same][:10]

    @pytest.mark.parametrize("shape", [(), (1,), (2,), (2, 1), (0,), (3,), (2, 3)])
    def test_paths_match_scipy_in_type_and_bits(self, shape):
        from scipy.special import ndtr

        d = np.linspace(-9.0, 9.0, math.prod(shape)).reshape(shape)
        ours, ref = normal_cdf(d), ndtr(d)
        assert type(ours) is type(ref) and np.shape(ours) == shape
        assert np.asarray(ours).tobytes() == np.asarray(ref).tobytes()


class TestBsPrice:
    @given(
        st.floats(min_value=50, max_value=200),
        st.floats(min_value=50, max_value=200),
        st.floats(min_value=0.01, max_value=2.0),
        st.floats(min_value=0.0, max_value=0.1),
        st.floats(min_value=0.05, max_value=1.0),
    )
    @settings(max_examples=200)
    def test_against_independent_reference(self, s, k, tau, r, sigma):
        ours = bs_price(s, k, tau, r, sigma, "call")
        ref = bs_call_reference(s, k, tau, r, sigma)
        assert ours == pytest.approx(ref, rel=1e-12, abs=1e-12)

    def test_payoff_at_expiry(self):
        assert bs_price(110.0, 100.0, 0.0, 0.0, 0.3, "call") == 10.0
        assert bs_price(90.0, 100.0, 0.0, 0.0, 0.3, "call") == 0.0
        assert bs_price(90.0, 100.0, 0.0, 0.0, 0.3, "put") == 10.0

    @given(
        st.floats(min_value=60, max_value=150),
        st.floats(min_value=0.01, max_value=1.0),
        st.floats(min_value=0.0, max_value=0.08),
        st.floats(min_value=0.05, max_value=0.9),
    )
    def test_put_call_parity(self, k, tau, r, sigma):
        s = 100.0
        call = bs_price(s, k, tau, r, sigma, "call")
        put = bs_price(s, k, tau, r, sigma, "put")
        assert call - put == pytest.approx(s - k * math.exp(-r * tau), abs=1e-10)

    def test_vectorized_matches_scalar(self):
        strikes = np.array([80.0, 100.0, 120.0])
        vec = bs_price(100.0, strikes, 0.25, 0.01, 0.2, "call")
        for k, v in zip(strikes, vec):
            assert v == pytest.approx(bs_price(100.0, k, 0.25, 0.01, 0.2, "call"))

    @pytest.mark.parametrize("strike", [90.0, np.array([90.0]), np.array([80.0, 90.0, 100.0])])
    def test_unknown_kind_raises(self, strike):
        # any kind but "call" used to price a put
        with pytest.raises(InvalidParams, match="kind"):
            bs_price(100.0, strike, 1.0, 0.0, 0.2, "Call")

    def test_vega_is_price_derivative(self):
        h = 1e-6
        up = bs_price(100.0, 105.0, 0.5, 0.02, 0.3 + h, "call")
        dn = bs_price(100.0, 105.0, 0.5, 0.02, 0.3 - h, "call")
        assert float(bs_vega(100.0, 105.0, 0.5, 0.02, 0.3)) == pytest.approx(
            (up - dn) / (2 * h), rel=1e-6
        )

    def test_vega_prices_nothing(self, monkeypatch):
        # vega needs d1 alone; it used to price the call through normal_cdf too
        monkeypatch.setattr(analytic, "normal_cdf", _no_array_cdf)
        vega = bs_vega(100.0, np.array([90.0, 105.0, 120.0]), 0.5, 0.02, np.array([0.3, 0.0, 0.3]))
        assert vega[1] == 0.0 and (vega[[0, 2]] > 0).all()


class TestPerturbCorrection:
    def test_frozen_scenario_value(self, scn_mg, scn_pert):
        opt = OptionSpec(spot=100.0, strike=100.0, tau_cal=30 / 365, variance=0.09)
        c1 = price_mg(opt, scn_mg, scn_pert).c1
        assert c1 == pytest.approx(-0.005089529099783426, rel=1e-12)

    def test_zero_at_expiry(self, scn_mg, scn_pert):
        opt = OptionSpec(spot=100.0, strike=100.0, tau_cal=0.0, variance=0.09)
        assert price_mg(opt, scn_mg, scn_pert).c1 == 0.0

    def test_sign_change_at_root_variance(self, scn_mg, scn_pert, scn_deriv):
        tau = 30 / 365
        v_root = correction_root_variance(scn_pert, scn_deriv, tau)
        lo = OptionSpec(spot=100.0, strike=100.0, tau_cal=tau, variance=0.9 * v_root)
        hi = OptionSpec(spot=100.0, strike=100.0, tau_cal=tau, variance=1.1 * v_root)
        at = OptionSpec(spot=100.0, strike=100.0, tau_cal=tau, variance=v_root)
        c_lo = price_mg(lo, scn_mg, scn_pert).c1
        c_hi = price_mg(hi, scn_mg, scn_pert).c1
        c_at = price_mg(at, scn_mg, scn_pert).c1
        assert c_lo * c_hi < 0
        assert abs(c_at) < 1e-12 * max(abs(c_lo), abs(c_hi))

    def test_reference_scale_independence(self, scn_mg):
        # the correction must not depend on the arbitrary variance scale v0
        opt = OptionSpec(spot=105.0, strike=100.0, tau_cal=60 / 365, variance=0.06)
        vals = []
        for v0 in (0.5, 1.0, 10.0):
            pp = PerturbParams.from_mg(scn_mg, 0.2865, v0=v0)
            vals.append(price_mg(opt, scn_mg, pp).c1)
        assert vals[0] == vals[1] == vals[2]

    def test_linear_in_variance(self, scn_mg, scn_pert):
        # C1 = A + B*V for fixed contract, by construction of the bracket
        tau = 30 / 365
        cs = [
            price_mg(OptionSpec(spot=100.0, strike=100.0, tau_cal=tau, variance=v),
                     scn_mg, scn_pert).c1
            for v in (0.02, 0.05, 0.08)
        ]
        assert cs[1] - cs[0] == pytest.approx(cs[2] - cs[1], rel=1e-9)

    @given(
        st.floats(min_value=-1.0, max_value=1.0),
        st.floats(min_value=1e-3, max_value=2.0),
        st.floats(min_value=0.0, max_value=0.5),
        st.floats(min_value=0.05, max_value=0.6),
        st.floats(min_value=-1.0, max_value=-0.01) | st.floats(min_value=0.01, max_value=1.0),
        st.floats(min_value=0.0, max_value=0.05),
    )
    @settings(max_examples=300)
    # x**2 and tau**2 on 0-d input were C pow, on arrays products: a last bit apart
    @example(-0.3987907351747264, 0.563094675476313, 0.22633860302828873,
             0.38918567076058197, -0.461592261221843, 0.0)
    def test_kernel_scalar_is_one_element_array(self, x, tau, variance, sigma, r2, r):
        scalar = correction_kernel(x, tau, variance, sigma, r2, r, 4.6)
        array = correction_kernel(np.array([x]), np.array([tau]), np.array([variance]),
                                  sigma, r2, r, 4.6)
        assert np.float64(scalar).tobytes() == array.tobytes()


class TestPriceMg:
    def test_total_is_sum(self, scn_mg, scn_pert):
        opt = OptionSpec(spot=95.0, strike=100.0, tau_cal=0.25, variance=0.07)
        bd = price_mg(opt, scn_mg, scn_pert)
        assert bd.total == bd.c0 + bd.c1

    def test_parity_of_full_price(self, scn_mg, scn_pert):
        call = OptionSpec(spot=95.0, strike=100.0, tau_cal=0.25, variance=0.07)
        put = OptionSpec(spot=95.0, strike=100.0, tau_cal=0.25, kind="put", variance=0.07)
        bd_c = price_mg(call, scn_mg, scn_pert)
        bd_p = price_mg(put, scn_mg, scn_pert)
        assert bd_c.total - bd_p.total == pytest.approx(95.0 - 100.0, abs=1e-10)
        # the correction itself is kind-independent
        assert bd_c.c1 == bd_p.c1

    def test_c0_is_symmetric_price(self, scn_mg, scn_pert):
        opt = OptionSpec(spot=102.0, strike=100.0, tau_cal=0.1, variance=0.05)
        bd = price_mg(opt, scn_mg, scn_pert)
        assert bd.c0 == pytest.approx(bs_price(102.0, 100.0, 0.1, scn_mg.r, scn_pert.sigma))

    def test_d1_is_the_one_that_priced_c0(self, scn_mg, scn_pert):
        # a seeded book of 1250 call/put pairs: with math.log and sigma**2,
        # 38 of these d1 were a last bit away from the d1 of the C0 price
        rng = np.random.default_rng(1)
        strikes = 100.0 * rng.uniform(0.9, 1.1, 1250)
        taus = rng.uniform(7.0, 180.0, 1250) / 365.0
        variances = rng.uniform(0.01, 0.1225, 1250)
        sigma, r = scn_pert.sigma, scn_mg.r
        for k, tau, v in zip(strikes.tolist(), taus.tolist(), variances.tolist()):
            for kind in ("call", "put"):
                bd = price_mg(OptionSpec(spot=100.0, strike=k, tau_cal=tau, kind=kind,
                                         variance=v), scn_mg, scn_pert)
                c0, d1 = _bs_float(sigma, 100.0, tau, r, kind, *_black_terms(100.0, k, tau, r))
                assert (bd.c0, bd.d1) == (c0, d1)
                assert bd.d2 == d1 - sigma * math.sqrt(tau)

    @pytest.mark.filterwarnings("error")
    def test_underflowing_moneyness_prices_without_warning(self, scn_mg, scn_pert):
        # S/K underflows to 0: log S/K is -inf, and np.log(0.0) used to warn
        opt = OptionSpec(spot=1e-300, strike=1e100, tau_cal=0.1, kind="put")
        bd = price_mg(opt, scn_mg, scn_pert)
        assert (bd.c0, bd.c1, bd.total) == (1e100, 0.0, 1e100)
        assert bd.d1 == bd.d2 == -math.inf
        with pytest.raises(OutOfBounds):
            implied_vol(bd.total, opt, scn_mg.r)

    def test_d1_at_expiry_is_signed_infinity(self, scn_mg, scn_pert):
        for strike, sign in ((90.0, 1.0), (100.0, 1.0), (110.0, -1.0)):
            bd = price_mg(OptionSpec(spot=100.0, strike=strike, tau_cal=0.0), scn_mg, scn_pert)
            assert bd.d1 == bd.d2 == sign * math.inf


class TestImpliedVol:
    @given(
        st.floats(min_value=70, max_value=140),
        st.floats(min_value=0.02, max_value=1.5),
        st.floats(min_value=0.05, max_value=1.2),
    )
    @settings(max_examples=100)
    def test_round_trip(self, k, tau, sigma):
        opt = OptionSpec(spot=100.0, strike=k, tau_cal=tau)
        price = bs_price(100.0, k, tau, 0.01, sigma, "call")
        intrinsic = max(100.0 - k * math.exp(-0.01 * tau), 0.0)
        if price - intrinsic <= 1e-6:
            return  # numerically indistinguishable from intrinsic
        got = implied_vol(price, opt, 0.01)
        # the solver contract is on the reproduced price, not on sigma itself
        assert bs_price(100.0, k, tau, 0.01, got, "call") == pytest.approx(
            price, abs=2e-9
        )
        if float(bs_vega(100.0, k, tau, 0.01, sigma)) > 1e-3:
            assert got == pytest.approx(sigma, abs=1e-5)

    def test_out_of_bounds_raises(self):
        opt = OptionSpec(spot=100.0, strike=100.0, tau_cal=0.25)
        with pytest.raises(OutOfBounds):
            implied_vol(101.0, opt, 0.0)  # above the spot bound
        with pytest.raises(OutOfBounds):
            implied_vol(-0.5, opt, 0.0)

    def test_in_bracket_price_checks_the_bracket_once(self, monkeypatch):
        bracket, calls = analytic._price_bracket, []

        def counted(*args):
            calls.append(args)
            return bracket(*args)

        monkeypatch.setattr(analytic, "_price_bracket", counted)
        opt = OptionSpec(spot=100.0, strike=105.0, tau_cal=0.25)
        assert implied_vol(bs_price(100.0, 105.0, 0.25, 0.0, 0.3), opt, 0.0) == pytest.approx(0.3)
        assert len(calls) == 1

    def test_expiry_raises(self):
        opt = OptionSpec(spot=100.0, strike=100.0, tau_cal=0.0)
        with pytest.raises(OutOfBounds):
            implied_vol(1.0, opt, 0.0)

    def test_array_matches_scalar(self):
        strikes = np.array([90.0, 100.0, 110.0])
        prices = bs_price(100.0, strikes, 0.25, 0.0, 0.3, "call")
        got = implied_vol_array(prices, 100.0, strikes, 0.25, 0.0)
        np.testing.assert_allclose(got, 0.3, atol=1e-7)

    def test_array_nan_for_bad_price(self):
        got = implied_vol_array(
            np.array([200.0, 5.0]), 100.0, np.array([100.0, 100.0]), 0.25, 0.0
        )
        assert math.isnan(got[0]) and got[1] == pytest.approx(0.3, abs=0.2)

    def test_array_nan_at_iteration_cap(self, monkeypatch):
        strikes = np.array([90.0, 100.0, 110.0])
        prices = bs_price(100.0, strikes, 0.25, 0.0, np.array([0.3, 0.45, 0.2]), "call")
        prices = np.append(prices, 200.0)
        full = implied_vol_array(prices, 100.0, np.append(strikes, 100.0), 0.25, 0.0)
        np.testing.assert_allclose(full[:3], [0.3, 0.45, 0.2], atol=1e-7)
        # one iteration: only the entry already at the 0.3 starting point converged
        monkeypatch.setattr(analytic, "IV_MAX_ITER", 1)
        capped = implied_vol_array(prices, 100.0, np.append(strikes, 100.0), 0.25, 0.0)
        assert capped[0] == 0.3
        assert np.isnan(capped[1:]).all()

    @given(
        st.floats(min_value=70, max_value=140),
        st.floats(min_value=1 / 365, max_value=1.5),
        st.floats(min_value=0.0, max_value=0.05),
        st.floats(min_value=-5.0, max_value=105.0),
        st.sampled_from(["call", "put"]),
    )
    @settings(max_examples=200)
    # 0-d d1**2 was C pow, the array's a product, and this inverted a last bit apart
    @example(124.63975178892187, 0.802332418584674, 0.016505034590351398,
             45.480285742594226, "call")
    def test_scalar_is_one_element_array(self, k, tau, r, price, kind):
        opt = OptionSpec(spot=100.0, strike=k, tau_cal=tau, kind=kind)
        got = implied_vol_array(np.array([price]), 100.0, np.array([k]), tau, r, kind)
        if math.isnan(got[0]):
            with pytest.raises((OutOfBounds, NoConvergence)):
                implied_vol(price, opt, r)
        else:
            assert np.float64(implied_vol(price, opt, r)).tobytes() == got.tobytes()

    def test_scalar_errors(self):
        opt = OptionSpec(spot=100.0, strike=100.0, tau_cal=0.25)
        intrinsic = OptionSpec(spot=100.0, strike=50.0, tau_cal=0.25)
        assert implied_vol(50.0, intrinsic, 0.0) == analytic.IV_MIN  # on the floor
        with pytest.raises(OutOfBounds):
            implied_vol(49.0, intrinsic, 0.0)  # below the floor
        with pytest.raises(NoConvergence):
            implied_vol(99.99, opt, 0.0)  # needs sigma > IV_MAX

    @pytest.mark.parametrize("price", [13.26, np.array([13.26]), np.array([13.26, 9.0, 20.0])])
    def test_unknown_kind_raises(self, price):
        with pytest.raises(InvalidParams, match="kind"):
            implied_vol_array(price, 100.0, 90.0, 1.0, 0.0, "CALL")

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("shape", [(), (1,), (3,)])
    def test_newton_step_overflow_is_silent(self, shape):
        # diff / vega overflowed to inf here and warned
        price, strike, tau = 2.4037405557705447e-08, 54.7998817594233, 1 / 365
        got = implied_vol_array(np.full(shape, price), 100.0, np.full(shape, strike), tau, 0.0,
                                "put")
        assert np.isfinite(got).all()
        opt = OptionSpec(spot=100.0, strike=strike, tau_cal=tau, kind="put")
        assert implied_vol(price, opt, 0.0) == got.flat[0]

    def test_put_inversion(self):
        opt = OptionSpec(spot=100.0, strike=110.0, tau_cal=0.5, kind="put")
        price = bs_price(100.0, 110.0, 0.5, 0.02, 0.4, "put")
        assert implied_vol(price, opt, 0.02) == pytest.approx(0.4, abs=1e-7)


def _bits(x):
    return np.asarray(x, dtype=float).tobytes()


def _iv_or_nan(price, opt, r):
    """implied_vol, with NaN where it raises: implied_vol_array's NaN."""
    try:
        return implied_vol(price, opt, r)
    except (OutOfBounds, NoConvergence):
        return math.nan


class TestScalarPaths:
    """The float paths, _bs_float behind price_mg and implied_vol, and
    bs_price and implied_vol_array on 0-d, one- and three-element input give
    the same bits."""

    N_GROUPS = 7000  # of three contracts sharing tau, r and kind: one array call each

    @classmethod
    def _book(cls):
        rng = np.random.default_rng(1407)
        n = cls.N_GROUPS
        tau = rng.uniform(1 / 365, 3.0, n)
        tau[::50], tau[1::50] = 1e-6, 0.0
        r = np.where(rng.random(n) < 0.25, 0.0, rng.uniform(-0.02, 0.08, n))
        kinds = [str(k) for k in rng.choice(["call", "put"], n)]
        strikes = rng.uniform(40.0, 250.0, (n, 3))
        sigma = rng.uniform(0.01, 2.0, (n, 3))
        scale = 1.0 + rng.uniform(-0.1, 0.1, (n, 3))
        prices = np.empty((n, 3))
        for g in range(n):
            prices[g] = bs_price(100.0, strikes[g], tau[g], r[g], sigma[g], kinds[g]) * scale[g]
            if g % 7 == 0:
                # exactly at the no-arbitrage floor, which clamps to IV_MIN
                prices[g, 1] = analytic._price_bracket(
                    100.0, strikes[g, 1], tau[g], r[g], kinds[g])[0]
        prices[::11, 2] = np.nan
        return tau.tolist(), r.tolist(), kinds, strikes, sigma, prices

    def test_float_and_numpy_paths_give_the_same_bits(self):
        tau, r, kinds, strikes, sigma, prices = self._book()
        assert strikes.size >= 20_000
        bad = []
        for g, (t, rate, kind) in enumerate(zip(tau, r, kinds)):
            bs3 = bs_price(100.0, strikes[g], t, rate, sigma[g], kind)
            iv3 = implied_vol_array(prices[g], 100.0, strikes[g], t, rate, kind)
            for j in range(3):
                k, s, p = (float(a[g, j]) for a in (strikes, sigma, prices))
                bsf = _bs_float(s, 100.0, t, rate, kind, *_black_terms(100.0, k, t, rate))[0]
                bs0 = bs_price(100.0, k, t, rate, s, kind)
                bs1 = bs_price(100.0, np.array([k]), t, rate, np.array([s]), kind)
                # at tau = 0 implied_vol raises OutOfBounds; compare the arrays alone
                opt = OptionSpec(spot=100.0, strike=k, tau_cal=t, kind=kind, variance=0.04)
                ivf = _iv_or_nan(p, opt, rate) if t > 0 else iv3[j]
                iv0 = implied_vol_array(p, 100.0, k, t, rate, kind)
                iv1 = implied_vol_array(np.array([p]), 100.0, np.array([k]), t, rate, kind)
                assert type(bs0) is float and bs1.shape == (1,)
                assert type(iv0) is np.ndarray and iv0.shape == () and iv0.dtype == float
                if not (_bits(bsf) == _bits(bs0) == _bits(bs1[0]) == _bits(bs3[j])
                        and _bits(ivf) == _bits(iv0) == _bits(iv1[0]) == _bits(iv3[j])):
                    bad.append((k, t, rate, s, p, kind))
        assert not bad, (len(bad), bad[:5])

    @pytest.mark.parametrize("shape", [(), (1,), (3,)])
    def test_bracket_overflow_raises_on_both_paths(self, shape):
        # the no-arbitrage bracket's math.exp is shared; unknown kinds are
        # checked on all three shapes in TestBsPrice and TestImpliedVol
        with pytest.raises(OverflowError):
            implied_vol_array(np.full(shape, 13.0), 100.0, 90.0, 1.0, -1000.0)

    def test_scalar_pricing_stays_off_the_array_cdf(self, monkeypatch, scn_mg, scn_pert):
        monkeypatch.setattr(analytic, "normal_cdf", _no_array_cdf)
        for kind in ("call", "put"):
            opt = OptionSpec(spot=100.0, strike=105.0, tau_cal=0.25, kind=kind, variance=0.04)
            bd = price_mg(opt, scn_mg, scn_pert)
            assert 0.0 < implied_vol(bd.total, opt, scn_mg.r) < analytic.IV_MAX


def _no_array_cdf(d):
    raise AssertionError("normal_cdf was called")
