import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from mgpert.analytic import bs_price, price_mg
from mgpert.errors import DegenerateParams, InvalidParams, QuadratureNotConverged
from mgpert.heatkernel import QuadratureConfig, breaking_operator_grid, psi0_grid, psi1_quadrature
from mgpert.params import (
    HeatCoords,
    MgParams,
    OptionSpec,
    PerturbParams,
    derive_params,
    tilt,
    to_heat_coords,
)
from oracles import correction_root_variance, heat_residual, psi1_closed_form, reconstruct_psi0

RNG = np.random.default_rng(20240817)

# psi1_quadrature on acceptance 3's grid (moneyness outer, variance inner),
# recorded with the tensor-product pass before the separable pass replaced it;
# the two are the same sum in exact arithmetic
ACCEPTANCE_3_PSI1 = [
    647531196.5338577, 103798.72991439178, 1312.12770765924,
    -90.95749575439118, -65.953043651178,
    1213044803.0216534, 194450.10610203355, 2458.0587072029475,
    -170.39413429912685, -123.55234359604195,
    1474212658.5701442, 236315.1032432846, 2987.277346973439,
    -207.07989451833583, -150.15309286595368,
    1235777597.0018795, 198094.1546895861, 2504.123404909599,
    -173.58736734924906, -125.86774857303601,
    751926002.0547429, 120533.13325963041, 1523.6685839759878,
    -105.62163880855691, -76.58597563547278,
]


def random_coords(n, tau_range=(0.0005, 0.01)):
    x = RNG.uniform(-0.3, 0.3, n)
    y = RNG.uniform(-4.0, -1.0, n)
    tau = RNG.uniform(*tau_range, n)
    return x, y, tau


class TestPsi0:
    def test_boundary_at_zero_time(self, scn_deriv):
        d = scn_deriv
        for x, y in [(0.2, -2.0), (-0.2, -2.0), (0.0, -3.0)]:
            got = float(psi0_grid(x, y, 0.0, d))
            expect = math.exp(0.5 * (d.r2 - 1) * y) * max(
                math.exp(0.5 * (d.r1 + 1) * x) - math.exp(0.5 * (d.r1 - 1) * x), 0.0
            )
            assert got == pytest.approx(expect, rel=1e-14)

    def test_tilted_psi0_is_symmetric_price(self, scn_mg, scn_pert, scn_deriv):
        # K * phi * psi0 must reproduce the closed-form symmetric price
        for _ in range(200):
            s = RNG.uniform(70, 140)
            k = RNG.uniform(70, 140)
            tau_cal = RNG.uniform(0.01, 1.0)
            v = RNG.uniform(0.01, 0.3)
            opt = OptionSpec(spot=s, strike=k, tau_cal=tau_cal, variance=v)
            hc = to_heat_coords(opt, scn_pert)
            lhs = k * tilt(hc, scn_deriv) * psi0_grid(hc.x, hc.y, hc.tau, scn_deriv)
            rhs = bs_price(s, k, tau_cal, scn_mg.r, scn_pert.sigma)
            assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-12)

    def test_y_dependence_factorizes(self, scn_deriv):
        # psi0(x, y, tau) = e^{-b y} psi0(x, 0, tau) exactly
        b = scn_deriv.b
        x, y, tau = random_coords(50)
        full = psi0_grid(x, y, tau, scn_deriv)
        base = psi0_grid(x, 0.0, tau, scn_deriv)
        np.testing.assert_allclose(full, np.exp(-b * y) * base, rtol=1e-12)

    def test_homogeneous_heat_residual_order(self, scn_deriv):
        # exact solution: discrete residual must vanish at 2nd order in h
        def field(x, y, tau):
            return float(psi0_grid(x, y, tau, scn_deriv))

        x, y, tau = random_coords(20, tau_range=(0.02, 0.05))
        h = 1e-3
        r_2h = [heat_residual(field, HeatCoords(*p), 2 * h) for p in zip(x, y, tau)]
        r_h = [heat_residual(field, HeatCoords(*p), h) for p in zip(x, y, tau)]
        rms_2h = math.sqrt(np.mean(np.square(r_2h)))
        rms_h = math.sqrt(np.mean(np.square(r_h)))
        assert math.log2(rms_2h / rms_h) > 1.9


class TestBreakingOperator:
    def test_annihilation_of_drift_diffusion_correlation_terms(
        self, scn_mg, scn_pert, scn_deriv
    ):
        # the three non-c1 terms vanish on psi0 up to FD noise in x
        x, y, tau = random_coords(200, tau_range=(0.001, 0.01))
        base, *others = np.abs(breaking_operator_grid(x, y, tau, scn_mg, scn_pert, scn_deriv))
        for term in others:
            assert np.max(term / base) < 1e-6

    def test_c3_vanishes_identically_at_alpha_one(self, scn_mg, scn_pert, scn_deriv):
        # at alpha=1, v0=1 the diffusion mismatch prefactor is xi^2 - xi0^2 = 0
        got = breaking_operator_grid(0.1, -2.0, 0.005, scn_mg, scn_pert, scn_deriv)[2]
        assert got == 0.0

    def test_terms_stack_on_a_leading_axis(self, scn_mg, scn_pert, scn_deriv):
        x = np.array([[-0.2, 0.0, 0.1], [0.05, 0.2, -0.1]])
        grid = breaking_operator_grid(x, -2.0, 0.005, scn_mg, scn_pert, scn_deriv)
        point = breaking_operator_grid(0.2, -2.0, 0.005, scn_mg, scn_pert, scn_deriv)
        assert grid.shape == (4, 2, 3) and point.shape == (4,)
        np.testing.assert_allclose(grid[:, 1, 1], point, rtol=1e-6, atol=0.0)


class TestBreakingTermsVanishExactly:
    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
    def test_c2_c4_exactly_zero_on_acceptance_2_draws(self, alpha):
        # acceptance 2's 10^4 draws: same seed, same order
        rng = np.random.default_rng(7)
        n = 10_000
        x = rng.uniform(-0.3, 0.3, n)
        y = rng.uniform(-4.0, -1.0, n)
        tau = rng.uniform(0.0005, 0.01, n)
        mg = MgParams(kappa=1.5, theta=0.08, xi=1.5, rho=-0.5, alpha=alpha)
        pert = PerturbParams.from_mg(mg, 0.2865)
        deriv = derive_params(mg, pert)
        terms = breaking_operator_grid(x, y, tau, mg, pert, deriv)
        for k in (1, 3):
            assert np.count_nonzero(terms[k]) == 0

    def test_c2_c4_quadrature_exactly_zero(self, scn_mg, scn_pert, scn_deriv):
        hc = HeatCoords(0.05, math.log(0.09), 0.003)
        for flags in [(0, 1, 0, 0), (0, 0, 0, 1)]:
            assert psi1_quadrature(hc, scn_mg, scn_pert, scn_deriv, c_flags=flags) == 0.0


class TestPsi0Reconstruction:
    def test_propagated_boundary_recovers_psi0(self, scn_deriv):
        for x, y, tau in [(0.0, -2.41, 0.0012), (0.1, -3.0, 0.003), (-0.1, -2.0, 0.002)]:
            hc = HeatCoords(x, y, tau)
            got = reconstruct_psi0(hc, scn_deriv)
            expect = float(psi0_grid(x, y, tau, scn_deriv))
            assert got == pytest.approx(expect, rel=1e-5)


class TestPsi1:
    def test_quadrature_matches_closed_form_frozen_point(
        self, scn_mg, scn_pert, scn_deriv
    ):
        opt = OptionSpec(spot=100.0, strike=100.0, tau_cal=30 / 365, variance=0.09)
        hc = to_heat_coords(opt, scn_pert)
        cf = psi1_closed_form(hc, scn_pert, scn_deriv)
        assert cf == pytest.approx(-164.19798349084357, rel=1e-10)
        q = psi1_quadrature(hc, scn_mg, scn_pert, scn_deriv)
        assert q == pytest.approx(cf, rel=1e-5)

    def test_quadrature_off_money(self, scn_mg, scn_pert, scn_deriv):
        opt = OptionSpec(spot=92.0, strike=100.0, tau_cal=14 / 365, variance=0.04)
        hc = to_heat_coords(opt, scn_pert)
        cf = psi1_closed_form(hc, scn_pert, scn_deriv)
        q = psi1_quadrature(hc, scn_mg, scn_pert, scn_deriv)
        assert q == pytest.approx(cf, rel=1e-4)

    def test_tilted_psi1_is_analytic_correction(self, scn_mg, scn_pert, scn_deriv):
        opt = OptionSpec(spot=110.0, strike=100.0, tau_cal=60 / 365, variance=0.18)
        hc = to_heat_coords(opt, scn_pert)
        lhs = opt.strike * tilt(hc, scn_deriv) * psi1_closed_form(hc, scn_pert, scn_deriv)
        rhs = price_mg(opt, scn_mg, scn_pert).c1
        assert lhs == pytest.approx(rhs, rel=1e-12)

    @given(
        st.floats(min_value=70.0, max_value=140.0),
        st.floats(min_value=1 / 365, max_value=2.0),
        st.floats(min_value=0.005, max_value=0.5),
        st.floats(min_value=0.1, max_value=0.6),
        st.floats(min_value=0.2, max_value=3.0),
        st.floats(min_value=0.1, max_value=2.0),
        st.sampled_from([0.5, 1.0, 1.5]),
        st.floats(min_value=0.0, max_value=0.05),
        st.floats(min_value=0.5, max_value=2.0),
    )
    def test_tilted_psi1_is_analytic_correction_everywhere(
        self, strike, tau_cal, variance, sigma, kappa, xi, alpha, r, v0
    ):
        mg = MgParams(kappa=kappa, theta=0.05, xi=xi, rho=-0.5, alpha=alpha, r=r)
        pert = PerturbParams.from_mg(mg, sigma, v0=v0)
        try:
            deriv = derive_params(mg, pert)
        except DegenerateParams:
            assume(False)
        # C1 changes sign at the root variance, where relative error means nothing
        assume(abs(variance / correction_root_variance(pert, deriv, tau_cal) - 1.0) > 1e-3)
        opt = OptionSpec(spot=100.0, strike=strike, tau_cal=tau_cal, variance=variance)
        hc = to_heat_coords(opt, pert)
        # psi1 and the tilt must both be representable
        assume(abs(deriv.a * hc.x + deriv.b * hc.y + deriv.c * hc.tau) < 600.0)
        lhs = opt.strike * tilt(hc, deriv) * psi1_closed_form(hc, pert, deriv)
        rhs = price_mg(opt, mg, pert).c1
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_all_terms_equal_c1_only(self, scn_mg, scn_pert, scn_deriv):
        hc = HeatCoords(0.05, math.log(0.09), 0.002)
        q_all = psi1_quadrature(hc, scn_mg, scn_pert, scn_deriv)
        q_c1 = psi1_quadrature(hc, scn_mg, scn_pert, scn_deriv,
                               c_flags=(1.0, 0.0, 0.0, 0.0))
        assert q_all == pytest.approx(q_c1, rel=1e-6)

    def test_coarse_grid_raises(self, scn_mg, scn_pert, scn_deriv):
        hc = HeatCoords(0.0, math.log(0.09), 0.002)
        qcfg = QuadratureConfig(n_nodes=8, n_time=8)
        with pytest.raises(QuadratureNotConverged):
            psi1_quadrature(hc, scn_mg, scn_pert, scn_deriv, qcfg)

    def test_zero_time_rejected(self, scn_mg, scn_pert, scn_deriv):
        with pytest.raises(InvalidParams):
            psi1_quadrature(HeatCoords(0.0, -2.0, 0.0), scn_mg, scn_pert, scn_deriv)

    def test_inhomogeneous_heat_residual_order(self, scn_mg, scn_pert, scn_deriv):
        # psi1 solves (d_tau - laplace) psi1 = -(D psi0); both sides analytic
        def field(x, y, tau):
            return psi1_closed_form(HeatCoords(x, y, tau), scn_pert, scn_deriv)

        def source(x, y, tau):
            return -float(breaking_operator_grid(x, y, tau, scn_mg, scn_pert, scn_deriv)[0])

        pts = [(0.05, -2.4, 0.02), (0.0, -2.0, 0.03), (-0.1, -3.0, 0.025)]
        h = 1e-3
        r_2h = [heat_residual(field, HeatCoords(*p), 2 * h, source) for p in pts]
        r_h = [heat_residual(field, HeatCoords(*p), h, source) for p in pts]
        rms_2h = math.sqrt(np.mean(np.square(r_2h)))
        rms_h = math.sqrt(np.mean(np.square(r_h)))
        assert math.log2(rms_2h / rms_h) > 1.9

    def test_underflowing_tilt_raises_invalid_params(self):
        # tilt exponent -1275: phi underflows to 0 while C1 is a modest number
        mg = MgParams(kappa=1.0, theta=0.05, xi=0.125, rho=-0.5, alpha=1.5)
        pert = PerturbParams.from_mg(mg, 0.125)
        deriv = derive_params(mg, pert)
        opt = OptionSpec(spot=100.0, strike=70.0, tau_cal=1.0, variance=0.5)
        c1 = price_mg(opt, mg, pert).c1
        assert c1 == pytest.approx(-1.2886e-3, rel=1e-4)
        with pytest.raises(InvalidParams, match="tilt exponent"):
            psi1_closed_form(to_heat_coords(opt, pert), pert, deriv)


class TestRecordedTensorValues:
    """The separable pass reproduces the tensor-product pass's recorded values."""

    def test_acceptance_3_grid(self, scn_mg, scn_pert, scn_deriv):
        got = []
        for m in np.linspace(0.9, 1.1, 5):
            for v in np.linspace(0.01, 0.1225, 5):
                opt = OptionSpec(spot=100.0, strike=100.0 * m, tau_cal=30 / 365,
                                 variance=float(v))
                hc = to_heat_coords(opt, scn_pert)
                got.append(psi1_quadrature(hc, scn_mg, scn_pert, scn_deriv))
        np.testing.assert_allclose(got, ACCEPTANCE_3_PSI1, rtol=1e-10, atol=0.0)

    @pytest.mark.parametrize("spot, days, variance, expected", [
        (100.0, 30, 0.09, -164.1979634804656),
        (92.0, 14, 0.04, 35296.76028993993),
    ])
    def test_frozen_points(self, scn_mg, scn_pert, scn_deriv, spot, days, variance,
                           expected):
        opt = OptionSpec(spot=spot, strike=100.0, tau_cal=days / 365, variance=variance)
        q = psi1_quadrature(to_heat_coords(opt, scn_pert), scn_mg, scn_pert, scn_deriv)
        assert q == pytest.approx(expected, rel=1e-10, abs=0.0)

    @pytest.mark.parametrize("c_flags", [(1, 1, 1, 1), (1, 0, 0, 0)])
    def test_acceptance_2_point(self, scn_mg, scn_pert, scn_deriv, c_flags):
        hc = HeatCoords(0.05, math.log(0.09), 0.003)
        q = psi1_quadrature(hc, scn_mg, scn_pert, scn_deriv, c_flags=c_flags)
        assert q == pytest.approx(-127.65919272641354, rel=1e-10, abs=0.0)

    @pytest.mark.parametrize("alpha, expected", [
        (0.5, -11099388329.747192),
        (1.5, -764862.9467290136),
    ])
    def test_other_alpha(self, scn_mg, alpha, expected):
        mg = replace(scn_mg, alpha=alpha)
        pert = PerturbParams.from_mg(mg, 0.2865)
        deriv = derive_params(mg, pert)
        opt = OptionSpec(spot=100.0, strike=100.0, tau_cal=30 / 365, variance=0.09)
        q = psi1_quadrature(to_heat_coords(opt, pert), mg, pert, deriv)
        assert q == pytest.approx(expected, rel=1e-10, abs=0.0)


class TestQuadratureConfig:
    def test_validation(self):
        with pytest.raises(InvalidParams):
            QuadratureConfig(n_nodes=2)
        with pytest.raises(InvalidParams):
            QuadratureConfig(n_time=2)

    @pytest.mark.parametrize("kwargs", [
        {"rel_tol": math.nan}, {"rel_tol": 0.0}, {"rel_tol": -1.0},
        {"rel_tol": math.inf},
    ])
    def test_rejects_values_that_disable_checks(self, kwargs):
        with pytest.raises(InvalidParams):
            QuadratureConfig(**kwargs)

    @pytest.mark.parametrize("kwargs", [{"n_nodes": 4.5}, {"n_time": 64.0}])
    def test_non_integer_count_rejected(self, kwargs):
        # each passed the range checks and failed later inside numpy
        with pytest.raises(InvalidParams, match="integer"):
            QuadratureConfig(**kwargs)

    def test_refined_doubles(self):
        q = QuadratureConfig()
        r = q.refined()
        assert r.n_nodes == 2 * q.n_nodes and r.n_time == 2 * q.n_time
