import math

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from mgpert.analytic import correction_root_variance, perturb_correction, price_symmetric
from mgpert.errors import DegenerateParams, InvalidParams, QuadratureNotConverged
from mgpert.heatkernel import (
    QuadratureConfig,
    apply_breaking_operator,
    breaking_operator_grid,
    heat_green,
    heat_residual,
    psi0,
    psi0_grid,
    psi1_closed_form,
    psi1_quadrature,
    reconstruct_psi0,
)
from mgpert.params import (
    HeatCoords,
    MgParams,
    OptionSpec,
    PerturbParams,
    derive_params,
    tilt,
    to_heat_coords,
)

RNG = np.random.default_rng(20240817)


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
            lhs = k * tilt(hc, scn_deriv) * psi0(hc, scn_deriv).value
            rhs = price_symmetric(opt, scn_pert, scn_mg.r)
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


class TestHeatGreen:
    def test_coincident_point_value(self):
        # at x=x', y=y' the kernel equals 1/(4 pi (tau - t))
        dt = 1.0 / (4.0 * math.pi)
        assert heat_green(0.3, -1.0, dt, 0.3, -1.0, 0.0) == pytest.approx(1.0)

    def test_symmetry_in_arguments(self):
        a = heat_green(0.1, 0.2, 0.5, 0.4, -0.3, 0.1)
        b = heat_green(0.4, -0.3, 0.5, 0.1, 0.2, 0.1)
        assert a == b

    def test_zero_for_reversed_time(self):
        assert heat_green(0.0, 0.0, 0.1, 0.0, 0.0, 0.2) == 0.0

    def test_normalization(self):
        # integrates to 1 over the plane
        n, L = 400, 12.0
        dt = 0.03
        g = np.linspace(-L * math.sqrt(dt), L * math.sqrt(dt), n)
        w = g[1] - g[0]
        xx, yy = np.meshgrid(g, g)
        total = np.sum(heat_green(0.0, 0.0, dt, xx, yy, 0.0)) * w * w
        assert total == pytest.approx(1.0, abs=1e-6)


class TestBreakingOperator:
    def test_annihilation_of_drift_diffusion_correlation_terms(
        self, scn_mg, scn_pert, scn_deriv
    ):
        # the three non-c1 terms vanish on psi0 up to FD noise in x
        x, y, tau = random_coords(200, tau_range=(0.001, 0.01))
        base = np.abs(
            breaking_operator_grid(x, y, tau, scn_mg, scn_pert, scn_deriv, 1, 0, 0, 0)
        )
        for flags in [(0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]:
            term = np.abs(
                breaking_operator_grid(x, y, tau, scn_mg, scn_pert, scn_deriv, *flags)
            )
            assert np.max(term / base) < 1e-6

    def test_c3_vanishes_identically_at_alpha_one(self, scn_mg, scn_pert, scn_deriv):
        # at alpha=1, v0=1 the diffusion mismatch prefactor is xi^2 - xi0^2 = 0
        got = apply_breaking_operator(
            HeatCoords(0.1, -2.0, 0.005), scn_mg, scn_pert, scn_deriv, 0, 0, 1, 0
        )
        assert got == 0.0

    def test_c1_term_scalar_matches_grid(self, scn_mg, scn_pert, scn_deriv):
        hc = HeatCoords(0.05, -2.4, 0.003)
        scalar = apply_breaking_operator(hc, scn_mg, scn_pert, scn_deriv, 1, 0, 0, 0)
        grid = breaking_operator_grid(
            np.array([hc.x]), np.array([hc.y]), hc.tau, scn_mg, scn_pert, scn_deriv,
            1, 0, 0, 0,
        )
        assert scalar == pytest.approx(float(grid[0]))


class TestPsi0Reconstruction:
    def test_propagated_boundary_recovers_psi0(self, scn_deriv):
        for x, y, tau in [(0.0, -2.41, 0.0012), (0.1, -3.0, 0.003), (-0.1, -2.0, 0.002)]:
            hc = HeatCoords(x, y, tau)
            got = reconstruct_psi0(hc, scn_deriv)
            expect = psi0(hc, scn_deriv).value
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
        rhs = perturb_correction(opt, scn_pert, scn_deriv, scn_mg.r)
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
        rhs = perturb_correction(opt, pert, deriv, r)
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
            return -apply_breaking_operator(
                HeatCoords(x, y, tau), scn_mg, scn_pert, scn_deriv, 1, 0, 0, 0
            )

        pts = [(0.05, -2.4, 0.02), (0.0, -2.0, 0.03), (-0.1, -3.0, 0.025)]
        h = 1e-3
        r_2h = [heat_residual(field, HeatCoords(*p), 2 * h, source) for p in pts]
        r_h = [heat_residual(field, HeatCoords(*p), h, source) for p in pts]
        rms_2h = math.sqrt(np.mean(np.square(r_2h)))
        rms_h = math.sqrt(np.mean(np.square(r_h)))
        assert math.log2(rms_2h / rms_h) > 1.9


class TestQuadratureConfig:
    def test_validation(self):
        with pytest.raises(InvalidParams):
            QuadratureConfig(half_width=2.0)
        with pytest.raises(InvalidParams):
            QuadratureConfig(n_nodes=2)
        with pytest.raises(InvalidParams):
            QuadratureConfig(fd_step=1e-8)

    def test_refined_doubles(self):
        q = QuadratureConfig()
        r = q.refined()
        assert r.n_nodes == 2 * q.n_nodes and r.n_time == 2 * q.n_time
