import math

import pytest
from hypothesis import given, strategies as st

from mgpert.errors import DegenerateParams, InvalidParams, NonpositiveVariance
from mgpert.params import (
    DEFAULT_V0,
    HeatCoords,
    MgParams,
    OptionSpec,
    PerturbParams,
    derive_params,
    tilt,
    to_heat_coords,
)


class TestMgParams:
    def test_valid_roundtrip(self):
        mg = MgParams(kappa=1.5, theta=0.08, xi=1.5, rho=-0.5, alpha=1.0)
        assert mg.lam == pytest.approx(1.5 * 0.08)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"kappa": 0.0},
            {"kappa": -1.0},
            {"theta": 0.0},
            {"xi": -0.1},
            {"rho": 1.5},
            {"rho": -1.0001},
            {"alpha": 0.0},
            {"r": -0.01},
        ],
    )
    def test_bounds_rejected(self, kwargs):
        base = dict(kappa=1.5, theta=0.08, xi=1.5, rho=-0.5, alpha=1.0)
        base.update(kwargs)
        with pytest.raises(InvalidParams):
            MgParams(**base)

    def test_rho_endpoints_allowed(self):
        MgParams(kappa=1.0, theta=0.05, xi=0.3, rho=1.0, alpha=0.5)
        MgParams(kappa=1.0, theta=0.05, xi=0.3, rho=-1.0, alpha=0.5)


class TestPerturbParams:
    def test_xi0_linkage_alpha_one(self):
        mg = MgParams(kappa=1.5, theta=0.08, xi=1.5, rho=-0.5, alpha=1.0)
        pp = PerturbParams.from_mg(mg, 0.3)
        assert pp.xi0 == pytest.approx(1.5)  # sigma^0 = 1

    def test_xi0_linkage_alpha_half(self):
        mg = MgParams(kappa=1.5, theta=0.08, xi=0.4, rho=-0.5, alpha=0.5)
        pp = PerturbParams.from_mg(mg, 0.2)
        assert pp.xi0 == pytest.approx(0.4 / 0.2)  # xi * sigma^(-1)

    @given(st.floats(min_value=0.05, max_value=1.0),
           st.floats(min_value=0.3, max_value=1.5))
    def test_xi0_dimensional_scaling(self, sigma, alpha):
        mg = MgParams(kappa=1.0, theta=0.05, xi=0.5, rho=0.0, alpha=alpha)
        pp = PerturbParams.from_mg(mg, sigma)
        assert pp.xi0 == pytest.approx(0.5 * sigma ** (2 * (alpha - 1)))

    def test_invalid(self):
        with pytest.raises(InvalidParams):
            PerturbParams(sigma=0.0, xi0=1.0)
        with pytest.raises(InvalidParams):
            PerturbParams(sigma=0.2, xi0=-1.0)


class TestDerivedParams:
    def test_frozen_scenario_constants(self, scn_deriv):
        # reference values computed once by hand from the defining formulas
        d = scn_deriv
        assert d.r2 == pytest.approx(-11.34043248144062, abs=1e-12)
        assert d.r1 == 0.0
        assert d.a == pytest.approx(0.5, abs=1e-14)
        assert d.b == pytest.approx(6.17021624072031, abs=1e-12)
        assert d.c == pytest.approx(-38.32156845724868, abs=1e-11)

    def test_degenerate_raises(self):
        sigma, xi = 0.2, 0.1
        # kappa chosen so 1 + sqrt(2)(-kappa - xi^2)/(sigma xi) vanishes
        kappa = sigma * xi / math.sqrt(2.0) - xi**2
        mg = MgParams(kappa=kappa, theta=0.05, xi=xi, rho=0.0, alpha=1.0)
        pp = PerturbParams.from_mg(mg, sigma)
        with pytest.raises(DegenerateParams):
            derive_params(mg, pp)

    @given(st.floats(min_value=0.1, max_value=5.0),
           st.floats(min_value=0.05, max_value=1.0))
    def test_abc_consistent_with_r1_r2(self, kappa, sigma):
        mg = MgParams(kappa=kappa, theta=0.05, xi=0.5, rho=0.0, alpha=1.0, r=0.02)
        d = derive_params(mg, PerturbParams.from_mg(mg, sigma))
        assert d.a == pytest.approx(-0.5 * (d.r1 - 1))
        assert d.b == pytest.approx(-0.5 * (d.r2 - 1))
        assert d.c == pytest.approx(-0.25 * ((d.r2 - 1) ** 2 + (d.r1 + 1) ** 2))


class TestOptionSpec:
    def test_kind_validation(self):
        with pytest.raises(InvalidParams):
            OptionSpec(spot=100, strike=100, tau_cal=0.1, kind="straddle")

    def test_is_call(self):
        assert OptionSpec(spot=1, strike=1, tau_cal=0.0).is_call
        assert not OptionSpec(spot=1, strike=1, tau_cal=0.0, kind="put").is_call


class TestHeatCoords:
    def test_mapping(self, scn_pert):
        opt = OptionSpec(spot=110.0, strike=100.0, tau_cal=0.5, variance=0.09)
        hc = to_heat_coords(opt, scn_pert)
        assert hc.x == pytest.approx(math.log(1.1))
        assert hc.y == pytest.approx(math.log(0.09 / DEFAULT_V0))
        assert hc.tau == pytest.approx(0.5 * scn_pert.sigma**2 * 0.5)

    def test_nonpositive_variance(self, scn_pert):
        opt = OptionSpec(spot=100.0, strike=100.0, tau_cal=0.5, variance=0.0)
        with pytest.raises(NonpositiveVariance):
            to_heat_coords(opt, scn_pert)

    def test_underflowing_moneyness_names_the_underflow(self, scn_pert):
        # math.log(0.0) raises a bare ValueError, which the CLI does not map to an exit code
        opt = OptionSpec(spot=1e-300, strike=1e100, tau_cal=0.1, kind="put", variance=0.04)
        with pytest.raises(InvalidParams, match="underflows to 0"):
            to_heat_coords(opt, scn_pert)

    def test_subnormal_moneyness_keeps_math_log(self, scn_pert):
        # only an S/K of exactly 0 is refused; the smallest positive ratio still maps
        opt = OptionSpec(spot=5e-324, strike=1.0, tau_cal=0.1, variance=0.04)
        assert to_heat_coords(opt, scn_pert).x == math.log(5e-324)

    def test_tilt_at_origin_is_one(self, scn_deriv):
        assert tilt(HeatCoords(x=0.0, y=0.0, tau=0.0), scn_deriv) == 1.0


VALID = {
    MgParams: dict(kappa=1.5, theta=0.08, xi=1.5, rho=-0.5, alpha=1.0, r=0.01),
    PerturbParams: dict(sigma=0.2, xi0=1.5, v0=1.0),
    OptionSpec: dict(spot=100.0, strike=100.0, tau_cal=0.1, variance=0.04),
    HeatCoords: dict(x=0.0, y=-2.0, tau=0.01),
}


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "cls,name", [(cls, name) for cls, kwargs in VALID.items() for name in kwargs]
)
def test_non_finite_field_rejected(cls, name, bad):
    cls(**VALID[cls])
    with pytest.raises(InvalidParams, match=name):
        cls(**{**VALID[cls], name: bad})
