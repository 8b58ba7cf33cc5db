"""Golden SHA-256 hashes of Monte Carlo outputs at fixed seeds.

The simulation promises bit-identical output for a fixed (seed, config), so
a change to an engine must leave these bytes alone.  The Euler hashes were
recorded on the allocating engine, before the in-place rewrite; the
conditional engine's, the panel's and table1's when the experiments moved
to the conditional engine.  They hold for this platform's numpy and libm,
which is what the determinism promise covers.
"""

import hashlib
import math

import numpy as np
import pytest

from mgpert.experiments import STATIC_MG, run_static_experiment, write_static_report
from mgpert.mc import (
    DAYS_PER_YEAR,
    McConfig,
    TimeSeriesSpec,
    generate_time_series,
    simulate_euler,
    simulate_terminal,
    step_euler,
    write_panel_csv,
)
from mgpert.params import MgParams

DT = 1.0 / (DAYS_PER_YEAR * 10)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


SIMULATE_CASES = {
    # the static-smile shape: antithetic, stratified, alpha = 1, r = 0
    "static": (
        STATIC_MG,
        McConfig(n_paths=2000, steps_per_day=10, n_strata=50, seed=7),
        "264dfcfec7b86a42091a0e23334a663ba8203baa711e35420ff5d146e79b15f5",
    ),
    # Heston exponent with a rate, plain sampling
    "alpha_half_rate": (
        MgParams(kappa=2.0, theta=0.05, xi=0.6, rho=-0.7, alpha=0.5, r=0.03),
        McConfig(n_paths=1500, antithetic=False, stratified=False, seed=11),
        "349270e5d8989c7c8dab52a8f556826ce7ce361730807c923cf35210c7c840f8",
    ),
    "alpha_three_halves": (
        MgParams(kappa=1.2, theta=0.06, xi=1.1, rho=0.3, alpha=1.5, r=0.01),
        McConfig(n_paths=1000, n_strata=10, seed=3),
        "fe317f6ee30cd543137169c73cf47e8a741f48b912d44292c6221b8e7df333f0",
    ),
}


@pytest.mark.parametrize("name", sorted(SIMULATE_CASES))
def test_simulate_euler_golden(name):
    mg, cfg, digest = SIMULATE_CASES[name]
    snaps = simulate_euler(100.0, 0.09, mg, cfg, [0, 30, 75, 120], DT)
    assert np.isfinite(snaps).all()
    assert _sha(snaps.tobytes()) == digest


def test_simulate_terminal_golden():
    # the static shape with a rate, so every factor of the forward is live
    mg = MgParams(kappa=1.5, theta=0.08, xi=1.5, rho=-0.5, alpha=1.0, r=0.02)
    cfg = McConfig(n_paths=2000, steps_per_day=10, n_strata=50, seed=7)
    forwards, variances = simulate_terminal(100.0, 0.09, mg, cfg, [0, 30, 75, 120], DT)
    assert np.isfinite(forwards).all() and (variances >= 0).all()
    assert (forwards[0] == 100.0).all() and (variances[0] == 0.0).all()
    assert _sha(forwards.tobytes() + variances.tobytes()) == (
        "f863a88d80aa460146d50ced187ff12016afdef67e3f3d35ef410c2084e4616f"
    )


def test_panel_csv_golden(tmp_path):
    spec = TimeSeriesSpec(
        n_sample_paths=2,
        n_obs=2,
        maturities=(7, 30),
        moneyness=(0.95, 1.0, 1.05),
        mc=McConfig(n_paths=400, steps_per_day=4, n_strata=20),
    )
    rows = generate_time_series(spec, MgParams(kappa=1.1768, theta=0.0823, xi=0.3,
                                               rho=-0.5459, alpha=1.0), seed=5)
    path = tmp_path / "panel.csv"
    write_panel_csv(rows, path)
    assert _sha(path.read_bytes()) == (
        "c38abbbe3e1f2f2aa926509308e87f9e28c46f9cdc162d48142166b3011675bc"
    )


def test_static_table1_golden(tmp_path):
    report = run_static_experiment(
        v_grid=(0.35, 0.18),
        mc_cfg=McConfig(n_paths=4000, steps_per_day=2, n_strata=20, seed=9),
    )
    write_static_report(report, tmp_path)
    assert _sha((tmp_path / "table1.csv").read_bytes()) == (
        "1779fa996ebb210eda2a76364d910de082f1105b80aba298fcaafca184ca9973"
    )


@pytest.mark.parametrize("alpha, r", [(0.5, 0.03), (1.0, 0.0), (1.5, 0.01)])
def test_step_euler_copy_matches_in_place(alpha, r):
    mg = MgParams(kappa=1.5, theta=0.08, xi=1.5, rho=-0.5, alpha=alpha, r=r)
    rng = np.random.default_rng(0)
    s = 100.0 * np.exp(0.1 * rng.standard_normal(64))
    v = 0.09 + 0.05 * rng.standard_normal(64)  # some negative: full truncation
    z_s, z_v = rng.standard_normal(64), rng.standard_normal(64)
    s0, v0 = s.copy(), v.copy()

    s_new, v_new = step_euler(s, v, DT, z_s, z_v, mg)
    assert s_new is not s and v_new is not v
    assert s.tobytes() == s0.tobytes() and v.tobytes() == v0.tobytes()
    # the step written out as one expression, in the documented order
    v_plus = np.maximum(v, 0.0)
    s_ref = s + mg.r * s * DT + s * np.sqrt(v_plus * DT) * z_s
    v_ref = v + mg.kappa * (mg.theta - v_plus) * DT + mg.xi * v_plus**alpha * math.sqrt(DT) * z_v
    assert s_new.tobytes() == s_ref.tobytes() and v_new.tobytes() == v_ref.tobytes()

    work = tuple(np.empty_like(s) for _ in range(3))
    s_in, v_in = step_euler(s, v, DT, z_s, z_v, mg, work)
    assert s_in is s and v_in is v
    assert s.tobytes() == s_new.tobytes() and v.tobytes() == v_new.tobytes()
