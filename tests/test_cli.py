import json
import math
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

from mgpert import cli

CLI = [sys.executable, "-m", "mgpert.cli"]


def run_cli(*args, timeout=300):
    return subprocess.run(
        CLI + list(args), capture_output=True, text=True, timeout=timeout
    )


def test_cli_import_leaves_optimizer_unloaded():
    # calibrate carries its own least-squares search; scipy.optimize is never imported
    code = """
import math, sys
import mgpert.cli
from mgpert.calibration import Quote, QuoteSet, calibrate
from mgpert.experiments import run_timeseries_experiment
from mgpert.mc import McConfig, TimeSeriesSpec
from mgpert.params import OptionSpec
quotes = QuoteSet(quotes=[
    Quote(opt=OptionSpec(spot=100.0, strike=k, tau_cal=30 / 365, variance=0.09), iv=0.29)
    for k in (90.0, 100.0, 110.0)
])
assert math.isfinite(calibrate(quotes, (1.5, 1.5, 1.0, 0.25)).ivrmse)
assert math.isfinite(calibrate(quotes, (1.5, 1.5, 1.0, 0.25), fix_structurals=True).ivrmse)
spec = TimeSeriesSpec(n_sample_paths=2, n_obs=1, maturities=(30,), moneyness=(0.95, 1.0, 1.05),
                      mc=McConfig(n_paths=1000, steps_per_day=1, n_strata=50))
assert len(run_timeseries_experiment(1, spec=spec, n_workers=2).per_path) == 2
print("scipy.optimize" in sys.modules)
"""
    assert _run_python(code) == "False"


def _run_python(code):
    """Run code in a fresh interpreter; return the last line it printed."""
    p = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=300)
    assert p.returncode == 0, p.stderr
    return p.stdout.strip().splitlines()[-1]


def test_scalar_pricing_leaves_scipy_unloaded():
    # a contract is priced by analytic's pure-Python Phi; scipy.special's array
    # Phi is imported by the first array price
    code = """
import sys
import mgpert, mgpert.cli
for argv in (["--kind", "call"], ["--kind", "put", "--strike", "120"], ["--days", "0"]):
    assert mgpert.cli.main(["price", *argv]) == 0
before = "scipy" in sys.modules or "scipy.special" in sys.modules
import numpy as np
from mgpert.analytic import bs_price
strikes, sigmas = np.array([80.0, 100.0, 130.0]), np.array([0.1, 0.2, 0.7])
prices = bs_price(100.0, strikes, 0.5, 0.02, sigmas)
loaded = "scipy.special" in sys.modules
from scipy.special import ndtr
stt = sigmas * np.sqrt(0.5)
d1 = (np.log(100.0 / strikes) + (0.02 + 0.5 * sigmas**2) * 0.5) / stt
ref = 100.0 * ndtr(d1) - strikes * np.exp(-0.02 * 0.5) * ndtr(d1 - stt)
print(before, loaded, prices.tobytes() == ref.tobytes())
"""
    assert _run_python(code) == "False True True"


def test_timeseries_pool_inherits_scipy_special():
    # the parent loads the array Phi before the workers fork, so they share
    # its pages instead of each importing scipy.special in its first round
    code = """
import concurrent.futures, sys
from mgpert.experiments import run_timeseries_experiment
from mgpert.mc import McConfig, TimeSeriesSpec
loaded = ["scipy.special" in sys.modules]
class Pool(concurrent.futures.ProcessPoolExecutor):
    def __init__(self, *args, **kwargs):
        loaded.append("scipy.special" in sys.modules)
        super().__init__(*args, **kwargs)
concurrent.futures.ProcessPoolExecutor = Pool
spec = TimeSeriesSpec(n_sample_paths=2, n_obs=1, maturities=(30,), moneyness=(0.95, 1.0, 1.05),
                      mc=McConfig(n_paths=1000, steps_per_day=1, n_strata=50))
assert len(run_timeseries_experiment(1, spec=spec, n_workers=2).per_path) == 2
print(loaded)
"""
    assert _run_python(code) == "[False, True]"


class TestPriceCommand:
    def test_expiry_payoff(self):
        p = run_cli("price", "--days", "0", "--spot", "110", "--strike", "100",
                    "--kind", "call")
        assert p.returncode == 0
        out = json.loads(p.stdout)
        assert out["total"] == 10.0
        assert out["implied_vol"] is None

    def test_validation_exit_code(self):
        p = run_cli("price", "--rho", "1.5")
        assert p.returncode == 2
        assert "rho" in p.stderr

    def test_degenerate_exit_code(self):
        # kappa chosen so the tilt denominator 1 + sqrt(2)gamma/(sigma xi0)
        # vanishes: kappa = sigma*xi/sqrt(2) - xi^2 at alpha=1
        sigma, xi = 0.2, 0.1
        kappa = sigma * xi / math.sqrt(2.0) - xi**2
        p = run_cli("price", "--sigma", repr(sigma), "--xi", repr(xi),
                    "--kappa", repr(kappa), "--alpha", "1.0")
        assert p.returncode == 3

    def test_json_schema_and_precision(self):
        p = run_cli("price")
        out = json.loads(p.stdout)
        assert list(out) == ["c0", "c1", "total", "d1", "d2", "implied_vol"]
        # 17 significant digits round-trip the double exactly
        assert out["total"] == float(repr(out["total"]))

    def test_put_parity_through_cli(self):
        c = json.loads(run_cli("price", "--kind", "call").stdout)
        p = json.loads(run_cli("price", "--kind", "put").stdout)
        assert c["total"] - p["total"] == pytest.approx(0.0, abs=1e-10)

    def test_v0_independence(self):
        a = json.loads(run_cli("price", "--v0", "1").stdout)
        b = json.loads(run_cli("price", "--v0", "10").stdout)
        assert a == b


class TestMcPriceCommand:
    def test_deterministic_given_seed(self):
        args = ("mc-price", "--paths", "2000", "--steps-per-day", "2",
                "--seed", "42", "--strata", "50")
        assert run_cli(*args).stdout == run_cli(*args).stdout

    def test_constant_vol_limit(self):
        p = run_cli("mc-price", "--xi", "1e-9", "--kappa", "1e-9",
                    "--theta", "0.04", "--variance", "0.04",
                    "--paths", "100000", "--steps-per-day", "2", "--seed", "1")
        out = json.loads(p.stdout)
        # Black-Scholes at sigma=0.2, 30 days, ATM
        ref = 2.2871506280449694
        assert abs(out["estimate"] - ref) < 3 * out["std_error"]

    def test_antithetic_parity_violation(self):
        p = run_cli("mc-price", "--paths", "3")
        assert p.returncode == 2


class TestOracleCheckCommand:
    def test_coarse_grid_exits_four(self):
        p = run_cli("oracle-check", "--nodes", "8", "--time-nodes", "8")
        assert p.returncode == 4

    def test_small_grid_passes(self, tmp_path):
        out = tmp_path / "oracle.csv"
        p = run_cli("oracle-check", "--moneyness-points", "2",
                    "--variance-points", "2", "--out", str(out))
        assert p.returncode == 0, p.stderr
        assert "PASS" in p.stdout
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# config ")
        assert lines[1] == "x,y,tau,psi0,psi1_quad,c1_closed_form,abs_err"
        assert len(lines) == 2 + 4

    def test_v0_independence_of_closed_form_column(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli("oracle-check", "--moneyness-points", "2", "--variance-points", "1",
                "--v0", "1", "--out", str(a))
        run_cli("oracle-check", "--moneyness-points", "2", "--variance-points", "1",
                "--v0", "10", "--out", str(b))

        def c1_col(path):
            rows = [ln.split(",") for ln in path.read_text().splitlines()[2:]]
            return [r[5] for r in rows]

        assert c1_col(a) == c1_col(b)


class TestConfigFile:
    def test_flag_overrides_config(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("spot=120\nstrike=100\n# a comment\ndays=0\n")
        out = json.loads(run_cli("price", "--config", str(cfg)).stdout)
        assert out["total"] == 20.0
        out = json.loads(
            run_cli("price", "--config", str(cfg), "--spot", "130").stdout
        )
        assert out["total"] == 30.0

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("spoot=120\n")
        p = run_cli("price", "--config", str(cfg))
        assert p.returncode == 2
        assert "spoot" in p.stderr

    def test_missing_file_rejected(self):
        p = run_cli("price", "--config", "/nonexistent/run.cfg")
        assert p.returncode == 2

    def test_non_utf8_file_rejected(self, tmp_path):
        cfg = tmp_path / "latin1.cfg"
        cfg.write_bytes(b"kind=\xe9t\xe9\n")
        p = run_cli("price", "--config", str(cfg))
        assert p.returncode == 2
        assert str(cfg) in p.stderr
        assert "Traceback" not in p.stderr

    def test_full_false_is_false(self, tmp_path):
        # a truthy "false" would clash with the scale keys and exit 2
        cfg = tmp_path / "run.cfg"
        cfg.write_text("full=false\nsample_paths=2\nobs=1\npaths=2000\n"
                       "steps-per-day=2\nthreads=1\n")
        out = tmp_path / "rep"
        p = run_cli("experiment", "timeseries", "--config", str(cfg), "--out-dir", str(out))
        assert p.returncode == 0, p.stderr
        assert (out / "table3.csv").exists()


class TestExperimentCommand:
    def test_invalid_dataset(self, tmp_path):
        out = tmp_path / "rep"
        p = run_cli("experiment", "timeseries", "--dataset", "9", "--out-dir", str(out))
        assert p.returncode == 2
        assert not out.exists()

    def test_static_writes_tables(self, tmp_path):
        out = tmp_path / "rep"
        p = run_cli("experiment", "static", "--paths", "20000",
                    "--steps-per-day", "2", "--out-dir", str(out), timeout=600)
        assert p.returncode == 0, p.stderr
        table = (out / "table1.csv").read_text().splitlines()
        assert table[0].startswith("# config ")
        assert table[1] == "v_init,sigma_hat,ivrmse"
        assert len(table) == 2 + 4
        figures = sorted(f.name for f in out.glob("figure_*.csv"))
        assert len(figures) == 4

    def test_timeseries_thread_independence(self, tmp_path):
        outs = []
        for threads, sub in (("1", "t1"), ("4", "t4")):
            d = tmp_path / sub
            p = run_cli("experiment", "timeseries", "--dataset", "2",
                        "--sample-paths", "2", "--obs", "1", "--paths", "2000",
                        "--steps-per-day", "2", "--threads", threads,
                        "--out-dir", str(d), timeout=600)
            assert p.returncode == 0, p.stderr
            body = [(d / "table2.csv").read_text(), (d / "table3.csv").read_text(), p.stdout]
            outs.append(body)
        assert outs[0] == outs[1]


LEAVES = cli.build_parser()[1]


def _float_flags(handler):
    return [a.option_strings[0] for a in LEAVES[handler]._actions if a.type is float]


PRICE_FLOAT_FLAGS = _float_flags(cli.cmd_price)
ORACLE_FLOAT_FLAGS = _float_flags(cli.cmd_oracle_check)

# (command words, config key, malformed value) for every flag whose value is
# parsed; --out and --out-dir take any path
MALFORMED = {float: "abc", int: "1.5", cli._boolean: "maybe"}
CONFIG_CASES = [
    (tuple(leaf.prog.split()[1:]), action.dest, MALFORMED.get(action.type, "sideways"))
    for leaf in LEAVES.values()
    for action in leaf._actions
    if action.dest not in ("help", "config", "out", "out_dir")
]


def _resolved(*argv):
    return cli.build_parser()[0].parse_args(list(argv))


def _exit_code(argv):
    try:
        return cli.main(argv)
    except SystemExit as exc:  # argparse rejects a value
        return exc.code


class TestInProcessValidation:
    def test_float_flag_lists_cover_every_float_flag(self):
        assert len(PRICE_FLOAT_FLAGS) == 12
        assert len(ORACLE_FLOAT_FLAGS) == 18

    @given(st.sampled_from(CONFIG_CASES))
    @example((("price",), "spot", "abc"))
    @example((("mc-price",), "paths", "1.5"))
    @example((("mc-price",), "strata", "maybe"))
    @example((("experiment", "timeseries"), "full", "perhaps"))
    def test_malformed_config_value_exits_two(self, case):
        words, key, value = case
        with tempfile.TemporaryDirectory() as tmp:
            cfg = Path(tmp) / "run.cfg"
            cfg.write_text(f"{key}={value}\n")
            assert _exit_code([*words, "--config", str(cfg)]) == cli.EXIT_VALIDATION

    @given(st.sampled_from(PRICE_FLOAT_FLAGS), st.sampled_from(["nan", "inf", "-inf"]))
    def test_price_rejects_non_finite_flags(self, flag, value):
        # flag=value form, since argparse reads a bare "-inf" as an option
        assert cli.main(["price", f"{flag}={value}"]) == cli.EXIT_VALIDATION

    @given(st.sampled_from(ORACLE_FLOAT_FLAGS), st.sampled_from(["nan", "inf", "-inf"]))
    def test_oracle_check_rejects_non_finite_flags(self, flag, value):
        # --rel-tol, --half-width, --rel-pass and --abs-pass used to disable checks
        assert cli.main(["oracle-check", f"{flag}={value}"]) == cli.EXIT_VALIDATION

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("value", ["inf", "-inf", "nan", "0", "-0.5"])
    @pytest.mark.parametrize("flag", ["--moneyness-min", "--moneyness-max",
                                      "--variance-min", "--variance-max"])
    def test_oracle_check_grid_bounds_name_the_flag(self, flag, value, capsys):
        # checked before np.linspace, which warned and left a NaN strike to reject
        assert cli.main(["oracle-check", f"{flag}={value}"]) == cli.EXIT_VALIDATION
        assert f"error: {flag} must be finite and > 0, got" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--rel-pass=-1", "--abs-pass=-1",
                                      "--moneyness-points=0", "--variance-points=-1"])
    def test_oracle_check_rejects_out_of_domain(self, flag):
        # a negative tolerance fails every point; an empty grid passes with none checked
        assert cli.main(["oracle-check", flag]) == cli.EXIT_VALIDATION

    def test_oracle_check_nan_error_fails(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "psi1_quadrature", lambda *args, **kwargs: math.nan)
        argv = ["oracle-check", "--moneyness-points", "1", "--variance-points", "1"]
        assert cli.main(argv) == cli.EXIT_CHECK_FAILURE
        assert "FAIL: 1 points, max_abs_err=nan" in capsys.readouterr().out

    @pytest.mark.parametrize("out", ["missing/oracle.csv", "."])
    def test_oracle_check_unopenable_out_exits_before_work(self, out, tmp_path, monkeypatch):
        def no_quadrature(*args, **kwargs):
            raise AssertionError("computed the grid before opening --out")

        monkeypatch.setattr(cli, "psi1_quadrature", no_quadrature)
        argv = ["oracle-check", "--moneyness-points", "1", "--variance-points", "1",
                "--out", str(tmp_path / out)]
        assert cli.main(argv) == cli.EXIT_VALIDATION
        assert not (tmp_path / "missing").exists()

    def test_oracle_check_rejected_grid_leaves_no_out_file(self, tmp_path):
        out = tmp_path / "oracle.csv"
        argv = ["oracle-check", "--moneyness-min=nan", "--out", str(out)]
        assert cli.main(argv) == cli.EXIT_VALIDATION
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flag", [["--paths", "2000"], ["--sample-paths", "2"],
                                      ["--obs", "1"]])
    def test_full_rejects_scale_flags(self, flag, tmp_path):
        argv = ["experiment", "timeseries", "--full", "--out-dir", str(tmp_path)] + flag
        assert cli.main(argv) == cli.EXIT_VALIDATION

    def test_full_rejects_scale_keys_from_config(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("obs=3\n")
        argv = ["experiment", "timeseries", "--full", "--config", str(cfg),
                "--out-dir", str(tmp_path)]
        assert cli.main(argv) == cli.EXIT_VALIDATION

    @pytest.mark.parametrize("argv", [["timeseries", "--dataset", "9"],
                                      ["timeseries", "--paths", "3"],
                                      ["timeseries", "--threads", "0"],
                                      ["timeseries", "--threads=-3"],
                                      ["static", "--paths", "3"],
                                      ["static", "--days=nan"],
                                      ["static", "--days=inf"],
                                      ["static", "--days=-inf"],
                                      ["static", "--days=-5"],
                                      ["static", "--days=0"]])
    def test_invalid_experiment_creates_no_out_dir(self, argv, tmp_path):
        # 3 paths cannot be split into antithetic pairs
        out = tmp_path / "rep"
        assert cli.main(["experiment"] + argv + ["--out-dir", str(out)]) == cli.EXIT_VALIDATION
        assert not out.exists()

    @pytest.mark.parametrize("key", ["antithetic", "stratified"])
    def test_sampling_switches_removed(self, key, tmp_path):
        # the MC sampling design is fixed: antithetic pairs, stratified first step
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key}=false\n")
        for argv in ([f"--{key}", "false"], ["--config", str(cfg)]):
            assert _exit_code(["mc-price", "--paths", "2000", *argv]) == cli.EXIT_VALIDATION

    def test_desk_scale_flag_removed(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["experiment", "timeseries", "--desk-scale"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [["static", "--dataset", "2"],
                                      ["static", "--threads", "2"],
                                      ["static", "--full"],
                                      ["timeseries", "--days", "45"]])
    def test_study_rejects_flags_it_ignores(self, argv, tmp_path):
        out = tmp_path / "rep"
        assert _exit_code(["experiment"] + argv + ["--out-dir", str(out)]) == 2
        assert not out.exists()

    def test_timeseries_uses_strata(self, tmp_path):
        # 7 strata cannot split 1000 base paths; the flag used to be ignored here
        argv = ["experiment", "timeseries", "--paths", "2000", "--strata", "7",
                "--out-dir", str(tmp_path)]
        assert cli.main(argv) == cli.EXIT_VALIDATION


class TestConfigHash:
    @given(st.text(alphabet="abc/_.", min_size=1, max_size=12), st.integers(1, 64))
    def test_ignores_output_and_threads(self, out_dir, threads):
        base = cli.config_hash(_resolved("experiment", "timeseries"))
        moved = _resolved("experiment", "timeseries", "--out-dir", out_dir,
                          "--threads", str(threads))
        assert cli.config_hash(moved) == base
        assert (cli.config_hash(_resolved("oracle-check", "--out", out_dir))
                == cli.config_hash(_resolved("oracle-check")))

    def test_default_study_headers(self, monkeypatch, tmp_path):
        # recorded: each equals the hash over the options the study reads
        monkeypatch.setattr(cli, "run_static_experiment", lambda **kw: None)
        monkeypatch.setattr(cli, "run_timeseries_experiment", lambda *a, **kw: None)
        headers = []

        def capture(report, out_dir, comment):
            headers.append(comment)
            raise cli.MgpertError("stop")

        monkeypatch.setattr(cli, "write_static_report", capture)
        monkeypatch.setattr(cli, "write_timeseries_report", capture)
        for argv in (["static"], ["timeseries"], ["timeseries", "--full"]):
            cli.main(["experiment", *argv, "--out-dir", str(tmp_path)])
        assert headers == ["config 4ee2bbc3b5ed3b1e", "config 6d480b8728f78368",
                           "config 5d9d94299a175d16"]

    def test_result_options_change_it(self):
        base = cli.config_hash(_resolved("experiment", "timeseries"))
        assert cli.config_hash(_resolved("experiment", "timeseries", "--seed", "1")) != base
