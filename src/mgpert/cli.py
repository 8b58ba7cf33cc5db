"""Command-line interface: pricing, Monte Carlo, oracle checks, experiments.

Exit codes: 0 ok, 1 check failure, 2 validation error, 3 degenerate
parameters, 4 non-convergence.  All maturities are taken in days and
converted with a 365-day year.  Config files are flat UTF-8 key=value
lines ('#' starts a comment) whose values are parsed as the flags' are;
precedence is flags > config file > defaults.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import math
import os
import sys

import numpy as np

from .analytic import implied_vol, price_mg
from .errors import (
    DegenerateParams,
    InvalidParams,
    MgpertError,
    NoConvergence,
    NonpositiveVariance,
    OutOfBounds,
    QuadratureNotConverged,
)
from .experiments import (
    DATASETS,
    run_static_experiment,
    run_timeseries_experiment,
    write_csv,
    write_static_report,
    write_timeseries_report,
)
from .heatkernel import QuadratureConfig, breaking_operator_grid, psi0_grid, psi1_quadrature
from .mc import DAYS_PER_YEAR, McConfig, TimeSeriesSpec, price_option_mc
from .params import (
    MgParams,
    OptionSpec,
    PerturbParams,
    derive_params,
    tilt,
    to_heat_coords,
)

EXIT_OK = 0
EXIT_CHECK_FAILURE = 1
EXIT_VALIDATION = 2
EXIT_DEGENERATE = 3
EXIT_NO_CONVERGENCE = 4


def _boolean(text):
    t = str(text).strip().lower()
    if t in ("true", "1", "yes", "on"):
        return True
    if t in ("false", "0", "no", "off"):
        return False
    raise argparse.ArgumentTypeError(f"expected true/false, got {text!r}")


def fmt_float(x) -> str:
    """17 significant digits, enough to round-trip any double."""
    return f"{float(x):.17g}"


def dump_json(pairs) -> str:
    """Flat JSON object with stable key order and 17-digit floats."""
    items = []
    for key, value in pairs:
        if value is None:
            rep = "null"
        elif isinstance(value, bool):
            rep = "true" if value else "false"
        elif isinstance(value, (int, np.integer)):
            rep = str(int(value))
        elif isinstance(value, (float, np.floating)):
            # strict JSON has no Infinity/NaN tokens
            rep = fmt_float(value) if math.isfinite(value) else "null"
        else:
            rep = '"' + str(value).replace("\\", "\\\\").replace('"', '\\"') + '"'
        items.append(f'"{key}": {rep}')
    return "{" + ", ".join(items) + "}"


def config_hash(ns: argparse.Namespace) -> str:
    """Short digest of the resolved options that change results, for output headers."""
    parts = []
    for key in sorted(vars(ns)):
        # where output goes and how many workers make it never change its contents
        if key in ("config", "func", "out", "out_dir", "threads"):
            continue
        parts.append(f"{key}={vars(ns)[key]!r}")
    blob = " ".join(parts)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def read_config_file(path, known_keys):
    """Flat key=value UTF-8 config; unknown keys are a validation error."""
    values = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise InvalidParams(f"{path}:{lineno}: expected key=value, got {raw!r}")
                key, _, value = line.partition("=")
                key = key.strip().replace("-", "_")
                if key not in known_keys:
                    raise InvalidParams(f"{path}:{lineno}: unknown config key {key!r}")
                values[key] = value.strip()
    except (OSError, UnicodeDecodeError) as exc:
        raise InvalidParams(f"cannot read config file {path}: {exc}") from exc
    return values


def _mg_from_ns(ns) -> MgParams:
    return MgParams(kappa=ns.kappa, theta=ns.theta, xi=ns.xi, rho=ns.rho,
                    alpha=ns.alpha, r=ns.rate)


def _opt_from_ns(ns) -> OptionSpec:
    return OptionSpec(spot=ns.spot, strike=ns.strike, tau_cal=ns.days / DAYS_PER_YEAR,
                      kind=ns.kind, variance=ns.variance)


def cmd_price(ns) -> int:
    mg = _mg_from_ns(ns)
    opt = _opt_from_ns(ns)
    pert = PerturbParams.from_mg(mg, ns.sigma, ns.v0)
    breakdown = price_mg(opt, mg, pert)
    try:
        iv = implied_vol(breakdown.total, opt, mg.r)
    except (OutOfBounds, NoConvergence):
        iv = None
    print(dump_json([
        ("c0", breakdown.c0),
        ("c1", breakdown.c1),
        ("total", breakdown.total),
        ("d1", breakdown.d1),
        ("d2", breakdown.d2),
        ("implied_vol", iv),
    ]))
    return EXIT_OK


def cmd_mc_price(ns) -> int:
    mg = _mg_from_ns(ns)
    opt = _opt_from_ns(ns)
    cfg = McConfig(n_paths=ns.paths, steps_per_day=ns.steps_per_day,
                   n_strata=ns.strata, seed=ns.seed)
    mp = price_option_mc(opt, mg, cfg)
    print(dump_json([
        ("estimate", mp.estimate),
        ("std_error", mp.std_error),
        ("n_effective", mp.n_effective),
    ]))
    return EXIT_OK


def cmd_oracle_check(ns) -> int:
    """Grid comparison of quadrature psi1 against the closed form.

    Emits one CSV row per grid point and a human-readable summary line;
    fails (exit 1) when any point misses the tolerance, which is
    max(rel_pass relative, abs_pass currency units).
    """
    for flag, value in (("--rel-pass", ns.rel_pass), ("--abs-pass", ns.abs_pass)):
        # a NaN tolerance would pass every point
        if not 0.0 <= value < math.inf:
            raise InvalidParams(f"{flag} must be finite and >= 0, got {value}")
    for flag, value in (("--moneyness-points", ns.moneyness_points),
                        ("--variance-points", ns.variance_points)):
        # an empty grid would pass with nothing checked
        if value < 1:
            raise InvalidParams(f"{flag} must be >= 1, got {value}")
    for flag, value in (("--moneyness-min", ns.moneyness_min),
                        ("--moneyness-max", ns.moneyness_max),
                        ("--variance-min", ns.variance_min),
                        ("--variance-max", ns.variance_max)):
        # np.linspace warns on an infinite end, and every strike and variance
        # on the grid must be positive
        if not 0.0 < value < math.inf:
            raise InvalidParams(f"{flag} must be finite and > 0, got {value}")
    mg = _mg_from_ns(ns)
    pert = PerturbParams.from_mg(mg, ns.sigma, ns.v0)
    deriv = derive_params(mg, pert)
    if ns.out:
        _check_out_file(ns.out)
    qcfg = QuadratureConfig(half_width=ns.half_width, n_nodes=ns.nodes,
                            n_time=ns.time_nodes, fd_step=ns.fd_step,
                            rel_tol=ns.rel_tol)
    moneyness = np.linspace(ns.moneyness_min, ns.moneyness_max, ns.moneyness_points)
    variances = np.linspace(ns.variance_min, ns.variance_max, ns.variance_points)
    spot = 100.0

    rows, errs = [], []
    max_ratio = [0.0, 0.0, 0.0]  # drift, variance-diffusion, correlation terms
    n_fail = 0
    for m in moneyness:
        for v in variances:
            opt = OptionSpec(spot=spot, strike=m * spot, tau_cal=ns.days / DAYS_PER_YEAR,
                             kind="call", variance=float(v))
            hc = to_heat_coords(opt, pert)
            p0 = float(psi0_grid(hc.x, hc.y, hc.tau, deriv))
            p1 = psi1_quadrature(hc, mg, pert, deriv, qcfg)
            bd = price_mg(opt, mg, pert)
            c1_quad = opt.strike * tilt(hc, deriv) * p1
            err = abs(c1_quad - bd.c1)
            tol = max(ns.abs_pass, ns.rel_pass * abs(bd.c1))
            # a NaN error is a failure, not a pass
            if not err <= tol:
                n_fail += 1
            errs.append(err)
            base = abs(breaking_operator_grid(hc.x, hc.y, 0.5 * hc.tau, mg, pert, deriv,
                                              1.0, 0.0, 0.0, 0.0, ns.fd_step))
            for i, flags in enumerate([(0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]):
                term = abs(breaking_operator_grid(hc.x, hc.y, 0.5 * hc.tau, mg, pert,
                                                  deriv, *flags, ns.fd_step))
                max_ratio[i] = max(max_ratio[i], float(term / base) if base else 0.0)
            rows.append([fmt_float(hc.x), fmt_float(hc.y), fmt_float(hc.tau),
                         fmt_float(p0), fmt_float(p1), fmt_float(bd.c1), fmt_float(err)])

    header = ["x", "y", "tau", "psi0", "psi1_quad", "c1_closed_form", "abs_err"]
    if ns.out:
        write_csv(ns.out, header, rows, f"config {config_hash(ns)}")
    else:
        writer = csv.writer(sys.stdout)
        writer.writerow(header)
        writer.writerows(rows)
    status = "PASS" if n_fail == 0 else "FAIL"
    max_abs = np.max(errs)  # NaN propagates, unlike the builtin max
    print(f"oracle-check {status}: {len(rows)} points, max_abs_err={max_abs:.3e}, "
          f"annihilation_ratios=[{max_ratio[0]:.2e}, {max_ratio[1]:.2e}, "
          f"{max_ratio[2]:.2e}]")
    return EXIT_OK if n_fail == 0 else EXIT_CHECK_FAILURE


def _check_out_file(path):
    """Check the output file opens for writing, before a long run, and leave no new file."""
    try:
        existed = os.path.exists(path)
        with open(path, "a", encoding="utf-8"):  # "a" keeps an existing file's content
            pass
        if not existed:
            os.remove(path)
    except OSError as exc:
        raise InvalidParams(f"output file {path!r} not writable: {exc}") from exc


def _make_out_dir(out_dir):
    """Create the report directory and check it takes files, before a long run."""
    try:
        os.makedirs(out_dir, exist_ok=True)
        probe = os.path.join(out_dir, ".write_probe")
        with open(probe, "w", encoding="utf-8"):
            pass
        os.remove(probe)
    except OSError as exc:
        raise InvalidParams(f"output directory {out_dir!r} not writable: {exc}") from exc


def cmd_static(ns) -> int:
    # every option is checked before the output directory is created
    if not 0.0 < ns.days < math.inf:
        raise InvalidParams(f"--days must be finite and > 0, got {ns.days}")
    cfg = McConfig(n_paths=ns.paths, steps_per_day=ns.steps_per_day, seed=ns.seed,
                   n_strata=ns.strata)
    _make_out_dir(ns.out_dir)
    report = run_static_experiment(mc_cfg=cfg, maturity_days=ns.days)
    write_static_report(report, ns.out_dir, f"config {config_hash(ns)}")
    print("v_init sigma_hat ivrmse")
    for row in report.rows:
        print(f"{row.v_init:.4f} {row.sigma_hat:.4f} {row.ivrmse:.4f}")
    return EXIT_OK


def cmd_timeseries(ns) -> int:
    # every option is checked before the output directory is created
    if ns.dataset not in DATASETS:
        raise InvalidParams(f"--dataset must be one of {sorted(DATASETS)}, got {ns.dataset}")
    if ns.threads < 1:
        raise InvalidParams(f"--threads must be >= 1, got {ns.threads}")
    desk_scale = {"paths": 10_000, "sample_paths": 10, "obs": 12}
    if ns.full and any(getattr(ns, key) is not None for key in desk_scale):
        raise InvalidParams("--full sets the paths, sample paths and observations; "
                            "give none of --paths, --sample-paths, --obs with it")
    # unset scale flags take their desk-scale values, which the header hashes,
    # under --full too
    for key, value in desk_scale.items():
        if getattr(ns, key) is None:
            setattr(ns, key, value)
    if ns.full:
        sample_paths, obs, paths = 100, 52, 50_000
    else:
        sample_paths, obs, paths = ns.sample_paths, ns.obs, ns.paths
    spec = TimeSeriesSpec(n_sample_paths=sample_paths, n_obs=obs,
                          mc=McConfig(n_paths=paths, steps_per_day=ns.steps_per_day,
                                      n_strata=ns.strata, seed=ns.seed))
    _make_out_dir(ns.out_dir)
    report = run_timeseries_experiment(ns.dataset, spec=spec, seed=ns.seed,
                                       n_workers=ns.threads)
    write_timeseries_report(report, ns.out_dir, f"config {config_hash(ns)}")
    print("dataset param true mean bias std")
    for s in report.param_stats:
        print(f"{s.dataset} {s.param} {s.true:.4f} {s.mean:.4f} {s.bias:.4f} {s.std:.4f}")
    print(f"ivrmse mean={report.ivrmse_mean:.4f} std={report.ivrmse_std:.4f}")
    return EXIT_OK


def build_parser():
    """The `mgpert` parser, and each command's own parser keyed by its handler."""
    parser = argparse.ArgumentParser(
        prog="mgpert",
        description="Perturbative stochastic-volatility pricing engine.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    leaves = {}

    def leaf(subparsers, name, func, help_, parents):
        p = subparsers.add_parser(name, help=help_, parents=parents,
                                  formatter_class=argparse.ArgumentDefaultsHelpFormatter)
        p.add_argument("--config", help="flat key=value config file [path]")
        p.set_defaults(func=func)
        leaves[func] = p
        return p

    # flag groups shared between commands
    model = argparse.ArgumentParser(add_help=False)
    model.add_argument("--kappa", type=float, default=1.5, help="mean-reversion speed [1/year]")
    model.add_argument("--theta", type=float, default=0.08, help="long-run variance [1/year]")
    model.add_argument("--xi", type=float, default=1.5, help="vol-of-vol [year^(alpha-3/2)]")
    model.add_argument("--rho", type=float, default=-0.5, help="driver correlation, in [-1, 1]")
    model.add_argument("--alpha", type=float, default=1.0,
                       help="variance exponent [dimensionless]")
    model.add_argument("--rate", type=float, default=0.0, help="risk-free rate [1/year]")
    maturity = argparse.ArgumentParser(add_help=False)
    maturity.add_argument("--days", type=float, default=30.0,
                          help="time to maturity [days, 365-day year]")
    contract = argparse.ArgumentParser(add_help=False, parents=[maturity])
    contract.add_argument("--spot", type=float, default=100.0, help="spot price [currency]")
    contract.add_argument("--strike", type=float, default=100.0, help="strike [currency]")
    contract.add_argument("--kind", default="call", help="option kind: call or put")
    contract.add_argument("--variance", type=float, default=0.04,
                          help="current instantaneous variance [1/year]")
    pert = argparse.ArgumentParser(add_help=False)
    pert.add_argument("--sigma", type=float, default=0.2,
                      help="averaged volatility [1/sqrt(year)]")
    pert.add_argument("--v0", type=float, default=1.0, help="reference variance scale [1/year]")
    sampling = argparse.ArgumentParser(add_help=False)
    sampling.add_argument("--strata", type=int, default=50,
                          help="equiprobable first-step strata; must divide paths / 2 [count]")
    sampling.add_argument("--seed", type=int, default=0, help="random seed [integer]")
    study = argparse.ArgumentParser(add_help=False, parents=[sampling])
    study.add_argument("--steps-per-day", type=int, default=10,
                       help="variance steps per day [count]")
    study.add_argument("--out-dir", default="out", help="report output directory [path]")

    leaf(sub, "price", cmd_price, "closed-form perturbative price", [model, contract, pert])

    p = leaf(sub, "mc-price", cmd_mc_price, "Monte Carlo price of one contract",
             [model, contract, sampling])
    p.add_argument("--paths", type=int, default=100_000, help="Monte Carlo paths [count]")
    p.add_argument("--steps-per-day", type=int, default=10, help="Euler steps per day [count]")

    p = leaf(sub, "oracle-check", cmd_oracle_check,
             "quadrature vs closed-form correction on a scenario grid", [model, pert, maturity])
    p.add_argument("--nodes", type=int, default=128,
                   help="spatial quadrature nodes per axis [count]")
    p.add_argument("--time-nodes", type=int, default=64,
                   help="time-layer quadrature nodes [count]")
    p.add_argument("--half-width", type=float, default=8.0,
                   help="spatial half-width [kernel-scale units]")
    p.add_argument("--fd-step", type=float, default=1e-4,
                   help="finite-difference step [heat x units]")
    p.add_argument("--rel-tol", type=float, default=1e-3,
                   help="quadrature refinement tolerance [relative]")
    p.add_argument("--moneyness-min", type=float, default=0.9,
                   help="lowest S/K on the grid [ratio]")
    p.add_argument("--moneyness-max", type=float, default=1.1,
                   help="highest S/K on the grid [ratio]")
    p.add_argument("--moneyness-points", type=int, default=5,
                   help="moneyness grid points [count]")
    p.add_argument("--variance-min", type=float, default=0.01,
                   help="lowest variance on the grid [1/year]")
    p.add_argument("--variance-max", type=float, default=0.1225,
                   help="highest variance on the grid [1/year]")
    p.add_argument("--variance-points", type=int, default=5, help="variance grid points [count]")
    p.add_argument("--rel-pass", type=float, default=1e-3, help="pass tolerance [relative]")
    p.add_argument("--abs-pass", type=float, default=5e-3,
                   help="pass tolerance [currency units]")
    p.add_argument("--out", default="", help="CSV output path; empty for stdout")

    p = sub.add_parser("experiment", help="static or time-series study, CSV reports")
    studies = p.add_subparsers(dest="experiment", required=True)

    p = leaf(studies, "static", cmd_static, "Table 1 and Figures 1-2: fit sigma to MC smiles",
             [study, maturity])
    p.add_argument("--paths", type=int, default=10_000,
                   help="Monte Carlo paths per option [count]")

    p = leaf(studies, "timeseries", cmd_timeseries,
             "Tables 2-3: fit each simulated weekly market path", [study])
    p.add_argument("--dataset", type=int, default=1, help="time-series data set id, 1-4")
    p.add_argument("--paths", type=int,
                   help="Monte Carlo paths per option; 10000 if unset [count]")
    p.add_argument("--sample-paths", type=int,
                   help="simulated market paths; 10 if unset [count]")
    p.add_argument("--obs", type=int, help="weekly observations per path; 12 if unset [count]")
    p.add_argument("--threads", type=int, default=os.cpu_count() or 1,
                   help="worker processes; must not change results [count]")
    p.add_argument("--full", type=_boolean, nargs="?", const=True, default=False,
                   help="100 paths x 52 obs x 5*10^4 sims; excludes --paths, "
                        "--sample-paths and --obs")

    return parser, leaves


def main(argv=None) -> int:
    parser, leaves = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        ns = parser.parse_args(argv)
        if ns.config:
            # the file's values become the command's defaults, which argparse
            # converts by each flag's type: flags > config file > defaults
            known = set(vars(ns)) - {"command", "experiment", "func", "config"}
            leaves[ns.func].set_defaults(**read_config_file(ns.config, known))
            ns = parser.parse_args(argv)
        return ns.func(ns)
    except (InvalidParams, NonpositiveVariance, OutOfBounds) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except DegenerateParams as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except (QuadratureNotConverged, NoConvergence) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except MgpertError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILURE


if __name__ == "__main__":
    sys.exit(main())
